"""The paper's compact counters and the 6×6 result grid.

Three counters record motif instances during a FAST pass:

* ``Star[type, dir1, dir2, dir3]`` — quadruple counter, 3·2·2·2 = 24
  cells, one per non-isomorphic star motif;
* ``Pair[dir1, dir2, dir3]`` — triple counter, 8 cells for the 4
  non-isomorphic pair motifs (each instance is observed from both of
  its endpoints, landing in the two complementary cells);
* ``Tri[type, diri, dirj, dirk]`` — quadruple counter, 24 cells for the
  8 non-isomorphic triangle motifs (each instance is observed from its
  three corners, landing in the three isomorphic cells of Fig. 8).

Counters are plain flat ``list`` objects underneath so the counting
hot loops can index them without attribute lookups; the classes here
wrap projection to the grid, merging (the OpenMP ``reduction``
analogue) and the paper's de-duplication rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.core import motifs as motif_mod
from repro.core.motifs import (
    MotifCategory,
    GRID,
    MOTIFS_BY_NAME,
    pair_cell_motif,
    star_cell_motif,
    tri_cell_motif,
)
from repro.graph.temporal_graph import IN, OUT


def star_index(star_type: int, d1: int, d2: int, d3: int) -> int:
    """Flat index of ``Star[type, d1, d2, d3]`` (also used by ``Tri``)."""
    return star_type * 8 + d1 * 4 + d2 * 2 + d3


def pair_index(d1: int, d2: int, d3: int) -> int:
    """Flat index of ``Pair[d1, d2, d3]``."""
    return d1 * 4 + d2 * 2 + d3


def _dir_name(d: int) -> str:
    return "o" if d == OUT else "in"


class _FlatCounter:
    """Shared machinery for the flat-list counters."""

    size = 0

    def __init__(self, data: Optional[List[int]] = None) -> None:
        if data is None:
            data = [0] * self.size
        elif len(data) != self.size:
            raise ValidationError(
                f"{type(self).__name__} expects {self.size} cells, got {len(data)}"
            )
        self.data: List[int] = list(data)

    def merge(self, other: "_FlatCounter") -> "_FlatCounter":
        """Add ``other`` into this counter in place (reduction step)."""
        if type(other) is not type(self):
            raise ValidationError(f"cannot merge {type(other).__name__} into {type(self).__name__}")
        self.data = [a + b for a, b in zip(self.data, other.data)]
        return self

    def copy(self):
        """Independent deep copy (workers start from a private copy)."""
        return type(self)(list(self.data))

    def total(self) -> int:
        """Sum over all cells (raw, before de-duplication)."""
        return sum(self.data)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.data == other.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(total={self.total()})"


class StarCounter(_FlatCounter):
    """``Star[·,·,·,·]`` — 24 cells, one per star motif, counted once."""

    size = 24

    def get(self, star_type: int, d1: int, d2: int, d3: int) -> int:
        """Count of ``Star[type, d1, d2, d3]`` (§IV-A.2, Table I).

        ``star_type`` is 0/1/2 for Star-I/II/III (which edge is the
        isolated one); ``d1..d3`` are the chronological edge
        directions relative to the center (:data:`OUT`/:data:`IN`).
        """
        return self.data[star_index(star_type, d1, d2, d3)]

    def add(self, star_type: int, d1: int, d2: int, d3: int, count: int = 1) -> None:
        """Add ``count`` instances to one star cell (Algorithm 1 line 13)."""
        self.data[star_index(star_type, d1, d2, d3)] += count

    def cells(self) -> Iterable[Tuple[str, int]]:
        """Yield ``("Star[I,in,o,in]", count)`` labelled cells."""
        for t in (0, 1, 2):
            for d1 in (OUT, IN):
                for d2 in (OUT, IN):
                    for d3 in (OUT, IN):
                        label = (
                            f"Star[{motif_mod.star_type_name(t)},"
                            f"{_dir_name(d1)},{_dir_name(d2)},{_dir_name(d3)}]"
                        )
                        yield label, self.get(t, d1, d2, d3)

    def per_motif(self) -> Dict[str, int]:
        """Exact per-motif counts (stars have a unique center: no dedup)."""
        result: Dict[str, int] = {}
        for t in (0, 1, 2):
            for d1 in (OUT, IN):
                for d2 in (OUT, IN):
                    for d3 in (OUT, IN):
                        motif = star_cell_motif(t, d1, d2, d3)
                        result[motif.name] = self.get(t, d1, d2, d3)
        return result


class PairCounter(_FlatCounter):
    """``Pair[·,·,·]`` — 8 cells for the 4 pair motifs.

    A pair instance with edges between ``x`` and ``y`` is found twice:
    once with center ``x`` (cell ``[d1,d2,d3]``) and once with center
    ``y`` (the complementary cell ``[¬d1,¬d2,¬d3]``).  The cell whose
    first direction is :data:`OUT` therefore holds the exact count, and
    after a full pass complementary cells must agree —
    :meth:`check_center_symmetry` asserts exactly that.
    """

    size = 8

    def get(self, d1: int, d2: int, d3: int) -> int:
        """Count of ``Pair[d1, d2, d3]`` seen from one endpoint (§IV-A.3)."""
        return self.data[pair_index(d1, d2, d3)]

    def add(self, d1: int, d2: int, d3: int, count: int = 1) -> None:
        """Add ``count`` instances to one pair cell (Algorithm 1 line 11)."""
        self.data[pair_index(d1, d2, d3)] += count

    def check_center_symmetry(self) -> bool:
        """True iff every cell equals its direction-flipped complement."""
        for d1 in (OUT, IN):
            for d2 in (OUT, IN):
                for d3 in (OUT, IN):
                    if self.get(d1, d2, d3) != self.get(1 - d1, 1 - d2, 1 - d3):
                        return False
        return True

    def per_motif(self) -> Dict[str, int]:
        """Exact per-motif counts via the OUT-rooted cells."""
        result: Dict[str, int] = {}
        for d2 in (OUT, IN):
            for d3 in (OUT, IN):
                motif = pair_cell_motif(OUT, d2, d3)
                result[motif.name] = self.get(OUT, d2, d3)
        return result


class TriangleCounter(_FlatCounter):
    """``Tri[·,·,·,·]`` — 24 cells for the 8 triangle motifs.

    In the dependency-free (parallel-safe) mode of the paper each
    instance is counted three times — once per corner, landing in the
    three isomorphic cells of Fig. 8 — so per-motif projection divides
    by three.  With the single-threaded center-removal trick
    (Algorithm 2, line 26) each instance is counted once and
    ``multiplicity`` is 1.
    """

    size = 24

    def __init__(self, data: Optional[List[int]] = None, multiplicity: int = 3) -> None:
        super().__init__(data)
        if multiplicity not in (1, 3):
            raise ValidationError(f"multiplicity must be 1 or 3, got {multiplicity}")
        self.multiplicity = multiplicity

    def copy(self):
        """Independent deep copy preserving the multiplicity mode."""
        return TriangleCounter(list(self.data), self.multiplicity)

    def merge(self, other: "_FlatCounter") -> "TriangleCounter":
        """Reduce another triangle counter into this one (§IV-C).

        Only counters of equal ``multiplicity`` are mergeable — mixing
        a center-removal run into a dependency-free one would break
        the per-motif division rule.
        """
        if isinstance(other, TriangleCounter) and other.multiplicity != self.multiplicity:
            raise ValidationError("cannot merge TriangleCounters of different multiplicity")
        super().merge(other)
        return self

    def get(self, tri_type: int, di: int, dj: int, dk: int) -> int:
        """Count of ``Tri[type, di, dj, dk]`` (§IV-B, Fig. 7).

        ``tri_type`` is 0/1/2 for Triangle-I/II/III (where the far
        edge ``e_k`` falls relative to the center's ``e_i``/``e_j``);
        directions are relative to the corner the instance was
        observed from.
        """
        return self.data[star_index(tri_type, di, dj, dk)]

    def add(self, tri_type: int, di: int, dj: int, dk: int, count: int = 1) -> None:
        """Add ``count`` instances to one triangle cell (Algorithm 2 line 19)."""
        self.data[star_index(tri_type, di, dj, dk)] += count

    def isomorphic_cells(self) -> Dict[str, List[Tuple[int, int, int, int]]]:
        """Motif name -> its (type, di, dj, dk) counter cells (Fig. 8)."""
        groups: Dict[str, List[Tuple[int, int, int, int]]] = {}
        for t in (0, 1, 2):
            for di in (OUT, IN):
                for dj in (OUT, IN):
                    for dk in (OUT, IN):
                        name = tri_cell_motif(t, di, dj, dk).name
                        groups.setdefault(name, []).append((t, di, dj, dk))
        return groups

    def check_corner_symmetry(self) -> bool:
        """True iff the three isomorphic cells of every motif agree.

        Holds after a full multiplicity-3 pass; does not hold for
        partial (per-worker) counters or center-removal runs.
        """
        if self.multiplicity != 3:
            return True
        for cells in self.isomorphic_cells().values():
            values = {self.get(*cell) for cell in cells}
            if len(values) > 1:
                return False
        return True

    def per_motif(self) -> Dict[str, int]:
        """Exact per-motif counts, de-duplicated by ``multiplicity``."""
        sums: Dict[str, int] = {}
        for t in (0, 1, 2):
            for di in (OUT, IN):
                for dj in (OUT, IN):
                    for dk in (OUT, IN):
                        name = tri_cell_motif(t, di, dj, dk).name
                        sums[name] = sums.get(name, 0) + self.get(t, di, dj, dk)
        result: Dict[str, int] = {}
        for name, value in sums.items():
            if value % self.multiplicity:
                raise ValidationError(
                    f"triangle counter for {name} is {value}, not divisible by "
                    f"multiplicity {self.multiplicity}; was a partial counter projected?"
                )
            result[name] = value // self.multiplicity
        return result


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Two-sided 95% Student's t quantiles for 1..30 degrees of freedom.
T95_TABLE = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t95(n_samples: int) -> float:
    """95% interval multiplier for a mean of ``n_samples`` replicates.

    Student's t with ``n_samples - 1`` degrees of freedom: the stderr
    comes from the replicates themselves, so the normal 1.96 is only
    right in the limit (with the default 3 replicates it is 4.303).
    Past 30 degrees of freedom the 30-df value is used, which errs
    wide by at most 0.08.
    """
    if n_samples < 2:
        raise ValidationError(
            f"a confidence interval needs at least 2 replicates, got {n_samples}"
        )
    return T95_TABLE[min(n_samples - 1, len(T95_TABLE)) - 1]


def _format_count(value) -> str:
    """Format a count the way Fig. 10 does (K/M suffixes)."""
    if value >= 10_000_000:
        return f"{value / 1e6:.1f}M"
    if value >= 10_000:
        return f"{value / 1e3:.1f}K"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


@dataclass
class MotifCounts:
    """Counts of all 36 motifs: the paper's 6×6 grid (Fig. 10).

    Supports lookup by motif name (``counts["M24"]``), per-category
    totals, exact equality, addition, and a text rendering of the grid.

    This is also the registry's unified ``CountResult``: sampling
    estimators carry a ``stderr`` grid (standard error of the mean over
    replicates, see :func:`repro.core.registry.execute`), algorithms
    report per-phase wall-clock in ``phase_seconds``, and ``is_exact``
    records whether the producing algorithm is exact (defaulting to
    dtype inference: integer grids are exact).
    """

    grid: np.ndarray
    algorithm: str = "fast"
    delta: float = 0.0
    elapsed_seconds: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)
    stderr: Optional[np.ndarray] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    is_exact: Optional[bool] = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid)
        if grid.dtype == object and all(
            isinstance(value, (int, np.integer)) for value in grid.flat
        ):
            # Python ints (e.g. python-loop sums) stay exact: int64
            # when they fit, an error — never a float round — otherwise.
            for cell, value in np.ndenumerate(grid):
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise ValidationError(
                        f"exact count {value} in grid cell {cell} does not fit in int64"
                    )
            grid = grid.astype(np.int64)
        if np.issubdtype(grid.dtype, np.integer) or np.issubdtype(grid.dtype, np.bool_):
            grid = grid.astype(np.int64)
        else:
            # Sampling estimators carry fractional expectations.
            grid = grid.astype(np.float64)
        self.grid = grid
        if self.grid.shape != (6, 6):
            raise ValidationError(f"grid must be 6x6, got shape {self.grid.shape}")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=np.float64)
            if self.stderr.shape != (6, 6):
                raise ValidationError(
                    f"stderr must be 6x6, got shape {self.stderr.shape}"
                )
        if self.is_exact is None:
            self.is_exact = bool(np.issubdtype(self.grid.dtype, np.integer))

    @classmethod
    def zeros(cls, **kwargs) -> "MotifCounts":
        """An all-zero exact grid (identity element of ``+``)."""
        return cls(np.zeros((6, 6), dtype=np.int64), **kwargs)

    @classmethod
    def from_dict(cls, per_motif: Dict[str, int], **kwargs) -> "MotifCounts":
        """Build a grid from ``{"M11": count, ...}`` names (Fig. 10 ids)."""
        grid = np.zeros((6, 6), dtype=np.int64)
        for name, value in per_motif.items():
            motif = MOTIFS_BY_NAME[name]
            grid[motif.row - 1, motif.col - 1] = value
        return cls(grid, **kwargs)

    @classmethod
    def from_counters(
        cls,
        star: Optional[StarCounter] = None,
        pair: Optional[PairCounter] = None,
        triangle: Optional[TriangleCounter] = None,
        **kwargs,
    ) -> "MotifCounts":
        """Project counters onto the grid (de-duplicating as documented)."""
        per_motif: Dict[str, int] = {}
        for counter in (star, pair, triangle):
            if counter is not None:
                per_motif.update(counter.per_motif())
        return cls.from_dict(per_motif, **kwargs)

    # -- lookups ------------------------------------------------------
    def __getitem__(self, name: str):
        motif = MOTIFS_BY_NAME[name]
        return self.grid[motif.row - 1, motif.col - 1].item()

    def get(self, row: int, col: int):
        """Count of ``M{row}{col}`` (1-indexed, as in the paper)."""
        return self.grid[row - 1, col - 1].item()

    def category_total(self, category: MotifCategory) -> int:
        return sum(
            self.get(m.row, m.col) for m in GRID.values() if m.category is category
        )

    def total(self):
        """Total motif instances across all 36 motifs."""
        return self.grid.sum().item()

    def per_motif(self) -> Dict[str, int]:
        return {m.name: self.get(m.row, m.col) for m in GRID.values()}

    # -- provenance ---------------------------------------------------
    def dominant_phase(self) -> Optional[Tuple[str, float]]:
        """The ``(name, seconds)`` phase that dominated the runtime.

        ``None`` when the producing algorithm reported no per-phase
        timings.  Lets callers see at a glance *where* a run spent its
        time (e.g. ``star_pair`` vs ``triangle`` vs ``columnar_build``).
        """
        if not self.phase_seconds:
            return None
        name = max(self.phase_seconds, key=lambda k: self.phase_seconds[k])
        return name, self.phase_seconds[name]

    # -- uncertainty (sampling estimators) ----------------------------
    def stderr_of(self, name: str) -> float:
        """Standard error of one motif's estimate (0.0 when exact)."""
        if self.stderr is None:
            return 0.0
        motif = MOTIFS_BY_NAME[name]
        return float(self.stderr[motif.row - 1, motif.col - 1])

    def confidence_interval(self, name: str) -> Tuple[float, float]:
        """95% confidence interval for one motif.

        Student's t over the ``meta["n_samples"]`` replicates the
        stderr came from (:func:`t95`); zero width without a stderr.
        """
        center = float(self[name])
        if self.stderr is None:
            return (center, center)
        half = t95(int(self.meta["n_samples"])) * self.stderr_of(name)
        return (center - half, center + half)

    # -- category masking ---------------------------------------------
    def masked(self, categories: str) -> "MotifCounts":
        """Copy with cells outside the selected categories zeroed.

        The single masking implementation shared by every algorithm
        (the registry dispatcher applies it uniformly).  ``"all"``
        returns ``self`` unchanged.
        """
        keep = category_keep_mask(categories)
        if categories == "all":
            return self
        return MotifCounts(
            np.where(keep, self.grid, 0),
            algorithm=self.algorithm,
            delta=self.delta,
            elapsed_seconds=self.elapsed_seconds,
            meta=dict(self.meta),
            stderr=None if self.stderr is None else np.where(keep, self.stderr, 0.0),
            phase_seconds=dict(self.phase_seconds),
            is_exact=self.is_exact,
        )

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "MotifCounts") -> "MotifCounts":
        # Adding independent estimates: variances add, so stderr cells
        # combine in quadrature (and are dropped if either side lacks
        # them).  Exactness survives only if both sides are exact.
        stderr = None
        if self.stderr is not None and other.stderr is not None:
            stderr = np.sqrt(self.stderr ** 2 + other.stderr ** 2)
        return MotifCounts(
            self.grid + other.grid,
            algorithm=self.algorithm,
            delta=self.delta,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            meta=dict(self.meta),
            stderr=stderr,
            is_exact=bool(self.is_exact and other.is_exact),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotifCounts):
            return NotImplemented
        return bool(np.array_equal(self.grid, other.grid))

    def same_counts(self, other: "MotifCounts") -> bool:
        """Alias for equality, reads better at call sites."""
        return self == other

    # -- rendering ----------------------------------------------------
    def to_text(self, title: Optional[str] = None) -> str:
        """Render the 6×6 grid in the style of Fig. 10."""
        lines: List[str] = []
        if title:
            lines.append(title)
        header = "      " + "".join(f"{f'j={j}':>9}" for j in range(1, 7))
        lines.append(header)
        for i in range(1, 7):
            row = "".join(f"{_format_count(self.get(i, j)):>9}" for j in range(1, 7))
            lines.append(f"  i={i}{row}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text(
            f"MotifCounts[{self.algorithm}, δ={self.delta}] total={self.total()}"
        )


def category_keep_mask(categories: str) -> np.ndarray:
    """Boolean 6×6 mask of the grid cells a category selection keeps."""
    wanted = {
        "star": {MotifCategory.STAR},
        "pair": {MotifCategory.PAIR},
        "triangle": {MotifCategory.TRIANGLE},
        "star_pair": {MotifCategory.STAR, MotifCategory.PAIR},
        "all": {MotifCategory.STAR, MotifCategory.PAIR, MotifCategory.TRIANGLE},
    }.get(categories)
    if wanted is None:
        raise ValidationError(
            f"unknown categories {categories!r}; choose from "
            "('all', 'star', 'pair', 'triangle', 'star_pair')"
        )
    keep = np.zeros((6, 6), dtype=bool)
    for motif in GRID.values():
        if motif.category in wanted:
            keep[motif.row - 1, motif.col - 1] = True
    return keep


def merge_counters(counters: Iterable[_FlatCounter]) -> Optional[_FlatCounter]:
    """Reduce an iterable of same-type counters into one (sum of cells)."""
    result: Optional[_FlatCounter] = None
    for counter in counters:
        if result is None:
            result = counter.copy()
        else:
            result.merge(counter)
    return result
