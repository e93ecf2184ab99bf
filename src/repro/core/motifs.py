"""The taxonomy of 2- and 3-node, 3-edge δ-temporal motifs (Fig. 2).

Canonical form
--------------
A motif is a sequence of three directed edges in time order.  We write
it with nodes labelled by **order of first appearance**: the first edge
is always ``1→2`` and the first node that appears later and is neither
1 nor 2 is labelled ``3``.  Example: the temporal cycle is
``((1,2),(2,3),(3,1))``.  Two edge triples are the same motif iff their
canonical forms are equal.

Grid positions
--------------
The paper arranges the 36 motifs in the 6×6 grid ``M_ij`` of its
Fig. 2, split into three categories:

* 4 **pair** motifs (2 nodes): ``M55, M56, M65, M66``;
* 24 **star** motifs: columns 1–4, with Star-I in rows 1–2, Star-II in
  rows 3–4, Star-III in rows 5–6 (the paper's Fig. 3);
* 8 **triangle** motifs: rows 1–4, columns 5–6.

Grid positions are pinned to every anchor recoverable from the paper's
text — ``M24 = Star[I,in,o,in]``, ``M63 = Star[III,o,o,in]``,
``M65 = ⟨x→y, y→x, x→y⟩``, ``M25``/``M46`` worked examples, the full
triangle table of Fig. 8, and ``M26`` being the temporal cycle that
2SCENT counts.  Star cells not pinned by an anchor follow a systematic
rule: within a type's row pair, the row is
chosen by the direction of the *isolated* edge (outward→odd row,
inward→even row) and the column by the directions of the two *paired*
edges in time order (``(in,in)→1, (in,o)→2, (o,o)→3, (o,in)→4``).

Counter-cell correspondence
---------------------------
The triple/quadruple counters of the paper index motifs by edge
directions relative to a **center node** ``u``.  The functions
:func:`star_cell_motif`, :func:`pair_cell_motif` and
:func:`tri_cell_motif` derive, for each counter cell, the canonical
motif it observes — reproducing the isomorphism table of the paper's
Fig. 8 programmatically (and tested against it verbatim).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.temporal_graph import IN, OUT

#: One directed edge of a canonical motif: (source label, dest label).
CanonicalEdge = Tuple[int, int]
#: A canonical motif: three edges in time order, appearance-labelled.
CanonicalForm = Tuple[CanonicalEdge, CanonicalEdge, CanonicalEdge]

#: Star types of Fig. 3 (index into the quadruple counter's first axis).
STAR_I, STAR_II, STAR_III = 0, 1, 2
#: Triangle types of Fig. 7.
TRI_I, TRI_II, TRI_III = 0, 1, 2

_STAR_TYPE_NAMES = {STAR_I: "I", STAR_II: "II", STAR_III: "III"}


class MotifCategory(enum.Enum):
    """Topological category of a motif (the Fig. 2 colour groups)."""

    PAIR = "pair"
    STAR = "star"
    TRIANGLE = "triangle"


def canonicalize(edges: Sequence[Tuple[int, int]]) -> CanonicalForm:
    """Relabel an edge triple's nodes by order of first appearance.

    ``edges`` must already be in time order.  Node identities may be
    arbitrary ints; the result uses labels 1, 2, 3.
    """
    mapping: Dict[int, int] = {}
    out: List[CanonicalEdge] = []
    for u, v in edges:
        for node in (u, v):
            if node not in mapping:
                mapping[node] = len(mapping) + 1
        out.append((mapping[u], mapping[v]))
    return (out[0], out[1], out[2])


@dataclass(frozen=True)
class Motif:
    """One of the 36 motifs: grid position + canonical edge pattern."""

    row: int
    col: int
    canonical: CanonicalForm
    category: MotifCategory = field(compare=False)

    @property
    def name(self) -> str:
        """The paper's label, e.g. ``"M24"``."""
        return f"M{self.row}{self.col}"

    @property
    def num_nodes(self) -> int:
        return len({n for e in self.canonical for n in e})

    @property
    def is_cycle(self) -> bool:
        """True for the temporal 3-cycle (``M26``), 2SCENT's target."""
        return self.canonical == ((1, 2), (2, 3), (3, 1))

    def __repr__(self) -> str:
        arrows = ", ".join(f"{u}→{v}" for u, v in self.canonical)
        return f"Motif({self.name}: ⟨{arrows}⟩)"


def _categorize(canonical: CanonicalForm) -> MotifCategory:
    nodes = {n for e in canonical for n in e}
    if len(nodes) == 2:
        return MotifCategory.PAIR
    pairs = {frozenset(e) for e in canonical}
    return MotifCategory.TRIANGLE if len(pairs) == 3 else MotifCategory.STAR


# ---------------------------------------------------------------------------
# Counter-cell -> canonical-motif derivations
# ---------------------------------------------------------------------------

def _star_cell_canonical(star_type: int, d1: int, d2: int, d3: int) -> CanonicalForm:
    """Canonical form observed by counter cell ``Star[type, d1, d2, d3]``.

    Node roles: center ``u``; the *isolated* edge connects neighbour
    ``a``; the two *paired* edges connect neighbour ``b``.  Directions
    are relative to ``u`` (:data:`OUT` = away from the center).
    """
    u, a, b = 0, 1, 2
    if star_type == STAR_I:
        nbrs = (a, b, b)
    elif star_type == STAR_II:
        nbrs = (b, a, b)
    elif star_type == STAR_III:
        nbrs = (b, b, a)
    else:
        raise ValueError(f"invalid star type {star_type}")
    dirs = (d1, d2, d3)
    edges = [(u, n) if d == OUT else (n, u) for n, d in zip(nbrs, dirs)]
    return canonicalize(edges)


def _pair_cell_canonical(d1: int, d2: int, d3: int) -> CanonicalForm:
    """Canonical form observed by counter cell ``Pair[d1, d2, d3]``."""
    u, w = 0, 1
    edges = [(u, w) if d == OUT else (w, u) for d in (d1, d2, d3)]
    return canonicalize(edges)


def _tri_cell_canonical(tri_type: int, di: int, dj: int, dk: int) -> CanonicalForm:
    """Canonical form observed by counter cell ``Tri[type, di, dj, dk]``.

    Following Fig. 7: ``ei`` joins center ``u`` and ``v`` (``di`` is
    relative to ``u``), ``ej`` joins ``u`` and ``w`` (``dj`` relative to
    ``u``), and ``ek`` joins ``v`` and ``w`` with ``dk`` relative to
    ``v`` (:data:`OUT` means ``v→w``).  The type fixes where ``ek``
    falls in time: before ``ei`` (Type I), between (Type II), or after
    ``ej`` (Type III); ``ei`` always precedes ``ej``.
    """
    u, v, w = 0, 1, 2
    ei = (u, v) if di == OUT else (v, u)
    ej = (u, w) if dj == OUT else (w, u)
    ek = (v, w) if dk == OUT else (w, v)
    if tri_type == TRI_I:
        seq = (ek, ei, ej)
    elif tri_type == TRI_II:
        seq = (ei, ek, ej)
    elif tri_type == TRI_III:
        seq = (ei, ej, ek)
    else:
        raise ValueError(f"invalid triangle type {tri_type}")
    return canonicalize(seq)


def _star_cell_grid_position(star_type: int, d1: int, d2: int, d3: int) -> Tuple[int, int]:
    """Grid position of a star counter cell (see module docstring)."""
    # star_type is 0/1/2 and the isolated edge is the 1st/2nd/3rd edge.
    isolated = (d1, d2, d3)[star_type]
    paired = {
        STAR_I: (d2, d3),
        STAR_II: (d1, d3),
        STAR_III: (d1, d2),
    }[star_type]
    base_row = {STAR_I: 1, STAR_II: 3, STAR_III: 5}[star_type]
    row = base_row if isolated == OUT else base_row + 1
    col = {(IN, IN): 1, (IN, OUT): 2, (OUT, OUT): 3, (OUT, IN): 4}[paired]
    return (row, col)


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

def _build_grid() -> Dict[Tuple[int, int], Motif]:
    grid: Dict[Tuple[int, int], Motif] = {}

    def place(row: int, col: int, canonical: CanonicalForm) -> None:
        key = (row, col)
        if key in grid:
            raise AssertionError(f"grid cell {key} assigned twice")
        grid[key] = Motif(row, col, canonical, _categorize(canonical))

    # Pair motifs: row <- direction of 2nd edge, col <- direction of 3rd
    # (M65 = <1->2, 2->1, 1->2> per the paper's Fig. 1 walkthrough).
    place(5, 5, ((1, 2), (1, 2), (1, 2)))  # M55
    place(5, 6, ((1, 2), (1, 2), (2, 1)))  # M56
    place(6, 5, ((1, 2), (2, 1), (1, 2)))  # M65
    place(6, 6, ((1, 2), (2, 1), (2, 1)))  # M66

    # Triangle motifs, exactly the eight classes of Fig. 8.
    place(1, 5, ((1, 2), (1, 3), (2, 3)))  # M15
    place(1, 6, ((1, 2), (2, 3), (1, 3)))  # M16
    place(2, 5, ((1, 2), (3, 1), (2, 3)))  # M25
    place(2, 6, ((1, 2), (2, 3), (3, 1)))  # M26 — the temporal cycle
    place(3, 5, ((1, 2), (3, 1), (3, 2)))  # M35
    place(3, 6, ((1, 2), (3, 2), (1, 3)))  # M36
    place(4, 5, ((1, 2), (1, 3), (3, 2)))  # M45
    place(4, 6, ((1, 2), (3, 2), (3, 1)))  # M46

    # Star motifs: derived from the 24 counter cells.
    for star_type in (STAR_I, STAR_II, STAR_III):
        for d1 in (OUT, IN):
            for d2 in (OUT, IN):
                for d3 in (OUT, IN):
                    row, col = _star_cell_grid_position(star_type, d1, d2, d3)
                    place(row, col, _star_cell_canonical(star_type, d1, d2, d3))
    return grid


#: Grid position ``(row, col)`` -> :class:`Motif`, all 36 cells.
GRID: Dict[Tuple[int, int], Motif] = _build_grid()

#: Canonical form -> :class:`Motif` (forms are unique across the grid).
BY_CANONICAL: Dict[CanonicalForm, Motif] = {}
for _m in GRID.values():
    if _m.canonical in BY_CANONICAL:
        raise AssertionError(f"duplicate canonical form {_m.canonical}")
    BY_CANONICAL[_m.canonical] = _m

#: Name (``"M11"`` ... ``"M66"``) -> :class:`Motif`.
MOTIFS_BY_NAME: Dict[str, Motif] = {m.name: m for m in GRID.values()}

#: All 36 motifs in row-major grid order.
ALL_MOTIFS: List[Motif] = [GRID[(i, j)] for i in range(1, 7) for j in range(1, 7)]

#: The motifs of each category, in grid order.
PAIR_MOTIFS = [m for m in ALL_MOTIFS if m.category is MotifCategory.PAIR]
STAR_MOTIFS = [m for m in ALL_MOTIFS if m.category is MotifCategory.STAR]
TRIANGLE_MOTIFS = [m for m in ALL_MOTIFS if m.category is MotifCategory.TRIANGLE]


# ---------------------------------------------------------------------------
# Public lookup helpers
# ---------------------------------------------------------------------------

def star_cell_motif(star_type: int, d1: int, d2: int, d3: int) -> Motif:
    """Motif recorded by counter cell ``Star[type, d1, d2, d3]``."""
    return BY_CANONICAL[_star_cell_canonical(star_type, d1, d2, d3)]


def pair_cell_motif(d1: int, d2: int, d3: int) -> Motif:
    """Motif recorded by counter cell ``Pair[d1, d2, d3]``."""
    return BY_CANONICAL[_pair_cell_canonical(d1, d2, d3)]


def tri_cell_motif(tri_type: int, di: int, dj: int, dk: int) -> Motif:
    """Motif recorded by counter cell ``Tri[type, di, dj, dk]``.

    The paper's Fig. 8: the three cells (one per type) that map to the
    same motif are isomorphic views of one instance from its three
    corners.
    """
    return BY_CANONICAL[_tri_cell_canonical(tri_type, di, dj, dk)]


def classify_triple(
    edges: Sequence[Tuple[int, int]],
) -> Optional[Motif]:
    """Classify three time-ordered directed edges as one of the 36 motifs.

    Returns ``None`` when the triple is not a valid 2- or 3-node
    pattern (more than three distinct nodes, or a self-loop).  Any
    triple on at most three nodes is necessarily connected.
    """
    nodes = set()
    for u, v in edges:
        if u == v:
            return None
        nodes.add(u)
        nodes.add(v)
    if len(nodes) > 3:
        return None
    return BY_CANONICAL[canonicalize(edges)]


def motif_cell(motif: Motif) -> int:
    """Flat row-major grid cell of a motif: ``(row-1)*6 + (col-1)``.

    The one definition of the 6×6 grid's flat layout — the sampling
    kernels, their classification table, and the per-cell tallies all
    index through this.
    """
    return (motif.row - 1) * 6 + (motif.col - 1)


def star_type_name(star_type: int) -> str:
    """Human-readable star type (``"I"``, ``"II"``, ``"III"``)."""
    return _STAR_TYPE_NAMES[star_type]
