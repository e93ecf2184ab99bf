"""Pluggable algorithm registry: one entry point, seven (and counting) algorithms.

Every counting algorithm — the paper's FAST/HARE as well as the
baselines it is evaluated against — registers itself here with
:func:`register_algorithm`, declaring its capabilities in an
:class:`AlgorithmSpec`: exact vs. approximate, which motif-category
selections it supports, whether it can run parallel, and which extra
parameters (``q``, ``p``, ``window_factor``, …) it accepts.

Callers describe *what* to count with a :class:`CountRequest` and get
back a :class:`~repro.core.counters.MotifCounts` (aliased
:data:`CountResult`) regardless of the algorithm:

>>> from repro.core.registry import CountRequest, execute
>>> result = execute(CountRequest(graph=g, delta=600, algorithm="bts"))
>>> result.is_exact, result.stderr is not None
(False, True)

Sampling estimators are replicated ``n_samples`` times with
consecutive seeds; the dispatcher averages the replicate grids and
fills ``result.stderr`` with the standard error of the mean, so every
approximate answer carries its own uncertainty.

Adding an algorithm is one decorated function::

    @register_algorithm("mycounter", exact=True)
    def _mycounter(request: CountRequest) -> MotifCounts:
        return MotifCounts(my_grid(request.graph, request.delta))

The built-in algorithms live in :mod:`repro.core.algorithms` and are
loaded lazily on first registry access, so importing :mod:`repro`
stays cheap.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError, check_delta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counters import MotifCounts
    from repro.graph.temporal_graph import TemporalGraph

#: Motif-category selections every request may ask for.
CATEGORIES = ("all", "star", "pair", "triangle", "star_pair")

#: Replicates run by default for approximate algorithms (the stderr
#: of a single draw is undefined; three is the cheapest defensible n).
DEFAULT_SAMPLING_REPLICATES = 3

#: Category selections that require the FAST star/pair pass.
STAR_PAIR_CATEGORIES = ("all", "star", "pair", "star_pair")

#: Category selections that require a triangle pass.
TRIANGLE_CATEGORIES = ("all", "triangle")

#: Process start methods a request may pin for parallel execution
#: (``None`` defers to ``REPRO_START_METHOD`` / the platform default).
START_METHODS = (None, "fork", "spawn", "forkserver")


def _check_start_method(start_method: Optional[str]) -> None:
    if start_method not in START_METHODS:
        raise ValidationError(
            f"unknown start_method {start_method!r}; choose from {START_METHODS}"
        )


def _check_capabilities(
    spec: "AlgorithmSpec",
    *,
    categories: str,
    workers: int,
    params: Mapping[str, object],
) -> Dict[str, object]:
    """Validate shared request knobs against a spec; return merged params.

    The capability checks common to batch (:class:`CountRequest`) and
    streaming (:class:`StreamRequest`) resolution: category support,
    parallel support, and unknown algorithm parameters.  Returns the
    request's ``params`` merged over the spec's declared defaults.
    """
    if categories not in spec.categories:
        raise ValidationError(
            f"algorithm {spec.name!r} does not support categories="
            f"{categories!r} (supported: {spec.categories})"
        )
    if workers > 1 and not spec.parallel:
        raise ValidationError(
            f"algorithm {spec.name!r} does not support parallel execution "
            f"(workers={workers})"
        )
    unknown = set(params) - set(spec.params)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) {sorted(unknown)} for algorithm "
            f"{spec.name!r} (accepted: {sorted(spec.params)})"
        )
    merged = dict(spec.params)
    merged.update(params)
    return merged


@dataclass
class CountRequest:
    """A validated, normalized description of one counting run.

    Generic knobs (``delta``, ``categories``, ``workers``) are checked
    here; algorithm-specific capability checks happen in
    :meth:`resolve` once the :class:`AlgorithmSpec` is known.
    """

    graph: Optional["TemporalGraph"] = None
    delta: Optional[float] = None
    algorithm: str = "fast"
    categories: str = "all"
    workers: int = 1
    thrd: Optional[float] = None
    schedule: str = "dynamic"
    seed: Optional[int] = None
    n_samples: Optional[int] = None
    #: Persistent shared-memory worker pool
    #: (:class:`repro.parallel.pool.WorkerPool`) to execute on;
    #: ``None`` uses the process-wide shared pool when ``workers > 1``.
    #: Consumed by every algorithm whose spec is ``parallel`` (HARE
    #: batches for ``fast``, time slabs for ``ex``, block chunks for
    #: ``bts``); others ignore it.  Repeated requests against one pool
    #: amortize graph publication, planning, and — for identical
    #: requests — the counting itself.
    pool: Optional[object] = field(default=None, repr=False, compare=False)
    #: How the shared pool starts its workers when no ``pool`` is
    #: given (``"fork"``/``"spawn"``; default: ``REPRO_START_METHOD``
    #: env var, then the platform default).
    start_method: Optional[str] = None
    #: Caller-assigned identifier, recorded in the result's metadata
    #: (the serving layer sets none).  Purely provenance: never
    #: affects results or cache keys.
    request_id: Optional[str] = field(default=None, compare=False)
    #: Absolute :func:`time.monotonic` instant after which the request
    #: is worthless.  :func:`execute` refuses to start (and the pool
    #: runtimes abort in-flight collection) past it, raising
    #: :class:`~repro.errors.DeadlineExceededError`.  ``None`` (the
    #: default) means no deadline.  An execution knob like ``pool``:
    #: excluded from equality and from every result cache key.
    deadline: Optional[float] = field(default=None, compare=False)
    #: Path to a packed graph file (``repro pack`` output) to count
    #: instead of an in-memory ``graph``: :func:`execute` opens it
    #: zero-copy through :func:`repro.storage.format.open_packed`
    #: before dispatch.  Exactly one of ``graph``/``source`` must be
    #: given by callers (a materialized request carries both).
    source: Optional[str] = None
    #: Out-of-core execution knob: maximum *own* edges per time shard.
    #: When set, exact algorithms run through the shard-halo union of
    #: :mod:`repro.storage.sharded` — peak memory tracks this budget,
    #: results stay bit-identical.  Sampling algorithms ignore it
    #: (recorded in ``meta["sharding"]``) because their global RNG
    #: stream does not decompose.  At most one of ``shard_budget`` /
    #: ``num_shards`` / ``shard_boundaries`` may be given.
    shard_budget: Optional[int] = None
    #: Alternative cut mode: split the canonical edge sequence into
    #: this many near-equal shards (``ShardedGraph(num_shards=)``).
    num_shards: Optional[int] = None
    #: Alternative cut mode: explicit interior canonical-edge-id cut
    #: points, strictly increasing in ``(0, num_edges)``
    #: (``ShardedGraph(boundaries=)``) — what equivalence tests
    #: randomize over.  Normalized to a tuple of ints.
    shard_boundaries: Optional[Tuple[int, ...]] = None
    #: Distributed execution: comma-separated ``host:port`` addresses
    #: of running ``repro worker`` daemons.  Exact algorithms farm the
    #: shard plan across them through
    #: :mod:`repro.distributed.cluster` (results stay bit-identical to
    #: the serial shard-halo union); sampling algorithms run
    #: whole-graph locally, recorded in ``meta["cluster"]``.  Accepts a
    #: sequence of addresses; normalized to the comma string.
    cluster: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.graph is None and self.source is None:
            raise ValidationError("a CountRequest needs a graph or a source path")
        if self.source is not None:
            import os

            self.source = os.fspath(self.source)
        if self.shard_budget is not None and self.shard_budget < 1:
            raise ValidationError(
                f"shard_budget must be >= 1, got {self.shard_budget}"
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_boundaries is not None:
            try:
                self.shard_boundaries = tuple(int(b) for b in self.shard_boundaries)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"shard_boundaries must be a sequence of edge ids, "
                    f"got {self.shard_boundaries!r}"
                ) from None
            if not self.shard_boundaries:
                raise ValidationError("shard_boundaries must be non-empty when given")
        cut_modes = (self.shard_budget, self.num_shards, self.shard_boundaries)
        if sum(x is not None for x in cut_modes) > 1:
            raise ValidationError(
                "give at most one of shard_budget / num_shards / shard_boundaries"
            )
        if self.cluster is not None:
            from repro.distributed.protocol import parse_cluster

            self.cluster = ",".join(parse_cluster(self.cluster))
        check_delta(self.delta)
        if self.categories not in CATEGORIES:
            raise ValidationError(
                f"unknown categories {self.categories!r}; choose from {CATEGORIES}"
            )
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.schedule not in ("dynamic", "static"):
            raise ValidationError(
                f"schedule must be 'dynamic' or 'static', got {self.schedule!r}"
            )
        if self.n_samples is not None and self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.deadline is not None:
            self.deadline = float(self.deadline)
        if self.request_id is not None and not isinstance(self.request_id, str):
            raise ValidationError(
                f"request_id must be a string, got {type(self.request_id).__name__}"
            )
        _check_start_method(self.start_method)

    def check_deadline(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            from repro.errors import DeadlineExceededError

            label = f" {self.request_id!r}" if self.request_id else ""
            raise DeadlineExceededError(
                f"request{label} missed its deadline before completion"
            )

    # -- sharding helpers -----------------------------------------------
    @property
    def wants_sharding(self) -> bool:
        """Whether any shard cut mode was requested."""
        return (
            self.shard_budget is not None
            or self.num_shards is not None
            or self.shard_boundaries is not None
        )

    @property
    def shard_spec(self) -> Dict[str, object]:
        """The request's cut mode as ``ShardedGraph`` keyword arguments.

        Empty when no cut mode was given (callers pick their own
        default — the registry uses ``shard_budget``'s default, the
        cluster executor sizes shards to the worker count).
        """
        if self.shard_budget is not None:
            return {"max_shard_edges": self.shard_budget}
        if self.num_shards is not None:
            return {"num_shards": self.num_shards}
        if self.shard_boundaries is not None:
            return {"boundaries": self.shard_boundaries}
        return {}

    # -- category helpers used by adapters -----------------------------
    @property
    def wants_star_pair(self) -> bool:
        return self.categories in STAR_PAIR_CATEGORIES

    @property
    def wants_triangle(self) -> bool:
        return self.categories in TRIANGLE_CATEGORIES

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)

    def resolve(self, spec: "AlgorithmSpec") -> "CountRequest":
        """Capability-check against ``spec`` and fill defaults.

        Returns a new request with ``seed``/``n_samples`` made concrete
        and ``params`` merged over the spec's declared defaults.
        """
        params = _check_capabilities(
            spec, categories=self.categories, workers=self.workers, params=self.params
        )
        if spec.is_exact and self.n_samples is not None and self.n_samples > 1:
            raise ValidationError(
                f"n_samples applies to sampling algorithms only; "
                f"{spec.name!r} is exact"
            )
        if spec.is_exact and self.seed is not None:
            raise ValidationError(
                f"seed applies to sampling algorithms only; {spec.name!r} is exact"
            )
        n_samples = self.n_samples
        if n_samples is None:
            n_samples = 1 if spec.is_exact else DEFAULT_SAMPLING_REPLICATES
        return dataclasses.replace(
            self,
            seed=0 if self.seed is None else self.seed,
            n_samples=n_samples,
            params=params,
        )

    def with_seed(self, seed: int) -> "CountRequest":
        """Copy of this request with a different RNG seed (replicates)."""
        return dataclasses.replace(self, seed=seed)


@dataclass
class StreamRequest:
    """A validated description of one *streaming* counting session.

    The streaming analogue of :class:`CountRequest`: instead of one
    graph and one answer, it configures an incremental engine
    (obtained via :func:`open_stream`) that ingests timestamped edges,
    maintains counts over a sliding window, and emits checkpoints.

    Parameters
    ----------
    delta:
        The motif time constraint δ, as in :class:`CountRequest`.
    window:
        Sliding-window width ``W``: after observing latest time ``T``
        the live edge set is ``{t : T - W <= t <= T}`` (edges below
        ``T - W`` are evicted; arrivals below the high-water mark are
        dropped as late).  ``None`` (default) disables expiry — the
        stream is append-only.
    checkpoint_every:
        Edges per checkpoint when replaying with
        ``StreamingMotifEngine.replay``; explicit ``checkpoint()``
        calls are always allowed.
    parallel_min_edges:
        Minimum dirty-slice size before ``workers > 1`` counts a
        slice as one HARE job on the worker pool (``pool``, else the
        process-wide shared pool; see
        :mod:`repro.core.stream_kernels`).
    """

    delta: float
    window: Optional[float] = None
    algorithm: str = "fast"
    categories: str = "all"
    workers: int = 1
    checkpoint_every: int = 10_000
    parallel_min_edges: int = 200_000
    #: Persistent worker pool for large micro-batches
    #: (:class:`repro.parallel.pool.WorkerPool`); ``None`` uses the
    #: process-wide shared pool when ``workers > 1``.  The caller owns
    #: it: the engine never closes it.
    pool: Optional[object] = field(default=None, repr=False, compare=False)
    #: How the shared pool starts its workers when no ``pool`` is
    #: given (``None``: ``REPRO_START_METHOD`` env var, then platform
    #: default).
    start_method: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_delta(self.delta)
        _check_start_method(self.start_method)
        if self.window is not None and self.window <= 0:
            raise ValidationError(
                f"window must be positive (or None for unbounded), got {self.window}"
            )
        if self.categories not in CATEGORIES:
            raise ValidationError(
                f"unknown categories {self.categories!r}; choose from {CATEGORIES}"
            )
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.parallel_min_edges < 0:
            raise ValidationError(
                f"parallel_min_edges must be >= 0, got {self.parallel_min_edges}"
            )

    # -- category helpers (same contract as CountRequest) ---------------
    @property
    def wants_star_pair(self) -> bool:
        return self.categories in STAR_PAIR_CATEGORIES

    @property
    def wants_triangle(self) -> bool:
        return self.categories in TRIANGLE_CATEGORIES

    def resolve(self, spec: "AlgorithmSpec") -> "StreamRequest":
        """Capability-check against ``spec``; merge its default params."""
        if not spec.streaming:
            raise ValidationError(
                f"algorithm {spec.name!r} does not support streaming "
                f"(streaming-capable: {streaming_algorithms()})"
            )
        params = _check_capabilities(
            spec, categories=self.categories, workers=self.workers, params=self.params
        )
        return dataclasses.replace(self, params=params)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Declared capabilities of one registered counting algorithm."""

    name: str
    func: Callable[[CountRequest], "MotifCounts"]
    is_exact: bool
    categories: Tuple[str, ...] = CATEGORIES
    #: Whether ``workers > 1`` runs in parallel, on
    #: ``CountRequest.pool`` (a persistent
    #: :class:`~repro.parallel.pool.WorkerPool`) or the process-wide
    #: shared pool.
    parallel: bool = False
    params: Mapping[str, object] = field(default_factory=dict)
    description: str = ""
    #: Factory building an incremental engine from a resolved
    #: :class:`StreamRequest`; ``None`` means the algorithm has no
    #: streaming mode (see :func:`open_stream`).
    stream_factory: Optional[Callable[["StreamRequest"], object]] = None

    @property
    def kind(self) -> str:
        return "exact" if self.is_exact else "approximate"

    @property
    def streaming(self) -> bool:
        """Whether the algorithm can run incrementally over a stream."""
        return self.stream_factory is not None

    def describe(self) -> str:
        """One line for ``repro list-algorithms`` / ``--help``."""
        bits = [self.kind, "parallel" if self.parallel else "serial"]
        if self.streaming:
            bits.append("streaming")
        if set(self.categories) != set(CATEGORIES):
            bits.append("categories: " + ",".join(self.categories))
        if self.params:
            bits.append(
                "params: " + ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            )
        detail = "; ".join(bits)
        text = f"{self.name:12s} [{detail}]"
        if self.description:
            text += f"  {self.description}"
        return text


_REGISTRY: Dict[str, AlgorithmSpec] = {}
_BUILTINS_LOADED = False


def register_algorithm(
    name: str,
    *,
    exact: bool,
    categories: Tuple[str, ...] = CATEGORIES,
    parallel: bool = False,
    params: Optional[Mapping[str, object]] = None,
    description: str = "",
    stream_factory: Optional[Callable[["StreamRequest"], object]] = None,
    replace: bool = False,
) -> Callable[[Callable[[CountRequest], "MotifCounts"]], Callable]:
    """Decorator: register a counting function under ``name``.

    The decorated function takes a resolved :class:`CountRequest` and
    returns a :class:`~repro.core.counters.MotifCounts`; masking to the
    requested categories, timing, and sampling replication are handled
    by the dispatcher, not the function.
    """
    if not name or not isinstance(name, str):
        raise ValidationError(f"algorithm name must be a non-empty string, got {name!r}")
    bad = set(categories) - set(CATEGORIES)
    if bad:
        raise ValidationError(
            f"invalid capability: categories {sorted(bad)} not in {CATEGORIES}"
        )
    if "all" not in categories:
        raise ValidationError("invalid capability: every algorithm must support 'all'")

    def decorator(func: Callable[[CountRequest], "MotifCounts"]) -> Callable:
        if name in _REGISTRY and not replace:
            raise ValidationError(
                f"algorithm {name!r} is already registered; pass replace=True to override"
            )
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            func=func,
            is_exact=exact,
            categories=tuple(categories),
            parallel=parallel,
            params=dict(params or {}),
            description=description,
            stream_factory=stream_factory,
        )
        return func

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (primarily for tests)."""
    _REGISTRY.pop(name, None)


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        # Flag is set only after a successful import: a failure part-way
        # (e.g. a user registration colliding with a builtin name) must
        # surface again on the next access, not leave a silently
        # half-populated registry.
        import repro.core.algorithms  # noqa: F401  (registers on import)

        _BUILTINS_LOADED = True


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm; raises on unknown names."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown algorithm {name!r}; choose from {available_algorithms()}"
        ) from None


def available_algorithms() -> Tuple[str, ...]:
    """Names of every registered algorithm, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def algorithm_specs() -> List[AlgorithmSpec]:
    """All registered specs, in registration order."""
    _ensure_builtins()
    return list(_REGISTRY.values())


def streaming_algorithms() -> Tuple[str, ...]:
    """Names of the algorithms that declare a streaming mode."""
    _ensure_builtins()
    return tuple(name for name, spec in _REGISTRY.items() if spec.streaming)


def open_stream(request: StreamRequest):
    """Open an incremental counting session for a :class:`StreamRequest`.

    The streaming sibling of :func:`execute`: looks up the algorithm,
    capability-checks the request (:meth:`StreamRequest.resolve`) and
    hands it to the spec's ``stream_factory``, which returns an engine
    exposing ``ingest`` / ``checkpoint`` / ``replay`` (see
    :class:`repro.core.streaming.StreamingMotifEngine` for the
    reference implementation backing ``"fast"``).

    >>> from repro.core.registry import StreamRequest, open_stream
    >>> engine = open_stream(StreamRequest(delta=10.0, window=100.0))
    >>> engine.ingest([(0, 1, 0), (1, 0, 5), (0, 1, 9)])
    3
    >>> engine.checkpoint().counts.total()
    1
    """
    spec = get_algorithm(request.algorithm)
    req = request.resolve(spec)
    assert spec.stream_factory is not None  # guaranteed by resolve()
    return spec.stream_factory(req)


def execute(request: CountRequest) -> "MotifCounts":
    """Dispatch a request to its algorithm and normalize the result.

    The uniform post-processing contract, applied to every algorithm:

    * approximate algorithms run ``n_samples`` replicates with
      consecutive seeds; the grids are averaged and ``stderr`` holds
      the standard error of the mean (``None`` for a single draw);
    * ``is_exact`` reflects the spec, not the grid dtype;
    * the grid is masked to the requested categories via
      :meth:`MotifCounts.masked` — one masking implementation for all
      algorithms;
    * ``delta``, ``elapsed_seconds``, ``phase_seconds`` and provenance
      ``meta`` keys are always filled.
    """
    from repro.core.counters import MotifCounts

    spec = get_algorithm(request.algorithm)
    if request.graph is None:
        # Materialize a packed-file source into a zero-copy mmap-backed
        # graph; ``source`` is kept on the request for provenance.
        from repro.storage.format import open_packed

        request = dataclasses.replace(request, graph=open_packed(request.source).graph)
    req = request.resolve(spec)
    req.check_deadline()
    start = time.perf_counter()
    if req.n_samples == 1:
        if req.cluster is not None and spec.is_exact:
            from repro.distributed.cluster import cluster_count

            result = cluster_count(req, spec)
        elif req.wants_sharding and spec.is_exact:
            from repro.storage.sharded import sharded_count

            result = sharded_count(req, spec)
        else:
            result = spec.func(req)
        result.is_exact = spec.is_exact
    else:
        from repro.core.counters import category_keep_mask

        grids = []
        inner_phases: Dict[str, float] = {}
        sample_seconds: List[float] = []
        replicate = None
        assert req.seed is not None and req.n_samples is not None
        for i in range(req.n_samples):
            req.check_deadline()
            tick = time.perf_counter()
            replicate = spec.func(req.with_seed(req.seed + i))
            sample_seconds.append(time.perf_counter() - tick)
            # Surface which inner phase dominated: sum each phase the
            # replicates report.  Per-sample wall-clock goes to meta —
            # keeping it out of phase_seconds so the dict stays a
            # partition of the runtime, not a double count.
            for phase, seconds in replicate.phase_seconds.items():
                inner_phases[phase] = inner_phases.get(phase, 0.0) + seconds
            grids.append(np.asarray(replicate.grid, dtype=np.float64))
        phase_seconds = inner_phases or {
            f"sample[{i}]": seconds for i, seconds in enumerate(sample_seconds)
        }
        # Mask the replicates before aggregating so per-cell stderr and
        # the total's stderr both describe the requested selection.
        stacked = np.stack(grids) * category_keep_mask(req.categories)
        stderr = stacked.std(axis=0, ddof=1) / np.sqrt(req.n_samples)
        # The cells of one replicate are correlated (they come from the
        # same sample), so the total's stderr is computed from the
        # per-replicate totals, not by adding cell variances.
        totals = stacked.sum(axis=(1, 2))
        total_stderr = float(totals.std(ddof=1) / np.sqrt(req.n_samples))
        assert replicate is not None
        result = MotifCounts(
            stacked.mean(axis=0),
            algorithm=replicate.algorithm,
            stderr=stderr,
            is_exact=False,
            phase_seconds=phase_seconds,
            meta={"total_stderr": total_stderr, "sample_seconds": sample_seconds},
        )
    result.delta = req.delta
    # Adapters may set a custom label (e.g. "hare[2]"); if one left the
    # dataclass default, stamp the requested name so output is honest.
    if result.algorithm == "fast" and req.algorithm != "fast":
        result.algorithm = req.algorithm
    result.meta.setdefault("requested_algorithm", req.algorithm)
    if req.source is not None:
        result.meta.setdefault("source", req.source)
    if req.wants_sharding and not spec.is_exact:
        result.meta.setdefault(
            "sharding",
            "whole-graph (sampling estimators draw one global RNG stream)",
        )
    if req.cluster is not None and not spec.is_exact:
        result.meta.setdefault(
            "cluster",
            {"passthrough": "sampling estimators run whole-graph locally"},
        )
    if req.request_id is not None:
        result.meta.setdefault("request_id", req.request_id)
    if not spec.is_exact:
        result.meta.setdefault("n_samples", req.n_samples)
        result.meta.setdefault("seed", req.seed)
        for key, value in req.params.items():
            result.meta.setdefault(key, value)
    result = result.masked(req.categories)
    result.elapsed_seconds = time.perf_counter() - start
    return result


# The unified result type: every algorithm returns MotifCounts, so the
# request/result pair of this API is (CountRequest, CountResult).
from repro.core.counters import MotifCounts as CountResult  # noqa: E402, F401
