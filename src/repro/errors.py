"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch a single base class at API boundaries while still
distinguishing failure modes where it matters.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError, ValueError):
    """An argument or input value failed validation.

    Also derives from :class:`ValueError` so that generic callers using
    ``except ValueError`` keep working.
    """


def check_delta(delta) -> None:
    """Require a finite, non-negative time window δ.

    The one δ check of every entry point.  NaN and ±∞ are refused like
    non-finite timestamps: they would poison every δ-window comparison.
    """
    try:
        valid = math.isfinite(delta) and delta >= 0
    except TypeError:
        valid = False
    if not valid:
        raise ValidationError(f"delta must be finite and non-negative, got {delta!r}")


class GraphFormatError(ReproError, ValueError):
    """An edge-list file or edge record could not be parsed."""


class DatasetError(ReproError, KeyError):
    """An unknown dataset name was requested from the registry."""


class ParallelExecutionError(ReproError, RuntimeError):
    """A parallel worker failed while counting motifs."""


class WorkerUnavailableError(ParallelExecutionError):
    """A remote cluster worker could not be reached or died mid-job.

    The *retryable* failure class of :mod:`repro.distributed`: raised
    by the coordinator's worker links on connection failures, timeouts,
    and mid-request disconnects.  The coordinator answers it by
    re-dispatching the shard elsewhere; it only escapes to callers when
    every worker in the cluster is gone.  Deterministic server-side
    errors (a :class:`ValidationError` from a bad request, say) re-raise
    as their own classes and are never retried.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline passed before its result was produced.

    Raised by :func:`repro.core.registry.execute` and the worker-pool
    runtimes when a :class:`~repro.core.registry.CountRequest` carries
    a ``deadline`` (a :func:`time.monotonic` instant) that expires
    before — or while — the work runs.  The serving layer maps it to a
    typed ``deadline_exceeded`` protocol error.
    """


class QuotaExceededError(ReproError, RuntimeError):
    """A tenant exceeded its admission quota on the serving layer."""


class BackpressureError(ReproError, RuntimeError):
    """The serving layer's bounded queue is full (try again later).

    The 429-style overload rejection: distinct from
    :class:`QuotaExceededError` because it signals *global* saturation
    rather than one tenant's misuse.
    """


class StorageFormatError(ReproError, ValueError):
    """A packed graph file is corrupt, truncated, or not a packed graph.

    Raised by :func:`repro.storage.format.open_packed` whenever the
    on-disk bytes fail validation — bad magic, mangled header, section
    bounds past EOF, non-finite or unsorted timestamps, out-of-range
    node ids.  The open path validates before any counting can start,
    so corruption surfaces as this typed error, never as garbage
    counts.
    """


class StorageVersionError(StorageFormatError):
    """A packed graph file declares a format version this build cannot read.

    Distinct from generic corruption so callers can suggest re-packing
    (``repro pack``) instead of treating the file as damaged.
    """


class CheckpointCorruptError(ReproError, ValueError):
    """A streaming checkpoint directory failed validation at resume time.

    Raised by :func:`repro.storage.checkpoint.read_checkpoint` (and
    therefore ``StreamingMotifEngine.resume_from``) whenever the
    journal or the window snapshot is torn, truncated, bit-flipped, or
    inconsistent — journal CRC mismatch, snapshot CRC mismatch against
    the journal's recorded digest, missing files, malformed payloads.
    Validation happens *before* any engine state is built, so a corrupt
    checkpoint can never produce a silently partial resume.
    """


class ClusterDegradedError(ReproError, RuntimeError):
    """A cluster-bound graph's circuit breaker is open and no local
    fallback exists.

    Raised by the serving layer when consecutive
    :class:`WorkerUnavailableError` failures opened the breaker on a
    cluster-bound catalog graph and the request cannot be answered
    locally (no packed ``.rgz`` held on this machine, or local
    fallback disabled).  ``retry_after`` hints how many seconds until
    the breaker half-opens and cluster attempts resume.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class UnknownGraphError(ReproError, KeyError):
    """A request named a graph the serving catalog does not hold."""

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; keep the plain message.
        return str(self.args[0]) if self.args else ""
