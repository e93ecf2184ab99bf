"""Serialisation of motif-count results (JSON and CSV).

Benchmark sweeps and downstream pipelines need durable results; this
module round-trips :class:`~repro.core.counters.MotifCounts` with full
metadata.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Union

from repro.core.counters import MotifCounts
from repro.core.motifs import ALL_MOTIFS, MOTIFS_BY_NAME
from repro.errors import ValidationError

PathLike = Union[str, os.PathLike]


def counts_to_json(counts: MotifCounts) -> str:
    """Serialise counts + metadata to a JSON string.

    A sampled result also carries its per-motif ``stderr``.
    """
    payload = {
        "format": "repro.motif_counts/1",
        "algorithm": counts.algorithm,
        "delta": counts.delta,
        "elapsed_seconds": counts.elapsed_seconds,
        "exact": counts.is_exact,
        "counts": counts.per_motif(),
    }
    if counts.stderr is not None:
        payload["stderr"] = {name: counts.stderr_of(name) for name in MOTIFS_BY_NAME}
    return json.dumps(payload, indent=2, sort_keys=True)


def counts_from_json(text: str) -> MotifCounts:
    """Parse a JSON document produced by :func:`counts_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if payload.get("format") != "repro.motif_counts/1":
        raise ValidationError(f"unknown format {payload.get('format')!r}")
    per_motif = payload["counts"]
    stderr = payload.get("stderr")
    unknown = (set(per_motif) | set(stderr or ())) - set(MOTIFS_BY_NAME)
    if unknown:
        raise ValidationError(f"unknown motif names: {sorted(unknown)}")
    # Files written before sampled results round-tripped lack "stderr";
    # exact files keep their int64 grid, estimates stay float64.
    exact = bool(payload.get("exact", True))
    if not exact:
        per_motif = {name: float(value) for name, value in per_motif.items()}
    if stderr is not None:
        stderr = MotifCounts.from_dict(
            {name: float(value) for name, value in stderr.items()}
        ).grid
    result = MotifCounts.from_dict(
        per_motif,
        algorithm=payload.get("algorithm", "?"),
        is_exact=exact,
        stderr=stderr,
    )
    result.delta = payload.get("delta", 0.0)
    result.elapsed_seconds = payload.get("elapsed_seconds", 0.0)
    return result


def save_counts(counts: MotifCounts, path: PathLike) -> None:
    """Write counts to ``path`` as JSON."""
    with open(path, "w") as handle:
        handle.write(counts_to_json(counts) + "\n")


def load_counts(path: PathLike) -> MotifCounts:
    """Read counts written by :func:`save_counts`."""
    with open(path) as handle:
        return counts_from_json(handle.read())


def counts_to_csv(counts: MotifCounts) -> str:
    """Render counts as CSV rows ``motif,row,col,category,count``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["motif", "row", "col", "category", "count"])
    for motif in ALL_MOTIFS:
        writer.writerow(
            [
                motif.name,
                motif.row,
                motif.col,
                motif.category.value,
                counts.get(motif.row, motif.col),
            ]
        )
    return buffer.getvalue()
