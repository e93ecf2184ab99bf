"""Crash-safe streaming checkpoints: the ``.rgz`` snapshot + journal pair.

A streaming checkpoint directory holds exactly two artefacts:

``window-<seq>.rgz``
    The live window, packed in **canonical order** with the ordinary
    :func:`~repro.storage.format.pack_graph` (``layout="edges"``) —
    same magic, same CRC'd header, same atomic temp + ``os.replace``
    write discipline as every other packed graph.  Node ids are the
    store's internal ids; the label table travels in the journal.

``journal.json``
    Two lines.  Line 1 is a tiny head object ``{"format":
    "repro.checkpoint/1", "length": L, "crc": C}``; line 2 is exactly
    ``L`` bytes of canonical JSON (the *body*) whose CRC32 must equal
    ``C``.  The body carries the engine state a resume needs: the
    stream config (δ, window, algorithm, categories), the
    store's label table and counters (watermark, eviction/lateness
    tallies, version), the engine's three raw counter arrays, and the
    snapshot's filename + whole-file CRC32 — which binds the journal
    to one specific snapshot and catches bit flips in regions (padding,
    dead preamble bytes) that :func:`~repro.storage.format.open_packed`
    does not itself checksum.

**Commit protocol.**  :func:`write_checkpoint` writes the snapshot
first, replaces the journal second (the commit point), and prunes
older snapshots last.  A crash at any instant therefore leaves either
the previous complete checkpoint or the new one — never a mixture: an
orphaned new snapshot without its journal is invisible garbage, and
the journal only ever names a snapshot that was durably in place when
the journal committed.

**Resume validation.**  :func:`read_checkpoint` re-validates every
promise above — head shape, body length and CRC, payload schema,
snapshot presence, whole-file CRC, then a full
:func:`~repro.storage.format.open_packed` — and wraps every failure in
a typed :class:`~repro.errors.CheckpointCorruptError` *before* any
engine state is built, so a torn or tampered checkpoint can never
produce a silent partial resume (property-tested by truncation and
bit-flip suites in ``tests/storage/test_checkpoint.py``).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Tuple

import numpy as np

from repro.errors import CheckpointCorruptError, StorageFormatError, ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.storage.format import open_packed, pack_graph

#: Journal format tag (bump on incompatible layout changes).
CHECKPOINT_FORMAT = "repro.checkpoint/1"

#: Journal filename inside a checkpoint directory.
JOURNAL_NAME = "journal.json"

#: Snapshot filename prefix/suffix (``window-<seq>.rgz``).
SNAPSHOT_PREFIX = "window-"
SNAPSHOT_SUFFIX = ".rgz"

#: Labels the journal may carry: the JSON-primitive hashables that
#: round-trip ``json.dumps``/``loads`` unchanged.
_LABEL_TYPES = (str, int, float, bool)

#: Required raw-counter array lengths (star, star-pair, triangle).
_TOTALS_SHAPE = (24, 8, 24)


def journal_path(directory) -> str:
    """The journal's path inside ``directory``."""
    return os.path.join(os.fspath(directory), JOURNAL_NAME)


def snapshot_name(seq: int) -> str:
    """Snapshot filename for checkpoint number ``seq``."""
    return f"{SNAPSHOT_PREFIX}{int(seq):08d}{SNAPSHOT_SUFFIX}"


def has_checkpoint(directory) -> bool:
    """Whether ``directory`` holds a committed checkpoint journal."""
    return os.path.isfile(journal_path(directory))


def file_crc(path) -> int:
    """Streaming CRC32 of a whole file's bytes."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


# ----------------------------------------------------------------------
# write
# ----------------------------------------------------------------------
def _check_labels(labels) -> None:
    for label in labels:
        if not isinstance(label, _LABEL_TYPES):
            raise ValidationError(
                f"cannot checkpoint node label {label!r} of type "
                f"{type(label).__name__}: only JSON-primitive labels "
                f"(str/int/float/bool) survive a journal round trip"
            )


def write_checkpoint(directory, *, seq: int, graph: TemporalGraph, state: Dict) -> str:
    """Commit one checkpoint into ``directory``; returns the journal path.

    ``graph`` is the live window in canonical order (internal node
    ids); ``state`` carries the ``config`` / ``store`` / ``engine`` /
    ``progress`` sections (the writer owns their meaning — this layer
    only adds the ``snapshot`` section and the commit protocol).
    """
    directory = os.fspath(directory)
    _check_labels(state.get("store", {}).get("labels", ()))
    os.makedirs(directory, exist_ok=True)

    name = snapshot_name(seq)
    snap_path = os.path.join(directory, name)
    pack_graph(graph, snap_path, layout="edges")  # atomic in its own right

    payload = dict(state)
    payload["snapshot"] = {
        "file": name,
        "crc": file_crc(snap_path),
        "num_edges": int(graph.num_edges),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = json.dumps(
        {"format": CHECKPOINT_FORMAT, "length": len(body), "crc": zlib.crc32(body)},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")

    journal = journal_path(directory)
    tmp = f"{journal}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head + b"\n" + body + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, journal)  # the commit point
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path hygiene
            os.unlink(tmp)

    # Only after the journal commit is the previous snapshot garbage.
    for entry in os.listdir(directory):
        if (
            entry.startswith(SNAPSHOT_PREFIX)
            and entry.endswith(SNAPSHOT_SUFFIX)
            and entry != name
        ):
            os.unlink(os.path.join(directory, entry))
    return journal


# ----------------------------------------------------------------------
# read
# ----------------------------------------------------------------------
def _require(cond: bool, journal: str, message: str) -> None:
    if not cond:
        raise CheckpointCorruptError(f"{journal}: {message}")


def _number_or_none(value) -> bool:
    return value is None or isinstance(value, (int, float))


def _nonneg_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_journal(journal: str) -> Dict:
    try:
        with open(journal, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointCorruptError(
            f"{journal}: cannot read checkpoint journal: {exc}"
        ) from exc
    head_bytes, sep, rest = blob.partition(b"\n")
    _require(bool(sep), journal, "truncated journal (no head/body separator)")
    try:
        head = json.loads(head_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"{journal}: journal head is not valid JSON: {exc}"
        ) from exc
    _require(isinstance(head, dict), journal, "journal head must be a JSON object")
    _require(
        head.get("format") == CHECKPOINT_FORMAT,
        journal,
        f"unknown checkpoint format {head.get('format')!r} "
        f"(this build reads {CHECKPOINT_FORMAT!r})",
    )
    length, crc = head.get("length"), head.get("crc")
    _require(
        _nonneg_int(length) and _nonneg_int(crc),
        journal, "journal head declares no body length/CRC",
    )
    body = rest[:length]
    _require(
        len(body) == length,
        journal,
        f"truncated journal body ({len(body)} of {length} bytes)",
    )
    _require(
        rest[length:] in (b"", b"\n"),
        journal, "trailing bytes after the journal body",
    )
    _require(zlib.crc32(body) == crc, journal, "journal body CRC mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"{journal}: journal body is not valid JSON: {exc}"
        ) from exc
    _require(isinstance(payload, dict), journal, "journal body must be a JSON object")
    return payload


def _check_payload(journal: str, payload: Dict) -> None:
    for key in ("config", "snapshot", "store", "engine", "progress"):
        _require(
            isinstance(payload.get(key), dict),
            journal, f"journal section {key!r} missing or mistyped",
        )
    config = payload["config"]
    _require(
        isinstance(config.get("delta"), (int, float))
        and not isinstance(config.get("delta"), bool),
        journal, "config.delta missing or non-numeric",
    )
    _require(_number_or_none(config.get("window")), journal, "config.window mistyped")
    for key in ("algorithm", "categories"):
        _require(isinstance(config.get(key), str), journal, f"config.{key} mistyped")

    store = payload["store"]
    labels = store.get("labels")
    _require(isinstance(labels, list), journal, "store.labels missing or mistyped")
    for label in labels:
        _require(
            isinstance(label, _LABEL_TYPES),
            journal, f"store.labels holds non-primitive entry {label!r}",
        )
    _require(_number_or_none(store.get("watermark")), journal, "store.watermark mistyped")
    _require(_number_or_none(store.get("t_latest")), journal, "store.t_latest mistyped")
    for key in ("num_evicted", "num_dropped_late", "num_self_loops_dropped", "version"):
        _require(_nonneg_int(store.get(key)), journal, f"store.{key} missing or mistyped")

    engine = payload["engine"]
    totals = engine.get("totals")
    _require(
        isinstance(totals, list) and len(totals) == len(_TOTALS_SHAPE),
        journal, "engine.totals must hold the three raw counter arrays",
    )
    for arr, expect in zip(totals, _TOTALS_SHAPE):
        _require(
            isinstance(arr, list) and len(arr) == expect
            and all(isinstance(v, int) and not isinstance(v, bool) for v in arr),
            journal, f"engine.totals array is not {expect} integers",
        )
    _require(_nonneg_int(engine.get("checkpoints")), journal, "engine.checkpoints mistyped")
    _require(
        _nonneg_int(payload["progress"].get("records_consumed")),
        journal, "progress.records_consumed mistyped",
    )

    snapshot = payload["snapshot"]
    name = snapshot.get("file")
    _require(
        isinstance(name, str) and name and os.path.basename(name) == name,
        journal, f"snapshot.file {name!r} is not a plain filename",
    )
    _require(_nonneg_int(snapshot.get("crc")), journal, "snapshot.crc mistyped")
    _require(_nonneg_int(snapshot.get("num_edges")), journal, "snapshot.num_edges mistyped")


def _load_snapshot(
    journal: str, directory: str, payload: Dict
) -> Tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    snapshot = payload["snapshot"]
    snap_path = os.path.join(directory, snapshot["file"])
    _require(
        os.path.isfile(snap_path),
        journal, f"snapshot {snapshot['file']!r} is missing from the directory",
    )
    _require(
        file_crc(snap_path) == snapshot["crc"],
        journal, f"snapshot {snapshot['file']!r} CRC mismatch (corrupted snapshot)",
    )
    try:
        packed = open_packed(snap_path)
    except StorageFormatError as exc:
        raise CheckpointCorruptError(
            f"{journal}: snapshot {snapshot['file']!r} failed validation: {exc}"
        ) from exc
    try:
        graph = packed.graph
        _require(
            graph.num_edges == snapshot["num_edges"],
            journal,
            f"snapshot holds {graph.num_edges} edges, journal recorded "
            f"{snapshot['num_edges']}",
        )
        _require(
            packed.num_nodes == len(payload["store"]["labels"]),
            journal,
            f"snapshot node space ({packed.num_nodes}) disagrees with the "
            f"journal's label table ({len(payload['store']['labels'])})",
        )
        # Copy out of the mapping: the resumed store owns its arrays.
        src = np.array(graph.sources, dtype=np.int64, copy=True)
        dst = np.array(graph.destinations, dtype=np.int64, copy=True)
        t = np.array(graph.timestamps, copy=True)
    finally:
        packed.close()
    return snap_path, src, dst, t


def read_checkpoint(directory) -> Dict:
    """Validate and load the checkpoint committed in ``directory``.

    Returns a dict with the journal's ``config`` / ``store`` /
    ``engine`` / ``progress`` sections plus ``snapshot_path`` and
    ``snapshot_arrays`` (copied ``(src, dst, t)`` canonical columns).
    Every validation failure — from a missing journal to a single
    flipped bit in either file — raises
    :class:`~repro.errors.CheckpointCorruptError`.
    """
    directory = os.fspath(directory)
    journal = journal_path(directory)
    _require(
        os.path.isfile(journal),
        journal, "no checkpoint journal in this directory",
    )
    payload = _read_journal(journal)
    _check_payload(journal, payload)
    snap_path, src, dst, t = _load_snapshot(journal, directory, payload)
    config = dict(payload["config"])
    # Journals written by older releases also carry a kernel "backend"
    # choice; counts never depended on it, so it is dropped.
    config.pop("backend", None)
    return {
        "config": config,
        "store": payload["store"],
        "engine": payload["engine"],
        "progress": payload["progress"],
        "snapshot_path": snap_path,
        "snapshot_arrays": (src, dst, t),
    }


def resume_skip_count(data: Dict) -> int:
    """How many input records a resumed replay should skip.

    The journal's ``records_consumed`` counts every record the killed
    run *routed through the store* — accepted, late-dropped, or
    self-loop-dropped — which is exactly the prefix of the input an
    identical replay must not re-feed.
    """
    return int(data["progress"]["records_consumed"])


__all__ = [
    "CHECKPOINT_FORMAT",
    "JOURNAL_NAME",
    "file_crc",
    "has_checkpoint",
    "journal_path",
    "read_checkpoint",
    "resume_skip_count",
    "snapshot_name",
    "write_checkpoint",
]
