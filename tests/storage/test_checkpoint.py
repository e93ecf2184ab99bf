"""Crash-safe streaming checkpoints: resume equivalence + corruption.

Three contracts:

* **resume equivalence** — an engine checkpointed mid-replay and
  resumed in a fresh process emits checkpoint lines bit-identical to
  an uninterrupted replay, including a real ``repro stream`` process
  SIGKILLed at an arbitrary point;
* **corruption is typed** — a journal or snapshot truncated or
  bit-flipped at any offset (hypothesis-driven) raises
  :class:`~repro.errors.CheckpointCorruptError` from ``resume_from``
  before any engine state is built, never a silent partial resume;
* **atomicity hygiene** — checkpoint writes leave no ``*.tmp-*``
  litter and prune superseded snapshots.
"""

from __future__ import annotations

import glob
import json
import os
import random
import signal
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import StreamRequest, open_stream
from repro.core.streaming import StreamingMotifEngine
from repro.errors import CheckpointCorruptError, ValidationError
from repro.storage import checkpoint as ckpt
from repro.testing.faults import bitflip_file, truncate_file

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def stream_edges(seed: int = 7, n: int = 800, num_nodes: int = 60, t_max: int = 400):
    """A deterministic in-order edge stream with timestamp ties."""
    rng = random.Random(seed)
    times = sorted(rng.randrange(t_max) for _ in range(n))
    return [
        (rng.randrange(num_nodes), rng.randrange(num_nodes), float(t))
        for t in times
    ]


def request(**overrides) -> StreamRequest:
    kwargs = dict(delta=10.0, window=80.0, checkpoint_every=100)
    kwargs.update(overrides)
    return StreamRequest(**kwargs)


def canon(line) -> str:
    """One checkpoint line with wall-clock fields stripped.

    ``phase_seconds`` (and the phase name derived from it) are timing
    telemetry; the bit-identical contract covers every *count and
    progress* field."""
    payload = line if isinstance(line, dict) else json.loads(line)
    payload.pop("phase_seconds", None)
    payload.pop("dominant_phase", None)
    return json.dumps(payload, sort_keys=True)


def replay_lines(engine, edges) -> list:
    return [canon(cp.as_dict()) for cp in engine.replay(edges)]


def checkpoint_dir_with_state(tmp_path, *, upto: int = 400) -> str:
    """Replay ``upto`` edges, write one checkpoint, return the dir."""
    directory = str(tmp_path / "ckpt")
    engine = open_stream(request())
    for _ in engine.replay(stream_edges()[:upto]):
        pass
    engine.checkpoint_to(directory)
    return directory


# ----------------------------------------------------------------------
# resume equivalence
# ----------------------------------------------------------------------

def test_resume_mid_stream_is_bit_identical(tmp_path):
    edges = stream_edges()
    baseline = replay_lines(open_stream(request()), edges)

    directory = str(tmp_path / "ckpt")
    first = open_stream(request())
    interrupted = []
    for cp in first.replay(edges):
        interrupted.append(canon(cp.as_dict()))
        first.checkpoint_to(directory)
        if cp.seq == 3:
            break  # simulated crash: committed state stops here

    resumed = StreamingMotifEngine.resume_from(directory, request=request())
    skip = resumed.records_consumed()
    assert skip == first.records_consumed()
    tail = replay_lines(resumed, edges[skip:])
    assert interrupted[:4] + tail == baseline, (
        "resumed replay diverged from the uninterrupted run"
    )


def with_legacy_backend(directory: str, backend: str) -> None:
    """Rewrite a journal the way older releases wrote it: with a kernel
    ``backend`` in its config (head length and CRC recomputed)."""
    path = ckpt.journal_path(directory)
    with open(path, "rb") as fh:
        body = fh.read().split(b"\n")[1]
    payload = json.loads(body)
    payload["config"]["backend"] = backend
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    head = json.dumps(
        {"format": ckpt.CHECKPOINT_FORMAT, "length": len(body), "crc": zlib.crc32(body)},
        sort_keys=True, separators=(",", ":"),
    ).encode()
    with open(path, "wb") as fh:
        fh.write(head + b"\n" + body + b"\n")


@pytest.mark.parametrize("backend", ["auto", "python", "columnar"])
def test_journal_with_legacy_backend_resumes_bit_identically(tmp_path, backend):
    edges = stream_edges()
    baseline = replay_lines(open_stream(request()), edges)
    directory = str(tmp_path / "ckpt")
    first = open_stream(request())
    prefix = []
    for cp in first.replay(edges):
        prefix.append(canon(cp.as_dict()))
        if cp.seq == 3:
            break
    first.checkpoint_to(directory)
    assert "backend" not in ckpt.read_checkpoint(directory)["config"]
    with open(ckpt.journal_path(directory), "rb") as fh:
        assert b"backend" not in fh.read()
    with_legacy_backend(directory, backend)
    for req in (None, request()):
        resumed = StreamingMotifEngine.resume_from(directory, request=req)
        rest = edges[resumed.records_consumed():]
        tail = [canon(cp.as_dict()) for cp in resumed.replay(rest, checkpoint_every=100)]
        assert prefix + tail == baseline, req


def test_resume_rejects_mismatched_request(tmp_path):
    directory = checkpoint_dir_with_state(tmp_path)
    with pytest.raises(ValidationError):
        StreamingMotifEngine.resume_from(directory, request=request(delta=99.0))


def test_checkpoint_writes_are_atomic_and_pruned(tmp_path):
    directory = str(tmp_path / "ckpt")
    engine = open_stream(request())
    edges = stream_edges()
    seqs = []
    for cp in engine.replay(edges):
        engine.checkpoint_to(directory)
        seqs.append(cp.seq)
    snapshots = glob.glob(os.path.join(directory, "window-*.rgz"))
    assert len(snapshots) == 1, "superseded snapshots were not pruned"
    assert os.path.basename(snapshots[0]) == ckpt.snapshot_name(seqs[-1])
    assert not glob.glob(os.path.join(directory, "*.tmp-*")), (
        "checkpoint writes leaked temp files"
    )
    assert ckpt.has_checkpoint(directory)


# ----------------------------------------------------------------------
# SIGKILL a real `repro stream` process, resume, compare
# ----------------------------------------------------------------------

def stream_cmd(input_path, directory, *extra):
    return [
        sys.executable, "-m", "repro.cli", "stream",
        "--input", input_path, "--delta", "10", "--window", "80",
        "--checkpoint-every", "100", "--checkpoint-dir", directory,
        *extra,
    ]


def test_sigkilled_stream_resumes_bit_identical(tmp_path):
    input_path = str(tmp_path / "edges.tsv")
    with open(input_path, "w") as handle:
        for src, dst, t in stream_edges(n=5000, t_max=2500):
            handle.write(f"{src}\t{dst}\t{t}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    baseline = subprocess.run(
        stream_cmd(input_path, str(tmp_path / "base")),
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert baseline.returncode == 0, baseline.stderr
    expected = [canon(line) for line in baseline.stdout.splitlines()]
    assert len(expected) >= 20, "stream too short to interrupt meaningfully"

    directory = str(tmp_path / "ckpt")
    victim = subprocess.Popen(
        stream_cmd(input_path, directory),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, cwd=REPO_ROOT, text=True,
    )
    # Kill after a few checkpoint lines: mid-run, at whatever commit
    # boundary the scheduler lands on — resume must cope with any.
    seen = []
    for line in victim.stdout:
        seen.append(canon(line.rstrip("\n")))
        if len(seen) == 3:
            os.kill(victim.pid, signal.SIGKILL)
            break
    victim.wait(timeout=30)
    victim.stdout.close()
    assert len(seen) == 3, "victim died before reaching three checkpoints"

    resumed = subprocess.run(
        stream_cmd(input_path, directory, "--resume"),
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert resumed.returncode == 0, resumed.stderr
    tail = [canon(line) for line in resumed.stdout.splitlines()]
    # The committed prefix (lines up to the last on-disk checkpoint —
    # the victim may have raced a little past what we read) plus the
    # resumed tail must equal the uninterrupted run exactly.
    assert tail, "victim finished before the kill landed; nothing resumed"
    committed = len(expected) - len(tail)
    assert committed > 0, "no checkpoint was committed before the kill"
    assert seen == expected[:3]
    assert expected[committed:] == tail, (
        "resumed stream output diverged from the uninterrupted run"
    )


def test_resume_without_checkpoint_starts_fresh(tmp_path):
    input_path = str(tmp_path / "edges.tsv")
    with open(input_path, "w") as handle:
        for src, dst, t in stream_edges(n=300):
            handle.write(f"{src}\t{dst}\t{t}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    directory = str(tmp_path / "empty-ckpt")
    result = subprocess.run(
        stream_cmd(input_path, directory, "--resume"),
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) >= 1


# ----------------------------------------------------------------------
# corruption (hypothesis-driven)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """One committed checkpoint dir, copied per corruption example."""
    base = tmp_path_factory.mktemp("committed")
    directory = checkpoint_dir_with_state(base)
    journal = ckpt.journal_path(directory)
    snapshot = glob.glob(os.path.join(directory, "window-*.rgz"))[0]
    return directory, journal, snapshot


def corrupted_copy(committed, tmp_path_factory):
    import shutil

    directory, _, _ = committed
    clone = str(tmp_path_factory.mktemp("corrupt") / "ckpt")
    shutil.copytree(directory, clone)
    journal = ckpt.journal_path(clone)
    snapshot = glob.glob(os.path.join(clone, "window-*.rgz"))[0]
    return clone, journal, snapshot


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncated_journal_raises_typed(committed, tmp_path_factory, data):
    clone, journal, _ = corrupted_copy(committed, tmp_path_factory)
    size = os.path.getsize(journal)
    # Dropping only the final newline is legal by design; anything
    # shorter must be rejected.
    keep = data.draw(st.integers(min_value=0, max_value=size - 2))
    truncate_file(journal, keep)
    with pytest.raises(CheckpointCorruptError):
        StreamingMotifEngine.resume_from(clone)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bitflipped_journal_raises_typed(committed, tmp_path_factory, data):
    clone, journal, _ = corrupted_copy(committed, tmp_path_factory)
    size = os.path.getsize(journal)
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    mask = data.draw(st.integers(min_value=1, max_value=255))
    bitflip_file(journal, offset, mask)
    with pytest.raises(CheckpointCorruptError):
        StreamingMotifEngine.resume_from(clone)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_truncated_snapshot_raises_typed(committed, tmp_path_factory, data):
    clone, _, snapshot = corrupted_copy(committed, tmp_path_factory)
    size = os.path.getsize(snapshot)
    keep = data.draw(st.integers(min_value=0, max_value=size - 1))
    truncate_file(snapshot, keep)
    with pytest.raises(CheckpointCorruptError):
        StreamingMotifEngine.resume_from(clone)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bitflipped_snapshot_raises_typed(committed, tmp_path_factory, data):
    clone, _, snapshot = corrupted_copy(committed, tmp_path_factory)
    size = os.path.getsize(snapshot)
    offset = data.draw(st.integers(min_value=0, max_value=size - 1))
    mask = data.draw(st.integers(min_value=1, max_value=255))
    bitflip_file(snapshot, offset, mask)
    with pytest.raises(CheckpointCorruptError):
        StreamingMotifEngine.resume_from(clone)


def test_missing_snapshot_raises_typed(committed, tmp_path_factory):
    clone, _, snapshot = corrupted_copy(committed, tmp_path_factory)
    os.remove(snapshot)
    with pytest.raises(CheckpointCorruptError):
        StreamingMotifEngine.resume_from(clone)


def test_corrupt_resume_leaves_no_partial_state(committed, tmp_path_factory):
    """A failed resume must not have mutated anything reusable."""
    clone, journal, _ = corrupted_copy(committed, tmp_path_factory)
    truncate_file(journal, os.path.getsize(journal) // 2)
    for _ in range(2):  # repeatable: no partially-built engine cached
        with pytest.raises(CheckpointCorruptError):
            StreamingMotifEngine.resume_from(clone)
    # The pristine original is untouched and still resumes cleanly.
    directory, _, _ = committed
    engine = StreamingMotifEngine.resume_from(directory)
    assert engine.records_consumed() > 0
