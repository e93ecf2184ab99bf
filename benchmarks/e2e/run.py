#!/usr/bin/env python3
"""The end-to-end benchmark: one command for every workload and metric.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload batch-triangle --seed 1 --seconds 15 --trace 0

Without ``--workload`` the four workloads run in turn.  Each one runs
in a fresh process (``workloads.py``) that makes its inputs from the
seed; the program comes from ``src/`` of the same checkout.  Output is
one ``workload metric value unit`` line per metric (end-to-end with
``--trace 0``, per-layer with ``--trace 1``, which also prints the
traced end-to-end values, every ratio with its base and each span's
self time), then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

After each workload the runner fails the run if a ``/dev/shm``
segment it did not find before, or any process the workload started,
is still alive; it removes both.  Metric names, units and bounds come
from ``BENCHMARK.json`` at the root.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".e2e_work"
WORKLOADS = ("batch-triangle", "sharded-cluster", "stream-window", "serve-mixed")
#: A workload process is killed (and the run failed) after this long.
WORKLOAD_TIMEOUT_S = 170
#: How long a workload's helper processes (daemons shutting down, the
#: multiprocessing resource tracker) may take to exit after it did.
EXIT_GRACE_S = 5.0
SMOKE_SECONDS = 2.0
SHM_PREFIXES = ("psm_", "repro")


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIXES)}
    except FileNotFoundError:
        return set()


def marked_processes(marker: str) -> Dict[int, str]:
    """Live processes whose environment carries this run's marker: pid -> command."""
    needle = f"E2E_RUN={marker}".encode()
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path("/proc", entry, "environ").read_bytes()
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0"):
            found[int(entry)] = command.replace(b"\0", b" ").decode(errors="replace").strip()
    return found


def survivors(marker: str) -> Dict[int, str]:
    """Marked processes still alive once the grace period is over."""
    deadline = time.monotonic() + EXIT_GRACE_S
    while True:
        alive = marked_processes(marker)
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def reap(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(Path("/proc", str(pid)).exists() for pid in pids):
        time.sleep(0.05)


def run_workload(name: str, args: argparse.Namespace) -> Dict:
    marker = uuid.uuid4().hex
    workdir = WORK / f"{name}-{marker[:12]}"
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    src_path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src_path), E2E_RUN=marker, TMPDIR=str(workdir))
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.spans and args.trace:
        command += ["--spans", str(args.spans.with_suffix(f".{name}.jsonl"))]
    before = shm_segments()
    try:
        subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
    if result_path.exists():
        result = json.loads(result_path.read_text())
    else:
        result = {"workload": name, "attempted": 1, "failed": 1, "errors": ["workload process died"]}
    leaked_pids = survivors(marker)
    reap(list(leaked_pids))
    leaked_shm = sorted(shm_segments() - before)
    for segment in leaked_shm:
        Path("/dev/shm", segment).unlink(missing_ok=True)
    result["attempted"] += 1
    if leaked_pids or leaked_shm:
        result["failed"] += 1
        result["errors"].append(f"leaked processes {leaked_pids} and /dev/shm segments {leaked_shm}")
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def stamp() -> Dict[str, object]:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_START_METHOD": os.environ.get("REPRO_START_METHOD"),
    }


def append_to_set(path: Path, results: List[Dict]) -> None:
    """Add these runs to a result set (``compare.py`` input)."""
    data = json.loads(path.read_text()) if path.exists() else {"stamp": stamp(), "runs": []}
    for result in results:
        data["runs"].append({
            key: result.get(key)
            for key in ("workload", "seed", "traced", "attempted", "failed", "end_to_end", "per_layer")
        })
    path.write_text(json.dumps(data, indent=1) + "\n")


def print_report(results: List[Dict], spec: Dict, traced: bool) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    kind = "per_layer" if traced else "end_to_end"
    for result in results:
        for name, value in (result.get(kind) or {}).items():
            print(f"{result['workload']} {name} {value!r} {units.get(name, '?')}")
        for error in result["errors"]:
            print(f"# {result['workload']} FAILED: {error}")
    if not traced:
        return
    for result in results:
        workload = result["workload"]
        print(f"# {workload}: end-to-end with tracing on (overhead: compare.py against an untraced set)")
        for name, value in (result.get("end_to_end") or {}).items():
            print(f"#   {name} {value!r} {units.get(name, '?')}")
        print(f"# {workload}: ratios and their bases")
        for name, bases in (result.get("ratio_bases") or {}).items():
            terms = ", ".join(f"{key} {value!r}" for key, value in bases.items())
            print(f"#   {name} {result['per_layer'][name]!r} <- {terms}")
        print(f"# {workload}: span self time (span minus its child spans)")
        print(f"#   {'span':36s} {'count':>6s} {'total s':>10s} {'self s':>10s}")
        for name, (count, total, own) in sorted(
            (result.get("self_times") or {}).items(), key=lambda item: -item[1][2]
        ):
            print(f"#   {name:36s} {count:6d} {total:10.4f} {own:10.4f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass reporting the per-layer metrics")
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="traced pass: write spans as JSONL next to FILE, one file per workload")
    parser.add_argument("--out", type=Path, default=None, metavar="SET.json",
                        help="append this run to a result set for compare.py")
    parser.add_argument("--smoke", action="store_true",
                        help=f"inputs 10x smaller and {SMOKE_SECONDS:g} s per workload unless --seconds is given")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro package or BENCHMARK.json to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    args.out = args.out and args.out.resolve()
    args.spans = args.spans and Path(args.spans).resolve()
    os.chdir(ROOT)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(name, args) for name in workloads]
    if args.out is not None:
        append_to_set(args.out, results)
    print_report(results, spec, bool(args.trace))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    complete = True
    for result in results:
        for metric in spec[kind]:
            value = (result.get(kind) or {}).get(metric["name"])
            if value is None:
                complete = False
                continue
            key = metric["name"] if len(results) == 1 else f"{result['workload']}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    failed = sum(result["failed"] for result in results)
    correct = complete and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
