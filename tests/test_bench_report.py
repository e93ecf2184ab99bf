"""The baseline aggregator skips bad inputs instead of crashing.

CI runs ``tools/bench_report.py`` over whatever ``BENCH_*.json`` files
are committed; a half-written or hand-edited baseline must degrade to
a printed note, never a traceback that fails the job.
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import bench_report  # noqa: E402


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


GOOD = {
    "description": "demo",
    "results": [
        {"edges": 100, "speedup": 3.5},
        {"edges": 200, "per": {"bts": {"speedup": 2.0}}},
    ],
}


def test_good_file_produces_rows(tmp_path):
    _write(tmp_path, "BENCH_demo.json", GOOD)
    rows = bench_report.collect(tmp_path)
    assert ("demo", "demo", 100, None, "overall", 3.5) in rows
    assert ("demo", "demo", 200, None, "per.bts", 2.0) in rows
    assert "3.50x" in bench_report.render(rows)


def test_core_count_is_printed_when_recorded(tmp_path):
    _write(
        tmp_path,
        "BENCH_cores.json",
        {"results": [{"edges": 100, "cores": 2, "speedup": 3.5}]},
    )
    rows = bench_report.collect(tmp_path)
    assert rows == [("cores", "", 100, 2, "overall", 3.5)]
    line = bench_report.render(rows).splitlines()[-1]
    assert line.split() == ["cores", "100", "2", "overall", "3.50x"]


def test_missing_directory_is_a_note(tmp_path, capsys):
    rows = bench_report.collect(tmp_path / "nope")
    assert rows == []
    assert "no benchmark directory" in capsys.readouterr().err


def test_malformed_json_is_skipped(tmp_path, capsys):
    _write(tmp_path, "BENCH_bad.json", "{not json")
    _write(tmp_path, "BENCH_demo.json", GOOD)
    rows = bench_report.collect(tmp_path)
    assert {r[0] for r in rows} == {"demo"}
    assert "skipping BENCH_bad.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, note",
    [
        ([1, 2, 3], "top level"),
        ('"just a string"', "top level"),
        ({"results": "oops"}, "'results' is not a list"),
    ],
)
def test_wrong_shapes_are_skipped(tmp_path, capsys, payload, note):
    _write(tmp_path, "BENCH_shape.json", payload)
    assert bench_report.collect(tmp_path) == []
    assert note in capsys.readouterr().err


def test_non_numeric_fields_degrade(tmp_path):
    _write(
        tmp_path,
        "BENCH_odd.json",
        {
            "results": [
                {"edges": "many", "speedup": 1.5},  # bad edges -> 0
                {"edges": 10, "speedup": "fast"},  # bad speedup -> dropped
                {"edges": 10, "speedup": None},  # null -> dropped
                "not an entry",  # non-dict entry -> dropped
            ]
        },
    )
    rows = bench_report.collect(tmp_path)
    assert rows == [("odd", "", 0, None, "overall", 1.5)]


def test_main_exits_zero_on_garbage(tmp_path, capsys):
    _write(tmp_path, "BENCH_bad.json", "][")
    assert bench_report.main(["--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no BENCH_*.json baselines found" in out


def test_worker_count_names_the_row(tmp_path):
    _write(tmp_path, "BENCH_demo.json", {"results": [
        {"edges": 100, "speedup": 3.0, "speedup_pool": 1.5, "pool_workers": 2},
    ]})
    rows = bench_report.collect(tmp_path)
    assert ("demo", "", 100, None, "pool[2]", 1.5) in rows
    assert ("demo", "", 100, None, "overall", 3.0) in rows


def test_main_renders_committed_baselines(capsys):
    bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    assert bench_report.main(["--dir", str(bench_dir)]) == 0
    assert "benchmark speedup trajectory" in capsys.readouterr().out
