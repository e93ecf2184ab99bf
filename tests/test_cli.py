"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.edgelist import save_edgelist
from repro.graph.temporal_graph import TemporalGraph


@pytest.fixture
def edge_file(tmp_path, paper_graph):
    # relabel to ints for SNAP round-trip
    g = TemporalGraph([(u, v, t) for u, v, t in paper_graph.internal_edges()])
    path = tmp_path / "graph.txt"
    save_edgelist(g, path)
    return str(path)


class TestCount:
    def test_count_from_file(self, edge_file, capsys):
        assert main(["count", "--input", edge_file, "--delta", "10"]) == 0
        out = capsys.readouterr().out
        assert "total=27" in out

    def test_count_json(self, edge_file, capsys):
        assert main(["count", "--input", edge_file, "--delta", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 27
        assert payload["counts"]["M63"] == 1
        assert payload["algorithm"] == "fast"

    def test_count_dataset(self, capsys):
        assert main(
            ["count", "--dataset", "collegemsg", "--scale", "0.05", "--delta", "600"]
        ) == 0
        assert "total=" in capsys.readouterr().out

    def test_count_ex_algorithm(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--algorithm", "ex", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 27

    def test_count_parallel(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--workers", "2", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 27

    @pytest.mark.parametrize("backend", ["auto", "python", "columnar"])
    def test_count_backend(self, edge_file, backend, capsys):
        """Kernel choice is internal: every value of the removed flag is
        refused, and the JSON output carries no backend."""
        with pytest.raises(SystemExit) as exc:
            main(["count", "--input", edge_file, "--delta", "10", "--backend", backend])
        assert exc.value.code == 2
        assert main(["count", "--input", edge_file, "--delta", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 27
        assert "backend" not in payload

    @pytest.mark.parametrize("argv", [
        ["count", "--delta", "10", "--thrd", "3"],
        ["count", "--delta", "10", "--schedule", "static"],
        ["count", "--delta", "10", "--start-method", "fork"],
        ["count", "--delta", "10", "--num-shards", "4"],
        ["count", "--delta", "10", "--boundaries", "5"],
        ["stream", "--delta", "10", "--start-method", "fork"],
        ["serve", "--start-method", "fork"],
        ["worker", "--start-method", "fork"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_execution_knob_flags_are_refused(self, edge_file, argv):
        """HARE's threshold/schedule, the pool start method and the
        cut modes beside ``--shard-budget`` are no CLI flags: the pool
        takes ``REPRO_START_METHOD``."""
        if argv[0] in ("count", "stream"):
            argv = argv[:1] + ["--input", edge_file] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_count_json_surfaces_phase_seconds(self, edge_file, capsys):
        assert main(["count", "--input", edge_file, "--delta", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["phase_seconds"]) >= {"star_pair", "triangle"}
        assert payload["dominant_phase"] in payload["phase_seconds"]

    def test_count_text_shows_backend_and_phases(self, edge_file, capsys):
        assert main(["count", "--input", edge_file, "--delta", "10"]) == 0
        out = capsys.readouterr().out
        assert "phases: " in out and "columnar_build=" in out
        assert "dominant:" in out
        assert "backend" not in out

    def test_count_categories(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10",
             "--categories", "triangle", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["M26"] == 1
        assert payload["counts"]["M55"] == 0

    def test_count_bt_algorithm(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--algorithm", "bt", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 27
        assert payload["is_exact"] is True

    def test_count_twoscent_algorithm(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10",
             "--algorithm", "twoscent", "--categories", "triangle", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["M26"] == 1

    def test_count_bts_sampling_flags(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--algorithm", "bts",
             "--n-samples", "2", "--seed", "7", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_exact"] is False
        assert payload["n_samples"] == 2
        assert set(payload["stderr"]) == set(payload["counts"])

    def test_count_ews_text_reports_ci(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--algorithm", "ews"]
        ) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out

    def test_count_text_ci_uses_student_t(self, edge_file, capsys):
        """Three replicates: the total's interval is ±4.303 stderr, not ±1.96."""
        args = ["count", "--input", edge_file, "--delta", "10", "--algorithm", "bts",
                "--n-samples", "3", "--seed", "7"]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        out = capsys.readouterr().out
        interval = out.split("95% CI on total: [")[1].split("]")[0]
        lo, hi = (float(x.replace(",", "")) for x in interval.split(", "))
        half = 4.303 * payload["total_stderr"]
        assert payload["total_stderr"] > 0
        assert lo == pytest.approx(payload["total"] - half, abs=0.06)
        assert hi == pytest.approx(payload["total"] + half, abs=0.06)

    def test_count_sampling_flag_on_exact_is_rejected(self, edge_file, capsys):
        assert main(
            ["count", "--input", edge_file, "--delta", "10", "--n-samples", "3"]
        ) == 2
        assert "sampling" in capsys.readouterr().err

    def test_missing_source_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--delta", "10"])


class TestGenerateAndStats:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        assert main(
            ["generate", "--dataset", "collegemsg", "--scale", "0.02", "--out", str(out)]
        ) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_then_count_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        main(["generate", "--dataset", "bitcoinalpha", "--scale", "0.05", "--out", str(out)])
        capsys.readouterr()
        assert main(["count", "--input", str(out), "--delta", "600", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] >= 0

    def test_stats(self, edge_file, capsys):
        assert main(["stats", "--input", edge_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:            5" in out
        assert "temporal edges:   12" in out

    def test_stats_dataset(self, capsys):
        assert main(["stats", "--dataset", "collegemsg", "--scale", "0.05"]) == 0
        assert "reciprocity" in capsys.readouterr().out


class TestBenchAndList:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "collegemsg" in out
        assert "redditcomments" in out

    def test_bench_table2(self, capsys, tmp_path):
        out_file = tmp_path / "t2.txt"
        assert main(["bench", "table2", "--scale", "0.02", "--out", str(out_file)]) == 0
        assert "Table II" in capsys.readouterr().out
        assert out_file.exists()

    def test_bench_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["bench", "table7"])

    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("fast", "ex", "bruteforce", "bt", "twoscent", "bts", "ews"):
            assert name in out
        assert "approximate" in out and "exact" in out

    def test_help_lists_registry_algorithms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "registered algorithms" in out
        assert "twoscent" in out


class TestErrors:
    def test_graph_format_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an edge list\n")
        assert main(["count", "--input", str(bad), "--delta", "10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestStream:
    def test_stream_emits_jsonl_checkpoints(self, edge_file, capsys):
        assert main(
            ["stream", "--input", edge_file, "--delta", "10",
             "--checkpoint-every", "5"]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [cp["checkpoint"] for cp in lines] == [1, 2, 3]
        assert lines[-1]["edges_seen"] == 12
        # Unbounded stream: final totals equal the batch count.
        assert lines[-1]["total"] == 27
        for cp in lines:
            assert set(cp["phase_seconds"]) == {"ingest", "expire", "count"}
            assert cp["dominant_phase"] in {"ingest", "expire", "count"}

    def test_stream_per_motif_counts(self, edge_file, capsys):
        assert main(
            ["stream", "--input", edge_file, "--delta", "10", "--per-motif"]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1
        assert lines[0]["counts"]["M63"] == 1
        assert sum(lines[0]["counts"].values()) == lines[0]["total"] == 27

    def test_stream_window_expires_edges(self, edge_file, capsys):
        assert main(
            ["stream", "--input", edge_file, "--delta", "5", "--window", "8",
             "--checkpoint-every", "4"]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        final = lines[-1]
        assert final["edges_expired"] > 0
        assert final["edges_seen"] == final["edges_live"] + final["edges_expired"]
        assert final["watermark"] == pytest.approx(final["t_latest"] - 8)

    def test_stream_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO("0 1 0\n# comment\n1 0 2\n0 1 4\n")
        )
        assert main(["stream", "--input", "-", "--delta", "10"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[-1]["edges_seen"] == 3
        assert lines[-1]["total"] == 1

    def test_stream_stdin_malformed_line_reports_position(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("0 1 0\n1 0 2\nbogus line here\n0 1 4\n"),
        )
        assert main(
            ["stream", "--input", "-", "--delta", "10", "--checkpoint-every", "2"]
        ) == 2
        captured = capsys.readouterr()
        # Checkpoints emitted before the bad line still came through...
        emitted = [json.loads(line) for line in captured.out.splitlines()]
        assert emitted and emitted[0]["edges_seen"] == 2
        # ... and the error names the exact stdin line.
        assert "error:" in captured.err
        assert "<stdin>:3" in captured.err

    def test_stream_stdin_short_line_rejected(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n"))
        assert main(["stream", "--input", "-", "--delta", "10"]) == 2
        err = capsys.readouterr().err
        assert "<stdin>:1" in err and "expected 'u v t'" in err

    @pytest.mark.parametrize("bad_t", ["nan", "inf", "-inf"])
    def test_stream_stdin_non_finite_timestamp_rejected(self, capsys, monkeypatch, bad_t):
        import io

        # float("nan")/float("inf") parse as numbers but poison window
        # arithmetic and the canonical sort; the parser must refuse
        # them instead of silently corrupting the stream.
        monkeypatch.setattr("sys.stdin", io.StringIO(f"0 1 0\n0 1 {bad_t}\n0 1 4\n"))
        assert main(["stream", "--input", "-", "--delta", "10"]) == 2
        err = capsys.readouterr().err
        assert "<stdin>:2" in err and "finite" in err

    def test_count_rejects_non_finite_timestamp_file(self, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("0 1 0\n1 0 nan\n")
        assert main(["count", "--input", str(bad), "--delta", "5"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_stream_stdin_window_and_late_drops(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("0 1 0\n1 0 10\n0 1 20\n1 0 5\n0 1 30\n"),
        )
        assert main(
            ["stream", "--input", "-", "--delta", "4", "--window", "12",
             "--checkpoint-every", "1"]
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        final = lines[-1]
        # The t=5 edge arrived below the watermark and was dropped late.
        assert final["edges_dropped_late"] == 1
        assert final["edges_seen"] + final["edges_dropped_late"] == 5
        assert final["edges_seen"] == final["edges_live"] + final["edges_expired"]

    def test_stream_matches_batch_count(self, edge_file, capsys):
        assert main(["count", "--input", edge_file, "--delta", "7", "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert main(
            ["stream", "--input", edge_file, "--delta", "7", "--per-motif"]
        ) == 0
        stream = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert stream["counts"] == batch["counts"]

    def test_stream_rejects_non_streaming_algorithm(self, edge_file):
        with pytest.raises(SystemExit):
            main(["stream", "--input", edge_file, "--delta", "5",
                  "--algorithm", "bt"])

    def test_stream_bad_file_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n")
        assert main(["stream", "--input", str(bad), "--delta", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_missing_file_reports_error(self, capsys):
        assert main(["stream", "--input", "/no/such/file", "--delta", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_count_missing_file_reports_error(self, capsys):
        assert main(["count", "--input", "/no/such/file", "--delta", "5"]) == 2
        assert "error:" in capsys.readouterr().err
