"""Tests for MotifCounts serialisation."""

import json

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.core.serialize import (
    counts_from_json,
    counts_to_csv,
    counts_to_json,
    load_counts,
    save_counts,
)
from repro.errors import ValidationError
from tests.conftest import random_graph


class TestJson:
    def test_roundtrip(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        restored = counts_from_json(counts_to_json(counts))
        assert restored == counts
        assert restored.algorithm == counts.algorithm
        assert restored.delta == counts.delta

    def test_file_roundtrip(self, paper_graph, tmp_path):
        counts = count_motifs(paper_graph, 10)
        path = tmp_path / "counts.json"
        save_counts(counts, path)
        assert load_counts(path) == counts

    def test_sampled_file_roundtrip(self, tmp_path):
        # A fixed-seed BTS estimate: fractional cells, is_exact=False
        # and a stderr grid all survive save/load bit for bit.
        graph = random_graph(seed=4, num_nodes=10, num_edges=120, t_max=40)
        counts = count_motifs(graph, 8, algorithm="bts", seed=11, n_samples=4)
        assert not counts.is_exact and counts.stderr is not None
        assert np.any(counts.grid != np.round(counts.grid))
        path = tmp_path / "bts.json"
        save_counts(counts, path)
        restored = load_counts(path)
        assert restored.grid.dtype == np.float64
        assert np.array_equal(restored.grid, counts.grid)
        assert restored.is_exact is False
        assert np.array_equal(restored.stderr, counts.stderr)
        assert restored.algorithm == counts.algorithm

    def test_exact_file_without_stderr_loads_unchanged(self, paper_graph):
        # An exact file as every release wrote it: no "stderr" key.
        counts = count_motifs(paper_graph, 10)
        text = counts_to_json(counts)
        assert "stderr" not in json.loads(text)
        restored = counts_from_json(text)
        assert restored.grid.dtype == np.int64
        assert restored.is_exact is True and restored.stderr is None
        assert restored == counts

    def test_invalid_json(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            counts_from_json("not json {")

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="unknown format"):
            counts_from_json('{"format": "other/9", "counts": {}}')

    def test_unknown_motif_rejected(self):
        doc = '{"format": "repro.motif_counts/1", "counts": {"M99": 1}}'
        with pytest.raises(ValidationError, match="unknown motif"):
            counts_from_json(doc)

    def test_json_is_sorted_and_versioned(self, paper_graph):
        text = counts_to_json(count_motifs(paper_graph, 10))
        assert '"format": "repro.motif_counts/1"' in text


class TestCsv:
    def test_csv_has_37_lines(self, paper_graph):
        text = counts_to_csv(count_motifs(paper_graph, 10))
        lines = text.strip().splitlines()
        assert len(lines) == 37  # header + 36 motifs
        assert lines[0] == "motif,row,col,category,count"

    def test_csv_counts_match(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        for line in counts_to_csv(counts).strip().splitlines()[1:]:
            name, _, _, _, value = line.split(",")
            assert counts[name] == int(value)
