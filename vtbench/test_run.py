"""Tests of the benchmark's own checks. Not part of the package's test suite;
run from the repository root with:

    python3 -m pytest -q vtbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import make_reference  # noqa: E402
import run  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_reference_file_matches_the_dynamic_programme():
    assert make_reference.build() == REFERENCE


@pytest.mark.parametrize("n, q", [(6, 3), (7, 4), (6, 5), (9, 3)])
def test_dynamic_programme_matches_brute_force(n, q):
    import vtcodes

    assert make_reference.qary_counts(n, q) == [list(row) for row in vtcodes.qary_census(n, q)]


def test_binary_dynamic_programme_matches_brute_force():
    import vtcodes

    for n in range(1, 15):
        assert make_reference.binary_counts(n) == list(vtcodes.binary_census(n))


def test_corrupted_reference_count_is_caught():
    import vtcodes

    n, q = 8, 8
    grid = REFERENCE["qary"]["8,8"]
    lower = vtcodes.qary_size_lower_bound(n, q)
    assert run.check_qary_grid(n, q, grid, grid, lower) == []
    corrupted = copy.deepcopy(grid)
    corrupted[3][5] += 1
    assert run.check_qary_grid(n, q, grid, corrupted, lower) != []
    assert run.check_qary_grid(n, q, corrupted, grid, lower) != []  # also the sum

    counts = REFERENCE["binary"]["22"]
    within = vtcodes.binary_size_within_bounds
    assert run.check_binary_counts(22, counts, counts, within) == []
    bad = list(counts)
    bad[0] -= 1
    bad[1] += 1  # same sum, wrong cells
    assert run.check_binary_counts(22, counts, bad, within) != []


def test_lower_bound_and_listing_checks():
    import vtcodes

    grid = [[0] * 8 for _ in range(8)]
    grid[0][0] = 8**8
    assert any("lower_bound" in p for p in run.check_qary_grid(8, 8, grid, grid, 448))

    words = vtcodes.binary_codewords(10, 3)
    assert run.check_listing(10, 3, words, len(words)) == []
    assert run.check_listing(10, 3, words, len(words) + 1) != []
    assert run.check_listing(10, 4, words, len(words)) != []
    assert run.check_listing(10, 3, words[::-1], len(words)) != []


def test_self_time_subtracts_covered_child_time():
    spans = [
        [0, "roundtrip", -1, 0.0, 10.0],
        [0, "a", 0, 1.0, 4.0],
        [0, "b", 0, 3.0, 6.0],  # overlaps a by 1
        [0, "c", 0, 9.0, 12.0],  # runs past its parent
    ]
    assert run.self_times(spans) == [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0]


def test_census_run_fails_on_a_corrupted_reference(tmp_path, monkeypatch, capsys):
    bad = copy.deepcopy(REFERENCE)
    bad["qary"]["8,8"][0][0] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "REFERENCE", path)
    monkeypatch.setattr(run, "CENSUS_QARY", ((8, 8),))
    monkeypatch.setattr(run, "CENSUS_BINARY", (22,))
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "0.1"]) == 1
    out = last_json(capsys)
    assert out["correct"] is False and out["failed"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_the_declared_metrics(trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", HERE.parent / ".vtbench_out" / "test")
    argv = ["--workload", "short_identity", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = last_json(capsys)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(out["metrics"]) == names
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert all(m["unit"] == units[name] for name, m in out["metrics"].items())
