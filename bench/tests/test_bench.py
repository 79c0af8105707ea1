"""Self-tests of the benchmark: python3 -m pytest bench/tests"""

import json

import pytest

import run
import workloads
from checks import OracleCheck, check_verify_report, nf_burau
from gsbraid import braid_nf, braid_scheme, burau, s_to_artin
from stats import percentile, tail_percentile


def test_a_seed_always_gives_the_same_word_set():
    words = workloads.random_words(7)
    assert words == workloads.random_words(7)
    assert words != workloads.random_words(8)
    assert len(words) == 222
    for (n, crossings), count in zip(workloads.NF_RANDOM_CELLS, (74, 74, 74)):
        cell = [w for m, w in words if m == n]
        assert len(cell) == count and all(len(w) == crossings for w in cell)
        assert all(0 < abs(x) < n for w in cell for x in w)
    assert {st for _, _, st in workloads.nf_inputs("nf_random", 7)} == {"rightmost"}


@pytest.mark.parametrize("size, p", [(19, None), (20, 50.0), (199, 90.0), (200, 95.0),
                                     (222, 95.0), (999, 95.0), (1000, 99.0)])
def test_tail_percentile_is_the_highest_with_ten_samples_above(size, p):
    samples = list(range(size, 0, -1))
    got = tail_percentile(samples)
    if p is None:
        assert got is None
        return
    assert got[0] == p
    value, above = percentile(samples, p)
    assert got[1] == value and above >= 10
    assert sum(x > value for x in samples) == above


def test_forced_small_fuel_is_counted_as_failed():
    # 483 leftmost steps finish the B3 power word; every other operation needs more.
    r = workloads.nf_end_to_end("nf_long", seed=1, seconds=0, fuel=500)
    assert (r.attempted, r.failed) == (6, 5)
    assert r.extra["failed_frac"][0] == pytest.approx(5 / 6)
    assert r.problems == []


@pytest.mark.parametrize("strategy, steps", [("rightmost", 28_581), ("leftmost", 483)])
def test_fuel_bisection_reproduces_the_b3_power_step_counts(strategy, steps):
    assert workloads.count_steps(3, (1, -2) * 64, strategy) == steps


def test_gated_latency_is_in_units_of_the_calibration_loop():
    runs = [("a", 0.2), ("a", 0.4), ("b", 0.1)]
    metrics, extra = workloads.latency_metrics(runs, [0.01, 0.03], lambda r: r, 2)
    gm = (0.3 * 0.1) ** 0.5
    assert metrics["op_gm_rel"] == pytest.approx(gm / 0.02)
    assert extra["op_gm_ms"][0] == pytest.approx(gm * 1e3)
    assert extra["wall_s"][0] == pytest.approx(0.6)


def test_step_count_stops_at_the_cap():
    word = (1, -2) * 64
    left = workloads.count_capped(workloads.run_nf_op(3, word, "leftmost"), 10_000)
    assert left.fuel_used == 483 and left.nf is not None
    right = workloads.count_capped(workloads.run_nf_op(3, word, "rightmost"), 10_000)
    assert right.fuel_used == 10_000 and right.nf is None
    failed = workloads.run_nf_op(3, word, "rightmost", fuel=100)
    assert workloads.count_capped(failed, workloads.DEFAULT_FUEL) is failed


def test_letter_image_burau_equals_the_oracle_on_the_expanded_word():
    for n, word in ((3, (1, -2, 1, 1)), (4, (2, -1, -3, 2, 3)), (5, (4, -1, 2, -3, 3))):
        nf = braid_nf(word, n)
        assert nf_burau(nf, n) == burau(s_to_artin(nf, braid_scheme(n)), n)


def test_checks_reject_wrong_answers():
    oracle = OracleCheck()
    oracle.check(3, (1, 1), braid_nf((1,), 3))
    assert len(oracle.problems) == 2
    ok = {"pairs_checked": 292_681, "ambiguities_checked": 5_082, "failures": []}
    assert check_verify_report(ok) == []
    assert check_verify_report(dict(ok, ambiguities_checked=5_081)) != []


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_missing_sources_exit_non_zero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "verify"]) == 2
    assert capsys.readouterr().out == ""
