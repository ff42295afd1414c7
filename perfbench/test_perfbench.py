"""Tests of the benchmark harness itself (not of the program it measures)."""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

from perfbench import checks, metrics
from perfbench.tracer import Tracer, installed

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_metric_names_and_units_are_well_formed():
    names = [n for n, *_ in metrics.END_TO_END] + [n for n, _ in metrics.per_layer()]
    assert len(names) == len(set(names))
    for name in names + list(metrics.WORKLOADS):
        assert metrics.NAME_RE.fullmatch(name), name
    for _, unit, better, bound in metrics.END_TO_END:
        assert metrics.UNIT_RE.fullmatch(unit)
        assert better in ("higher", "lower")
        assert 0 < bound <= 0.25
    for _, unit in metrics.per_layer():
        assert metrics.UNIT_RE.fullmatch(unit)
    assert len(metrics.per_layer()) <= 128
    assert all(len(why) <= 200 for why in metrics.WORKLOADS.values())


def test_setup_time_has_the_largest_bound():
    bounds = {name: (unit, better, bound) for name, unit, better, bound in metrics.END_TO_END}
    assert bounds["setup_s"][:2] == ("s", "lower")
    assert bounds["setup_s"][2] == max(b for _, _, b in bounds.values())


def test_committed_benchmark_json_matches_the_definitions():
    assert (ROOT / "BENCHMARK.json").read_text() == metrics.spec_text()


@pytest.mark.parametrize(
    "values, expected",
    [([3.0], 3.0), ([5.0, 1.0, 3.0], 3.0), ([4.0, 1.0, 3.0, 2.0], 2.5)],
)
def test_median(values, expected):
    assert metrics.median(values) == expected


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        metrics.median([])


def test_spread_is_the_interquartile_range_over_the_median():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / 3.0)


def test_result_line_carries_every_metric_with_its_unit():
    values = {name: 1.5 for name, *_ in metrics.END_TO_END}
    line = json.loads(
        metrics.result_line(correct=True, attempted=3, failed=0, values=values, trace=False)
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["cells_per_s"] == {"value": 1.5, "unit": "cells/s"}
    del values["setup_s"]
    with pytest.raises(KeyError, match="setup_s"):
        metrics.result_line(correct=True, attempted=3, failed=0, values=values, trace=False)


def test_nested_spans_charge_self_time():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    inner_s, inner_n, _ = tracer.totals["inner"]
    outer_s, outer_n, _ = tracer.totals["outer"]
    assert (inner_n, outer_n) == (3, 1)
    assert 0 <= outer_s < wall
    assert inner_s + outer_s <= wall


def test_installed_restores_every_seam():
    from repro.experiments.envelope import ResultEnvelope
    from repro.experiments.session import Session
    from repro.sim import vectorized

    before = (
        ResultEnvelope.__dict__["to_json"],
        Session.__dict__["cache_key"],
        vectorized.evaluate_cells,
    )
    with installed(Tracer()):
        assert vectorized.evaluate_cells is not before[2]
    after = (
        ResultEnvelope.__dict__["to_json"],
        Session.__dict__["cache_key"],
        vectorized.evaluate_cells,
    )
    assert after == before


def tiny_mixed():
    """A 24-cell mixed grid: enough to exercise the checks, fast to run."""
    from perfbench.workloads import MixedSharded

    workload = MixedSharded(5)
    workload.CELLS = 24
    return workload


def test_untouched_store_passes_the_warm_resume_check(tmp_path):
    workload = tiny_mixed()
    specs, cold, _ = workload.cold(str(tmp_path))
    checks.all_cells("cold", cold, len(specs))
    warm, _ = workload.persist(specs, str(tmp_path))
    checks.identical("warm vs cold", checks.texts(warm), checks.texts(cold))
    workload.check_query(workload.query_store(str(tmp_path)), len(specs))


def test_tampered_envelope_fails_the_correctness_check(tmp_path):
    workload = tiny_mixed()
    specs, cold, _ = workload.cold(str(tmp_path))
    victim = next(p for p in sorted(tmp_path.rglob("spmv-*.json")))
    data = json.loads(victim.read_text())
    data["meta"]["repro_version"] += "-tampered"
    victim.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    warm, _ = workload.persist(specs, str(tmp_path))
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.identical("warm vs cold", checks.texts(warm), checks.texts(cold))


def test_missing_cells_and_failures_fail_the_checks():
    with pytest.raises(checks.CheckFailed):
        checks.all_cells("grid", [object(), None], 2)
    with pytest.raises(checks.CheckFailed):
        checks.no_failures("grid", 1)
    with pytest.raises(checks.CheckFailed):
        checks.paper_mape(1.5)
    with pytest.raises(checks.CheckFailed, match="M3"):
        checks.figures_cover_chips(
            {name: {"M1": {1: 1}, "M2": {1: 1}, "M4": {1: 1}} for name in
             ("figure1", "figure2", "figure3", "figure4")}
        )
