"""Self-tests of the benchmark harness: span arithmetic, failure counting,
seeding, the independent direct-sum check and the traced run."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import hostspeed
import run
import scenarios
import spans


import filmhomog as fh
from filmhomog.config import Thresholds, build_config
from filmhomog.quadrature import adaptive_rectangle

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    tree = [
        _span("study", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("a.inner", 1.5, 2.5, parent=1),  # grandchild: already inside its parent
        _span("b", 2.0, 5.0, parent=0),  # overlaps a
        _span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
    ]
    # children cover [1, 5] and [8, 10] of the parent's [0, 10]
    assert spans.self_time(tree, 0) == pytest.approx(4.0)
    assert spans.self_time(tree, 1) == pytest.approx(1.0)
    assert spans.self_time(tree, 2) == pytest.approx(1.0)


def test_covered_merges_disjoint_nested_and_duplicate_intervals():
    assert spans.covered([(0, 1), (2, 3), (2.5, 2.7), (2, 3)], 0, 10) == pytest.approx(2.0)
    assert spans.covered([], 0, 1) == 0.0
    assert spans.covered([(-5, 0.5), (0.9, 7)], 0, 1) == pytest.approx(0.6)


def test_tracer_records_parents_and_outermost_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("study"):
        with tracer.span("x"):
            with tracer.span("x"):
                pass
        with tracer.span("y"):
            pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("study", None), ("x", 0), ("x", 1), ("y", 0)]
    assert [tracer.spans.index(s) for s in spans.outermost(tracer.spans, "x")] == [1]
    assert spans.layer_total(tracer, "x", "time") == 3.0  # the outer x only
    assert spans.layer_total(tracer, "x", "calls") == 1


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------


def _fake_library(reports):
    def run_convergence(*args, **kwargs):
        item = reports.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    return SimpleNamespace(study=SimpleNamespace(run_convergence=run_convergence))


def _report(errors, order):
    return SimpleNamespace(
        fitted_order=order,
        errors_decrease=all(b < a for a, b in zip(errors, errors[1:])),
        steps=[SimpleNamespace(err_max=e) for e in errors],
        micro=[],
    )


def test_fail_frac_counts_raised_and_failed_runs():
    cfg = SimpleNamespace(
        choice_b=None, motif=None, pmap=None, choice_a=None, regime=None, schedule=None,
        grid=None, tol=1e-9, max_depth=12, thresholds=Thresholds(order_min=0.9),
    )
    reports = [
        _report([1.0, 0.5, 0.25], 1.0),  # passes
        fh.QuadratureNotConverged("depth cap", error_estimate=1.0, tolerance=1e-9),  # raises
        _report([1.0, 0.5, 0.6], 1.0),  # errors do not decrease
        _report([1.0, 0.9, 0.8], 0.2),  # order below order_min
    ]
    library = _fake_library(reports)
    outcomes = run.Outcomes()
    calls = [run.timed_study(library, cfg, None, outcomes) for _ in range(4)]
    assert [ok for _, _, ok in calls] == [True, False, False, False]
    assert (outcomes.attempted, outcomes.failed) == (4, 3)
    assert outcomes.fail_frac == pytest.approx(0.75)


def test_passing_mean_ignores_failed_calls():
    assert run.passing_mean([(2.0, True), (0.1, False), (1.5, True), (1.0, True)]) == pytest.approx(1.5)
    assert run.passing_mean([(2.0, False), (0.1, False)]) == pytest.approx(1.05)


def test_host_scaling_divides_by_the_surrounding_kernel_times():
    ref = hostspeed.REFERENCE_S
    # the second call ran on a host twice as slow: its kernels took twice as long
    out = hostspeed.scaled([1.0, 2.0], [ref, ref, 3 * ref])
    assert out == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 2.0], [ref, ref])


def test_gauge_thresholds():
    th = Thresholds(gauge_phi_tol=1e-6, gauge_moment_min=0.1)
    cfg = SimpleNamespace(thresholds=th)
    good = SimpleNamespace(atoms_consistent=True, max_potential_diff=1e-12, max_moment_diff=1.0)
    assert checks.study_problems(good, cfg) == []
    for bad in (
        SimpleNamespace(atoms_consistent=False, max_potential_diff=1e-12, max_moment_diff=1.0),
        SimpleNamespace(atoms_consistent=True, max_potential_diff=0.36, max_moment_diff=1.0),
        SimpleNamespace(atoms_consistent=True, max_potential_diff=1e-12, max_moment_diff=0.0),
        SimpleNamespace(atoms_consistent=True, max_potential_diff=math.nan, max_moment_diff=1.0),
    ):
        assert len(checks.study_problems(bad, cfg)) == 1


# ---------------------------------------------------------------------------
# seeded scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_same_seed_gives_same_scenario(workload):
    a = scenarios.scenario(workload, 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(scenarios.scenario(workload, 7), sort_keys=True)
    assert a != scenarios.scenario(workload, 8)
    build_config(a)  # every generated scenario is valid input


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(scenarios.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == {name: spans.metric_unit(name) for name in per_layer}
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "study_s", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# independent direct-sum check
# ---------------------------------------------------------------------------


def _small_convergence(workload):
    raw = scenarios.scenario(workload, 0)
    raw["schedule"] = {"l": [1 / 4, 1 / 8]}
    raw["regime"] = {"kind": "R2", "alpha": 1.0}
    cfg = build_config(raw)
    samples = []
    for l, h in cfg.schedule:
        tess = fh.tessellate(cfg.pmap.domain, l, cfg.choice_a)
        dist = fh.realize(cfg.motif, tess, cfg.pmap, l, h, cfg.regime)
        samples.append(fh.direct_potential(dist, cfg.grid, standoff_factor=0.0))
    return raw, cfg, samples


@pytest.mark.parametrize("workload", ["near_film_r2", "field_map_cyl"])
def test_direct_sum_check_accepts_library_samples(workload):
    raw, cfg, samples = _small_convergence(workload)
    assert checks.DirectSumCheck(raw, cfg.schedule, cfg.grid.points).problems(samples) == []


def test_direct_sum_check_rejects_a_perturbed_sample():
    raw, cfg, samples = _small_convergence("near_film_r2")
    check = checks.DirectSumCheck(raw, cfg.schedule, cfg.grid.points)
    values = samples[1].values.copy()
    values[3] *= 1.0 + 1e-9
    bad = fh.FieldSample(grid=cfg.grid, values=values, provenance="perturbed")
    problems = check.problems([samples[0], bad])
    assert len(problems) == 1 and problems[0].startswith("step 1")
    assert check.problems(samples[:1])  # a missing step is a failure too


# ---------------------------------------------------------------------------
# hooks and the traced run
# ---------------------------------------------------------------------------


def test_hooks_restore_bindings_and_skip_missing_targets():
    import filmhomog.study

    original = filmhomog.study.tessellate
    table = spans.HOOKS + (spans.Hook("filmhomog.lattice", "tessellate_arrays", "lattice.arrays"),)
    tracer = spans.Tracer()
    with spans.hooks(tracer, table):
        assert filmhomog.study.tessellate is not original
        assert fh.tessellate is filmhomog.study.tessellate
        fh.tessellate(fh.Rectangle((0, 0), (1, 1)), 0.5, fh.UnitCellChoice())
    assert filmhomog.study.tessellate is original and fh.tessellate is original
    assert "from_points" in vars(fh.ObservationGrid)
    assert isinstance(vars(fh.ObservationGrid)["from_points"], classmethod)
    assert tracer.missing == {"lattice.arrays"}
    assert [s.counts for s in tracer.spans] == [{"cells": 4, "cells_partial": 0}]


def test_missing_layer_metrics_are_absent():
    table = tuple(h for h in spans.HOOKS if h.layer != "moments.table")
    table += (spans.Hook("filmhomog.moments", "moment_table_v2", "moments.table"),)
    tracer = spans.Tracer()
    with spans.hooks(tracer, table):
        with tracer.span("study"):
            pass
    metrics = spans.study_metrics(tracer)
    assert "moments.table_s" not in metrics and "moments.table_rows" not in metrics
    assert metrics["lattice.tessellate_calls"] == 0


def test_quadrature_panels_and_depth_come_from_the_integrand():
    tracer = spans.Tracer()
    hook = spans.Hook("filmhomog.quadrature", "adaptive_rectangle", "quadrature.rect", integrand_dims=2)
    wrapped = spans._wrap(adaptive_rectangle, hook, tracer)
    out = wrapped(lambda x: np.ones((len(x), 3)), (0.0, 0.0), (1.0, 1.0))
    assert np.allclose(out, 1.0)
    # a constant is exact on the root panel: root + 4 children, one level down
    assert tracer.spans[0].counts == {"panels": 5, "kernel_evals": 5 * 64 * 3, "depth_max": 1}


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    conv = scenarios.scenario("near_film_r2", 0)
    conv["schedule"] = {"l": [1 / 4, 1 / 8]}
    conv["grid"]["distance"] = 1.0
    gauge = scenarios.scenario("gauge_l64", 0)
    gauge["schedule"] = {"l": [1 / 8]}
    seen = set()
    for raw in (conv, gauge):
        outcomes, metrics = run.measure(fh, raw, 0.01, True, tmp_path / "spans.json")
        assert outcomes.failed == 0 and outcomes.attempted == 2
        seen |= set(metrics)
        assert json.loads((tmp_path / "spans.json").read_text())["study"][0]["name"] == "study"
    assert seen == {m["name"] for m in SPEC["per_layer"]}
    outcomes, metrics = run.measure(fh, gauge, 0.01, False, tmp_path / "unused.json")
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())
