"""The perf instrument (``repro.obs.profile``): its layer table, its
wrappers and its gate logic. No wall-clock threshold is asserted here;
the timed gate runs in CI (``python -m repro perf fig13_quick fig13_1m
--check``)."""

from __future__ import annotations

import sys
import types
from functools import partial

import pytest

from repro.bench.fig13_cluster import Fig13Scale
from repro.obs import profile

TINY = Fig13Scale(num_gpus=2, duration=12.0, peak_rate=4.0, bucket=4.0)


@pytest.fixture
def small(monkeypatch):
    """Every scenario at a size tier-1 affords, gate rounds off."""
    monkeypatch.setitem(
        profile.SCENARIOS, "fig13_quick", partial(profile.fig13_quick, scale=TINY)
    )
    monkeypatch.setitem(profile.FIG13_1M_GATE, "fraction", 0.0005)
    monkeypatch.setitem(
        profile.SCENARIOS, "fig13_1m_full", partial(profile.fig13_1m, fraction=0.0005)
    )
    monkeypatch.setattr(profile, "GATES", {})


def test_every_target_resolves():
    targets, missing = profile.resolve()
    assert missing == []
    assert {t.layer for t in targets} == {layer.name for layer in profile.LAYERS}
    for layer in profile.LAYERS:
        assert layer.scenarios, layer.name
        assert set(layer.scenarios) <= set(profile.SCENARIOS), layer.name


@pytest.mark.parametrize("scenario", list(profile.SCENARIOS))
def test_every_named_layer_fires(small, scenario):
    result = profile.run(scenario)
    assert result.failures == []
    named = {layer.name for layer in profile.LAYERS if scenario in layer.scenarios}
    assert named and named <= {layer for layer, *_ in result.rows}


def test_originals_restored_on_exit(monkeypatch):
    targets, _ = profile.resolve()
    before = {(t.owner, t.attr): vars(t.owner)[t.attr]
              for t in targets if t.owner is not None}
    import repro.core.batch as batch

    original = batch.plan_batch
    # A module that imports a target by name only once the wrappers are
    # in: the restore must reach it too.
    late = types.ModuleType("late_importer")
    monkeypatch.setitem(sys.modules, "late_importer", late)
    with profile.profiled() as recorder:
        exec("from repro.core.batch import plan_batch", vars(late))
        assert batch.plan_batch is not original
        assert late.plan_batch is batch.plan_batch
        assert recorder.targets == targets
    for (owner, attr), raw in before.items():
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr}"
    assert batch.plan_batch is original
    assert late.plan_batch is original


def test_nested_calls_are_not_double_counted():
    rec = profile.Recorder([
        profile.Target("core.batch", name, None, name, None)
        for name in ("outer", "inner")
    ])
    inner = rec.wrap(lambda n: sum(range(n)), 1)
    outer = rec.wrap(lambda: [inner(2000) for _ in range(50)], 0)
    t0 = profile.perf_counter()
    outer()
    wall = profile.perf_counter() - t0
    assert rec.calls == [1, 50]
    assert 0 < rec.self_s[0] and 0 < rec.self_s[1]
    assert sum(rec.self_s) <= wall


def test_slo_attribution_names_functions():
    """``repro perf slo`` attributes time to the cost model's and the step
    pricer's own methods; the pricer's calls into ``models.perf``
    functions (its own layer) are not counted twice."""
    result = profile.run("slo")
    fired = {target for _layer, target, _calls, _s in result.rows}
    assert any(t.startswith("FleetCostModel.") for t in fired)
    assert any(t.startswith("StepPricer.") for t in fired)
    assert sum(self_s for *_, self_s in result.rows) <= result.wall_s
    assert "unattributed" in result.render()


def test_gate_rounds_cross_check(monkeypatch):
    row = profile.fig13_quick_round(0, scale=TINY)
    assert set(row) == {
        "wall_s", "speedup", "traced_ratio", "requests_per_s",
        "cpu_s", "cpu_speedup", "cpu_traced_ratio",
    }
    assert all(v > 0 for v in row.values())
    budget = profile.fig13_1m_round(0, fraction=0.0005)
    assert set(budget) == {"wall_s", "events_per_s"}
    monkeypatch.setattr(profile, "_summary", id)  # every run differs
    with pytest.raises(AssertionError, match="diverged"):
        profile.fig13_quick_round(0, scale=TINY)


QUICK_OK = {"wall_s": 1.0, "speedup": 2.0, "requests_per_s": 500.0,
            "traced_ratio": 1.1}
SLICE_OK = {"wall_s": 10.0, "events_per_s": 10_000.0}


@pytest.mark.parametrize("rounds, thresholds, failing", [
    ([QUICK_OK, {**QUICK_OK, "wall_s": 1.05}], profile.FIG13_QUICK_GATE, []),
    ([{**QUICK_OK, "speedup": 1.2}], profile.FIG13_QUICK_GATE, ["speedup"]),
    ([{**QUICK_OK, "requests_per_s": 10.0}], profile.FIG13_QUICK_GATE,
     ["requests_per_s"]),
    ([QUICK_OK, {**QUICK_OK, "wall_s": 1.5}], profile.FIG13_QUICK_GATE,
     ["variance"]),
    ([QUICK_OK, {**QUICK_OK, "traced_ratio": 2.0}], profile.FIG13_QUICK_GATE,
     ["traced_ratio"]),
    ([QUICK_OK, {**QUICK_OK, "wall_s": 1.1, "speedup": 1.18}],
     profile.FIG13_QUICK_GATE, ["speedup"]),
    ([SLICE_OK], profile.FIG13_1M_GATE, []),
    ([{**SLICE_OK, "wall_s": 120.0}], profile.FIG13_1M_GATE, ["wall_s"]),
    ([{**SLICE_OK, "events_per_s": 20.0}], profile.FIG13_1M_GATE,
     ["events_per_s"]),
    ([{"wall_s": 1.0}], profile.FIG13_1M_GATE, ["events_per_s"]),
    ([], profile.FIG13_1M_GATE, ValueError),
], ids=[
    "passes_when_all_thresholds_met", "speedup_floor", "throughput_floor",
    "variance_bound", "traced_ratio_ceiling", "worst_round_gates",
    "passes_within_budget", "wall_budget_exceeded",
    "events_per_s_floor", "unmeasured_metric_fails_loudly", "empty_rejected",
])
def test_gate_verdict(rounds, thresholds, failing):
    if failing is ValueError:
        with pytest.raises(ValueError):
            profile.gate_rows(rounds, thresholds)
        return
    rows = profile.gate_rows(rounds, thresholds)
    assert [metric for metric, _v, _b, ok in rows if not ok] == failing
    gated = {key[4:] for key in thresholds if key[:4] in ("min_", "max_")}
    if len(rounds) < 2:
        gated.discard("variance")
    assert {metric for metric, *_ in rows} == gated


def test_cpu_rows_print_beside_the_gate_ungated():
    """CPU-time speedup, traced ratio and variance follow the gate's rows
    with no bound, so they never fail a check, however far off."""
    rounds = [
        {**QUICK_OK, "cpu_s": 1.0, "cpu_speedup": 2.5, "cpu_traced_ratio": 1.2},
        {**QUICK_OK, "cpu_s": 1.5, "cpu_speedup": 0.5, "cpu_traced_ratio": 3.0},
    ]
    rows = profile.gate_rows(rounds, profile.FIG13_QUICK_GATE)
    assert rows[-3:] == [
        ("cpu_speedup", 0.5, "-", None), ("cpu_traced_ratio", 3.0, "-", None),
        ("cpu_variance", 0.5, "-", None),
    ]
    assert all(ok for *_, ok in rows[:-3])
    one = profile.gate_rows(rounds[:1], profile.FIG13_QUICK_GATE)
    assert [m for m, *_ in one if m.startswith("cpu_")] == [
        "cpu_speedup", "cpu_traced_ratio",
    ]
    text = profile.Profile("fig13_quick", 0, 1.0, [], rows, []).render()
    assert "cpu_variance" in text and "FAIL" not in text
