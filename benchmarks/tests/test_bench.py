"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests -q"""

import json
import re
from pathlib import Path

import pytest

import compare
import gate
import inputs
import run
import spans
from casimir_pendulum.config import load_config

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def _snapshot(workdir: Path, workload) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return workload, files


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_generator_is_deterministic(tmp_path, name):
    first = _snapshot(tmp_path / "a", inputs.generate(name, 7, tmp_path / "a"))
    again = _snapshot(tmp_path / "b", inputs.generate(name, 7, tmp_path / "b"))
    other = _snapshot(tmp_path / "c", inputs.generate(name, 8, tmp_path / "c"))
    assert first == again
    assert first != other


def test_period_check_designs_pass_validation_and_cover_the_range(tmp_path):
    from casimir_pendulum.design import validate

    workload = inputs.generate("period-check", 3, tmp_path)
    configs = [load_config(str(tmp_path / op.config)) for op in workload.operations]
    assert len(configs) == inputs.PERIOD_CHECK_DESIGNS
    assert all(validate(c.params, c.phi0_rad).verdict for c in configs)
    phi0 = sorted(c.phi0_rad for c in configs)
    assert phi0[0] < 2e-3 and phi0[-1] > 0.2


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(inputs.GENERATORS)
    assert set(run.LAYER_SPANS) <= {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_reports_exactly_the_declared_metrics():
    obs = [run.Observation("k", 0, "", "d", 0.1 * (i + 1), 0.1, 1, True, None)
           for i in range(10)]
    setup = [run.ColdStart(0.3, 0.2, 0.06, 0.5)] * 3
    accuracy = {"period_err_digits": 7.0, "energy_drift_digits": 9.0}
    values = run.end_to_end(obs, setup, accuracy)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())


def test_gate_counts_a_perturbed_period():
    oracle = 3.7334e-7
    g = gate.Gate()
    assert g.record("exact", gate.check_period(oracle * (1 + 1e-6), oracle))
    assert not g.record("perturbed", gate.check_period(oracle * (1 + 2e-4), oracle))
    assert not g.record("missing", gate.check_period(None, oracle))
    assert (g.attempted, g.failed) == (3, 2)


def test_gate_counts_a_termination_other_than_completed():
    g = gate.Gate()
    g.record("ok", gate.check_termination("completed") + gate.check_exit(0))
    g.record("collision", gate.check_termination("collision"))
    g.record("exit", gate.check_exit(2))
    assert (g.attempted, g.failed) == (3, 2)
    assert g.failed_frac == pytest.approx(2 / 3)


def test_gate_compares_repeats_and_rows():
    first = {}
    assert gate.check_repeat("k", "aa", first) == []
    assert gate.check_repeat("k", "aa", first) == []
    assert gate.check_repeat("k", "bb", first)
    assert gate.check_rows(["1.0,2.0,,false"], ["1.0,2.0,,false"]) == []
    assert gate.check_rows(["1.0,2.0,3.0,true"], ["1.0,2.0,3.0000000000000004,true"])
    assert gate.check_rows([], ["1.0,2.0,,false"])


def test_oracle_follows_the_softening_law_at_small_amplitude():
    from casimir_pendulum.analytic import linear_period
    from casimir_pendulum.config import parse_config

    params = parse_config({"params": dict(inputs.REFERENCE_PARAMS, include_gravity=False)}).params
    t_lin = linear_period(params)
    excess = [gate.quadrature_period(params, phi0) / t_lin - 1.0 for phi0 in (1e-3, 1e-2)]
    assert excess[0] > 0
    assert excess[0] / excess[1] == pytest.approx(1e-2, rel=1e-3)  # T - T_lin ~ phi0^2


def test_oracle_agrees_with_the_integrator():
    from casimir_pendulum.analytic import linear_period
    from casimir_pendulum.config import parse_config
    from casimir_pendulum.integrator import IntegratorConfig, estimate_period, integrate
    from casimir_pendulum.pendulum import State

    params = parse_config({"params": inputs.REFERENCE_PARAMS}).params
    traj = integrate(params, State(t=0.0, phi=0.3, phi_dot=0.0),
                     IntegratorConfig(t_max=12 * linear_period(params)))
    oracle = gate.quadrature_period(params, 0.3)
    assert estimate_period(traj).mean_period == pytest.approx(oracle, rel=1e-7)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("outer", 0, 10_000_000, None, 0),
        spans.Span("inner", 2_000_000, 5_000_000, 0, 0),
        spans.Span("outer", 0, 1_000_000, None, 1),
    ]
    self_times = tracer.self_times()
    assert self_times[0]["outer"] == pytest.approx(7e-3)
    assert self_times[0]["inner"] == pytest.approx(3e-3)
    assert tracer.top_level_s() == pytest.approx({0: 10e-3, 1: 1e-3})


def test_instrument_records_nested_calls_and_restores():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = spans.Tracer()
    with spans.instrument(tracer, module, "f", "layer.f"):
        assert tracer.call("outer", lambda: module.f(1)) == 2
    assert module.f is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("layer.f", 0)]


@pytest.mark.parametrize("base, new, better, expected", [
    ({1: 100, 2: 101, 3: 99, 4: 100}, {1: 100, 2: 100, 3: 101, 4: 99}, "lower", "same"),
    ({1: 100, 2: 101, 3: 99, 4: 100}, {1: 130, 2: 131, 3: 129, 4: 130}, "lower", "worse"),
    ({1: 100, 2: 101, 3: 99, 4: 100}, {1: 80, 2: 81, 3: 79, 4: 80}, "lower", "better"),
    ({1: 100, 2: 101, 3: 99, 4: 100}, {1: 80, 2: 81, 3: 79, 4: 80}, "higher", "worse"),
    ({1: 50, 2: 150, 3: 100, 4: 100}, {1: 90, 2: 91, 3: 89, 4: 90}, "lower", "unresolved"),
    ({1: 100, 2: 120, 3: 140, 4: 160}, {1: 50, 2: 60, 3: 70, 4: 80}, "lower", "better"),
])
def test_compare_verdicts(base, new, better, expected):
    assert compare.verdict(base, new, better, 0.1) == expected


def test_span_cost_is_small_and_positive():
    assert 0 < spans.span_cost_s(2000) < 1e-3
