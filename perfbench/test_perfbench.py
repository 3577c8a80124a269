"""Tests of the benchmark's own code: PYTHONPATH=src python -m pytest perfbench"""

import dataclasses
import json
import re
import signal
from fractions import Fraction
from time import perf_counter

import pytest

import calibrate
import run
import tracer
import workloads
from acnbounds import game
from acnbounds.game import exact_advantage

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MONTE_CARLO = [w for w in workloads.WORKLOADS if w.trials is not None]
EXACT = [w for w in workloads.WORKLOADS if w.trials is None]


def test_tracer_restores_the_game_names_even_after_an_error():
    before = {name: getattr(game, name) for name in tracer.LAYERS}
    with pytest.raises(RuntimeError):
        with tracer.LayerTracer():
            assert all(getattr(game, name) is not fn
                       for name, fn in before.items())
            raise RuntimeError
    assert all(getattr(game, name) is fn for name, fn in before.items())


def test_calibrator_samples_while_busy_and_then_disarms():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator() as cal:
        t0 = perf_counter()
        while perf_counter() - t0 < 3.5 * calibrate.INTERVAL:
            calibrate.kernel()
    assert cal.slices >= 2 and cal.busy > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("w", MONTE_CARLO + EXACT, ids=lambda w: w.name)
def test_every_layer_a_workload_uses_records_calls(w):
    if w.trials is not None:
        w = dataclasses.replace(w, trials=200)
    built = w.build()
    with tracer.LayerTracer() as spans:
        t0 = perf_counter()
        result = w.solve(built, master_seed=1)
        spans.add_solve(t0, perf_counter())
    assert w.check(result)
    calls = dict(zip(tracer.LAYERS, spans.calls))
    exact = w.trials is None
    assert (calls["enumerate_outcomes"] > 0) == exact
    assert (calls["sample_outcome"] > 0) == (not exact)
    assert calls["build_trace"] == calls["filter_trace"] == calls["decide"] > 0
    assert len(spans.span_start) == sum(spans.calls)
    m = spans.metrics(overhead_ratio=1.0)
    shares = [v for k, v in m.items() if k.endswith("share")]
    assert sum(shares) == pytest.approx(1.0)
    assert all(0 <= s <= 1 for s in shares)


@pytest.mark.parametrize("w", MONTE_CARLO, ids=lambda w: w.name)
def test_monte_carlo_references_match_exact_enumeration_when_tiny(w):
    if w.protocol == "onion-path":
        tiny = dataclasses.replace(w, n=2, l_max=2, relays=3, c_p=1)
    else:
        tiny = dataclasses.replace(w, n=2, l_max=3)
    assert exact_advantage(*tiny.build()) == tiny.reference()


def test_the_exact_reference_is_27_64():
    assert [w.reference() for w in EXACT] == [Fraction(27, 64)]


def test_workloads_are_the_ones_the_spec_lists():
    assert [w["name"] for w in SPEC["workloads"]] == \
        [w.name for w in workloads.WORKLOADS]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_spec_ones(trace, capsys):
    code = run.main(["--workload", "mc-unsync-small", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", k) for k in result["metrics"])
    report = json.loads(lines[-2])["report"]
    assert re.fullmatch(r"[0-9a-f]{64}", report["fingerprint"])
