"""End-to-end acceptance gate.

Thirteen checks, one test each, covering the full surface: exact unit
latency leakage, full-cover blackout, the counting floor met by built
traffic, the improved-vs-original dominance, compromised-relay
consistency, simulation against the closed forms, equal-volume and
exclusion counting, active dropping, threshold ordering, the preset
table, the notion hierarchy, the two advantage definitions, and CLI
determinism.

The counting floor (c03) is held against the traffic the onion model
builds: at each point of a 20x20 grid of delivered rows and path stages,
one seeded full trace per arm at zero cover must hold exactly
`counting_bound(out_r, hops)["min_messages"]` sends and relay forwards.

The two advantage definitions (c12) are checked on the leaves of every
pinned case of `test_exact_route`: each arm's leaf probabilities must sum
to exactly 1, and the counting form, Pr[guess 1 | b=1] - Pr[guess 1 | b=0]
with each tie counted as 1/2, must equal `exact_advantage`'s
2*Pr[correct] - 1, both as Fractions.

Run with -v to get one pass/fail line per criterion.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from acnbounds.adversaries import (attack_view, counting_attack, decide,
                                   dropping_attack, timing_attack)
from acnbounds.atlas import PRESETS, classify
from acnbounds.bounds import (counting_bound, counting_min_beta,
                              dropping_min_p, trilemma_min_beta,
                              trilemma_sync, trilemma_unsync,
                              trilemma_unsync_original)
from acnbounds.core import (FORWARD, SEND, Communication, ProtocolParams,
                            filter_trace, make_batch)
from acnbounds.game import estimate_advantage, exact_advantage
from acnbounds.notions import (ScenarioPair, hierarchy_subset_check,
                               parse_notion)
from acnbounds.protocols import (ProtocolKind, arm, build_trace,
                                 enumerate_outcomes, sample_outcome)
from test_exact_route import pinned_cases

SO = parse_notion("SO")
_SRC = Path(__file__).resolve().parents[1] / "src"


def _so_pair(n):
    b0 = make_batch([Communication(0, n - 1, 0)])
    b1 = make_batch([Communication(1, n - 1, 0)])
    return ScenarioPair(b0, b1, SO)


_LIVE_CAP = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # lets _report write past the capture plumbing, so the per-criterion
    # line is visible in the run log and not only on failure
    global _LIVE_CAP
    _LIVE_CAP = capsys
    yield
    _LIVE_CAP = None


def _report(num, text, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    if _LIVE_CAP is not None:
        with _LIVE_CAP.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, f"criterion {num:02d} failed: {text}"


def test_c01_unit_latency_leaks_everything():
    params = ProtocolParams(n=2, l_max=1, beta=1.0)
    kind = ProtocolKind("trilemma-unsync", params)
    adv = exact_advantage(kind, timing_attack(2), _so_pair(2))
    ok = (adv == 1
          and trilemma_sync(1, 0.5, 10) == 1.0
          and trilemma_unsync_original(1, 1.0) == 0.5
          and trilemma_unsync(1, 1.0) == 1.0)
    _report(1, "unit latency identifies the sender despite full cover", ok)


def test_c02_full_synchronized_cover_blacks_out_the_adversary():
    ok = True
    for n in (2, 10, 100):
        beta = (n - 1) / n
        params = ProtocolParams(n=n, l_max=2, beta=beta)
        kind = ProtocolKind("trilemma-sync", params)
        adv = exact_advantage(kind, timing_attack(n), _so_pair(n))
        ok = ok and adv == 0
        ok = ok and trilemma_sync(2, beta, n) == 0.0
    _report(2, "cover from every other user forces advantage zero", ok)


def _onion_volumes(out_r, hops):
    """The sends plus relay forwards of one seeded full onion trace per arm
    of an out_r-row SO pair at n=2, with zero cover and every path
    `hops` stages long (l_exp - 1 = hops - 1 relays)."""
    kind = ProtocolKind("onion-path", ProtocolParams(
        n=2, l_max=hops, l_exp=hops, relays=max(1, hops - 1)))
    rest = [Communication(0, 1, j) for j in range(1, out_r)]
    pair = ScenarioPair(make_batch([Communication(0, 1, 0)] + rest),
                        make_batch([Communication(1, 1, 0)] + rest), SO)
    volumes = []
    for b in (0, 1):
        side = arm(kind, pair, b)
        outcome = sample_outcome(side, random.Random(b), b"c03")
        events = build_trace(side, outcome).events
        volumes.append(sum(e.kind in (SEND, FORWARD) for e in events))
    return volumes


def test_c03_counting_bound_meets_its_matching_protocol():
    # the volume any protocol must move against what the onion model
    # builds: without cover, each of the out_r rows is one send and
    # hops - 1 forwards, so the model meets the floor exactly
    t0 = time.perf_counter()
    ok = all(_onion_volumes(out_r, hops)
             == [counting_bound(out_r, hops)["min_messages"]] * 2
             for out_r in range(1, 21) for hops in range(1, 21))
    elapsed = time.perf_counter() - t0
    _report(3, "necessary volume equals the sends and forwards of built "
            f"onion traces on a 20x20 grid in {elapsed:.3f}s",
            ok and elapsed < 1.0)


def test_c04_improved_bound_dominates_the_original():
    ok = True
    for i in range(50):
        p = i / 49
        for l_max in range(1, 51):
            orig = trilemma_unsync_original(l_max, p)
            imp = trilemma_unsync(l_max, p)
            ok = ok and imp >= orig
    strict = trilemma_unsync(3, 0.3) > trilemma_unsync_original(3, 0.3)
    _report(4, "improved form dominates on a 50x50 grid, strictly at "
            "p=0.3, l_max=3", ok and strict)


def test_c05_zero_compromise_reduces_to_the_base_bound():
    # the base floors written out: (1-p)^(l_max-1) under unsynchronized
    # cover, 1 - covered_fraction(l_max-1, n, beta) clamped under
    # synchronized cover
    ok = True
    ps = [i / 10 for i in range(11)]
    n = 10
    for relays in range(1, 11):
        for l_max in range(1, 9):
            for p in ps:
                ok = ok and (trilemma_unsync(l_max, p, c_p=0, relays=relays)
                             == (1.0 - p) ** (l_max - 1))
            for beta in ps:
                base = 1.0 - min(1.0, (l_max - 1) * (1.0 + beta * n)
                                 / (n - 1))
                ok = ok and (trilemma_sync(l_max, beta, n, c_p=0,
                                           relays=relays)
                             == min(1.0, max(0.0, base)))
    _report(5, "c_p=0 compromising form is bit-identical to the base", ok)


def test_c06_simulation_reaches_the_unsync_closed_form():
    t0 = time.perf_counter()
    params = ProtocolParams(n=10, l_max=3, beta=0.3)
    kind = ProtocolKind("trilemma-unsync", params)
    est = estimate_advantage(kind, timing_attack(10), _so_pair(10),
                             trials=100_000, master_seed=0)
    expected = trilemma_unsync(3, 0.3)
    ok = abs(est.point - expected) <= 0.02
    # the exact twin of the seeded check, at its point
    ok = ok and exact_advantage(kind, timing_attack(10),
                                _so_pair(10)) == Fraction(49, 100)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        k2 = ProtocolKind("trilemma-unsync",
                          ProtocolParams(n=2, l_max=2, beta=p))
        ok = ok and exact_advantage(k2, timing_attack(2),
                                    _so_pair(2)) == 1 - Fraction(p)
    elapsed = time.perf_counter() - t0
    _report(6, f"simulated advantage {est.point:.4f} matches formula "
            f"{expected:.4f} within 0.02 in {elapsed:.1f}s",
            ok and elapsed < 60.0)


def test_c07_equal_volumes_hide_and_unequal_volumes_convict():
    params = ProtocolParams(n=3, l_max=2)
    kind = ProtocolKind("broadcast-full-dummy", params)
    est = estimate_advantage(kind, counting_attack(3), _so_pair(3),
                             trials=100_000, master_seed=1)
    hides = est.ci_low <= 0.0 <= est.ci_high
    # the exact twin of the seeded check, at its point
    hides = hides and exact_advantage(kind, counting_attack(3),
                                      _so_pair(3)) == 0
    rows0 = [Communication(0, 3, 0), Communication(0, 3, 1)]
    rows1 = [Communication(0, 3, 0), Communication(1, 3, 1)]
    pair = ScenarioPair(make_batch(rows0), make_batch(rows1), SO)
    k2 = ProtocolKind("trilemma-unsync", ProtocolParams(n=4, l_max=2))
    convicts = exact_advantage(k2, counting_attack(4), pair) == 1
    _report(7, "counting abstains on equal volumes, excludes on unequal",
            hides and convicts)


def test_c08_active_dropping_matches_its_combinatorics():
    single = ProtocolKind("dropping-model",
                          ProtocolParams(n=3, l_max=1, relays=4, copies=1))
    pair = _so_pair(3)
    link = exact_advantage(single, dropping_attack(3, c_a=0), pair) == 1
    ok = link
    params = ProtocolParams(n=3, l_max=1, relays=4, copies=2)
    kind = ProtocolKind("dropping-model", params)
    for c_a, want in ((1, 0.0), (2, 1 / 6)):
        attack = dropping_attack(3, c_a=c_a)
        exact = float(exact_advantage(kind, attack, pair))
        est = estimate_advantage(kind, attack, pair, trials=100_000,
                                 master_seed=2)
        ok = ok and exact == pytest.approx(want)
        ok = ok and est.ci_low <= exact <= est.ci_high
    _report(8, "drop success rate: certain on the link, combinatorial "
            "through relays", ok)


def test_c09_thresholds_order_consistently():
    ok = True
    for l_max in range(2, 11):
        c = counting_min_beta(1000.0)
        t = trilemma_min_beta(l_max, 1000.0)
        d = dropping_min_p(l_max, 256.0, 1000.0)
        ok = ok and c >= t >= d > 0
    _report(9, "volume threshold >= latency threshold >= drop threshold", ok)


def test_c10_preset_table_matches_the_expected_verdicts():
    want = {"tor": "falls-short", "hornet": "falls-short",
            "threshold-mix": "falls-short", "herd": "falls-short",
            "dcnet": "meets", "dissent": "meets", "dicemix": "meets",
            "loopix": "falls-short", "vuvuzela": "falls-short",
            "riffle": "falls-short", "riposte": "falls-short"}
    rows = {p.name: classify(p)["counting"] for p in PRESETS.values()}
    _report(10, "cover-vs-volume verdicts for the eleven presets", rows == want)


def test_c11_notion_hierarchy_orders_by_challenge_freedom():
    t0 = time.perf_counter()
    chain = [("(SM)L", "SML"), ("SML", "SO"), ("SO", "CO"),
             ("(SR)L", "CO"), ("MO[ML]", "CO")]
    ok = all(hierarchy_subset_check(parse_notion(a), parse_notion(b), 2, 2, 2)
             for a, b in chain)
    for base in ("SO", "RO", "CO", "SML", "(SM)L", "MO[ML]"):
        ok = ok and hierarchy_subset_check(parse_notion(f"{base}_1"),
                                           parse_notion(base), 2, 2, 2)
    for base in ("SO", "CO", "(SM)L"):
        ce = parse_notion(f"{base}_ce", corrupted={0})
        ok = ok and hierarchy_subset_check(ce, parse_notion(base), 2, 2, 2)
    elapsed = time.perf_counter() - t0
    _report(11, f"hierarchy containments verified by enumeration in "
            f"{elapsed:.1f}s", ok and elapsed < 30.0)


def test_c12_both_advantage_definitions_agree():
    # the counting form from each arm's own leaves, against exact_advantage's
    # 2*Pr[correct] - 1: a dropped or double-counted leaf breaks the sum,
    # and a drift in how either side tallies a tie breaks the difference
    t0 = time.perf_counter()
    ok = True
    for kind, attack, pair in pinned_cases().values():
        view = attack_view(attack, pair)
        cap = attack.capability
        guess1 = []
        for b in (0, 1):
            leaves = enumerate_outcomes(kind, pair, b, view)
            total = said1 = Fraction(0)
            for prob, outcome in leaves:
                total += prob
                trace = filter_trace(build_trace(leaves.arm, outcome, cap),
                                     cap)
                verdict = decide(attack, trace, pair, kind.params)
                said1 += prob * (Fraction(1, 2) if verdict is None
                                 else verdict)
            ok = ok and total == 1
            guess1.append(said1)
        ok = ok and guess1[1] - guess1[0] == exact_advantage(kind, attack,
                                                             pair)
    elapsed = time.perf_counter() - t0
    _report(12, f"guess-rate difference over each pinned case's leaves "
            f"equals the exact correctness form, in {elapsed:.1f}s",
            ok and elapsed < 5.0)


def _cli_in_fresh_interpreter(argv, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(_SRC), PYTHONHASHSEED=hash_seed)
    run = subprocess.run([sys.executable, "-m", "acnbounds.cli", *argv],
                         capture_output=True, env=env, check=False)
    return run.returncode, run.stdout


def test_c13_cli_output_is_set_by_the_seed_alone():
    # fresh interpreters with different str hash salts: anything that leaked
    # set or dict iteration order into a draw or a record would show here
    point = ["--protocol", "trilemma-unsync", "--attack", "timing-interval",
             "--n", "4", "--lmax", "2", "--p", "0.4", "--trials", "5000"]
    sim = ["simulate", *point, "--seed", "7"]
    ver = ["verify", *point, "--seed", "7"]
    outs = {(argv[0], salt): _cli_in_fresh_interpreter(argv, salt)
            for argv in (sim, ver) for salt in ("0", "12345")}
    other = _cli_in_fresh_interpreter(["simulate", *point, "--seed", "8"],
                                      "0")
    ok = (outs["simulate", "0"] == outs["simulate", "12345"]
          and outs["verify", "0"] == outs["verify", "12345"]
          and outs["simulate", "0"][0] == 0 and outs["verify", "0"][0] == 0
          and json.loads(outs["verify", "0"][1])["verdict"] == "pass"
          and other[0] == 0 and other[1] != outs["simulate", "0"][1])
    _report(13, "identical records and verdicts across hash seeds, and a "
            "different record for another seed", ok)
