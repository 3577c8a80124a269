import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acnbounds import cli, game, protocols
from acnbounds.adversaries import (attack_view, counting_attack, decide,
                                   random_guess_attack, timing_attack,
                                   tracing_attack)
from acnbounds.core import (Communication, ProtocolParams,
                            ResourceLimitError, filter_trace, make_batch)
from acnbounds.game import (AdvantageEstimate, estimate_advantage,
                            exact_advantage, record_json, result_record,
                            wilson_interval)
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import ProtocolKind, arm, build_trace, sample_outcome
from test_exact_route import pinned_cases

SO = parse_notion("SO")


def _setup(n=2, l_max=2, beta=0.5):
    params = ProtocolParams(n=n, l_max=l_max, beta=beta)
    kind = ProtocolKind("trilemma-unsync", params)
    b0 = make_batch([Communication(0, n - 1, 0)])
    b1 = make_batch([Communication(1, n - 1, 0)])
    return kind, ScenarioPair(b0, b1, SO)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo + hi == pytest.approx(1.0)
    assert wilson_interval(0, 0) == (0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4000), frac=st.floats(0.0, 1.0))
def test_wilson_contains_the_point(n, frac):
    k = min(n, round(frac * n))
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_estimate_depends_on_the_seed():
    kind, pair = _setup()
    attack = timing_attack(2)
    a = estimate_advantage(kind, attack, pair, 500, master_seed=1)
    b = estimate_advantage(kind, attack, pair, 500, master_seed=2)
    assert a.arms != b.arms


def test_a_seed_and_its_negation_draw_different_trials(monkeypatch):
    # `random.Random` seeded with an int drops its sign; the solve's rng
    # must tell 5 from -5 in the fields it draws (here the delays)
    kind, pair = _setup(l_max=5)
    attack = timing_attack(2)
    sample = game.sample_outcome
    delays = []

    def recorded(*args):
        outcome = sample(*args)
        delays.append(outcome[0])
        return outcome

    monkeypatch.setattr(game, "sample_outcome", recorded)
    records = []
    for seed in (5, -5):
        est = estimate_advantage(kind, attack, pair, 200, master_seed=seed)
        records.append(record_json(result_record(kind, attack, pair, est,
                                                 seed)))
    assert records[0] != records[1]
    assert delays[:200] != delays[200:]


def test_too_few_trials_is_an_error():
    kind, pair = _setup()
    with pytest.raises(ValueError):
        estimate_advantage(kind, timing_attack(2), pair, 99, master_seed=0)


def test_estimate_interval_covers_the_exact_value():
    kind, pair = _setup(n=2, l_max=2, beta=0.25)
    attack = timing_attack(2)
    exact = float(exact_advantage(kind, attack, pair))
    est = estimate_advantage(kind, attack, pair, 20000, master_seed=3)
    assert est.ci_low <= exact <= est.ci_high
    assert est.point == pytest.approx(exact, abs=0.02)


def test_exact_advantage_for_pure_noise_is_the_miss_probability():
    # the watched window has one slot, covered with probability p
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        kind, pair = _setup(n=2, l_max=2, beta=p)
        got = exact_advantage(kind, timing_attack(2), pair)
        assert got == 1 - Fraction(p)


def test_exact_advantage_of_a_random_guess_is_zero():
    kind, pair = _setup()
    assert exact_advantage(kind, random_guess_attack(), pair) == 0


def test_result_record_shape():
    kind, pair = _setup()
    attack = timing_attack(2)
    est = AdvantageEstimate(point=0.5, ci_low=0.4, ci_high=0.6, trials=1000,
                            arms=((500, 100), (500, 350)))
    rec = result_record(kind, attack, pair, est, master_seed=9)
    assert rec["protocol"] == "trilemma-unsync"
    assert rec["attack"] == "timing-interval"
    assert rec["notion"] == "SO"
    assert rec["seed"] == 9
    assert rec["ci"] == [0.4, 0.6]
    assert "l_exp" in rec["params"] and rec["params"]["n"] == 2
    text = record_json(rec)
    assert json.loads(text) == rec
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_an_exact_solve_past_the_limit_fails_before_the_first_leaf(
        monkeypatch):
    # counting watches users 0 and 1 over the 2*l_max - 1 = 9 rounds: arm
    # 0 has 4 delays x 2**17 cover patterns = 524,288 leaves, under
    # ENUM_LIMIT, and arm 1 4**3 x 2**16 = 4,194,304, past it: both arms
    # are counted before either is walked
    def no_leaf(*args):
        raise AssertionError("a leaf was built")
    monkeypatch.setattr(game, "build_trace", no_leaf)
    kind = ProtocolKind("trilemma-unsync", ProtocolParams(
        n=3, l_max=5, beta=0.5))
    pair = ScenarioPair(make_batch([Communication(0, 2, 0)]),
                        make_batch([Communication(0, 2, 0),
                                    Communication(1, 2, 1),
                                    Communication(1, 2, 2)]),
                        parse_notion("CO"))
    attack = counting_attack(3)
    assert len(protocols.enumerate_outcomes(
        kind, pair, 0, attack_view(attack, pair))) == 524_288
    with pytest.raises(ResourceLimitError):
        exact_advantage(kind, attack, pair)


# ------------------------------------------------------ the verdict memo

PINNED_CASES = pinned_cases()


def _per_trial_arms(kind, attack, pair, trials, master_seed):
    """The trial loop without a memo: all five layers run on every trial."""
    view = attack_view(attack, pair)
    cap = attack.capability
    rng = random.Random(str(master_seed))
    arms = [[0, 0], [0, 0]]
    for i in range(trials):
        h = hashlib.sha256(f"{master_seed}:{i}".encode()).digest()
        b = h[0] & 1
        side = arm(kind, pair, b, view)
        outcome = sample_outcome(side, rng, h[10:])
        trace = filter_trace(build_trace(side, outcome, cap), cap)
        verdict = decide(attack, trace, pair, kind.params)
        arms[b][0] += 1
        arms[b][1] += h[9] & 1 if verdict is None else verdict
    return tuple(map(tuple, arms))


@pytest.mark.parametrize("key", sorted(PINNED_CASES), ids="-".join)
def test_memoized_arms_equal_a_per_trial_loop(key):
    kind, attack, pair = PINNED_CASES[key]
    for seed in (0, 7):
        est = estimate_advantage(kind, attack, pair, 400, seed)
        assert est.arms == _per_trial_arms(kind, attack, pair, 400, seed)


def _workload_shape(name):
    """The kind, attack and pair of a benchmark workload's solve."""
    if name == "onion":
        params = ProtocolParams(n=20, l_max=3, beta=0.25, relays=6)
        return (ProtocolKind("onion-path", params), tracing_attack(20, 3),
                _setup(n=20)[1])
    n, l_max = {"small": (10, 3), "wide": (100, 5)}[name]
    kind, pair = _setup(n=n, l_max=l_max, beta=0.25)
    return kind, timing_attack(n), pair


def _count_layers(monkeypatch):
    """Record each trial's (arm, outcome) and count the verdicts made."""
    drawn, decided = [], []
    sample, judge = game.sample_outcome, game.decide

    def recorded(*args):
        outcome = sample(*args)
        drawn.append((args[0], outcome))
        return outcome

    def counted(*args):
        decided.append(1)
        return judge(*args)

    monkeypatch.setattr(game, "sample_outcome", recorded)
    monkeypatch.setattr(game, "decide", counted)
    return drawn, decided


@pytest.mark.parametrize("name", ["small", "onion", "wide"])
def test_the_tail_runs_once_per_distinct_arm_and_outcome(monkeypatch, name):
    kind, attack, pair = _workload_shape(name)
    drawn, decided = _count_layers(monkeypatch)
    estimate_advantage(kind, attack, pair, 1000, master_seed=5)
    assert len(drawn) == 1000
    assert len(decided) == len(set(drawn)) < 1000


def test_a_full_memo_answers_but_takes_no_more_entries(monkeypatch):
    kind, attack, pair = _workload_shape("small")
    want = _per_trial_arms(kind, attack, pair, 2000, 11)
    monkeypatch.setattr(game, "MEMO_CAP", 3)
    drawn, decided = _count_layers(monkeypatch)
    assert estimate_advantage(kind, attack, pair, 2000, 11).arms == want
    # memos holding each arm's first three outcomes: every other trial
    # runs the tail
    kept = {}
    for side, outcome in drawn:
        memo = kept.setdefault(side, {})
        if len(memo) < 3:
            memo.setdefault(outcome)
    misses = sum(outcome not in kept[side] for side, outcome in drawn)
    assert len(decided) == misses + sum(map(len, kept.values()))
    assert len(kept) == 2
    assert all(len(memo) == 3 for memo in kept.values())


def test_a_full_window_memo_answers_but_takes_no_more_entries(monkeypatch):
    # a challenge row and three context rows, each delayed 1-4 rounds:
    # 256 delays values per arm, far past a cap of 3
    extra = [Communication(5, 0, 1), Communication(4, 2, 2),
             Communication(3, 1, 3)]
    pair = ScenarioPair(make_batch([Communication(0, 5, 0)] + extra),
                        make_batch([Communication(1, 5, 0)] + extra), SO)
    kind = ProtocolKind("trilemma-unsync",
                        ProtocolParams(n=6, l_max=5, beta=0.25))
    attack = timing_attack(6)
    made = []
    resolve = game.arm

    def recorded(*args):
        made.append(resolve(*args))
        return made[-1]

    monkeypatch.setattr(game, "arm", recorded)
    want = estimate_advantage(kind, attack, pair, 3000, 4)
    assert all(len(side.window._memo) > 100 for side in made)
    made.clear()
    monkeypatch.setattr(protocols, "WINDOW_CAP", 3)
    drawn, _ = _count_layers(monkeypatch)
    assert estimate_advantage(kind, attack, pair, 3000, 4) == want
    assert len(made) == 2
    assert all(len(side.window._memo) == 3 for side in made)
    for side in made:
        assert len({o[0] for s, o in drawn if s is side}) > 100


@pytest.mark.parametrize("seed", [0, -5, 10 ** 12])
def test_each_trial_hashes_its_seed_and_index(seed):
    # the per-solve prefix hashes the bytes of f"{seed}:{i}", across the
    # index's change of width too
    hashes = list(game._trial_hashes(seed, 100_000))
    assert len(hashes) == 100_000
    for i in (0, 9, 10, 99_999):
        assert hashes[i] == hashlib.sha256(f"{seed}:{i}".encode()).digest()


# `simulate` at the mc-unsync-wide shape, but l_max 10: the timing window
# of each outcome's own delay leaves ~19,800 distinct outcomes per arm
# there, past MEMO_CAP, ~5,350 at l_max 7 and ~500 at l_max 5.  The
# l_max 10 digest is the record printed before the window was placed per
# delay, the l_max 7 one before that also before the timing window, and
# the l_max 5 one also before the loop kept a memo (each less the keys
# that `params` has lost since: `threshold` with the threshold mix,
# `p_real` with the second cover rate)
WIDE_ARGV = ("simulate --protocol trilemma-unsync --attack timing-interval "
             "--n 100 --lmax 10 --p 0.25 --trials 50000 --seed 0")
WIDE_SHA256 = ("2a93832315f6b03228faaf1b1e8c26ea"
               "2befec5a9882781d185fc24f62eb67ec")
UNDER_CAP_SHA256 = {
    "--lmax 7": ("ae43f381e9277cdd3fe923e720744d30"
                 "46acc7b3dc420b57141034b2937154c3"),
    "--lmax 5": ("a27570b8834567446f6b6bcfdc4df645"
                 "c93028f793c9d8bbf6bac791b8211d9b"),
}


def test_a_record_under_the_memo_cap_is_pinned(capsys):
    for lmax, digest in UNDER_CAP_SHA256.items():
        assert cli.main(WIDE_ARGV.replace("--lmax 10", lmax).split()) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, lmax


def test_a_record_past_the_memo_cap_is_pinned(monkeypatch, capsys):
    drawn, _ = _count_layers(monkeypatch)
    assert cli.main(WIDE_ARGV.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SHA256
    outcomes = {}
    for side, outcome in drawn:
        outcomes.setdefault(side, set()).add(outcome)
    assert len(outcomes) == 2
    assert all(len(seen) > game.MEMO_CAP for seen in outcomes.values())
