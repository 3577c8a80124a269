"""Distinguishing game: measure an attack's advantage against a protocol.

Two routes to the same number:

* `estimate_advantage` plays the game trials times with a secret bit,
  counts how often the adversary says 1 under each scenario, and reports
  adv = Pr[guess 1 | b=1] - Pr[guess 1 | b=0] with a Wilson score interval
  per arm.
* `exact_advantage` enumerates every protocol outcome with exact
  probabilities and returns the advantage as a Fraction, counting ties as
  one half.  It tallies the probability of the leaves the attack wins and
  of those it ties, as int numerators per denominator, and returns
  wins + ties/2 - 1, which equals 2*Pr[correct] - 1.

Both routes ask `adversaries.attack_view` once per solve for the events
the attack reads; every attack that `validate_attack` accepts has one.
Then they resolve the pair's two arms under that view once, before the
first trial (`exact_advantage` through `enumerate_outcomes`, whose
leaves carry their arm and are held to `ENUM_LIMIT` before either arm
is walked).  Each arm carries its schedule, the window its view keeps
cover in (timing and tracing: the rounds the transit windows of each
outcome's own arrivals can reach, memoized per delays with the cover's
draw plan), its fields of draws compiled into one draw, and the view to
`sample_outcome` (or the leaves), which draw or list only the randomness
the view shows, and to `build_trace`, which emits only its events,
already as the capability sees them; then `filter_trace` (which finds
nothing to remove or mask, and hands the trace back) and `decide` run as
usual.  The verdict is the one the full filtered trace would give, and
the exact route sums the same probabilities.

Within one Monte Carlo solve, the tail `build_trace` -> `filter_trace` ->
`decide` is a pure function of the arm b and the projected outcome: the
arms, capability, attack and params are fixed for the solve,
and none of the three reads the rng or the trial's hash.  So
`estimate_advantage` keeps a memo per arm, outcome -> verdict (None for a
tie), and runs the tail only for an outcome its arm has not played yet;
the arm is part of the key because one outcome builds a different trace
under the other arm's batch.  The memo is exact: every trial still draws
its outcome in trial order and reads its own tie-break bit, so counts and
records are those of a loop without it.  A solve's trial count has no
upper limit, so an arm's memo stops taking entries at `MEMO_CAP` and only
answers lookups after that.  `exact_advantage` walks each outcome once
and keeps no memo; `enumerate_outcomes` streams the leaves, so a solve
holds each field's option table but never the whole leaf list.

Determinism contract: a solve builds one `random.Random(str(master_seed))`
(a str seed keeps the sign, which an int seed drops) and draws every
trial's non-cover fields from it, in trial order.  Trial i's hash
h = sha256(f"{master_seed}:{i}") gives the challenge bit (h[0] & 1), the
tie-break bit (h[9] & 1) and the key of the trial's per-user cover
streams (h[10:]).  The solve hashes the prefix f"{master_seed}:" once,
and each trial copies that state and hashes its own i, so h is the
digest of the same bytes (`_trial_hashes`).  The trials run in one
serial loop, so results are set by the master seed and nothing else.
Solves at one seed share their trials' randomness: attacks on one
protocol play the same outcomes, and a user's cover coins do not depend
on n, so points meant as independent checks need seeds of their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .adversaries import attack_view, decide, validate_attack
from .core import filter_trace
from .protocols import arm, build_trace, enumerate_outcomes, sample_outcome

# two-sided 95%
_Z = 1.959963984540054

# entries per arm in a Monte Carlo solve's verdict memo (about 120 bytes
# each), so that no trial count grows a solve's memory past it
MEMO_CAP = 1 << 14
_MISS = object()


def wilson_interval(k: int, n: int):
    if n == 0:
        return 0.0, 1.0
    z2 = _Z * _Z
    phat = k / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _Z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    # rounding can push the bound a hair past phat at the extremes
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class AdvantageEstimate:
    point: float
    ci_low: float
    ci_high: float
    trials: int
    arms: tuple      # ((n0, guessed1_0), (n1, guessed1_1))


def _trial_hashes(master_seed: int, trials: int):
    """Each trial's hash, sha256(f"{master_seed}:{i}") for i in
    range(trials): one per-solve prefix hashes f"{master_seed}:", and each
    trial copies it and hashes its own index, so the bytes hashed are the
    same."""
    prefix = hashlib.sha256(f"{master_seed}:".encode())
    for i in range(trials):
        h = prefix.copy()
        h.update(b"%d" % i)
        yield h.digest()


def estimate_advantage(kind, attack, pair, trials: int,
                       master_seed: int) -> AdvantageEstimate:
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful interval")
    validate_attack(attack, pair, kind.params)
    view = attack_view(attack, pair)
    # resolved once, before the first trial
    arms = (arm(kind, pair, 0, view), arm(kind, pair, 1, view))
    cap = attack.capability
    params = kind.params
    n0 = k0 = n1 = k1 = 0
    # one rng per solve, read in trial order; the cover's streams are
    # keyed per trial
    rng = random.Random(str(master_seed))
    # per arm, projected outcome -> verdict (None for a tie); the tail is
    # pure given the two, so a repeated outcome skips it, and a memo full
    # at MEMO_CAP only answers, so no trial count grows it further
    memos = ({}, {})
    for h in _trial_hashes(master_seed, trials):
        b = h[0] & 1
        outcome = sample_outcome(arms[b], rng, h[10:])
        memo = memos[b]
        verdict = memo.get(outcome, _MISS)
        if verdict is _MISS:
            # the layers are called by their module-global names, with
            # positional arguments, so perfbench's tracer can wrap them
            trace = filter_trace(build_trace(arms[b], outcome, cap), cap)
            verdict = decide(attack, trace, pair, params)
            if len(memo) < MEMO_CAP:
                memo[outcome] = verdict
        if verdict is None:
            verdict = h[9] & 1
        if b:
            n1 += 1
            k1 += verdict
        else:
            n0 += 1
            k0 += verdict
    if n0 == 0 or n1 == 0:
        raise ValueError("degenerate challenge-bit split, use more trials")
    lo0, hi0 = wilson_interval(k0, n0)
    lo1, hi1 = wilson_interval(k1, n1)
    point = k1 / n1 - k0 / n0
    return AdvantageEstimate(
        point=point,
        ci_low=max(-1.0, lo1 - hi0),
        ci_high=min(1.0, hi1 - lo0),
        trials=trials,
        arms=((n0, k0), (n1, k1)))


def exact_advantage(kind, attack, pair) -> Fraction:
    """Advantage of the attack under full enumeration, as an exact Fraction.

    Ties contribute a fair coin, so the result is 2*Pr[correct] - 1 for the
    canonical tie-breaking adversary.  With a uniform challenge bit that is
    wins + ties/2 - 1, where wins (ties) sums the probability of every leaf
    of both arms that the attack gets right (leaves open): each leaf adds
    its numerator to an int tally per denominator, and only the few
    distinct denominators become Fractions at the end.
    """
    validate_attack(attack, pair, kind.params)
    view = attack_view(attack, pair)
    # both arms resolved and held to ENUM_LIMIT before the first leaf
    arms = (enumerate_outcomes(kind, pair, 0, view),
            enumerate_outcomes(kind, pair, 1, view))
    cap = attack.capability
    params = kind.params
    wins, ties = {}, {}
    for b, leaves in enumerate(arms):
        for prob, outcome in leaves:
            trace = filter_trace(build_trace(leaves.arm, outcome, cap), cap)
            verdict = decide(attack, trace, pair, params)
            if verdict is None:
                tally = ties
            elif verdict == b:
                tally = wins
            else:
                continue
            den = prob.denominator
            tally[den] = tally.get(den, 0) + prob.numerator
    won, tied = (sum((Fraction(num, den) for den, num in tally.items()),
                     Fraction(0)) for tally in (wins, ties))
    return won + tied / 2 - 1


def result_record(kind, attack, pair, estimate: AdvantageEstimate,
                  master_seed: int) -> dict:
    params = {k: v for k, v in asdict(kind.params).items() if v is not None}
    return {
        "protocol": kind.variant,
        "attack": attack.variant,
        "notion": pair.notion.name(),
        "params": params,
        "trials": estimate.trials,
        "seed": master_seed,
        "point": estimate.point,
        "ci": [estimate.ci_low, estimate.ci_high],
        "definition": "counting-form",
    }


def record_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True)
