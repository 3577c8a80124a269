"""The exact route against pinned values, closed forms and Monte Carlo.

`PINNED` holds `exact_advantage` for every (variant, stock attack) pair
that `validate_attack` accepts, at one tiny point per variant, as the
code produced it when the values were pinned.
A change to how enumeration or the game tallies its leaves must leave
every value equal.

Every row of `verify`'s reference table is held to the exact route over
tiny points: a `floor` may not exceed the exact advantage, and an `exact`
value must equal it.

The cross-route property draws tiny random parameters for each accepted
(protocol, attack) pair and requires the exact advantage to lie inside
the Monte Carlo interval, widened by `verify`'s default tolerance.  Two
more draws take the unsync model up to n=6 and l_max=3, and onion routing
up to n=4, l_max=3 and four relays (paths of two relays), where only the
projected enumeration (the cover slots the attack's view holds, an onion
cover's without their paths) is small enough to list.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from acnbounds import cli
from acnbounds.adversaries import (COUNTING, DROP_ATTACK, TIMING,
                                   attack_view, counting_attack,
                                   dropping_attack, random_guess_attack,
                                   timing_attack, tracing_attack,
                                   validate_attack)
from acnbounds.core import (NO_COMM, CapabilityError, Communication,
                            ProtocolParams, make_batch)
from acnbounds.game import estimate_advantage, exact_advantage
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import (BROADCAST, DROPPING, ONION_PATH,
                                 TRILEMMA_SYNC, TRILEMMA_UNSYNC, VARIANTS,
                                 ProtocolKind)

SO = parse_notion("SO")
# the default tolerance of `acnbounds verify`
TOL = 0.02

# one tiny point and pair shape (see SHAPES) per variant: n=2 keeps the
# cover-traffic models small, n=3 gives the synchronized model a cohort to
# choose, and onion routing is pinned on the one-row pair
BASE = ProtocolParams(n=2, l_max=2, beta=0.25, relays=2)
POINTS = {v: (BASE, "skip") for v in VARIANTS}
POINTS[TRILEMMA_SYNC] = (dataclasses.replace(BASE, n=3, beta=0.5), "skip")
POINTS[ONION_PATH] = (BASE, "one")
POINTS["dropping-model-integrated"] = (
    dataclasses.replace(BASE, integrated=True), "skip")


def _variant(name):
    return DROPPING if name == "dropping-model-integrated" else name


def _stock_attacks(n):
    return {
        "counting": counting_attack(n),
        "timing": timing_attack(n),
        "tracing-1": tracing_attack(n, 1),
        "tracing-2": tracing_attack(n, 2),
        "dropping-link": dropping_attack(n),
        "dropping-relay": dropping_attack(n, 1),
        "random": random_guess_attack(),
    }


# rows after the challenge row, the same in both scenarios
SHAPES = {"one": (), "skip": (NO_COMM,), "two": ("context",)}


def _pair(n, shape="one"):
    last = n - 1
    extra = [Communication(last, 0, 1) if r == "context" else r
             for r in SHAPES[shape]]
    b0 = make_batch([Communication(0, last, 0)] + extra)
    b1 = make_batch([Communication(1, last, 0)] + extra)
    return ScenarioPair(b0, b1, SO)


def _accepted(attack, pair, params):
    try:
        validate_attack(attack, pair, params)
    except CapabilityError:
        return False
    return True


def pinned_cases():
    """(name, attack name) -> (kind, attack, pair) over the matrix."""
    cases = {}
    for name, (params, shape) in POINTS.items():
        kind = ProtocolKind(_variant(name), params)
        pair = _pair(params.n, shape)
        for aname, attack in _stock_attacks(params.n).items():
            if _accepted(attack, pair, params):
                cases[name, aname] = kind, attack, pair
    return cases


def pinned_advantages():
    """Recompute every pinned value, in the layout of `PINNED`."""
    return {key: str(exact_advantage(*case))
            for key, case in pinned_cases().items()}


PINNED = {
    ('broadcast-full-dummy', 'counting'): '0',
    ('broadcast-full-dummy', 'dropping-link'): '0',
    ('broadcast-full-dummy', 'dropping-relay'): '0',
    ('broadcast-full-dummy', 'random'): '0',
    ('broadcast-full-dummy', 'timing'): '0',
    ('broadcast-full-dummy', 'tracing-1'): '0',
    ('broadcast-full-dummy', 'tracing-2'): '0',
    ('dcnet-round', 'counting'): '0',
    ('dcnet-round', 'dropping-link'): '0',
    ('dcnet-round', 'dropping-relay'): '0',
    ('dcnet-round', 'random'): '0',
    ('dcnet-round', 'timing'): '0',
    ('dcnet-round', 'tracing-1'): '0',
    ('dcnet-round', 'tracing-2'): '0',
    ('dropping-model', 'counting'): '1',
    ('dropping-model', 'dropping-link'): '1',
    ('dropping-model', 'dropping-relay'): '1/2',
    ('dropping-model', 'random'): '0',
    ('dropping-model', 'timing'): '0',
    ('dropping-model', 'tracing-1'): '1/2',
    ('dropping-model', 'tracing-2'): '1',
    ('dropping-model-integrated', 'counting'): '1',
    ('dropping-model-integrated', 'dropping-link'): '1/2',
    ('dropping-model-integrated', 'dropping-relay'): '1/2',
    ('dropping-model-integrated', 'random'): '0',
    ('dropping-model-integrated', 'timing'): '0',
    ('dropping-model-integrated', 'tracing-1'): '0',
    ('dropping-model-integrated', 'tracing-2'): '0',
    ('onion-path', 'counting'): '27/64',
    ('onion-path', 'dropping-link'): '0',
    ('onion-path', 'dropping-relay'): '0',
    ('onion-path', 'random'): '0',
    ('onion-path', 'timing'): '3/4',
    ('onion-path', 'tracing-1'): '7/8',
    ('onion-path', 'tracing-2'): '1',
    ('trilemma-sync', 'counting'): '1/2',
    ('trilemma-sync', 'dropping-link'): '0',
    ('trilemma-sync', 'dropping-relay'): '0',
    ('trilemma-sync', 'random'): '0',
    ('trilemma-sync', 'timing'): '1/2',
    ('trilemma-sync', 'tracing-1'): '1/2',
    ('trilemma-sync', 'tracing-2'): '1/2',
    ('trilemma-unsync', 'counting'): '27/64',
    ('trilemma-unsync', 'dropping-link'): '0',
    ('trilemma-unsync', 'dropping-relay'): '0',
    ('trilemma-unsync', 'random'): '0',
    ('trilemma-unsync', 'timing'): '3/4',
    ('trilemma-unsync', 'tracing-1'): '3/4',
    ('trilemma-unsync', 'tracing-2'): '3/4',
}


def test_every_accepted_pair_is_pinned():
    assert sorted(PINNED) == sorted(pinned_cases())


@pytest.mark.parametrize("name,attack", sorted(PINNED))
def test_exact_advantage_matches_the_pinned_value(name, attack):
    kind, att, pair = pinned_cases()[name, attack]
    got = exact_advantage(kind, att, pair)
    assert isinstance(got, Fraction)
    assert str(got) == PINNED[name, attack]


@pytest.mark.parametrize("n,l_max,p", [
    (4, 2, Fraction(1, 4)),
    (2, 3, Fraction(1, 2)),
    (3, 2, Fraction(3, 4)),
])
def test_unsync_timing_on_one_row_is_the_closed_form(n, l_max, p):
    # the other suspect has to stay silent for the l_max-1 window rounds
    kind = ProtocolKind(TRILEMMA_UNSYNC,
                        ProtocolParams(n=n, l_max=l_max, beta=float(p)))
    got = exact_advantage(kind, timing_attack(n), _pair(n))
    assert got == (1 - p) ** (l_max - 1)


@pytest.mark.parametrize("variant,n,l_max,relays,c_p,want", [
    # mc-unsync-wide: 2 x 32,768 leaves under the timing window
    (TRILEMMA_UNSYNC, 100, 5, 0, 0, Fraction(81, 256)),
    # mc-unsync-small
    (TRILEMMA_UNSYNC, 10, 3, 0, 0, Fraction(9, 16)),
    # mc-onion-trace: the chain is followed only when both relays of the
    # path are among the 3 compromised, 1/5 of paths; otherwise timing
    (ONION_PATH, 20, 3, 6, 3, Fraction(13, 20)),
])
def test_the_monte_carlo_benchmark_points_have_exact_twins(variant, n, l_max,
                                                           relays, c_p, want):
    kind = ProtocolKind(variant, ProtocolParams(n=n, l_max=l_max, beta=0.25,
                                                relays=relays))
    attack = tracing_attack(n, c_p) if relays else timing_attack(n)
    assert exact_advantage(kind, attack, _pair(n)) == want


@pytest.mark.parametrize("l_max", [2, 3])
def test_exact_cover_rate_is_the_typed_decimal(l_max):
    # as a binary float 0.3 is not 3/10
    kind = ProtocolKind(TRILEMMA_UNSYNC, ProtocolParams(
        n=2, l_max=l_max, beta=0.3))
    got = exact_advantage(kind, timing_attack(2), _pair(2))
    assert got == Fraction(7, 10) ** (l_max - 1)


# ------------------------------------------------------ reference table

_GRID_RATES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _timing_points(ns):
    return [(ProtocolParams(n=n, l_max=l_max, beta=beta), timing_attack(n))
            for n in ns for l_max in (1, 2, 3) for beta in _GRID_RATES]


# tiny (params, attack) points for each row of `verify`'s reference table
REFERENCE_POINTS = {
    (TRILEMMA_SYNC, TIMING): _timing_points((2, 3, 4)),
    (TRILEMMA_UNSYNC, TIMING): _timing_points((2, 3)),
    # broadcast delivers a round after the send, so l_max >= 2
    (BROADCAST, COUNTING): [
        (ProtocolParams(n=n, l_max=l_max), counting_attack(n))
        for n in (2, 3) for l_max in (2, 3)],
    (DROPPING, DROP_ATTACK): [
        (ProtocolParams(n=n, l_max=1, relays=n, copies=copies,
                        integrated=integrated), dropping_attack(n, c_a))
        for n in (2, 3, 4, 5) for copies in range(1, min(3, n) + 1)
        for integrated in (False, True) for c_a in range(n + 1)],
}


@pytest.mark.parametrize("key", sorted(cli._REFERENCES), ids="/".join)
def test_reference_values_hold_on_the_exact_route(key):
    # a row without tiny points fails here, so each new row is checked
    check, value = cli._REFERENCES[key][:2]
    for params, attack in REFERENCE_POINTS[key]:
        kind = ProtocolKind(key[0], params)
        exact = exact_advantage(kind, attack, _pair(params.n))
        ref = value(params, attack.capability)
        if check == "floor":
            assert ref <= exact, (params, attack)
        else:
            assert ref == pytest.approx(exact), (params, attack)


# ---------------------------------------------------------- cross-route

_ATTACKS = ("counting", "timing", "tracing", "dropping", "random")
_RATES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def _cross_params(variant, draw):
    """Tiny parameters the variant accepts, drawn from hypothesis."""
    n = draw(st.integers(2, 3))
    l_max = draw(st.integers(1, 3))
    kw = dict(n=n, l_max=l_max, beta=draw(_RATES))
    # leaf counts grow as (options per cover slot) ** (free slots): a
    # two-relay onion path already has ~39,000 leaves per arm at n=2
    if variant == ONION_PATH:
        n = kw["n"] = 2
        kw["l_max"] = l_max = draw(st.integers(1, 2))
        kw["relays"] = draw(st.integers(max(1, l_max - 1), 2))
    elif variant == DROPPING:
        kw["integrated"] = draw(st.booleans())
        kw["relays"] = draw(st.integers(1, 3))
        pool = n if kw["integrated"] else kw["relays"]
        kw["copies"] = draw(st.integers(1, min(2, pool)))
    elif variant == TRILEMMA_UNSYNC and n == 3:
        kw["l_max"] = min(l_max, 2)
    elif variant == BROADCAST:
        # it delivers a round after the send, so l_max >= 2
        kw["l_max"] = max(l_max, 2)
    return ProtocolParams(**kw)


def _cross_attack(name, n, draw, relays):
    if name == "counting":
        return counting_attack(n)
    if name == "timing":
        return timing_attack(n)
    if name == "tracing":
        return tracing_attack(n, draw(st.integers(0, max(1, relays))))
    if name == "dropping":
        return dropping_attack(n, draw(st.integers(0, 1)))
    return random_guess_attack()


@pytest.mark.parametrize("attack_name", _ATTACKS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=4, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exact_lies_inside_the_monte_carlo_interval(variant, attack_name,
                                                    data):
    draw = data.draw
    params = _cross_params(variant, draw)
    shape = draw(st.sampled_from(sorted(SHAPES)))
    pair = _pair(params.n, shape)
    # every draw is one `validate_attack` accepts, so no pair is skipped
    attack = _cross_attack(attack_name, params.n, draw, params.relays)
    kind = ProtocolKind(variant, params)
    exact = exact_advantage(kind, attack, pair)
    est = estimate_advantage(kind, attack, pair, 400,
                             master_seed=draw(st.integers(0, 2**16)))
    assert est.ci_low - TOL <= exact <= est.ci_high + TOL


@pytest.mark.parametrize("attack_name", _ATTACKS)
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_projected_exact_lies_inside_the_monte_carlo_interval(attack_name,
                                                              data):
    # past the unsync draws above, whose full leaf count reaches 2**30 per
    # arm at n=6, l_max=3; every stock attack has a view, so its
    # enumeration lists only the watched senders' cover slots
    draw = data.draw
    n = draw(st.integers(4, 6))
    l_max = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    if attack_name == "counting" and shape == "two":
        # the context row's sender is watched too, a third user's slots
        l_max = min(l_max, 2)
    params = ProtocolParams(n=n, l_max=l_max, beta=draw(_RATES))
    pair = _pair(n, shape)
    attack = _cross_attack(attack_name, n, draw, params.relays)
    assert attack_view(attack, pair) is not None
    kind = ProtocolKind(TRILEMMA_UNSYNC, params)
    exact = exact_advantage(kind, attack, pair)
    est = estimate_advantage(kind, attack, pair, 400,
                             master_seed=draw(st.integers(0, 2**16)))
    assert est.ci_low - TOL <= exact <= est.ci_high + TOL


@pytest.mark.parametrize("attack_name", _ATTACKS)
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_projected_onion_exact_lies_inside_the_monte_carlo_interval(
        attack_name, data):
    # past the onion draws above, which stop at one-relay paths: a two-relay
    # path has 12 options at four relays, and a full cover slot 13; every
    # stock attack has a view, so a cover slot lists only whether a watched
    # sender's coin fired
    draw = data.draw
    n = draw(st.integers(2, 4))
    # the draws above already reach l_max=1 and one-relay paths at n=2
    l_max = draw(st.integers(2, 3))
    relays = draw(st.integers(l_max - 1, 4))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    if shape == "two":
        # a second path multiplies the leaves by up to 12
        l_max = min(l_max, 2)
    params = ProtocolParams(n=n, l_max=l_max, beta=draw(_RATES),
                            relays=relays)
    pair = _pair(n, shape)
    attack = _cross_attack(attack_name, n, draw, relays)
    assert attack_view(attack, pair) is not None
    kind = ProtocolKind(ONION_PATH, params)
    exact = exact_advantage(kind, attack, pair)
    est = estimate_advantage(kind, attack, pair, 400,
                             master_seed=draw(st.integers(0, 2**16)))
    assert est.ci_low - TOL <= exact <= est.ci_high + TOL
