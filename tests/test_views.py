"""The game builds only the events its attack reads (`attack_view`).

The verdict on that projected trace must equal the verdict on the full
filtered trace, over the golden grid of `test_trace_golden` and every
exactly enumerated outcome at its TINY point.  A view must also stay
within what the capability sees: filtering it removes nothing, and with
packet ids set aside its events are among the full filtered ones.

The cover is drawn and listed under the view too: a projected draw holds
the full draw's fired slots of the watched senders (an onion cover's
without their paths) and leaves the solve's rng where the full draw does,
a watched user's fired slots do not depend on who else is watched, and
projected leaves are the exact marginals of the full ones.
"""

import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from acnbounds.adversaries import (COUNTING, AttackKind,
                                   attack_view, counting_attack, decide,
                                   dropping_attack, random_guess_attack,
                                   timing_attack, tracing_attack)
from acnbounds.core import (NO_COMM, SEND, AdversaryCapability,
                            Communication, ProtocolParams, ResourceLimitError,
                            View, filter_trace)
from acnbounds import game, protocols
from acnbounds.game import exact_advantage
from acnbounds.notions import generate_pair, parse_notion
from acnbounds.protocols import (BROADCAST, DCNET, DROPPING, ONION_PATH,
                                 TRILEMMA_SYNC, TRILEMMA_UNSYNC, VARIANTS,
                                 ProtocolKind, arm, build_trace,
                                 enumerate_outcomes, sample_outcome)
from test_trace_golden import (KINDS, PAIR_ROWS, PARAMS, SEEDS, TINY,
                               TINY_ROWS, _pair, trial_key)


def stock_attacks(params):
    """Every stock attack, with path tracing at each c_p <= relays."""
    n = params.n
    return ([counting_attack(n), timing_attack(n)]
            + [tracing_attack(n, c) for c in range(params.relays + 1)]
            + [dropping_attack(n), dropping_attack(n, 1),
               random_guess_attack()])


TINY_KINDS = {v: ProtocolKind(v, TINY) for v in VARIANTS}
TINY_KINDS["dropping-model-integrated"] = ProtocolKind(
    DROPPING, dataclasses.replace(TINY, integrated=True))


def _without_ids(events):
    return {(kind, t, loc, real, origin, msg)
            for kind, t, loc, _, real, origin, _, msg in events}


def check_projection(kind, pair, b, outcome, attacks, whole=None):
    """Assert, for each (attack, view) in `attacks`, that the projected
    verdict is the full one and that the view shows nothing the capability
    hides.  `whole` is the unfiltered trace when the caller has built it
    already (only the dropping model's build reads the capability)."""
    for attack, view in attacks:
        cap, params = attack.capability, kind.params
        full = filter_trace(
            whole or build_trace(arm(kind, pair, b), outcome, cap), cap)
        built = build_trace(arm(kind, pair, b, view), outcome, cap)
        projected = filter_trace(built, cap)
        if view is not None:
            # built the way the capability sees it: nothing to drop or mask
            assert projected is built
        assert _without_ids(projected.events) <= _without_ids(full.events)
        assert (decide(attack, projected, pair, params)
                == decide(attack, full, pair, params))


def _with_views(params, pair):
    return [(a, attack_view(a, pair)) for a in stock_attacks(params)]


def test_projected_verdicts_equal_full_ones_on_the_golden_grid():
    pair = _pair(PAIR_ROWS)
    attacks = _with_views(PARAMS, pair)
    for kind in KINDS.values():
        for seed in SEEDS:
            for b in (0, 1):
                outcome = sample_outcome(arm(kind, pair, b),
                                         random.Random(seed), trial_key(seed))
                check_projection(kind, pair, b, outcome, attacks)


@pytest.mark.parametrize("name", sorted(TINY_KINDS))
def test_projected_verdicts_equal_full_ones_on_every_tiny_leaf(name):
    kind = TINY_KINDS[name]
    pair = _pair(TINY_ROWS)
    attacks = _with_views(TINY, pair)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            whole = (None if kind.variant == DROPPING else
                     build_trace(arm(kind, pair, b), outcome))
            check_projection(kind, pair, b, outcome, attacks, whole)


@pytest.mark.parametrize("name", sorted(TINY_KINDS))
def test_full_trace_sends_carry_their_flag_and_payload(name):
    # only a view builds sends masked; the full trace is unfiltered
    kind = TINY_KINDS[name]
    pair = _pair(TINY_ROWS)
    real_rows = {(row.sender, row.message)
                 for b in (0, 1) for row in pair.batch(b).rows
                 if row is not NO_COMM}
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            sends = [e for e in build_trace(arm(kind, pair, b), outcome).events
                     if e.kind == SEND]
            assert sends and all(e.is_real is not None for e in sends)
            for e in sends:
                if kind.variant in (DCNET, BROADCAST):
                    # every user sends every round, with no payload id
                    assert e.msg is None
                elif e.is_real:
                    assert (e.location, e.msg) in real_rows
                else:
                    assert e.msg is None
            assert any(e.is_real for e in sends)


def test_each_rule_reads_its_declared_events():
    pair = _pair(PAIR_ROWS)
    suspects, receiver = frozenset({0, 1}), frozenset({3})
    # timing and tracing read cover sends only where a transit window reaches
    assert attack_view(timing_attack(4), pair) == \
        View(suspects, 0, receiver, window=True)
    assert attack_view(tracing_attack(4, 2), pair) == \
        View(suspects, 2, receiver, window=True)
    # user 2 sends in both batches, user 3 in neither
    assert attack_view(counting_attack(4), pair) == \
        View(frozenset({0, 1, 2}))
    assert attack_view(dropping_attack(4, 1), pair) == View(receivers=receiver)
    assert attack_view(random_guess_attack(), pair) == View()
    # a view crosses process boundaries with the rest of a chunk's inputs
    view = attack_view(tracing_attack(4, 2), pair)
    assert pickle.loads(pickle.dumps(view)) == view


def _relabel(trace, ids):
    return dataclasses.replace(trace, events=tuple(
        e._replace(packet=ids[e.packet],
                   in_packet=None if e.in_packet is None
                   else ids[e.in_packet])
        for e in trace.events))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(KINDS)), seed=st.sampled_from(SEEDS),
       b=st.integers(0, 1), attack=st.sampled_from(stock_attacks(PARAMS)),
       data=st.data())
def test_verdicts_ignore_which_ids_packets_carry(name, seed, b, attack, data):
    # every rule compares packet ids only for equality, which is why the
    # relabel of a projected trace cannot change a verdict
    kind, pair = KINDS[name], _pair(PAIR_ROWS)
    cap = attack.capability
    outcome = sample_outcome(arm(kind, pair, b), random.Random(seed),
                             trial_key(seed))
    trace = filter_trace(build_trace(arm(kind, pair, b), outcome, cap), cap)
    used = sorted({e.packet for e in trace.events}
                  | {e.in_packet for e in trace.events} - {None})
    # a bijection onto ids that need not be dense or start at 0
    shift = data.draw(st.integers(0, 1000))
    image = data.draw(st.permutations([i + shift for i in range(len(used))]))
    ids = dict(zip(used, image))
    assert (decide(attack, _relabel(trace, ids), pair, kind.params)
            == decide(attack, trace, pair, kind.params))


# ------------------------------------------------------ streamed leaves

@pytest.mark.parametrize("name", sorted(TINY_KINDS))
def test_leaves_are_sized_and_walk_alike_twice(name):
    kind = TINY_KINDS[name]
    pair = _pair(TINY_ROWS)
    views = {None} | {view for _, view in _with_views(TINY, pair)}
    for b, view in itertools.product((0, 1), views):
        leaves = enumerate_outcomes(kind, pair, b, view)
        first = list(leaves)
        assert len(leaves) == len(first)
        assert list(leaves) == first


def _peak(walk):
    """The peak of traced memory while `walk` runs, above what was traced
    when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        walk()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_walk_over_the_leaves_does_not_hold_them():
    # 57,344 leaves per arm: each of the 7 delays d times the 8,192
    # patterns of the 13 cover slots in its window, rounds d+1 to d+7
    kind = _unsync(2, 8, 0.25)
    pair = _one_row_pair(2)
    view = attack_view(timing_attack(2), pair)
    # the arm's fields are cached: build them before anything is measured
    enumerate_outcomes(kind, pair, 0, view)

    def walk():
        for _ in enumerate_outcomes(kind, pair, 0, view):
            pass

    # both include the option tables, which are still listed: one
    # window's 8,192 cover patterns are most of what a walk holds
    streamed = _peak(walk)
    listed = _peak(lambda: list(enumerate_outcomes(kind, pair, 0, view)))
    assert streamed < listed / 4


# ---------------------------------------------- the unsync cover, projected

def _unsync(n, l_max, beta):
    return ProtocolKind(TRILEMMA_UNSYNC,
                        ProtocolParams(n=n, l_max=l_max, beta=beta))


def _one_row_pair(n):
    return _pair(([Communication(0, n - 1, 0)],
                  [Communication(1, n - 1, 0)]))


def _cover_pairs(n):
    """A one-row pair and one with a context row and an empty row."""
    last = n - 1
    context = [Communication(last, 0, 1), NO_COMM]
    rows = ([Communication(0, last, 0)] + context,
            [Communication(1, last, 0)] + context)
    return [_one_row_pair(n), _pair(rows)]


def _unsync_views(n, pair):
    """The view of every stock attack: timing, counting with a watched
    subset, dropping and random guess (empty); None, the full draw; and
    one that watches every user, which draws the full cover through the
    projected loop."""
    watched = AdversaryCapability(observed_senders=frozenset({0, n - 1}),
                                  receiver_corrupted=True)
    attacks = [timing_attack(n), AttackKind(COUNTING, watched),
               dropping_attack(n), random_guess_attack()]
    return ([attack_view(a, pair) for a in attacks]
            + [None, View(frozenset(range(n)))])


def _project(outcome, side, onion=False):
    """The full outcome as the arm `side` reads it: the fired slots of its
    view's senders in the window of the outcome's own delays (an onion
    path's transit is fixed), an onion cover's paired with None."""
    view = side.view
    if view is None:
        return outcome
    picks, fired = outcome
    rounds = side.window(None if onion else picks)

    def kept(sl):
        return sl[1] in view.senders and sl[0] in rounds

    if onion:
        return picks, tuple((sl, None) for sl, _ in fired if kept(sl))
    return picks, tuple(sl for sl in fired if kept(sl))


def _fired_by(outcome, onion=False):
    """Each user's fired cover slots, without any path."""
    mine = {}
    for sl in (sl for sl, _ in outcome[1]) if onion else outcome[1]:
        mine.setdefault(sl[1], []).append(sl)
    return mine


def check_same_draw(kind, pair, b, seed, views, onion=False):
    """Every view's draw is the full draw restricted to its senders and
    leaves the rng where the full draw does, and each user's fired slots
    are the same under {u}, the suspects and every user.  Returns the
    full draw."""
    n = kind.params.n
    suspects = frozenset(pair.suspects())
    key = trial_key(seed)
    whole = random.Random(seed)
    full = sample_outcome(arm(kind, pair, b), whole, key)
    for view in views:
        rng = random.Random(seed)
        side = arm(kind, pair, b, view)
        got = sample_outcome(side, rng, key)
        assert got == _project(full, side, onion), view
        assert rng.getstate() == whole.getstate()

    def draw(senders):
        return sample_outcome(arm(kind, pair, b, View(senders)),
                              random.Random(seed), key)

    shared = [(s, _fired_by(draw(s), onion))
              for s in (frozenset(range(n)), suspects)]
    fired = _fired_by(full, onion)
    for u in range(n):
        mine = fired.get(u)
        assert _fired_by(draw(frozenset({u})), onion).get(u) == mine
        for senders, got in shared:
            if u in senders:
                assert got.get(u) == mine
    return full


@pytest.mark.parametrize("n", [2, 3, 10, 100])
def test_projected_cover_is_the_full_draw_restricted(n):
    for l_max, beta in itertools.product((1, 2, 3, 5), (0.0, 0.3, 0.25, 1.0)):
        kind = _unsync(n, l_max, beta)
        for pair in _cover_pairs(n):
            views = _unsync_views(n, pair)
            for b, seed in itertools.product((0, 1), range(3)):
                check_same_draw(kind, pair, b, seed, views)


def _stream(key, domain, user, size):
    """`size` bytes of a user's stream: shake_128(key + domain + u64le)."""
    return hashlib.shake_128(
        key + domain + user.to_bytes(8, "little")).digest(size)


def _reference_draw(kind, pair, b, view, rng, key):
    """Arm b's outcome under `view`, from the stream definition: the
    picks as `rng.choice` (a delay) or `rng.sample` (a path) give them,
    and each watched user's coins as the words of its coin stream, one
    per free slot of that user over the horizon in round order, fired
    below `_threshold(beta)`, kept in the window of the drawn delays and
    sorted by slot.  Without a view an onion slot carries a path sampled
    by a `random.Random` seeded with the user's path stream, one per
    fired slot in round order; under one it carries None."""
    params = kind.params
    side = arm(kind, pair, b, view)
    onion = kind.variant == ONION_PATH
    if onion:
        relays = range(params.relays)
        picks = tuple(None if s is None else
                      tuple(rng.sample(relays, params.l_exp - 1))
                      for s in side.slots)
        rounds = side.window()
    else:
        delays = range(1, params.l_max) if params.l_max > 1 else (0,)
        picks = tuple(None if s is None else rng.choice(delays)
                      for s in side.slots)
        rounds = side.window(picks)
    busy = {(t, row.sender) for t, row in zip(side.slots, pair.batch(b).rows)
            if t is not None}
    cut = protocols._threshold(params.beta)
    fired = []
    for u in range(params.n) if view is None else view.senders:
        free = [t for t in range(1, side.horizon + 1) if (t, u) not in busy]
        words = struct.unpack(f"<{len(free)}Q",
                              _stream(key, b"c", u, 8 * len(free)))
        mine = [(t, u) for t, w in zip(free, words)
                if w < cut and t in rounds]
        if onion and view is None:
            own = random.Random(int.from_bytes(_stream(key, b"p", u, 16),
                                               "little"))
            mine = [(sl, tuple(own.sample(relays, params.l_exp - 1)))
                    for sl in mine]
        elif onion:
            mine = [(sl, None) for sl in mine]
        fired += mine
    return picks, tuple(sorted(fired))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(onion=st.booleans(), n=st.integers(2, 4), l_max=st.integers(1, 4),
       beta=st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]),
       notion=st.sampled_from(["SO", "SML", "RO", "CO"]),
       seed=st.integers(0, 3), data=st.data())
def test_every_draw_is_the_stream_definition(onion, n, l_max, beta, notion,
                                             seed, data):
    # every variant with a cover, under every stock attack's view and
    # under none, over several trials of one rng, as the game reads them
    l_exp = data.draw(st.integers(1, l_max)) if onion else None
    relays = data.draw(st.integers(max(1, l_exp - 1), 3)) if onion else 0
    params = ProtocolParams(n=n, l_max=l_max, beta=beta, relays=relays,
                            l_exp=l_exp)
    kind = ProtocolKind(ONION_PATH if onion else TRILEMMA_UNSYNC, params)
    length = 2 if notion == "SML" else data.draw(st.integers(1, 3))
    pair = generate_pair(parse_notion(notion), params, seed, length)
    views = [None] + [attack_view(a, pair) for a in stock_attacks(params)]
    for view, b in itertools.product(views, (0, 1)):
        side = arm(kind, pair, b, view)
        mine, theirs = random.Random(seed), random.Random(seed)
        for i in range(6):
            key = trial_key(seed, i)
            assert (sample_outcome(side, mine, key)
                    == _reference_draw(kind, pair, b, view, theirs, key)), \
                (view, b, i)
            assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("n,l_max,beta", [
    (2, 2, 0.5), (2, 2, 0.3), (3, 2, 0.25), (3, 1, 1.0), (4, 2, 0.0)])
def test_projected_leaves_are_the_exact_marginals(n, l_max, beta):
    kind = _unsync(n, l_max, beta)
    for pair in _cover_pairs(n):
        views = _unsync_views(n, pair)
        for b in (0, 1):
            full = enumerate_outcomes(kind, pair, b)
            for view in views:
                side = arm(kind, pair, b, view)
                marginal = {}
                for prob, outcome in full:
                    key = _project(outcome, side)
                    marginal[key] = marginal.get(key, 0) + prob
                leaves = enumerate_outcomes(kind, pair, b, view)
                assert sum(prob for prob, _ in leaves) == 1
                assert {o: prob for prob, o in leaves} == marginal
                assert len(leaves) == len(marginal)
                rng = random.Random(b)
                for i in range(20):
                    assert sample_outcome(arm(kind, pair, b, view), rng,
                                          trial_key(b, i)) in marginal


def test_projection_reaches_a_point_past_the_leaf_limit():
    # 29 free cover slots per arm: 2**30 full leaves, 2**10 watched ones
    kind = _unsync(6, 3, 0.25)
    pair = _one_row_pair(6)
    with pytest.raises(ResourceLimitError):
        enumerate_outcomes(kind, pair, 0)
    # the other suspect stays silent for the l_max-1 rounds of the window
    assert exact_advantage(kind, timing_attack(6), pair) == Fraction(9, 16)


def test_the_timing_window_takes_the_leaf_limit_further():
    # each of the 9 delays d times the 2**17 patterns of the suspects'
    # cover slots in its window, rounds d+1 to d+9, where the window of
    # every arrival at once is past the limit
    kind = _unsync(2, 10, 0.25)
    pair = _one_row_pair(2)
    view = attack_view(timing_attack(2), pair)
    assert len(enumerate_outcomes(kind, pair, 0, view)) == 1_179_648
    with pytest.raises(ResourceLimitError):
        enumerate_outcomes(kind, pair, 0, view._replace(window=False))


@pytest.mark.parametrize("n,l_max,p,value", [
    # the other suspect stays silent for the l_max-1 rounds of the window
    (2, 7, 0.25, Fraction(729, 4096)),
    # exact in the decimals typed: p=0.3 weighs 3/10
    (100, 6, 0.3, Fraction(16807, 100000)),
])
def test_the_timing_window_pins_points_past_the_old_reach(n, l_max, p, value):
    assert exact_advantage(_unsync(n, l_max, p), timing_attack(n),
                           _one_row_pair(n)) == value


# ----------------------------------------------- the onion cover, projected

def _onion(n, l_max, beta, relays, l_exp=None):
    return ProtocolKind(ONION_PATH, ProtocolParams(
        n=n, l_max=l_max, beta=beta, relays=relays, l_exp=l_exp))


def _onion_attacks(n, relays):
    """Path tracing at every c_p, timing, counting with a watched subset and
    random guess: every stock rule that reads a sender's cover sends, and
    one that reads nothing."""
    watched = AdversaryCapability(observed_senders=frozenset({0, n - 1}),
                                  receiver_corrupted=True)
    return ([tracing_attack(n, c) for c in range(relays + 1)]
            + [timing_attack(n), AttackKind(COUNTING, watched),
               random_guess_attack()])


@pytest.mark.parametrize("relays", [1, 2, 6, 25])
def test_projected_onion_cover_is_the_full_draw_restricted(relays):
    # full cover paths come from the firing users' own streams, so a
    # projected draw reads none of them: small pools and `rng.sample`
    # past 21 relays alike
    n = 4
    for l_exp, beta in itertools.product(range(1, min(4, relays + 1) + 1),
                                         (0.0, 0.25, 1.0)):
        kind = _onion(n, 4, beta, relays, l_exp)
        for pair in _cover_pairs(n):
            everyone = frozenset(range(n))
            # a view of every user holds each cover path as None
            attacks = [(a, attack_view(a, pair))
                       for a in _onion_attacks(n, relays)] + [
                (tracing_attack(n, relays), View(everyone, relays, everyone))]
            for b, seed in itertools.product((0, 1), range(3)):
                full = check_same_draw(kind, pair, b, seed,
                                       [v for _, v in attacks], onion=True)
                whole = arm(kind, pair, b)
                for attack, view in attacks:
                    # a projected outcome builds the verdict of the full one
                    side = arm(kind, pair, b, view)
                    got = sample_outcome(side, random.Random(seed),
                                         trial_key(seed))
                    cap = attack.capability
                    projected = filter_trace(build_trace(side, got, cap), cap)
                    assert (decide(attack, projected, pair, kind.params)
                            == decide(attack, filter_trace(build_trace(
                                whole, full, cap), cap), pair, kind.params))


@pytest.mark.parametrize("n,l_max,beta,relays", [
    (2, 2, 0.5, 2), (2, 2, 0.3, 1), (3, 1, 0.25, 2), (2, 3, 1.0, 2)])
def test_projected_onion_leaves_are_the_exact_marginals(n, l_max, beta,
                                                         relays):
    kind = _onion(n, l_max, beta, relays)
    for pair in _cover_pairs(n):
        # a projection depends on the view's senders and window alone
        views = {(view.senders, view.window): view for view in
                 (attack_view(a, pair) for a in _onion_attacks(n, relays))}
        for b in (0, 1):
            full = enumerate_outcomes(kind, pair, b)
            for view in views.values():
                side = arm(kind, pair, b, view)
                marginal = {}
                for prob, outcome in full:
                    key = _project(outcome, side, onion=True)
                    marginal[key] = marginal.get(key, 0) + prob
                leaves = enumerate_outcomes(kind, pair, b, view)
                assert sum(prob for prob, _ in leaves) == 1
                assert {o: prob for prob, o in leaves} == marginal
                assert len(leaves) == len(marginal)
                rng = random.Random(b)
                for i in range(20):
                    assert sample_outcome(arm(kind, pair, b, view), rng,
                                          trial_key(b, i)) in marginal


@pytest.mark.parametrize("n,l_max,p,relays,c_p", [
    (2, 3, Fraction(1, 2), 3, 2),
    (4, 3, Fraction(1, 4), 4, 2),
    (6, 3, Fraction(1, 4), 6, 3),
])
def test_projection_reaches_onion_points_past_the_leaf_limit(n, l_max, p,
                                                             relays, c_p):
    # a cover slot has 1 + relays!/(relays-2)! options in full, 2 projected
    kind = _onion(n, l_max, float(p), relays)
    pair = _one_row_pair(n)
    with pytest.raises(ResourceLimitError):
        enumerate_outcomes(kind, pair, 0)
    # the chain reaches its sender when every relay on the path is
    # compromised; otherwise timing decides
    hops = l_max - 1
    hit = Fraction(math.comb(c_p, hops), math.comb(relays, hops))
    assert (exact_advantage(kind, tracing_attack(n, c_p), pair)
            == hit + (1 - hit) * (1 - p) ** hops)


# ------------------------------------------------------ the timing window

@pytest.mark.parametrize("variant,l_max,rows,horizon,rounds", [
    # one row at t0 = l_max, arriving d = 1 to l_max-1 rounds later: the
    # rounds d+1 to d+l_max-1 are in its transit window's reach
    (TRILEMMA_UNSYNC, 4, 1, 7,
     {(1,): range(2, 5), (2,): range(3, 6), (3,): range(4, 7)}),
    # a direct delivery reads no cover send at all
    (TRILEMMA_UNSYNC, 1, 1, 1, {(0,): range(1, 1)}),
    # rows start one per round, the empty one included: from the earliest
    # arrival's window to the round before the latest arrival
    (TRILEMMA_SYNC, 4, 3, 9,
     {(1, 1, None): range(2, 6), (3, 3, None): range(4, 8),
      (1, 3, None): range(2, 8), (3, 1, None): range(3, 7)}),
    # a path of l_exp-1 = 3 relays always arrives in round 7
    (ONION_PATH, 4, 1, 7, {None: range(4, 7)}),
    (DCNET, 2, 1, 2, {None: range(1, 2)}),
    (BROADCAST, 2, 1, 3, {None: range(2, 3)}),
])
def test_the_window_is_what_a_transit_window_can_reach(variant, l_max, rows,
                                                        horizon, rounds):
    # `rounds` holds each pinned delay tuple's window
    kind = ProtocolKind(variant, ProtocolParams(n=4, l_max=l_max, beta=0.5,
                                                relays=3))
    pair = _cover_pairs(4)[rows > 1]
    for b in (0, 1):
        side = arm(kind, pair, b, attack_view(timing_attack(4), pair))
        watched = arm(kind, pair, b, attack_view(counting_attack(4), pair))
        assert side.horizon == horizon
        for delays, window in rounds.items():
            assert side.window(delays) == window
            # counting reads every round
            assert watched.window(delays) == range(1, horizon + 1)


def _exact_under(kind, attack, pair, view):
    """`exact_advantage` with `view` in place of the attack's own."""
    with mock.patch.object(game, "attack_view", lambda *_: view):
        return exact_advantage(kind, attack, pair)


# full leaves per arm that the property walks at most
_FULL_LEAVES = 4096


def _full_leaves(kind, pair, b):
    """The arm's leaf count under no view, infinite past `ENUM_LIMIT`."""
    try:
        return len(enumerate_outcomes(kind, pair, b))
    except ResourceLimitError:
        return math.inf


@settings(max_examples=150, deadline=None, derandomize=True)
@given(variant=st.sampled_from([TRILEMMA_UNSYNC, TRILEMMA_SYNC, ONION_PATH,
                                DCNET, BROADCAST]),
       l_max=st.integers(1, 4), beta=st.sampled_from([0.25, 0.5, 1.0, 0.0]),
       notion=st.sampled_from(["SO", "SML", "RO"]),
       seed=st.integers(0, 3), data=st.data())
def test_the_window_changes_no_exact_advantage(variant, l_max, beta, notion,
                                                seed, data):
    l_exp = data.draw(st.integers(1, l_max))
    relays = (data.draw(st.integers(max(1, l_exp - 1), 3))
              if variant == ONION_PATH else 0)
    n = 3 if variant == TRILEMMA_SYNC else 2
    params = ProtocolParams(n=n, l_max=l_max, beta=beta, relays=relays,
                            l_exp=l_exp if variant == ONION_PATH else None)
    # broadcast delivers a round after the send, past l_max = 1
    assume(variant != BROADCAST or l_max >= 2)
    kind = ProtocolKind(variant, params)
    length = 2 if notion == "SML" else data.draw(st.integers(1, 2))
    pair = generate_pair(parse_notion(notion), params, seed, length)
    assume(all(_full_leaves(kind, pair, b) <= _FULL_LEAVES for b in (0, 1)))
    attack = data.draw(st.sampled_from(
        [timing_attack(n)] + [tracing_attack(n, c) for c in range(relays + 1)]))
    view = attack_view(attack, pair)
    assert view.window
    whole = _exact_under(kind, attack, pair, None)
    assert _exact_under(kind, attack, pair, view) == whole
    assert _exact_under(kind, attack, pair, view._replace(window=False)) \
        == whole
    for b in (0, 1):
        leaves = enumerate_outcomes(kind, pair, b, view)
        side, rng = leaves.arm, random.Random(seed)
        # every listed window lies inside the horizon, unclamped
        for rounds in {side.window()} | {r for *_, r in leaves.parts if r}:
            assert not rounds or 1 <= rounds[0] <= rounds[-1] <= side.horizon
        # every draw under the view is a leaf of its arm's windowed support
        support = {o for _, o in leaves}
        for i in range(20):
            assert sample_outcome(side, rng, trial_key(seed, i)) in support
