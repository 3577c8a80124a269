import hashlib
import itertools
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acnbounds.core import (DELIVER, DROP, FORWARD, SEND,
                            AdversaryCapability, Communication, ConfigError,
                            ProtocolParams, ResourceLimitError, View,
                            make_batch)
from acnbounds import protocols
from acnbounds.adversaries import (attack_view, counting_attack,
                                   dropping_attack, timing_attack,
                                   tracing_attack)
from acnbounds.game import estimate_advantage, exact_advantage
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import (ProtocolKind, arm, build_trace,
                                 enumerate_outcomes, sample_outcome)
from test_trace_golden import trial_key

SO = parse_notion("SO")


def _pair(n, rows=None):
    if rows is None:
        b0 = make_batch([Communication(0, n - 1, 0)])
        b1 = make_batch([Communication(1, n - 1, 0)])
    else:
        b0, b1 = (make_batch(r) for r in rows)
    return ScenarioPair(b0, b1, SO)


def _events(kind, pair, b=0, seed=1, cap=None):
    rng = random.Random(seed)
    side = arm(kind, pair, b)
    outcome = sample_outcome(side, rng, trial_key(seed))
    return build_trace(side, outcome, cap).events


def test_variant_validation():
    with pytest.raises(ConfigError):
        ProtocolKind("carrier-pigeon", ProtocolParams(n=2, l_max=1))
    with pytest.raises(ConfigError):
        ProtocolKind("onion-path", ProtocolParams(n=2, l_max=3, relays=1,
                                                  l_exp=3))
    with pytest.raises(ConfigError):
        ProtocolKind("dropping-model", ProtocolParams(n=2, l_max=1, relays=1,
                                                      copies=2))
    # broadcast delivers a round after the send, past l_max = 1
    with pytest.raises(ConfigError):
        ProtocolKind("broadcast-full-dummy", ProtocolParams(n=2, l_max=1))
    ProtocolKind("broadcast-full-dummy", ProtocolParams(n=2, l_max=2))


def test_enumeration_probabilities_sum_to_one():
    cases = [
        ProtocolKind("trilemma-unsync", ProtocolParams(n=2, l_max=2, beta=0.25)),
        ProtocolKind("trilemma-sync", ProtocolParams(n=4, l_max=3, beta=0.5)),
        ProtocolKind("onion-path", ProtocolParams(n=2, l_max=2, beta=0.5,
                                                  relays=3, l_exp=2)),
        ProtocolKind("dropping-model", ProtocolParams(n=2, l_max=1, relays=4,
                                                      copies=2)),
        ProtocolKind("dcnet-round", ProtocolParams(n=3, l_max=1)),
        ProtocolKind("broadcast-full-dummy", ProtocolParams(n=3, l_max=2)),
    ]
    for kind in cases:
        pair = _pair(kind.params.n)
        for b in (0, 1):
            outs = enumerate_outcomes(kind, pair, b)
            total = sum(p for p, _ in outs)
            assert total == Fraction(1), kind.variant
            assert all(p > 0 for p, _ in outs)


def test_sampled_outcomes_live_in_the_enumerated_support():
    kind = ProtocolKind("trilemma-unsync", ProtocolParams(n=2, l_max=2,
                                                          beta=0.5))
    pair = _pair(2)
    support = {o for _, o in enumerate_outcomes(kind, pair, 0)}
    rng = random.Random(0)
    for i in range(50):
        assert sample_outcome(arm(kind, pair, 0), rng, trial_key(0, i)) in \
            support


def test_trace_build_is_deterministic():
    kind = ProtocolKind("trilemma-sync", ProtocolParams(n=5, l_max=2,
                                                        beta=0.4))
    pair = _pair(5)
    rng = random.Random(3)
    side = arm(kind, pair, 0)
    outcome = sample_outcome(side, rng, trial_key(3))
    assert build_trace(side, outcome) == build_trace(side, outcome)


def test_packet_ids_are_dense_and_first_mention_ordered():
    kind = ProtocolKind("onion-path", ProtocolParams(n=3, l_max=3, beta=0.3,
                                                     relays=3, l_exp=3))
    evs = _events(kind, _pair(3), seed=7)
    seen = []
    for e in evs:
        for q in (e.packet, e.in_packet):
            if q is not None and q not in seen:
                seen.append(q)
    assert seen == list(range(len(seen)))


def test_direct_delivery_keeps_the_packet_id():
    kind = ProtocolKind("trilemma-unsync", ProtocolParams(n=2, l_max=1))
    evs = _events(kind, _pair(2), b=1)
    send = next(e for e in evs if e.kind == SEND and e.is_real)
    deliver = next(e for e in evs if e.kind == DELIVER)
    assert deliver.packet == send.packet
    assert deliver.round == send.round


def test_longer_latency_rerandomizes_the_id():
    kind = ProtocolKind("trilemma-unsync", ProtocolParams(n=2, l_max=3))
    evs = _events(kind, _pair(2))
    send = next(e for e in evs if e.kind == SEND)
    deliver = next(e for e in evs if e.kind == DELIVER)
    assert deliver.packet != send.packet
    assert 1 <= deliver.round - send.round <= 2


def test_sync_cover_cohort_size():
    n, beta = 7, 0.4
    kind = ProtocolKind("trilemma-sync", ProtocolParams(n=n, l_max=2,
                                                        beta=beta))
    evs = _events(kind, _pair(n), seed=11)
    sends = [e for e in evs if e.kind == SEND]
    # exactly one real sender plus floor(beta*n) synchronized cover sends
    assert len(sends) == 1 + int(beta * n)
    assert len({e.location for e in sends}) == len(sends)


@pytest.mark.parametrize("beta,n,dummies", [(0.58, 50, 29), (0.29, 100, 29),
                                            (0.7, 90, 63)])
def test_sync_cover_cohort_is_the_typed_decimals_floor(beta, n, dummies):
    # the float product beta * n lies just under the integer at each point,
    # so flooring it would run one dummy too few
    assert int(beta * n) == dummies - 1
    kind = ProtocolKind("trilemma-sync", ProtocolParams(n=n, l_max=2,
                                                        beta=beta))
    sends = [e for e in _events(kind, _pair(n)) if e.kind == SEND]
    assert len(sends) == 1 + dummies


def test_broadcast_volume_is_cover_plus_the_delivered_rows():
    n, r = 4, 5
    rows = tuple([Communication(s, 3, 100 + j) for j, s in
                  enumerate((first, 1, 2, 0, 1))] for first in (0, 1))
    pair = _pair(n, rows=rows)
    # every row starts at t0 = l_max and is delivered a round later, so
    # the run takes l_max + 1 rounds
    kind = ProtocolKind("broadcast-full-dummy",
                        ProtocolParams(n=n, l_max=r - 1))
    evs = build_trace(arm(kind, pair, 0), ()).events
    # the wire volume is cover plus useful traffic: everyone sends every
    # round, and five of those sends carry the rows that get delivered
    assert sum(e.kind == SEND for e in evs) == n * r == 20
    assert sum(e.kind == DELIVER and e.is_real for e in evs) == 5


def test_everyone_transmits_every_round_in_shared_send_models():
    for variant in ("dcnet-round", "broadcast-full-dummy"):
        kind = ProtocolKind(variant, ProtocolParams(n=3, l_max=2))
        evs = _events(kind, _pair(3))
        rounds = {e.round for e in evs if e.kind == SEND}
        for t in rounds:
            locs = sorted(e.location for e in evs
                          if e.kind == SEND and e.round == t)
            assert locs == [0, 1, 2]


def test_onion_forward_chain_links_up():
    kind = ProtocolKind("onion-path", ProtocolParams(n=2, l_max=3, relays=4,
                                                     l_exp=3))
    evs = _events(kind, _pair(2))
    deliver = next(e for e in evs if e.kind == DELIVER)
    hops = 0
    cur = deliver.in_packet
    by_packet = {e.packet: e for e in evs if e.kind != DELIVER}
    while True:
        e = by_packet[cur]
        if e.kind == SEND:
            break
        assert e.kind == FORWARD
        hops += 1
        cur = e.in_packet
    assert hops == kind.params.l_exp - 1
    assert e.location == 0


def test_dropping_link_control_kills_everything():
    params = ProtocolParams(n=3, l_max=1, relays=4, copies=2)
    kind = ProtocolKind("dropping-model", params)
    pair = _pair(3)
    cap = AdversaryCapability(observed_senders=frozenset(range(3)),
                              receiver_corrupted=True, active_drop=True)
    evs = _events(kind, pair, b=1, cap=cap)
    assert sum(1 for e in evs if e.kind == DROP) == 2
    assert not any(e.kind == DELIVER for e in evs)
    # scenario 0's sender is not the target, so its copies pass
    evs0 = _events(kind, pair, b=0, cap=cap)
    assert any(e.kind == DELIVER for e in evs0)


def test_dropping_relay_control_needs_full_coverage():
    params = ProtocolParams(n=3, l_max=1, relays=4, copies=2)
    kind = ProtocolKind("dropping-model", params)
    pair = _pair(3)
    cap = AdversaryCapability(observed_senders=frozenset(range(3)),
                              receiver_corrupted=True, active_drop=True, c_a=1)
    for _, outcome in enumerate_outcomes(kind, pair, 1):
        evs = build_trace(arm(kind, pair, 1), outcome, cap).events
        # one controlled relay can kill at most one of the two copies
        assert any(e.kind == DELIVER for e in evs)


@pytest.mark.parametrize("variant", protocols.VARIANTS)
def test_the_horizon_is_the_last_round_the_run_needs(variant):
    # `_schedule` derives the horizon from the variant and the batch, so
    # every kind that builds has runnable arms: every event of a full
    # trace, forwards included, lies in rounds 1..horizon, and some drawn
    # outcome delivers in the last
    rows = tuple([Communication(first, 1, 0), Communication(1, 0, 1)]
                 for first in (0, 1))
    kind = ProtocolKind(variant, ProtocolParams(n=2, l_max=3, beta=0.5,
                                                relays=2))
    for b in (0, 1):
        side = arm(kind, _pair(2, rows=rows), b)
        rng = random.Random(b)
        events = [e for seed in range(20) for e in build_trace(
            side, sample_outcome(side, rng, trial_key(seed))).events]
        rounds = [e.round for e in events]
        delivered = [e.round for e in events if e.kind == DELIVER]
        assert 1 <= min(rounds) and max(rounds) <= side.horizon
        assert max(delivered) == side.horizon


def _count_resolves(monkeypatch):
    """Count the calls of `_schedule` and `_fields` from here on."""
    calls = {"_schedule": 0, "_fields": 0}
    for name in calls:
        def counted(*args, fn=getattr(protocols, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(protocols, name, counted)
    return calls


@pytest.mark.parametrize("variant,params,attack", [
    ("trilemma-sync", ProtocolParams(n=10, l_max=3, beta=0.5),
     timing_attack(10)),
    ("trilemma-unsync", ProtocolParams(n=10, l_max=3, beta=0.5),
     timing_attack(10)),
    ("onion-path", ProtocolParams(n=10, l_max=3, beta=0.5, relays=3),
     tracing_attack(10, 1)),
    ("dcnet-round", ProtocolParams(n=10, l_max=1), counting_attack(10)),
    ("broadcast-full-dummy", ProtocolParams(n=10, l_max=2),
     counting_attack(10)),
    ("dropping-model", ProtocolParams(n=10, l_max=1, relays=4, copies=2),
     dropping_attack(10, 1)),
], ids=["trilemma-sync", "trilemma-unsync", "onion-path", "dcnet-round",
        "broadcast-full-dummy", "dropping-model"])
def test_a_solve_builds_each_arms_schedule_and_fields_once(monkeypatch,
                                                           variant, params,
                                                           attack):
    # the game resolves each arm once, before the first trial, so a
    # many-row pair computes its schedule and fields once per arm, not
    # once per trial
    context = [Communication(j, 9, j) for j in range(2, 6)]
    pair = _pair(10, rows=([Communication(0, 9, 0)] + context,
                           [Communication(1, 9, 0)] + context))
    calls = _count_resolves(monkeypatch)
    estimate_advantage(ProtocolKind(variant, params), attack, pair, 2000,
                       master_seed=0)
    assert calls == {"_schedule": 2, "_fields": 2}


@pytest.mark.parametrize("variant,attack", [
    ("trilemma-unsync", timing_attack(2)),
    ("onion-path", tracing_attack(2, 1)),
])
def test_an_exact_solve_resolves_its_arms_whatever_its_leaf_count(
        monkeypatch, variant, attack):
    pair = _pair(2)
    counts, leaves = [], []
    for l_max in (2, 3):
        kind = ProtocolKind(variant, ProtocolParams(
            n=2, l_max=l_max, beta=0.5, relays=2))
        leaves.append(len(enumerate_outcomes(kind, pair, 0)))
        with monkeypatch.context() as m:
            calls = _count_resolves(m)
            exact_advantage(kind, attack, pair)
        counts.append(calls)
    assert leaves[0] < leaves[1]
    # each arm once, in `enumerate_outcomes`, whose leaves carry it
    assert counts == [{"_schedule": 2, "_fields": 2}] * 2


def test_enumeration_guard_trips_on_large_spaces():
    kind = ProtocolKind("trilemma-unsync", ProtocolParams(n=10, l_max=3,
                                                          beta=0.5))
    with pytest.raises(ResourceLimitError):
        enumerate_outcomes(kind, _pair(10), 0)


@pytest.mark.parametrize("variant,params,pair,view", [
    # comb(39, 20) cohorts per row
    ("trilemma-sync", ProtocolParams(n=40, l_max=2, beta=0.5), _pair(40),
     None),
    # 337 options per cover slot, over 69 free slots
    ("onion-path", ProtocolParams(n=10, l_max=4, beta=0.5, relays=8),
     _pair(10), None),
    # each of the 11 delays times the 2**21 patterns of its own window's
    # cover slots: counted per delay without listing a delay or a pattern
    ("trilemma-unsync", ProtocolParams(n=2, l_max=12, beta=0.5), _pair(2),
     attack_view(timing_attack(2), _pair(2))),
], ids=["trilemma-sync-params0-pair0", "onion-path-params1-pair1",
        "trilemma-unsync-timing-view"])
def test_enumeration_guard_trips_before_listing_anything(monkeypatch, variant,
                                                         params, pair, view):
    def listed(*args):
        raise AssertionError("outcomes listed before the guard")

    for name in ("combinations", "permutations", "product"):
        monkeypatch.setattr(itertools, name, listed)
    with pytest.raises(ResourceLimitError) as err:
        enumerate_outcomes(ProtocolKind(variant, params), pair, 0, view)
    if view is not None:
        # the per-delay sum, not the count of the union of the windows
        assert f"has {11 * 2 ** 21} leaves" in str(err.value)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 3), l_max=st.integers(1, 2),
       beta=st.sampled_from([0.0, 0.25, 0.5, 1.0]), b=st.integers(0, 1))
def test_unsync_enumeration_is_a_distribution(n, l_max, beta, b):
    kind = ProtocolKind("trilemma-unsync",
                        ProtocolParams(n=n, l_max=l_max, beta=beta))
    outs = enumerate_outcomes(kind, _pair(n), b)
    assert sum(p for p, _ in outs) == Fraction(1)
    assert len({o for _, o in outs}) == len(outs)


# every pool and sample size in the small-pool branch of `Random.sample`
_SMALL_DRAWS = [(n, k) for n in range(22) for k in range(min(n, 5) + 1)]


def _same_stream(draw, reference):
    """Each seed's draw equals the reference drawn from a twin rng, and
    both rngs are left in the same state."""
    for seed in range(8):
        mine, theirs = random.Random(seed), random.Random(seed)
        assert draw(mine) == reference(theirs), seed
        assert mine.random() == theirs.random(), seed


def test_draws_take_the_same_numbers_as_rng_sample(monkeypatch):
    cases = []
    for n, k in _SMALL_DRAWS:
        # labels unlike their positions, so a swapped index shows
        pool = tuple(range(100, 100 + n))
        cases.append((protocols._Sample(pool, k),
                      lambda rng, pool=pool, k=k: tuple(rng.sample(pool, k))))
        cases.append((protocols._Subset(pool, k, tag=n),
                      lambda rng, pool=pool, k=k, n=n: (
                          n, tuple(sorted(rng.sample(pool, k))))))
    expected = []
    for field, reference in cases:
        _same_stream(field.draw, reference)
        expected.append([field.draw(random.Random(s)) for s in range(8)])

    # the small-pool draws never go through `rng.sample`
    def no_sample(*args, **kwargs):
        raise AssertionError("rng.sample called")
    monkeypatch.setattr(random.Random, "sample", no_sample)
    for (field, _), want in zip(cases, expected):
        assert [field.draw(random.Random(s)) for s in range(8)] == want


@pytest.mark.parametrize("field,reference", [
    # a sync cohort of 25 drawn from 99 users
    (protocols._Subset(range(99), 25),
     lambda rng: tuple(sorted(rng.sample(tuple(range(99)), 25)))),
    (protocols._Sample(range(22), 2),
     lambda rng: tuple(rng.sample(tuple(range(22)), 2))),
    (protocols._Sample(range(8), 6),
     lambda rng: tuple(rng.sample(tuple(range(8)), 6))),
])
def test_large_draws_fall_back_to_rng_sample(field, reference):
    _same_stream(field.draw, reference)


@pytest.mark.parametrize("size", range(1, 9))
def test_a_choice_takes_the_same_numbers_as_rng_choice(monkeypatch, size):
    # labels unlike their positions, so a wrong index shows; twenty draws
    # a seed, so a size that is no power of two rejects some words, and a
    # pool of one still reads a bit per draw
    pool = tuple(range(100, 100 + size))
    draw = protocols._Choice(pool).draw
    expected = []
    for seed in range(8):
        mine, theirs = random.Random(seed), random.Random(seed)
        want = [theirs.choice(pool) for _ in range(20)]
        assert [draw(mine) for _ in range(20)] == want, seed
        assert mine.getstate() == theirs.getstate(), seed
        expected.append(want)

    # the draw never goes through `rng.choice`
    def no_choice(*args, **kwargs):
        raise AssertionError("rng.choice called")
    monkeypatch.setattr(random.Random, "choice", no_choice)
    for seed, want in enumerate(expected):
        rng = random.Random(seed)
        assert [draw(rng) for _ in range(20)] == want


# ------------------------------------------------------------- cover coins

@pytest.mark.parametrize("p", [0.0, 0.25, 0.3, 1.0])
def test_a_cover_coin_fires_exactly_when_random_would(monkeypatch, p):
    # `random()` reads a word's top 53 bits; the word at the threshold and
    # the one below it (where they are 64-bit words) decide the boundary
    cut = protocols._threshold(p)
    words = [w for w in (cut - 1, cut) if 0 <= w < 2 ** 64]
    assert words

    class Fixed:
        def __init__(self, data):
            pass

        def digest(self, size):
            return struct.pack(f"<{len(words)}Q", *words)

    monkeypatch.setattr(hashlib, "shake_128", Fixed)
    free = tuple((t, 0) for t in range(1, len(words) + 1))
    cover = protocols._Cover(free, ProtocolParams(n=2, l_max=2, beta=p),
                             lambda delays=None: range(1, len(words) + 1))
    fired = cover.draw(None, b"key")
    assert [sl in fired for sl in free] == \
        [(w >> 11) * 2 ** -53 < p for w in words]


def test_cover_coins_are_pinned_for_one_key_and_user():
    # user 1's coins are the little-endian 64-bit words of
    # shake_128(key + b"c" + u64le(1)), one per free slot in round order
    key = b"known-answer key"
    # user 1 sends nothing of arm 0, so every one of its 2*l_max - 1 = 41
    # rounds is a free slot
    kind = ProtocolKind("trilemma-unsync",
                        ProtocolParams(n=3, l_max=21, beta=0.5))
    view = View(frozenset({1}))
    outcome = sample_outcome(arm(kind, _pair(3), 0, view), random.Random(0),
                             key)
    rounds = [2, 6, 7, 8, 10, 12, 13, 15, 16, 18, 19, 20, 22, 25, 26, 27,
              30, 32, 36, 37, 38, 39]
    assert outcome[1] == tuple((t, 1) for t in rounds)
    stream = hashlib.shake_128(key + b"c" + (1).to_bytes(8, "little"))
    words = struct.unpack("<41Q", stream.digest(328))
    assert rounds == [t for t, w in zip(range(1, 42), words)
                      if (w >> 11) * 2 ** -53 < 0.5]
    # a full onion draw picks each path from the firing user's own stream,
    # over l_max + l_exp - 1 = 12 rounds
    kind = ProtocolKind("onion-path", ProtocolParams(
        n=3, l_max=10, l_exp=3, beta=0.5, relays=4))
    outcome = sample_outcome(arm(kind, _pair(3), 0), random.Random(0), key)
    assert [x for x in outcome[1] if x[0][1] == 1] == [
        ((2, 1), (3, 1)), ((6, 1), (3, 0)), ((7, 1), (2, 3)),
        ((8, 1), (1, 2)), ((10, 1), (3, 1)), ((12, 1), (2, 3))]
