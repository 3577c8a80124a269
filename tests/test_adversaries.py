import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acnbounds.adversaries import (AttackKind, counting_attack, decide,
                                   dropping_attack, dropping_success_rate,
                                   random_guess_attack, timing_attack,
                                   timing_decide, tracing_attack,
                                   tracing_decide, validate_attack)
from acnbounds.core import (DELIVER, FORWARD, KIND_ORDER, SEND,
                            AdversaryCapability, CapabilityError,
                            Communication, ObservationEvent, ObservationTrace,
                            ProtocolParams, filter_trace, make_batch,
                            relay_loc)
from acnbounds.game import exact_advantage
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import (ProtocolKind, arm, build_trace,
                                 enumerate_outcomes)
from test_exact_route import PINNED, pinned_cases

SO = parse_notion("SO")


def _pair(n, rows=None):
    if rows is None:
        b0 = make_batch([Communication(0, n - 1, 0)])
        b1 = make_batch([Communication(1, n - 1, 0)])
    else:
        b0, b1 = (make_batch(r) for r in rows)
    return ScenarioPair(b0, b1, SO)


def _decide(attack, kind, pair, b, outcome):
    trace = filter_trace(build_trace(arm(kind, pair, b), outcome,
                                     attack.capability), attack.capability)
    return decide(attack, trace, pair, kind.params)


def test_timing_attack_is_perfect_without_noise():
    params = ProtocolParams(n=4, l_max=2)
    kind = ProtocolKind("trilemma-unsync", params)
    pair = _pair(4)
    attack = timing_attack(4)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) == b


def test_timing_attack_abstains_when_both_suspects_sent():
    params = ProtocolParams(n=2, l_max=2, beta=1.0)
    kind = ProtocolKind("trilemma-unsync", params)
    pair = _pair(2)
    attack = timing_attack(2)
    votes = {_decide(attack, kind, pair, 0, o)
             for _, o in enumerate_outcomes(kind, pair, 0)}
    assert votes == {None}


def test_timing_attack_uses_id_linkage_at_unit_latency():
    params = ProtocolParams(n=2, l_max=1, beta=1.0)
    kind = ProtocolKind("trilemma-unsync", params)
    pair = _pair(2)
    attack = timing_attack(2)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            # cover floods both windows, yet the kept id still convicts
            assert _decide(attack, kind, pair, b, outcome) == b


def test_timing_attack_is_certain_at_unit_latency_under_sync_cover():
    # cover cannot help when delivery is direct: the kept id convicts
    params = ProtocolParams(n=2, l_max=1, beta=0.5)
    kind = ProtocolKind("trilemma-sync", params)
    pair = _pair(2)
    attack = timing_attack(2)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) == b


def test_tracing_attack_follows_fully_exposed_paths():
    params = ProtocolParams(n=3, l_max=3, relays=3, l_exp=2)
    kind = ProtocolKind("onion-path", params)
    pair = _pair(3)
    attack = tracing_attack(3, c_p=3)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) == b


def test_tracing_attack_mixes_paths_and_timing():
    # one relay corrupted out of three: 1/3 traced outright, timing otherwise
    params = ProtocolParams(n=2, l_max=2, relays=3, l_exp=2, beta=0.5)
    kind = ProtocolKind("onion-path", params)
    pair = _pair(2)
    attack = tracing_attack(2, c_p=1)
    got = exact_advantage(kind, attack, pair)
    assert got == Fraction(1, 3) + Fraction(2, 3) * Fraction(1, 2)


def test_counting_attack_excludes_short_senders():
    rows = ([Communication(0, 3, 0), Communication(0, 3, 1)],
            [Communication(0, 3, 0), Communication(1, 3, 1)])
    pair = _pair(4, rows=rows)
    params = ProtocolParams(n=4, l_max=2)
    kind = ProtocolKind("trilemma-unsync", params)
    attack = counting_attack(4)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) == b


def test_counting_attack_tolerates_extra_noise_sends():
    # noise can only add sends, so the true scenario is never excluded
    rows = ([Communication(0, 3, 0), Communication(0, 3, 1)],
            [Communication(0, 3, 0), Communication(1, 3, 1)])
    pair = _pair(4, rows=rows)
    params = ProtocolParams(n=4, l_max=2, beta=0.5)
    kind = ProtocolKind("trilemma-unsync", params)
    attack = counting_attack(4)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) in (b, None)


def test_counting_attack_abstains_on_equal_volumes():
    params = ProtocolParams(n=3, l_max=2)
    kind = ProtocolKind("broadcast-full-dummy", params)
    pair = _pair(3)
    attack = counting_attack(3)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) is None


def test_dropping_attack_reads_silence_as_guilt():
    params = ProtocolParams(n=3, l_max=1, relays=4, copies=2)
    kind = ProtocolKind("dropping-model", params)
    pair = _pair(3)
    attack = dropping_attack(3)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert _decide(attack, kind, pair, b, outcome) == b


def test_dropping_success_rate_cases():
    assert dropping_success_rate(c_a=0, copies=2, pool=4) == 1.0
    assert dropping_success_rate(c_a=1, copies=2, pool=4) == 0.0
    assert dropping_success_rate(c_a=2, copies=2, pool=4) == pytest.approx(1 / 6)
    assert dropping_success_rate(c_a=4, copies=2, pool=4) == 1.0
    with pytest.raises(ValueError, match="pool"):
        dropping_success_rate(c_a=9, copies=2, pool=4)


def test_dropping_success_rate_matches_the_simulator():
    params = ProtocolParams(n=3, l_max=1, relays=4, copies=2)
    kind = ProtocolKind("dropping-model", params)
    pair = _pair(3)
    attack = dropping_attack(3, c_a=2)
    # partial relay control: advantage equals the kill probability
    assert exact_advantage(kind, attack, pair) == Fraction(1, 6)
    assert dropping_success_rate(2, 2, 4) == pytest.approx(1 / 6)


def test_integrated_link_cut_can_wrongly_accuse_the_target():
    # first hops are users, so the target forwards other people's copies;
    # cutting its link kills those too and silence stops proving guilt
    attack = dropping_attack(4, c_a=0)
    single = ProtocolKind("dropping-model", ProtocolParams(
        n=4, l_max=1, relays=4, copies=1, integrated=True))
    assert exact_advantage(single, attack, _pair(4)) == Fraction(3, 4)
    # two distinct first hops cannot both be the target
    double = ProtocolKind("dropping-model", ProtocolParams(
        n=4, l_max=1, relays=4, copies=2, integrated=True))
    assert exact_advantage(double, attack, _pair(4)) == 1
    # dedicated relays never route the alternative over the target
    service = ProtocolKind("dropping-model", ProtocolParams(
        n=4, l_max=1, relays=4, copies=1))
    assert exact_advantage(service, attack, _pair(4)) == 1


def test_tracing_without_compromised_relays_equals_timing():
    params = ProtocolParams(n=2, l_max=2, relays=3, l_exp=2, beta=0.5)
    kind = ProtocolKind("onion-path", params)
    pair = _pair(2)
    blind = tracing_attack(2, c_p=0)
    plain = timing_attack(2)
    for b in (0, 1):
        for _, outcome in enumerate_outcomes(kind, pair, b):
            assert (_decide(blind, kind, pair, b, outcome)
                    == _decide(plain, kind, pair, b, outcome))


def test_tracing_follows_two_hop_paths():
    # walk succeeds only when both relays on the path are compromised,
    # C(c_p,2)/C(3,2) of the time; otherwise timing convicts unless the
    # alternative fires noise into the window, (1-p)^2 of the time
    from acnbounds.game import estimate_advantage
    params = ProtocolParams(n=2, l_max=3, relays=3, l_exp=3, beta=0.5)
    kind = ProtocolKind("onion-path", params)
    pair = _pair(2)
    for c_p, hit in ((1, 0.0), (2, 1 / 3)):
        want = hit + (1 - hit) * 0.25
        est = estimate_advantage(kind, tracing_attack(2, c_p), pair,
                                 trials=40000, master_seed=7)
        assert est.ci_low <= want <= est.ci_high, (c_p, est)


def test_random_guess_always_abstains():
    params = ProtocolParams(n=2, l_max=2)
    kind = ProtocolKind("trilemma-unsync", params)
    pair = _pair(2)
    attack = random_guess_attack()
    assert exact_advantage(kind, attack, pair) == 0


def test_capability_gates():
    params = ProtocolParams(n=4, l_max=2)
    pair = _pair(4)
    # counting reads sends only, so watched links without the receiver
    # side are enough
    validate_attack(AttackKind("counting", AdversaryCapability(
        observed_senders=frozenset(range(4)))), pair, params)
    cases = [
        AttackKind("counting", AdversaryCapability()),
        AttackKind("timing-interval", AdversaryCapability(
            observed_senders=frozenset(range(4)))),
        AttackKind("timing-interval", AdversaryCapability(
            observed_senders=frozenset({0, 2}), receiver_corrupted=True)),
        AttackKind("dropping", AdversaryCapability(
            observed_senders=frozenset(range(4)), receiver_corrupted=True)),
    ]
    for attack in cases:
        with pytest.raises(CapabilityError):
            validate_attack(attack, pair, params)
    with pytest.raises(ValueError):
        AttackKind("rubber-hose", AdversaryCapability())


def test_wire_only_counting_gets_the_stock_advantage():
    key = ("trilemma-unsync", "counting")
    kind, stock, pair = pinned_cases()[key]
    wire = AttackKind("counting", AdversaryCapability(
        observed_senders=stock.capability.observed_senders))
    assert not wire.capability.receiver_corrupted
    assert exact_advantage(kind, wire, pair) == Fraction(PINNED[key])


@pytest.mark.parametrize("c_a,active_drop", [(2, False), (1, True)],
                         ids=["controlled-relays", "dropping"])
def test_path_tracing_is_passive(c_a, active_drop):
    # a tracer's chain through controlled relays or past its own drops
    # would need events that no view holds
    params = ProtocolParams(n=4, l_max=3, relays=3)
    attack = AttackKind("path-tracing", AdversaryCapability(
        observed_senders=frozenset(range(4)), receiver_corrupted=True,
        c_p=1, c_a=c_a, active_drop=active_drop))
    with pytest.raises(CapabilityError, match="passive"):
        validate_attack(attack, _pair(4), params)


def test_constructors_pass_validation():
    params = ProtocolParams(n=4, l_max=2)
    pair = _pair(4)
    for attack in (counting_attack(4), timing_attack(4),
                   tracing_attack(4, 1), dropping_attack(4),
                   random_guess_attack()):
        validate_attack(attack, pair, params)


# ------------------------------------- the timing rule against two passes

def _two_pass_arrival(trace, pair):
    msg = pair.challenge_message()
    recv = pair.challenge_receiver()
    for e in trace.events:
        if e.kind == DELIVER and e.location == recv and e.msg == msg:
            return e
    return None


def _two_pass_timing(trace, pair, params, arrival):
    """The timing rule as a second pass over the whole trace, after the
    pass that finds the arrival."""
    if arrival is None:
        return None
    s0, s1 = pair.suspects()
    packet = arrival.packet
    lo = arrival.round - params.l_max + 1
    hi = arrival.round - 1
    in_window = [False, False]
    for e in trace.events:
        if e.kind != SEND:
            continue
        if e.location == s0:
            who = 0
        elif e.location == s1:
            who = 1
        else:
            continue
        if e.packet == packet:
            return who
        if lo <= e.round <= hi:
            in_window[who] = True
    if in_window[0] != in_window[1]:
        return 0 if in_window[0] else 1
    return None


def _two_pass_tracing(trace, pair, params):
    arrival = _two_pass_arrival(trace, pair)
    if arrival is None:
        return None
    s0, s1 = pair.suspects()
    by_packet = {e.packet: e for e in trace.events if e.kind != DELIVER}
    cur = arrival.in_packet
    for _ in range(len(trace.events)):
        if cur is None:
            break
        e = by_packet.get(cur)
        if e is None:
            break
        if e.kind == SEND:
            if e.location == s0:
                return 0
            if e.location == s1:
                return 1
            break
        cur = e.in_packet
    return _two_pass_timing(trace, pair, params, arrival)


_ROUNDS = st.integers(1, 8)


@st.composite
def _sorted_traces(draw):
    """A trace of the one-row pair (suspects 0 and 1, receiver 3, payload
    0), sorted as `build_trace` sorts one and with its id rules: each event
    has an id of its own, except that a direct delivery shares its send's
    id in the send's round, and a forward or delivery links back to an
    earlier packet."""
    ids = itertools.count()
    # sends of the suspects, a bystander (2) and the receiver, in any
    # round, so also after the arrival
    sends = [ObservationEvent(SEND, t, u, next(ids))
             for t, u in draw(st.lists(st.tuples(_ROUNDS, st.integers(0, 3)),
                                       max_size=8))]
    events = list(sends)
    # deliveries that are not the challenge arrival
    for t, u, m in draw(st.lists(st.tuples(_ROUNDS, st.integers(2, 3),
                                           st.integers(0, 1)), max_size=3)):
        if (u, m) != (3, 0):
            events.append(ObservationEvent(DELIVER, t, u, next(ids), True,
                                           None, None, m))
    how = draw(st.sampled_from(["none", "fresh", "direct", "chain"]))
    if how in ("direct", "chain") and not sends:
        how = "fresh"
    arrival = None
    if how == "fresh":
        arrival = draw(_ROUNDS), next(ids), None
    elif how == "direct":
        # as at l_max = 1: the delivery keeps its send's id
        s = draw(st.sampled_from(sends))
        arrival = s.round, s.packet, s.packet
    elif how == "chain":
        s = draw(st.sampled_from(sends))
        t, prev, origin = s.round, s.packet, s.location
        for k in range(draw(st.integers(0, 2))):
            t, q = t + 1, next(ids)
            # a hop at an honest relay is not in the trace, so the chain
            # is lost there
            if draw(st.booleans()):
                events.append(ObservationEvent(FORWARD, t, relay_loc(k), q,
                                               None, origin, prev))
            prev, origin = q, relay_loc(k)
        arrival = t + 1, next(ids), prev
    if arrival is not None:
        t, q, inq = arrival
        events.append(ObservationEvent(DELIVER, t, 3, q, True, None, inq, 0))
        if draw(st.booleans()):
            # the payload again, later: only the first arrival counts
            events.append(ObservationEvent(DELIVER, t + draw(st.integers(0, 2)),
                                           3, next(ids), True, None, None, 0))
    events.sort(key=lambda e: (e.round, KIND_ORDER[e.kind], e.location,
                               e.packet))
    return ObservationTrace(tuple(events))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(trace=_sorted_traces(), l_max=st.integers(1, 4))
def test_one_pass_timing_equals_the_two_pass_rule(trace, l_max):
    pair, params = _pair(4), ProtocolParams(n=4, l_max=l_max)
    cap = tracing_attack(4, 2).capability
    assert (timing_decide(trace, pair, params, cap)
            == _two_pass_timing(trace, pair, params,
                                _two_pass_arrival(trace, pair)))
    assert (tracing_decide(trace, pair, params, cap)
            == _two_pass_tracing(trace, pair, params))
