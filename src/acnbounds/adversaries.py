"""Concrete attacks that turn an observed trace into a guess.

Every attack is a pure decision rule over the filtered trace: it returns
0 or 1 when the observation pins down the scenario, and None when the view
is consistent with both (the game layer then flips a fair coin).  Keeping
ties explicit instead of guessing internally is what lets the exact
enumeration route assign them probability one half.

Attacks never look at unfiltered state.  What they may use is declared in
their AdversaryCapability, and `validate_attack` rejects pair/attack
combinations whose decision rule would need more than the capability
grants.

Each rule also declares the events it reads: `attack_view`, next to
`decide`, gives them as a `core.View` already cut down to the capability,
and the game asks `build_trace` for that view alone.  A rule compares
packet ids only for equality, so the verdict on the view's few events,
relabelled among themselves, equals the verdict on the full filtered
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import (DELIVER, SEND, AdversaryCapability, CapabilityError,
                   View, sender_counts)

COUNTING = "counting"
TIMING = "timing-interval"
TRACING = "path-tracing"
DROP_ATTACK = "dropping"
RANDOM_GUESS = "random-guess"

ATTACKS = (COUNTING, TIMING, TRACING, DROP_ATTACK, RANDOM_GUESS)


@dataclass(frozen=True)
class AttackKind:
    variant: str
    capability: AdversaryCapability

    def __post_init__(self):
        if self.variant not in ATTACKS:
            raise ValueError(f"unknown attack {self.variant!r}")


def counting_attack(n: int) -> AttackKind:
    """Global send counter: excludes scenarios that claim more sends from a
    user than were observed."""
    return AttackKind(COUNTING, AdversaryCapability(
        observed_senders=frozenset(range(n)), receiver_corrupted=True))


def timing_attack(n: int) -> AttackKind:
    """Watches all send links plus the challenge receiver and intersects
    arrival times with the possible transit window."""
    return AttackKind(TIMING, AdversaryCapability(
        observed_senders=frozenset(range(n)), receiver_corrupted=True))


def tracing_attack(n: int, c_p: int) -> AttackKind:
    """Timing attack that additionally follows packets through the first
    c_p compromised relays."""
    return AttackKind(TRACING, AdversaryCapability(
        observed_senders=frozenset(range(n)), receiver_corrupted=True,
        c_p=c_p))


def dropping_attack(n: int, c_a: int = 0) -> AttackKind:
    """Active attack that kills the target's packets and watches whether
    the expected message still arrives.  c_a = 0 means full control over
    the target's own link; c_a >= 1 means control over that many relays
    instead."""
    return AttackKind(DROP_ATTACK, AdversaryCapability(
        observed_senders=frozenset(range(n)), receiver_corrupted=True,
        c_a=c_a, active_drop=True))


def random_guess_attack() -> AttackKind:
    return AttackKind(RANDOM_GUESS, AdversaryCapability())


def validate_attack(attack: AttackKind, pair, params) -> None:
    """Raise CapabilityError if the attack cannot legally run on this pair."""
    cap = attack.capability
    v = attack.variant
    if v == COUNTING:
        # the rule counts sends only, so the receiver side is not needed
        if not cap.observed_senders:
            raise CapabilityError("counting needs at least one watched sender")
    elif v in (TIMING, TRACING):
        if not cap.receiver_corrupted:
            raise CapabilityError("timing needs the challenge receiver")
        s0, s1 = pair.suspects()
        if s0 not in cap.observed_senders or s1 not in cap.observed_senders:
            raise CapabilityError("timing needs both suspects' links watched")
        if v == TRACING and (cap.c_a or cap.active_drop):
            # an active tracer's chain could pass drops and controlled
            # relays, which no view holds
            raise CapabilityError("path tracing is passive: it takes no "
                                  "controlled relays or drops")
        # relays=0 is a model without a relay pool, where tracing plays as
        # timing; the CLI reads --cp only where the protocol reads --relays
        if v == TRACING and 0 < params.relays < cap.c_p:
            raise CapabilityError(f"path tracing compromises c_p={cap.c_p} "
                                  f"relays, but there are only "
                                  f"{params.relays}")
    elif v == DROP_ATTACK:
        if not (cap.active_drop and cap.receiver_corrupted):
            raise CapabilityError("dropping needs active control and the "
                                  "receiver")
        # as for tracing, relays=0 is a model without a relay pool
        pool = params.first_hops
        if 0 < pool < cap.c_a:
            raise CapabilityError(f"dropping controls c_a={cap.c_a} first "
                                  f"hops, but the pool has only {pool}")
        pair.suspects()


def counting_decide(trace, pair, params, cap):
    observed = cap.observed_senders
    seen = {}
    for e in trace.events:
        if e.kind == SEND:
            seen[e.location] = seen.get(e.location, 0) + 1
    alive = []
    for b in (0, 1):
        claims = sender_counts(pair.batch(b))
        # a scenario survives unless some watched user sent too little for it
        if all(seen.get(u, 0) >= c for u, c in claims.items() if u in observed):
            alive.append(b)
    if len(alive) == 1:
        return alive[0]
    return None


def _timing_scan(trace, pair, params):
    """(arrival, verdict): the challenge arrival (None if it is not in the
    trace) and the timing verdict on it (None for a tie).

    One pass, which stops at the arrival.  A trace is sorted by round with
    sends before deliveries within a round, so every send the rule reads
    comes before the arrival: a send in its transit window is in an
    earlier round, and a direct delivery's send, which shares its packet
    id, is in the same one.  Later sends lie past the window.
    """
    msg = pair.challenge_message()
    recv = pair.challenge_receiver()
    s0, s1 = pair.suspects()
    # the suspects' sends so far, as (who, round, packet)
    sent = []
    for e in trace.events:
        kind, t, loc, q, _, _, _, m = e
        if kind == SEND:
            if loc == s0:
                sent.append((0, t, q))
            elif loc == s1:
                sent.append((1, t, q))
        elif kind == DELIVER and loc == recv and m == msg:
            break
    else:
        return None, None
    # e is the arrival
    packet = e.packet
    lo = e.round - params.l_max + 1
    hi = e.round - 1
    in_window = [False, False]
    for who, t, q in sent:
        # direct delivery keeps the packet id, which identifies the sender
        if q == packet:
            return e, who
        if lo <= t <= hi:
            in_window[who] = True
    if in_window[0] != in_window[1]:
        return e, 0 if in_window[0] else 1
    return e, None


def timing_decide(trace, pair, params, cap):
    return _timing_scan(trace, pair, params)[1]


def tracing_decide(trace, pair, params, cap):
    arrival, timing = _timing_scan(trace, pair, params)
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
            break  # chain passes an honest relay, lost
        if e.kind == SEND:
            if e.location == s0:
                return 0
            if e.location == s1:
                return 1
            break
        cur = e.in_packet
    # the chain is lost: fall back to timing from the same arrival
    return timing


def dropping_decide(trace, pair, params, cap):
    # the target (scenario-1 suspect) was strangled: silence convicts it
    return 0 if _timing_scan(trace, pair, params)[0] is not None else 1


def decide(attack: AttackKind, trace, pair, params):
    v = attack.variant
    if v == COUNTING:
        return counting_decide(trace, pair, params, attack.capability)
    if v == TIMING:
        return timing_decide(trace, pair, params, attack.capability)
    if v == TRACING:
        return tracing_decide(trace, pair, params, attack.capability)
    if v == DROP_ATTACK:
        return dropping_decide(trace, pair, params, attack.capability)
    if v == RANDOM_GUESS:
        return None
    raise ValueError(v)  # pragma: no cover


def attack_view(attack: AttackKind, pair):
    """The events `decide` reads for this attack and pair, as a View within
    what the capability sees.

    timing    the two suspects' sends and the challenge receiver's
              deliveries, cover sends only in the rounds that the
              transit windows of the outcome's own arrivals can reach
              (`window`)
    tracing   the same, plus batch rows' forwards at the relays the
              capability sees
    counting  sends of the watched users that either batch claims, in
              every round
    dropping  the challenge receiver's deliveries

    Tracing walks back from the challenge delivery's `in_packet`, and each
    hop of that chain is a batch row's packet: a cover packet never feeds a
    delivery, so its forwards are in no view (see `core.View`).  Tracing is
    passive (`validate_attack`), so the chain passes no drop.  The window
    is a flag, not rounds, so the view stays free of params: `protocols.arm`
    resolves it from the arm's schedule and each outcome's delays.
    """
    cap = attack.capability
    v = attack.variant
    if v == RANDOM_GUESS:
        return View()
    if v == COUNTING:
        claimed = set(sender_counts(pair.batch(0)))
        claimed.update(sender_counts(pair.batch(1)))
        return View(senders=frozenset(claimed) & cap.observed_senders)
    receivers = (frozenset([pair.challenge_receiver()])
                 if cap.receiver_corrupted else frozenset())
    if v == DROP_ATTACK:
        return View(receivers=receivers)
    senders = frozenset(pair.suspects()) & cap.observed_senders
    # the chain is followed through the passively compromised relays, and
    # cover sends matter only within reach of the arrival's transit window
    return View(senders, cap.c_p if v == TRACING else 0, receivers,
                window=True)


def dropping_success_rate(c_a: int, copies: int, pool: int,
                          integrated: bool = False):
    """The dropping attack's advantage: the chance that its drops kill
    every copy of the target's message, less the chance that they kill
    every copy of an innocent sender's.  Each message goes out as `copies`
    copies with distinct first hops, a uniform subset of the pool.

    Relay control (c_a >= 1) drops only the target's copies, and only at
    its c_a relays, so it wins with comb(c_a, copies) / comb(pool, copies).
    Link control (c_a = 0) kills every copy the target sends.  With
    dedicated relays that always wins.  In the integrated model the first
    hops are users, so the cut link also swallows an innocent copy whose
    first hop is the target: the innocent message is lost, and its silence
    accuses the target, when all of its first hops are the target.  A
    subset of distinct hops lies inside that one node with chance
    comb(1, copies) / comb(pool, copies), i.e. 1/pool for a single copy
    and 0 for two or more, so link control wins with one minus that."""
    if c_a > pool:
        raise ValueError(f"c_a={c_a} exceeds the first-hop pool of {pool}")
    if c_a == 0 and integrated:
        return 1 - comb(1, copies) / comb(pool, copies)
    if c_a == 0:
        return 1.0
    if c_a < copies:
        return 0.0
    return comb(c_a, copies) / comb(pool, copies)
