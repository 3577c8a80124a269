"""Toy protocol models producing adversary-observable traces.

Each model answers one question: given a challenge pair and a secret bit b,
what does the network do, and which part of that can a given adversary see.
The models are deliberately small; they exist so that closed-form bounds
have something concrete to be checked against.

Shared conventions:

* Rounds are integers starting at 1.  Batch rows enter the network at
  t0 = l_max (simultaneous batches all at t0, slotted models one row per
  round from t0 on), which leaves room below t0 for every transit window
  an attack may inspect.
* Transit delay is uniform on {1, ..., l_max-1} rounds.  l_max = 1 means
  direct same-round delivery and the delivered packet keeps its id; any
  longer path re-randomizes ids, so linkage exists only via timing.
* `build_trace` emits each event as a raw row, sorts the rows once in
  trace order and then relabels packet ids by first mention (`packet`
  before `in_packet`, over the full sorted trace, before any filtering),
  building each event exactly once.  Ids are therefore a function of the
  visible geometry of the trace, never of internal construction order, and
  cannot act as a side channel for the challenge bit.
* Cover traffic is modeled on the sending side only.  Dummy packets are
  absorbed unobserved at the far end; receiver-side dummy handling is out
  of scope here.

Randomness is split three ways so Monte Carlo and exact enumeration share
one code path: `sample_outcome` draws a hashable outcome, `enumerate_outcomes`
lists every (probability, outcome) pair with exact fractions, and
`build_trace` deterministically turns an outcome into events.  Enumeration
gives each random axis integer weights over its own denominator, so every
leaf of an arm shares one denominator, a leaf's weight is an int product,
and each distinct probability becomes a Fraction once per start order.
All three read an arm's schedule from `_schedule`, which is computed once
per arm and start order and raises ConfigError for a schedule the model
cannot run; `check_schedule` evaluates it before a game plays its first
trial.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .core import (DELIVER, DROP, FORWARD, KIND_ORDER, NO_COMM, RANDOM_PERM,
                   SEND, CapabilityError, ConfigError, ObservationEvent,
                   ObservationTrace, ResourceLimitError, filter_trace,
                   hash_once, relay_loc)

TRILEMMA_SYNC = "trilemma-sync"
TRILEMMA_UNSYNC = "trilemma-unsync"
ONION_PATH = "onion-path"
THRESHOLD_MIX = "threshold-mix"
DCNET = "dcnet-round"
BROADCAST = "broadcast-full-dummy"
DROPPING = "dropping-model"

VARIANTS = (TRILEMMA_SYNC, TRILEMMA_UNSYNC, ONION_PATH, THRESHOLD_MIX,
            DCNET, BROADCAST, DROPPING)

# slotted models place one batch row per round; the rest send simultaneously
_SLOTTED = (TRILEMMA_SYNC, DCNET)

ENUM_LIMIT = 2_000_000


@hash_once
@dataclass(frozen=True)
class ProtocolKind:
    variant: str
    params: ProtocolParams

    def __post_init__(self):
        v, p = self.variant, self.params
        if v not in VARIANTS:
            raise ConfigError(f"unknown protocol variant {v!r}")
        if v == ONION_PATH:
            if p.relays < 1:
                raise ConfigError("onion routing needs at least one relay")
            if p.relays < p.l_exp - 1:
                raise ConfigError("path needs l_exp-1 distinct relays")
        if v == THRESHOLD_MIX and p.threshold < 1:
            raise ConfigError("threshold mix needs threshold >= 1")
        if v == DROPPING:
            pool = p.n if p.integrated else p.relays
            if pool < p.copies:
                raise ConfigError("need at least `copies` distinct first hops")


def _num_dummies(params) -> int:
    # synchronized cover: floor(beta*n) users join each communication round
    return min(int(params.beta * params.n), params.n - 1)


def _slots(kind: ProtocolKind, batch, perm):
    t0 = kind.params.l_max
    out = []
    for j, row in enumerate(batch.rows):
        if row is NO_COMM:
            out.append(None)
        elif kind.variant in _SLOTTED or batch.mode == RANDOM_PERM:
            out.append(t0 + (perm[j] if perm is not None else j))
        else:
            out.append(t0)
    return tuple(out)


def _max_delay(kind: ProtocolKind) -> int:
    v, p = kind.variant, kind.params
    if v in (TRILEMMA_SYNC, TRILEMMA_UNSYNC):
        return p.l_max - 1
    if v == ONION_PATH:
        return p.l_exp - 1
    if v == THRESHOLD_MIX:
        return 1
    if v == BROADCAST:
        return 1
    return 0


def _horizon(kind: ProtocolKind, batch) -> int:
    if kind.variant == DROPPING:
        needed = 3
    else:
        t0 = kind.params.l_max
        span = len(batch.rows) - 1 if (kind.variant in _SLOTTED or
                                       batch.mode == RANDOM_PERM) else 0
        needed = t0 + span + _max_delay(kind)
    if kind.params.rounds is not None:
        if kind.params.rounds < needed:
            raise ConfigError(f"rounds={kind.params.rounds} too short, "
                              f"need at least {needed}")
        return kind.params.rounds
    return needed


def _noise_slots(kind: ProtocolKind, batch, slots, horizon):
    """(round, user) pairs free for cover traffic, in draw order."""
    busy = {}
    for j, row in enumerate(batch.rows):
        if slots[j] is not None:
            busy.setdefault(slots[j], set()).add(row.sender)
    out = []
    for t in range(1, horizon + 1):
        occupied = busy.get(t, ())
        for u in range(kind.params.n):
            if u not in occupied:
                out.append((t, u))
    return tuple(out)


# models whose cover traffic is one draw per free (round, user) slot
_SLOT_NOISE = (TRILEMMA_UNSYNC, ONION_PATH)


@functools.lru_cache(maxsize=64)
def _schedule(kind: ProtocolKind, batch, perm):
    """(slots, horizon, noise_slots) of one arm under one start order.

    A pure function of frozen arguments, cached so a trial loop computes
    it once per arm and permutation instead of once per trial.  Raises
    ConfigError for a schedule the model cannot run.
    """
    slots = _slots(kind, batch, perm)
    if (kind.variant == THRESHOLD_MIX
            and sum(s is not None for s in slots) < kind.params.threshold):
        raise ConfigError("fewer scheduled messages than the threshold, "
                          "the mix would never flush")
    horizon = _horizon(kind, batch)
    noise = (_noise_slots(kind, batch, slots, horizon)
             if kind.variant in _SLOT_NOISE else ())
    return slots, horizon, noise


def check_schedule(kind: ProtocolKind, pair) -> None:
    """Raise ConfigError if either arm's schedule cannot run, so a bad
    threshold or a too-short horizon fails before the first trial."""
    for b in (0, 1):
        # neither check depends on the start order
        _schedule(kind, pair.batch(b), None)


def _delay_choices(kind: ProtocolKind):
    if kind.params.l_max == 1:
        return (0,)
    return tuple(range(1, kind.params.l_max))


def _needs_perm(kind: ProtocolKind, batch) -> bool:
    return batch.mode == RANDOM_PERM and kind.variant != DROPPING


# ---------------------------------------------------------------- sampling

def sample_outcome(kind: ProtocolKind, pair, b: int, rng: random.Random):
    """Draw one random outcome.  The draw order is fixed: permutation,
    then per-row randomness in row order, then cover traffic in slot order.
    """
    batch = pair.batch(b)
    params = kind.params
    v = kind.variant
    perm = tuple(rng.sample(range(len(batch.rows)), len(batch.rows))) \
        if _needs_perm(kind, batch) else None
    slots, _, free = _schedule(kind, batch, perm)

    if v == TRILEMMA_UNSYNC:
        delays = tuple(None if s is None else rng.choice(_delay_choices(kind))
                       for s in slots)
        p = params.p
        draw = rng.random
        fired = tuple([sl for sl in free if draw() < p])
        return (perm, delays, fired)

    if v == TRILEMMA_SYNC:
        delays = tuple(None if s is None else rng.choice(_delay_choices(kind))
                       for s in slots)
        d = _num_dummies(params)
        cohorts = []
        for j, row in enumerate(batch.rows):
            if slots[j] is None:
                continue
            others = [u for u in range(params.n) if u != row.sender]
            cohorts.append((slots[j], tuple(sorted(rng.sample(others, d)))))
        return (perm, delays, tuple(cohorts))

    if v == ONION_PATH:
        h = params.l_exp - 1
        paths = tuple(None if s is None else tuple(rng.sample(range(params.relays), h))
                      for s in slots)
        p = params.p
        noise = []
        for sl in free:
            if rng.random() < p:
                noise.append((sl, tuple(rng.sample(range(params.relays), h))))
        return (perm, paths, tuple(noise))

    if v == DROPPING:
        pool = range(params.n) if params.integrated else range(params.relays)
        paths = tuple(None if row is NO_COMM
                      else tuple(sorted(rng.sample(pool, params.copies)))
                      for row in batch.rows)
        return (None, paths)

    # threshold mix, dc-net and broadcast are deterministic given the schedule
    return (perm,)


# ------------------------------------------------------------- enumeration

def _guard(count: int):
    if count > ENUM_LIMIT:
        raise ResourceLimitError(f"outcome space has {count} leaves, "
                                 f"limit is {ENUM_LIMIT}")


# An axis is one independent draw written as (denominator, [(weight,
# value), ...]) with positive integer weights that sum to the denominator.
# A leaf's probability is then an integer product over one denominator per
# start order, so the walk multiplies ints instead of Fractions.

# a row with nothing to draw
_FIXED = (1, [(1, None)])


def _uniform(values):
    values = list(values)
    return len(values), [(1, x) for x in values]


def _bernoulli(p: Fraction, on):
    """None with probability 1-p, else `on`; zero branches are pruned."""
    pn, pd = p.numerator, p.denominator
    return pd, [(w, x) for w, x in ((pd - pn, None), (pn, on)) if w]


def _weighted_product(axes, scale):
    """Every combination of one value per axis, in `itertools.product`
    order, as (probability, values) with the probability over `scale`
    times the axes' denominators.  Each distinct Fraction is built once."""
    den = scale
    for d, _ in axes:
        den *= d
    made = {}
    weights = itertools.product(*[[w for w, _ in opts] for _, opts in axes])
    values = itertools.product(*[[x for _, x in opts] for _, opts in axes])
    for ws, xs in zip(weights, values):
        num = prod(ws)
        prob = made.get(num)
        if prob is None:
            prob = made[num] = Fraction(num, den)
        yield prob, xs


def _fired(values):
    # cover draws that fired; the values are non-empty tuples, so truthy
    return tuple(filter(None, values))


def enumerate_outcomes(kind: ProtocolKind, pair, b: int):
    """Every (probability, outcome) with exact Fraction probabilities.

    Mirrors `sample_outcome` exactly; zero-probability branches are pruned
    so degenerate parameters (p of 0 or 1) stay cheap.  Each axis carries
    integer weights over its own denominator (a delay weighs 1 of
    len(delays), a cover draw pd-pn off and pn on of pd, an onion slot
    (pd-pn)*npaths off and pn per path of pd*npaths; cohorts, dropping
    paths and start orders weigh 1), so all leaves of an arm share one
    denominator and a leaf's weight is an integer product.
    """
    batch = pair.batch(b)
    params = kind.params
    v = kind.variant

    perm_choices = list(itertools.permutations(range(len(batch.rows)))) \
        if _needs_perm(kind, batch) else [None]
    nperm = len(perm_choices)

    results = []
    add = results.append
    for perm in perm_choices:
        slots, _, free = _schedule(kind, batch, perm)
        k = len(slots)

        if v == TRILEMMA_UNSYNC:
            dchoices = _delay_choices(kind)
            p = Fraction(params.p)
            live = len(dchoices) ** sum(1 for s in slots if s is not None)
            if 0 < p < 1:
                live *= 2 ** len(free)
            _guard(live * nperm)
            delay = _uniform(dchoices)
            axes = [delay if s is not None else _FIXED for s in slots]
            axes += [_bernoulli(p, sl) for sl in free]
            for prob, xs in _weighted_product(axes, nperm):
                add((prob, (perm, xs[:k], _fired(xs[k:]))))

        elif v == TRILEMMA_SYNC:
            dchoices = _delay_choices(kind)
            d = _num_dummies(params)
            sched = [(slots[j], row) for j, row in enumerate(batch.rows)
                     if slots[j] is not None]
            live = len(dchoices) ** len(sched)
            for _, row in sched:
                live *= comb(params.n - 1, d)
            _guard(live * nperm)
            delay = _uniform(dchoices)
            axes = [delay if s is not None else _FIXED for s in slots]
            for t, row in sched:
                others = [u for u in range(params.n) if u != row.sender]
                axes.append(_uniform((t, c) for c in
                                     itertools.combinations(others, d)))
            for prob, xs in _weighted_product(axes, nperm):
                add((prob, (perm, xs[:k], xs[k:])))

        elif v == ONION_PATH:
            h = params.l_exp - 1
            npaths = 1
            for i in range(h):
                npaths *= params.relays - i
            p = Fraction(params.p)
            live = npaths ** sum(1 for s in slots if s is not None)
            if 0 < p < 1:
                live *= (1 + npaths) ** len(free)
            elif p == 1:
                live *= npaths ** len(free)
            _guard(live * nperm)
            allpaths = list(itertools.permutations(range(params.relays), h))
            route = _uniform(allpaths)
            axes = [route if s is not None else _FIXED for s in slots]
            pn, pd = p.numerator, p.denominator
            for sl in free:
                opts = [((pd - pn) * npaths, None)]
                opts += [(pn, (sl, pt)) for pt in allpaths]
                axes.append((pd * npaths, [(w, x) for w, x in opts if w]))
            for prob, xs in _weighted_product(axes, nperm):
                add((prob, (perm, xs[:k], _fired(xs[k:]))))

        elif v == DROPPING:
            pool = range(params.n) if params.integrated else range(params.relays)
            per_row = comb(len(pool), params.copies)
            live = per_row ** sum(1 for row in batch.rows if row is not NO_COMM)
            _guard(live)
            first_hops = _uniform(itertools.combinations(pool, params.copies))
            axes = [first_hops if row is not NO_COMM else _FIXED
                    for row in batch.rows]
            for prob, xs in _weighted_product(axes, nperm):
                add((prob, (None, xs)))

        else:
            for prob, _ in _weighted_product([], nperm):
                add((prob, (perm,)))

    return results


# ---------------------------------------------------------------- building

# sort rank of each event kind, the second field of a raw row
_SEND, _FORWARD, _DROP, _DELIVER = (KIND_ORDER[k]
                                    for k in (SEND, FORWARD, DROP, DELIVER))


def build_trace(kind: ProtocolKind, pair, b: int, outcome,
                capability=None) -> ObservationTrace:
    """Deterministically expand an outcome into the full (unfiltered) trace.

    `capability` only matters for the dropping model, where an active
    adversary physically removes packets; everywhere else observation is
    passive and filtering happens afterwards.

    Events are emitted as raw rows `(round, kind order, location, packet,
    kind, is_real, origin, in_packet, msg)` with construction-order packet
    ids.  One sort in native tuple order puts them in trace order, then ids
    are relabeled by first mention and each event is built once.
    """
    batch = pair.batch(b)
    params = kind.params
    v = kind.variant
    slots, horizon, _ = _schedule(kind, batch, outcome[0])
    pid = itertools.count()
    ev = []

    def send(t, u, q, real, msg=None):
        ev.append((t, _SEND, u, q, SEND, real, None, None, msg))

    def forward(t, loc, q, origin, in_packet):
        ev.append((t, _FORWARD, loc, q, FORWARD, None, origin, in_packet,
                   None))

    def drop(t, loc, q):
        ev.append((t, _DROP, loc, q, DROP, None, None, None, None))

    def deliver(t, u, q, msg, in_packet=None):
        ev.append((t, _DELIVER, u, q, DELIVER, True, None, in_packet, msg))

    if v in (TRILEMMA_UNSYNC, TRILEMMA_SYNC):
        delays = outcome[1]
        for j, row in enumerate(batch.rows):
            if slots[j] is None:
                continue
            t, d = slots[j], delays[j]
            q = next(pid)
            send(t, row.sender, q, True, row.message)
            if d == 0:
                # direct delivery keeps the id: nothing re-randomized it
                deliver(t, row.receiver, q, row.message, in_packet=q)
            else:
                deliver(t + d, row.receiver, next(pid), row.message)
        if v == TRILEMMA_UNSYNC:
            # cover sends are most of a wide trace: one comprehension, no
            # call per row
            ev += [(t, _SEND, u, q, SEND, False, None, None, None)
                   for (t, u), q in zip(outcome[2], pid)]
        else:
            for (t, cohort) in outcome[2]:
                for u in cohort:
                    send(t, u, next(pid), False)

    elif v == ONION_PATH:
        paths = outcome[1]

        def emit(t, u, path, row):
            q = next(pid)
            send(t, u, q, row is not None, row.message if row else None)
            prev, ploc = q, u
            for i, k in enumerate(path, start=1):
                nq = next(pid)
                forward(t + i, relay_loc(k), nq, ploc, prev)
                prev, ploc = nq, relay_loc(k)
            if row is not None:
                if path:
                    deliver(t + len(path), row.receiver, next(pid),
                            row.message, in_packet=prev)
                else:
                    deliver(t, row.receiver, q, row.message, in_packet=q)

        for j, row in enumerate(batch.rows):
            if slots[j] is not None:
                emit(slots[j], row.sender, paths[j], row)
        for (t, u), path in outcome[2]:
            emit(t, u, path, None)

    elif v == THRESHOLD_MIX:
        held = []
        for t, j in sorted((s, j) for j, s in enumerate(slots)
                           if s is not None):
            row = batch.rows[j]
            send(t, row.sender, next(pid), True, row.message)
            held.append((t, row))
            if len(held) == params.threshold:
                flush = t + 1
                for _, r in held:
                    deliver(flush, r.receiver, next(pid), r.message)
                held = []

    elif v == DCNET:
        real_at = {slots[j]: batch.rows[j] for j in range(len(slots))
                   if slots[j] is not None}
        for t in range(1, horizon + 1):
            row = real_at.get(t)
            for u in range(params.n):
                send(t, u, next(pid), row is not None and u == row.sender)
            if row is not None:
                deliver(t, row.receiver, next(pid), row.message)

    elif v == BROADCAST:
        real_slots = {}
        for j, s in enumerate(slots):
            if s is not None:
                real_slots.setdefault(s, []).append(batch.rows[j])
        for t in range(1, horizon + 1):
            senders_now = {r.sender for r in real_slots.get(t, ())}
            for u in range(params.n):
                send(t, u, next(pid), u in senders_now)
            for r in real_slots.get(t, ()):
                deliver(t + 1, r.receiver, next(pid), r.message)

    elif v == DROPPING:
        paths = outcome[1]
        target = pair.suspects()[1]
        cap = capability
        link_drop = bool(cap and cap.active_drop and cap.c_a == 0
                         and target in cap.observed_senders)
        controlled = set(range(cap.c_a)) if cap and cap.active_drop else set()
        for j, row in enumerate(batch.rows):
            if row is NO_COMM:
                continue
            survivors = []
            for k in paths[j]:
                q = next(pid)
                send(1, row.sender, q, True, row.message)
                if row.sender == target and link_drop:
                    drop(1, row.sender, q)
                    continue
                loc = k if params.integrated else relay_loc(k)
                if link_drop and params.integrated and loc == target:
                    # the cut link also swallows copies the target forwards
                    # for others, so silence can wrongly accuse it
                    drop(2, loc, q)
                    continue
                if row.sender == target and k in controlled:
                    drop(2, loc, q)
                    continue
                nq = next(pid)
                forward(2, loc, nq, row.sender, q)
                survivors.append(nq)
            if survivors:
                deliver(3, row.receiver, next(pid), row.message,
                        in_packet=survivors[0])

    else:  # pragma: no cover
        raise AssertionError(v)

    # (round, kind order, location, packet) never repeats, so the sort
    # never reaches the payload fields
    ev.sort()
    ids = {}
    label = ids.setdefault
    new = tuple.__new__   # skips the NamedTuple's Python-level __new__
    return ObservationTrace(tuple([
        new(ObservationEvent, (kd, t, loc, label(q, len(ids)), real, origin,
                               None if inq is None else label(inq, len(ids)),
                               msg))
        for t, _, loc, q, kd, real, origin, inq, msg in ev]))


def run_protocol(kind: ProtocolKind, pair, b: int, capability,
                 seed: int) -> ObservationTrace:
    """One full protocol run as the given adversary sees it."""
    rng = random.Random(seed)
    outcome = sample_outcome(kind, pair, b, rng)
    trace = build_trace(kind, pair, b, outcome, capability)
    return filter_trace(trace, capability)


# ------------------------------------------------------- interactive drops

class DroppingSession:
    """Round-by-round interface to the dropping model.

    The batch is sent in round 1, first hops forward in round 2, delivery
    happens in round 3.  Between rounds the adversary may drop packets at
    locations it controls; anything else raises CapabilityError.  The
    fixed policy in `adversaries.dropping_actions` reproduces exactly what
    `build_trace` does in one shot, and a test holds the two together.
    """

    def __init__(self, kind: ProtocolKind, pair, b: int, outcome, capability):
        if kind.variant != DROPPING:
            raise ConfigError("interactive stepping only models dropping")
        self.kind = kind
        self.capability = capability
        self.round = 0
        self._dead = set()
        batch = pair.batch(b)
        params = kind.params
        paths = outcome[1]
        pid = itertools.count()
        self._sends = []    # (event, first_hop, row)
        for j, row in enumerate(batch.rows):
            if row is NO_COMM:
                continue
            for k in paths[j]:
                e = ObservationEvent(SEND, 1, row.sender, next(pid),
                                     is_real=True, msg=row.message)
                self._sends.append((e, k, row))
        self._forwards = []  # (event, send_packet, row)
        self._pid = pid

    def _controls(self, location) -> bool:
        cap = self.capability
        if not cap.active_drop:
            return False
        if location < 0:
            return -location - 1 < cap.c_a
        if self.kind.params.integrated and location < cap.c_a:
            return True
        return location in cap.observed_senders

    def step(self, actions=()):
        """Advance one round; `actions` is an iterable of (packet, location)
        drops to apply before the round plays out.  Returns the new events,
        filtered to what the adversary sees."""
        for packet, location in actions:
            if not self._controls(location):
                raise CapabilityError(f"no control over location {location}")
            self._dead.add(packet)
        self.round += 1
        params = self.kind.params
        new = []
        if self.round == 1:
            new = [e for (e, _, _) in self._sends]
        elif self.round == 2:
            for e, k, row in self._sends:
                if e.packet in self._dead:
                    new.append(ObservationEvent(DROP, 1, e.location, e.packet))
                    continue
                loc = k if params.integrated else relay_loc(k)
                f = ObservationEvent(FORWARD, 2, loc, next(self._pid),
                                     origin=e.location, in_packet=e.packet)
                self._forwards.append((f, e.packet, row))
                new.append(f)
        elif self.round == 3:
            by_row = {}
            for f, sp, row in self._forwards:
                if f.packet in self._dead:
                    new.append(ObservationEvent(DROP, 2, f.location, f.packet))
                    continue
                by_row.setdefault(id(row), (row, []))[1].append(f.packet)
            for row, alive in by_row.values():
                new.append(ObservationEvent(DELIVER, 3, row.receiver,
                                            next(self._pid), is_real=True,
                                            in_packet=alive[0], msg=row.message))
        else:
            raise ConfigError("session is over")
        return filter_trace(ObservationTrace.from_events(new),
                            self.capability).events
