"""Toy protocol models producing adversary-observable traces.

Each model answers one question: given a challenge pair and a secret bit b,
what does the network do, and which part of that can a given adversary see.
The models are deliberately small; they exist so that closed-form bounds
have something concrete to be checked against.

Shared conventions:

* Rounds are integers starting at 1.  Batch rows enter the network at
  t0 = l_max (simultaneous batches all at t0, slotted models one row per
  round from t0 on), which leaves room below t0 for every transit window
  an attack may inspect.  Each variant's timing is one row of `_TIMING`.
* Transit delay is uniform on {1, ..., l_max-1} rounds.  l_max = 1 means
  direct same-round delivery and the delivered packet keeps its id; any
  longer path re-randomizes ids, so linkage exists only via timing.
* `build_trace` emits each event as a raw row, sorts the rows once in
  trace order and then relabels packet ids by first mention (`packet`
  before `in_packet`, over the sorted rows it emitted, before any
  filtering), building each event exactly once.  Ids are therefore a
  function of the visible geometry of the trace, never of internal
  construction order, and cannot act as a side channel for the challenge
  bit.
* Cover traffic is modeled on the sending side only.  Dummy packets are
  absorbed unobserved at the far end; receiver-side dummy handling is out
  of scope here.

Each variant's randomness is written once, in `_fields`, as an ordered
tuple of *fields of draws* for one arm.  A field is one pick per batch
row (None for a row with nothing to draw) or the cover coins, one per
free (round, user) slot.  A pick is a uniform choice (a transit delay), a
sorted k-subset (a sync cohort tagged with its round, a dropping copy's
first hops) or an ordered k-sample (an onion path).  An outcome is one
value per field: unsync (delays, fired), sync (delays, cohorts), onion
(paths, fired with paths), dropping (first hops,); the other models are
deterministic given the schedule, ().  A random send time, too, would be
a field of draws.

Every field has a `draw`, and `options()`, its denominator and its table
of values with integer weights over it, as a `(weights, values)` pair of
tuples, whose product `enumerate_outcomes` streams as exact Fractions
without holding it; so the two routes cannot drift apart.  Each field's
draw is bound when the arm is built (`_bind`), into one draw of the
outcome that `sample_outcome` calls, so a trial runs only the hash calls
and the rng reads.  The cover is drawn in a window of rounds (see
below), and the unsync cover `reads` the delays, the first field, to
place it, so its `draw` takes their value and its `options` and `size`
the window's rounds.  The picks read the solve's `random.Random` with a
fixed call sequence: a transit delay equals `rng.choice`, and a k-sample
(an onion path, a sync cohort, a dropping copy's first hops) equals
`rng.sample`, each leaving the rng in the same state, also where
`_Choice` runs `Random.choice`'s rejection loop and `_sampler`
`Random.sample`'s small-pool loop itself.  The cover reads no rng: each
user's coins come from their own stream under the per-trial `key`, the
words of shake_128(key + tag(user)), one 64-bit word per free slot in
round order, and a coin fires when `random() < beta` would on that
word's top 53 bits.  A full onion cover's paths come from a
`random.Random` seeded by the firing user's own path stream.  `size`
counts a field's values without listing them, and `_Window.spread`
counts the delays options per window, so the `ENUM_LIMIT` guard trips
before any table is listed.  Exact cover weights use the decimals the
user typed (beta=0.3 weighs 3/10); Monte Carlo compares against the
float.

An outcome drawn or listed under a view (an arm's, or the `view` that
`enumerate_outcomes` takes) holds only the watched senders' cover slots,
and only in the arm's `window` of that outcome: when the view sets
`window` (timing and tracing, see `core.View`), the rounds that the
transit windows of the outcome's own arrivals can reach, from the
earliest arrival's window to the round before the latest, so an unsync
outcome's cover is placed by the delays it drew (see `_Window`); else the
whole horizon.  An onion cover slot holds `(slot, None)` in place of its
path: a cover packet feeds no delivery, so no rule reads its hops.  A
projected draw reads only the watched users' streams, up to their last
kept word, and the full cover is the same draw over every user and
round, so a watched user's fired slots in a round are the same under
every view that keeps it, and the rng ends where the full draw leaves
it.  A trial's cover costs the slots the view watches within its window,
and enumeration lists, per delays option, the exact marginal of the
slots in that option's window, one window's table at a time, so its leaf
count grows with the view and the transit window, not with
`n x horizon`, with the rounds every delay could reach, or with the
paths a cover packet could take.

`build_trace` deterministically turns an outcome into events, applying a
dropping adversary's drops in the same pass.  Under a `core.View` (from
`adversaries.attack_view`) it emits only the events the view names, each
the way the capability sees it: the game builds just what its attack
reads, so a trial costs what the adversary looks at rather than
`n x horizon` events, the relabel runs over those few rows, and
`filter_trace` finds nothing to drop or mask.  Without a view it builds
the full trace.

`sample_outcome` and `build_trace` take an `Arm`, one side of a challenge
pair resolved once by `arm`: its batch, the schedule that the variant's
`_TIMING` row gives it (`_schedule`), the window its view keeps cover in
per outcome (`_Window`), its fields of draws projected onto the view
(`_fields`), their one bound draw (`_bind`) and the view.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, prod
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .core import (DELIVER, DROP, FORWARD, KIND_ORDER, NO_COMM, SEND, Batch,
                   ConfigError, ObservationEvent, ObservationTrace,
                   ProtocolParams, ResourceLimitError, View, relay_loc)

TRILEMMA_SYNC = "trilemma-sync"
TRILEMMA_UNSYNC = "trilemma-unsync"
ONION_PATH = "onion-path"
DCNET = "dcnet-round"
BROADCAST = "broadcast-full-dummy"
DROPPING = "dropping-model"

VARIANTS = (TRILEMMA_SYNC, TRILEMMA_UNSYNC, ONION_PATH, DCNET, BROADCAST,
            DROPPING)

# Per variant: the rounds between successive batch rows' starts (1: one
# per round from t0, 0: all at t0), and the longest transit in rounds,
# which the trilemma models draw up to (their delays field) and the others
# always take.  The dropping model (no transit) sends in round 1,
# forwards in round 2 and delivers in round 3 whatever the schedule.
_TIMING = {
    TRILEMMA_SYNC: (1, lambda p: p.l_max - 1),
    TRILEMMA_UNSYNC: (0, lambda p: p.l_max - 1),
    ONION_PATH: (0, lambda p: p.l_exp - 1),
    DCNET: (1, lambda p: 0),
    BROADCAST: (0, lambda p: 1),
    DROPPING: (0, None),
}

ENUM_LIMIT = 2_000_000


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
        if v == DROPPING:
            if p.first_hops < p.copies:
                raise ConfigError("need at least `copies` distinct first hops")
        if v == BROADCAST and p.l_max < 2:
            # its transit is one round whatever l_max (`_TIMING`)
            raise ConfigError("broadcast delivers one round after the send, "
                              "so it needs l_max >= 2")


def _num_dummies(params) -> int:
    # synchronized cover: floor(beta*n) users join each communication round,
    # beta as typed: the float product falls under the integer at, e.g.,
    # beta=0.58, n=50
    return min(int(params.beta_exact * params.n), params.n - 1)


def _noise_slots(kind: ProtocolKind, batch, slots, horizon):
    """(round, user) pairs free for cover traffic, in slot order."""
    busy = {(t, row.sender) for t, row in zip(slots, batch.rows)
            if t is not None}
    return tuple((t, u) for t in range(1, horizon + 1)
                 for u in range(kind.params.n) if (t, u) not in busy)


def _schedule(kind: ProtocolKind, batch):
    """(slots, horizon) of one arm, read off the variant's `_TIMING` row:
    each batch row's start round (None for a row with nothing to send) and
    the last round the run needs."""
    params = kind.params
    step, transit = _TIMING[kind.variant]
    t0 = params.l_max
    slots = tuple(None if row is NO_COMM else t0 + step * k
                  for k, row in enumerate(batch.rows))
    return slots, (3 if transit is None else
                   t0 + step * (len(batch.rows) - 1) + transit(params))


# delays values per window whose rounds it keeps, so that no trial count
# grows a window further
WINDOW_CAP = 1 << 12


class _Window:
    """The rounds whose cover sends an arm's traces hold, as a function of
    the transit delays that an outcome draws, one per batch row (None for
    a row with nothing to send).  Called with None, it gives them for the
    variant's fixed transit (onion, dc-net, broadcast).

    Under a view that sets `window` (timing and tracing, see `core.View`)
    they are the rounds a timing or tracing rule can read a cover send in:
    [first - l_max + 1, last - 1], for the earliest and the latest
    arrival, where batch row j arrives at slot_j + d_j.  That lies inside
    [1, horizon]: no row starts before t0 = l_max, and `_schedule`'s
    horizon reaches the latest arrival.  Else, and in the dropping model,
    which sends no cover, they are the whole horizon.

    A window holds its arm's only per-delays memo, delays -> rounds, which
    the cover's draw and `build_trace` both read, so each trial places its
    window with one lookup; the cover keys its plans by the rounds alone.
    The memo stops taking entries at `WINDOW_CAP` and only answers lookups
    after that, so no trial count grows it further.
    """

    def __init__(self, kind: ProtocolKind, slots, horizon, view):
        params = kind.params
        transit = _TIMING[kind.variant][1]
        self.slots, self.l_max = slots, params.l_max
        self.on = view is not None and view.window and transit is not None
        if self.on:
            lag = transit(params)
            starts = [s for s in slots if s is not None]
            self.rounds = self._reach(min(starts) + lag, max(starts) + lag)
        else:
            self.rounds = range(1, horizon + 1)
        # None asks for the fixed transit's rounds
        self._memo = {None: self.rounds}

    def __call__(self, delays=None):
        if not self.on:
            return self.rounds
        rounds = self._memo.get(delays)
        if rounds is None:
            arrivals = [s + d for s, d in zip(self.slots, delays)
                        if s is not None]
            rounds = self._reach(min(arrivals), max(arrivals))
            if len(self._memo) < WINDOW_CAP:
                self._memo[delays] = rounds
        return rounds

    def _reach(self, first, last):
        return range(first - self.l_max + 1, last)

    def spread(self, delays):
        """{rounds: how many options of `delays`, the delays field, fall
        in them}, tallied without listing the options: the rounds depend
        on the delays only through the earliest and the latest arrival, so
        the options are counted per (earliest, latest), one row at a
        time."""
        if not self.on:
            return {self.rounds: delays.size}
        ends = {(math.inf, -math.inf): 1}
        for s, pick in zip(self.slots, delays.picks):
            if pick is None:
                continue
            step = {}
            for (first, last), count in ends.items():
                for d in pick.values:
                    at = min(first, s + d), max(last, s + d)
                    step[at] = step.get(at, 0) + count
            ends = step
        spread = {}
        for (first, last), count in ends.items():
            rounds = self._reach(first, last)
            spread[rounds] = spread.get(rounds, 0) + count
        return spread


# ---------------------------------------------------------- fields of draws

def _product(tables):
    """The weight products and the value tuples of every choice of one
    option per `(weights, values)` table, as two iterators in step, in
    `itertools.product` order."""
    return (map(prod, itertools.product(*[w for w, _ in tables])),
            itertools.product(*[x for _, x in tables]))


class _Choice:
    """A uniform pick from `values`, which are not empty (a transit delay).

    `draw` returns `rng.choice(values)` and takes the same numbers from the
    same rng stream: it runs `Random._randbelow_with_getrandbits`'s
    rejection loop on `rng.getrandbits` directly, with the bit width
    computed here once, so a pool of one still reads one bit.  As in
    `_sampler`, `rng` is a plain `random.Random`.
    """

    def __init__(self, values):
        self.values = values = tuple(values)
        self.size = size = len(values)
        width = size.bit_length()

        def draw(rng):
            j = rng.getrandbits(width)
            while j >= size:
                j = rng.getrandbits(width)
            return values[j]

        self.draw = draw

    def options(self):
        return self.size, ((1,) * self.size, self.values)


def _sampler(pool, k):
    """A function of an rng that returns `tuple(rng.sample(pool, k))` and
    takes the same numbers from the same rng stream as `rng.sample` does.

    For a small pool (the branch of `Random.sample` with `len(pool) <= 21`
    and `k <= 5`) it runs that branch's rejection loop and pool swap on
    `rng.getrandbits` directly, with each step's range and bit width
    computed here once.  That skips `sample`'s argument checks (an ABC
    `isinstance` among them), which cost more than the draw.  Larger draws
    are left to `rng.sample`.  `rng` is a plain `random.Random`, as in
    `sample_outcome`: a subclass that redefines `sample` is not consulted.
    """
    pool = tuple(pool)
    n = len(pool)
    if not (0 <= k <= n <= 21 and k <= 5):
        return lambda rng: tuple(rng.sample(pool, k))
    steps = tuple((m, m.bit_length()) for m in range(n, n - k, -1))

    def draw(rng):
        bits = rng.getrandbits
        left = list(pool)
        out = []
        for m, width in steps:
            j = bits(width)
            while j >= m:
                j = bits(width)
            out.append(left[j])
            # move the last unpicked item into the vacancy
            left[j] = left[m - 1]
        return tuple(out)

    return draw


class _Subset:
    """A sorted k-subset of `pool`, as `(tag, subset)` when tagged (a sync
    cohort tagged with its round, a dropping copy's first hops)."""

    def __init__(self, pool, k, tag=None):
        self.pool, self.k, self.tag = tuple(pool), k, tag
        self.size = comb(len(self.pool), k)
        self._sample = _sampler(self.pool, k)

    def draw(self, rng):
        s = tuple(sorted(self._sample(rng)))
        return s if self.tag is None else (self.tag, s)

    def options(self):
        subsets = itertools.combinations(self.pool, self.k)
        if self.tag is not None:
            subsets = [(self.tag, s) for s in subsets]
        return self.size, ((1,) * self.size, tuple(subsets))


class _Sample:
    """An ordered k-sample of `pool` (an onion path)."""

    def __init__(self, pool, k):
        self.pool, self.k = tuple(pool), k
        self.size = math.perm(len(self.pool), k)
        # the sampler is the draw: no method call between it and the field
        self.draw = _sampler(self.pool, k)

    def options(self):
        paths = itertools.permutations(self.pool, self.k)
        return self.size, ((1,) * self.size, tuple(paths))


def _nothing(rng):
    return None


class _Picks:
    """A field of independent picks, one per entry; a None entry is fixed
    at None (a row without a scheduled message)."""

    def __init__(self, picks):
        self.picks = tuple(picks)
        self.size = prod(x.size for x in self.picks if x is not None)
        draws = tuple(_nothing if x is None else x.draw for x in self.picks)
        # bound once: a draw is the picks' own draws, in row order
        self.draw = lambda rng: tuple([d(rng) for d in draws])

    def options(self):
        opts = [(1, ((1,), (None,))) if x is None else x.options()
                for x in self.picks]
        weights, values = _product([t for _, t in opts])
        return prod(d for d, _ in opts), (tuple(weights), tuple(values))


# a user's stream tag: the stream's domain byte, then the user as a
# little-endian 64-bit int
_TAG = struct.Struct("<cQ").pack
_COINS, _PATHS = b"c", b"p"


def _threshold(p: float) -> int:
    """The 64-bit words below which a cover coin fires: `random()` reads
    the top 53 bits of a word, r = w >> 11, and r * 2**-53 < p holds
    exactly when r < ceil(p * 2**53), so a word fires with the probability
    `random() < p` has.  p * 2**53 is exact in floating point."""
    return math.ceil(p * 2 ** 53) << 11


class _Cover:
    """The cover coins: one per free (round, user) slot, each firing at rate
    beta.  The field is the tuple of fired slots in (round, user) order, each
    paired with a fresh `payload` pick when there is one (an onion path).

    Each user's coins come from their own stream, not from the solve's
    rng: user u's are the little-endian 64-bit words of
    shake_128(key + tag(u)), one per free slot of u in round order, and a
    word fires below `_threshold(beta)`.  An onion cover path is drawn with
    the payload's `draw` from a `random.Random` seeded by the firing
    user's path stream, one per user that fired, in round order.

    The field is the projection onto the users in `watch` and the rounds
    of the arm's `window`, and the full cover is the projection onto every
    user and round (`watch=None` and the whole horizon).  When the cover
    `reads` the delays, the first field, each outcome's cover is drawn in
    the window of its own delays, which `draw` takes; else in the window
    of the fixed transit; the arm's one per-delays memo, the window's
    (see `_Window`), gives the rounds.  `size` and `options` take a
    window's rounds.  Each window's plan is built once, keyed by its
    rounds alone, when first asked for: the watched users with a slot in
    it, one parser of their streams' digests, joined in user order, into
    the kept words, skipping each stream's words before its first kept
    one unparsed, and the kept slots.  Word i of a stream still belongs
    to that user's i-th free slot over the whole horizon, so a kept slot
    fires as in the full draw, a stream is digested up to its last kept
    word, and `options` lists the kept slots' exact marginal.  A draw is
    then the hash calls and one pass over the joined words.  Under a view
    an onion slot is `(slot, None)` and no path stream is read, because
    no rule reads a cover packet's hops.
    """

    def __init__(self, free, params, window, payload=None, watch=None,
                 reads=False):
        self.paired = payload is not None
        if watch is not None:
            payload = None
        self.payload, self.window, self.reads = payload, window, reads
        mine = {}
        for sl in free:
            if watch is None or sl[1] in watch:
                mine.setdefault(sl[1], []).append(sl)
        self.mine = sorted(mine.items())
        self.cut = _threshold(params.beta)
        # exact weights in the decimals the user typed; Monte Carlo keeps
        # the float
        self.rate = params.beta_exact
        paths = 1 if payload is None else payload.size
        self.choices = int(self.rate < 1) + paths * int(self.rate > 0)
        # the plan of each window's rounds
        self._at = {}

    def at(self, rounds):
        """The plan of the window `rounds`, built once: the tag of each
        watched coin stream with a slot in it and its length in bytes up
        to the last kept word; one parser of those streams' digests, joined
        in user order, into the kept words; the kept slots in that order,
        each as the draw returns it when fired; and every kept slot in
        (round, user) order."""
        plan = self._at.get(rounds)
        if plan is None:
            streams, skips, kept = [], [], []
            for u, sl in self.mine:
                at = [i for i, (t, _) in enumerate(sl) if t in rounds]
                if at:
                    lo, hi = at[0], at[-1] + 1
                    streams.append((_TAG(_COINS, u), 8 * hi))
                    skips.append(f"{8 * lo}x{hi - lo}Q")
                    kept += sl[lo:hi]
            # a view's onion slot is drawn without its path
            fired = ([(sl, None) for sl in kept]
                     if self.paired and self.payload is None else kept)
            plan = self._at[rounds] = (
                tuple(streams), struct.Struct("<" + "".join(skips)).unpack,
                tuple(fired), tuple(sorted(kept)))
        return plan

    def size(self, rounds):
        return self.choices ** len(self.at(rounds)[3])

    def draw(self, rng, key, delays=None):
        """The fired slots under the per-trial `key`; `rng` is not read."""
        rounds = self.window(delays)
        streams, words, kept, _ = self._at.get(rounds) or self.at(rounds)
        shake = hashlib.shake_128
        fired = list(compress(kept, map(self.cut.__gt__, words(b"".join(
            [shake(key + tag).digest(size) for tag, size in streams])))))
        if self.payload is not None:
            # each firing user's paths, in round order, from their own
            # path stream
            pick, paths = self.payload.draw, []
            for u, hits in itertools.groupby(fired, itemgetter(1)):
                own = random.Random(int.from_bytes(
                    shake(key + _TAG(_PATHS, u)).digest(16), "little"))
                paths += [(sl, pick(own)) for sl in hits]
            fired = paths
        # slots never repeat, so the sort never compares two paths
        fired.sort()
        return tuple(fired)

    def options(self, rounds):
        free = self.at(rounds)[3]
        pn, pd = self.rate.numerator, self.rate.denominator
        m, on = ((1, ((1,), (None,))) if self.payload is None
                 else self.payload.options())
        tables = []
        for sl in free:
            opts = [((pd - pn) * m, None)]
            opts += [(pn * w, (sl, x) if self.paired else sl)
                     for w, x in zip(*on)]
            # (weights, values), zero weights pruned
            tables.append(tuple(zip(*[o for o in opts if o[0]])))
        weights, values = _product(tables)
        # the table holds one int object per distinct weight, and a slot
        # that did not fire leaves None, while fired values are truthy
        distinct = {}
        return (pd * m) ** len(free), (
            tuple(distinct.setdefault(w, w) for w in weights),
            tuple(tuple(filter(None, xs)) for xs in values))


def _fields(kind: ProtocolKind, batch, slots, horizon, watch, window):
    """The randomness of one arm, as the ordered fields of draws an
    outcome holds.  With `watch`, a view's senders, the cover holds only
    the watched users' slots in the rounds of `window`, and an onion cover
    no paths (see `_Cover`); every other field is drawn in full.  The
    unsync cover reads the delays, whose arrivals place its window."""
    v, params = kind.variant, kind.params
    if v in (TRILEMMA_UNSYNC, TRILEMMA_SYNC):
        delay = _Choice(range(1, params.l_max) if params.l_max > 1 else (0,))
        delays = _Picks(None if s is None else delay for s in slots)
        if v == TRILEMMA_UNSYNC:
            return delays, _Cover(_noise_slots(kind, batch, slots, horizon),
                                  params, window, watch=watch, reads=True)
        d = _num_dummies(params)
        return delays, _Picks(
            _Subset([u for u in range(params.n) if u != row.sender], d, s)
            for s, row in zip(slots, batch.rows) if s is not None)
    if v == ONION_PATH:
        path = _Sample(range(params.relays), params.l_exp - 1)
        return (_Picks(None if s is None else path for s in slots),
                _Cover(_noise_slots(kind, batch, slots, horizon), params,
                       window, path, watch))
    if v == DROPPING:
        first_hops = _Subset(range(params.first_hops), params.copies)
        return (_Picks(None if row is NO_COMM else first_hops
                       for row in batch.rows),)
    # dc-net and broadcast are deterministic given the schedule
    return ()


class Arm(NamedTuple):
    """One side of a challenge pair, resolved once per solve by `arm`.

    variant, params  the protocol kind's
    batch            the arm's batch
    slots, horizon   its schedule (see `_schedule`)
    window           the rounds whose cover sends its traces hold, as a
                     function of an outcome's delays (see `_Window`): the
                     view's window for the arrivals the outcome draws, else
                     the horizon
    fields           its fields of draws, projected onto `view`
    draw             one outcome's draw from `(rng, key)`, each field's
                     bound once (see `_bind`)
    view             the `View` its traces are built for, None for full
    target           the dropping model's target: the pair's suspect
                     under 1 (None in every other model)
    """

    variant: str
    params: ProtocolParams
    batch: Batch
    slots: tuple
    horizon: int
    window: _Window
    fields: tuple
    draw: Callable
    view: Optional[View]
    target: Optional[int]


def _bind(fields):
    """The draw of one outcome of `fields`, as a function of `(rng, key)`
    bound once per arm: the picks' draws read `rng`, and a cover its
    `key`, and the unsync cover also the delays drawn before it, for its
    window."""
    draws = [f.draw for f in fields]
    if fields and isinstance(fields[-1], _Cover):
        first, cover = draws
        if fields[-1].reads:
            return lambda rng, key: ((d := first(rng)), cover(rng, key, d))
        return lambda rng, key: (first(rng), cover(rng, key))
    return lambda rng, key: tuple([f(rng) for f in draws])


def arm(kind: ProtocolKind, pair, b: int, view=None) -> Arm:
    """Arm b of the pair under `view` (None for the full outcome and
    trace)."""
    batch = pair.batch(b)
    slots, horizon = _schedule(kind, batch)
    watch = None if view is None else view.senders
    window = _Window(kind, slots, horizon, view)
    target = pair.suspects()[1] if kind.variant == DROPPING else None
    fields = _fields(kind, batch, slots, horizon, watch, window)
    return Arm(kind.variant, kind.params, batch, slots, horizon, window,
               fields, _bind(fields), view, target)


def sample_outcome(arm: Arm, rng: random.Random, key: bytes):
    """Draw one random outcome of the arm, each field in turn, with the
    draw the arm bound when it was built (see `_bind`).  `rng` is a plain
    `random.Random` (see `_Choice` and `_sampler`) and gives every field
    but the cover, whose coins come from per-user streams under the
    trial's `key` (see `_Cover`), in the rounds that the arm's one
    per-delays memo, its `_Window`'s, gives for the delays drawn.

    Under the arm's `View` (None for the full outcome) the outcome is
    projected onto it, for `build_trace` of the same arm: the cover holds
    only the view's senders' slots in the window of the outcome's own
    delays, each drawn as in the full outcome (an onion cover's without
    its path), and the rng ends in the same state.
    """
    return arm.draw(rng, key)


class _Leaves:
    """The (probability, outcome) leaves of `arm`, streamed, in parts:
    each part's product of option tables is walked afresh by each
    iteration and never held, and `len` is the count taken before any
    table was listed.  A part is (den, tables, rounds): its leaves' one
    denominator, the tables listed with the arm, and the window of the
    cover whose table is listed when the walk reaches the part, so that
    one window's cover table is held at a time (None for no cover).  A
    leaf's weight is an int product, and each distinct probability
    becomes a Fraction once per part and walk."""

    def __init__(self, arm, size, parts, cover=None):
        self.arm, self.size, self.parts, self.cover = arm, size, parts, cover

    def __len__(self):
        return self.size

    def __iter__(self):
        for den, tables, rounds in self.parts:
            if rounds is not None:
                d, table = self.cover.options(rounds)
                den, tables = den * d, tables + [table]
                # held by `tables` alone, so the next part's listing
                # replaces it
                del table
            made = {}
            for num, xs in zip(*_product(tables)):
                prob = made.get(num)
                if prob is None:
                    prob = made[num] = Fraction(num, den)
                yield prob, xs


def enumerate_outcomes(kind: ProtocolKind, pair, b: int, view=None):
    """Every (probability, outcome) with exact Fraction probabilities, in
    the order of each field's options, one window of the cover at a time.
    With a `View` the outcomes are projected as in `sample_outcome`, and
    their probabilities are the exact marginals of the full ones: the
    unsync cover of a delays option holds the slots of that option's own
    window, and no verdict reads a cover send outside it.

    Returns a sized iterable that can be walked more than once, whose
    `arm` is the resolved arm its outcomes are built on.  Each
    field's option table is listed here but the cover's (every pattern of
    its watched slots in one window), which is listed when the walk
    reaches its window; the product across fields is streamed, so the
    leaves are never all in memory at once.  Zero-weight options are
    pruned, so degenerate rates (beta of 0 or 1) stay cheap.  The
    `ENUM_LIMIT` guard counts leaves before any table is listed: per
    window, its delays options times its cover patterns.
    """
    side = arm(kind, pair, b, view)
    fields = side.fields
    cover = fields[-1] if fields and isinstance(fields[-1], _Cover) else None
    picks = fields[:-1] if cover else fields
    # counted before anything is listed
    count = prod(f.size for f in picks)
    if cover is not None:
        spread = (cover.window.spread(picks[0]) if cover.reads
                  else {cover.window(): count})
        count = sum(n * cover.size(rounds) for rounds, n in spread.items())
    if count > ENUM_LIMIT:
        raise ResourceLimitError(f"outcome space has {count} leaves, "
                                 f"limit is {ENUM_LIMIT}")
    den, tables = 1, []
    for field in picks:
        d, leaves = field.options()
        den *= d
        tables.append(leaves)
    if cover is None or not cover.reads:
        return _Leaves(side, count,
                       [(den, tables, cover and cover.window())], cover)
    # the unsync fields are (delays, cover): the delays options, grouped
    # by their window in order of first appearance
    groups = {}
    for w, delays in zip(*tables[0]):
        weights, values = groups.setdefault(cover.window(delays), ([], []))
        weights.append(w)
        values.append(delays)
    return _Leaves(side, count, [(den, [table], rounds)
                                 for rounds, table in groups.items()], cover)


# ---------------------------------------------------------------- building

# sort rank of each event kind, the second field of a raw row
_SEND, _FORWARD, _DROP, _DELIVER = (KIND_ORDER[k]
                                    for k in (SEND, FORWARD, DROP, DELIVER))


def build_trace(arm: Arm, outcome, capability=None) -> ObservationTrace:
    """Deterministically expand an outcome of the arm into a trace.

    `capability` only matters for the dropping model, where an active
    adversary physically removes packets; everywhere else observation is
    passive and filtering happens afterwards.

    Under an arm without a view the trace is the full (unfiltered) one,
    every event in rounds 1..horizon: a late onion cover packet's hops
    stop at the horizon.
    Under a `View`, only the events it names are emitted, each the way every
    capability sees it: the senders' sends, without their real/dummy flag
    and payload (`filter_trace` masks both on every send) and, but for a
    batch row's own send, only in the arm's `window` of the outcome, the
    forwards of batch rows' packets at relays below `view.relays` and the
    receivers' deliveries; drops, user-node forwards and an onion cover
    packet's hops are left out, so a projected outcome (cover paths None)
    builds as well as a full one.  The ids of the events kept come from the same counter
    as in the full trace, so they stay unique, and the dropping model
    still applies its drops.  One branch per variant builds both traces,
    appending its rows in place.

    Events are emitted as raw rows `(round, kind order, location, packet,
    kind, is_real, origin, in_packet, msg)` with construction-order packet
    ids.  One sort in native tuple order puts them in trace order, then ids
    are relabeled by first mention and each event is built once.  When no
    event links two packets (a trilemma outcome with no delay of 0, which
    emits a fresh packet per event and no `in_packet`), first mention is
    the sorted position, and the events are labeled by it directly.  The
    window's rounds come from the arm's one per-delays memo (`_Window`).
    """
    v, params, batch, slots, horizon, window, _, _, view, target = arm
    full = view is None
    if full:
        users = frozenset(range(params.n))
        view = View(users, params.relays, users)
    senders, relays, receivers, _ = view
    # a send's real/dummy flag for a real and a cover packet; a view
    # builds sends masked, and its real sends carry no payload either
    real, cover = (True, False) if full else (None, None)
    pid = itertools.count()
    ev = []
    add = ev.append

    # whether no event links two packets, so that the relabel is the
    # sorted position (see below)
    fresh = False
    if v in (TRILEMMA_UNSYNC, TRILEMMA_SYNC):
        # only a direct delivery (delay 0) keeps its send's id
        fresh = 0 not in outcome[0]
        for t, d, row in zip(slots, outcome[0], batch.rows):
            if t is None:
                continue
            q = next(pid)
            if row.sender in senders:
                add((t, _SEND, row.sender, q, SEND, real, None, None,
                     row.message if full else None))
            # direct delivery keeps the id: nothing re-randomized it
            dq = q if d == 0 else next(pid)
            if row.receiver in receivers:
                add((t + d, _DELIVER, row.receiver, dq, DELIVER, True, None,
                     q if d == 0 else None, row.message))
        rounds = window(outcome[0])
        # cover sends are most of a wide trace: one comprehension, no call
        # per row
        if v == TRILEMMA_UNSYNC:
            ev += [(t, _SEND, u, q, SEND, cover, None, None, None)
                   for (t, u), q in zip(outcome[1], pid)
                   if u in senders and t in rounds]
        elif v == TRILEMMA_SYNC:
            ev += [(t, _SEND, u, q, SEND, cover, None, None, None)
                   for t, cohort in outcome[1]
                   for u, q in zip(cohort, pid)
                   if u in senders and t in rounds]

    elif v == ONION_PATH:
        paths, rounds = outcome[0], window()
        relay = [relay_loc(k) for k in range(params.relays)]
        # real rows first, then cover sends, each with its path; one loop
        # appends every hop, so a trial's cost is the events it emits
        starts = [(slots[j], row.sender, paths[j], row)
                  for j, row in enumerate(batch.rows) if slots[j] is not None]
        starts += [(t, u, path, None) for (t, u), path in outcome[1]]
        for t, u, path, row in starts:
            q = next(pid)
            if u in senders and (row is not None or t in rounds):
                add((t, _SEND, u, q, SEND, cover, None, None, None)
                    if row is None else
                    (t, _SEND, u, q, SEND, real, None, None,
                     row.message if full else None))
            if row is None:
                if not full:
                    # a cover packet feeds no delivery, so no rule reads
                    # its hops: a view holds its send alone
                    continue
                # the run ends at the horizon: a late cover packet is
                # forwarded no further
                path = path[:horizon - t]
            prev, ploc = q, u
            for k in path:
                t += 1
                nq, loc = next(pid), relay[k]
                if k < relays:
                    add((t, _FORWARD, loc, nq, FORWARD, None, ploc, prev,
                         None))
                prev, ploc = nq, loc
            if row is not None and row.receiver in receivers:
                # t is now the last hop's round; a direct delivery keeps
                # the sent id
                add((t, _DELIVER, row.receiver, next(pid) if path else q,
                     DELIVER, True, None, prev, row.message))

    elif v in (DCNET, BROADCAST):
        # every user sends every round, the real senders among them; each
        # real message is delivered after the variant's transit
        lag, rounds = _TIMING[v][1](params), window()
        real_at = {}
        for j, s in enumerate(slots):
            if s is not None:
                real_at.setdefault(s, []).append(batch.rows[j])
        for t in range(1, horizon + 1):
            rows = real_at.get(t, ())
            hot = {r.sender for r in rows}
            # outside the rounds only the real senders' own sends are kept
            shown = senders if t in rounds else senders & hot
            ev += [(t, _SEND, u, q, SEND, (u in hot) if full else None, None,
                    None, None)
                   for u, q in zip(range(params.n), pid) if u in shown]
            for r in rows:
                q = next(pid)
                if r.receiver in receivers:
                    add((t + lag, _DELIVER, r.receiver, q, DELIVER, True,
                         None, None, r.message))

    elif v == DROPPING:
        paths = outcome[0]
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
                if row.sender in senders:
                    add((1, _SEND, row.sender, q, SEND, real, None, None,
                         row.message if full else None))
                loc = k if params.integrated else relay_loc(k)
                if row.sender == target and link_drop:
                    cut = 1, row.sender
                elif link_drop and params.integrated and loc == target:
                    # the cut link also swallows copies the target forwards
                    # for others, so silence can wrongly accuse it
                    cut = 2, loc
                elif row.sender == target and k in controlled:
                    cut = 2, loc
                else:
                    nq = next(pid)
                    # user-node forwards (integrated first hops) are in no
                    # view
                    if full or (not params.integrated and k < relays):
                        add((2, _FORWARD, loc, nq, FORWARD, None, row.sender,
                             q, None))
                    survivors.append(nq)
                    continue
                # drops are in no view
                if full:
                    add((cut[0], _DROP, cut[1], q, DROP, None, None, None,
                         None))
            if survivors:
                q = next(pid)
                if row.receiver in receivers:
                    add((3, _DELIVER, row.receiver, q, DELIVER, True, None,
                         survivors[0], row.message))

    else:  # pragma: no cover
        raise AssertionError(v)

    # (round, kind order, location, packet) never repeats, so the sort
    # never reaches the payload fields
    ev.sort()
    new = tuple.__new__   # skips the NamedTuple's Python-level __new__
    if fresh:
        # every packet is mentioned once, by its own event, and no event
        # has an in_packet: first mention is the sorted position
        return ObservationTrace(tuple([
            new(ObservationEvent, (kd, t, loc, i, real, origin, None, msg))
            for i, (t, _, loc, _, kd, real, origin, _, msg) in enumerate(ev)]))
    ids = {}
    label = ids.setdefault
    return ObservationTrace(tuple([
        new(ObservationEvent, (kd, t, loc, label(q, len(ids)), real, origin,
                               None if inq is None else label(inq, len(ids)),
                               msg))
        for t, _, loc, q, kd, real, origin, inq, msg in ev]))
