"""Shared vocabulary for the anonymity-bounds toolkit.

Users are the integers 0..n-1, relays have their own id space (see
``relay_loc``), rounds are 1-based integers.  A protocol run is summarized
as a round-ordered trace of observation events; what an adversary gets to
see is produced by filtering the full trace against her capability.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional


class ConfigError(ValueError):
    """Protocol parameters inconsistent with the requested run."""


class CapabilityError(ValueError):
    """An attack or action needs a vantage point the capability does not grant."""


class ResourceLimitError(ValueError):
    """Exact enumeration was asked for a randomness space too large to walk."""


class _NoComm:
    # distinguished "no communication" slot; batches may mix it with real rows
    __slots__ = ()

    def __repr__(self):
        return "NO_COMM"

    def __reduce__(self):
        # pickle and deepcopy hand back the module's one instance, so
        # `row is NO_COMM` holds on a copied batch too
        return "NO_COMM"


NO_COMM = _NoComm()


@dataclass(frozen=True)
class Communication:
    """One sender-to-receiver message; the payload is an opaque id."""

    sender: int
    receiver: int
    message: int


@dataclass(frozen=True)
class Batch:
    """Ordered rows handed to the challenger; the protocol variant's
    schedule sets the round each row starts in."""

    rows: tuple


def make_batch(comms) -> Batch:
    """Build a batch from a sequence of Communication/NO_COMM rows."""
    rows = tuple(comms)
    if not rows:
        raise ValueError("batch needs at least one row")
    for r in rows:
        if not isinstance(r, (Communication, _NoComm)):
            raise ValueError(f"not a batch row: {r!r}")
    return Batch(rows)


def sender_counts(batch: Batch) -> dict:
    counts = {}
    for r in batch.rows:
        if isinstance(r, Communication):
            counts[r.sender] = counts.get(r.sender, 0) + 1
    return counts


def receiver_counts(batch: Batch) -> dict:
    counts = {}
    for r in batch.rows:
        if isinstance(r, Communication):
            counts[r.receiver] = counts.get(r.receiver, 0) + 1
    return counts


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs shared by all protocol models.

    n        user count
    l_max    maximum delivery delay in rounds (send round included at 1)
    beta     the cover rate: in trilemma-sync floor(beta*n) dummy senders
             (at most n-1) join each batch row's round; in trilemma-unsync
             and onion-path each user's coin per free round sends a dummy
             with probability beta (the unsync closed forms' p)
    l_exp    expected delay in rounds, defaults to l_max
    relays   intermediate-relay pool size (K)
    copies   redundant first hops (dropping model only)
    integrated  dropping model: first hops are users, not dedicated relays
    """

    n: int
    l_max: int
    beta: float = 0.0
    l_exp: Optional[int] = None
    relays: int = 0
    copies: int = 1
    integrated: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 users")
        if self.l_max < 1:
            raise ValueError("need l_max >= 1")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.l_exp is None:
            object.__setattr__(self, "l_exp", self.l_max)
        if not (1 <= self.l_exp <= self.l_max):
            raise ValueError("need 1 <= l_exp <= l_max")
        if self.relays < 0:
            raise ValueError("relays must be non-negative")
        if self.copies < 1:
            raise ValueError("need copies >= 1")

    @property
    def first_hops(self) -> int:  # the dropping model's first-hop pool
        return self.n if self.integrated else self.relays

    # cached per params: every resolved arm reads it.  The cache lives in
    # the instance dict, outside the fields, so equality, `asdict` and
    # records do not see it
    @functools.cached_property
    def beta_exact(self) -> Fraction:
        """beta in the decimals the user typed: Fraction(0.3) would be
        5404319552844595/2**54, this is 3/10."""
        # str, not repr: a float prints its shortest decimal, and a Fraction
        # or int passed through the Python API prints as one Fraction parses
        return Fraction(str(self.beta))


@dataclass(frozen=True)
class AdversaryCapability:
    """What the adversary can see and do during a run."""

    observed_senders: frozenset = frozenset()
    receiver_corrupted: bool = False
    c_p: int = 0
    c_a: int = 0
    active_drop: bool = False

    def __post_init__(self):
        object.__setattr__(self, "observed_senders", frozenset(self.observed_senders))
        if self.c_p < 0 or self.c_a < 0:
            raise ValueError("corruption counts must be non-negative")
        if self.active_drop and self.c_a < 1 and not self.observed_senders:
            raise ValueError("active dropping needs a controlled relay or sender link")


# relay k is stored in event locations as -(k + 1); user ids are >= 0
def relay_loc(k: int) -> int:
    return -(k + 1)


SEND = "send"
FORWARD = "forward"
DELIVER = "deliver"
DROP = "drop"
# events of one round sort sends first, deliveries last
KIND_ORDER = {SEND: 0, FORWARD: 1, DROP: 2, DELIVER: 3}


class ObservationEvent(NamedTuple):
    """One observable fact.

    kind       send | forward | deliver | drop
    round      1-based round the event happened in
    location   user id (send/deliver) or relay location (forward/drop)
    packet     wire-level packet id; relays re-randomize it per hop
    is_real    real-vs-dummy flag, populated only where the capability allows
    origin     previous hop (sender link or relay) where the vantage sees it
    in_packet  incoming packet id at a relay, links the hop for its observer
    msg        payload id, visible only at a corrupted receiver
    """

    kind: str
    round: int
    location: int
    packet: int
    is_real: Optional[bool] = None
    origin: Optional[int] = None
    in_packet: Optional[int] = None
    msg: Optional[int] = None


class View(NamedTuple):
    """The events an attack reads, as `build_trace` should emit them.

    senders    users whose SENDs to build
    relays     relay k's FORWARDs of batch rows' packets are built for
               k < relays
    receivers  users whose DELIVERs to build

    Drops, the user-node forwards of the integrated dropping model and the
    forwards of onion cover packets are in no view.  A rule that follows a
    packet walks back from a delivery, and a cover packet feeds none, so
    its hops are never on the chain; leaving them out lets a projected
    outcome skip building cover paths at all.  The one rule that follows
    packets, path tracing, is passive, so its chain passes no drop.  A
    view built by `adversaries.attack_view` is already cut down to what
    the capability sees, and `build_trace` emits its sends already masked
    (no real/dummy flag, no payload), so filtering it removes and masks
    nothing: `filter_trace` returns the very trace it was given.

    window     True when the rule reads a sender's cover sends only in the
               rounds that the challenge arrival's transit window can
               reach; `protocols.arm` resolves it into the arm's `window`,
               which places those rounds per outcome from the arrivals it
               drew

    Timing reads a suspect's send for one of two reasons: it lies in
    [a - l_max + 1, a - 1] for the arrival round a, or its packet is the
    arrival's, which only a batch row's own send in a direct delivery can
    be.  Path tracing walks back along batch rows' packets alone.  The
    challenge arrival is one of the batch rows' arrivals a_j = slot_j +
    d_j, drawn with the outcome, so no cover send outside
    [first - l_max + 1, last - 1] of that outcome changes its verdict,
    where first and last are its earliest and latest arrival; batch rows'
    own sends are always built.  An outcome and its cover are therefore
    drawn, listed and built in the window of its own delays, and exact
    enumeration weighs the cover of each delays option on that option's
    window alone, the exact marginal.  Counting reads every round and
    keeps the window off.  A random send time would move the arrivals
    too; drawn before the cover and read by the window with the delays,
    it needs no widening.  An oracle view, which must see every event
    that could tell the arms apart, must not set it.
    """

    senders: frozenset = frozenset()
    relays: int = 0
    receivers: frozenset = frozenset()
    window: bool = False


@dataclass(frozen=True)
class ObservationTrace:
    events: tuple


def filter_trace(trace: ObservationTrace, capability: AdversaryCapability) -> ObservationTrace:
    """Reduce a full trace to exactly what the capability permits.

    Conventions: the first c_p relay ids are passively compromised and the
    first c_a are actively controlled (protocols pick relays uniformly, so
    fixing the identities loses no generality).  A corrupted receiver opens
    deliver events, including the real/dummy flag and payload id; everywhere
    else those two fields are masked.  Total and deterministic, hence
    idempotent.

    One pass, no relabeling: packet ids keep the labels `build_trace` gave
    them over the full trace, so a filtered trace may skip ids.  A kept
    event is returned as is when it has nothing to mask; a masked copy is
    built directly from its fields.  When nothing is dropped or masked,
    as on a trace built under the capability's `View`, the input trace
    object itself is returned.
    """
    observed = capability.observed_senders
    receiver = capability.receiver_corrupted
    active = capability.active_drop
    c_a = capability.c_a
    seen = max(capability.c_p, c_a)
    new = tuple.__new__   # skips the NamedTuple's Python-level __new__
    events = trace.events
    out = []
    keep = out.append
    masked = False
    for ev in events:
        kind, t, loc, q, real, origin, inq, msg = ev
        if kind == SEND:
            visible = loc in observed
        elif kind == FORWARD:
            if loc < 0:   # a relay, see relay_loc
                visible = -loc - 1 < seen
            else:
                # user-node forwards exist only in the integrated dropping
                # model; cutting a link needs active control of it
                visible = active and (loc < c_a or loc in observed)
        else:
            # a corrupted receiver opens deliveries, flag and payload
            # included; drops are the adversary's own doing
            if (kind == DELIVER and receiver) or (kind == DROP and active):
                keep(ev)
            continue
        if visible:
            if real is None and msg is None:
                keep(ev)
            else:
                masked = True
                keep(new(ObservationEvent,
                         (kind, t, loc, q, None, origin, inq, None)))
    if not masked and len(out) == len(events):
        return trace
    return ObservationTrace(tuple(out))

