"""Privacy notions as executable validity predicates over batch pairs.

A notion says which pairs of batches an adversary may submit as a
challenge, i.e. what information the protocol is allowed to leak.  The
kinds, from least to most restrictive on the adversary's choice:

  CO        anything goes, even the number of communications is hidden
  MO[ML]    per-user send and receive volumes must match, payloads free
  RO        only receivers may differ
  SO        only senders may differ
  SO_nmax   SO, and nobody sends more than n_max times per batch
  SML       SO, and per-sender volumes must match
  (SM)L     exactly two rows with a common receiver swap their senders
  (SR)L     exactly two rows with a common payload swap their senders

Two optional restrictions: x1 (each appearing sender/receiver acts exactly
once per batch) and a corrupted-user set (rows touching a corrupted user
must carry the same payload in both scenarios).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import attrgetter

from .core import (NO_COMM, Batch, Communication, ProtocolParams,
                   ResourceLimitError, make_batch, receiver_counts,
                   sender_counts)

CO = "CO"
RO = "RO"
SO = "SO"
SO_NMAX = "SO_nmax"
SML = "SML"
SWAP_SM = "(SM)L"
SWAP_SR = "(SR)L"
MO_ML = "MO[ML]"

KINDS = (CO, RO, SO, SO_NMAX, SML, SWAP_SM, SWAP_SR, MO_ML)

# which volume profile the x1 restriction pins to one per user
_X1_CLASS = {
    SO: "sender", SO_NMAX: "sender", SML: "sender", SWAP_SM: "sender",
    RO: "receiver",
    CO: "impartial", SWAP_SR: "impartial", MO_ML: "impartial",
}


@dataclass(frozen=True)
class Notion:
    kind: str
    n_max: int = 0
    x1: bool = False
    corrupted: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown notion kind {self.kind!r}")
        if self.kind == SO_NMAX and self.n_max < 1:
            raise ValueError("SO_nmax needs n_max >= 1")
        object.__setattr__(self, "corrupted", frozenset(self.corrupted))

    def name(self) -> str:
        base = f"SO_nmax:{self.n_max}" if self.kind == SO_NMAX else self.kind
        if self.x1:
            base += "_1"
        if self.corrupted:
            base += "_ce"
        return base


def parse_notion(text: str, corrupted=frozenset()) -> Notion:
    """Parse a canonical notion string like "SO", "SO_nmax:2" or "(SM)L_1_ce"."""
    rest = text.strip()
    ce = rest.endswith("_ce")
    if ce:
        rest = rest[:-3]
    x1 = rest.endswith("_1")
    if x1:
        rest = rest[:-2]
    n_max = 0
    if rest.startswith("SO_nmax:"):
        n_max = int(rest.split(":", 1)[1])
        rest = SO_NMAX
    if rest not in KINDS:
        raise ValueError(f"cannot parse notion {text!r}")
    if ce and not corrupted:
        raise ValueError("notion with _ce needs a corrupted user set")
    return Notion(rest, n_max=n_max, x1=x1, corrupted=frozenset(corrupted) if ce else frozenset())


def _aligned(b0: Batch, b1: Batch):
    if len(b0.rows) != len(b1.rows):
        return None
    return list(zip(b0.rows, b1.rows))


# the field a row may change -> the fields it keeps
_KEPT = {"sender": attrgetter("receiver", "message"),
         "receiver": attrgetter("sender", "message")}


def _only_changes(rows, free: str) -> bool:
    # per index: both rows are NO_COMM, or both communications that agree
    # on every field but `free` ("sender" or "receiver")
    kept = _KEPT[free]
    for r0, r1 in rows:
        if r0 is NO_COMM or r1 is NO_COMM:
            if r0 is not r1:
                return False
        elif kept(r0) != kept(r1):
            return False
    return True


def _swap_ok(rows, require_common: str) -> bool:
    # exactly two rows differ; they trade senders and agree on the named field
    diffs = [i for i, (r0, r1) in enumerate(rows) if r0 != r1]
    if len(diffs) != 2:
        return False
    j, k = diffs
    r0j, r1j = rows[j]
    r0k, r1k = rows[k]
    if NO_COMM in (r0j, r1j, r0k, r1k):
        return False
    if getattr(r0j, require_common) != getattr(r0k, require_common):
        return False
    return (_only_changes((rows[j], rows[k]), "sender")
            and r1j.sender == r0k.sender and r1k.sender == r0j.sender)


def _counts_capped(batch: Batch, cap: int) -> bool:
    return all(c <= cap for c in sender_counts(batch).values())


def _x1_ok(notion: Notion, b0: Batch, b1: Batch) -> bool:
    cls = _X1_CLASS[notion.kind]
    for b in (b0, b1):
        if cls in ("sender", "impartial") and any(c != 1 for c in sender_counts(b).values()):
            return False
        if cls in ("receiver", "impartial") and any(c != 1 for c in receiver_counts(b).values()):
            return False
    return True


def _corruption_ok(corrupted, b0: Batch, b1: Batch) -> bool:
    # rows touching a corrupted user must keep their payload across scenarios;
    # with unequal lengths that cannot be established, so reject
    if len(b0.rows) != len(b1.rows):
        return False
    for r0, r1 in zip(b0.rows, b1.rows):
        touched = False
        for r in (r0, r1):
            if r is not NO_COMM and (r.sender in corrupted or r.receiver in corrupted):
                touched = True
        if not touched:
            continue
        if r0 is NO_COMM or r1 is NO_COMM:
            return False
        if r0.message != r1.message:
            return False
    return True


def is_valid_pair(notion: Notion, b0: Batch, b1: Batch) -> bool:
    """True iff (b0, b1) is a challenge the notion permits, per index."""
    kind = notion.kind
    if kind != CO:
        rows = _aligned(b0, b1)
        if rows is None:
            return False

    if kind == CO:
        ok = True
    elif kind == RO:
        ok = _only_changes(rows, "receiver")
    elif kind in (SO, SO_NMAX, SML):
        ok = _only_changes(rows, "sender")
        if ok and kind == SO_NMAX:
            ok = _counts_capped(b0, notion.n_max) and _counts_capped(b1, notion.n_max)
        if ok and kind == SML:
            ok = sender_counts(b0) == sender_counts(b1)
    elif kind == SWAP_SM:
        ok = _swap_ok(rows, "receiver")
    elif kind == SWAP_SR:
        ok = _swap_ok(rows, "message")
    elif kind == MO_ML:
        ok = (all(r0 is not NO_COMM and r1 is not NO_COMM for r0, r1 in rows)
              and sender_counts(b0) == sender_counts(b1)
              and receiver_counts(b0) == receiver_counts(b1))
    else:  # pragma: no cover
        raise AssertionError(kind)

    if ok and notion.x1:
        ok = _x1_ok(notion, b0, b1)
    if ok and notion.corrupted:
        ok = _corruption_ok(notion.corrupted, b0, b1)
    return ok


def valid_under_reindexing(notion: Notion, b0: Batch, b1: Batch):
    """Search permutations of b1's rows; return the first (lexicographically
    smallest in index order) that makes the pair valid, or None.

    A notion constrains which communications each scenario holds, not
    where a row is recorded, so reordering batch1 asks the notion the same
    question.  A game plays a pair's rows in the order given, which a
    slotted protocol model reads as one start round per row.
    """
    n = len(b1.rows)
    for perm in itertools.permutations(range(n)):
        candidate = Batch(tuple(b1.rows[i] for i in perm))
        if is_valid_pair(notion, b0, candidate):
            return perm
    return None


def enumerate_batches(users: int, messages: int, max_len: int):
    """All batches over a small universe, NO_COMM rows included."""
    rows = [Communication(s, r, m) for s in range(users) for r in range(users)
            for m in range(messages)]
    rows.append(NO_COMM)
    out = []
    for length in range(1, max_len + 1):
        for combo in itertools.product(rows, repeat=length):
            out.append(Batch(tuple(combo)))
    return out


def hierarchy_subset_check(weaker: Notion, stronger: Notion, users: int,
                           messages: int, max_len: int) -> bool:
    """Check valid(weaker) is contained in valid(stronger) by enumeration.

    Both sides are taken modulo reindexing of batch1.  Only feasible for
    tiny universes; anything bigger raises instead of silently crawling.
    """
    if users > 4 or messages > 3 or max_len > 3:
        raise ResourceLimitError("universe too large to enumerate")
    batches = enumerate_batches(users, messages, max_len)
    for b0 in batches:
        for b1 in batches:
            if valid_under_reindexing(weaker, b0, b1) is None:
                continue
            if valid_under_reindexing(stronger, b0, b1) is None:
                return False
    return True


@dataclass(frozen=True)
class ScenarioPair:
    """A validated challenge: two batches plus the notion they satisfy."""

    batch0: Batch
    batch1: Batch
    notion: Notion

    def __post_init__(self):
        if not is_valid_pair(self.notion, self.batch0, self.batch1):
            raise ValueError(f"pair is not valid under {self.notion.name()}")

    def batch(self, b: int) -> Batch:
        return self.batch1 if b else self.batch0

    # The challenge fields are read on every trial, so each is computed
    # once per pair; the pair is frozen, so they never go stale.

    @functools.cached_property
    def _differing_rows(self):
        # index by index, the shorter batch facing empty slots past its end
        return tuple((r0, r1) for r0, r1 in itertools.zip_longest(
            self.batch0.rows, self.batch1.rows, fillvalue=NO_COMM)
            if r0 != r1)

    @functools.cached_property
    def _suspects(self):
        for r0, r1 in self._differing_rows:
            if r0 is not NO_COMM and r1 is not NO_COMM:
                return r0.sender, r1.sender
        return None

    @functools.cached_property
    def _challenge_row(self):
        # the scenario-0 row of the first differing index that has one
        for r0, _ in self._differing_rows:
            if r0 is not NO_COMM:
                return r0
        return None

    def suspects(self):
        """Senders of the first differing row: (accused under 0, under 1)."""
        if self._suspects is None:
            raise ValueError("pair has no differing row with two senders")
        return self._suspects

    def challenge_receiver(self):
        if self._challenge_row is None:
            raise ValueError("pair has no differing row with a receiver")
        return self._challenge_row.receiver

    def challenge_message(self):
        if self._challenge_row is None:
            raise ValueError("pair has no differing row with a payload")
        return self._challenge_row.message


def _force_differ(senders, n):
    # swap the first unequal positions; a constant profile gets its head
    # bumped instead, which keeps any per-sender cap satisfied
    out = list(senders)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i] != out[j]:
                out[i], out[j] = out[j], out[i]
                return out
    out[0] = (out[0] + 1) % n
    return out


def generate_pair(notion: Notion, params: ProtocolParams, seed: int,
                  length=None) -> ScenarioPair:
    """Deterministically build a valid pair for the notion.

    Used by the CLI and the game engine when the caller does not hand-craft
    batches.  The receiver of interest is pinned to user n-1 so that attack
    vantage points have a stable target.
    """
    rng = random.Random(seed)
    n = params.n
    recv = n - 1
    if notion.x1:
        if length is not None and length != n:
            raise ValueError("x1 restriction needs batch length n")
        length = n
    elif length is None:
        length = 2 if notion.kind in (SWAP_SM, SWAP_SR, SML) else 1
    if length < 1:
        raise ValueError(f"a batch needs at least one row, got length "
                         f"{length}")
    if notion.kind in (SWAP_SM, SWAP_SR, SML) and length < 2:
        raise ValueError(f"{notion.kind} needs at least two rows to differ")

    def senders_for():
        if notion.x1:
            order = list(range(n))
            rng.shuffle(order)
            return order
        if notion.kind == SO_NMAX:
            picks, counts = [], {}
            for _ in range(length):
                opts = [u for u in range(n) if counts.get(u, 0) < notion.n_max]
                if not opts:
                    raise ValueError("notion unsatisfiable at this length")
                u = rng.choice(opts)
                counts[u] = counts.get(u, 0) + 1
                picks.append(u)
            return picks
        return [rng.randrange(n) for _ in range(length)]

    if notion.x1 and _X1_CLASS[notion.kind] != "sender":
        # x1 pins each receiver to one row
        receivers = list(range(n))
        rng.shuffle(receivers)
    else:
        receivers = [recv] * length
    senders = senders_for()
    if notion.kind == SML and len(set(senders)) == 1:
        # a constant profile admits no volume-preserving variation
        senders[-1] = (senders[-1] + 1) % n
    messages = list(range(length))

    kind = notion.kind
    if kind in (SWAP_SM, SWAP_SR):
        i, j = (0, 1) if length == 2 else sorted(rng.sample(range(length), 2))
        if kind == SWAP_SR:
            # the swapped rows must share a payload
            messages[j] = messages[i]
        if senders[i] == senders[j]:
            senders[j] = (senders[j] + 1 + rng.randrange(n - 1)) % n
    rows0 = [Communication(senders[i], receivers[i], messages[i]) for i in range(length)]

    if kind in (SWAP_SM, SWAP_SR):
        rows1 = list(rows0)
        rows1[i] = Communication(rows0[j].sender, rows0[i].receiver, rows0[i].message)
        rows1[j] = Communication(rows0[i].sender, rows0[j].receiver, rows0[j].message)
    elif kind in (SO, SO_NMAX, SML, CO):
        def redraw():
            return rng.sample(senders, len(senders)) if kind == SML \
                else senders_for()

        new_senders = redraw()
        for _ in range(16):
            if new_senders != senders:
                break
            new_senders = redraw()
        else:
            new_senders = _force_differ(senders, n)
        rows1 = [Communication(new_senders[i], receivers[i], messages[i]) for i in range(length)]
    elif kind == RO:
        if notion.x1:
            # another permutation, so each receiver keeps its one row
            new_recv = rng.sample(receivers, length)
            if new_recv == receivers:
                new_recv[0], new_recv[1] = new_recv[1], new_recv[0]
        else:
            new_recv = [rng.randrange(n) for _ in range(length)]
            if new_recv == receivers:
                new_recv[0] = (receivers[0] + 1) % n
        rows1 = [Communication(senders[i], new_recv[i], messages[i]) for i in range(length)]
    elif kind == MO_ML:
        rows1 = [Communication(senders[i], receivers[i],
                               messages[i] if (senders[i] in notion.corrupted or
                                               receivers[i] in notion.corrupted)
                               else length + i)
                 for i in range(length)]
    else:  # pragma: no cover
        raise AssertionError(kind)

    pair = ScenarioPair(make_batch(rows0), make_batch(rows1), notion)
    return pair
