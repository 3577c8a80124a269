"""The benchmark's workloads: what each one builds, solves and must equal.

A solve is one `estimate_advantage` (Monte Carlo) or `exact_advantage`
call, run serially with the default worker count. Every challenge pair is
the one-row SO pair (0 -> n-1) vs (1 -> n-1), for which the closed forms
below are exact, not just floors. All rates are dyadic, so each reference
is an exact Fraction whether the package reads rates as floats or as
decimal strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from acnbounds.adversaries import timing_attack, tracing_attack
from acnbounds.core import Communication, ProtocolParams, make_batch
from acnbounds.game import (estimate_advantage, exact_advantage, record_json,
                            result_record)
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import ProtocolKind, enumerate_outcomes

# the default tolerance of `acnbounds verify`
TOL = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str        # "trilemma-unsync" (timing attack) or "onion-path"
    n: int
    l_max: int
    p: Fraction
    relays: int = 0
    c_p: int = 0
    trials: int | None = None   # None solves by exact enumeration

    def build(self):
        """The kind, attack and pair a solve needs."""
        params = ProtocolParams(n=self.n, l_max=self.l_max,
                                beta=float(self.p), relays=self.relays)
        if self.protocol == "onion-path":
            attack = tracing_attack(self.n, self.c_p)
        else:
            attack = timing_attack(self.n)
        so = parse_notion("SO")
        pair = ScenarioPair(make_batch([Communication(0, self.n - 1, 0)]),
                            make_batch([Communication(1, self.n - 1, 0)]), so)
        return ProtocolKind(self.protocol, params), attack, pair

    def reference(self) -> Fraction:
        """The exact advantage of the workload's attack."""
        # the other suspect stays silent for the l_max-1 rounds of the window
        timing = (1 - self.p) ** (self.l_max - 1)
        if self.protocol != "onion-path":
            return timing
        # the chain is followed back to its sender only when every relay on
        # the path (l_exp - 1 = l_max - 1 of them) is compromised; otherwise
        # timing decides
        hops = self.l_max - 1
        hit = Fraction(comb(self.c_p, hops), comb(self.relays, hops))
        return hit + (1 - hit) * timing

    def solve(self, built, master_seed: int):
        kind, attack, pair = built
        if self.trials is None:
            return exact_advantage(kind, attack, pair)
        return estimate_advantage(kind, attack, pair, self.trials,
                                  master_seed)

    def check(self, result) -> bool:
        """`verify`'s two-sided rule for an estimate; equality for exact."""
        reference = self.reference()
        if self.trials is None:
            return result == reference
        return result.ci_low - TOL <= reference <= result.ci_high + TOL

    def work(self, built) -> int:
        """Games played per solve: trials, or outcomes over both arms."""
        if self.trials is not None:
            return self.trials
        kind, _, pair = built
        return sum(len(enumerate_outcomes(kind, pair, b)) for b in (0, 1))

    def fingerprint(self, built, result, master_seed: int) -> str:
        """The exact Fraction, or the sha256 of the estimate's record: what
        a performance change must leave byte-identical."""
        if self.trials is None:
            return str(result)
        kind, attack, pair = built
        record = record_json(result_record(kind, attack, pair, result,
                                           master_seed))
        return hashlib.sha256(record.encode()).hexdigest()


WORKLOADS = (
    Workload("mc-unsync-wide", "trilemma-unsync", n=100, l_max=5,
             p=Fraction(1, 4), trials=4000),
    Workload("mc-unsync-small", "trilemma-unsync", n=10, l_max=3,
             p=Fraction(1, 4), trials=10000),
    Workload("mc-onion-trace", "onion-path", n=20, l_max=3, p=Fraction(1, 4),
             relays=6, c_p=3, trials=4000),
    Workload("exact-unsync", "trilemma-unsync", n=2, l_max=4,
             p=Fraction(1, 4)),
)

BY_NAME = {w.name: w for w in WORKLOADS}
