"""Catalog of deployed-system archetypes measured against the bounds.

Each preset records two per-round traffic columns as linear forms in n:
how much cover the design injects and how much communication volume it
carries.  Those two columns decide the counting verdict (cover must keep
up with carried volume); latency and cover rate at a concrete (n, lambda)
point decide the trilemma and dropping verdicts via the region tests.

The presets are behavioral sketches: enough of each design's shape to
place it relative to the bounds, nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (counting_min_beta, counting_region, dropping_min_p,
                     dropping_region, security_parameter, trilemma_min_beta,
                     trilemma_region)

GRID_HEADER = ("l_max,beta,counting_min_beta,trilemma_min_beta,"
               "dropping_min_p,counting_verdict,trilemma_verdict,"
               "dropping_verdict")


@dataclass(frozen=True)
class PerRound:
    """Volume per round as per_n * n + const."""
    per_n: float = 0.0
    const: float = 0.0

    def at(self, n: int) -> float:
        return self.per_n * n + self.const

    def covers(self, other: "PerRound") -> bool:
        # the n coefficient decides; equal ones fall back to the constant
        return (self.per_n, self.const) >= (other.per_n, other.const)


@dataclass(frozen=True)
class AcnPreset:
    name: str
    dummy: PerRound
    comms: PerRound
    dummy_special: PerRound = None
    superposed: bool = False       # send rounds are shared, latency one round
    parallel_required: bool = False
    full_rate: bool = False        # every client transmits every round
    hops_rule: str = "const"       # const | sqrt-lam | log-lam
    hops: int = 3
    note: str = ""

    def point_params(self, n: int, lam: float) -> dict:
        if self.hops_rule == "sqrt-lam":
            hops = math.ceil(math.sqrt(lam))
        elif self.hops_rule == "log-lam":
            hops = math.ceil(math.log2(lam))
        else:
            hops = self.hops
        l_max = 1 if self.superposed else hops + 1
        beta = min(1.0, self.dummy.at(n) / n)
        p = 1.0 if (self.full_rate or self.superposed) \
            else min(1.0, beta + 1.0 / n)
        return {"l_max": l_max, "beta": beta, "p": p}


PRESETS = {p.name: p for p in (
    AcnPreset("tor", PerRound(), PerRound(1.0),
              note="circuit onion routing, no cover traffic"),
    AcnPreset("hornet", PerRound(), PerRound(1.0),
              note="network-layer onion routing, no cover traffic"),
    AcnPreset("threshold-mix", PerRound(), PerRound(1.0),
              hops=10,  # a message can queue behind nine others
              note="flushes once enough messages queue up"),
    AcnPreset("herd", PerRound(const=1.0), PerRound(1.0),
              note="constant chaff near the client zone"),
    AcnPreset("dcnet", PerRound(const=1.0), PerRound(const=1.0),
              superposed=True, full_rate=True,
              note="every round is a shared superposed send"),
    AcnPreset("dissent", PerRound(const=1.0), PerRound(const=1.0),
              superposed=True, full_rate=True,
              note="anytrust group messaging over superposed rounds"),
    AcnPreset("dicemix", PerRound(1.0), PerRound(1.0),
              superposed=True, full_rate=True,
              note="peer-to-peer superposed rounds, everyone contributes"),
    AcnPreset("loopix", PerRound(0.5), PerRound(1.0),
              hops_rule="sqrt-lam",
              note="poisson cover at a constant fraction of real traffic"),
    AcnPreset("vuvuzela", PerRound(const=1.0), PerRound(1.0),
              hops_rule="log-lam", full_rate=True,
              note="dead-drop rounds, clients always transmit"),
    AcnPreset("riffle", PerRound(), PerRound(1.0),
              dummy_special=PerRound(const=1.0),
              hops_rule="log-lam", full_rate=True,
              note="verifiable shuffle, clients transmit every round"),
    AcnPreset("riposte", PerRound(), PerRound(1.0),
              dummy_special=PerRound(const=1.0),
              superposed=True, parallel_required=True,
              note="distributed database writes, needs many parallel "
                   "communications to hide among"),
)}

MODES = ("general", "special")


def classify(preset: AcnPreset, mode: str = "general", n: int = 1000,
             lam: float = 256.0, poly_lambda=None) -> dict:
    """Verdict per bound: meets / falls-short / not-applicable.

    Mode "special" swaps in a preset's best-case cover column, for designs
    whose favorable deployment differs from their general behavior.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    poly_lambda = security_parameter(n, poly_lambda)
    dummy = preset.dummy
    if mode == "special":
        dummy = preset.dummy_special or dummy
    counting = "meets" if dummy.covers(preset.comms) else "falls-short"

    pt = preset.point_params(n, lam)
    if preset.parallel_required and mode == "general":
        trilemma = "not-applicable"
        tri_why = "needs many parallel communications"
    else:
        region = trilemma_region(n, pt["l_max"], pt["p"], poly_lambda)
        if region.verdict == "not-applicable":
            trilemma, tri_why = "not-applicable", region.condition
        else:
            trilemma = "falls-short" if region.impossible() else "meets"
            tri_why = region.condition

    drop = dropping_region(pt["l_max"], pt["p"], lam, poly_lambda)
    dropping = "falls-short" if drop.impossible() else "meets"

    return {
        "preset": preset.name,
        "mode": mode,
        "counting": counting,
        "trilemma": trilemma,
        "trilemma_reason": tri_why,
        "dropping": dropping,
        "params": pt,
        "note": preset.note,
    }


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def emit_grid(l_max_values, beta_values, n: int = 1000, lam: float = 256.0,
              poly_lambda=None):
    """CSV lines mapping (l_max, beta) points to thresholds and verdicts.

    The beta axis doubles as the send rate for the dropping test, so one
    grid shows all three bounds side by side.  Every row is computed before
    the header is yielded, so a bad value raises ValueError before any
    output.
    """
    poly_lambda = security_parameter(n, poly_lambda)
    rows = []
    for l_max in l_max_values:
        cb = counting_min_beta(poly_lambda)
        tb = trilemma_min_beta(l_max, poly_lambda)
        dp = dropping_min_p(l_max, lam, poly_lambda)
        for beta in beta_values:
            cv = counting_region(beta, poly_lambda)
            tv = trilemma_region(n, l_max, beta, poly_lambda)
            dv = dropping_region(l_max, beta, lam, poly_lambda)
            rows.append(",".join([
                str(l_max), _fmt(beta), _fmt(cb), _fmt(tb), _fmt(dp),
                cv.verdict, tv.verdict, dv.verdict,
            ]))
    yield GRID_HEADER
    yield from rows
