"""Closed-form lower bounds on adversary advantage and protocol overhead.

Conventions used throughout:

  n       number of users
  l_max   worst-case latency in rounds a message may stay in transit
  beta    dummy rate: expected dummy messages per user per round
  p       total send rate per user per round (real plus dummy traffic)
  c_p     passively compromised relays, K relays overall

Synchronized-cover bounds take beta; unsynchronized ones take p.  Every
function returns the advantage any protocol in the model class must
concede to some adversary, i.e. larger is worse for the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb


def _clamp(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _check_rate(name, x):
    if x is None or not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


def covered_fraction(x: float, n: int, beta: float) -> float:
    """Chance bound that a bystander shows up among x rounds of cover
    traffic: min(1, x*(1 + beta*n)/(n - 1))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return min(1.0, x * (1.0 + beta * n) / (n - 1))


def _check_path(l_max, c_p=0, relays=0):
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    if not 0 <= c_p <= relays:
        raise ValueError("need 0 <= c_p <= relays")


def trilemma_sync(l_max: int, beta: float, n: int, c_p: int = 0,
                  relays: int = 1) -> float:
    """Minimum advantage under synchronized cover at dummy rate beta when
    c_p of the relays leak their mappings; c_p = 0 is the base bound.

    Two regimes: with c_p >= l_max - 1 the whole path can land inside the
    compromised set; below that the adversary only shortens the effective
    transit window.
    """
    _check_path(l_max, c_p, relays)
    _check_rate("beta", beta)
    if n < 2:
        raise ValueError("sync cover needs n >= 2")
    if c_p >= l_max - 1:
        hit = comb(c_p, l_max - 1) / comb(relays, l_max - 1)
        return _clamp(1.0 - (1.0 - hit) * covered_fraction(l_max - 1, n, beta))
    miss = 1.0 - 1.0 / comb(relays, c_p)
    return _clamp(1.0 - miss * covered_fraction(c_p, n, beta)
                  - covered_fraction(l_max - 1 - c_p, n, beta))


def trilemma_unsync(l_max: int, p: float, c_p: int = 0,
                    relays: int = 1) -> float:
    """The improved unsynchronized-cover bound at send rate p, in the
    regimes of `trilemma_sync`; c_p = 0 is (1 - p)^(l_max - 1)."""
    _check_path(l_max, c_p, relays)
    _check_rate("p", p)
    if c_p >= l_max - 1:
        hit = comb(c_p, l_max - 1) / comb(relays, l_max - 1)
        return _clamp(1.0 - (1.0 - hit) * (1.0 - (1.0 - p) ** (l_max - 1)))
    miss = 1.0 - 1.0 / comb(relays, c_p)
    return _clamp((1.0 - p) ** (l_max - 1 - c_p)
                  * (1.0 - (1.0 - (1.0 - p) ** c_p) * miss))


def trilemma_unsync_original(l_max: int, p: float) -> float:
    """The original unsynchronized bound: the adversary may have to split
    its bet with a half guess."""
    _check_path(l_max)
    _check_rate("p", p)
    return _clamp((1.0 - p) ** (l_max - 1) - 0.5)


# ------------------------------------------------------------ traffic side

def counting_bound(out_r: int, hops: int) -> dict:
    """Moving out_r delivered messages over `hops` stages costs at least
    out_r * hops transmissions; all but one stage per message is overhead."""
    if out_r < 0 or hops < 1:
        raise ValueError("need out_r >= 0 and hops >= 1")
    return {"min_messages": out_r * hops,
            "overhead_fraction": (hops - 1) / hops}


# --------------------------------------------------------- parameter space

@dataclass(frozen=True)
class RegionVerdict:
    verdict: str               # impossible | possible | not-applicable
    threshold: float
    condition: str

    def impossible(self) -> bool:
        return self.verdict == "impossible"


def _check_users(n):
    if n < 1:
        raise ValueError("need n >= 1")


def security_parameter(n: int, poly_lambda=None) -> float:
    """The polynomial the region tests measure slack against: poly_lambda
    when given, else the population n, which must then exceed 1.  Every
    region and atlas path resolves it first, so n < 1 is refused here."""
    _check_users(n)
    if poly_lambda is not None:
        return poly_lambda
    if n <= 1:
        raise ValueError(f"n={n} leaves no security parameter above 1 (it "
                         "defaults to n)")
    return float(n)


def counting_min_beta(poly_lambda: float) -> float:
    """Dummy rate below which the counting adversary wins except with
    polynomially small slack."""
    if poly_lambda <= 1:
        raise ValueError("poly_lambda must exceed 1")
    return 1.0 - 1.0 / poly_lambda


def _trilemma_window(l_max: int, c_p: int) -> int:
    # the transit rounds that cover must fill: c_p compromised relays
    # shorten them, unless the whole path fits inside the compromised set
    return l_max - 1 - c_p if c_p < l_max - 1 else l_max - 1


def trilemma_min_beta(l_max: int, poly_lambda: float, c_p: int = 0) -> float:
    """Send rate below which the latency bound keeps the advantage
    non-negligible."""
    if poly_lambda <= 1:
        raise ValueError("poly_lambda must exceed 1")
    if l_max <= 1:
        return math.inf
    return (1.0 - 1.0 / poly_lambda) / (2.0 * _trilemma_window(l_max, c_p))


def dropping_min_p(l_max: int, lam: float, poly_lambda: float) -> float:
    """Cover rate below which an actively dropping adversary can starve a
    target without detection."""
    if l_max < 1 or lam <= 1 or poly_lambda <= 1:
        raise ValueError("need l_max >= 1, lam > 1, poly_lambda > 1")
    return math.log(lam, 2.0) / (poly_lambda * l_max)


def counting_region(beta: float, poly_lambda: float) -> RegionVerdict:
    """Counting verdict at dummy rate beta: cover must match the useful
    volume up to the 1/poly_lambda slack."""
    _check_rate("beta", beta)
    thr = counting_min_beta(poly_lambda)
    if beta < thr:
        return RegionVerdict("impossible", thr,
                             "cover volume cannot hide who communicates")
    return RegionVerdict("possible", thr, "cover matches useful volume")


def trilemma_region(n: int, l_max: int, beta: float, poly_lambda: float,
                    c_p: int = 0) -> RegionVerdict:
    """Trilemma verdict at cover rate beta for n users, with c_p of the
    relays compromised; the verdict is the same whether beta is a dummy
    rate or a send rate."""
    _check_path(l_max)
    if c_p < 0:
        raise ValueError(f"need c_p >= 0, got {c_p}")
    _check_rate("beta", beta)
    thr = trilemma_min_beta(l_max, poly_lambda, c_p)
    if l_max <= 1:
        return RegionVerdict("not-applicable", thr,
                             "no transit window at l_max <= 1")
    window = _trilemma_window(l_max, c_p)
    cond = "short window" if c_p < l_max - 1 else \
        "path can hide only inside the compromised set"
    if beta * n < 1.0:
        return RegionVerdict("impossible", thr,
                             "well under one message of cover per round")
    if 2.0 * window * beta <= 1.0 - 1.0 / poly_lambda:
        return RegionVerdict("impossible", thr, cond)
    return RegionVerdict("possible", thr, cond)


def dropping_region(l_max: int, p: float, lam: float,
                    poly_lambda: float) -> RegionVerdict:
    """Dropping verdict at send rate p: cover must outlast an actively
    dropping adversary (see `dropping_min_p`)."""
    _check_rate("p", p)
    thr = dropping_min_p(l_max, lam, poly_lambda)
    if p <= thr:
        return RegionVerdict("impossible", thr,
                             "too little cover to survive targeted drops")
    return RegionVerdict("possible", thr, "cover outlasts the drop budget")


def _check_onion(n, lam):
    _check_users(n)
    if lam <= 1:
        raise ValueError(f"need lam > 1, got {lam}")


def onion_cost(n: int, lam: float, p: float = 1.0,
               l_exp: float = None) -> dict:
    """Messages n users send at rate p over circuits of l_exp hops (log2 lam
    by default); p = 1 is the counting cost n * l_exp."""
    _check_onion(n, lam)
    _check_rate("p", p)
    name = "l_exp"
    if l_exp is None:
        l_exp, name = math.log2(lam), "log2 lam"
    if l_exp < 1:
        raise ValueError(f"need {name} >= 1, got {l_exp}")
    per_user = n * p * l_exp
    return {"per-user": per_user, "network": n * per_user}


def onion_cost_dropping(n: int, lam: float) -> dict:
    """Messages required against a dropping adversary: log2 lam per user."""
    _check_onion(n, lam)
    per_user = math.log2(lam)
    return {"per-user": per_user, "network": n * per_user}
