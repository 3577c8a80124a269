#!/usr/bin/env python3
"""Run the built-in verification suite over a parameter sweep.

Each line of output is one verify run: the protocol/attack pair, the
parameter point, the simulated advantage with its interval, the reference
value, and pass/fail.  Exits nonzero if any point fails, so the sweep can
gate a CI job.
"""

import argparse
import hashlib
import itertools
import sys

from acnbounds.adversaries import (counting_attack, dropping_attack,
                                   timing_attack)
from acnbounds.cli import expected_advantage, verify_passes
from acnbounds.core import Communication, ProtocolParams, make_batch
from acnbounds.game import estimate_advantage
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import ProtocolKind

SO = parse_notion("SO")


def _pair(n):
    return ScenarioPair(make_batch([Communication(0, n - 1, 0)]),
                        make_batch([Communication(1, n - 1, 0)]), SO)


def _point_seed(seed, label):
    """Each point's own seed, from the sweep's seed and the point's label.
    Solves at one seed share their randomness (a watched user's cover coins
    do not depend on n), so a shared seed would make points repeat one
    another's draws instead of checking independently."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sweep(trials, seed, tol):
    failures = 0

    def check(label, kind, attack, n):
        # the reference value and the pass rule are `acnbounds verify`'s
        nonlocal failures
        est = estimate_advantage(kind, attack, _pair(n), trials,
                                 _point_seed(seed, label))
        expected, rule = expected_advantage(kind, attack)
        ok = verify_passes(est, expected, rule, tol)
        failures += 0 if ok else 1
        print(f"{label:58} adv={est.point:+.4f} "
              f"ci=[{est.ci_low:+.4f},{est.ci_high:+.4f}] "
              f"ref={expected:.4f} {'ok' if ok else 'FAIL'}")

    for n, l_max, p in itertools.product((2, 10), (2, 3), (0.1, 0.5)):
        kind = ProtocolKind("trilemma-unsync",
                            ProtocolParams(n=n, l_max=l_max, beta=p))
        check(f"trilemma-unsync timing n={n} l_max={l_max} p={p}",
              kind, timing_attack(n), n)

    for n, beta in ((10, 0.2), (10, 0.9), (20, 0.5)):
        kind = ProtocolKind("trilemma-sync",
                            ProtocolParams(n=n, l_max=2, beta=beta))
        check(f"trilemma-sync timing n={n} beta={beta}",
              kind, timing_attack(n), n)

    kind = ProtocolKind("broadcast-full-dummy", ProtocolParams(n=3, l_max=2))
    check("broadcast counting n=3", kind, counting_attack(3), 3)

    for c_a in (0, 1, 2, 4):
        kind = ProtocolKind("dropping-model",
                            ProtocolParams(n=3, l_max=1, relays=4, copies=2))
        check(f"dropping-model c_a={c_a} copies=2 pool=4",
              kind, dropping_attack(3, c_a=c_a), 3)

    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=0.02)
    args = ap.parse_args()
    failures = sweep(args.trials, args.seed, args.tol)
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
