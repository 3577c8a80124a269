"""Command line front end.

Subcommands:

  bound      evaluate a closed-form bound at a parameter point
  simulate   run the distinguishing game and report the advantage
  verify     simulate, then check the estimate against its reference
             value; with --sweep, check every reference row's points
  region     classify a parameter point as possible / impossible
  atlas      preset verdict table, or a CSV grid over (l_max, beta)

Exit codes: 0 on success, 2 when a verification check fails, 1 for usage
or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys

from . import atlas as atlas_mod
from . import bounds
from .adversaries import (counting_attack, dropping_attack,
                          dropping_success_rate, random_guess_attack,
                          timing_attack, tracing_attack)
from .core import (CapabilityError, Communication, ConfigError,
                   ProtocolParams, make_batch)
from .game import estimate_advantage, record_json, result_record
from .notions import ScenarioPair, generate_pair, parse_notion
from .protocols import ProtocolKind, VARIANTS


class _Parser(argparse.ArgumentParser):
    # a flag matches only as typed, never by a prefix of its name
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits 2 on bad usage; the contract reserves 2 for failed
    # verification, so usage problems leave with 1 instead
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# a parameter of a closed form, an attack or `ProtocolParams` -> the flag
# it is typed as, where the two names differ; a function reads the flags
# of its positional parameters (`_reads`), and is called on their values
_FLAG = {"l_max": "lmax", "c_p": "cp", "c_a": "ca", "out_r": "out",
         "l_exp": "lexp"}


def _flags(*names):
    return tuple(_FLAG.get(name, name) for name in names if name)


def _reads(fn):
    code = fn.__code__
    return _flags(*code.co_varnames[:code.co_argcount])


def _call(fn, ns):
    return fn(*(getattr(ns, flag) for flag in _reads(fn)))


# --kind -> its closed form, whose parameters are the flags the kind reads
# besides --kind (`_reads`); an untyped cover rate exits 1 in its check
_BOUNDS = {"trilemma-sync": bounds.trilemma_sync,
           "trilemma-unsync-original": bounds.trilemma_unsync_original,
           "trilemma-unsync-improved": bounds.trilemma_unsync,
           "counting": bounds.counting_bound, "onion-cost": bounds.onion_cost,
           "onion-cost-dropping": bounds.onion_cost_dropping}

# --attack -> the attack, whose parameters but n are the flags of
# `_MODEL_FLAGS` it reads
_ATTACKS = {"counting": counting_attack, "timing-interval": timing_attack,
            "path-tracing": tracing_attack, "dropping": dropping_attack,
            "random-guess": random_guess_attack}

# the `simulate` flags that only some protocols or attacks read
_MODEL_FLAGS = set().union(
    *(_flags(row.rate, *row.reads) for row in VARIANTS.values()),
    *map(_reads, _ATTACKS.values())) - {"n"}

# (protocol, attack) -> (check, value(params, capability), label, points):
# `verify` holds a run to its row's value, `floor` a lower bound the
# attack must reach and `exact` a combinatorial value.  `verify --sweep`
# runs each point (the flags of one `verify` run) on the one-row SO pair
# (0 -> n-1) vs (1 -> n-1), and names it by `label` over its flags.
_REFERENCES = {
    ("trilemma-unsync", "timing-interval"): (
        "floor",
        lambda p, cap: bounds.trilemma_unsync(p.l_max, p.beta),
        "trilemma-unsync timing n={n} l_max={lmax} p={p}",
        [f"--n {n} --lmax {l_max} --p {p}" for n, l_max, p
         in itertools.product((2, 10), (2, 3), (0.1, 0.5))]),
    ("trilemma-sync", "timing-interval"): (
        "floor",
        lambda p, cap: bounds.trilemma_sync(p.l_max, p.beta, p.n),
        "trilemma-sync timing n={n} beta={beta}",
        [f"--n {n} --lmax 2 --beta {beta}"
         for n, beta in ((10, 0.2), (10, 0.9), (20, 0.5))]),
    ("broadcast-full-dummy", "counting"): (
        "exact", lambda p, cap: 0.0,
        "broadcast counting n={n}", ["--n 3 --lmax 2"]),
    ("dropping-model", "dropping"): (
        "exact",
        lambda p, cap: dropping_success_rate(
            cap.c_a, p.copies, p.first_hops, p.integrated),
        "dropping-model c_a={ca} copies={copies} pool={relays}",
        [f"--n 3 --lmax 1 --relays 4 --copies 2 --ca {c_a}"
         for c_a in (0, 1, 2, 4)]),
}


# region --bound -> its verdict, whose parameters are the flags the bound
# reads besides --bound and --n (`_reads`); every bound reads --n for the
# default security parameter, which `_cmd_region` resolves before the call
_REGIONS = {"counting": bounds.counting_region,
            "trilemma": bounds.trilemma_region,
            "dropping": bounds.dropping_region}


def _add_common(sp, n=2, point=True, lam=True, poly_lambda=True):
    sp.add_argument("--n", type=int, default=n)
    if point:
        sp.add_argument("--lmax", type=int, default=1)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--p", type=float,
                        help="unsynchronized send rate")
        sp.add_argument("--cp", type=int, default=0,
                        help="passively compromised relays")
    if lam:
        sp.add_argument("--lam", type=float, default=256.0)
    if poly_lambda:
        sp.add_argument("--poly-lambda", dest="poly_lambda", type=float)


def _build_parser():
    top = _Parser(prog="acnbounds", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", parser_class=_Parser)

    b = sub.add_parser("bound", help="evaluate a closed-form bound")
    _add_common(b, poly_lambda=False)
    b.add_argument("--kind", choices=_BOUNDS)
    b.add_argument("--relays", type=int,
                   help="relay pool size; default max(cp, 1)")
    b.add_argument("--out", type=int, default=1, help="delivered messages")
    b.add_argument("--hops", type=int, default=1)
    b.add_argument("--lexp", type=float)

    for name in ("simulate", "verify"):
        s = sub.add_parser(name, help=f"{name} an attack's advantage")
        _add_common(s, lam=False, poly_lambda=False)
        s.add_argument("--protocol", choices=VARIANTS)
        s.add_argument("--attack", choices=_ATTACKS)
        s.add_argument("--notion", default="SO")
        s.add_argument("--length", type=int)
        s.add_argument("--lexp", type=int)
        s.add_argument("--relays", type=int, default=0)
        s.add_argument("--copies", type=int, default=1)
        s.add_argument("--integrated", action="store_true")
        s.add_argument("--ca", type=int, default=0,
                       help="actively controlled relays")
        s.add_argument("--trials", type=int, default=10000)
        s.add_argument("--seed", type=int, default=0)
        if name == "verify":
            s.add_argument("--tol", type=float, default=0.02)
            s.add_argument("--sweep", action="store_true",
                           help="check every reference row's points")

    r = sub.add_parser("region", help="possible/impossible at a point")
    _add_common(r, n=1000)
    r.add_argument("--bound", choices=_REGIONS)

    a = sub.add_parser("atlas", help="preset verdicts or a CSV grid")
    _add_common(a, n=1000, point=False)
    a.add_argument("--mode", choices=atlas_mod.MODES, default="general")
    a.add_argument("--preset", choices=sorted(atlas_mod.PRESETS))
    a.add_argument("--grid", action="store_true")
    a.add_argument("--lmax-range", dest="lmax_range", default="2:10",
                   help="lo:hi inclusive integer range")
    a.add_argument("--beta-range", dest="beta_range",
                   default="0.01:0.99:25", help="lo:hi:steps linear range")
    return top, sub.choices


def _given(ns, sp):
    """The flags typed off the subcommand's defaults, so a mode can refuse
    a flag that it does not read."""
    return {dest for dest, value in vars(ns).items()
            if value != sp.get_default(dest)} - {"command"}


def _refuse(what, dests):
    """Exit 1 before any output when `what` is given flags it cannot read."""
    if dests:
        raise ConfigError(f"{what} takes no " + ", ".join(
            "--" + d.replace("_", "-") for d in sorted(dests)))


def _cmd_bound(ns, given) -> int:
    if ns.kind is None:
        raise ConfigError("bound needs --kind")
    floor = _BOUNDS[ns.kind]
    _refuse(f"bound --kind {ns.kind}", given - {"kind", *_reads(floor)})
    if ns.relays is None:
        # the smallest pool that holds the c_p compromised relays
        ns.relays = max(ns.cp, 1)
    value = _call(floor, ns)
    out = value if isinstance(value, dict) else {"delta": value}
    print(json.dumps({"kind": ns.kind, **out}, sort_keys=True))
    return 0


def _game(ns, given):
    """The protocol and attack the flags name; a flag of `_MODEL_FLAGS`
    that neither reads, or an untyped rate the protocol reads, exits 1."""
    if ns.protocol is None:
        raise ConfigError(f"{ns.command} needs --protocol")
    if ns.attack is None:
        raise ConfigError(f"{ns.command} needs --attack")
    attack, row = _ATTACKS[ns.attack], VARIANTS[ns.protocol]
    reads = {*_reads(attack), *_flags(row.rate, *row.reads)}
    # --integrated replaces the pool --relays sizes; without a relay pool
    # path tracing plays as timing, so --cp is read only with --relays
    if ns.integrated and "integrated" in reads:
        reads.remove("relays")
    if "relays" not in reads:
        reads.discard("cp")
    _refuse(f"{ns.protocol} with {ns.attack}", given & _MODEL_FLAGS - reads)
    # the refusal leaves at most the model's own rate, which must be typed
    rate = getattr(ns, row.rate) if row.rate else 0.0
    if rate is None:
        raise ConfigError(f"{ns.protocol} needs --{row.rate}")
    params = ProtocolParams(ns.n, ns.lmax, rate, **{
        name: getattr(ns, _FLAG.get(name, name)) for name in row.reads})
    return ProtocolKind(ns.protocol, params), _call(attack, ns)


def _pair(ns, params):
    return generate_pair(parse_notion(ns.notion), params, ns.seed,
                         length=ns.length)


def _cmd_simulate(ns, given) -> int:
    kind, attack = _game(ns, given)
    pair = _pair(ns, kind.params)
    est = estimate_advantage(kind, attack, pair, ns.trials, ns.seed)
    print(record_json(result_record(kind, attack, pair, est, ns.seed)))
    return 0


def _check(kind, attack, pair, trials, seed, tol):
    """(estimate, expected, check, passed) for one game against its
    `_REFERENCES` row, which is looked up and evaluated before the first
    trial, so a pair with no reference fails at once."""
    ref = _REFERENCES.get((kind.variant, attack.variant))
    if ref is None:
        raise ConfigError(f"no reference value for {kind.variant} with "
                          f"{attack.variant}")
    check, value = ref[:2]
    expected = value(kind.params, attack.capability)
    est = estimate_advantage(kind, attack, pair, trials, seed)
    if check == "floor":
        # the formula is a lower bound that the built-in attack must reach
        ok = est.ci_high + tol >= expected
    else:
        ok = est.ci_low - tol <= expected <= est.ci_high + tol
    return est, expected, check, ok


def _cmd_verify(ns, given) -> int:
    if ns.sweep:
        return _sweep(ns, given)
    kind, attack = _game(ns, given)
    pair = _pair(ns, kind.params)
    est, expected, check, ok = _check(kind, attack, pair, ns.trials,
                                      ns.seed, ns.tol)
    record = result_record(kind, attack, pair, est, ns.seed)
    record.update(expected=expected, tolerance=ns.tol, check=check,
                  verdict="pass" if ok else "fail")
    print(record_json(record))
    return 0 if ok else 2


def _point_seed(seed, label):
    """Each sweep point's own seed, from the sweep's seed and the point's
    label.  Solves at one seed share their randomness (a watched user's
    cover coins do not depend on n), so a shared seed would make points
    repeat one another's draws instead of checking independently."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sweep(ns, given) -> int:
    """One line per `_REFERENCES` point, in table order; exit 2 if any
    check fails."""
    _refuse("verify --sweep", given - {"sweep", "trials", "seed", "tol"})
    parser, commands = _build_parser()
    so = parse_notion("SO")
    failures = 0
    for (proto, att), (_, _, label, points) in _REFERENCES.items():
        for flags in points:
            point = parser.parse_args(["verify", "--protocol", proto,
                                       "--attack", att, *flags.split()])
            name = label.format(**vars(point))
            kind, attack = _game(point, _given(point, commands["verify"]))
            last = point.n - 1
            pair = ScenarioPair(make_batch([Communication(0, last, 0)]),
                                make_batch([Communication(1, last, 0)]), so)
            est, expected, _, ok = _check(kind, attack, pair, ns.trials,
                                          _point_seed(ns.seed, name), ns.tol)
            failures += not ok
            print(f"{name:58} adv={est.point:+.4f} "
                  f"ci=[{est.ci_low:+.4f},{est.ci_high:+.4f}] "
                  f"ref={expected:.4f} {'ok' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


def _cmd_region(ns, given) -> int:
    if ns.bound is None:
        raise ConfigError("region needs --bound")
    verdict_of = _REGIONS[ns.bound]
    reads = {"n", *_reads(verdict_of)}
    _refuse(f"region --bound {ns.bound}", given - {"bound", *reads})
    ns.poly_lambda = bounds.security_parameter(ns.n, ns.poly_lambda)
    verdict = _call(verdict_of, ns)
    # the point values the bound reads, under the closed forms' names
    point = {name: getattr(ns, _FLAG.get(name, name))
             for name in ("n", "l_max", "beta", "p")
             if _FLAG.get(name, name) in reads}
    print(json.dumps({"bound": ns.bound, **point, **vars(verdict)},
                     sort_keys=True))
    return 0


def _range(flag, text, form, *types):
    """A range's fields, or exit 1 naming its flag and the form it takes."""
    try:
        lo, hi, *steps = fields = [
            t(x) for t, x in zip(types, text.split(":"), strict=True)]
        if lo <= hi and all(s >= 1 for s in steps):
            return fields
    except ValueError:
        pass
    raise ConfigError(f"{flag} takes {form}, got {text!r}")


def _parse_ranges(ns):
    lo, hi = _range("--lmax-range", ns.lmax_range, "lo:hi with lo <= hi",
                    int, int)
    a, b, steps = _range("--beta-range", ns.beta_range, "lo:hi:steps with "
                         "lo <= hi and steps >= 1", float, float, int)
    betas = [a + (b - a) * i / max(steps - 1, 1) for i in range(steps)]
    return range(lo, hi + 1), betas


def _cmd_atlas(ns, given) -> int:
    if ns.grid:
        _refuse("atlas --grid", given & {"mode", "preset"})
        lmaxes, betas = _parse_ranges(ns)
        for line in atlas_mod.emit_grid(lmaxes, betas, n=ns.n, lam=ns.lam,
                                        poly_lambda=ns.poly_lambda):
            print(line)
        return 0
    _refuse("atlas without --grid", given & {"lmax_range", "beta_range"})
    names = [ns.preset] if ns.preset else sorted(atlas_mod.PRESETS)
    rows = [atlas_mod.classify(atlas_mod.PRESETS[x], ns.mode, n=ns.n,
                               lam=ns.lam, poly_lambda=ns.poly_lambda)
            for x in names]
    print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


_COMMANDS = {"bound": _cmd_bound, "simulate": _cmd_simulate,
             "verify": _cmd_verify, "region": _cmd_region,
             "atlas": _cmd_atlas}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](
            args, _given(args, commands[args.command]))
    except (ConfigError, CapabilityError, ValueError, OSError) as exc:
        print(f"acnbounds: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
