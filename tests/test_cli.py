import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from acnbounds import cli
from acnbounds.atlas import GRID_HEADER
from acnbounds.protocols import VARIANTS


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_table(header):
    """The rows of README's two-column table whose header row is `header`,
    each as (the first backticked text of its first cell, the list of its
    second cell's)."""
    lines = README.read_text().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])
    return [(re.findall("`([^`]+)`", first)[0],
             re.findall("`([^`]+)`", second))
            for first, second in (row.strip("|").split("|") for row in rows)]


def _dests(flags):
    """The parsed names of the flags in `flags`, as `_given` names them."""
    return {flag[2:].replace("-", "_") for flag in flags.split()}


def _readme_model_reads():
    """(protocol -> flags, attack -> flags) off README's `flag | read by`
    table, each name of `VARIANTS` and `cli._ATTACKS` present: a reader is
    a protocol or `--attack <name>`, and a flag among the readers is a
    condition, not a reader."""
    protocols = {v: set() for v in VARIANTS}
    attacks = {a: set() for a in cli._ATTACKS}
    for flags, readers in _readme_table("| flag | read by |"):
        for reader in readers:
            if reader.startswith("--attack "):
                attacks.setdefault(reader.split()[1], set()).update(
                    _dests(flags))
            elif not reader.startswith("--"):
                protocols.setdefault(reader, set()).update(_dests(flags))
    return protocols, attacks


# what README says each bound kind and region bound reads besides its
# selector, and each protocol and attack of the flags only some read
_README_KINDS = {kind: _dests(*flags)
                 for kind, flags in _readme_table("| `--kind` | reads |")}
_README_REGIONS = {bound: _dests(*flags) for bound, flags
                   in _readme_table("| `--bound` | reads |")}
_README_PROTOCOLS, _README_ATTACKS = _readme_model_reads()


def test_readme_reads_tables_are_the_reads_the_cli_derives():
    # a bound kind, region bound or attack reads its callee's parameters,
    # a protocol its `VARIANTS` row's cover rate and other fields
    assert _README_KINDS == {kind: set(cli._reads(floor))
                             for kind, floor in cli._BOUNDS.items()}
    assert _README_REGIONS == {bound: {"n", *cli._reads(verdict)}
                               for bound, verdict in cli._REGIONS.items()}
    assert _README_ATTACKS == {attack: set(cli._reads(fn)) - {"n"}
                               for attack, fn in cli._ATTACKS.items()}
    assert _README_PROTOCOLS == {v: set(cli._flags(row.rate, *row.reads))
                                 for v, row in VARIANTS.items()}


def test_bound_sync(capsys):
    code, out, err = _run(capsys, "bound", "--kind", "trilemma-sync",
                          "--n", "10", "--lmax", "2", "--beta", "0.1")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["kind"] == "trilemma-sync"
    assert rec["delta"] == pytest.approx(7 / 9)


def test_bound_counting_and_optimality(capsys):
    code, out, _ = _run(capsys, "bound", "--kind", "counting",
                        "--out", "5", "--hops", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["min_messages"] == 15
    assert rec["overhead_fraction"] == pytest.approx(2 / 3)
    # one stage per message is no overhead at all
    code, out, _ = _run(capsys, "bound", "--kind", "counting",
                        "--out", "4", "--hops", "1")
    assert code == 0
    assert json.loads(out) == {"kind": "counting", "min_messages": 4,
                               "overhead_fraction": 0.0}


def test_bound_without_kind_fails(capsys):
    code, _, err = _run(capsys, "bound")
    assert code == 1
    assert "kind" in err


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 1


def test_no_subcommand_prints_help(capsys):
    code, out, _ = _run(capsys)
    assert code == 1
    assert "bound" in out and "simulate" in out


def test_simulate_record(capsys):
    code, out, err = _run(capsys, "simulate", "--protocol", "trilemma-unsync",
                          "--attack", "timing-interval", "--n", "2",
                          "--lmax", "2", "--p", "0.25", "--trials", "200",
                          "--seed", "1")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["protocol"] == "trilemma-unsync"
    assert rec["attack"] == "timing-interval"
    assert rec["notion"] == "SO"
    assert rec["trials"] == 200
    # the unsync send rate p is the model's cover rate
    assert rec["params"]["beta"] == pytest.approx(0.25)
    assert rec["ci"][0] <= rec["point"] <= rec["ci"][1]


_SIMULATE = ["simulate", "--protocol", "trilemma-unsync", "--attack",
             "timing-interval", "--n", "4", "--lmax", "2", "--p", "0.4",
             "--trials", "200"]


def test_verify_pass_and_fail_exit_codes(capsys):
    argv = ["verify", "--protocol", "dropping-model", "--attack", "dropping",
            "--n", "3", "--lmax", "1", "--relays", "4", "--copies", "2",
            "--trials", "200", "--seed", "0"]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "pass"
    assert rec["check"] == "exact"
    assert rec["expected"] == 1.0
    # an absurd negative tolerance turns the same run into a failure
    code, out, _ = _run(capsys, *argv, "--tol", "-2")
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def test_verify_rejects_unknown_combo(capsys, monkeypatch):
    # the reference is looked up before the game, so no trial is played
    def no_game(*args):
        raise AssertionError("the game ran before the reference lookup")

    monkeypatch.setattr(cli, "estimate_advantage", no_game)
    code, _, err = _run(capsys, "verify", "--protocol", "dcnet-round",
                        "--attack", "dropping", "--n", "3", "--lmax", "1",
                        "--trials", "200")
    assert code == 1
    assert "reference" in err


# sha256 of the sweep's stdout at --trials 2000 --seed 0, as the sweep
# printed it when it was a standalone script
SWEEP_SHA256 = ("5223951157ef593839d38f8178d1f6b6"
                "a5ae2be589449be5bd045235ed71593b")


def test_verify_sweep_prints_the_pinned_lines(capsys):
    code, out, err = _run(capsys, "verify", "--sweep", "--trials", "2000",
                          "--seed", "0")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 17
    assert out.endswith("\nall checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256


def test_verify_sweep_failure_exits_two(capsys):
    code, out, err = _run(capsys, "verify", "--sweep", "--trials", "200",
                          "--tol", "-2")
    assert code == 2
    assert err == "16 check(s) failed\n"
    assert out.count(" FAIL\n") == 16


@pytest.mark.parametrize("flags", [
    ["--protocol", "trilemma-sync"],
    ["--attack", "timing-interval"],
], ids=["protocol", "attack"])
def test_verify_sweep_takes_no_protocol_or_attack(capsys, flags):
    code, out, err = _run(capsys, "verify", "--sweep", *flags)
    assert code == 1 and out == ""
    assert err.startswith("acnbounds: verify --sweep ")


def test_region_defaults_to_a_population(capsys):
    code, out, _ = _run(capsys, "region", "--bound", "trilemma",
                        "--lmax", "2", "--beta", "0.3")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 1000
    assert rec["verdict"] == "impossible"
    assert rec["threshold"] == pytest.approx(0.4995)


# a point each region bound decides, with every flag it reads typed; the
# refusal names every unread flag, so none of these may appear in it
_REGION_POINTS = {
    "counting": "--n 10 --beta 0.5 --poly-lambda 5",
    "trilemma": "--n 10 --lmax 3 --beta 0.2 --cp 1 --poly-lambda 5",
    "dropping": "--n 10 --lmax 3 --p 0.5 --lam 16 --poly-lambda 5",
}


@pytest.mark.parametrize("bound,flag,typed", [
    ("counting", "cp", "--cp 3"),
    ("counting", "lam", "--lam 4"),
    ("trilemma", "lam", "--lam 4"),
    ("dropping", "beta", "--beta 0.9"),
    ("dropping", "cp", "--cp 3"),
    ("trilemma", "p", "--p 0.01"),
    ("counting", "p", "--p 0.9"),
    ("counting", "lmax", "--lmax 7"),
], ids=["counting-cp", "counting-lam", "trilemma-lam", "dropping-beta",
        "dropping-cp", "trilemma-p", "counting-p", "counting-lmax"])
def test_region_refuses_a_flag_its_bound_does_not_read(capsys, bound, flag,
                                                       typed):
    code, out, err = _run(capsys, "region", "--bound", bound,
                          *_REGION_POINTS[bound].split(), *typed.split())
    assert code == 1 and out == ""
    assert err == f"acnbounds: region --bound {bound} takes no --{flag}\n"


@pytest.mark.parametrize("bound,point", [
    ("counting", {"n": 10, "beta": 0.5}),
    ("trilemma", {"n": 10, "l_max": 3, "beta": 0.2}),
    ("dropping", {"n": 10, "l_max": 3, "p": 0.5}),
])
def test_a_region_record_echoes_only_the_point_values_its_bound_reads(
        capsys, bound, point):
    code, out, err = _run(capsys, "region", "--bound", bound,
                          *_REGION_POINTS[bound].split())
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert set(rec) == {"bound", "verdict", "threshold", "condition", *point}
    assert {k: rec[k] for k in point} == point
    # the point's keys are the closed forms' names of the flags it reads
    assert {cli._FLAG.get(k, k) for k in point} == \
        _README_REGIONS[bound] & {"n", "lmax", "beta", "p"}


@pytest.mark.parametrize("argv,reason", [
    (["--lmax", "0", "--beta", "0.2", "--bound", "trilemma"], "l_max"),
    (["--lmax", "0", "--beta", "0.2", "--bound", "counting"],
     "region --bound counting takes no --lmax"),
    (["--lmax", "3", "--beta", "1.5", "--bound", "trilemma"], "beta"),
], ids=["lmax-zero-trilemma", "lmax-zero-counting", "beta-over-one"])
def test_region_rejects_impossible_points(capsys, argv, reason):
    code, out, err = _run(capsys, "region", "--n", "10", *argv)
    assert code == 1 and out == ""
    assert reason in err


def test_atlas_table_and_single_preset(capsys):
    code, out, _ = _run(capsys, "atlas")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert rows == sorted(rows, key=lambda r: r["preset"])
    code, out, _ = _run(capsys, "atlas", "--preset", "tor")
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["preset"] == "tor"
    assert rows[0]["counting"] == "falls-short"


def test_atlas_grid(capsys):
    code, out, _ = _run(capsys, "atlas", "--grid", "--lmax-range", "2:3",
                        "--beta-range", "0.1:0.9:3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + 2 * 3


def test_a_one_step_grid_prints_one_row(capsys):
    # one l_max and a beta range of one step: the grid is the point itself
    code, out, err = _run(capsys, "atlas", "--grid", "--lmax-range", "2:2",
                          "--beta-range", "0.2:0.2:1")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        GRID_HEADER,
        "2,0.2,0.999,0.4995,0.004,impossible,impossible,possible"]


def test_workers_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(_SIMULATE + ["--workers", "2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert "unrecognized arguments: --workers 2" in err


def test_bad_parameter_exits_one(capsys):
    code, _, err = _run(capsys, "simulate", "--protocol", "trilemma-unsync",
                        "--attack", "timing-interval", "--n", "1",
                        "--lmax", "2", "--p", "0.25", "--trials", "200")
    assert code == 1
    assert err == "acnbounds: need n >= 2 users\n"


@pytest.mark.parametrize("argv,reason", [
    (["--protocol", "onion-path", "--attack", "path-tracing", "--n", "4",
      "--lmax", "3", "--relays", "2", "--cp", "9", "--p", "0.25"],
     "c_p=9"),
    (["--protocol", "dropping-model", "--attack", "dropping", "--n", "3",
      "--relays", "4", "--copies", "2", "--ca", "9"], "c_a=9"),
    (["--protocol", "trilemma-unsync", "--attack", "timing-interval",
      "--n", "4", "--lmax", "2", "--p", "0.25", "--length", "0"],
     "at least one row"),
], ids=["cp-over-relays", "ca-over-pool", "no-rows"])
def test_impossible_runs_exit_one(capsys, argv, reason):
    code, out, err = _run(capsys, "simulate", *argv, "--trials", "200")
    assert code == 1 and out == ""
    assert reason in err


@pytest.mark.parametrize("argv", [
    ["region", "--bound", "counting", "--n", "0", "--beta", "0.3"],
    ["region", "--bound", "trilemma", "--n", "0", "--lmax", "2",
     "--beta", "0.3", "--poly-lambda", "10"],
    ["atlas", "--n", "0", "--poly-lambda", "10"],
    ["atlas", "--grid", "--n", "0"],
    ["region", "--bound", "counting", "--n", "0", "--beta", "0.3",
     "--poly-lambda", "5"],
    ["region", "--bound", "dropping", "--n", "0", "--p", "0.3",
     "--poly-lambda", "5"],
], ids=["region-counting", "region-trilemma", "atlas", "atlas-grid",
        "region-counting-poly-lambda", "region-dropping-poly-lambda"])
def test_zero_users_exit_one_before_any_output(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "acnbounds: need n >= 1\n"


@pytest.mark.parametrize("argv", [
    ["region", "--bound", "counting", "--n", "1", "--beta", "0.5"],
    ["atlas", "--n", "1"],
    ["atlas", "--grid", "--n", "1"],
], ids=["region", "atlas", "atlas-grid"])
def test_one_user_names_the_default_security_parameter(capsys, argv):
    # no --poly-lambda was typed, so the error must not name it
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == ("acnbounds: n=1 leaves no security parameter above 1 "
                   "(it defaults to n)\n")


@pytest.mark.parametrize("flags,named", [
    (["--n", "1"], ""),
    (["--poly-lambda", "0.5"], ""),
    (["--lam", "1"], ""),
    (["--lmax-range", "0:2"], ""),
    (["--beta-range", "0:2:3"], ""),
    (["--lmax-range", "3:2"], "--lmax-range takes lo:hi "),
    (["--beta-range", "0.9:0.1:3"], "--beta-range takes lo:hi:steps "),
    (["--beta-range", "0:1:0"], "--beta-range takes lo:hi:steps "),
    (["--beta-range", "0.1:0.5"], "--beta-range takes lo:hi:steps "),
    (["--lmax-range", "2"], "--lmax-range takes lo:hi "),
    (["--lmax-range", "a:b"], "--lmax-range takes lo:hi "),
    (["--beta-range", "0:1:x"], "--beta-range takes lo:hi:steps "),
], ids=["one-user", "poly-lambda", "lam", "lmax-range", "beta-range",
        "lmax-hi-below-lo", "beta-hi-below-lo", "no-beta-steps",
        "beta-range-two-fields", "lmax-range-one-field",
        "lmax-range-not-integers", "beta-steps-not-integer"])
def test_bad_grid_values_exit_one_before_any_output(capsys, flags, named):
    code, out, err = _run(capsys, "atlas", "--grid", *flags)
    assert code == 1 and out == ""
    # a malformed range names its flag and the form the flag takes
    assert err.startswith("acnbounds: ") and named in err


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


_BOUND = ["bound", "--kind", "trilemma-sync", "--n", "10", "--lmax", "2",
          "--beta", "0.1"]
_DROPPING = ["--protocol", "dropping-model", "--attack", "dropping",
             "--n", "3", "--lmax", "1", "--relays", "4", "--trials", "200"]
_VERIFY = ["verify", *_DROPPING, "--copies", "2"]


@pytest.mark.parametrize("argv", [
    _BOUND + ["--poly-lambda", "5"],
    _SIMULATE + ["--lam", "5"],
    _SIMULATE + ["--poly-lambda", "5"],
    _VERIFY + ["--lam", "5"],
    _VERIFY + ["--poly-lambda", "5"],
    ["atlas", "--lmax", "3"],
    ["atlas", "--beta", "0.7"],
    ["atlas", "--p", "0.5"],
    ["atlas", "--cp", "2"],
    _SIMULATE + ["--threshold", "2"],
    _SIMULATE + ["--p-real", "0.1"],
    ["verify", *_SIMULATE[1:], "--p-real", "0.1"],
    ["simulate", "--protocol", "trilemma-sync", "--attack",
     "timing-interval", "--n", "4", "--lmax", "2", "--beta", "0.25",
     "--trials", "200", "--p-real", "0.5"],
    _BOUND + ["--config", "x.json"],
    _SIMULATE + ["--config", "x.json"],
    _VERIFY + ["--config", "x.json"],
    ["region", "--bound", "trilemma", "--config", "x.json"],
    ["atlas", "--config", "x.json"],
    ["bound", "--kind", "onion-cost", "--basis", "counting"],
], ids=["bound-poly-lambda", "simulate-lam", "simulate-poly-lambda",
        "verify-lam", "verify-poly-lambda", "atlas-lmax", "atlas-beta",
        "atlas-p", "atlas-cp", "simulate-threshold", "simulate-p-real",
        "verify-p-real", "simulate-sync-p-real", "bound-config",
        "simulate-config", "verify-config", "region-config", "atlas-config",
        "bound-basis"])
def test_unread_flags_are_not_declared(capsys, argv):
    code, out, err = _usage_error(capsys, argv)
    assert code == 1 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("argv", [
    _SIMULATE + ["--tri", "300"],
    ["verify", "--sw", "--trials", "200"],
    ["simulate", *_DROPPING, "--int"],
    ["atlas", "--beta", "0.7"],
], ids=["trials", "sweep", "integrated", "beta-range"])
def test_flags_match_only_as_typed(capsys, argv):
    code, out, err = _usage_error(capsys, argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_zero_copies_is_not_read_as_one(capsys):
    code, out, err = _run(capsys, "simulate", *_DROPPING, "--copies", "0")
    assert code == 1 and out == ""
    assert "copies" in err


def test_onion_cost_takes_a_typed_zero_rate(capsys):
    argv = ["bound", "--kind", "onion-cost", "--n", "10"]
    code, out, _ = _run(capsys, *argv, "--p", "0")
    assert code == 0 and json.loads(out)["per-user"] == 0.0
    # without --p every user sends in every round
    code, out, _ = _run(capsys, *argv)
    assert code == 0 and json.loads(out)["per-user"] == 80.0


def test_onion_cost_dropping_is_its_own_kind(capsys):
    code, out, err = _run(capsys, "bound", "--kind", "onion-cost-dropping",
                          "--n", "10", "--lam", "256")
    assert code == 0 and err == ""
    assert out == ('{"kind": "onion-cost-dropping", "network": 80.0, '
                   '"per-user": 8.0}\n')


@pytest.mark.parametrize("argv,reason", [
    (["region", "--bound", "trilemma", "--lmax", "3", "--beta", "0.3",
      "--cp", "-1"], "need c_p >= 0, got -1"),
    (["bound", "--kind", "onion-cost", "--n", "-3"], "need n >= 1"),
    (["bound", "--kind", "onion-cost", "--p", "2"],
     "p must lie in [0, 1], got 2.0"),
    (["bound", "--kind", "onion-cost", "--lam", "0"],
     "need lam > 1, got 0.0"),
    (["bound", "--kind", "onion-cost", "--lexp", "0"],
     "need l_exp >= 1, got 0.0"),
    (["bound", "--kind", "onion-cost", "--lam", "1.5"],
     "need log2 lam >= 1, got 0.5849625007211562"),
    (["bound", "--kind", "onion-cost-dropping", "--n", "0"], "need n >= 1"),
    (["bound", "--kind", "onion-cost-dropping", "--lam", "1"],
     "need lam > 1, got 1.0"),
    # a rate is read only as typed, never as 0 when it is not
    (["bound", "--kind", "trilemma-sync", "--n", "10", "--lmax", "2"],
     "beta must lie in [0, 1], got None"),
    (["bound", "--kind", "trilemma-unsync-original", "--lmax", "3"],
     "p must lie in [0, 1], got None"),
    (["bound", "--kind", "trilemma-unsync-improved", "--lmax", "3", "--cp",
      "1"], "p must lie in [0, 1], got None"),
], ids=["region-cp-negative", "onion-n-negative", "onion-p-over-one",
        "onion-lam-zero", "onion-lexp-zero", "onion-lam-under-two",
        "dropping-n-zero", "dropping-lam-one", "sync-without-beta",
        "original-without-p", "improved-without-p"])
def test_each_read_value_is_checked(capsys, argv, reason):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"acnbounds: {reason}\n"


@pytest.mark.parametrize("argv", [
    _SIMULATE + ["--beta", "0.1"],
    ["verify", *_SIMULATE[1:], "--beta", "0.2"],
], ids=["simulate-beta", "verify-beta"])
def test_typed_p_with_another_rate_exits_one(capsys, argv):
    # trilemma-unsync reads its rate as --p only
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == ("acnbounds: trilemma-unsync with timing-interval takes "
                   "no --beta\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--sweep", "--n", "50", "--p", "0.9", "--notion", "SML"],
    ["atlas", "--grid", "--preset", "tor", "--mode", "special"],
    ["atlas", "--lmax-range", "2:3"],
], ids=["sweep-point-flags", "grid-preset", "range-without-grid"])
def test_flags_a_mode_does_not_read_exit_one(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert " takes no --" in err


_COMPROMISING = ["bound", "--kind", "trilemma-sync", "--n", "10",
                 "--lmax", "3", "--beta", "0.2"]


def test_bound_takes_a_typed_zero_relays(capsys):
    code, out, err = _run(capsys, *_COMPROMISING, "--cp", "2",
                          "--relays", "0")
    assert code == 1 and out == ""
    assert "need 0 <= c_p <= relays" in err


@pytest.mark.parametrize("argv,want", [
    (_COMPROMISING + ["--cp", "2"],
     '{"delta": 1.0, "kind": "trilemma-sync"}\n'),
    (_COMPROMISING + ["--cp", "1"],
     '{"delta": 0.6666666666666667, "kind": "trilemma-sync"}\n'),
    (["bound", "--kind", "trilemma-unsync-improved", "--lmax", "3", "--p",
      "0.2", "--cp", "1"],
     '{"delta": 0.8, "kind": "trilemma-unsync-improved"}\n'),
], ids=["sync-cp-2", "sync-cp-1", "unsync-cp-1"])
def test_bound_without_relays_holds_the_compromised_relays(capsys, argv,
                                                           want):
    # without --relays the pool is max(c_p, 1) relays
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("argv,want", [
    (_COMPROMISING + ["--cp", "1", "--relays", "2"],
     '{"delta": 0.5, "kind": "trilemma-sync"}\n'),
    (["bound", "--kind", "trilemma-sync", "--n", "10", "--lmax", "4",
      "--beta", "0.1", "--cp", "1", "--relays", "3"],
     '{"delta": 0.40740740740740744, "kind": "trilemma-sync"}\n'),
    (["bound", "--kind", "trilemma-unsync-improved", "--lmax", "4", "--p",
      "0.3", "--cp", "1", "--relays", "3"],
     '{"delta": 0.3919999999999999, "kind": "trilemma-unsync-improved"}\n'),
], ids=["sync-cp-1-relays-2", "sync-cp-1-relays-3", "unsync-cp-1-relays-3"])
def test_trilemma_kinds_print_the_compromised_relay_bound(capsys, argv,
                                                          want):
    # the compromised-relay floor over a typed pool of relays
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("kind", ["compromising-sync", "compromising-unsync"])
def test_the_compromising_kinds_are_gone(capsys, kind):
    code, out, err = _usage_error(capsys, ["bound", "--kind", kind,
                                           "--lmax", "3", "--cp", "1"])
    assert code == 1 and out == ""
    assert f"invalid choice: '{kind}'" in err


@pytest.mark.parametrize("argv,reason", [
    (["bound", "--kind", "counting", "--n", "50"],
     "bound --kind counting takes no --n"),
    (["simulate", "--protocol", "trilemma-unsync", "--attack",
      "path-tracing", "--n", "4", "--lmax", "3", "--p", "0.3", "--cp", "2",
      "--trials", "2000", "--seed", "0"],
     "trilemma-unsync with path-tracing takes no --cp"),
    (["simulate", "--protocol", "broadcast-full-dummy", "--attack",
      "counting", "--n", "3", "--lmax", "2", "--beta", "0.5", "--trials",
      "200"],
     "broadcast-full-dummy with counting takes no --beta"),
    (["simulate", "--protocol", "dropping-model", "--attack", "dropping",
      "--n", "3", "--lmax", "1", "--relays", "4", "--copies", "2", "--p",
      "0.3", "--trials", "200"],
     "dropping-model with dropping takes no --p"),
    (["simulate", "--attack", "timing-interval", "--trials", "200"],
     "simulate needs --protocol"),
    (["verify", "--attack", "timing-interval", "--trials", "200"],
     "verify needs --protocol"),
    (["simulate", "--protocol", "trilemma-unsync", "--trials", "200"],
     "simulate needs --attack"),
    (["verify", "--protocol", "trilemma-unsync", "--trials", "200"],
     "verify needs --attack"),
    (["region", "--lmax", "2", "--beta", "0.3"], "region needs --bound"),
    (["simulate", "--protocol", "onion-path", "--attack", "timing-interval",
      "--n", "4", "--lmax", "3", "--p", "0.25"],
     "onion routing needs at least one relay"),
    (["simulate", "--protocol", "broadcast-full-dummy", "--attack",
      "counting", "--n", "3", "--lmax", "1", "--trials", "200"],
     "broadcast delivers one round after the send, so it needs l_max >= 2"),
], ids=["bound-unread-n", "tracing-without-relays", "broadcast-beta",
        "dropping-p", "simulate-without-protocol",
        "verify-without-protocol", "simulate-without-attack",
        "verify-without-attack", "region-without-bound", "onion-no-relay",
        "broadcast-one-round"])
def test_an_unread_or_missing_flag_exits_one(capsys, argv, reason):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"acnbounds: {reason}\n"


# a typed value off the default for every flag of `bound`
_BOUND_ARGS = {"n": "--n 10", "lmax": "--lmax 3", "beta": "--beta 0.2",
               "p": "--p 0.2", "cp": "--cp 1", "lam": "--lam 16",
               "relays": "--relays 2", "out": "--out 5", "hops": "--hops 3",
               "lexp": "--lexp 2"}


# each case is a kind and what is typed before the flag under test: the
# rate of a kind that reads one, which it must have, and in the
# compromising cases the compromised-relay setting (c_p > 0) of the two
# kinds that read --cp, which must refuse the same flags
_BOUND_CASES = {kind: (kind, ()) for kind in _README_KINDS}
_BOUND_CASES["trilemma-sync"] = ("trilemma-sync", ("--beta", "0.2"))
_BOUND_CASES["trilemma-unsync-original"] = ("trilemma-unsync-original",
                                            ("--p", "0.2"))
_BOUND_CASES["trilemma-unsync-improved"] = ("trilemma-unsync-improved",
                                            ("--p", "0.2"))
_BOUND_CASES["compromising-sync"] = ("trilemma-sync",
                                     ("--beta", "0.2", "--cp", "2"))
_BOUND_CASES["compromising-unsync"] = ("trilemma-unsync-improved",
                                       ("--p", "0.2", "--cp", "2"))


@pytest.mark.parametrize("case", sorted(_BOUND_CASES))
def test_each_bound_kind_refuses_each_flag_it_does_not_read(capsys, case):
    kind, before = _BOUND_CASES[case]
    for flag, typed in _BOUND_ARGS.items():
        code, out, err = _run(capsys, "bound", "--kind", kind, *before,
                              *typed.split())
        if flag in _README_KINDS[kind]:
            assert code == 0 and err == "", (flag, err)
        else:
            assert code == 1 and out == "", flag
            assert err == f"acnbounds: bound --kind {kind} takes no --{flag}\n"


# a point per bound kind and region bound, as the flags typed at it, and a
# second value for every flag of `bound` and `region`: a flag typed alone at
# its second value must change the result or be refused, so no flag is read
# at one point and dropped at another without a word.  The points sit where
# each read flag matters: --cp 1 so that --relays moves the trilemma floors,
# rates on the near side of each threshold
_READ_POINTS = {
    ("bound", "trilemma-sync"): "--n 10 --lmax 4 --beta 0.1 --cp 1 "
                                "--relays 3",
    ("bound", "trilemma-unsync-original"): "--lmax 4 --p 0.1",
    ("bound", "trilemma-unsync-improved"): "--lmax 4 --p 0.1 --cp 1 "
                                           "--relays 3",
    ("bound", "counting"): "--out 5 --hops 3",
    ("bound", "onion-cost"): "--n 10 --lam 256",
    ("bound", "onion-cost-dropping"): "--n 10 --lam 256",
    ("region", "counting"): "--n 10 --beta 0.5",
    ("region", "trilemma"): "--n 10 --lmax 4 --beta 0.1 --cp 1",
    ("region", "dropping"): "--n 10 --lmax 4 --p 0.1 --lam 256",
}
_SECOND = {"n": "20", "lmax": "3", "beta": "0.95", "p": "0.6", "cp": "2",
           "relays": "5", "lam": "16", "out": "6", "hops": "4", "lexp": "2",
           "poly_lambda": "5"}


def _result(capsys, command, selector, flags):
    code, out, err = _run(capsys, command, *selector, *(
        x for f, v in flags.items() for x in ("--" + f.replace("_", "-"), v)))
    if code == 0 and command == "region":
        # the verdict, without the typed values the record echoes
        out = {k: json.loads(out)[k]
               for k in ("verdict", "threshold", "condition")}
    return code, out, err


@pytest.mark.parametrize("command,choice", sorted(_READ_POINTS))
def test_every_flag_changes_the_result_or_is_refused(capsys, command,
                                                     choice):
    selector = ("--kind", choice) if command == "bound" else \
        ("--bound", choice)
    fields = _READ_POINTS[command, choice].split()
    base = dict(zip((f[2:] for f in fields[::2]), fields[1::2]))
    code, want, err = _result(capsys, command, selector, base)
    assert code == 0 and err == ""
    flags = set(vars(cli._build_parser()[0].parse_args([command])))
    flags -= {"command", selector[0][2:]}
    assert flags <= set(_SECOND)
    for flag in sorted(flags):
        code, got, err = _result(capsys, command, selector,
                                 {**base, flag: _SECOND[flag]})
        if code == 0:
            assert got != want, flag
        else:
            assert code == 1 and got == "", flag
            assert err.endswith(f" takes no --{flag.replace('_', '-')}\n"), \
                (flag, err)


_UNSYNC = ["--protocol", "trilemma-unsync", "--attack", "timing-interval",
           "--n", "4", "--lmax", "3", "--p", "0.4", "--trials", "200"]
_INTEGRATED = ["--protocol", "dropping-model", "--attack", "dropping",
               "--integrated", "--n", "3", "--lmax", "1", "--trials", "200"]


@pytest.mark.parametrize("argv,flags", [
    (["simulate", *_UNSYNC, "--copies", "3"], "--copies"),
    (["verify", *_UNSYNC, "--copies", "3"], "--copies"),
    (["simulate", *_UNSYNC, "--relays", "3"], "--relays"),
    (["simulate", *_UNSYNC, "--lexp", "2"], "--lexp"),
    (["simulate", *_UNSYNC, "--integrated"], "--integrated"),
    (["simulate", *_UNSYNC, "--cp", "3"], "--cp"),
    (["simulate", *_UNSYNC, "--ca", "1"], "--ca"),
    (["simulate", *_UNSYNC, "--copies", "3", "--cp", "3"], "--copies, --cp"),
    (["simulate", *_INTEGRATED, "--relays", "4"], "--relays"),
    (["simulate", *_DROPPING, "--cp", "1"], "--cp"),
    (["simulate", "--protocol", "onion-path", "--attack", "path-tracing",
      "--n", "4", "--lmax", "3", "--relays", "3", "--p", "0.25",
      "--trials", "200", "--ca", "1"], "--ca"),
], ids=["copies", "verify-copies", "relays", "lexp", "integrated", "cp",
        "ca", "copies-and-cp", "integrated-relays", "dropping-cp",
        "tracing-ca"])
def test_flags_a_protocol_or_attack_does_not_read_exit_one(capsys, argv,
                                                           flags):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.endswith(f" takes no {flags}\n")


@pytest.mark.parametrize("argv", [
    ["--protocol", "onion-path", "--attack", "path-tracing", "--n", "4",
     "--lmax", "3", "--relays", "3", "--lexp", "2", "--cp", "1", "--p",
     "0.25", "--trials", "200"],
    [*_INTEGRATED, "--copies", "2", "--ca", "1"],
    [*_DROPPING, "--copies", "2", "--ca", "1"],
], ids=["onion-tracing", "integrated", "dropping"])
def test_flags_a_protocol_or_attack_reads_are_taken(capsys, argv):
    code, out, err = _run(capsys, "simulate", *argv)
    assert code == 0 and err == ""


# one valid argv per variant that types none of the flags only some pairs
# read beyond its reads (README's `flag | read by` table)
_BASE = {
    "trilemma-sync": "--n 4 --lmax 3 --beta 0.4",
    "trilemma-unsync": "--n 4 --lmax 3 --p 0.4",
    "onion-path": "--n 4 --lmax 3 --relays 3 --p 0.4",
    "dcnet-round": "--n 4 --lmax 1",
    "broadcast-full-dummy": "--n 4 --lmax 2",
    "dropping-model": "--n 3 --lmax 1 --relays 4",
}
_FLAG_ARGS = {"beta": "--beta 0.2", "p": "--p 0.2", "relays": "--relays 3",
              "lexp": "--lexp 1", "copies": "--copies 3",
              "integrated": "--integrated", "cp": "--cp 1", "ca": "--ca 1"}


@pytest.mark.parametrize("variant,flag", [
    (v, f) for v, reads in _README_PROTOCOLS.items() for f in _FLAG_ARGS
    if f not in reads])
def test_each_protocol_refuses_each_flag_it_does_not_read(capsys, variant,
                                                          flag):
    # random-guess reads none of these flags, so the refusal is the
    # protocol's alone
    code, out, err = _run(capsys, "simulate", "--protocol", variant,
                          "--attack", "random-guess", *_BASE[variant].split(),
                          *_FLAG_ARGS[flag].split(), "--trials", "200")
    assert code == 1 and out == ""
    typed = _FLAG_ARGS[flag].split()[0]
    assert err.endswith(f"{variant} with random-guess takes no {typed}\n")


@pytest.mark.parametrize("attack,flag", [
    (a, f) for a, reads in _README_ATTACKS.items() for f in _FLAG_ARGS
    if a not in ("timing-interval", "random-guess")
    and f not in (*reads, "beta", "p")])
def test_each_attack_refuses_each_flag_it_does_not_read(capsys, attack, flag):
    # trilemma-unsync reads none of these flags, so the refusal is the
    # attack's alone (timing-interval's row is checked above, and
    # random-guess is the protocol refusals' attack); no attack reads a
    # rate, and the protocol's refusal of --beta is checked above
    code, out, err = _run(capsys, "simulate", "--protocol", "trilemma-unsync",
                          "--attack", attack,
                          *_BASE["trilemma-unsync"].split(),
                          *_FLAG_ARGS[flag].split(), "--trials", "200")
    assert code == 1 and out == ""
    assert err.endswith(f"trilemma-unsync with {attack} takes no --{flag}\n")


@pytest.mark.parametrize("protocol,attack,flag", [
    ("onion-path", "random-guess", "lexp"),
    ("dropping-model", "random-guess", "copies"),
    ("dropping-model", "random-guess", "integrated"),
    ("onion-path", "path-tracing", "cp"),
    ("dropping-model", "dropping", "ca"),
    ("onion-path", "random-guess", "p"),
])
def test_each_read_flag_is_taken_on_its_own(capsys, protocol, attack, flag):
    base = _BASE[protocol].split()
    if flag == "integrated":
        # the integrated link replaces the first-hop pool that --relays sizes
        base = base[:base.index("--relays")]
    if flag == "p":
        # the rate typed on its own, in place of the base's
        base = base[:base.index("--p")]
    code, out, err = _run(capsys, "simulate", "--protocol", protocol,
                          "--attack", attack, *base,
                          *_FLAG_ARGS[flag].split(), "--trials", "200")
    assert code == 0 and err == ""
    assert json.loads(out)["protocol"] == protocol


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("protocol", ["trilemma-sync", "trilemma-unsync",
                                      "onion-path"])
def test_a_model_with_cover_exits_one_without_its_rate(capsys, command,
                                                       protocol):
    # an untyped rate is never run as no cover, as in `bound`
    flag, = {"beta", "p"} & _README_PROTOCOLS[protocol]
    base = _BASE[protocol].split()
    base = base[:base.index(f"--{flag}")]
    code, out, err = _run(capsys, command, "--protocol", protocol,
                          "--attack", "timing-interval", *base,
                          "--trials", "200")
    assert code == 1 and out == ""
    assert err == f"acnbounds: {protocol} needs --{flag}\n"


# sha256 of README's command examples' stdout; a change to the flags must
# leave every documented invocation's output as it was
README_SHA256 = {
    "bound --kind trilemma-sync --n 10 --lmax 2 --beta 0.1":
        "230910ba4806ad2dcf21809605c041241030f0417252e439e04ec60c55766eb9",
    "simulate --protocol trilemma-unsync --attack timing-interval --n 10 "
    "--lmax 3 --p 0.3 --trials 100000 --seed 0":
        "c2a678ad4ef72a8d103debfda3ae7b08243ae3cc903204477b80c0e8bbe525ee",
    "verify --protocol trilemma-unsync --attack timing-interval --n 10 "
    "--lmax 3 --p 0.3 --trials 20000 --seed 0 --tol 0.02":
        "4c0b591782aee110a8cb022bd5cb44444c12aea790ea32eda2cd392ce20eaf42",
    "region --bound trilemma --lmax 2 --beta 0.3":
        "3d8091e598880dfc047c9d2cc6f9a87442f280de148e58e86fdc02b9a46e44b6",
    "atlas":
        "3d6d6b4671568c04f83999bdec1b0b4294b1a30dd17972476a75fb0d34d6f33d",
    "atlas --grid --lmax-range 2:10 --beta-range 0.01:0.99:25":
        "d033ee17b139592bac1dcaa65809c187a6f74f541c16dea28cdeb234585eaab3",
}


@pytest.mark.parametrize("argv", sorted(README_SHA256), ids=[
    "atlas", "atlas-grid", "bound", "region", "simulate", "verify"])
def test_readme_examples_print_the_pinned_output(capsys, argv):
    code, out, err = _run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == README_SHA256[argv]
