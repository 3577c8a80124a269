"""Byte-identity of traces, outcomes and records against pinned digests.

Each digest is the sha256 of the `repr` of what the code produced at fixed
seeds when the digests were generated. A different digest means the
adversary now sees a different trace, or `simulate` prints a different
record, for the same seed. A change that must alter one says why in
CHANGES.md and regenerates the digest with `golden_digests()`.

At the same seeds, every outcome `sample_outcome` draws must also be one
that `enumerate_outcomes` lists.
"""

import dataclasses
import hashlib
import random

import pytest

from acnbounds.adversaries import (counting_attack, dropping_attack,
                                   random_guess_attack, timing_attack,
                                   tracing_attack)
from acnbounds.core import (NO_COMM, AdversaryCapability, Communication,
                            ProtocolParams, filter_trace, make_batch)
from acnbounds.game import estimate_advantage, record_json, result_record
from acnbounds.notions import ScenarioPair, parse_notion
from acnbounds.protocols import (DROPPING, ONION_PATH, TRILEMMA_UNSYNC,
                                 VARIANTS, ProtocolKind, arm, build_trace,
                                 enumerate_outcomes, sample_outcome)

SO = parse_notion("SO")
SEEDS = range(6)

# one parameter point every variant accepts
PARAMS = ProtocolParams(n=4, l_max=3, beta=0.5, relays=3, copies=2)
KINDS = {v: ProtocolKind(v, PARAMS) for v in VARIANTS}
KINDS["dropping-model-integrated"] = ProtocolKind(
    DROPPING, dataclasses.replace(PARAMS, integrated=True))
PAIR_ROWS = ([Communication(0, 3, 0), Communication(2, 3, 1), NO_COMM],
             [Communication(1, 3, 0), Communication(2, 3, 1), NO_COMM])

# the capabilities of the stock attacks, plus a partial observer
CAPS = (
    counting_attack(4).capability,
    timing_attack(4).capability,
    tracing_attack(4, 2).capability,
    dropping_attack(4).capability,
    dropping_attack(4, 1).capability,
    random_guess_attack().capability,
    AdversaryCapability(observed_senders=frozenset({0, 2}), c_p=1),
)

# small enough to enumerate every outcome of both arms
TINY = ProtocolParams(n=2, l_max=2, beta=0.5, relays=2)
TINY_ROWS = ([Communication(0, 1, 0), NO_COMM],
             [Communication(1, 1, 0), NO_COMM])


def trial_key(seed, i=0):
    """A cover key for trial i at a seed, shaped like the game's: the tail
    of a sha256."""
    return hashlib.sha256(f"{seed}:{i}".encode()).digest()[10:]


def _pair(rows):
    b0, b1 = (make_batch(r) for r in rows)
    return ScenarioPair(b0, b1, SO)


def trace_digests(name):
    """(build, filter) digests over every seed, arm and capability."""
    kind, pair = KINDS[name], _pair(PAIR_ROWS)
    built, kept = hashlib.sha256(), hashlib.sha256()
    for seed in SEEDS:
        for b in (0, 1):
            side = arm(kind, pair, b)
            outcome = sample_outcome(side, random.Random(seed),
                                     trial_key(seed))
            for cap in CAPS:
                trace = build_trace(side, outcome, cap)
                built.update(repr(trace.events).encode())
                kept.update(repr(filter_trace(trace, cap).events).encode())
    return built.hexdigest(), kept.hexdigest()


def outcome_digest(variant):
    kind, pair = ProtocolKind(variant, TINY), _pair(TINY_ROWS)
    h = hashlib.sha256()
    for b in (0, 1):
        # the leaves are streamed; their list is what the digest pins
        h.update(repr(list(enumerate_outcomes(kind, pair, b))).encode())
    return h.hexdigest()


def record_digest(variant):
    if variant == ONION_PATH:
        n, params = 8, ProtocolParams(n=8, l_max=3, beta=0.25, relays=4)
        attack = tracing_attack(n, 2)
    else:
        n, params = 10, ProtocolParams(n=10, l_max=3, beta=0.25)
        attack = timing_attack(n)
    kind = ProtocolKind(variant, params)
    pair = _pair(([Communication(0, n - 1, 0)],
                  [Communication(1, n - 1, 0)]))
    est = estimate_advantage(kind, attack, pair, 2000, master_seed=11)
    record = record_json(result_record(kind, attack, pair, est, 11))
    return hashlib.sha256(record.encode()).hexdigest()


def golden_digests():
    """Recompute every pinned digest, in the layout of the tables below."""
    return {
        "traces": {name: trace_digests(name) for name in KINDS},
        "outcomes": {v: outcome_digest(v) for v in VARIANTS},
        "records": {v: record_digest(v)
                    for v in (TRILEMMA_UNSYNC, ONION_PATH)},
    }


TRACES = {
    "broadcast-full-dummy": (
        "13606f358f52ab5e7774d6c1a4c5980a7fe7342b45729533942f9a80230e8188",
        "3710d491fdc514b56796baa4fa67e1c60426aacfed3be6fc28f3cbebe97ee8cb"),
    "dcnet-round": (
        "9b489a3c0e17b767005edd277bb9046740d98ef273feea0edfae6f7dbfca8210",
        "59ea658fa47ebb5cf9b60b6e569722dbe07e1ae466f3624d2b4c8469e9032e54"),
    "dropping-model": (
        "6bf844b0713520443a2a0b0ecd5df2d9a0748805871e184da0ccd40ebe43119e",
        "0e33fb03b69bee70bc4a3b4f4042edc329ba064f0c62a79a3ad8016a532b2861"),
    "dropping-model-integrated": (
        "90c49390408168b6b98dff272a10f166609dd535b2a5edcf85cc6cca824f6d87",
        "bd0fbb9377c0b45097a8d3d2e9da9b02a7a5c9be762eb4d993f57fec14da960a"),
    "onion-path": (
        "012abaa555ff0824ff926b25c97a970e7f422f80fb7670e6352c1aaf4d7153e3",
        "b78230a3c5cca7805e9a655e11c476f33285f2d9b9fe5f890611b169f24e5714"),
    "trilemma-sync": (
        "9f2290941feddc5a10e9d4a2929981c8064c61f7287a76e90ea2f9911e1c8bac",
        "c85966210053164128baf7e8def90e436dad2e77c5d7151967a5038cb25f7579"),
    "trilemma-unsync": (
        "32083dc60314d6c24e1c02b982d675c424686524c302745bdb65d811940572dd",
        "010950c8d20bdccb406f5a123f58a6744295852f5113320995137196453131a3"),
}
OUTCOMES = {
    "broadcast-full-dummy":
        "8d6323555a1bcb1585b2eb49c07aeda977d9b6aecead5117e15b18531624ea11",
    "dcnet-round":
        "8d6323555a1bcb1585b2eb49c07aeda977d9b6aecead5117e15b18531624ea11",
    "dropping-model":
        "03b5bf5683ec21b1d798db6145b85e799ec62ce9cd13c0a43b8c5b8591d82797",
    "onion-path":
        "672f485411a258740f914ce67a67137ded137fe96b01beaf9d11241d4ce1a1b8",
    "trilemma-sync":
        "783cf0d2ca06f248f457691c1745bbb6d83eb99e3508e3339d54ef6e49ae8e13",
    "trilemma-unsync":
        "f49ba4bb7be693e424640478d0a76a6f3c96880019a962301102ca8710bcfb83",
}
RECORDS = {
    "onion-path":
        "b5f020dcca93a43a4e8a0c7b4716d84c6b3c16ce773328ac78a4aa0f51d73605",
    "trilemma-unsync":
        "dc7f96403bc734c079e8d529de5c06cead35e24c2fdd5fbd6fb0858c400e3de4",
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_built_and_filtered_traces_are_byte_identical(name):
    assert trace_digests(name) == TRACES[name]


@pytest.mark.parametrize("variant", sorted(OUTCOMES))
def test_enumerated_outcomes_are_byte_identical(variant):
    assert outcome_digest(variant) == OUTCOMES[variant]


@pytest.mark.parametrize("variant", sorted(RECORDS))
def test_simulate_records_are_byte_identical(variant):
    assert record_digest(variant) == RECORDS[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_sampled_outcomes_are_among_the_enumerated(variant):
    # both routes read one description of the randomness
    kind, pair = ProtocolKind(variant, TINY), _pair(TINY_ROWS)
    for b in (0, 1):
        outs = enumerate_outcomes(kind, pair, b)
        assert sum(p for p, _ in outs) == 1
        listed = {o for _, o in outs}
        for seed in SEEDS:
            assert sample_outcome(arm(kind, pair, b), random.Random(seed),
                                  trial_key(seed)) in listed
