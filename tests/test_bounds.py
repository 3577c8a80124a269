import math

import pytest
from hypothesis import given, settings, strategies as st

from acnbounds.bounds import (counting_bound, counting_min_beta,
                              counting_region, covered_fraction,
                              dropping_min_p, dropping_region, onion_cost,
                              onion_cost_dropping, security_parameter,
                              trilemma_min_beta, trilemma_region,
                              trilemma_sync, trilemma_unsync,
                              trilemma_unsync_original)

rates = st.floats(0.0, 1.0, allow_nan=False)


def test_covered_fraction():
    assert covered_fraction(1, 10, 0.1) == pytest.approx(2 / 9)
    assert covered_fraction(5, 10, 1.0) == 1.0
    assert covered_fraction(0, 10, 0.5) == 0.0
    with pytest.raises(ValueError):
        covered_fraction(1, 1, 0.1)


def test_sync_advantage_frozen_values():
    assert trilemma_sync(2, 0.1, 10) == pytest.approx(7 / 9)
    assert trilemma_sync(3, 0.1, 100) == pytest.approx(77 / 99)
    assert trilemma_sync(1, 0.0, 10) == 1.0
    # full cover: a dummy from every other user each round
    assert trilemma_sync(2, 9 / 10, 10) == 0.0


def test_unsync_advantage_frozen_values():
    assert trilemma_unsync_original(3, 0.2) == pytest.approx(0.14)
    assert trilemma_unsync(3, 0.2) == pytest.approx(0.64)
    assert trilemma_unsync_original(1, 0.9) == 0.5
    assert trilemma_unsync(1, 0.9) == 1.0
    assert trilemma_unsync(5, 1.0) == 0.0


def test_advantage_validation():
    with pytest.raises(ValueError):
        trilemma_unsync(0, 0.5)
    with pytest.raises(ValueError):
        trilemma_unsync_original(0, 0.5)
    with pytest.raises(ValueError):
        trilemma_unsync(2, 1.5)
    with pytest.raises(ValueError):
        trilemma_unsync_original(2, 1.5)
    with pytest.raises(ValueError):
        trilemma_sync(2, 0.5, 1)
    with pytest.raises(ValueError):
        trilemma_sync(2, -0.1, 10)


@settings(max_examples=200, deadline=None)
@given(p=rates, l_max=st.integers(1, 30))
def test_improved_dominates_the_original_form(p, l_max):
    orig = trilemma_unsync_original(l_max, p)
    imp = trilemma_unsync(l_max, p)
    assert 0.0 <= orig <= imp <= 1.0


@settings(max_examples=200, deadline=None)
@given(p=rates, l_max=st.integers(1, 20))
def test_more_cover_or_latency_never_helps_the_adversary(p, l_max):
    a = trilemma_unsync(l_max, p)
    assert trilemma_unsync(l_max + 1, p) <= a
    assert trilemma_unsync(l_max, min(1.0, p + 0.1)) <= a


@settings(max_examples=200, deadline=None)
@given(beta=rates, l_max=st.integers(1, 20), n=st.integers(2, 50))
def test_sync_advantage_shrinks_with_cover(beta, l_max, n):
    a = trilemma_sync(l_max, beta, n)
    assert 0.0 <= a <= 1.0
    assert trilemma_sync(l_max + 1, beta, n) <= a


def test_compromising_frozen_values():
    # deep compromise: whole path may hide inside the corrupted set
    assert trilemma_sync(2, 0.1, 10, c_p=1, relays=2) == pytest.approx(8 / 9)
    got = trilemma_sync(2, 0.1, 100, c_p=2, relays=4)
    assert got == pytest.approx(1 - 0.5 * (11 / 99))
    got = trilemma_sync(3, 0.0, 10, c_p=2, relays=4)
    assert got == pytest.approx(22 / 27)
    # shallow compromise only shortens the transit window
    got = trilemma_sync(4, 0.1, 10, c_p=1, relays=3)
    assert got == pytest.approx(11 / 27)
    assert trilemma_unsync(4, 0.3, c_p=1, relays=3) == pytest.approx(0.392)
    assert trilemma_unsync(2, 0.5, c_p=1, relays=2) == pytest.approx(0.75)


def test_compromising_reduces_to_the_base_bound_without_corruption():
    # the base formulas, written out; the pool size is not read at c_p = 0
    for l_max in range(1, 8):
        for p in (0.0, 0.15, 0.5, 0.9, 1.0):
            assert (trilemma_unsync(l_max, p, c_p=0, relays=5)
                    == (1.0 - p) ** (l_max - 1))
        for beta in (0.0, 0.2, 0.7):
            base = 1.0 - min(1.0, (l_max - 1) * (1.0 + beta * 12) / 11)
            assert (trilemma_sync(l_max, beta, 12, c_p=0, relays=5)
                    == min(1.0, max(0.0, base)))


@settings(max_examples=150, deadline=None)
@given(p=rates, l_max=st.integers(1, 10), c_p=st.integers(0, 6),
       extra=st.integers(0, 6))
def test_compromising_stays_a_probability(p, l_max, c_p, extra):
    got = trilemma_unsync(l_max, p, c_p=c_p, relays=c_p + extra + 1)
    assert 0.0 <= got <= 1.0


def test_compromising_validation():
    with pytest.raises(ValueError):
        trilemma_unsync(2, 0.5, c_p=3, relays=2)
    with pytest.raises(ValueError):
        trilemma_sync(2, 0.5, 10, c_p=3, relays=2)
    with pytest.raises(ValueError):
        trilemma_unsync(2, 0.5, c_p=-1)


def test_counting_bound_and_matching_overhead():
    cb = counting_bound(5, 3)
    assert cb["min_messages"] == 15
    assert cb["overhead_fraction"] == pytest.approx(2 / 3)
    # the overhead is every stage past each message's first
    for out_r in range(1, 21):
        for hops in range(1, 21):
            cb = counting_bound(out_r, hops)
            assert (cb["overhead_fraction"] * cb["min_messages"]
                    == pytest.approx(out_r * (hops - 1)))
    with pytest.raises(ValueError):
        counting_bound(3, 0)
    with pytest.raises(ValueError):
        counting_bound(-1, 3)


def test_degenerate_volumes_cost_nothing():
    assert counting_bound(0, 5)["min_messages"] == 0
    assert counting_bound(4, 1)["overhead_fraction"] == 0.0


def test_threshold_frozen_values():
    assert counting_min_beta(1000.0) == pytest.approx(0.999)
    assert trilemma_min_beta(2, 1000.0) == pytest.approx(0.4995)
    assert trilemma_min_beta(5, 1000.0) == pytest.approx(0.999 / 8)
    assert trilemma_min_beta(1, 1000.0) == math.inf
    # a shallow compromise narrows the window and raises the threshold
    assert trilemma_min_beta(5, 1000.0, c_p=2) == pytest.approx(0.999 / 4)
    assert trilemma_min_beta(2, 1000.0, c_p=3) == pytest.approx(0.4995)
    assert dropping_min_p(2, 256.0, 1000.0) == pytest.approx(0.004)
    assert dropping_min_p(10, 256.0, 1000.0) == pytest.approx(0.0008)
    with pytest.raises(ValueError):
        counting_min_beta(1.0)
    with pytest.raises(ValueError):
        dropping_min_p(2, 1.0, 1000.0)


def test_region_verdicts():
    r = trilemma_region(1000, 2, 0.3, 1000.0)
    assert r.impossible() and r.threshold == pytest.approx(0.4995)
    r = trilemma_region(1000, 2, 0.6, 1000.0)
    assert r.verdict == "possible"
    r = trilemma_region(1000, 1, 0.6, 1000.0)
    assert r.verdict == "not-applicable" and r.threshold == math.inf
    # starvation: less than one message of cover per round in total
    r = trilemma_region(2, 2, 0.3, 2.0)
    assert r.impossible()

    r = counting_region(0.5, 1000.0)
    assert r.impossible() and r.threshold == pytest.approx(0.999)
    r = counting_region(1.0, 1000.0)
    assert r.verdict == "possible"

    r = dropping_region(2, 0.004, 256.0, 1000.0)
    assert r.impossible() and r.threshold == pytest.approx(0.004)
    r = dropping_region(2, 0.0041, 256.0, 1000.0)
    assert r.verdict == "possible"

    with pytest.raises(ValueError):
        counting_region(None, 10.0)


# a point each region function decides, and the value of each case that
# moves it off what a protocol can have
_REGIONS = {"counting": counting_region, "trilemma": trilemma_region,
            "dropping": dropping_region}
_REGION_POINTS = {
    "counting": dict(beta=0.2, poly_lambda=10.0),
    "trilemma": dict(n=10, l_max=3, beta=0.2, poly_lambda=10.0),
    "dropping": dict(l_max=3, p=0.2, lam=256.0, poly_lambda=10.0),
}


@pytest.mark.parametrize("bound,kw", [
    ("trilemma", dict(l_max=0)),
    ("counting", dict(poly_lambda=1.0)),
    ("dropping", dict(l_max=0)),
    ("trilemma", dict(beta=1.5)),
    ("counting", dict(beta=-0.1)),
    ("trilemma", dict(c_p=-1)),
    ("dropping", dict(p=-0.5)),
])
def test_region_rejects_impossible_points(bound, kw):
    _REGIONS[bound](**_REGION_POINTS[bound])
    with pytest.raises(ValueError):
        _REGIONS[bound](**{**_REGION_POINTS[bound], **kw})


def test_region_uses_n_as_the_default_polynomial():
    assert security_parameter(1000) == 1000.0
    assert security_parameter(1000, 1.5) == 1.5
    strict = trilemma_region(1000, 2, 0.49, security_parameter(1000))
    loose = trilemma_region(1000, 2, 0.49, security_parameter(1000, 1.5))
    assert strict.impossible() and not loose.impossible()
    for n, poly_lambda in ((0, None), (0, 5.0), (-3, 5.0), (1, None)):
        with pytest.raises(ValueError):
            security_parameter(n, poly_lambda)


def test_onion_cost_frozen_values():
    got = onion_cost(100, 256.0, p=0.1, l_exp=5)
    assert got == {"per-user": pytest.approx(50.0),
                   "network": pytest.approx(5000.0)}
    # every user sending in every round is the counting cost n * l_exp
    got = onion_cost(100, 256.0, l_exp=5)
    assert got["per-user"] == pytest.approx(500.0)
    # default expected path length is log2(lam)
    got = onion_cost(10, 256.0)
    assert got["per-user"] == pytest.approx(80.0)
    got = onion_cost_dropping(100, 256.0)
    assert got == {"per-user": pytest.approx(8.0),
                   "network": pytest.approx(800.0)}


@given(st.integers(1, 10**6), st.floats(1.0, 1e6))
def test_onion_cost_at_full_rate_is_the_counting_cost(n, l_exp):
    # p = 1 is the counting cost n * l_exp, to the last bit
    want = n * l_exp
    assert onion_cost(n, 256.0, l_exp=l_exp) == {"per-user": want,
                                                  "network": n * want}



@given(st.integers(1, 10**6), st.floats(2.0, 1e6),
       st.none() | st.floats(1.0, 1e6))
def test_onion_cost_without_a_rate_is_every_user_every_round(n, lam, l_exp):
    # p = None, the default, is p = 1, to the last bit; "per-user" is
    # n * p * l_exp, which grows with n
    got = onion_cost(n, lam, l_exp=l_exp)
    assert got == onion_cost(n, lam, p=1.0, l_exp=l_exp)
    assert got == onion_cost(n, lam, None, l_exp)
    assert onion_cost(n + 1, lam, l_exp=l_exp)["per-user"] > got["per-user"]
