import pytest

from acnbounds.atlas import (GRID_HEADER, MODES, PRESETS, AcnPreset, PerRound,
                             classify, emit_grid)

EXPECTED_COUNTING = {
    "tor": "falls-short",
    "hornet": "falls-short",
    "threshold-mix": "falls-short",
    "herd": "falls-short",
    "dcnet": "meets",
    "dissent": "meets",
    "dicemix": "meets",
    "loopix": "falls-short",
    "vuvuzela": "falls-short",
    "riffle": "falls-short",
    "riposte": "falls-short",
}


def test_per_round_linear_forms():
    a = PerRound(per_n=1.0)
    b = PerRound(per_n=0.5, const=10.0)
    assert a.at(100) == pytest.approx(100.0)
    assert b.at(100) == pytest.approx(60.0)
    # the n coefficient dominates any constant once n grows
    assert a.covers(b)
    assert not b.covers(a)
    # equal coefficients fall back to the constant term
    assert PerRound(const=2.0).covers(PerRound(const=1.0))
    assert not PerRound(const=1.0).covers(PerRound(const=2.0))


def test_preset_point_params():
    pt = PRESETS["tor"].point_params(1000, 256.0)
    assert pt == {"l_max": 4, "beta": 0.0, "p": pytest.approx(0.001)}
    assert PRESETS["threshold-mix"].point_params(1000, 256.0)["l_max"] == 11
    assert PRESETS["loopix"].point_params(1000, 256.0)["l_max"] == 17
    assert PRESETS["vuvuzela"].point_params(1000, 256.0)["l_max"] == 9
    pt = PRESETS["dcnet"].point_params(1000, 256.0)
    assert pt["l_max"] == 1 and pt["p"] == 1.0
    assert PRESETS["herd"].point_params(1000, 256.0)["beta"] == \
        pytest.approx(0.001)


def test_counting_column():
    rows = {p.name: classify(p) for p in PRESETS.values()}
    assert set(rows) == set(EXPECTED_COUNTING)
    for name, want in EXPECTED_COUNTING.items():
        assert rows[name]["counting"] == want, name


def test_latency_and_dropping_columns():
    rows = {p.name: classify(p) for p in PRESETS.values()}
    assert rows["tor"]["trilemma"] == "falls-short"
    assert rows["tor"]["dropping"] == "falls-short"
    assert rows["threshold-mix"]["dropping"] == "meets"
    assert rows["herd"]["dropping"] == "falls-short"
    # superposed sends have no transit window to exploit
    for name in ("dcnet", "dissent", "dicemix"):
        assert rows[name]["trilemma"] == "not-applicable"
        assert rows[name]["dropping"] == "meets"
    assert rows["riposte"]["trilemma"] == "not-applicable"
    for name in ("loopix", "vuvuzela", "riffle"):
        assert rows[name]["trilemma"] == "meets"
        assert rows[name]["dropping"] == "meets"


def test_special_mode_swaps_columns_but_not_conclusions():
    assert MODES == ("general", "special")
    for name in ("riffle", "riposte", "loopix", "tor"):
        row = classify(PRESETS[name], "special")
        # even the favorable deployments leave cover below carried volume
        assert row["counting"] == "falls-short", name
    general = classify(PRESETS["riffle"], "general")
    special = classify(PRESETS["riffle"], "special")
    assert general["mode"] == "general" and special["mode"] == "special"
    with pytest.raises(ValueError):
        classify(PRESETS["tor"], "figure")


def test_every_preset_carries_a_note():
    for preset in PRESETS.values():
        assert preset.note


def test_custom_preset_flows_through():
    heavy = AcnPreset("heavy-cover", PerRound(per_n=2.0), PerRound(1.0))
    row = classify(heavy, n=1000, lam=256.0)
    assert row["counting"] == "meets"


def test_grid_header_and_shape():
    assert GRID_HEADER == ("l_max,beta,counting_min_beta,trilemma_min_beta,"
                           "dropping_min_p,counting_verdict,trilemma_verdict,"
                           "dropping_verdict")
    lines = list(emit_grid([1, 2, 5], [0.001, 0.3, 1.0]))
    assert lines[0] == GRID_HEADER
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        for v in fields[5:]:
            assert v in ("impossible", "possible", "not-applicable")


def test_grid_verdict_matrix():
    lines = list(emit_grid([1, 2, 5], [0.001, 0.3, 1.0]))
    got = {}
    for line in lines[1:]:
        f = line.split(",")
        got[(int(f[0]), float(f[1]))] = (f[5], f[6], f[7])
    assert got[(1, 0.001)] == ("impossible", "not-applicable", "impossible")
    assert got[(1, 1.0)] == ("possible", "not-applicable", "possible")
    assert got[(2, 0.3)] == ("impossible", "impossible", "possible")
    assert got[(2, 1.0)] == ("possible", "possible", "possible")
    assert got[(5, 0.3)] == ("impossible", "possible", "possible")
    assert got[(5, 0.001)] == ("impossible", "impossible", "impossible")
    # the open latency window shows up as an unbounded threshold
    row1 = [l for l in lines[1:] if l.startswith("1,")][0]
    assert row1.split(",")[3] == "inf"
