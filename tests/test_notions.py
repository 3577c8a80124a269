import pytest

from acnbounds.core import NO_COMM, Communication, ProtocolParams, make_batch
from acnbounds.notions import (KINDS, SO_NMAX, Notion, ScenarioPair,
                               _force_differ, enumerate_batches,
                               generate_pair, hierarchy_subset_check,
                               is_valid_pair, parse_notion,
                               valid_under_reindexing)

C = Communication


def B(*rows):
    return make_batch(list(rows))


def test_parse_and_name_round_trip():
    for text in ("CO", "RO", "SO", "SML", "(SM)L", "(SR)L", "MO[ML]",
                 "SO_nmax:2", "SO_1", "(SM)L_1"):
        assert parse_notion(text).name() == text
    n = parse_notion("SO_nmax:3_1_ce", corrupted={5})
    assert n.n_max == 3 and n.x1 and n.corrupted == frozenset({5})
    assert n.name() == "SO_nmax:3_1_ce"
    with pytest.raises(ValueError):
        parse_notion("XY")
    with pytest.raises(ValueError):
        parse_notion("SO_ce")  # corruption marker without a corrupted set
    with pytest.raises(ValueError):
        Notion("SO_nmax")      # needs an explicit cap


def test_sender_swap_is_the_canonical_valid_pair():
    so = parse_notion("SO")
    assert is_valid_pair(so, B(C(0, 2, 0)), B(C(1, 2, 0)))
    # payload change is out of scope for a sender notion
    assert not is_valid_pair(so, B(C(0, 2, 0)), B(C(0, 2, 1)))
    assert not is_valid_pair(so, B(C(0, 2, 0)), B(C(0, 1, 0)))
    # placeholder rows must line up
    assert is_valid_pair(so, B(NO_COMM), B(NO_COMM))
    assert not is_valid_pair(so, B(NO_COMM), B(C(0, 1, 0)))
    assert not is_valid_pair(so, B(C(0, 2, 0)), B(C(1, 2, 0), C(1, 2, 1)))


def test_receiver_notion_mirrors_sender_notion():
    ro = parse_notion("RO")
    assert is_valid_pair(ro, B(C(0, 2, 0)), B(C(0, 1, 0)))
    assert not is_valid_pair(ro, B(C(0, 2, 0)), B(C(1, 2, 0)))


def test_volume_preserving_restriction():
    sml = parse_notion("SML")
    a = B(C(0, 2, 0), C(1, 2, 1))
    assert is_valid_pair(sml, a, B(C(1, 2, 0), C(0, 2, 1)))
    # 0 sends twice on the right: volumes differ
    assert not is_valid_pair(sml, a, B(C(0, 2, 0), C(0, 2, 1)))


def test_send_cap_restriction():
    capped = parse_notion("SO_nmax:1")
    assert is_valid_pair(capped, B(C(0, 2, 0), C(1, 2, 1)),
                         B(C(1, 2, 0), C(0, 2, 1)))
    assert not is_valid_pair(capped, B(C(0, 2, 0), C(1, 2, 1)),
                             B(C(1, 2, 0), C(1, 2, 1)))


def test_two_row_swap_with_shared_receiver():
    swap = parse_notion("(SM)L")
    a = B(C(0, 2, 0), C(1, 2, 1))
    assert is_valid_pair(swap, a, B(C(1, 2, 0), C(0, 2, 1)))
    # receivers differ between the swapped rows
    b = B(C(0, 2, 0), C(1, 3, 1))
    assert not is_valid_pair(swap, b, B(C(1, 2, 0), C(0, 3, 1)))
    # identical batches have no swapped rows
    assert not is_valid_pair(swap, a, a)
    # three changed rows are too many
    c = B(C(0, 2, 0), C(1, 2, 1), C(2, 2, 2))
    assert not is_valid_pair(swap, c, B(C(1, 2, 0), C(2, 2, 1), C(0, 2, 2)))


def test_two_row_swap_with_shared_payload():
    swap = parse_notion("(SR)L")
    a = B(C(0, 2, 5), C(1, 3, 5))
    assert is_valid_pair(swap, a, B(C(1, 2, 5), C(0, 3, 5)))
    b = B(C(0, 2, 5), C(1, 3, 6))
    assert not is_valid_pair(swap, b, B(C(1, 2, 5), C(0, 3, 6)))


def test_volume_only_notion_frees_payloads():
    mo = parse_notion("MO[ML]")
    assert is_valid_pair(mo, B(C(0, 2, 0)), B(C(0, 2, 9)))
    assert not is_valid_pair(mo, B(C(0, 2, 0)), B(C(0, 1, 0)))
    assert not is_valid_pair(mo, B(C(0, 2, 0)), B(C(1, 2, 0)))
    # placeholders would leak whether anyone communicated at all
    assert not is_valid_pair(mo, B(NO_COMM), B(NO_COMM))


def test_anything_goes_notion():
    co = parse_notion("CO")
    assert is_valid_pair(co, B(C(0, 2, 0)), B(C(1, 3, 9), C(1, 3, 8)))


def test_single_use_restriction_shrinks():
    so1 = parse_notion("SO_1")
    assert is_valid_pair(so1, B(C(0, 2, 0), C(1, 2, 1)),
                         B(C(1, 2, 0), C(0, 2, 1)))
    assert not is_valid_pair(so1, B(C(0, 2, 0), C(0, 2, 1)),
                             B(C(1, 2, 0), C(1, 2, 1)))


def test_corrupted_users_pin_payloads():
    ce = parse_notion("SO_ce", corrupted={2})
    assert is_valid_pair(ce, B(C(0, 2, 0)), B(C(1, 2, 0)))
    both = parse_notion("MO[ML]_ce", corrupted={2})
    assert not is_valid_pair(both, B(C(0, 2, 0)), B(C(0, 2, 9)))
    untouched = parse_notion("MO[ML]_ce", corrupted={7})
    assert is_valid_pair(untouched, B(C(0, 2, 0)), B(C(0, 2, 9)))


def test_reindexing_recognizes_reordered_batches():
    so = parse_notion("SO")
    b0 = B(C(0, 2, 0), C(1, 2, 1))
    b1 = B(C(5, 2, 1), C(4, 2, 0))  # rows written in the opposite order
    assert not is_valid_pair(so, b0, b1)
    assert valid_under_reindexing(so, b0, b1) == (1, 0)


def test_scenario_pair_checks_validity_and_reports_suspects():
    so = parse_notion("SO")
    pair = ScenarioPair(B(C(0, 3, 7)), B(C(2, 3, 7)), so)
    assert pair.suspects() == (0, 2)
    assert pair.challenge_receiver() == 3
    assert pair.challenge_message() == 7
    with pytest.raises(ValueError):
        ScenarioPair(B(C(0, 3, 7)), B(C(0, 3, 8)), so)


def test_missing_challenge_fields_raise_on_every_call():
    # CO lets a row face an empty slot: no second suspect, then no receiver
    co = parse_notion("CO")
    pair = ScenarioPair(B(C(0, 3, 7)), B(NO_COMM), co)
    assert pair.challenge_receiver() == 3
    for _ in range(2):
        with pytest.raises(ValueError):
            pair.suspects()
    pair = ScenarioPair(B(NO_COMM), B(C(1, 3, 7)), co)
    for _ in range(2):
        with pytest.raises(ValueError):
            pair.challenge_receiver()
        with pytest.raises(ValueError):
            pair.challenge_message()


def test_unequal_batches_are_compared_index_by_index():
    # CO may change the number of rows: the shorter batch faces empty
    # slots past its end, and an index where both agree is no challenge
    co = parse_notion("CO")
    pair = ScenarioPair(B(C(0, 3, 7)), B(C(0, 3, 7), C(1, 3, 8)), co)
    # the one differing index holds an empty slot under 0: no suspects, and
    # no scenario-0 row to name a receiver or a payload
    for field in (pair.suspects, pair.challenge_receiver,
                  pair.challenge_message):
        with pytest.raises(ValueError):
            field()
    pair = ScenarioPair(B(C(0, 3, 7)), B(C(2, 1, 4), C(1, 3, 5)), co)
    assert pair.suspects() == (0, 2)
    assert pair.challenge_receiver() == 3
    assert pair.challenge_message() == 7
    # batch 0's second row faces the slot past batch 1's end
    pair = ScenarioPair(B(NO_COMM, C(1, 2, 6)), B(C(0, 3, 7)), co)
    assert pair.challenge_receiver() == 2
    assert pair.challenge_message() == 6
    with pytest.raises(ValueError):
        pair.suspects()


def test_force_differ_swaps_or_bumps_a_profile():
    # the fallback when every redraw of a sender profile repeats it: swap
    # the first two unequal senders, or bump a constant profile's head
    assert _force_differ([2, 2, 0, 1], 4) == [0, 2, 2, 1]
    assert _force_differ((3, 3), 4) == [0, 3]
    assert _force_differ([1], 2) == [0]


def test_generated_pairs_are_valid_for_every_kind():
    params = ProtocolParams(n=5, l_max=2)
    specs = ["CO", "RO", "SO", "SML", "(SM)L", "(SR)L", "SO_nmax:2",
             "SO_1", "SML_1", "(SM)L_1"]
    for text in specs:
        notion = parse_notion(text)
        for seed in range(8):
            pair = generate_pair(notion, params, seed)
            assert is_valid_pair(notion, pair.batch0, pair.batch1), \
                (text, seed)
            rows = pair.batch0.rows, pair.batch1.rows
            assert len(rows[0]) == len(rows[1]), (text, seed)
            assert any(r0 != r1 for r0, r1 in zip(*rows)), (text, seed)


@pytest.mark.parametrize("x1", ["", "_1"])
@pytest.mark.parametrize("kind", KINDS)
def test_every_notion_generates_a_valid_pair_at_n4(kind, x1):
    # x1 pins each user of its class to one row, so under RO_1 both
    # batches' receivers are permutations of the users
    params = ProtocolParams(n=4, l_max=2)
    text = ("SO_nmax:1" if kind == SO_NMAX else kind) + x1
    notion = parse_notion(text)
    for seed in range(10):
        pair = generate_pair(notion, params, seed)
        assert is_valid_pair(notion, pair.batch0, pair.batch1), (text, seed)
        assert pair.batch0.rows != pair.batch1.rows, (text, seed)


def test_generated_pairs_repeat_under_the_same_seed():
    params = ProtocolParams(n=3, l_max=2)
    a = generate_pair(parse_notion("SO"), params, 5)
    b = generate_pair(parse_notion("SO"), params, 5)
    assert a.batch0.rows == b.batch0.rows
    assert a.batch1.rows == b.batch1.rows


def test_generated_relationship_pair_relinks_senders_and_receivers():
    params = ProtocolParams(n=2, l_max=2)
    notion = parse_notion("(SR)L_1")
    pair = generate_pair(notion, params, 0)
    assert is_valid_pair(notion, pair.batch0, pair.batch1)
    for side in ("sender", "receiver", "message"):
        assert (sorted(getattr(r, side) for r in pair.batch0.rows)
                == sorted(getattr(r, side) for r in pair.batch1.rows))
    assert set(pair.batch0.rows) != set(pair.batch1.rows)


def test_generated_volume_pair():
    notion = parse_notion("MO[ML]")
    params = ProtocolParams(n=4, l_max=2)
    pair = generate_pair(notion, params, 3, length=2)
    assert is_valid_pair(notion, pair.batch0, pair.batch1)


def test_x1_generator_needs_full_length():
    params = ProtocolParams(n=4, l_max=2)
    with pytest.raises(ValueError):
        generate_pair(parse_notion("SO_1"), params, 0, length=2)
    pair = generate_pair(parse_notion("SO_1"), params, 0)
    assert len(pair.batch0.rows) == 4


def test_enumerate_batches_counts():
    # 2 users x 2 receivers x 2 payloads plus the placeholder, lengths 1..2
    got = enumerate_batches(2, 2, 2)
    assert len(got) == 9 + 81


def test_hierarchy_is_strict_between_swap_and_sender_freedom():
    # a single-row sender change is fine for plain sender freedom but is
    # not expressible as one two-row swap, so the reverse inclusion fails
    assert hierarchy_subset_check(parse_notion("(SM)L"), parse_notion("SO"),
                                  2, 2, 2)
    assert not hierarchy_subset_check(parse_notion("SO"),
                                      parse_notion("(SM)L"), 2, 2, 2)


def test_hierarchy_guard_rejects_big_universes():
    from acnbounds.core import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        hierarchy_subset_check(parse_notion("SO"), parse_notion("CO"),
                               users=5, messages=2, max_len=2)
