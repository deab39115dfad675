import numpy as np
import pytest

from slateval import SlateError, SlateSpace


def test_ranking_indicator_layout():
    # slot-major, action-minor: ((1,1),(1,2),(2,1),(2,2)) in 1-indexed terms
    space = SlateSpace.ranking(2, 2)
    assert space.indicator((0, 1)).tolist() == [1.0, 0.0, 0.0, 1.0]


def test_cartesian_indicator_one_hot_per_slot():
    space = SlateSpace.cartesian((3, 3))
    vec = space.indicator((2, 0))
    assert vec.tolist() == [0, 0, 1, 1, 0, 0]


def test_indicator_sums_to_num_slots():
    space = SlateSpace.ranking(4, 3)
    for slate in space.enumerate_slates():
        assert space.indicator(slate).sum() == space.num_slots


def test_indicator_injective():
    space = SlateSpace.ranking(4, 2)
    seen = set()
    for slate in space.enumerate_slates():
        key = tuple(space.indicator(slate))
        assert key not in seen
        seen.add(key)
    assert len(seen) == space.num_slates() == 12


def test_num_slates():
    assert SlateSpace.ranking(3, 2).num_slates() == 6
    assert SlateSpace.ranking(5, 5).num_slates() == 120
    assert SlateSpace.cartesian((3, 2, 4)).num_slates() == 24


def test_ranking_rejects_repeats_and_out_of_range():
    space = SlateSpace.ranking(3, 2)
    with pytest.raises(SlateError):
        space.validate((1, 1))
    with pytest.raises(SlateError):
        space.validate((0, 3))
    with pytest.raises(SlateError):
        space.validate((0,))


def test_ranking_needs_enough_actions():
    with pytest.raises(SlateError):
        SlateSpace.ranking(2, 3)


def test_dim_and_offsets():
    space = SlateSpace.cartesian((2, 3, 4))
    assert space.dim == 9
    assert space.offsets.tolist() == [0, 2, 5]
    assert space.coord(2, 3) == 8


def test_enumeration_is_lexicographic_and_complete():
    space = SlateSpace.ranking(3, 2)
    slates = list(space.enumerate_slates())
    assert slates[0] == (0, 1)
    assert slates == sorted(slates)
    assert len(slates) == 6


def test_coords_of_actions_batch():
    space = SlateSpace.cartesian((2, 2))
    batch = np.array([[0, 1], [1, 0]])
    assert space.coords_of_actions(batch).tolist() == [[0, 3], [1, 2]]


def test_space_resolution_constant_mapping_callable():
    from slateval.spaces import space_of

    small = SlateSpace.ranking(3, 2)
    big = SlateSpace.ranking(5, 2)
    assert space_of(small, "anything") is small
    assert space_of({"a": small, "b": big}, "b") is big
    assert space_of(lambda c: small if c == "a" else big, "a") is small


def test_validate_batch_agrees_with_validate():
    for space in (SlateSpace.ranking(4, 2), SlateSpace.cartesian((3, 2))):
        rows = np.array([[a, b] for a in range(-1, 5) for b in range(-1, 5)])
        flags = [space.is_valid(tuple(row)) for row in rows]
        valid = rows[flags]
        np.testing.assert_array_equal(space.validate_batch(valid), valid)
        for row in rows[np.logical_not(flags)]:
            with pytest.raises(SlateError, match=r"context 'q'"):
                space.validate_batch(np.vstack([valid, row]), "q")


def test_validate_batch_checks_slot_count():
    space = SlateSpace.ranking(4, 2)
    with pytest.raises(SlateError, match="3 slots"):
        space.validate_batch(np.array([[0, 1, 2]]))
    assert space.validate_batch(np.empty((0, 3), dtype=np.int64)).shape == (0, 2)


def test_slate_array_and_keys():
    for space in (SlateSpace.ranking(4, 3), SlateSpace.cartesian((2, 3, 2))):
        rows = space.slate_array()
        assert [tuple(r) for r in rows.tolist()] == list(space.enumerate_slates())
        keys = space.slate_keys(rows)
        assert len(set(keys.tolist())) == len(rows)
    huge = SlateSpace.ranking(100, 10)  # 100**10 does not fit an int64 key
    rows = np.array([list(range(10)), list(range(1, 11)), list(range(10))])
    keys = huge.slate_keys(rows)
    assert keys[0] == keys[2] and keys[0] != keys[1]
