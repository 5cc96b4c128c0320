"""Determinism and addressing properties of the keyed randomness layer."""

import math

import numpy as np
import pytest

from ergodic.seeds import (
    BITS_PER_STREAM,
    SeedKey,
    XiFamily,
    xi,
    xi_bit,
    xi_prefix,
    xi_raw,
)

KEY = SeedKey.from_hex("00112233445566778899aabbccddeeff")


def test_from_hex_roundtrip():
    assert SeedKey.from_hex(KEY.hex) == KEY
    assert KEY.hex == "00112233445566778899aabbccddeeff"


@pytest.mark.parametrize("bad", ["", "00", "g" * 32, "0" * 31, "0" * 33])
def test_from_hex_rejects(bad):
    with pytest.raises(ValueError):
        SeedKey.from_hex(bad)


def test_master_range_enforced():
    with pytest.raises(ValueError):
        SeedKey(1 << 128)
    with pytest.raises(ValueError):
        SeedKey(-1)


def test_subset_order_never_matters():
    assert xi(KEY, [3, 1, 2]) == xi(KEY, (2, 3, 1)) == xi(KEY, {1, 2, 3})
    # duplicates collapse: {1,1,2} is the set {1,2}
    assert xi(KEY, [1, 1, 2]) == xi(KEY, [2, 1])


def test_negative_elements_rejected():
    with pytest.raises(ValueError):
        xi(KEY, [-1, 2])


def test_values_deterministic_and_distinct():
    a = xi(KEY, [0, 1])
    assert a == xi(KEY, [0, 1])
    seen = {xi(KEY, [i]) for i in range(64)}
    seen |= {xi(KEY, [i, i + 1]) for i in range(64)}
    assert len(seen) == 128  # 53-bit uniforms collide with ~2^-46 probability


def test_streams_are_separate():
    assert xi_raw(KEY, [5], stream=0) != xi_raw(KEY, [5], stream=1)


def test_value_range():
    for i in range(200):
        v = xi(KEY, [i])
        assert 0.0 <= v < 1.0


def test_child_keys_diverge():
    assert KEY.child("a") != KEY.child("b")
    assert KEY.child("a", 0) != KEY.child("a", 1)
    assert KEY.child("trial", 7) == KEY.child("trial", 7)
    assert KEY.child("a") != KEY


def test_child_keys_of_plain_labels_are_frozen():
    assert KEY.child("trial", 3).hex == "4fbbae89467d532f4cd1c6d3c5de2d8d"
    assert KEY.child("c4k", 8).hex == "0af85427ff6085b171e2b28918c4dcf1"


def test_integer_like_labels_key_as_their_int():
    assert KEY.child("trial", np.int64(3)) == KEY.child("trial", 3)
    assert KEY.child(np.str_("trial"), np.uint8(3)) == KEY.child("trial", 3)
    assert KEY.child(("layout", np.int32(2)), 1) == KEY.child(("layout", 2), 1)


@pytest.mark.parametrize(
    "labels", [("a", True), ("a", np.True_), ("a", (0, False)), (1.5,), (None,)]
)
def test_bool_and_other_labels_are_refused(labels):
    with pytest.raises(TypeError):
        KEY.child(*labels)


def test_bits_match_mantissa():
    raw = xi_raw(KEY, [4, 9])
    mantissa = raw >> 11
    for idx in range(BITS_PER_STREAM):
        assert xi_bit(KEY, [4, 9], idx) == (mantissa >> (52 - idx)) & 1
    # index 53 rolls over to stream 1
    next_mantissa = xi_raw(KEY, [4, 9], stream=1) >> 11
    assert xi_bit(KEY, [4, 9], BITS_PER_STREAM) == (next_mantissa >> 52) & 1


def test_prefix_packs_leading_bits():
    want = 0
    for idx in range(10):
        want = (want << 1) | xi_bit(KEY, [2], idx)
    assert xi_prefix(KEY, [2], 10) == want


def test_mean_is_centered():
    n = 4000
    total = sum(xi(KEY.child("mean"), [i]) for i in range(n))
    sigma = 1.0 / math.sqrt(12 * n)
    assert abs(total / n - 0.5) < 4 * sigma


def test_family_matches_raw_functions():
    xs = XiFamily(KEY)
    assert xs.value([1, 2]) == xi(KEY, [1, 2])
    assert xs.bit([3], 5) == xi_bit(KEY, [3], 5)
    assert xs.prefix([3], 8) == xi_prefix(KEY, [3], 8)


def test_family_remap_presents_relabeled_randomness():
    plain = XiFamily(KEY)
    remapped = XiFamily(KEY, remap={0: 5, 1: 0, 5: 1})
    assert remapped.value([0]) == plain.value([5])
    assert remapped.value([0, 1]) == plain.value([0, 5])


def test_family_trace_records_resolved_subsets():
    trace = set()
    xs = XiFamily(KEY, trace=trace)
    xs.value([2, 1])
    xs.bit([0], 3)
    assert trace == {frozenset({1, 2}), frozenset({0})}
