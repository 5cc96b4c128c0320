"""Determinism and addressing properties of the keyed randomness layer."""

import hashlib
import math

import numpy as np
import pytest

from ergodic.seeds import (
    BITS_PER_STREAM,
    SeedKey,
    XiFamily,
    _encode_frozenset,
    _keyed_hasher,
    _row_words,
    xi_raw,
    xi_words,
)

KEY = SeedKey.from_hex("00112233445566778899aabbccddeeff")


# Oracles of XiFamily.value, bit and prefix, written straight from xi_raw.


def xi(key: SeedKey, subset, stream: int = 0) -> float:
    """Uniform dyadic rational in [0, 1): the top 53 bits of the raw word."""
    return (xi_raw(key, subset, stream) >> 11) * 2.0**-53


def xi_bit(key: SeedKey, subset, index: int, base_stream: int = 0) -> int:
    """Bit `index` of the expansion; every 53 bits move on to the next stream."""
    stream, offset = divmod(index, BITS_PER_STREAM)
    mantissa = xi_raw(key, subset, base_stream + stream) >> 11
    return (mantissa >> (52 - offset)) & 1


def xi_prefix(key: SeedKey, subset, count: int, base_stream: int = 0) -> int:
    """The first `count` expansion bits, most significant first, read bit by bit."""
    out = 0
    for i in range(count):
        out = (out << 1) | xi_bit(key, subset, i, base_stream)
    return out


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


def test_non_integer_addresses_are_refused_not_truncated():
    with pytest.raises(TypeError):
        xi_raw(KEY, [1.7])  # was xi_raw(KEY, [1])
    with pytest.raises(TypeError):
        XiFamily(KEY).raw([1.5, 2])  # was xi_raw(KEY, [1, 2])
    with pytest.raises(TypeError):
        xi_raw(KEY, [1, 1.5])  # was a two-element payload repeating 1
    with pytest.raises(TypeError):
        xi_raw(KEY, [1], stream=0.5)
    # integer-like elements still address the int they equal
    assert xi_raw(KEY, [np.int64(3), np.uint8(1)], np.int32(2)) == xi_raw(KEY, [1, 3], 2)


@pytest.mark.parametrize("float_first", [True, False])
def test_integral_floats_are_refused_whatever_was_drawn_before(float_first):
    # the payload cache is keyed by the positions as given, and (2.0,) == (2,):
    # a float must be refused from a cold cache and from one holding its int
    xs, mapped = XiFamily(KEY), XiFamily(KEY, remap={6: 1})
    floats = [lambda: xi_raw(KEY, [2.0]), lambda: xs.raw((3.0,)), lambda: xs.raw((3, 4.0)),
              lambda: xi_raw(KEY, [2], 2.0), lambda: xs.value(frozenset({5.0})),
              lambda: mapped.raw((6.0,))]
    ints = [lambda: xi_raw(KEY, [2]), lambda: xs.raw((3,)), lambda: xs.raw((3, 4)),
            lambda: xi_raw(KEY, [2], 2), lambda: xs.value(frozenset({5})),
            lambda: mapped.raw((6,))]
    _encode_frozenset.cache_clear()
    for refused, drawn in zip(floats, ints):
        if float_first:
            with pytest.raises(TypeError):
                refused()
            drawn()
        else:
            drawn()
        with pytest.raises(TypeError):
            refused()
    # numpy integers still address the int they equal, cached or not
    assert xs.raw((np.int64(3),)) == xs.raw((3,)) == xi_raw(KEY, [np.uint8(3)])
    _encode_frozenset.cache_clear()
    assert xs.raw((np.int64(3), 4), np.int32(0)) == xs.raw((4, 3))


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


@pytest.mark.parametrize("count", [0, 1, 52, 53, 54, 106, 107, 200])
@pytest.mark.parametrize("base_stream", [0, 3])
def test_family_prefix_spans_several_words(count, base_stream):
    # the family reads one word per stream; xi_prefix reads bit by bit
    got = XiFamily(KEY).prefix([4, 9], count, base_stream)
    assert got == xi_prefix(KEY, [4, 9], count, base_stream)


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


def _fresh_digest(key: SeedKey, elements, stream: int) -> int:
    """xi_raw recomputed from scratch: a new keyed blake2b over the payload."""
    xs = sorted(set(elements))
    payload = b"\x00" + len(xs).to_bytes(4, "big")
    payload += b"".join(x.to_bytes(8, "big") for x in xs) + stream.to_bytes(8, "big")
    digest = hashlib.blake2b(payload, digest_size=8, key=key.master.to_bytes(16, "big"))
    return int.from_bytes(digest.digest(), "big")


def test_raw_words_equal_a_fresh_keyed_digest():
    # two keys interleaved: a state cached for one key must never serve the other
    keys = (KEY, KEY.child("other"))
    subsets = [(0,), (7,), (1 << 40,), frozenset({3}), frozenset({2, 9, 4}), [5], [6, 1],
               (8, 3), set(), (2, 2, 5)]
    for stream in range(201):
        for subset in subsets:
            for key in keys:
                assert xi_raw(key, subset, stream) == _fresh_digest(key, subset, stream)


def test_singleton_tuples_reject_negative_elements():
    with pytest.raises(ValueError):
        xi_raw(KEY, (-3,))


def test_child_keys_equal_a_fresh_keyed_digest():
    # word draws and key derivations interleaved on the same masters: the
    # 8-byte and 16-byte keyed states they copy must never stand in for each other
    for key in (KEY, KEY.child("other"), SeedKey(0)):
        for t in range(50):
            xi_raw(key, (t,))
            payload = b"\x01" + repr(("trial", t)).encode()
            fresh = hashlib.blake2b(payload, digest_size=16, key=key.master.to_bytes(16, "big"))
            assert key.child("trial", t).master == int.from_bytes(fresh.digest(), "big")


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_words_equal_raw_singletons(dtype):
    small = [0, 1, 7, 1 << 20]
    large = [1 << 32, 1 << 62] if dtype is np.int64 else []
    elements = np.array(small + large + small[:2], dtype=dtype)  # repeats too
    for key in (KEY, KEY.child("other"), SeedKey(0)):
        for stream in (0, 1, 200):
            got = xi_words(key, elements, stream)
            assert got.dtype == np.uint64
            assert got.tolist() == [xi_raw(key, (int(u),), stream) for u in elements]
            empty = xi_words(key, np.array([], dtype=dtype), stream)
            assert empty.dtype == np.uint64 and len(empty) == 0


@pytest.mark.parametrize(
    "bad",
    [np.array([3, -1]), np.array([-3], dtype=np.int32), np.array([1.0, 2.0]),
     np.array([True]), np.array([1, 2], dtype=object)],
)
def test_words_refuse_negative_and_non_integer_elements(bad):
    with pytest.raises(ValueError):
        xi_words(KEY, bad)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("stream", [0, 1, 200])
def test_family_rows_equal_raw_row_by_row(k, stream):
    rng = np.random.default_rng(k)
    rows = np.array([rng.choice(40, k, replace=False) for _ in range(25)] + [list(range(k))])
    remap = dict(enumerate(rng.permutation(40).tolist()))
    for remapped in (None, remap):
        got_trace, want_trace = set(), set()
        got = XiFamily(KEY, remap=remapped, trace=got_trace).raw_rows(rows, stream)
        want = XiFamily(KEY, remap=remapped, trace=want_trace)
        assert got.dtype == np.uint64
        assert got.tolist() == [want.raw(row, stream) for row in rows.tolist()]
        assert got_trace == want_trace


def test_family_rows_of_singletons_are_words():
    elements = np.array([0, 5, 1 << 33, 7])
    for stream in (0, 1, 200):
        got = XiFamily(KEY).raw_rows(elements.reshape(-1, 1), stream)
        assert got.tolist() == xi_words(KEY, elements, stream).tolist()


@pytest.mark.parametrize("k", [1, 3])
def test_family_rows_of_no_rows_are_empty(k):
    trace = set()
    for remap in (None, {0: 1}):
        got = XiFamily(KEY, remap=remap, trace=trace).raw_rows(np.empty((0, k), dtype=np.int64))
        assert got.dtype == np.uint64 and len(got) == 0
    assert trace == set()


@pytest.mark.parametrize(
    "bad", [np.array([[1, 2], [3, 3]]), np.array([[1, -2]]), np.array([[1.0, 2.0]])],
    ids=["repeated", "negative", "float"],
)
def test_row_writer_refuses_repeats_negatives_and_floats(bad):
    with pytest.raises(ValueError):
        _row_words(_keyed_hasher(KEY.master), bad, 0)
    with pytest.raises(ValueError):
        XiFamily(KEY).raw_rows(bad)
