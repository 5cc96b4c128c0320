"""Deterministic per-subset randomness.

Every random quantity in this package is a pure function of a 128-bit
master key. A single uniform value is addressed by a finite set of
naturals plus a stream index; the same (key, set, stream) always yields
the same number, and distinct addresses behave like independent
uniforms.

Words drawn one at a time take one path, `XiFamily.raw`: `value`, `bit`
and `prefix` read through it, and `xi_raw` is the raw of a plain family.
It remaps the positions, maps (positions, stream) to the keyed hash's
payload through `_encode_frozenset`, hashes that payload under a copy of
the family's keyed state, and traces. The payload is canonical (sorted,
distinct, length-prefixed), so the order in which callers list the
elements never matters. Nothing keeps a word: a re-read hashes again and
gets the same word. The caches that remain are `functools` caches:
`_encode_frozenset` of payloads, typed so that 2.0 is refused even after
2, and `_keyed_hasher` and `_child_hasher` of a master key's keyed states.

Words drawn many at once take one row writer, `_row_words`, which writes
the same payloads for many same-size addresses and hashes them:
`xi_words` is its singleton case, and `XiFamily.raw_rows` reads a
family's words through it.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable

import numpy as np

_MASK128 = (1 << 128) - 1

# Domain-separation prefixes for the two derivation families.
_TAG_VALUE = b"\x00"
_TAG_CHILD = b"\x01"

# Number of expansion bits carried by one 64-bit PRF output.
BITS_PER_STREAM = 53


@lru_cache(maxsize=1 << 16, typed=True)
def _encode_frozenset(stream: int, *elements) -> bytes:
    """The PRF payload of the set of `elements` at `stream`; the same for every key.

    Tag, element count, the sorted distinct elements as 8-byte big-endian
    ints, then the stream. Elements and stream are read with
    operator.index, so a non-integer address is a TypeError, never a
    truncated one. The cache is typed: 2.0 never finds the entry 2 made,
    so it is refused whatever was drawn before.
    """
    xs = sorted(set(map(operator.index, elements)))
    if xs and xs[0] < 0:
        raise ValueError("subset elements must be nonnegative")
    parts = [_TAG_VALUE, len(xs).to_bytes(4, "big")]
    parts.extend(x.to_bytes(8, "big") for x in xs)
    parts.append(operator.index(stream).to_bytes(8, "big"))
    return b"".join(parts)


def _canonical_label(label):
    """The plain int, str or tuple a child-key label stands for."""
    if isinstance(label, tuple):
        return tuple(_canonical_label(x) for x in label)
    if isinstance(label, str):
        return str(label)
    if isinstance(label, bool) or type(label).__name__ in ("bool", "bool_"):  # numpy bools too
        raise TypeError(f"bool label {label!r} is ambiguous with an int")
    return operator.index(label)  # TypeError for anything else


@dataclass(frozen=True)
class SeedKey:
    """128-bit master key for a deterministic tree of uniform values."""

    master: int

    def __post_init__(self) -> None:
        if not 0 <= self.master <= _MASK128:
            raise ValueError("master must fit in 128 bits")

    @classmethod
    def from_hex(cls, text: str) -> "SeedKey":
        text = text.strip()
        if len(text) != 32:
            raise ValueError("seed must be exactly 32 hex digits")
        return cls(int(text, 16))

    @property
    def hex(self) -> str:
        return f"{self.master:032x}"

    def child(self, *labels) -> "SeedKey":
        """Derive an independent subkey from a label path.

        Labels may be ints, strings, or nested tuples of those; the key
        hashes the repr of the path, which is stable across runs for
        these types. Integer-like labels (numpy integers, say) count as
        the int they equal; bools are refused, since True would pass for 1.
        """
        for label in labels:
            if type(label) is not int and type(label) is not str:
                labels = _canonical_label(labels)
                break
        digest = _child_hasher(self.master).copy()
        digest.update(repr(labels).encode())
        # a 16-byte digest is in range: set the field without __init__'s check
        key = object.__new__(SeedKey)
        key.__dict__["master"] = int.from_bytes(digest.digest(), "big")
        return key


@lru_cache(maxsize=1 << 10)
def _keyed_hasher(master: int):
    """Keyed blake2b state drawing one master key's PRF words; callers copy it, never update it."""
    return hashlib.blake2b(digest_size=8, key=master.to_bytes(16, "big"))


@lru_cache(maxsize=1 << 10)
def _child_hasher(master: int):
    """Keyed blake2b state deriving one master key's child keys, the child tag absorbed.

    Callers copy it, never update it.
    """
    return hashlib.blake2b(_TAG_CHILD, digest_size=16, key=master.to_bytes(16, "big"))


def xi_raw(key: SeedKey, subset: Iterable[int], stream: int = 0) -> int:
    """64-bit PRF output addressed by (key, subset, stream): XiFamily(key).raw(subset, stream)."""
    return XiFamily(key).raw(subset, stream)


def _row_words(hasher, rows: np.ndarray, stream: int) -> np.ndarray:
    """The word `hasher` gives each row's address, for an (N, k) int array, as uint64.

    Row i's payload is the one _encode_frozenset writes for the set of
    row i at `stream`: the row is sorted first, so its order never
    matters. ValueError for a non-integer dtype, a negative element or a
    row that repeats an element (no set's payload repeats one).
    """
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise ValueError("subset elements must be nonnegative integers")
    xs = np.sort(rows, axis=1)
    if xs.size and xs[:, 0].min() < 0:
        raise ValueError("subset elements must be nonnegative")
    if (xs[:, 1:] == xs[:, :-1]).any():
        raise ValueError("a row repeats an element")
    count, k = xs.shape
    head = _TAG_VALUE + k.to_bytes(4, "big")
    payloads = np.empty((count, len(head) + 8 * k + 8), dtype=np.uint8)
    payloads[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
    payloads[:, len(head) : -8] = xs.astype(">u8").view(np.uint8)
    payloads[:, -8:] = np.frombuffer(operator.index(stream).to_bytes(8, "big"), dtype=np.uint8)
    digests = bytearray()
    for payload in payloads.view(f"V{payloads.shape[1]}").ravel().tolist():  # each row as bytes
        digest = hasher.copy()
        digest.update(payload)
        digests += digest.digest()
    return np.frombuffer(bytes(digests), dtype=">u8").astype(np.uint64)


def xi_words(key: SeedKey, elements: np.ndarray, stream: int = 0) -> np.ndarray:
    """xi_raw(key, (u,), stream) for every u of a nonnegative int array, as uint64."""
    return _row_words(_keyed_hasher(key.master), np.asarray(elements).reshape(-1, 1), stream)


class XiFamily:
    """View of the uniform values indexed by subsets of tuple positions.

    Type functions consume randomness addressed by subsets of [n]. The
    view can remap positions (to present a permuted family without
    touching the underlying key) and can record which subsets were
    resolved, which makes "reads only these subsets" audits structural
    rather than statistical.

    Every read (`raw`, and `value`, `bit` and `prefix` through it) takes
    one path: remap, the payload from _encode_frozenset, a copy of the
    family's keyed state to hash it, trace. The family keeps no words: a
    re-read hashes again and gets the same word.
    """

    __slots__ = ("remap", "trace", "_hasher")

    def __init__(self, key: SeedKey, remap=None, trace: set | None = None):
        self.remap = remap
        self.trace = trace
        # the keyed hash state, copied per read
        self._hasher = hashlib.blake2b(digest_size=8, key=key.master.to_bytes(16, "big"))

    def raw(self, positions: Collection[int], stream: int = 0) -> int:
        if self.remap is not None:
            positions = [self.remap[operator.index(p)] for p in positions]
        digest = self._hasher.copy()
        digest.update(_encode_frozenset(stream, *positions))
        if self.trace is not None:
            self.trace.add(frozenset(positions))
        return int.from_bytes(digest.digest(), "big")

    def raw_rows(self, rows: np.ndarray, stream: int = 0) -> np.ndarray:
        """raw(row, stream) for each row of an (N, k) int array, as uint64, in one call.

        Remaps and traces each row's set as raw does, and draws under the
        same keyed state.
        """
        rows = np.asarray(rows)
        if self.remap is not None and rows.size:
            rows = np.array([[self.remap[p] for p in row] for row in rows.tolist()])
        words = _row_words(self._hasher, rows, stream)
        if self.trace is not None:
            self.trace.update(map(frozenset, rows.tolist()))
        return words

    def value(self, positions: Collection[int], stream: int = 0) -> float:
        return (self.raw(positions, stream) >> 11) * 2.0**-53

    def bit(self, positions: Collection[int], index: int, base_stream: int = 0) -> int:
        stream, offset = divmod(index, BITS_PER_STREAM)
        mantissa = self.raw(positions, base_stream + stream) >> 11
        return (mantissa >> (52 - offset)) & 1

    def prefix(self, positions: Collection[int], count: int, base_stream: int = 0) -> int:
        """First `count` expansion bits as an int, most significant first; one read per word."""
        out = 0
        for stream, start in enumerate(range(0, count, BITS_PER_STREAM), base_stream):
            take = min(BITS_PER_STREAM, count - start)
            mantissa = self.raw(positions, stream) >> 11
            out = (out << take) | (mantissa >> (BITS_PER_STREAM - take))
        return out
