"""Deterministic per-subset randomness.

Every random quantity in this package is a pure function of a 128-bit
master key. A single uniform value is addressed by a finite set of
naturals plus a stream index; the same (key, set, stream) always yields
the same number, and distinct addresses behave like independent
uniforms. One encoder, `_encode_frozenset`, writes an address as the
keyed hash's payload; it is canonical (sorted, length-prefixed), so the
order in which callers list the elements never matters. One row writer,
`_row_words`, writes the same bytes for many same-size addresses at once
and hashes them: `xi_words` is its singleton case, and `XiFamily.raw_rows`
reads a family's words through it.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

_MASK128 = (1 << 128) - 1

# Domain-separation prefixes for the two derivation families.
_TAG_VALUE = b"\x00"
_TAG_CHILD = b"\x01"

# Number of expansion bits carried by one 64-bit PRF output.
BITS_PER_STREAM = 53


@lru_cache(maxsize=1 << 16)
def _encode_frozenset(subset: frozenset, stream: int) -> bytes:
    """The PRF payload of one (subset, stream) address; the same for every key.

    Tag, element count, the sorted elements as 8-byte big-endian ints,
    then the stream. Elements and stream are read with operator.index, so a
    non-integer address is a TypeError, never a truncated one.
    """
    xs = sorted(map(operator.index, subset))
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

    def _key_bytes(self) -> bytes:
        return self.master.to_bytes(16, "big")

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
        digest = _keyed_hasher(self.master, 16).copy()
        digest.update(_TAG_CHILD + repr(labels).encode())
        return SeedKey(int.from_bytes(digest.digest(), "big"))


@lru_cache(maxsize=1 << 10)
def _keyed_hasher(master: int, digest_size: int = 8):
    """Keyed blake2b state for one master key; callers copy it, never update it.

    Digest size 8 draws PRF words (xi_raw), 16 derives child keys.
    """
    return hashlib.blake2b(digest_size=digest_size, key=master.to_bytes(16, "big"))


def xi_raw(key: SeedKey, subset: Iterable[int], stream: int = 0) -> int:
    """64-bit PRF output addressed by (key, subset, stream)."""
    digest = _keyed_hasher(key.master).copy()
    digest.update(_encode_frozenset(frozenset(subset), stream))
    return int.from_bytes(digest.digest(), "big")


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
    """

    def __init__(self, key: SeedKey, remap=None, trace: set | None = None):
        self.key = key
        self.remap = remap
        self.trace = trace
        # keyed hash state copied per read: the same digests as xi_raw
        self._hasher = hashlib.blake2b(digest_size=8, key=key._key_bytes())
        self._cache: dict[tuple[frozenset, int], int] = {}

    def raw(self, positions: Iterable[int], stream: int = 0) -> int:
        s = positions if type(positions) is frozenset else frozenset(positions)
        if self.remap is not None:
            s = frozenset(self.remap[p] for p in s)
        if self.trace is not None:
            self.trace.add(s)
        key = (s, stream)
        got = self._cache.get(key)
        if got is None:
            digest = self._hasher.copy()
            digest.update(_encode_frozenset(s, stream))
            got = self._cache[key] = int.from_bytes(digest.digest(), "big")
        return got

    def raw_rows(self, rows: np.ndarray, stream: int = 0) -> np.ndarray:
        """raw(row, stream) for each row of an (N, k) int array, as uint64, in one call.

        Remaps and traces each row's set as raw does. The words are drawn
        under this family's own hash state and are not cached.
        """
        rows = np.asarray(rows)
        if self.remap is not None and rows.size:
            rows = np.array([[self.remap[p] for p in row] for row in rows.tolist()])
        words = _row_words(self._hasher, rows, stream)
        if self.trace is not None:
            self.trace.update(map(frozenset, rows.tolist()))
        return words

    def value(self, positions: Iterable[int], stream: int = 0) -> float:
        return (self.raw(positions, stream) >> 11) * 2.0**-53

    def bit(self, positions: Iterable[int], index: int, base_stream: int = 0) -> int:
        stream, offset = divmod(index, BITS_PER_STREAM)
        mantissa = self.raw(positions, base_stream + stream) >> 11
        return (mantissa >> (52 - offset)) & 1

    def prefix(self, positions: Iterable[int], count: int, base_stream: int = 0) -> int:
        """First `count` expansion bits as an int, most significant first; one read per word."""
        out = 0
        for stream, start in enumerate(range(0, count, BITS_PER_STREAM), base_stream):
            take = min(BITS_PER_STREAM, count - start)
            mantissa = self.raw(positions, stream) >> 11
            out = (out << take) | (mantissa >> (BITS_PER_STREAM - take))
        return out
