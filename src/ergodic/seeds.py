"""Deterministic per-subset randomness.

Every random quantity in this package is a pure function of a 128-bit
master key. A single uniform value is addressed by a finite set of
naturals plus a stream index; the same (key, set, stream) always yields
the same number, and distinct addresses behave like independent
uniforms. The set encoding is canonical (sorted, length-prefixed), so
the order in which callers list the elements never matters.
"""

from __future__ import annotations

import hashlib
import operator
import secrets
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

_MASK128 = (1 << 128) - 1

# Domain-separation prefixes for the two derivation families.
_TAG_VALUE = b"\x00"
_TAG_CHILD = b"\x01"

# Number of expansion bits carried by one 64-bit PRF output.
BITS_PER_STREAM = 53


def _encode_set(elements: Iterable[int]) -> bytes:
    xs = sorted({int(x) for x in elements})
    if xs and xs[0] < 0:
        raise ValueError("subset elements must be nonnegative")
    parts = [len(xs).to_bytes(4, "big")]
    parts.extend(x.to_bytes(8, "big") for x in xs)
    return b"".join(parts)


@lru_cache(maxsize=1 << 16)
def _encode_frozenset(elements: frozenset) -> bytes:
    return _encode_set(elements)


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

    @classmethod
    def random(cls) -> "SeedKey":
        return cls(secrets.randbits(128))

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
        payload = _TAG_CHILD + repr(labels).encode()
        digest = hashlib.blake2b(payload, digest_size=16, key=self._key_bytes())
        return SeedKey(int.from_bytes(digest.digest(), "big"))


def _value_payload(subset: Iterable[int], stream: int) -> bytes:
    encoded = (
        _encode_frozenset(subset) if type(subset) is frozenset else _encode_set(subset)
    )
    return _TAG_VALUE + encoded + int(stream).to_bytes(8, "big")


def xi_raw(key: SeedKey, subset: Iterable[int], stream: int = 0) -> int:
    """64-bit PRF output addressed by (key, subset, stream)."""
    payload = _value_payload(subset, stream)
    digest = hashlib.blake2b(payload, digest_size=8, key=key._key_bytes())
    return int.from_bytes(digest.digest(), "big")


def xi(key: SeedKey, subset: Iterable[int], stream: int = 0) -> float:
    """Uniform dyadic rational in [0, 1) attached to a finite set.

    The value has exactly 53 bits, so it converts to Fraction without
    rounding and comparisons against dyadic thresholds are exact.
    """
    return (xi_raw(key, subset, stream) >> 11) * 2.0**-53


def xi_bit(key: SeedKey, subset: Iterable[int], index: int, base_stream: int = 0) -> int:
    """Bit `index` of the binary expansion of the uniform sequence at `subset`.

    Bits 0..52 agree with the literal binary expansion of
    xi(key, subset, base_stream); deeper indices chunk transparently into
    higher streams so callers may ask for arbitrarily many fair bits.
    """
    if index < 0:
        raise ValueError("bit index must be nonnegative")
    stream, offset = divmod(index, BITS_PER_STREAM)
    mantissa = xi_raw(key, subset, base_stream + stream) >> 11
    return (mantissa >> (52 - offset)) & 1


def xi_prefix(key: SeedKey, subset: Iterable[int], count: int, base_stream: int = 0) -> int:
    """First `count` expansion bits packed into an int, most significant first.

    Integer order on the result equals lexicographic order on the bit
    sequence, which is what prefix-comparison samplers need.
    """
    out = 0
    for i in range(count):
        out = (out << 1) | xi_bit(key, subset, i, base_stream)
    return out


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
        s = frozenset(positions)
        if self.remap is not None:
            s = frozenset(self.remap[p] for p in s)
        if self.trace is not None:
            self.trace.add(s)
        key = (s, stream)
        got = self._cache.get(key)
        if got is None:
            digest = self._hasher.copy()
            digest.update(_value_payload(s, stream))
            got = self._cache[key] = int.from_bytes(digest.digest(), "big")
        return got

    def value(self, positions: Iterable[int], stream: int = 0) -> float:
        return (self.raw(positions, stream) >> 11) * 2.0**-53

    def bit(self, positions: Iterable[int], index: int, base_stream: int = 0) -> int:
        stream, offset = divmod(index, BITS_PER_STREAM)
        mantissa = self.raw(positions, base_stream + stream) >> 11
        return (mantissa >> (52 - offset)) & 1

    def prefix(self, positions: Iterable[int], count: int, base_stream: int = 0) -> int:
        out = 0
        for i in range(count):
            out = (out << 1) | self.bit(positions, i, base_stream)
        return out
