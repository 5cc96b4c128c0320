"""Gallery of exchangeable structure samplers.

Each sampler's type function reads randomness only through subsets of
tuple positions, so exchangeability holds by construction. The one
deliberate exception is MixtureControl, which reads the empty-set value
to pick a global coin and therefore fails the
independence-across-disjoint-tuples audit: it ships as the labeled
negative fixture for dissociation testing.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from operator import sub

import numpy as np

from .engine import AhkSampler
from .logic import CeilingError, Signature, TypeFingerprint, _layout, _set_bits
from .seeds import BITS_PER_STREAM, XiFamily


def truncated_geometric(u: float, num_classes: int) -> int:
    """Class c < num_classes with P(c) = 2^-(c+1); tail mass on the last class.

    u is a 53-bit dyadic rational, so the inverse-CDF arithmetic below
    is exact integer work: c is the unique class with
    1 - 2^-c <= u < 1 - 2^-(c+1), clipped to the last class.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    m = round(u * 2.0**53)
    v = (1 << 53) - m  # in [1, 2^53]
    c = 53 - (v - 1).bit_length()
    return min(c, num_classes - 1)


def _relation_block(prefix: str, count: int, arity: int) -> tuple[tuple[str, int], ...]:
    return tuple((f"{prefix}{m}", arity) for m in range(count))


# Bit positions of the k-set orderings come from logic's fingerprint layout.

# Most C(n, k) * n**k, the k-subsets times the span of one k-ary block.
# _ordering_offsets refuses past it before any work, so the one check
# stands in front of the pair samplers and both kaleidoscope paths. It
# bounds the big-int masks of _orderings, about 0.1 bytes per unit, which
# the pair samplers build at every n (n = 200, k = 2: 8.0e8 units, 78 MB
# kept, 82 MB peak, 0.25 s on a 2-vCPU machine) and a kaleidoscope builds
# up to _BULK_KSETS k-sets. Past that a kaleidoscope builds no masks, only
# 8 * k! bytes of offsets per subset (n = 40, k = 3: 6.3e8 units, 0.5 MB).
# The benchmark's widest, n = 30 and k = 3, is 1.1e8; n = 60 and k = 4
# would be 6.3e12.
MAX_ORDERING_BITS = 1 << 30


@lru_cache(maxsize=None)
def _ordering_offsets(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of [n] as an (S, k) array, and the bit of each ordering as (S, k!).

    Subsets come in itertools.combinations order; an ordering's bit is
    its tuple as a base-n numeral, its offset in one k-ary block, as in
    _atom_bit. CeilingError, before any work, past MAX_ORDERING_BITS.
    Both arrays are read-only.
    """
    if (units := comb(n, k) * n**k) > MAX_ORDERING_BITS:
        raise CeilingError(f"the {k}-subsets of {n} points make {units} ordering bits,"
                           f" past the ceiling of {MAX_ORDERING_BITS}")
    sets = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(-1, k)
    # no k! columns if n < k: there are no subsets to order
    orders = np.array(list(permutations(range(k))) if len(sets) else [], dtype=np.intp)
    offsets = sets[:, orders.reshape(-1, k)] @ n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    sets.flags.writeable = offsets.flags.writeable = False
    return sets, offsets


@lru_cache(maxsize=None)
def _orderings(n: int, k: int) -> tuple[tuple[tuple[frozenset, int], ...], int]:
    """Each k-subset of [n] with the mask of its orderings in one k-ary block.

    The masks set the bits of _ordering_offsets, subsets in the same
    order. Also returns the block stride n**k, the distance between the
    bits of one tuple under consecutive k-ary symbols.
    """
    sets, offsets = _ordering_offsets(n, k)
    subsets = tuple((frozenset(c), sum(1 << b for b in row))
                    for c, row in zip(sets.tolist(), offsets.tolist()))
    return subsets, _layout(n, (k,))[1]


def _symbol_bytes(d: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """Where d fair bits per subset sit in its PRF words, a byte at a time.

    Bit m is bit m % 53 of the mantissa (the top 53 bits of the word) at
    stream m // 53, most significant first, as in XiFamily.bit. Per
    stream: (right shift, byte mask, first bit index) for each byte.
    """
    out = []
    for first in range(0, d, BITS_PER_STREAM):
        count = min(d - first, BITS_PER_STREAM)
        chunks = tuple(
            (56 - offset, 0xFF << 8 - min(8, count - offset) & 0xFF, first + offset)
            for offset in range(0, count, 8)
        )
        out.append((first // BITS_PER_STREAM, chunks))
    return tuple(out)


# Most k-sets a kaleidoscope type_fn reads one at a time; past it, it
# draws and lays them out as arrays. Warm, per call on a 2-vCPU machine,
# one at a time against in bulk: kaleidoscope(2, 8) at 28 sets 35 against
# 35 us, at 45 sets 53 against 44; kaleidoscope(3, 8) at 20 sets 24
# against 30, at 35 sets 43 against 43, at 56 sets 67 against 58.
_BULK_KSETS = 32

# Entry b: the q < 8 where bit 7-q of the byte b is set, most significant first.
_SET_BITS = tuple(tuple(q for q in range(8) if b >> (7 - q) & 1) for b in range(256))


@lru_cache(maxsize=None)
def _spread_lsb(v: int, stride: int) -> int:
    """Bit j of v moved to bit j * stride (v is a small class label)."""
    return sum(1 << j * stride for j in range(v.bit_length()) if v >> j & 1)


class KaleidoscopeHypergraph(AhkSampler):
    """k-uniform hypergraph with an independent fair bit per relation per k-set.

    R_m holds on an injective k-tuple iff bit m of the uniform value
    attached to its underlying set is 1, so every relation is symmetric
    and irreflexive and all d bits are independent fair coins.
    """

    def __init__(self, k: int, d: int):
        if k < 1 or d < 1:
            raise ValueError("need k >= 1 and d >= 1")
        self.k = k
        self.d = d
        self.signature = Signature(_relation_block("R", d, k))
        self.name = f"kaleidoscope:k={k},d={d}"
        self._symbol_bytes = _symbol_bytes(d)

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        # Bit m of the value at a k-set is R_m on every ordering of the set.
        # Non-injective tuples stay false without being visited.
        if comb(n, self.k) > _BULK_KSETS:
            return self._bulk_type_fn(n, xs)
        # Few sets: per byte of symbol bits, OR each set's ordering mask
        # into one accumulator per bit set in its byte, then shift each
        # accumulator once to its symbol's block.
        subsets, stride = _orderings(n, self.k)
        bits = 0
        for stream, chunks in self._symbol_bytes:
            words = [(xs.raw(s, stream), mask) for s, mask in subsets]
            for shift, keep, sym in chunks:
                per_bit: dict[int, int] = {}
                for word, mask in words:
                    for q in _SET_BITS[word >> shift & keep]:
                        per_bit[q] = per_bit.get(q, 0) | mask
                for q, masks in per_bit.items():
                    bits |= masks << (sym + q) * stride
        return self._from_bits(n, bits)

    def _bulk_type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        # Many sets: draw each stream's words in one call, scatter the hits
        # into one bool row of atoms (symbol m's block starts at m * n**k),
        # and pack the row once.
        sets, offsets = _ordering_offsets(n, self.k)
        stride = n**self.k
        atoms = np.zeros(self.d * stride, dtype=bool)
        for first in range(0, self.d, BITS_PER_STREAM):
            words = xs.raw_rows(sets, first // BITS_PER_STREAM)
            # bit m is bit m % 53 of the mantissa, most significant first, as in XiFamily.bit
            shifts = np.arange(63, 63 - min(BITS_PER_STREAM, self.d - first), -1, dtype=np.uint64)
            hit_set, hit_sym = np.nonzero(words[:, None] >> shifts & np.uint64(1))
            atoms[((first + hit_sym) * stride)[:, None] + offsets[hit_set]] = True
        bits = int.from_bytes(np.packbits(atoms, bitorder="little").tobytes(), "little")
        return self._from_bits(n, bits)


class MaxGraph(AhkSampler):
    """Edge pattern of a pair is the lexicographic max of the endpoint prefixes.

    Every vertex carries a d-bit prefix; R_m(i, j) holds iff bit m of
    max(prefix_i, prefix_j) is set. Realized repeated 2-types are rooted
    at the vertex holding the max.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("need d >= 1")
        self.d = d
        self.signature = Signature(_relation_block("R", d, 2))
        self.name = f"maxgraph:d={d}"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        d = self.d
        # prefixes are read only for vertices in some pair: none at n = 1
        prefix = [xs.prefix((i,), d) for i in range(n)] if n > 1 else []
        # R_sym is bit d-1-sym of the max prefix. Each pair's mask is ORed
        # into the vertex holding that max (ties to i); then each winner's
        # masks, which all lie in one block, times its prefix spread to one
        # block stride per symbol: one product per vertex, not one per pair
        pairs, stride = _orderings(n, 2)
        won = [0] * n
        for (i, j), (_, mask) in zip(combinations(range(n), 2), pairs):
            won[i if prefix[i] >= prefix[j] else j] |= mask
        bits = 0
        for masks, p in zip(won, prefix):
            if masks:
                bits |= masks * sum(1 << sym * stride for sym in range(d) if p >> (d - 1 - sym) & 1)
        return self._from_bits(n, bits)


class GeometricGraph(AhkSampler):
    """Random geometric graph on the box [0, 2]^dim with a bonus coin.

    Vertices get uniform points; an edge appears iff the chosen norm
    distance is below 1 and an independent pair coin of weight p lands.
    `point_override` pins chosen positions to fixed points; it exists
    for calibration tests and deliberately breaks exchangeability, so
    leave it empty for any audited use.
    """

    NORMS = ("euclidean", "sup")

    def __init__(self, dim: int, norm: str = "euclidean", p: float = 0.5,
                 point_override: dict[int, tuple[float, ...]] | None = None):
        if dim < 1:
            raise ValueError("need dim >= 1")
        if norm not in self.NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.dim = dim
        self.norm = norm
        self.p = p
        self.point_override = dict(point_override or {})
        self.signature = Signature((("R0", 2),))
        self.name = f"geometric:dim={dim},norm={norm},p={p}"

    def _close(self, a: Sequence[float], b: Sequence[float]) -> bool:
        if self.norm == "euclidean":
            return sum((x - y) ** 2 for x, y in zip(a, b)) < 1.0
        return max(map(abs, map(sub, a, b))) < 1.0

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        # points are read only for vertices in some pair: none at n = 1
        points = [
            self.point_override[i] if i in self.point_override
            else [2.0 * xs.value((i,), c) for c in range(self.dim)]
            for i in range(n)
        ] if n > 1 else []
        bits = 0
        for (i, j), (pair, mask) in zip(combinations(range(n), 2), _orderings(n, 2)[0]):
            # the pair coin is read only when the points are close
            if self._close(points[i], points[j]) and xs.value(pair) < self.p:
                bits |= mask
        return self._from_bits(n, bits)


class BlowupControl(AhkSampler):
    """Equivalence classes of geometric sizes, exposed through unary bits.

    Each vertex picks class c with probability 2^-(c+1) (tail on the
    last of 2^d - 1 classes); E relates same-class vertices and P_m
    reads bit m of c+1, so distinct classes get distinct unary types.
    Every realized 1-type here has positive measure: this is the
    ergodic-but-not-properly-so control.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("need d >= 1")
        self.d = d
        self.num_classes = 2**d - 1
        self.signature = Signature((("E", 2),) + _relation_block("P", d, 1))
        self.name = f"blowup:d={d}"

    def class_probability(self, c: int) -> Fraction:
        if not 0 <= c < self.num_classes:
            raise ValueError("class out of range")
        if c < self.num_classes - 1:
            return Fraction(1, 2 ** (c + 1))
        return Fraction(1, 2 ** (self.num_classes - 1))

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        # E(i, j) is bit e + i*n + j; P_m(i) is bit p + m*n + i, one unary
        # block of n bits per symbol
        (e, p, *_), _ = _layout(n, self._language[1])
        classes = [truncated_geometric(xs.value((i,)), self.num_classes) for i in range(n)]
        members: dict[int, int] = {}
        for i, c in enumerate(classes):
            members[c] = members.get(c, 0) | 1 << i
        bits = 0
        for i, c in enumerate(classes):
            # E is the literal equivalence "same class"; P_m reads bit m of c+1
            bits |= members[c] << e + i * n | _spread_lsb(c + 1, n) << p + i
        return self._from_bits(n, bits)


class KaleidoscopeDigraph(AhkSampler):
    """Single binary relation encoding a two-sided vertex population.

    A fair coin splits vertices into loops (O) and non-loops (P). O
    carries a ladder class from a truncated geometric; R preorders O by
    class. Each P vertex holds a random class set A and relates to
    exactly the O vertices whose class lies in A. No fact ever points
    from O into P or between P vertices.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("need d >= 1")
        self.d = d
        self.signature = Signature((("R", 2),))
        self.name = f"digraph:d={d}"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        is_o = [xs.value((i,), 0) < 0.5 for i in range(n)]  # True = loop side (O)
        # an O vertex's class is read only when some other vertex exists
        cls = {
            i: truncated_geometric(xs.value((i,), 1), self.d) for i in range(n) if is_o[i]
        } if n > 1 else {}
        # R(i, j) is bit i * n + j
        ks = [i * n + i for i in range(n) if is_o[i]]
        for i, j in permutations(range(n), 2):
            if not is_o[j]:
                continue  # nothing points into P
            if is_o[i]:
                if cls[i] <= cls[j]:
                    ks.append(i * n + j)
            elif xs.bit((i,), cls[j], base_stream=2):
                ks.append(i * n + j)
        return self._from_bits(n, _set_bits(ks, n * n))


class BipartiteLabels(AhkSampler):
    """Labeled downward-closed columns between a marked and unmarked side.

    P splits vertices by a fair coin. A pair (x, y) with P(x) and not
    P(y) draws one label i (geometric, truncated to i_depth) and a
    column height k: if i lies in x's random label set the column is
    infinite with probability 1/2 and of height n with probability
    2^-(n+1); otherwise height n with probability 2^-n. R^i_j(x, y)
    holds for exactly the j < k (materialized to j_depth).
    """

    def __init__(self, i_depth: int, j_depth: int):
        if i_depth < 1 or j_depth < 1:
            raise ValueError("need i_depth >= 1 and j_depth >= 1")
        self.i_depth = i_depth
        self.j_depth = j_depth
        symbols = [("P", 1)]
        for i in range(i_depth):
            for j in range(j_depth):
                symbols.append((f"R{i}_{j}", 2))
        self.signature = Signature(tuple(symbols))
        self.name = f"bipartite:i={i_depth},j={j_depth}"

    def column_height(self, in_label_set: bool, u: float) -> int:
        """Materialized column height in [0, j_depth]; j_depth means full."""
        if in_label_set:
            if u < 0.5:
                return self.j_depth  # the k = infinity branch
            k = 1 + truncated_geometric(2.0 * u - 1.0, self.j_depth)
        else:
            k = 1 + truncated_geometric(u, self.j_depth)
        return min(k, self.j_depth)

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        # P(x) is bit offsets[0] + x; R_s(x, y) is bit offsets[s] + x * n + y
        offsets, width = _layout(n, self._language[1])
        marked = [xs.value((x,), 0) < 0.5 for x in range(n)]
        ks = [offsets[0] + x for x in range(n) if marked[x]]
        # only a marked -> unmarked pair reads its label, column and x's label set
        for x, y in permutations(range(n), 2):
            if not marked[x] or marked[y]:
                continue
            label = truncated_geometric(xs.value((x, y), 0), self.i_depth)
            in_set = xs.bit((x,), label, base_stream=1) == 1
            height = self.column_height(in_set, xs.value((x, y), 1))
            # R^label_j for j < height: symbol 1 + label * j_depth + j
            first = 1 + label * self.j_depth
            ks += (offsets[sym] + x * n + y for sym in range(first, first + height))
        return self._from_bits(n, _set_bits(ks, width))


class MixtureControl(AhkSampler):
    """Two-density random graph mixture: the labeled negative fixture.

    One global coin (read from the empty-set value) picks the edge
    density p1 or p2 for the entire structure; pairs then flip
    independent p-coins. The resulting measure is exchangeable but not
    dissociated unless p1 = p2, so dissociation_test flags it. The
    degenerate p1 = p2 variant is allowed for calibration.
    """

    def __init__(self, p1: float, p2: float):
        for p in (p1, p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("densities must lie in [0, 1]")
        self.p1 = p1
        self.p2 = p2
        self.signature = Signature((("R0", 2),))
        self.name = f"mixture:p1={p1},p2={p2}"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        p = self.p1 if xs.value(()) < 0.5 else self.p2
        bits = 0
        for pair, mask in _orderings(n, 2)[0]:
            if xs.value(pair) < p:
                bits |= mask
        return self._from_bits(n, bits)


# ---------------------------------------------------------------------------
# CLI spec strings
# ---------------------------------------------------------------------------


GALLERY = (
    "kaleidoscope",
    "maxgraph",
    "geometric",
    "blowup",
    "digraph",
    "bipartite",
    "mixture",
)


def _parse_params(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"malformed parameter {piece!r}")
        key, value = (part.strip() for part in piece.split("=", 1))
        if key in out:
            raise ValueError(f"repeated parameter {key!r}")
        out[key] = value
    return out


def parse_sampler_spec(spec: str) -> AhkSampler:
    """Build a sampler from a CLI spec string like 'kaleidoscope:k=2,d=8'."""
    head, _, rest = spec.partition(":")
    params = _parse_params(rest)
    try:
        if head == "kaleidoscope":
            built = KaleidoscopeHypergraph(int(params.pop("k")), int(params.pop("d")))
        elif head == "maxgraph":
            built = MaxGraph(int(params.pop("d")))
        elif head == "geometric":
            built = GeometricGraph(
                int(params.pop("dim")),
                params.pop("norm", "euclidean"),
                float(params.pop("p", "0.5")),
            )
        elif head == "blowup":
            built = BlowupControl(int(params.pop("d")))
        elif head == "digraph":
            built = KaleidoscopeDigraph(int(params.pop("d")))
        elif head == "bipartite":
            built = BipartiteLabels(int(params.pop("i")), int(params.pop("j")))
        elif head == "mixture":
            built = MixtureControl(float(params.pop("p1")), float(params.pop("p2")))
        else:
            raise ValueError(
                f"unknown sampler {head!r} (expected one of {', '.join(GALLERY)})"
            )
    except KeyError as missing:
        raise ValueError(f"sampler {head!r} is missing parameter {missing}") from None
    if params:
        raise ValueError(f"unknown parameters for {head!r}: {sorted(params)}")
    return built
