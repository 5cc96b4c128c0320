"""Finite relational structures, quantifier-free formulas, and type fingerprints.

A structure is its bool tables, one per symbol: an atomic sentence is
true exactly where its table entry is (closed world), and its fact set
is read off the tables on demand. Fingerprints encode the full
quantifier-free type of a tuple as a bit vector in a documented
canonical order, so equality of fingerprints is equality of types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np


class LogicError(ValueError):
    pass


class CeilingError(ValueError):
    """Work past a stated size ceiling, refused before any of it is done."""


# ---------------------------------------------------------------------------
# signatures and structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Ordered relational vocabulary of (name, arity) pairs.

    Arity 0 is allowed (a 0-ary relation is a single stored boolean).
    """

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise LogicError("duplicate symbol names in signature")
        for name, arity in self.symbols:
            if arity < 0:
                raise LogicError(f"negative arity for {name!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def name(self, index: int) -> str:
        return self.symbols[index][0]

    def arity(self, index: int) -> int:
        return self.symbols[index][1]

    def arities(self) -> tuple[int, ...]:
        return tuple(arity for _, arity in self.symbols)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise LogicError(f"unknown symbol {name!r}")


Fact = tuple[int, tuple[int, ...]]


def _read_only(tables: dict[int, np.ndarray]) -> Mapping[int, np.ndarray]:
    """Read-only views of the tables (as broadcast_to makes them), in a read-only mapping."""
    return MappingProxyType({sym: np.broadcast_to(t, t.shape) for sym, t in tables.items()})


class FiniteStructure:
    """Finite structure on {0, .., domain_size-1}: one bool table per symbol.

    `tables` maps every symbol index, in signature order, to its relation
    as a read-only bool array of shape (domain_size,) * arity in C order.
    An atom is true exactly where its entry is (closed world). Structures
    are immutable, and equal when their signatures, sizes and tables are.
    """

    def __init__(self, signature: Signature, domain_size: int, facts: Iterable[Fact]) -> None:
        """The structure whose true atoms are `facts`, (symbol index, argument tuple) pairs.

        CeilingError past MAX_FINGERPRINT_BITS cells, before any table is allocated.
        """
        tables = self._tables(signature, domain_size, {})
        for sym, args in facts:
            args = self._atom(sym, args)
            tables[sym][args] = True
        vars(self)["tables"] = _read_only(tables)

    def _tables(self, signature: Signature, domain_size: int, given: dict[int, np.ndarray]):
        """Check the size, then the `given` tables, before allocating anything.

        Sets the signature and size; returns every table in signature order,
        zeros for the symbols `given` lacks.
        """
        if domain_size < 0:
            raise LogicError("domain_size must be nonnegative")
        n, arities = domain_size, signature.arities()
        _check_cells(sum(n**ar for ar in arities), f"the tables of {n} points")
        for sym, table in given.items():
            if not 0 <= sym < len(signature):
                raise LogicError(f"table for unknown symbol index {sym}")
            shape = (n,) * arities[sym]
            if not isinstance(table, np.ndarray) or table.dtype != bool or table.shape != shape:
                raise LogicError(
                    f"table for {signature.name(sym)} must be a bool array of shape {shape}"
                )
        vars(self).update(signature=signature, domain_size=n)
        return {sym: given[sym] if sym in given else np.zeros((n,) * ar, dtype=bool)
                for sym, ar in enumerate(arities)}

    @classmethod
    def from_tables(
        cls, signature: Signature, domain_size: int, tables: dict[int, np.ndarray]
    ) -> "FiniteStructure":
        """Structure whose facts are the true entries of boolean tables.

        `tables` maps a symbol index to its relation as a bool array of
        shape (domain_size,) * arity, in C order; a symbol without a table
        holds nowhere. The structure keeps read-only views of the arrays
        given, so they must not change afterwards.
        """
        structure = cls.__new__(cls)
        vars(structure)["tables"] = _read_only(structure._tables(signature, domain_size, tables))
        return structure

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a FiniteStructure is read-only: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return (self.signature == other.signature and self.domain_size == other.domain_size
                and all(map(np.array_equal, self.tables.values(), other.tables.values())))

    def __hash__(self) -> int:
        return hash((self.signature, self.domain_size,
                     *(t.tobytes() for t in self.tables.values())))

    def __repr__(self) -> str:
        return f"FiniteStructure({self.signature!r}, {self.domain_size}, {sorted(self.facts)!r})"

    @cached_property
    def facts(self) -> frozenset[Fact]:
        """Every true atom as a (symbol index, argument tuple) pair, read off the tables."""
        return frozenset((sym, tuple(args)) for sym, t in self.tables.items()
                         for args in np.argwhere(t).tolist())

    def _atom(self, sym: int, args) -> tuple[int, ...]:
        """args as a tuple; LogicError unless sym(args) is an atom of this structure."""
        if not 0 <= sym < len(self.signature):
            raise LogicError(f"fact references unknown symbol index {sym}")
        args = tuple(args)
        if len(args) != self.signature.arity(sym):
            raise LogicError(f"arity mismatch for {self.signature.name(sym)}: {args}")
        if any(not 0 <= a < self.domain_size for a in args):
            raise LogicError(f"fact argument out of domain: {args}")
        return args

    def holds(self, sym: int, args: tuple[int, ...]) -> bool:
        """The atom sym(args); LogicError when the structure has no such atom."""
        args = self._atom(sym, args)
        return bool(self.tables[sym][args])


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0, .., n-1}, stored as the image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise LogicError("mapping is not a bijection on 0..n-1")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __len__(self) -> int:
        return len(self.mapping)

# ---------------------------------------------------------------------------
# quantifier-free formulas
# ---------------------------------------------------------------------------


class QfFormula:
    """Base class for quantifier-free formulas over integer variables."""

    __slots__ = ()


def _hash_kept(cls):
    """A frozen formula class whose field hash each node computes once and keeps.

    The dataclass hash walks the whole formula on every call; caches keyed
    by a formula (TypeFingerprint.models looks one up per call) hash it
    far more often than they build it.
    """
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self.__dict__["_hash"] = field_hash(self)
            return self._hash

    cls.__hash__ = __hash__
    return cls


@_hash_kept
@dataclass(frozen=True)
class Rel(QfFormula):
    sym: int
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if any(v < 0 for v in self.args):
            raise LogicError("variable indices must be nonnegative")


@_hash_kept
@dataclass(frozen=True)
class Eq(QfFormula):
    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 0 or self.right < 0:
            raise LogicError("variable indices must be nonnegative")


@_hash_kept
@dataclass(frozen=True)
class Not(QfFormula):
    sub: QfFormula


@_hash_kept
@dataclass(frozen=True)
class And(QfFormula):
    subs: tuple[QfFormula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subs", tuple(self.subs))
        if not self.subs:
            raise LogicError("And needs at least one conjunct")


@_hash_kept
@dataclass(frozen=True)
class Or(QfFormula):
    subs: tuple[QfFormula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subs", tuple(self.subs))
        if not self.subs:
            raise LogicError("Or needs at least one disjunct")


def conj(*subs: QfFormula) -> QfFormula:
    return subs[0] if len(subs) == 1 else And(tuple(subs))


def implies(a: QfFormula, b: QfFormula) -> QfFormula:
    return Or((Not(a), b))


def iff(a: QfFormula, b: QfFormula) -> QfFormula:
    return Or((And((a, b)), And((Not(a), Not(b)))))


def qf_leaves(phi: QfFormula) -> Iterator[Rel | Eq]:
    """The atomic subformulas of phi, left to right."""
    if isinstance(phi, (Rel, Eq)):
        yield phi
    elif isinstance(phi, Not):
        yield from qf_leaves(phi.sub)
    elif isinstance(phi, (And, Or)):
        for s in phi.subs:
            yield from qf_leaves(s)
    else:
        raise LogicError(f"not a quantifier-free formula: {phi!r}")


def num_vars(phi: QfFormula) -> int:
    """One more than the largest variable index in phi; 0 when it has none."""
    indices = (
        v for f in qf_leaves(phi) for v in (f.args if isinstance(f, Rel) else (f.left, f.right))
    )
    return 1 + max(indices, default=-1)


def eval_qf(structure: FiniteStructure, phi: QfFormula, assignment: tuple[int, ...]) -> bool:
    """Tarskian evaluation; assignment maps variable i to assignment[i]."""
    def var(v: int) -> np.intp:
        if v >= len(assignment):
            raise LogicError("free variable unbound by assignment")
        if not 0 <= assignment[v] < structure.domain_size:
            raise LogicError(f"assignment element {assignment[v]} out of domain")
        return np.intp(assignment[v])

    return bool(qf_array(phi, structure.tables, var))


def qf_array(phi: QfFormula, tables: Mapping[int, np.ndarray],
             var: Callable[[int], np.ndarray]) -> np.ndarray:
    """phi at many assignments at once: the one evaluator of QF formulas.

    Variable v is the index array var(v): an axis of a grid (qf_grid), a
    column of a tuple array, or one element; the atom s(v1, .., vk) is
    tables[s] at (var(v1), .., var(vk)). Every leaf is read, so a bad
    symbol or arity raises LogicError whatever the tables hold.
    """
    def rec(f: QfFormula):
        if isinstance(f, Rel):
            table = tables.get(f.sym)
            if table is None:
                raise LogicError(f"unknown symbol index {f.sym}")
            if len(f.args) != table.ndim:
                raise LogicError(f"arity mismatch for symbol {f.sym}")
            return table[tuple(map(var, f.args))]
        if isinstance(f, Eq):
            return var(f.left) == var(f.right)
        if isinstance(f, Not):
            return np.logical_not(rec(f.sub))
        if isinstance(f, And):
            return reduce(np.logical_and, map(rec, f.subs), np.True_)
        if isinstance(f, Or):
            return reduce(np.logical_or, map(rec, f.subs), np.False_)
        raise LogicError(f"not a quantifier-free formula: {f!r}")

    return np.asarray(rec(phi))


def qf_grid(phi: QfFormula, tables: Mapping[int, np.ndarray], n: int, width: int) -> np.ndarray:
    """phi at all n**width assignments: shape (n,) * width, variable v along axis v."""
    _check_cells(n**width, f"a grid of {width} variables over {n} points")

    def axis(v: int) -> np.ndarray:
        if v >= width:
            raise LogicError("free variable unbound by assignment")
        return np.arange(n).reshape([n if a == v else 1 for a in range(width)])

    return np.broadcast_to(qf_array(phi, tables, axis), (n,) * width)


def prenex_holds(prefix: str, matrix: QfFormula, tables: Mapping[int, np.ndarray], n: int) -> bool:
    """prefix.matrix on {0, .., n-1}: its grid folded by all/any per A/E, innermost first."""
    truth = qf_grid(matrix, tables, n, len(prefix))
    for q in reversed(prefix):
        truth = truth.all(axis=-1) if q == "A" else truth.any(axis=-1)
    return bool(truth)


# ---------------------------------------------------------------------------
# type fingerprints
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(arity: int, sub_arities: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Where each block of a fingerprint's bits starts.

    Bit order: symbols in sublanguage order, then argument tuples in
    lexicographic order over variable indices (the order of
    itertools.product), then equality bits for i < j in lexicographic
    order. Symbol si's atom on t is bit offsets[si] + t read as a
    base-`arity` numeral; returns (offsets, first equality bit).
    """
    offsets = []
    base = 0
    for ar in sub_arities:
        offsets.append(base)
        base += arity**ar
    return tuple(offsets), base


def _atom_bit(arity: int, arities: tuple[int, ...], si: int, args: tuple[int, ...]) -> int:
    """Bit index of the atom si(args); LogicError when the layout has no such atom."""
    if not 0 <= si < len(arities) or len(args) != arities[si]:
        raise LogicError(f"no atom {si}{tuple(args)} in a fingerprint of arities {arities}")
    k = 0
    for a in args:
        if not 0 <= a < arity:
            raise LogicError(f"argument {a} out of range for fingerprint arity {arity}")
        k = k * arity + a
    return _layout(arity, arities)[0][si] + k


def _eq_bit(arity: int, arities: tuple[int, ...], i: int, j: int) -> int:
    """Bit index of the equality x_i = x_j, for 0 <= i < j < arity."""
    if not 0 <= i < j < arity:
        raise LogicError(f"no equality bit ({i}, {j}) at fingerprint arity {arity}")
    return _layout(arity, arities)[1] + i * (2 * arity - i - 1) // 2 + j - i - 1


def pack_atoms(arity: int, arities: tuple[int, ...], atoms) -> int:
    """Fingerprint bits of an injective tuple whose true atoms are `atoms`.

    `atoms` yields (symbol position, argument tuple) pairs; every other
    atom and every equality bit is false.
    """
    ks = [_atom_bit(arity, arities, si, args) for si, args in atoms]
    return _set_bits(ks, _layout(arity, arities)[1])


def _set_bits(ks: list[int], width: int) -> int:
    """The int with bit k set for each k in `ks`, all of them below `width`."""
    if len(ks) < 64:  # a few small ints: OR them in
        bits = 0
        for k in ks:
            bits |= 1 << k
        return bits
    digits = bytearray(b"0") * width  # digit width - 1 - k is bit k
    for k in ks:
        digits[width - 1 - k] = 49  # ord("1")
    return int(digits, 2)


def _width(arity: int, arities: tuple[int, ...]) -> int:
    """Number of bits in a fingerprint: its atoms, then its equalities."""
    return _layout(arity, arities)[1] + arity * (arity - 1) // 2


# Widest fingerprint a sampler is asked for: about 77 times the widest
# benchmark workload's (kaleidoscope k=3, d=8 at n=30: 216k bits). The
# array evaluators hold at most this many cells in one bool array too.
MAX_FINGERPRINT_BITS = 1 << 24


def _check_cells(cells: int, what: str) -> None:
    if cells > MAX_FINGERPRINT_BITS:
        raise CeilingError(f"{what} needs {cells} bits, past the ceiling of {MAX_FINGERPRINT_BITS}")


def check_width(arity: int, arities: tuple[int, ...]) -> None:
    """CeilingError when a fingerprint of this shape is past MAX_FINGERPRINT_BITS."""
    _check_cells(_width(arity, arities), f"the type of {arity} points")


@lru_cache(maxsize=1 << 12)
def _gather_table(arity: int, arities: tuple[int, ...], coords: tuple[int, ...]):
    """Bit-gather plan behind TypeFingerprint.reindexed.

    The source bits are read as the binary string of bits | guard, where
    guard = 1 << width puts a constant '1' at index 0 and source bit k
    at index width - k. Returns (getter, guard); `getter` picks the
    result's digits most significant first, and is None when the result
    has no bits.
    """
    if any(not 0 <= c < arity for c in coords):
        raise LogicError("coordinate out of range for fingerprint arity")
    width = _width(arity, arities)
    # result atoms in layout order: symbol si on the tuple (coords[x] for x in t)
    picks = [
        width - _atom_bit(arity, arities, si, t)
        for si, ar in enumerate(arities)
        for t in product(coords, repeat=ar)
    ]
    for i, j in combinations(range(len(coords)), 2):
        a, b = sorted((coords[i], coords[j]))
        picks.append(0 if a == b else width - _eq_bit(arity, arities, a, b))
    picks.reverse()
    return (itemgetter(*picks) if picks else None), 1 << width


@dataclass(frozen=True)
class TypeFingerprint:
    """Quantifier-free type of a tuple over a sublanguage, as packed bits.

    `sublanguage` lists symbol indices of the ambient signature;
    `arities` carries their arities so the fingerprint stays
    self-interpreting. Bit k of `bits` is atom k of the canonical
    enumeration (see _layout).
    """

    arity: int
    sublanguage: tuple[int, ...]
    arities: tuple[int, ...]
    bits: int

    def has(self, sub_pos: int, args: tuple[int, ...]) -> bool:
        """Atom value for the sublanguage symbol at position sub_pos."""
        return bool(self.bits >> _atom_bit(self.arity, self.arities, sub_pos, args) & 1)

    def reindexed(self, coords: tuple[int, ...]) -> "TypeFingerprint":
        """Fingerprint of the tuple b with b[x] = a[coords[x]].

        Each bit of the result is one bit of this fingerprint, or a true
        equality where coords repeats a coordinate, so a gather table
        cached per (arity, arities, coords) does the work.
        """
        getter, guard = _gather_table(self.arity, self.arities, tuple(coords))
        bits = 0
        if getter is not None:
            bits = int("".join(getter(format(self.bits | guard, "b"))), 2)
        return _fingerprint(len(coords), self.sublanguage, self.arities, bits)

    def agrees(self, coords_a: tuple[int, ...], coords_b: tuple[int, ...]) -> bool:
        """reindexed(coords_a) == reindexed(coords_b), without building either."""
        if len(coords_a) != len(coords_b):
            return False
        get_a, guard = _gather_table(self.arity, self.arities, tuple(coords_a))
        get_b, _ = _gather_table(self.arity, self.arities, tuple(coords_b))
        if get_a is None:
            return True
        digits = format(self.bits | guard, "b")
        return get_a(digits) == get_b(digits)

    def restrict(self, m: int) -> "TypeFingerprint":
        """Fingerprint of the first m coordinates."""
        if not 0 <= m <= self.arity:
            raise LogicError("restriction arity out of range")
        return self.reindexed(tuple(range(m)))

    def permuted(self, sigma: Permutation) -> "TypeFingerprint":
        """Fingerprint of the rearranged tuple b with b[i] = a[sigma(i)]."""
        if len(sigma) != self.arity:
            raise LogicError("permutation size differs from fingerprint arity")
        return self.reindexed(sigma.mapping)

    def models(self, phi: QfFormula, assignment: tuple[int, ...] | None = None) -> bool:
        """Evaluate a quantifier-free formula against this type.

        Variables denote tuple coordinates; `assignment` remaps variable
        v to coordinate assignment[v] (identity when omitted). Relation
        symbols in phi are ambient signature indices and must belong to
        the sublanguage.
        """
        if assignment is not None:
            assignment = tuple(assignment)
        return _qf_test(self.arity, self.sublanguage, self.arities, phi, assignment)(self.bits)


@lru_cache(maxsize=1 << 10)
def _qf_test(
    arity: int,
    sublanguage: tuple[int, ...],
    arities: tuple[int, ...],
    phi: QfFormula,
    assignment: tuple[int, ...] | None,
) -> Callable[[int], bool]:
    """phi compiled to a test on fingerprint bits of one layout.

    Each atom becomes a shift by its bit index, found once here, so
    TypeFingerprint.models pays for the layout arithmetic once per
    (layout, phi, assignment) and not once per call. Variable v reads
    coordinate assignment[v], or v when assignment is None. Every leaf
    is resolved here, so a symbol outside the sublanguage or an unbound
    variable raises LogicError whatever the bits turn out to be.
    """
    pos_of = {s: k for k, s in enumerate(sublanguage)}

    def coord(v: int) -> int:
        if assignment is None:
            return v
        if not 0 <= v < len(assignment):
            raise LogicError("free variable unbound by assignment")
        return assignment[v]

    def bit(k: int) -> Callable[[int], bool]:
        return lambda bits: bits >> k & 1 == 1

    def rec(f: QfFormula) -> Callable[[int], bool]:
        if isinstance(f, Rel):
            if f.sym not in pos_of:
                raise LogicError(f"symbol {f.sym} outside fingerprint sublanguage")
            return bit(_atom_bit(arity, arities, pos_of[f.sym], tuple(coord(v) for v in f.args)))
        if isinstance(f, Eq):
            a, b = sorted((coord(f.left), coord(f.right)))
            if a == b and 0 <= a < arity:
                return lambda bits: True
            return bit(_eq_bit(arity, arities, a, b))
        if isinstance(f, Not):
            sub = rec(f.sub)
            return lambda bits: not sub(bits)
        if isinstance(f, (And, Or)):
            subs = tuple(rec(s) for s in f.subs)
            stop = isinstance(f, Or)  # the part value that settles the connective

            def connective(bits: int) -> bool:
                for t in subs:
                    if t(bits) == stop:
                        return stop
                return not stop

            return connective
        raise LogicError(f"not a quantifier-free formula: {f!r}")

    return rec(phi)


def _fingerprint(arity: int, sublanguage: tuple[int, ...], arities: tuple[int, ...],
                 bits: int) -> TypeFingerprint:
    """TypeFingerprint(arity, sublanguage, arities, bits), without the frozen dataclass __init__.

    For fields that are already of the right types, as in a sampler's
    type function: the fields go straight into the instance dict, as
    FiniteStructure writes its own.
    """
    fp = object.__new__(TypeFingerprint)
    fields = fp.__dict__
    fields["arity"] = arity
    fields["sublanguage"] = sublanguage
    fields["arities"] = arities
    fields["bits"] = bits
    return fp


def sub_arities(signature: Signature, sublanguage: tuple[int, ...]) -> tuple[int, ...]:
    """The arities of a sublanguage's symbols; LogicError for an index outside the signature."""
    if any(not 0 <= s < len(signature) for s in sublanguage):
        raise LogicError(f"sublanguage {sublanguage} has a symbol outside the signature")
    return tuple(signature.arity(s) for s in sublanguage)


def fingerprint_bits(structure: FiniteStructure, tuples: np.ndarray,
                     sublanguage: tuple[int, ...]) -> np.ndarray:
    """Fingerprint bits of the rows of a (T, m) int array, bit k in column k (see _layout).

    Each symbol's block is its table gathered at the tuples' coordinates.
    """
    count, m = tuples.shape
    arities = sub_arities(structure.signature, sublanguage)
    offsets, eq_base = _layout(m, arities)
    width = _width(m, arities)
    _check_cells(count * width, f"a sweep of {count} {m}-tuples")
    out = np.empty((count, width), dtype=bool)
    for sym, ar, k in zip(sublanguage, arities, offsets):
        # the block's argument tuples in layout (C) order, one row per argument
        coords = np.indices((m,) * ar).reshape(ar, m**ar)
        out[:, k:k + m**ar] = structure.tables[sym][tuple(tuples[:, c] for c in coords)]
    for k, (i, j) in enumerate(combinations(range(m), 2), eq_base):
        out[:, k] = tuples[:, i] == tuples[:, j]
    return out


def qf_fingerprint(
    structure: FiniteStructure,
    tup: tuple[int, ...],
    sublanguage: tuple[int, ...] | None = None,
) -> TypeFingerprint:
    """Fingerprint of a concrete tuple in a structure."""
    if sublanguage is None:
        sublanguage = tuple(range(len(structure.signature)))
    for a in tup:
        if not 0 <= a < structure.domain_size:
            raise LogicError("tuple element out of domain")
    sublanguage = tuple(sublanguage)
    (row,) = fingerprint_bits(structure, np.array([tup], dtype=np.intp), sublanguage)
    bits = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
    return TypeFingerprint(len(tup), sublanguage, sub_arities(structure.signature, sublanguage), bits)


def fingerprint_tables(fp: TypeFingerprint) -> dict[int, np.ndarray]:
    """Boolean fact table of each sublanguage symbol of a fingerprint.

    A symbol of arity ar gets a bool array of shape (fp.arity,) * ar
    whose entry at t is the atom on t: its bit block in C order (see
    _layout). Keys are ambient symbol indices, in sublanguage order;
    the tables are views of one unpacked bit array.
    """
    n = fp.arity
    offsets, width = _layout(n, fp.arities)
    atoms = fp.bits & ((1 << width) - 1)
    flat = np.unpackbits(
        np.frombuffer(atoms.to_bytes((width + 7) // 8, "little"), dtype=np.uint8),
        count=width, bitorder="little",
    ).view(bool)
    return {
        sym: flat[start:start + n**ar].reshape((n,) * ar)
        for sym, ar, start in zip(fp.sublanguage, fp.arities, offsets)
    }


def structure_from_fingerprint(
    fp: TypeFingerprint, signature: Signature, domain_size: int
) -> FiniteStructure:
    """Read a structure off a full-tuple fingerprint.

    The fingerprint must describe the identity tuple (0..n-1) over a
    sublanguage of `signature`; its atom bits then enumerate every fact.
    """
    if fp.arity != domain_size:
        raise LogicError("fingerprint arity differs from domain size")
    return FiniteStructure.from_tables(signature, domain_size, fingerprint_tables(fp))
