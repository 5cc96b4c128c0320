"""Stagewise construction of a measured limit structure.

The target object is an inverse limit of finite structures: a sequence
of stages, each carrying a finite structure over a growing sublanguage,
an exact rational probability mass on its elements plus a reservoir
element ``*``, and a projection onto the previous stage. Advancing a
stage splits every element in two (the copy agreeing with the original
on every materialized symbol), adds witnesses demanded by the scheduled
one-point-extension axiom, splits the reservoir mass among the
newcomers, and grows the sublanguage far enough to refute the scheduled
omitted type on every tuple and to separate the full types of every
split pair.

The stage tree is arithmetic. Stage k has the 2^k - 1 elements
0 .. 2^k - 2, and an element is its position: positions below
split = 2^(k-1) - 1 are carried from stage k-1, position u in
[split, 2 split) is the copy of u - split, and 2^k - 2 is the new
element. So element u is born at stage (u+1).bit_length(). Each stage
adds exactly one new element and halves everything, so every element
of stage k has mass 1/2^k and so has the reservoir; a checked stage
proves it. A path level is one two-way split of a position's mass
between its two children: evenly on a built limit, and under a
reweighting by integer per-cell weights. Masses stay exact rationals;
floating point appears only in Monte Carlo sampling. Paths through the
stage tree are sampled lazily from per-point seeds, so structure
sampling reads singleton randomness only.

The shipped guide oracle realizes the "kaleidoscope predicate" theory:
countably many independent unary predicates, extension axioms for every
pattern on the first two, and a scheme sentence forcing any two
elements that agree everywhere to be equal. Guide elements are lazily
decided bit sequences; all of its oracle answers are sound for every
finite set of queries.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_

import numpy as np

from .logic import CeilingError, FiniteStructure, Rel, Signature, prenex_holds, qf_leaves
from .morley import (
    Axiom,
    FAnd,
    FAtom,
    FEq,
    FExists,
    FForall,
    FNot,
    FOr,
    FSchemeAnd,
    FSchemeOr,
    Fragment,
    MorleyResult,
    canonical_vars,
    morleyize,
    parse_fragment,
    parts,
)
from .seeds import BITS_PER_STREAM, SeedKey, xi_raw, xi_words

STAR = -1  # reservoir marker in position/parent arrays

# Bit-search cutoffs. Two lazily decided sequences that agree this long
# are treated as a hard oracle failure rather than searched forever;
# the probability of a false trip is 2**-256 per pair.
_SEPARATION_CAP = 256

_WORD = (1 << BITS_PER_STREAM) - 1  # the levels of one PRF word, shifted down
_DECIDED = np.uint64(1 << 63)  # marks a decided word in a plane; no level uses it
_REVERSED_BYTE = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)

# Stage k holds 2^k - 1 elements. Deepening a build from stage 16 to 20
# raised peak RSS by about 95 bytes per element (the guide's word planes
# plus their transients), so stage 22 needs about 0.4 GB and the next
# stage twice that. Depth-20 snapshots read at stage 20, or a level or
# two deeper when points collide.
MAX_STAGE = 22


class LimitError(ValueError):
    pass


class StageCeilingError(CeilingError):
    """A stage past MAX_STAGE was asked for; nothing was allocated."""


class SeparationError(LimitError):
    """Sampled points could not be told apart within the depth budget."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


# ---------------------------------------------------------------------------
# the guided theory
# ---------------------------------------------------------------------------

# Extension patterns on the first one or two predicates: (mask, bits)
# over bit positions, one closed existential sentence each. Together
# they guarantee elements of every low pattern exist, which keeps every
# stage's witness search satisfiable.
_EXT_PATTERNS: tuple[tuple[int, int], ...] = (
    (0b1, 0b1),
    (0b1, 0b0),
    (0b11, 0b11),
    (0b11, 0b01),
    (0b11, 0b10),
    (0b11, 0b00),
)


def _pattern_sentence(mask: int, bits: int) -> str:
    lits = []
    n = 0
    while mask >> n:
        if (mask >> n) & 1:
            atom = f"(rel P{n} x)"
            lits.append(atom if (bits >> n) & 1 else f"(not {atom})")
        n += 1
    body = lits[0] if len(lits) == 1 else "(and " + " ".join(lits) + ")"
    return f"(exists x {body})"


def _agreement_sentence(prefix: int) -> str:
    same = (
        "(or (and (rel (P n) x) (rel (P n) y))"
        " (and (not (rel (P n) x)) (not (rel (P n) y))))"
    )
    scheme = f"(schemeAnd n {prefix} {same})"
    return f"(forall x (forall y (or (not {scheme}) (eq x y))))"


@dataclass(frozen=True)
class BuildTheory:
    """Flattened theory plus the symbol layout of the build language.

    Symbol ids: 0..D-1 are the base predicates P0..P{D-1}; the next
    block holds the definitional relation symbols in closure order;
    from `tail_start` on, ids alternate between deeper predicates P_n
    and their agreement relations Riff_n (arity 2, "same bit n"), two
    ids per level n >= D.
    """

    base_depth: int
    sentences: tuple[str, ...]
    result: MorleyResult
    tail_start: int
    ext_patterns: dict  # node index -> (mask, bits)
    iff_nodes: tuple[int, ...]  # node index of the agreement formula, n < prefix
    sc_node: int
    quantified_nodes: frozenset
    node_bits: tuple[int, ...]  # per node, bitmask of predicate levels it reads

    # -- symbol layout -----------------------------------------------------

    def pred_symbol(self, n: int) -> int:
        if n < self.base_depth:
            return n
        return self.tail_start + 2 * (n - self.base_depth)

    def iff_symbol(self, n: int) -> int:
        if n < self.base_depth:
            return self.result.node_symbol(self.iff_nodes[n])
        return self.tail_start + 2 * (n - self.base_depth) + 1

    @property
    def sc_symbol(self) -> int:
        return self.result.node_symbol(self.sc_node)

    def classify(self, sym: int) -> tuple[str, int]:
        """('pred', n) | ('riff', n) | ('node', node index) for a symbol id."""
        if sym < self.base_depth:
            return ("pred", sym)
        if sym < self.tail_start:
            return ("node", sym - self.base_depth)
        t, r = divmod(sym - self.tail_start, 2)
        return ("pred" if r == 0 else "riff", self.base_depth + t)

    def symbol(self, sym: int) -> tuple[str, int]:
        """(name, arity) of a symbol id."""
        kind, n = self.classify(sym)
        if kind == "node":
            return self.result.nodes[n].name, self.result.nodes[n].arity
        return (f"P{n}", 1) if kind == "pred" else (f"Riff{n}", 2)

    def bits_read(self, sym: int) -> int:
        """Bitmask of predicate levels whose values determine this symbol."""
        kind, n = self.classify(sym)
        if kind in ("pred", "riff"):
            return 1 << n
        return self.node_bits[n]


def _formula_bits(phi: Fragment) -> int:
    """Predicate levels read by structural evaluation of a node formula.

    Conjunctive scheme, equality, and quantified nodes are evaluated from
    element identity or held constant, so they read no bits at all. A
    disjunctive scheme is refused: the type-preservation audit trusts
    this mask to name every level a symbol reads.
    """
    if isinstance(phi, FAtom):
        return 1 << int(phi.rel.resolved()[1:])
    if isinstance(phi, FSchemeOr):
        raise GuideError(f"no level mask for {phi!r}")
    if isinstance(phi, (FEq, FSchemeAnd, FForall, FExists)):
        return 0
    return reduce(or_, map(_formula_bits, parts(phi)), 0)


def build_theory(base_depth: int = 4) -> BuildTheory:
    """The guided theory over base_depth base predicates.

    The agreement scheme is materialized to the same prefix, because the
    tail interleaves P_n with Riff_n at the same level n.
    """
    if base_depth < 2:
        raise LimitError("need at least two base predicates")

    sentences = tuple(
        [_pattern_sentence(mask, bits) for mask, bits in _EXT_PATTERNS]
        + [_agreement_sentence(base_depth)]
    )
    base = Signature(tuple((f"P{n}", 1) for n in range(base_depth)))
    parsed = [parse_fragment(s) for s in sentences]
    result = morleyize(parsed, base)

    ext_patterns = {}
    for spec, (mask, bits) in zip(parsed[:-1], _EXT_PATTERNS):
        ext_patterns[result.node_of(spec)] = (mask, bits)

    iff_nodes = []
    for n in range(base_depth):
        inst = parse_fragment(
            f"(or (and (rel P{n} x) (rel P{n} y))"
            f" (and (not (rel P{n} x)) (not (rel P{n} y))))"
        )
        iff_nodes.append(result.node_of(inst))

    scheme = parse_fragment(_agreement_sentence(base_depth))
    assert isinstance(scheme, FForall) and isinstance(scheme.sub, FForall)
    top = scheme.sub.sub
    assert isinstance(top, FOr) and isinstance(top.subs[0], FNot)
    sc_node = result.node_of(top.subs[0].sub)

    quantified = frozenset(
        i
        for i, node in enumerate(result.nodes)
        if isinstance(node.formula, (FForall, FExists))
    )
    node_bits = tuple(_formula_bits(node.formula) for node in result.nodes)

    return BuildTheory(
        base_depth=base_depth,
        sentences=sentences,
        result=result,
        tail_start=base_depth + len(result.nodes),
        ext_patterns=ext_patterns,
        iff_nodes=tuple(iff_nodes),
        sc_node=sc_node,
        quantified_nodes=quantified,
        node_bits=node_bits,
    )


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleEntry:
    k: int
    entry: int  # round-robin slot
    pithy: Axiom


def schedule_entry(k: int, theory: BuildTheory) -> ScheduleEntry:
    """Deterministic recurring schedule.

    Stage k serves round-robin slot m where k+1 = 2^i * (2m+1); slot j
    therefore recurs at stages 2j, 4j+1, 8j+3, ... — every slot, and so
    every sentence and every omitted type, comes up infinitely often.
    Symbols enter in plain id order: stage k+1 admits symbol k.
    """
    if k < 0:
        raise LimitError("stage index must be nonnegative")
    v = k + 1
    v >>= (v & -v).bit_length() - 1
    m = (v - 1) // 2
    pithy = theory.result.pithy_axioms
    return ScheduleEntry(k=k, entry=m, pithy=pithy[m % len(pithy)])


# ---------------------------------------------------------------------------
# guide oracle
# ---------------------------------------------------------------------------


class GuideError(LimitError):
    pass


class KaleidoscopePredicateGuide:
    """Lazily decided bit-sequence elements over the predicate levels.

    Each element handle owns an infinite sequence of fair bits, one per
    predicate level. Handles are stage positions (see the module
    docstring), so the guide keeps two per-stage tables: `routed[j]` is
    stage j's inherited levels, which a copy born at stage j+1 takes
    from its origin (so the pair agrees on every materialized symbol,
    whenever decided), and `forced[k]` is the (mask, bits) preset on
    stage k's new element when no existing element met its demand.
    Every other bit is the handle's own, from one keyed PRF word per 53
    levels. Each word is decided on first read, for a whole array of
    handles at once (`words`), and held in one plane per word index.
    Relations are answered by `_fact_array`, the one evaluator of node
    formulas over bits: the scheme node and equality are answered from
    handle identity, and quantified nodes are constants. Those
    identity/constant answers are sound for every finite query set: no
    finite collection of bits can certify that two distinct handles
    agree at all levels.
    """

    def __init__(self, key: SeedKey, theory: BuildTheory):
        self.theory = theory
        self._bitkey = key.child("guide-bits")
        self.routed: list[int] = []  # per stage j: levels copies born at j+1 share
        self.forced: dict[int, tuple[int, int]] = {}  # stage -> new element's preset
        # word planes: _planes[w][u] holds handle u's levels 53w .. 53w+52
        # (bit n is level 53w+n), plus _DECIDED once they are decided
        self._planes: list[np.ndarray] = []

    # -- bits ----------------------------------------------------------------

    def bit(self, handle: int, level: int) -> int:
        return (self.word(handle, level // BITS_PER_STREAM) >> level % BITS_PER_STREAM) & 1

    def word(self, handle: int, w: int) -> int:
        """Levels 53w .. 53w+52 of one handle: bit n is level 53w+n."""
        if w < len(self._planes) and 0 <= handle < len(self._planes[w]):
            own = int(self._planes[w][handle])
            if own >> 63:
                return own & _WORD
        return int(self.words(np.array([handle]), w)[0])

    def words(self, handles: np.ndarray, w: int) -> np.ndarray:
        """PRF word w of every handle, as levels (see `word`), deciding it as needed."""
        unbuilt = (handles < 0) | (np.frexp(handles + 1)[1] > len(self.routed))
        if unbuilt.any():
            raise GuideError(f"handle {handles[np.argmax(unbuilt)]} is not in a built stage")
        while len(self._planes) <= w:
            self._planes.append(np.zeros(0, dtype=np.uint64))
        grow = (1 << len(self.routed)) - 1 - len(self._planes[w])  # cover the built stages
        if grow > 0:
            self._planes[w] = np.concatenate([self._planes[w], np.zeros(grow, dtype=np.uint64)])
        todo = np.unique(handles[self._planes[w][handles] < _DECIDED])
        if len(todo):
            self._decide(todo, w)
        return self._planes[w][handles] & np.uint64(_WORD)

    def _decide(self, handles: np.ndarray, w: int) -> None:
        """Decide PRF word w of the given distinct, undecided handles."""
        raw = xi_words(self._bitkey, handles, w)
        # level n is the expansion's bit n, the raw word's bit 63-n: reverse
        # the 64 bits (bytes in reverse order, each byte's bits reversed)
        raw = _REVERSED_BYTE[raw.astype(">u8").view(np.uint8).reshape(-1, 8)[:, ::-1]]
        own = raw.view(">u8").ravel().astype(np.uint64) & _WORD
        shift = w * BITS_PER_STREAM
        born = np.frexp(handles + 1)[1]
        for k in np.unique(born).tolist():
            at = born == k
            if k > 1:  # copies take the routed levels from their origins
                mask = (self.routed[k - 1] >> shift) & _WORD
                copies = at & (handles + 2 != 1 << k)
                if mask and copies.any():
                    origin = self.words(handles[copies] + 1 - (1 << (k - 1)), w)
                    own[copies] = (own[copies] & ~np.uint64(mask)) | (origin & np.uint64(mask))
            if k in self.forced:  # the new element's preset, if it has one
                mask, bits = ((v >> shift) & _WORD for v in self.forced[k])
                fresh = at & (handles + 2 == 1 << k)
                own[fresh] = (own[fresh] & ~np.uint64(mask)) | np.uint64(bits & mask)
        self._planes[w][handles] = own | _DECIDED

    # -- relations -----------------------------------------------------------

    def fact(self, sym: int, handles: tuple[int, ...]) -> bool:
        """Whether symbol sym holds of the handles: one cell of `_fact_array`."""
        table = _fact_array(self, self.theory, sym, handles)
        if table.ndim != len(handles):
            raise GuideError(f"symbol {sym} has arity {table.ndim}, not {len(handles)}")
        return bool(table[tuple(range(len(handles)))])

    # -- separation ------------------------------------------------------------

    def separating_levels(self, a: np.ndarray, b: np.ndarray, start: int = 0) -> np.ndarray:
        """First level >= start where a[i] and b[i] differ, for every i.

        The pairs are decided one PRF word at a time, from the word
        holding `start` to the word holding each answer.
        """
        if (a == b).any():
            raise GuideError("identical handles never separate")
        stop = start + _SEPARATION_CAP
        out = np.full(len(a), stop, dtype=np.int64)
        todo = np.arange(len(a))
        w, skip = divmod(start, BITS_PER_STREAM)
        while len(todo) and w * BITS_PER_STREAM < stop:
            diff = (self.words(a[todo], w) ^ self.words(b[todo], w)) >> np.uint64(skip)
            hit = diff != 0
            low = diff[hit] & (~diff[hit] + np.uint64(1))
            # low is a power of two below 2^53, exact as a float: frexp gives its bit index + 1
            out[todo[hit]] = w * BITS_PER_STREAM + skip + np.frexp(low)[1] - 1
            todo = todo[~hit]
            w, skip = w + 1, 0
        if (out >= stop).any():
            i = int(np.argmax(out >= stop))
            raise GuideError(f"handles {a[i]} and {b[i]} agree on {_SEPARATION_CAP} levels")
        return out


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """One level of the construction.

    Stage k has the elements 0 .. 2^k - 2 (see the module docstring):
    positions < split = 2^(k-1) - 1 are carried originals, positions in
    [split, 2*split) are their copies in order, and position 2*split is
    the new element, projecting to the reservoir. Masses are numerators
    over the shared denominator; left out, they take their closed form,
    1/2^k for every element and for the reservoir, `nums` then being one
    Python int 1 viewed `size` times (read-only, no memory per element).
    """

    index: int
    lang: frozenset[int]
    inherit_levels: int  # bitmask: levels determined by the materialized language
    new_symbols: tuple[int, ...] = ()
    demand: tuple[int, int] | None = None  # pattern the scheduled axiom required
    nums: np.ndarray | None = None
    star_num: int = 1
    den: int | None = None

    def __post_init__(self) -> None:
        if self.nums is None:
            self.nums = np.broadcast_to(np.array(1, dtype=object), (self.size,))
        if self.den is None:
            self.den = 1 << self.index

    @property
    def size(self) -> int:
        return (1 << self.index) - 1

    @property
    def uids(self) -> range:
        return range(self.size)

    def mass(self, pos: int) -> Fraction:
        if pos == STAR:
            return Fraction(self.star_num, self.den)
        return Fraction(self.nums[pos], self.den)

    def max_mass(self) -> Fraction:
        return Fraction(int(np.max(self.nums, initial=self.star_num)), self.den)


def init_stage0() -> Stage:
    return Stage(index=0, lang=frozenset(), inherit_levels=0)


def _witness_requirement(theory: BuildTheory, axiom: Axiom) -> tuple[int, int] | None:
    """Pattern the scheduled axiom's witness must carry, if any.

    The guided theory makes every definitional symbol in a pithy matrix
    either structurally determined or constant-true, which reduces each
    one-point-extension demand to at most one pattern search: extension
    axioms need an element matching their bit pattern, and the
    agreement axioms are satisfied by any element at all.
    """
    if axiom.source in theory.ext_patterns:
        return theory.ext_patterns[axiom.source]
    if axiom.source is not None and axiom.source in theory.quantified_nodes:
        return None
    raise LimitError(f"axiom {axiom.label} is not in the guided theory")


def _matches(guide: KaleidoscopePredicateGuide, uid: int, mask: int, bits: int) -> bool:
    return all(guide.bit(uid, n) == (bits >> n) & 1
               for n in range(mask.bit_length()) if (mask >> n) & 1)


def _departures(guide: KaleidoscopePredicateGuide, new: int) -> np.ndarray:
    """separating_levels(arange(new), full(new, new)) for the latest stage's new element.

    A copy born at stage j agrees with its origin on routed[j-1], so if
    the origin departs below the lowest level missing from routed[j-1],
    the copy departs at that same level, with no word drawn. Handles go
    in birth order, origins before copies; the rest are searched.
    """
    out = np.full(new, -1, dtype=np.int64)
    for j in range(1, new.bit_length() + 1):
        lo, hi = (1 << (j - 1)) - 1, min((1 << j) - 1, new)  # the handles born at stage j
        if j > 1:
            shared = guide.routed[j - 1]
            gap = (~shared & (shared + 1)).bit_length() - 1  # lowest level not shared
            inherited = out[: min(lo, hi - lo)]  # copy lo + i has origin i
            out[lo : lo + len(inherited)] = np.where(inherited < gap, inherited, -1)
        rest = lo + np.flatnonzero(out[lo:hi] < 0)
        out[rest] = guide.separating_levels(rest, np.full(len(rest), new))
    return out


def advance_stage(stage: Stage, guide: KaleidoscopePredicateGuide,
                  entry: ScheduleEntry) -> Stage:
    if entry.k != stage.index:
        raise LimitError(f"schedule entry {entry.k} does not follow stage {stage.index}")
    if len(guide.routed) != stage.index:
        raise LimitError(f"the guide is at stage {len(guide.routed)}, not {stage.index}")
    theory = guide.theory
    m = stage.size
    fresh = 2 * m  # the new element

    # Step 1: split every element, the copy agreeing on the current language.
    # Masses need no work: every one halves, and the reservoir splits evenly
    # between the new element and itself, which is Stage's closed form.
    guide.routed.append(stage.inherit_levels)

    # Step 2: witness the scheduled extension demand, or admit one plain
    # element so the reservoir always splits.
    pattern = _witness_requirement(theory, entry.pithy)
    if pattern is None:
        if not m:
            raise LimitError("agreement axiom scheduled before any element exists")
    else:
        mask, bits = pattern
        if not any(_matches(guide, u, mask, bits) for u in range(fresh)):
            guide.forced[stage.index + 1] = (mask, bits & mask)

    # Step 3: admit the enumerated symbol and enough agreement symbols
    # to refute the scheduled type on every tuple — the scheme symbol
    # covers repeats, and a decided difference level covers each pair
    # that is not already separated. The same levels separate the full
    # types of each split pair (the only pairs agreeing on everything
    # materialized so far).
    lang = set(stage.lang)
    added: list[int] = []

    def admit(sym: int) -> None:
        if sym not in lang:
            lang.add(sym)
            added.append(sym)

    admit(entry.k)
    admit(theory.sc_symbol)

    origins = np.arange(m)
    pairs = guide.separating_levels(origins, origins + m, start=stage.inherit_levels.bit_length())
    # the new element against everyone: peeling the prefix bucket of
    # elements that agree with it until it stands alone admits exactly
    # the level where each element first departs from it
    departures = _departures(guide, fresh)
    for level in np.union1d(pairs, departures).tolist():
        admit(theory.pred_symbol(level))
        admit(theory.iff_symbol(level))

    inherit = 0
    for sym in lang:
        inherit |= theory.bits_read(sym)

    return Stage(
        index=stage.index + 1,
        lang=frozenset(lang),
        inherit_levels=inherit,
        new_symbols=tuple(sorted(added)),
        demand=pattern,
    )


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


@dataclass
class StageReport:
    k: int
    mass_total_ok: bool
    mass_positive_ok: bool
    mass_bound_ok: bool
    pushforward_ok: bool
    pushforward_witness: int | None
    type_preservation_ok: bool
    type_witness: tuple[int, tuple[int, int]] | None  # (level, (origin, copy))
    strong_witness_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.mass_total_ok
            and self.mass_positive_ok
            and self.mass_bound_ok
            and self.pushforward_ok
            and self.type_preservation_ok
            and self.strong_witness_ok
        )

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "mass_total": self.mass_total_ok,
            "mass_positive": self.mass_positive_ok,
            "mass_bound": self.mass_bound_ok,
            "pushforward": self.pushforward_ok,
            "type_preservation": self.type_preservation_ok,
            "strong_witness": self.strong_witness_ok,
            "passed": self.passed,
        }

    def failures(self) -> str:
        """The failed checks, each with the witness it found, if any."""
        out = [name for name, ok in self.as_dict().items() if ok is False and name != "passed"]
        if self.pushforward_witness == STAR:
            out[out.index("pushforward")] += " (fails at the reservoir)"
        elif self.pushforward_witness is not None:
            out[out.index("pushforward")] += f" (fails at position {self.pushforward_witness})"
        if self.type_witness is not None:
            level, (origin, copy) = self.type_witness
            out[out.index("type_preservation")] += (
                f" (copy {copy} departs from origin {origin} at level {level})"
            )
        return ", ".join(out)


def stage_invariants(prev: Stage, nxt: Stage,
                     guide: KaleidoscopePredicateGuide) -> StageReport:
    """Exact audit of one advancement.

    Pushforward: each previous element's mass equals the sum over its
    fiber; the reservoir's mass equals the reservoir plus all new
    elements. Type preservation: every copy agrees with its origin on
    every level that a symbol of the previous language reads. That makes
    every relation answer on carried/copied elements match the projected
    tuple, for every argument tuple whose distinct entries project
    injectively (pairs mixing an element with its own copy project
    non-injectively and are exempt), and it costs one comparison per
    copy. Both checks are exact. The type check rests on
    `BuildTheory.bits_read` naming every level a symbol reads, which
    `_formula_bits` guarantees by refusing any fragment it cannot mask.
    """
    theory = guide.theory
    m = prev.size
    nums = np.asarray(nxt.nums)
    mass_total = bool(nums.sum() + nxt.star_num == nxt.den)
    mass_positive = nxt.star_num > 0 and bool((nums > 0).all())
    bound = nxt.max_mass() <= Fraction(1, 2**nxt.index)

    # cross-multiplied over the two denominators: a position's two
    # children against it, then the reservoir and the new element
    # against the reservoir
    off = (nums[:m] + nums[m:2 * m]) * prev.den != np.asarray(prev.nums) * nxt.den
    pushforward_witness: int | None = None
    if off.any():
        pushforward_witness = int(np.argmax(off))
    elif (nxt.star_num + nums[2 * m:].sum()) * prev.den != prev.star_num * nxt.den:
        pushforward_witness = STAR
    pushforward_ok = pushforward_witness is None

    # Every guided symbol is a function of the levels it reads plus
    # handle identity, and identity answers agree on every tuple that
    # projects injectively. So the copies keep every previous relation
    # exactly when each copy agrees with its origin on the levels the
    # previous language reads (carried elements are their own origins).
    reads = 0
    for sym in prev.lang:
        reads |= theory.bits_read(sym)
    type_witness = None
    origins = np.arange(m)
    for w in range(-(-reads.bit_length() // BITS_PER_STREAM)):
        mask = (reads >> (w * BITS_PER_STREAM)) & _WORD
        if not mask:
            continue
        diff = (guide.words(origins, w) ^ guide.words(origins + m, w)) & np.uint64(mask)
        if diff.any():
            i = int(np.argmax(diff != 0))
            level = w * BITS_PER_STREAM + (int(diff[i]) & -int(diff[i])).bit_length() - 1
            type_witness = (level, (i, m + i))
            break
    type_ok = type_witness is None

    # the scheduled demand must be met inside the stage by an element of
    # positive mass (an extension pattern by a matching element, an
    # agreement axiom by anything at all)
    if nxt.demand is None:
        strong = nxt.size > 0
    else:
        mask, bits = nxt.demand
        strong = any(
            nxt.nums[u] > 0 and _matches(guide, u, mask, bits) for u in range(nxt.size)
        )

    return StageReport(
        k=nxt.index,
        mass_total_ok=mass_total,
        mass_positive_ok=mass_positive,
        mass_bound_ok=bound,
        pushforward_ok=pushforward_ok,
        pushforward_witness=pushforward_witness,
        type_preservation_ok=type_ok,
        type_witness=type_witness,
        strong_witness_ok=strong,
    )


# ---------------------------------------------------------------------------
# the limit handle
# ---------------------------------------------------------------------------


GUIDE_NAME = "kaleidoscope-predicate"  # the one guide; build manifests name it


class LimitHandle:
    """Built stages plus the guide, extended on demand."""

    def __init__(self, seed: SeedKey, theory: BuildTheory):
        self.seed = seed
        self.theory = theory
        self.guide = KaleidoscopePredicateGuide(seed, self.theory)
        self.stages: list[Stage] = [init_stage0()]
        self.reports: list[StageReport] = []
        self.checked_to = 0

    def stage(self, k: int) -> Stage:
        self.advance_to(k)
        return self.stages[k]

    def advance_to(self, k: int, check: bool = False) -> None:
        if k > MAX_STAGE:
            raise StageCeilingError(
                f"stage {k} is past the ceiling of {MAX_STAGE} stages"
                f" ({2**MAX_STAGE - 1} elements)"
            )
        while len(self.stages) <= k:
            idx = len(self.stages) - 1
            entry = schedule_entry(idx, self.theory)
            self.stages.append(advance_stage(self.stages[idx], self.guide, entry))
        if check:
            while self.checked_to < k:
                prev = self.stages[self.checked_to]
                nxt = self.stages[self.checked_to + 1]
                report = stage_invariants(prev, nxt, self.guide)
                self.reports.append(report)
                self.checked_to += 1
                if not report.passed:
                    raise LimitError(
                        f"stage {report.k} failed its exact checks: {report.failures()}"
                    )

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def split(self, k: int, parent_pos: int) -> tuple[int, int]:
        """Masses of a stage-(k-1) position's two stage-k children, over a common denominator.

        The children are the position and its copy, or the reservoir and
        the new element; every stage-k element weighs 1/2^k, so both halves
        are equal.
        """
        return 1, 1

    def level_masses(self, k: int) -> tuple[np.ndarray, int, int]:
        """Stage k's masses: numerators (a read-only view), reservoir, denominator."""
        st = self.stage(k)
        return st.nums, st.star_num, st.den


def build_limit(stages: int, seed: SeedKey, base_depth: int = 4,
                check: bool = True) -> LimitHandle:
    handle = LimitHandle(seed, build_theory(base_depth=base_depth))
    handle.advance_to(stages, check=check)
    return handle


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class PathPoint:
    """A point of the limit: one consistent choice of child per level.

    Extended lazily; the trace below the first non-reservoir level is
    all-reservoir by construction, and since the reservoir mass shrinks
    to zero the point leaves it after finitely many levels with
    certainty. Each level consumes one 53-bit draw from the point's own
    seed, so two points with distinct seeds are independent: with the
    handle's split (a, b), the draw takes the first child iff
    draw / 2^53 < a / (a + b).
    """

    def __init__(self, handle: LimitHandle, key: SeedKey):
        self.handle = handle
        self.key = key
        self.positions: list[int] = [STAR]

    def extend_to(self, depth: int) -> None:
        if len(self.positions) <= depth:
            self.handle.advance_to(depth)  # past the ceiling, refuse before building
        while len(self.positions) <= depth:
            k, pos = len(self.positions), self.positions[-1]
            a, b = self.handle.split(k, pos)
            if (xi_raw(self.key, (k,)) >> 11) * (a + b) >= a << 53:  # the second child
                pos = (1 << k) - 2 if pos == STAR else pos + (1 << (k - 1)) - 1
            self.positions.append(pos)

    def position(self, k: int) -> int:
        self.extend_to(k)
        return self.positions[k]


def sample_point(handle: LimitHandle, depth: int, seed: SeedKey) -> PathPoint:
    point = PathPoint(handle, seed)
    point.extend_to(depth)
    return point


def _bit_vector(guide: KaleidoscopePredicateGuide, uids: Sequence[int],
                level: int) -> np.ndarray:
    w, n = divmod(level, BITS_PER_STREAM)
    return (guide.words(np.asarray(uids, dtype=np.int64), w) >> np.uint64(n)) & np.uint64(1) == 1


def _fact_array(guide: KaleidoscopePredicateGuide, theory: BuildTheory,
                sym: int, uids: Sequence[int]):
    """Relation table over the handles `uids`, vectorized per symbol class.

    Returns a scalar (arity 0), a vector (arity 1) or a matrix (arity 2)
    whose entry at positions (i, j) says whether sym holds of
    (uids[i], uids[j]). This is the one evaluator of node formulas over
    the guide's bits.
    """
    kind, n = theory.classify(sym)
    if kind == "pred":
        return _bit_vector(guide, uids, n)
    if kind == "riff":
        v = _bit_vector(guide, uids, n)
        return v[:, None] == v[None, :]
    node = theory.result.nodes[n]
    arity = node.arity
    var_axis = {v: i for i, v in enumerate(canonical_vars(node.formula))}
    size = len(uids)
    handles = np.asarray(uids)

    def rec(phi: Fragment):
        if isinstance(phi, FAtom):
            level = int(phi.rel.resolved()[1:])
            v = _bit_vector(guide, uids, level)
            if arity <= 1:
                return v
            return v[:, None] if var_axis[phi.args[0]] == 0 else v[None, :]
        if isinstance(phi, (FEq, FSchemeAnd)):
            # equality, and total agreement too: distinct handles differ
            # at some level with certainty under the bit model
            return handles[:, None] == handles[None, :]
        if isinstance(phi, (FForall, FExists)):
            # closed under the guided theory; constant on all elements
            return np.ones((size,) * arity, dtype=bool)
        if isinstance(phi, FNot):
            return ~rec(phi.sub)
        return reduce(np.logical_and if isinstance(phi, FAnd) else np.logical_or,
                      map(rec, parts(phi)))

    return np.broadcast_to(rec(node.formula), (size,) * arity)


@dataclass
class LimitSample:
    """A snapshot; `tables[i]` holds the facts of local symbol i as a bool table.

    `structure` holds the same facts as a FiniteStructure. Pass None to
    build it from the tables.
    """

    signature: Signature
    tables: tuple[np.ndarray, ...]
    symbol_ids: tuple[int, ...]
    uids: tuple[int, ...]
    depth: int
    read_level: int
    structure: FiniteStructure | None

    def __post_init__(self):
        if self.structure is None:
            self.structure = FiniteStructure.from_tables(
                self.signature, len(self.uids), dict(enumerate(self.tables))
            )


def sample_structure(handle: LimitHandle, m: int, depth: int, seed: SeedKey,
                     max_extra: int = 64) -> LimitSample:
    """Finite snapshot over the language of the level it reads.

    The m points are sampled independently from per-point seeds; facts
    are read at the first level at or past `depth` where all projections
    are distinct and off the reservoir, over that level's language. The
    stage-`depth` language alone cannot tell apart two points that share
    a stage-`depth` cell, so a snapshot that reads deeper also names the
    symbols that separate them. If two points still collide `max_extra`
    levels past `depth`, the colliding pair is reported instead of
    guessing. More points than stage MAX_STAGE has elements fit in no
    stage, and are refused before any point is drawn.
    """
    if m > 2**MAX_STAGE - 1:
        raise StageCeilingError(
            f"{m} points fit in no stage up to the ceiling: stage {MAX_STAGE}"
            f" has {2**MAX_STAGE - 1} elements"
        )
    points = [PathPoint(handle, seed.child("point", i)) for i in range(m)]
    level = depth
    while True:
        taken: dict[int, int] = {}
        clash = None
        for i, pt in enumerate(points):
            pos = pt.position(level)
            if pos == STAR:
                clash = (i, i)
                break
            if pos in taken:
                clash = (taken[pos], i)
                break
            taken[pos] = i
        if clash is None:
            break
        if level - depth >= max_extra:
            raise SeparationError(
                f"points {clash[0]} and {clash[1]} still collide at level {level}",
                pair=clash,
            )
        level += 1

    theory = handle.theory
    lang_ids = tuple(sorted(handle.stage(level).lang))
    uids = tuple(pt.position(level) for pt in points)
    return LimitSample(
        signature=Signature(tuple(map(theory.symbol, lang_ids))),
        tables=tuple(_fact_array(handle.guide, theory, sym, uids) for sym in lang_ids),
        symbol_ids=lang_ids,
        uids=uids,
        depth=depth,
        read_level=level,
        structure=None,
    )


# ---------------------------------------------------------------------------
# snapshot audits (universal axioms, omitted types, type multiplicity)
# ---------------------------------------------------------------------------


def materialized_universal_axioms(theory: BuildTheory,
                                  symbol_ids) -> list[Axiom]:
    available = frozenset(symbol_ids)
    return [
        ax
        for ax in theory.result.universal_axioms
        if {f.sym for f in qf_leaves(ax.matrix) if isinstance(f, Rel)} <= available
    ]


def snapshot_axiom_holds(sample: LimitSample, axiom: Axiom) -> bool:
    """The axiom in the snapshot, evaluated on its fact tables."""
    tables = dict(zip(sample.symbol_ids, sample.tables))
    return prenex_holds(axiom.prefix, axiom.matrix, tables, len(sample.uids))


def scheduled_type_literals(theory: BuildTheory,
                            symbol_ids) -> list[tuple[int, bool]]:
    """Materialized literals of the omitted type: (symbol, expected truth)."""
    available = frozenset(symbol_ids)
    out: list[tuple[int, bool]] = []
    n = 0
    while True:
        sym = theory.iff_symbol(n)
        if sym in available:
            out.append((sym, True))
        elif n >= theory.base_depth and sym > max(available, default=0):
            break
        n += 1
        if n > 4 * _SEPARATION_CAP:
            break
    out.append((theory.sc_symbol, False))
    return out


def type_omitted_in_sample(sample: LimitSample, theory: BuildTheory) -> bool:
    """No pair realizes every materialized literal of the omitted type."""
    position = {sym: i for i, sym in enumerate(sample.symbol_ids)}
    if theory.sc_symbol not in position:
        return True  # the type has no materialized trace yet
    literals = [
        (position[sym], want)
        for sym, want in scheduled_type_literals(theory, sample.symbol_ids)
    ]
    n = len(sample.uids)
    realized = np.ones((n, n), dtype=bool)
    for local, want in literals:
        realized &= sample.tables[local] == want
    return not realized.any()


def unary_fingerprints(sample: LimitSample) -> list[tuple[bool, ...]]:
    """Per-element truth vector over the materialized unary symbols."""
    unary = [table for table in sample.tables if table.ndim == 1]
    n = len(sample.uids)
    return [tuple(row) for row in np.array(unary, dtype=bool).reshape(len(unary), n).T.tolist()]


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """Target masses for a partition of one stage's elements plus the reservoir."""

    stage: int
    assignment: tuple[int, ...]  # cell per element position
    star_cell: int
    masses: tuple[Fraction, ...]  # one per cell

    def __post_init__(self) -> None:
        cells = len(self.masses)
        used = set(self.assignment) | {self.star_cell}
        if not used <= set(range(cells)):
            raise LimitError("cell index out of range")
        if used != set(range(cells)):
            raise LimitError("every cell must be nonempty")
        if any(w <= 0 for w in self.masses):
            raise LimitError("cell masses must be positive")
        if sum(self.masses, Fraction(0)) != 1:
            raise LimitError("cell masses must sum to 1")


class RescaledHandle:
    """View of a built limit with the measure reweighted on one stage K.

    Every stage-K element and the reservoir weigh 1/2^K, so each of the
    |c| members of cell c gets the mass masses[c] / |c|: the conditional
    distribution inside every cell is left untouched. Those masses are
    integer weights over one common denominator, and the masses of the
    stages below K are their sums down the stage tree. A path level up
    to K splits its position's mass as those weights do; past K both
    children sit in one cell and split evenly, as on the base build.
    """

    def __init__(self, base: LimitHandle, weight: Weight):
        if len(weight.assignment) != base.stage(weight.stage).size:
            raise LimitError("weight partition does not match the stage")
        self.base = base
        self.weight = weight
        counts = np.bincount([*weight.assignment, weight.star_cell], minlength=len(weight.masses))
        each = [Fraction(mass) / int(n) for mass, n in zip(weight.masses, counts)]
        den = lcm(*(f.denominator for f in each))
        self._cell_weights = np.array([f.numerator * (den // f.denominator) for f in each],
                                      dtype=object)

        # (element weights, reservoir weight, denominator) per stage k <= K:
        # a stage-(k-1) position weighs its two stage-k children together
        nums = self._cell_weights[np.array(weight.assignment, dtype=np.int64)]
        star = self._cell_weights[weight.star_cell]
        self._levels = [(nums, star, den)]
        for k in range(weight.stage, 0, -1):
            h = (1 << (k - 1)) - 1
            nums, star = nums[:h] + nums[h:2 * h], star + nums[2 * h]
            self._levels.append((nums, star, den))
        self._levels.reverse()
        for nums, _star, _den in self._levels:
            nums.flags.writeable = False

    def __getattr__(self, name):
        # stages, the schedule, the theory and the guide come from the base build
        return getattr(self.base, name)

    def split(self, k: int, parent_pos: int) -> tuple[int, int]:
        if k > self.weight.stage:
            return self.base.split(k, parent_pos)
        nums, star, _den = self._levels[k]
        if parent_pos == STAR:
            return star, nums[-1]
        return nums[parent_pos], nums[parent_pos + len(nums) // 2]

    def level_masses(self, k: int) -> tuple[np.ndarray, int, int]:
        K = self.weight.stage
        self.base.advance_to(k)
        if k <= K:
            return self._levels[k]
        # past K, copies take their origin's cell and new elements the reservoir's
        cells = np.array(self.weight.assignment, dtype=np.int64)
        for _ in range(K, k):
            cells = np.concatenate([cells, cells, [self.weight.star_cell]])
        nums = self._cell_weights[cells]
        nums.flags.writeable = False
        return nums, self._cell_weights[self.weight.star_cell], self._levels[K][2] << (k - K)


def rescale(handle: LimitHandle, weight: Weight) -> RescaledHandle:
    return RescaledHandle(handle, weight)


WEIGHT_PRESETS = ("identity", "p0-heavy", "p0-light")


def weight_preset(handle: LimitHandle, name: str, stage: int) -> Weight:
    """Three cells of one stage: the P0-true and P0-false elements, and the reservoir.

    "identity" targets the current masses. "p0-heavy" and "p0-light"
    keep the reservoir's mass and split the rest 3:1 and 1:3 between
    the P0-true and P0-false cells.
    """
    if name not in WEIGHT_PRESETS:
        raise LimitError(f"unknown weight preset {name!r}; have {WEIGHT_PRESETS}")
    st = handle.stage(stage)
    assignment = tuple(np.where(_bit_vector(handle.guide, st.uids, 0), 0, 1).tolist())
    if len(set(assignment)) < 2:
        raise LimitError(f"level 0 does not split stage {stage}")
    if name == "identity":
        # every element and the reservoir weigh 1/2^k
        masses = tuple(Fraction(n, st.den) for n in np.bincount([*assignment, 2]).tolist())
    else:
        star = st.mass(STAR)
        share = Fraction(3 if name == "p0-heavy" else 1, 4)  # the P0-true cell's part
        masses = ((1 - star) * share, (1 - star) * (1 - share), star)
    return Weight(stage, assignment, star_cell=2, masses=masses)


def estimate_marginal(handle: LimitHandle, level: int, trials: int,
                      seed: SeedKey, depth: int) -> float:
    """Monte Carlo mass of the level-`level` predicate under the handle's law."""
    if trials < 1:
        raise ValueError("trials must be positive")
    hits = 0
    for t in range(trials):
        point = PathPoint(handle, seed.child("point", t))
        point.extend_to(depth)
        k = depth
        while point.position(k) == STAR:
            k += 1
            point.extend_to(k)
        hits += handle.guide.bit(point.position(k), level)
    return hits / trials


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def build_manifest(handle: LimitHandle) -> dict:
    theory = handle.theory
    summaries = []
    for st in handle.stages:
        mm = st.max_mass()
        summaries.append(
            {
                "k": st.index,
                "size": st.size,
                "lang_size": len(st.lang),
                "new_symbols": list(st.new_symbols),
                "max_mass": f"{mm.numerator}/{mm.denominator}",
                "demand": list(st.demand) if st.demand else None,
            }
        )
    schedule = [
        {
            "k": e.k,
            "entry": e.entry,
            "sentence": e.pithy.label,
            "symbol": e.k,
        }
        for e in (schedule_entry(k, theory) for k in range(handle.depth))
    ]
    return {
        "kind": "build-limit",
        "guide": GUIDE_NAME,
        "base_depth": theory.base_depth,
        "scheme_prefix": theory.base_depth,
        "seed": handle.seed.hex,
        "stages": handle.depth,
        "schedule": schedule,
        "language": [
            {"id": sym, "name": theory.symbol(sym)[0], "arity": theory.symbol(sym)[1]}
            for sym in sorted(handle.stages[-1].lang)
        ],
        "stage_summaries": summaries,
        "checks": [r.as_dict() for r in handle.reports],
    }


def manifest_json(handle: LimitHandle) -> str:
    return json.dumps(build_manifest(handle), indent=2, sort_keys=True)


def handle_from_manifest(doc: dict, check: bool = False) -> LimitHandle:
    """Rebuild the limit a manifest describes and confirm it matches."""
    if doc.get("kind") != "build-limit":
        raise LimitError("not a build manifest")
    if doc["guide"] != GUIDE_NAME:
        raise LimitError(f"unknown guide {doc['guide']!r}")
    handle = build_limit(
        stages=doc["stages"],
        seed=SeedKey.from_hex(doc["seed"]),
        base_depth=doc["base_depth"],
        check=check,
    )
    rebuilt = build_manifest(handle)
    for key in ("stage_summaries", "schedule", "language"):
        if rebuilt[key] != doc[key]:
            raise LimitError(f"manifest mismatch in {key}")
    return handle
