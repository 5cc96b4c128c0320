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

All stage bookkeeping is integer arithmetic (numerators over a common
denominator); floating point appears only in Monte Carlo sampling.
Paths through the stage tree are sampled lazily from per-point seeds,
so structure sampling reads singleton randomness only.

The shipped guide oracle realizes the "kaleidoscope predicate" theory:
countably many independent unary predicates, extension axioms for every
pattern on the first two, and a scheme sentence forcing any two
elements that agree everywhere to be equal. Guide elements are lazily
decided bit sequences; all of its oracle answers are sound for every
finite set of queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import numpy as np

from .logic import FiniteStructure, Rel, Signature, eval_qf, map_leaves, qf_leaves
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
    QType,
    canonical_vars,
    morleyize,
    parse_fragment,
)
from .seeds import SeedKey, xi_bit, xi_raw

STAR = -1  # reservoir marker in position/parent arrays

# Bit-search cutoffs. Two lazily decided sequences that agree this long
# are treated as a hard oracle failure rather than searched forever;
# the probability of a false trip is 2**-256 per pair.
_SEPARATION_CAP = 256


class LimitError(ValueError):
    pass


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
    language: Signature
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

    def bits_read(self, sym: int) -> int:
        """Bitmask of predicate levels whose values determine this symbol."""
        kind, n = self.classify(sym)
        if kind in ("pred", "riff"):
            return 1 << n
        return self.node_bits[n]


def _formula_bits(phi: Fragment) -> int:
    """Predicate levels read by structural evaluation of a node formula.

    Scheme, equality, and quantified nodes are evaluated from element
    identity or held constant, so they read no bits at all.
    """
    if isinstance(phi, FAtom):
        return 1 << int(phi.rel.resolved()[1:])
    if isinstance(phi, FNot):
        return _formula_bits(phi.sub)
    if isinstance(phi, (FAnd, FOr)):
        out = 0
        for s in phi.subs:
            out |= _formula_bits(s)
        return out
    return 0


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

    tail_start = base_depth + len(result.nodes)

    def rule(k: int, _ts=tail_start, _d=base_depth, _res=result):
        if k < _d:
            return (f"P{k}", 1)
        if k < _ts:
            node = _res.nodes[k - _d]
            return (node.name, node.arity)
        t, r = divmod(k - _ts, 2)
        return (f"P{_d + t}", 1) if r == 0 else (f"Riff{_d + t}", 2)

    language = Signature((), generator=rule).materialize(tail_start)

    return BuildTheory(
        base_depth=base_depth,
        sentences=sentences,
        result=result,
        language=language,
        tail_start=tail_start,
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
    qtype: QType
    symbol: int


def schedule_entry(k: int, theory: BuildTheory) -> ScheduleEntry:
    """Deterministic recurring schedule.

    Stage k serves round-robin slot m where k+1 = 2^i * (2m+1); slot j
    therefore recurs at stages 2j, 4j+1, 8j+3, ... — every slot, and so
    every sentence and every omitted type, comes up infinitely often.
    Symbols enter in plain id order, one per stage.
    """
    if k < 0:
        raise LimitError("stage index must be nonnegative")
    v = k + 1
    v >>= (v & -v).bit_length() - 1
    m = (v - 1) // 2
    pithy = theory.result.pithy_axioms
    qtypes = theory.result.qtypes
    return ScheduleEntry(
        k=k,
        entry=m,
        pithy=pithy[m % len(pithy)],
        qtype=qtypes[m % len(qtypes)],
        symbol=k,
    )


# ---------------------------------------------------------------------------
# guide oracle
# ---------------------------------------------------------------------------


class GuideError(LimitError):
    pass


class KaleidoscopePredicateGuide:
    """Lazily decided bit-sequence elements over the predicate levels.

    Each element handle owns an infinite sequence of fair bits, one per
    predicate level, decided on first query from a keyed PRF. A
    duplicate routes an agreed-upon set of levels to its original (so
    the pair agrees on every materialized symbol, whenever decided) and
    draws everything else fresh. Relation queries evaluate the node
    formulas structurally over bits; the scheme node and equality are
    answered from handle identity, and quantified nodes are constants.
    Those identity/constant answers are sound for every finite query
    set: no finite collection of bits can certify that two distinct
    handles agree at all levels.
    """

    def __init__(self, key: SeedKey, theory: BuildTheory | None = None):
        self.theory = theory if theory is not None else build_theory()
        self._bitkey = key.child("guide-bits")
        self._mask: list[int] = []  # decided levels, per handle
        self._vals: list[int] = []
        self._origin: list[int] = []  # duplicate's source handle, or -1
        self._routed: list[int] = []  # levels answered by the source
        self._env_cache: dict[int, tuple[str, ...]] = {}

    # -- handles -----------------------------------------------------------

    def _new(self, origin: int = -1, routed: int = 0, mask: int = 0, vals: int = 0) -> int:
        uid = len(self._mask)
        self._mask.append(mask)
        self._vals.append(vals)
        self._origin.append(origin)
        self._routed.append(routed)
        return uid

    def fresh(self) -> int:
        return self._new()

    def duplicate(self, handle: int, routed_levels: int) -> int:
        """Copy agreeing with `handle` on every level in the mask."""
        return self._new(origin=handle, routed=routed_levels)

    def witness_for_pattern(self, mask: int, bits: int) -> int:
        """Fresh element with the given levels pre-decided."""
        return self._new(mask=mask, vals=bits & mask)

    @property
    def size(self) -> int:
        return len(self._mask)

    # -- bits ----------------------------------------------------------------

    def bit(self, handle: int, level: int) -> int:
        m = self._mask[handle]
        if (m >> level) & 1:
            return (self._vals[handle] >> level) & 1
        if self._origin[handle] >= 0 and (self._routed[handle] >> level) & 1:
            v = self.bit(self._origin[handle], level)
        else:
            v = xi_bit(self._bitkey, (handle,), level)
        self._mask[handle] = m | (1 << level)
        if v:
            self._vals[handle] |= 1 << level
        return v

    # -- relations -----------------------------------------------------------

    def fact(self, sym: int, handles: tuple[int, ...]) -> bool:
        kind, n = self.theory.classify(sym)
        if kind == "pred":
            return self.bit(handles[0], n) == 1
        if kind == "riff":
            return self.bit(handles[0], n) == self.bit(handles[1], n)
        node = self.theory.result.nodes[n]
        env_vars = self._env_cache.get(n)
        if env_vars is None:
            env_vars = canonical_vars(node.formula)
            self._env_cache[n] = env_vars
        if len(env_vars) != len(handles):
            raise GuideError(f"arity mismatch for {node.name}")
        return self._eval(node.formula, dict(zip(env_vars, handles)))

    def _eval(self, phi: Fragment, env: dict) -> bool:
        if isinstance(phi, FAtom):
            level = int(phi.rel.resolved()[1:])
            return self.bit(env[phi.args[0]], level) == 1
        if isinstance(phi, FEq):
            return env[phi.left] == env[phi.right]
        if isinstance(phi, FNot):
            return not self._eval(phi.sub, env)
        if isinstance(phi, FAnd):
            return all(self._eval(s, env) for s in phi.subs)
        if isinstance(phi, FOr):
            return any(self._eval(s, env) for s in phi.subs)
        if isinstance(phi, FSchemeAnd):
            # total agreement collapses to identity: distinct handles
            # differ at some level with certainty under the bit model
            return len(set(env[v] for v in canonical_vars(phi))) == 1
        if isinstance(phi, (FForall, FExists)):
            # closed under the guided theory; constant on all elements
            return True
        if isinstance(phi, FSchemeOr):
            raise GuideError("disjunctive schemes are outside this guide's theory")
        raise GuideError(f"cannot evaluate {phi!r}")

    # -- separation ------------------------------------------------------------

    def separating_level(self, a: int, b: int, start: int = 0) -> int:
        """First level >= start where the two bit sequences differ."""
        if a == b:
            raise GuideError("identical handles never separate")
        for n in range(start, start + _SEPARATION_CAP):
            if self.bit(a, n) != self.bit(b, n):
                return n
        raise GuideError(f"handles {a} and {b} agree on {_SEPARATION_CAP} levels")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    """One level of the construction.

    Masses are numerators over the shared denominator; `split` is the
    size of the previous stage, so positions < split are carried
    originals, positions in [split, 2*split) are their copies in order,
    and positions >= 2*split are this stage's new elements (projecting
    to the reservoir).
    """

    index: int
    uids: list[int]
    nums: list[int]
    star_num: int
    den: int
    lang: frozenset[int]
    split: int
    inherit_levels: int  # bitmask: levels determined by the materialized language
    new_symbols: tuple[int, ...] = ()
    witness_uid: int | None = None
    demand: tuple[int, int] | None = None  # pattern the scheduled axiom required

    def parent_position(self, pos: int) -> int:
        if pos < self.split:
            return pos
        if pos < 2 * self.split:
            return pos - self.split
        return STAR

    def mass(self, pos: int) -> Fraction:
        if pos == STAR:
            return Fraction(self.star_num, self.den)
        return Fraction(self.nums[pos], self.den)

    @property
    def size(self) -> int:
        return len(self.uids)

    def max_mass(self) -> Fraction:
        best = self.star_num
        if self.nums:
            best = max(best, max(self.nums))
        return Fraction(best, self.den)


def init_stage0() -> Stage:
    return Stage(
        index=0,
        uids=[],
        nums=[],
        star_num=1,
        den=1,
        lang=frozenset(),
        split=0,
        inherit_levels=0,
    )


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
    n = 0
    while mask >> n:
        if (mask >> n) & 1 and guide.bit(uid, n) != (bits >> n) & 1:
            return False
        n += 1
    return True


def advance_stage(stage: Stage, guide: KaleidoscopePredicateGuide,
                  entry: ScheduleEntry) -> Stage:
    if entry.k != stage.index:
        raise LimitError(f"schedule entry {entry.k} does not follow stage {stage.index}")
    theory = guide.theory
    m = stage.size

    # Step 1: split every element, the copy agreeing on the current language.
    copies = [guide.duplicate(u, stage.inherit_levels) for u in stage.uids]
    uids = list(stage.uids) + copies

    # Step 2: witness the scheduled extension demand, or admit one plain
    # element so the reservoir always splits.
    pattern = _witness_requirement(theory, entry.pithy)
    if pattern is None:
        if not uids:
            raise LimitError("agreement axiom scheduled before any element exists")
        fresh = guide.fresh()
    else:
        mask, bits = pattern
        if any(_matches(guide, u, mask, bits) for u in uids):
            fresh = guide.fresh()
        else:
            fresh = guide.witness_for_pattern(mask, bits)
    uids.append(fresh)

    # Step 3: halve carried masses; the reservoir splits evenly between
    # the new element and the reservoir itself (N = 2 throughout, since
    # at most one witness is ever needed per stage).
    n_new = 1
    big_n = n_new + 1
    nums = [v * big_n for v in stage.nums] * 2
    nums.extend([stage.star_num * 2] * n_new)
    star_num = stage.star_num * 2
    den = stage.den * 2 * big_n
    common = gcd(star_num, den)
    for v in nums:
        if common == 1:
            break
        common = gcd(common, v)
    if common > 1:
        nums = [v // common for v in nums]
        star_num //= common
        den //= common

    # Step 4: admit the enumerated symbol and enough agreement symbols
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

    admit(entry.symbol)
    admit(theory.sc_symbol)

    pair_start = stage.inherit_levels.bit_length()
    for orig, copy in zip(stage.uids, copies):
        level = guide.separating_level(orig, copy, start=pair_start)
        admit(theory.pred_symbol(level))
        admit(theory.iff_symbol(level))

    # the new element against everyone: peel a prefix bucket until it
    # stands alone, admitting the level at which each batch departs
    bucket = [u for u in uids if u != fresh]
    level = 0
    while bucket:
        want = guide.bit(fresh, level)
        stay = [u for u in bucket if guide.bit(u, level) == want]
        if len(stay) < len(bucket):
            admit(theory.pred_symbol(level))
            admit(theory.iff_symbol(level))
        bucket = stay
        level += 1
        if level > _SEPARATION_CAP + stage.index:
            raise GuideError("new element failed to separate from the stage")

    inherit = 0
    for sym in lang:
        inherit |= theory.bits_read(sym)

    return Stage(
        index=stage.index + 1,
        uids=uids,
        nums=nums,
        star_num=star_num,
        den=den,
        lang=frozenset(lang),
        split=m,
        inherit_levels=inherit,
        new_symbols=tuple(sorted(added)),
        witness_uid=fresh,
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
    type_witness: tuple | None
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


def _bit_vector(guide: KaleidoscopePredicateGuide, uids, level: int) -> np.ndarray:
    return np.fromiter((guide.bit(u, level) for u in uids), dtype=bool, count=len(uids))


def _fact_array(guide: KaleidoscopePredicateGuide, theory: BuildTheory,
                sym: int, uids: list[int]):
    """Relation table over the given elements, vectorized per symbol class.

    Returns a scalar bool (arity 0), a vector (arity 1), or a matrix
    (arity 2) matching guide.fact pointwise.
    """
    kind, n = theory.classify(sym)
    size = len(uids)
    if kind == "pred":
        return _bit_vector(guide, uids, n)
    if kind == "riff":
        v = _bit_vector(guide, uids, n)
        return v[:, None] == v[None, :]
    node = theory.result.nodes[n]
    arity = node.arity
    var_axis = {v: i for i, v in enumerate(canonical_vars(node.formula))}

    def rec(phi: Fragment):
        if isinstance(phi, FAtom):
            level = int(phi.rel.resolved()[1:])
            v = _bit_vector(guide, uids, level)
            if arity <= 1:
                return v
            return v[:, None] if var_axis[phi.args[0]] == 0 else v[None, :]
        if isinstance(phi, FEq):
            return np.eye(size, dtype=bool)
        if isinstance(phi, FSchemeAnd):
            return np.eye(size, dtype=bool)
        if isinstance(phi, FNot):
            return ~rec(phi.sub)
        if isinstance(phi, FAnd):
            out = rec(phi.subs[0])
            for s in phi.subs[1:]:
                out = out & rec(s)
            return out
        if isinstance(phi, FOr):
            out = rec(phi.subs[0])
            for s in phi.subs[1:]:
                out = out | rec(s)
            return out
        if isinstance(phi, (FForall, FExists)):
            shape = () if arity == 0 else (size,) * arity
            return np.ones(shape, dtype=bool)
        raise GuideError(f"cannot tabulate {phi!r}")

    table = rec(node.formula)
    if arity == 0:
        return bool(np.all(table))
    return np.broadcast_to(table, (size,) * arity)


def stage_invariants(prev: Stage, nxt: Stage,
                     guide: KaleidoscopePredicateGuide) -> StageReport:
    """Exact audit of one advancement.

    Pushforward: each previous element's mass equals the sum over its
    fiber; the reservoir's mass equals the reservoir plus all new
    elements. Type preservation: over the previous language, every
    relation answer on carried/copied elements matches the projected
    tuple, for every argument tuple whose distinct entries project
    injectively (pairs mixing an element with its own copy project
    non-injectively and are exempt). Both checks are integer-exact.
    """
    theory = guide.theory
    m = prev.size
    mass_total = sum(nxt.nums) + nxt.star_num == nxt.den
    mass_positive = nxt.star_num > 0 and all(v > 0 for v in nxt.nums)
    bound = nxt.max_mass() <= Fraction(1, 2**nxt.index)

    pushforward_ok = True
    pushforward_witness: int | None = None
    for i in range(m):
        lhs = Fraction(nxt.nums[i] + nxt.nums[m + i], nxt.den)
        if lhs != prev.mass(i):
            pushforward_ok = False
            pushforward_witness = i
            break
    if pushforward_ok:
        fiber = nxt.star_num + sum(nxt.nums[2 * m:])
        if Fraction(fiber, nxt.den) != prev.mass(STAR):
            pushforward_ok = False
            pushforward_witness = STAR

    carried = nxt.uids[: 2 * m]
    parent = np.arange(2 * m) % m if m else np.zeros(0, dtype=int)
    type_ok = True
    type_witness = None
    for sym in sorted(prev.lang):
        arity = theory.language.materialize(sym + 1).arity(sym)
        if arity == 0:
            if guide.fact(sym, ()) != guide.fact(sym, ()):
                type_ok, type_witness = False, (sym, ())
                break
            continue
        if m == 0:
            continue
        new_tab = _fact_array(guide, theory, sym, carried)
        old_tab = _fact_array(guide, theory, sym, prev.uids)
        if arity == 1:
            bad = new_tab != old_tab[parent]
            if bad.any():
                pos = int(np.argmax(bad))
                type_ok, type_witness = False, (sym, (pos,))
                break
        elif arity == 2:
            eligible = parent[:, None] != parent[None, :]
            np.fill_diagonal(eligible, True)
            bad = (new_tab != old_tab[np.ix_(parent, parent)]) & eligible
            if bad.any():
                p, q = np.unravel_index(int(np.argmax(bad)), bad.shape)
                type_ok, type_witness = False, (sym, (int(p), int(q)))
                break
        else:  # pragma: no cover - the guided language is binary at most
            for args in product(range(2 * m), repeat=arity):
                if len({parent[a] for a in args}) < len(set(args)):
                    continue
                got = guide.fact(sym, tuple(carried[a] for a in args))
                want = guide.fact(sym, tuple(prev.uids[parent[a]] for a in args))
                if got != want:
                    type_ok, type_witness = False, (sym, args)
                    break
            if not type_ok:
                break

    # the scheduled demand must be met inside the stage by an element of
    # positive mass (an extension pattern by a matching element, an
    # agreement axiom by anything at all)
    if nxt.demand is None:
        strong = nxt.size > 0
    else:
        mask, bits = nxt.demand
        strong = any(
            nxt.nums[pos] > 0 and _matches(guide, u, mask, bits)
            for pos, u in enumerate(nxt.uids)
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


def _fiber(st: Stage, parent_pos: int, nums: list[int], star_num: int,
           den: int) -> tuple[list[int], list[int], int]:
    """Children of a stage-k position at stage k+1 = st, with their masses.

    A carried element's children are itself and its copy; the reservoir's
    are the reservoir and the new elements. `nums`, `star_num` and `den`
    are stage st's masses.
    """
    if parent_pos == STAR:
        return [STAR, *range(2 * st.split, st.size)], [star_num, *nums[2 * st.split:]], den
    positions = [parent_pos, st.split + parent_pos]
    return positions, [nums[p] for p in positions], den


class LimitHandle:
    """Built stages plus the guide, extended on demand."""

    def __init__(self, seed: SeedKey, theory: BuildTheory | None = None):
        self.seed = seed
        self.theory = theory if theory is not None else build_theory()
        self.guide = KaleidoscopePredicateGuide(seed, self.theory)
        self.stages: list[Stage] = [init_stage0()]
        self.reports: list[StageReport] = []
        self.checked_to = 0

    def stage(self, k: int) -> Stage:
        self.advance_to(k)
        return self.stages[k]

    def advance_to(self, k: int, check: bool = False) -> None:
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
                    raise LimitError(f"stage {report.k} failed its exact checks")

    @property
    def depth(self) -> int:
        return len(self.stages) - 1

    def fiber(self, k_child: int, parent_pos: int) -> tuple[list[int], list[int], int]:
        """(child positions, child numerators, denominator); STAR is a child of STAR."""
        st = self.stage(k_child)
        return _fiber(st, parent_pos, st.nums, st.star_num, st.den)

    def level_masses(self, k: int) -> tuple[list[int], int, int]:
        st = self.stage(k)
        return list(st.nums), st.star_num, st.den


def build_limit(stages: int, seed: SeedKey, base_depth: int = 4,
                check: bool = True) -> LimitHandle:
    handle = LimitHandle(seed, build_theory(base_depth=base_depth))
    handle.advance_to(stages, check=check)
    return handle


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class PathPoint:
    """A point of the limit: one consistent choice through the fibers.

    Extended lazily; the trace below the first non-reservoir level is
    all-reservoir by construction, and since the reservoir mass shrinks
    to zero the point leaves it after finitely many levels with
    certainty. Each level consumes one 53-bit draw from the point's own
    seed, so two points with distinct seeds are independent.
    """

    def __init__(self, handle: LimitHandle, key: SeedKey):
        self.handle = handle
        self.key = key
        self.positions: list[int] = [STAR]

    def extend_to(self, depth: int) -> None:
        while len(self.positions) <= depth:
            k_child = len(self.positions)
            positions, nums, _den = self.handle.fiber(k_child, self.positions[-1])
            total = sum(nums)
            draw = xi_raw(self.key, (k_child,)) >> 11
            # exact threshold selection: child c owns [cum, cum + num)/total
            target = draw * total
            cum = 0
            chosen = positions[-1]
            for pos, num in zip(positions, nums):
                cum += num << 53
                if target < cum:
                    chosen = pos
                    break
            self.positions.append(chosen)

    def position(self, k: int) -> int:
        self.extend_to(k)
        return self.positions[k]

    def uid(self, k: int) -> int | None:
        pos = self.position(k)
        if pos == STAR:
            return None
        return self.handle.stage(k).uids[pos]


def sample_point(handle: LimitHandle, depth: int, seed: SeedKey) -> PathPoint:
    point = PathPoint(handle, seed)
    point.extend_to(depth)
    return point


@dataclass
class LimitSample:
    structure: FiniteStructure
    symbol_ids: tuple[int, ...]
    uids: tuple[int, ...]
    depth: int
    read_level: int


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
    guessing.
    """
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
    sig_syms = []
    concrete = theory.language.materialize((max(lang_ids) + 1) if lang_ids else 0)
    for sym in lang_ids:
        sig_syms.append((concrete.name(sym), concrete.arity(sym)))
    signature = Signature(tuple(sig_syms))

    uids = tuple(pt.uid(level) for pt in points)
    facts = set()
    for local, sym in enumerate(lang_ids):
        arity = signature.arity(local)
        for args in product(range(m), repeat=arity):
            if handle.guide.fact(sym, tuple(uids[a] for a in args)):
                facts.add((local, args))
    structure = FiniteStructure(signature, m, frozenset(facts))
    return LimitSample(
        structure=structure,
        symbol_ids=lang_ids,
        uids=uids,
        depth=depth,
        read_level=level,
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
    mapping = {sym: i for i, sym in enumerate(sample.symbol_ids)}
    matrix = map_leaves(
        axiom.matrix, lambda f: Rel(mapping[f.sym], f.args) if isinstance(f, Rel) else f
    )
    n = sample.structure.domain_size
    if axiom.prefix and n == 0:
        return True

    def rec(pos: int, assignment: tuple[int, ...]) -> bool:
        if pos == len(axiom.prefix):
            return eval_qf(sample.structure, matrix, assignment)
        pick = all if axiom.prefix[pos] == "A" else any
        return pick(rec(pos + 1, assignment + (d,)) for d in range(n))

    return rec(0, ())


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
    struct = sample.structure
    n = struct.domain_size
    for x in range(n):
        for y in range(n):
            if all(struct.holds(local, (x, y)) == want for local, want in literals):
                return False
    return True


def unary_fingerprints(sample: LimitSample) -> list[tuple[bool, ...]]:
    """Per-element truth vector over the materialized unary symbols."""
    unary = [
        i
        for i in range(len(sample.symbol_ids))
        if sample.structure.signature.arity(i) == 1
    ]
    return [
        tuple(sample.structure.holds(i, (x,)) for i in unary)
        for x in range(sample.structure.domain_size)
    ]


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """Target masses for a partition of one stage's elements plus the reservoir."""

    stage: int
    labels: tuple[str, ...]
    assignment: tuple[int, ...]  # cell per element position
    star_cell: int
    masses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cells = len(self.labels)
        used = set(self.assignment) | {self.star_cell}
        if not used <= set(range(cells)):
            raise LimitError("cell index out of range")
        if used != set(range(cells)):
            raise LimitError("every cell must be nonempty")
        if any(w <= 0 for w in self.masses):
            raise LimitError("cell masses must be positive")
        if len(self.masses) != cells:
            raise LimitError("one mass per cell required")
        if sum(self.masses, Fraction(0)) != 1:
            raise LimitError("cell masses must sum to 1")


class RescaledHandle:
    """View of a built limit with the measure reweighted on one stage.

    Each cell's total mass is scaled to its target; the conditional
    distribution inside every cell — and inside every fiber at or past
    the weight's stage, where the multiplier is constant — is left
    untouched. Levels above the weight's stage take the reweighted
    masses pushed down through the fibers.
    """

    def __init__(self, base: LimitHandle, weight: Weight):
        st = base.stage(weight.stage)
        if len(weight.assignment) != st.size:
            raise LimitError("weight partition does not match the stage")
        self.base = base
        self.weight = weight

        cell_mass = [Fraction(0)] * len(weight.labels)
        for pos, cell in enumerate(weight.assignment):
            cell_mass[cell] += st.mass(pos)
        cell_mass[weight.star_cell] += st.mass(STAR)
        if any(v == 0 for v in cell_mass):
            raise LimitError("empty cell cannot receive mass")
        self.multipliers = tuple(
            weight.masses[c] / cell_mass[c] for c in range(len(weight.labels))
        )

        # exact masses at the weight's stage, then summed down the fibers
        self._levels: list[tuple[list[int], int, int]] = [None] * (weight.stage + 1)
        self._levels[weight.stage] = self.level_masses(weight.stage)
        for k in range(weight.stage - 1, -1, -1):
            child = base.stage(k + 1)
            sums = [
                sum(_fiber(child, pos, *self._levels[k + 1])[1])
                for pos in (*range(base.stage(k).size), STAR)
            ]
            self._levels[k] = (sums[:-1], sums[-1], self._levels[k + 1][2])

    def __getattr__(self, name):
        # stages, the schedule, the theory and the guide come from the base build
        return getattr(self.base, name)

    def cell_of(self, k: int, pos: int) -> int:
        """Weight cell owning a stage-k position (k >= the weight's stage)."""
        if k < self.weight.stage:
            raise LimitError("positions below the weight's stage span cells")
        while k > self.weight.stage:
            st = self.base.stage(k)
            pos = st.parent_position(pos)
            if pos == STAR:
                return self.weight.star_cell
            k -= 1
        return self.weight.assignment[pos] if pos != STAR else self.weight.star_cell

    def fiber(self, k_child: int, parent_pos: int):
        if k_child > self.weight.stage:
            # past the weight's stage every fiber sits inside one cell,
            # so the multiplier cancels from the conditional draw
            return self.base.fiber(k_child, parent_pos)
        return _fiber(self.base.stage(k_child), parent_pos, *self._levels[k_child])

    def level_masses(self, k: int) -> tuple[list[int], int, int]:
        if k < self.weight.stage:
            nums, star, den = self._levels[k]
            return list(nums), star, den
        st = self.base.stage(k)
        fracs = [st.mass(pos) * self.multipliers[self.cell_of(k, pos)] for pos in range(st.size)]
        fracs.append(st.mass(STAR) * self.multipliers[self.weight.star_cell])
        den = lcm(*(f.denominator for f in fracs))
        nums = [int(f * den) for f in fracs]
        return nums[:-1], nums[-1], den


def rescale(handle: LimitHandle, weight: Weight) -> RescaledHandle:
    return RescaledHandle(handle, weight)


def weight_by_level(handle: LimitHandle, stage: int, level: int = 0,
                    ratio: tuple[int, int] = (1, 1)) -> Weight:
    """Two cells split by one predicate level, reservoir kept apart.

    The reservoir cell keeps its current mass; the rest is divided
    between the level-true and level-false cells in the given ratio.
    """
    st = handle.stage(stage)
    if st.size == 0:
        raise LimitError("cannot partition an empty stage")
    assignment = tuple(
        0 if handle.guide.bit(u, level) else 1 for u in st.uids
    )
    if len(set(assignment)) < 2:
        raise LimitError(f"level {level} does not split stage {stage}")
    star_share = st.mass(STAR)
    rest = 1 - star_share
    a, b = ratio
    if a <= 0 or b <= 0:
        raise LimitError("ratio parts must be positive")
    masses = (
        rest * Fraction(a, a + b),
        rest * Fraction(b, a + b),
        star_share,
    )
    return Weight(
        stage=stage,
        labels=(f"P{level}-true", f"P{level}-false", "reservoir"),
        assignment=assignment,
        star_cell=2,
        masses=masses,
    )


def weight_identity(handle: LimitHandle, stage: int, level: int = 0) -> Weight:
    """Same partition as weight_by_level but targeting the current masses."""
    st = handle.stage(stage)
    assignment = tuple(
        0 if handle.guide.bit(u, level) else 1 for u in st.uids
    )
    if len(set(assignment)) < 2:
        raise LimitError(f"level {level} does not split stage {stage}")
    cell_mass = [Fraction(0), Fraction(0), st.mass(STAR)]
    for pos, cell in enumerate(assignment):
        cell_mass[cell] += st.mass(pos)
    return Weight(
        stage=stage,
        labels=(f"P{level}-true", f"P{level}-false", "reservoir"),
        assignment=assignment,
        star_cell=2,
        masses=tuple(cell_mass),
    )


WEIGHT_PRESETS = ("identity", "p0-heavy", "p0-light")


def weight_preset(handle: LimitHandle, name: str, stage: int) -> Weight:
    if name == "identity":
        return weight_identity(handle, stage)
    if name == "p0-heavy":
        return weight_by_level(handle, stage, level=0, ratio=(3, 1))
    if name == "p0-light":
        return weight_by_level(handle, stage, level=0, ratio=(1, 3))
    raise LimitError(f"unknown weight preset {name!r}; have {WEIGHT_PRESETS}")


def estimate_marginal(handle: LimitHandle, level: int, trials: int,
                      seed: SeedKey, depth: int) -> float:
    """Monte Carlo mass of the level-`level` predicate under the handle's law."""
    hits = 0
    for t in range(trials):
        point = PathPoint(handle, seed.child("point", t))
        point.extend_to(depth)
        k = depth
        while point.position(k) == STAR:
            k += 1
            point.extend_to(k)
        hits += handle.guide.bit(point.uid(k), level)
    return hits / trials


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def build_manifest(handle: LimitHandle) -> dict:
    theory = handle.theory
    concrete = theory.language.materialize(
        max((max(st.lang, default=0) for st in handle.stages), default=0) + 1
    )
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
            "symbol": e.symbol,
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
            {"id": sym, "name": concrete.name(sym), "arity": concrete.arity(sym)}
            for sym in sorted(handle.stages[-1].lang)
        ],
        "stage_summaries": summaries,
        "checks": [r.as_dict() for r in handle.reports],
    }


def manifest_json(handle: LimitHandle) -> str:
    return json.dumps(build_manifest(handle), indent=2, sort_keys=True)


def handle_from_manifest(doc: dict | str, check: bool = False) -> LimitHandle:
    """Rebuild the limit a manifest describes and confirm it matches."""
    if isinstance(doc, str):
        doc = json.loads(doc)
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
