"""Gallery samplers against hand-computed and numerically integrated targets."""

import functools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from ergodic.engine import coherence_check, estimate_measure, sample
from ergodic.gallery import (
    GALLERY,
    MAX_ORDERING_BITS,
    BipartiteLabels,
    BlowupControl,
    GeometricGraph,
    KaleidoscopeDigraph,
    KaleidoscopeHypergraph,
    MaxGraph,
    MixtureControl,
    _BULK_KSETS,
    _orderings,
    parse_sampler_spec,
    truncated_geometric,
)
from ergodic.fixtures import BrokenSupersetSampler, EmptySampler, IndexKeyedSampler
from ergodic.logic import CeilingError, FiniteStructure, Rel, _atom_bit, _layout, qf_fingerprint
from ergodic.seeds import BITS_PER_STREAM, SeedKey, XiFamily

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")
EDGE = Rel(0, (0, 1))

# Two uniform points on [0,2]^2: each difference coordinate has the
# triangular density (2-|d|)/4, and integrating the product over the
# unit disc gives (pi - 29/24)/4. Cross-checked against scipy.dblquad,
# which agrees to 1e-10.
P_CLOSE_EUCLID_2D = (math.pi - 29 / 24) / 4
P_CLOSE_SUP = 9 / 16  # (3/4)^2, one triangular axis integral per coordinate


def stderr(p, n):
    return math.sqrt(p * (1 - p) / n)


def test_truncated_geometric_boundaries():
    assert truncated_geometric(0.0, 4) == 0
    assert truncated_geometric(0.49, 4) == 0
    assert truncated_geometric(0.5, 4) == 1
    assert truncated_geometric(0.74, 4) == 1
    assert truncated_geometric(0.75, 4) == 2
    assert truncated_geometric(0.999999, 4) == 3  # tail lumped on the last class


def test_kaleidoscope_relations_symmetric_irreflexive():
    fp = KaleidoscopeHypergraph(2, 3).type_fn(4, XiFamily(SEED))
    for sym in range(3):
        for i in range(4):
            assert not fp.has(sym, (i, i))
            for j in range(4):
                assert fp.has(sym, (i, j)) == fp.has(sym, (j, i))


def test_kaleidoscope_triple_needs_three_distinct():
    fp = KaleidoscopeHypergraph(3, 1).type_fn(3, XiFamily(SEED))
    assert not fp.has(0, (0, 1, 1))
    assert fp.has(0, (0, 1, 2)) == fp.has(0, (2, 0, 1))


def test_kaleidoscope_edge_measure():
    rep = estimate_measure(KaleidoscopeHypergraph(2, 1), EDGE, 4000, SEED)
    assert abs(float(rep.estimate) - 0.5) < 4 * rep.stderr


def test_geometric_sup_norm_measure():
    target = 0.5 * P_CLOSE_SUP
    rep = estimate_measure(GeometricGraph(2, "sup"), EDGE, 4000, SEED)
    assert abs(float(rep.estimate) - target) < 4 * stderr(target, 4000)


def test_geometric_euclidean_measure():
    target = 0.5 * P_CLOSE_EUCLID_2D
    rep = estimate_measure(GeometricGraph(2, "euclidean"), EDGE, 4000, SEED)
    assert abs(float(rep.estimate) - target) < 4 * stderr(target, 4000)


def test_geometric_pinned_points_isolate_the_coin():
    close = GeometricGraph(2, "euclidean", 0.3,
                           point_override={0: (0.0, 0.0), 1: (0.5, 0.0)})
    rep = estimate_measure(close, EDGE, 3000, SEED)
    assert abs(float(rep.estimate) - 0.3) < 4 * stderr(0.3, 3000)
    far = GeometricGraph(2, "euclidean", 0.3,
                         point_override={0: (0.0, 0.0), 1: (2.0, 2.0)})
    assert estimate_measure(far, EDGE, 200, SEED).estimate == 0


def test_geometric_validates_parameters():
    with pytest.raises(ValueError):
        GeometricGraph(0)
    with pytest.raises(ValueError):
        GeometricGraph(2, "manhattan")
    with pytest.raises(ValueError):
        GeometricGraph(2, "sup", 1.5)


def test_blowup_class_probabilities():
    b = BlowupControl(3)
    probs = [b.class_probability(c) for c in range(b.num_classes)]
    assert sum(probs) == 1
    assert probs[0] == Fraction(1, 2)
    assert probs[-1] == probs[-2]  # the tail is lumped onto the last class
    with pytest.raises(ValueError):
        b.class_probability(b.num_classes)


def test_blowup_same_class_iff_related():
    fp = BlowupControl(3).type_fn(6, XiFamily(SEED))
    for i in range(6):
        assert fp.has(0, (i, i))
        for j in range(6):
            # E is an equivalence; unary bits agree exactly on E-classes
            same_bits = all(fp.has(m, (i,)) == fp.has(m, (j,)) for m in range(1, 4))
            assert fp.has(0, (i, j)) == same_bits


def test_max_graph_type_is_the_max_prefix():
    fp = MaxGraph(4).type_fn(5, XiFamily(SEED))
    for sym in range(4):
        for i in range(5):
            assert not fp.has(sym, (i, i))
            for j in range(5):
                assert fp.has(sym, (i, j)) == fp.has(sym, (j, i))


def test_digraph_loops_mark_one_side():
    fp = KaleidoscopeDigraph(3).type_fn(8, XiFamily(SEED))
    loop = [fp.has(0, (i, i)) for i in range(8)]
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            if fp.has(0, (i, j)):
                # facts point into the loop side only
                assert loop[j]
    # the loop side is totally preordered
    o_side = [i for i in range(8) if loop[i]]
    for i in o_side:
        for j in o_side:
            if i != j:
                assert fp.has(0, (i, j)) or fp.has(0, (j, i))


def test_digraph_loop_measure_half():
    rep = estimate_measure(KaleidoscopeDigraph(2), Rel(0, (0, 0)), 4000, SEED)
    assert abs(float(rep.estimate) - 0.5) < 4 * stderr(0.5, 4000)


def test_bipartite_shape_constraints():
    s = BipartiteLabels(2, 3)
    fp = s.type_fn(6, XiFamily(SEED))
    marked = [fp.has(0, (i,)) for i in range(6)]
    for x in range(6):
        for y in range(6):
            if x == y:
                continue
            held = [
                (i, j)
                for i in range(2)
                for j in range(3)
                if fp.has(1 + i * 3 + j, (x, y))
            ]
            if held:
                assert marked[x] and not marked[y]
                labels = {i for i, _ in held}
                assert len(labels) == 1  # one label per pair
                js = sorted(j for _, j in held)
                assert js == list(range(len(js)))  # columns are downward closed


def test_bipartite_first_cell_measure():
    # marked(x) * unmarked(y) * P(label = 0) = 1/2 * 1/2 * 1/2, and a
    # materialized column always has height >= 1
    rep = estimate_measure(BipartiteLabels(2, 2), Rel(1, (0, 1)), 4000, SEED)
    assert abs(float(rep.estimate) - 0.125) < 4 * stderr(0.125, 4000)


def test_mixture_validates_density():
    with pytest.raises(ValueError):
        MixtureControl(-0.1, 0.5)


def test_parse_sampler_spec_covers_gallery():
    specs = {
        "kaleidoscope": "kaleidoscope:k=2,d=3",
        "maxgraph": "maxgraph:d=4",
        "geometric": "geometric:dim=2,norm=sup,p=0.25",
        "blowup": "blowup:d=3",
        "digraph": "digraph:d=2",
        "bipartite": "bipartite:i=2,j=2",
        "mixture": "mixture:p1=0.1,p2=0.9",
    }
    assert set(specs) == set(GALLERY)
    for spec in specs.values():
        sampler = parse_sampler_spec(spec)
        assert sampler.signature is not None


def test_parse_sampler_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_sampler_spec("wat:x=1")
    with pytest.raises(ValueError):
        parse_sampler_spec("kaleidoscope:k=2,bogus=3")
    with pytest.raises(ValueError, match="repeated parameter 'i'"):
        parse_sampler_spec("bipartite:i=1,j=1,i=2")


def test_sampled_structures_are_reproducible():
    a = sample(KaleidoscopeDigraph(2), 6, SEED)
    b = sample(KaleidoscopeDigraph(2), 6, SEED)
    assert a.facts == b.facts


# ---------------------------------------------------------------------------
# type functions against the atom-by-atom rule their docstrings state
# ---------------------------------------------------------------------------


def read_off(sampler, n, holds):
    """Fingerprint of (0..n-1) in the structure whose facts are the atoms where holds."""
    sig = sampler.signature
    facts = frozenset(
        (sym, t)
        for sym in range(len(sig))
        for t in product(range(n), repeat=sig.arity(sym))
        if holds(sym, t)
    )
    return qf_fingerprint(FiniteStructure(sig, n, facts), tuple(range(n)))


def reference_kaleidoscope(sampler, n, xs):
    """R_m on a tuple: injective k-tuple and bit m of its set's value is 1."""

    def holds(sym, t):
        s = frozenset(t)
        return len(s) == sampler.k and xs.bit(s, sym) == 1

    return read_off(sampler, n, holds)


def reference_maxgraph(sampler, n, xs):
    """R_m(i, j): i != j and bit m of max(prefix_i, prefix_j) is set."""
    d = sampler.d

    @functools.cache
    def prefix(i):
        return xs.prefix((i,), d)

    def holds(sym, t):
        i, j = t
        if i == j:
            return False
        return max(prefix(i), prefix(j)) >> (d - 1 - sym) & 1 == 1

    return read_off(sampler, n, holds)


def reference_geometric(sampler, n, xs):
    """Edge iff the points lie within norm distance 1 and the pair coin is below p."""

    def point(i):
        if i in sampler.point_override:
            return sampler.point_override[i]
        return tuple(2.0 * xs.value((i,), c) for c in range(sampler.dim))

    def holds(sym, t):
        i, j = t
        if i == j:
            return False
        gaps = [x - y for x, y in zip(point(i), point(j))]
        if sampler.norm == "euclidean":
            close = sum(g * g for g in gaps) < 1.0
        else:
            close = max(abs(g) for g in gaps) < 1.0
        return close and xs.value(frozenset(t)) < sampler.p

    return read_off(sampler, n, holds)


def reference_blowup(sampler, n, xs):
    """E is "same class"; P_m reads bit m of class + 1."""

    def cls(i):
        return truncated_geometric(xs.value((i,)), sampler.num_classes)

    def holds(sym, t):
        if sym == 0:
            return cls(t[0]) == cls(t[1])
        return (cls(t[0]) + 1) >> (sym - 1) & 1 == 1

    return read_off(sampler, n, holds)


def reference_digraph(sampler, n, xs):
    """O vertices loop and are preordered by class; P -> O by P's class set."""

    def is_o(i):
        return xs.value((i,), 0) < 0.5

    def cls(i):
        return truncated_geometric(xs.value((i,), 1), sampler.d)

    def holds(sym, t):
        i, j = t
        if i == j:
            return is_o(i)
        if is_o(i) and is_o(j):
            return cls(i) <= cls(j)
        if not is_o(i) and is_o(j):
            return xs.bit((i,), cls(j), base_stream=2) == 1
        return False

    return read_off(sampler, n, holds)


def reference_bipartite(sampler, n, xs):
    """P by a fair coin; R^i_j(x, y) iff P(x), not P(y), label i and j < height."""

    def marked(x):
        return xs.value((x,), 0) < 0.5

    def holds(sym, t):
        if sym == 0:
            return marked(t[0])
        x, y = t
        if x == y or not marked(x) or marked(y):
            return False
        i, j = divmod(sym - 1, sampler.j_depth)
        pair = frozenset(t)
        label = truncated_geometric(xs.value(pair, 0), sampler.i_depth)
        in_set = xs.bit((x,), label, base_stream=1) == 1
        return label == i and j < sampler.column_height(in_set, xs.value(pair, 1))

    return read_off(sampler, n, holds)


def reference_mixture(sampler, n, xs):
    """The empty-set value picks p1 or p2; each pair then flips a p-coin."""
    p = sampler.p1 if xs.value(()) < 0.5 else sampler.p2
    return read_off(sampler, n, lambda sym, t: t[0] != t[1] and xs.value(frozenset(t)) < p)


def reference_superset(sampler, n, xs):
    """P(i) reads stream i of the whole domain's value."""
    everyone = frozenset(range(n))
    return read_off(sampler, n, lambda sym, t: xs.value(everyone, stream=t[0]) < 0.5)


def reference_index_keyed(sampler, n, xs):
    """P(i) with probability 0.9 at even i, 0.1 at odd i."""
    return read_off(sampler, n, lambda sym, t: xs.value(t) < (0.9 if t[0] % 2 == 0 else 0.1))


def reference_empty(sampler, n, xs):
    """No facts at all."""
    return read_off(sampler, n, lambda sym, t: False)


LAYOUT_CASES = [
    (KaleidoscopeHypergraph(1, 3), reference_kaleidoscope),
    (KaleidoscopeHypergraph(2, 8), reference_kaleidoscope),
    (KaleidoscopeHypergraph(3, 2), reference_kaleidoscope),
    (KaleidoscopeHypergraph(4, 1), reference_kaleidoscope),
    # bits past the first word spill into PRF stream 1 (and 2)
    (KaleidoscopeHypergraph(2, BITS_PER_STREAM + 7), reference_kaleidoscope),
    (KaleidoscopeHypergraph(3, 2 * BITS_PER_STREAM + 1), reference_kaleidoscope),
    (BlowupControl(1), reference_blowup),
    (BlowupControl(3), reference_blowup),
    (BlowupControl(8), reference_blowup),
    (MaxGraph(1), reference_maxgraph),
    (MaxGraph(4), reference_maxgraph),
    (MaxGraph(BITS_PER_STREAM + 3), reference_maxgraph),
    (GeometricGraph(2, "sup", 0.5), reference_geometric),
    (GeometricGraph(3, "euclidean", 0.7), reference_geometric),
    (GeometricGraph(2, "euclidean", 1.0, point_override={0: (0.5, 0.5), 2: (1.2, 0.7)}),
     reference_geometric),
    (KaleidoscopeDigraph(1), reference_digraph),
    (KaleidoscopeDigraph(3), reference_digraph),
    (BipartiteLabels(2, 2), reference_bipartite),
    (BipartiteLabels(3, 4), reference_bipartite),
    (MixtureControl(0.1, 0.9), reference_mixture),
    (MixtureControl(0.5, 0.5), reference_mixture),
    (BrokenSupersetSampler(), reference_superset),
    (IndexKeyedSampler(), reference_index_keyed),
    (EmptySampler(), reference_empty),
]


@pytest.mark.parametrize(
    "sampler,reference", LAYOUT_CASES, ids=[s.name for s, _ in LAYOUT_CASES]
)
def test_type_fn_matches_atom_by_atom_reference(sampler, reference):
    rng = random.Random(sampler.name)
    for n in range(7):  # includes n < k, where no tuple is injective
        for t in range(4):
            key = SEED.child("layout", sampler.name, n, t)
            assert sampler.type_fn(n, XiFamily(key)) == reference(sampler, n, XiFamily(key))

            labels = rng.sample(range(20), n)
            remap = dict(enumerate(labels))
            got_trace, want_trace = set(), set()
            got = sampler.type_fn(n, XiFamily(key, remap=remap, trace=got_trace))
            want = reference(sampler, n, XiFamily(key, remap=remap, trace=want_trace))
            assert got == want
            assert got_trace == want_trace


def test_subset_masks_past_the_ceiling_are_refused_before_any_work():
    # C(60, 4) = 487,635 masks, each spanning up to 60**4 bits
    assert math.comb(60, 4) * 60**4 > MAX_ORDERING_BITS >= math.comb(30, 3) * 30**3
    before = _orderings.cache_info().currsize
    sampler = KaleidoscopeHypergraph(4, 1)
    tracemalloc.start()
    try:
        with pytest.raises(CeilingError, match="ceiling"):
            sampler.type_fn(60, XiFamily(SEED))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert _orderings.cache_info().currsize == before


# k = 2 at the last n read one set at a time and the first n read in bulk
SMALL_N = max(n for n in range(2, 100) if math.comb(n, 2) <= _BULK_KSETS)


@pytest.mark.parametrize(
    "sampler,n",
    # n = 30 spreads the sets over all 256 byte values; d = 60 leaves a
    # partial last byte of 7 bits on stream 1
    [(KaleidoscopeHypergraph(3, 8), 30), (KaleidoscopeHypergraph(2, BITS_PER_STREAM + 7), 12),
     (KaleidoscopeHypergraph(2, BITS_PER_STREAM + 7), SMALL_N),
     (KaleidoscopeHypergraph(2, BITS_PER_STREAM + 7), SMALL_N + 1)],
    ids=["k=3,d=8,n=30", "k=2,d=60,n=12", "k=2,d=60,last-n-one-at-a-time",
         "k=2,d=60,first-n-in-bulk"],
)
def test_kaleidoscope_matches_the_reference_at_large_n(sampler, n):
    key = SEED.child("wide", sampler.name, n)
    remap = dict(enumerate(random.Random(n).sample(range(3 * n), n)))
    for family in ({}, {"remap": remap}):
        got_trace, want_trace = set(), set()
        got = sampler.type_fn(n, XiFamily(key, trace=got_trace, **family))
        assert got == reference_kaleidoscope(sampler, n, XiFamily(key, trace=want_trace, **family))
        assert got_trace == want_trace


@pytest.mark.parametrize("d", [1, 16, BITS_PER_STREAM + 3])
def test_maxgraph_matches_the_reference_at_large_n(d):
    # n = 30 as the benchmark samples it: each vertex wins many pairs, and
    # d = 1 ties about half the prefixes; BITS_PER_STREAM + 3 reads two streams
    sampler, n = MaxGraph(d), 30
    key = SEED.child("wide", sampler.name, n)
    remap = dict(enumerate(random.Random(d).sample(range(3 * n), n)))
    for family in ({}, {"remap": remap}):
        got_trace, want_trace = set(), set()
        got = sampler.type_fn(n, XiFamily(key, trace=got_trace, **family))
        assert got == reference_maxgraph(sampler, n, XiFamily(key, trace=want_trace, **family))
        assert got_trace == want_trace


@pytest.mark.parametrize("sampler, reference", [
    (KaleidoscopeDigraph(3), reference_digraph),
    (BipartiteLabels(3, 4), reference_bipartite),
])
def test_atom_index_samplers_match_the_reference_past_64_atoms(sampler, reference):
    # these set their atoms' bits by index; past 64 true atoms the bits are
    # packed as one digit string, a path n < 7 never reaches
    n = 20
    key = SEED.child("wide", sampler.name, n)
    remap = dict(enumerate(random.Random(sampler.name).sample(range(3 * n), n)))
    for family in ({}, {"remap": remap}):
        got_trace, want_trace = set(), set()
        got = sampler.type_fn(n, XiFamily(key, trace=got_trace, **family))
        assert bin(got.bits).count("1") >= 64
        assert got == reference(sampler, n, XiFamily(key, trace=want_trace, **family))
        assert got_trace == want_trace


def test_bulk_and_one_at_a_time_kaleidoscopes_cohere():
    # n = 12 draws its 220 sets in bulk, m = 5 its 10 one at a time;
    # restriction compares the two, and the permuted family remaps the bulk rows
    assert math.comb(5, 3) <= _BULK_KSETS < math.comb(12, 3)
    report = coherence_check(KaleidoscopeHypergraph(3, 8), 12, 5, 20, SEED)
    assert report.failures == ()


def atom_bit_orderings(n, k):
    """_orderings as one _atom_bit call per ordering builds it."""
    subsets = tuple(
        (frozenset(c), sum(1 << _atom_bit(n, (k,), 0, t) for t in permutations(c)))
        for c in combinations(range(n), k)
    )
    return subsets, _layout(n, (k,))[1]


def test_orderings_match_the_atom_bit_construction():
    grid = [(n, k) for n in range(8) for k in range(1, 5)] + [(9, 5), (30, 3)]
    for n, k in grid:  # includes n < k, where no subset has k points
        assert _orderings(n, k) == atom_bit_orderings(n, k), (n, k)
