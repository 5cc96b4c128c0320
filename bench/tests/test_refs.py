"""Each closed form in refs.py against exhaustive enumeration of a tiny case."""

from fractions import Fraction
from itertools import product

import refs


def _truncated_class(u: Fraction, num_classes: int) -> int:
    """The docstring rule: c with 1 - 2^-c <= u < 1 - 2^-(c+1), clipped."""
    c = 0
    while u >= 1 - Fraction(1, 2 ** (c + 1)):
        c += 1
    return min(c, num_classes - 1)


def _class_frequencies(num_classes: int, bits: int) -> list[Fraction]:
    grid = [Fraction(k, 2**bits) for k in range(2**bits)]
    freq = [Fraction(0)] * num_classes
    for u in grid:
        freq[_truncated_class(u, num_classes)] += Fraction(1, 2**bits)
    return freq


def test_class_law_matches_inverse_cdf_on_a_dyadic_grid():
    for num_classes in (1, 2, 3, 7):
        assert _class_frequencies(num_classes, 10) == refs.class_law(num_classes)


def test_kaleidoscope_collision_by_enumeration():
    for d in (1, 2, 3):
        agree = sum(a == b for a, b in product(range(2**d), repeat=2))
        assert Fraction(agree, 4**d) == refs.kaleidoscope_collision(d)
    # one fair bit per pair and relation
    assert Fraction(sum(range(2)), 2) == refs.kaleidoscope_relation_measure()


def test_blowup_same_class_by_enumeration():
    law = refs.blowup_class_masses(2)  # 3 classes
    same = sum(
        law[a] * law[b] for a, b in product(range(len(law)), repeat=2) if a == b
    )
    assert same == refs.blowup_same_class(2) == Fraction(1, 4) + Fraction(1, 16) + Fraction(1, 16)


def test_geometric_sup_by_enumeration_up_to_grid_resolution():
    n = 256
    pts = [Fraction(2 * k + 1, n) for k in range(n)]  # cell midpoints in [0, 2]
    close = Fraction(sum(abs(x - y) < 1 for x, y in product(pts, repeat=2)), n * n)
    assert abs(close - Fraction(3, 4)) <= Fraction(1, n)
    p = Fraction(1, 4)
    for dim in (1, 2):
        assert abs(p * close**dim - refs.geometric_sup_edge(p, dim)) <= Fraction(dim, n)


def test_mixture_edge_and_gap_by_enumeration():
    p1, p2 = Fraction(1, 4), Fraction(3, 4)
    grid = [Fraction(k, 4) for k in range(4)]  # the pair coin: u < p
    edge = joint = Fraction(0)
    for p in (p1, p2):
        e = Fraction(sum(u < p for u in grid), 4)
        edge += e / 2
        joint += e * e / 2  # two disjoint pairs flip independent coins
    assert edge == refs.mixture_edge(p1, p2)
    assert joint - edge * edge == refs.mixture_gap(p1, p2) == Fraction(1, 16)


def test_maxgraph_closed_forms():
    # top bit of the max of two uniform prefixes is set unless both are 0
    for d in (1, 2, 3):
        assert refs.maxgraph_pair_measure(d, lambda bits: bits[0]) == Fraction(3, 4)
    # d = 1: both relation bits are the one bit
    assert refs.maxgraph_pair_measure(1, lambda bits: not bits[0]) == Fraction(1, 4)


def test_digraph_edge_by_hand():
    # d = 2: classes 0 and 1 with mass 1/2 each; P(c_i <= c_j) = 3/4
    assert refs.digraph_edge_measure(2) == Fraction(1, 4) * Fraction(3, 4) + Fraction(1, 8)
    # d = 1: one class, so both-O pairs always relate
    assert refs.digraph_edge_measure(1) == Fraction(1, 4) + Fraction(1, 8)
    # R(1, 0) by its own enumeration has the same measure: vertex 1 plays i
    for d in (1, 2, 3, 4):
        law = refs.class_law(d)
        backward = sum(
            Fraction(1, 4) * law[c0] * law[c1] * ((c1 <= c0) if o1 else Fraction(1, 2))
            for o0, o1 in product((True, False), repeat=2) if o0
            for c0, c1 in product(range(d), repeat=2)
        )
        assert refs.digraph_edge_measure(d) == backward


def test_dyadic_below():
    assert refs.dyadic_below(Fraction(1, 2)) == Fraction(1, 2)
    p = refs.dyadic_below(0.1)
    assert p >= Fraction(0.1) and p - Fraction(0.1) < Fraction(1, 2**53)
