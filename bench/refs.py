"""Reference values, in exact arithmetic, from the samplers' documented rules.

Nothing here calls the program. Each function restates the law a
sampler's docstring gives and computes the quantity an audit estimates,
as a Fraction. The laws are those of the continuum model; the program
draws 53-bit dyadic uniforms, which moves a threshold probability p to
ceil(p * 2**53) / 2**53 (`dyadic_below`), far below any Monte Carlo
tolerance used with these values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def dyadic_below(p) -> Fraction:
    """P(u < p) for u uniform on the 53-bit grid {k / 2**53}."""
    scaled = Fraction(p) * 2**53
    return Fraction(math.ceil(scaled), 2**53)


def class_law(num_classes: int) -> list[Fraction]:
    """Class c < num_classes with P(c) = 2^-(c+1), the tail on the last class."""
    law = [Fraction(1, 2 ** (c + 1)) for c in range(num_classes - 1)]
    law.append(Fraction(1, 2 ** (num_classes - 1)))
    return law


# -- kaleidoscope hypergraph: one fair bit per relation per k-set ----------


def kaleidoscope_relation_measure() -> Fraction:
    return Fraction(1, 2)


def kaleidoscope_collision(d: int) -> Fraction:
    """Two disjoint pairs share their 2-type iff all d pair bits agree."""
    return Fraction(1, 2**d)


# -- blowup control: classes of law 2^-(c+1) over 2^d - 1 classes ---------


def blowup_class_masses(d: int) -> list[Fraction]:
    return class_law(2**d - 1)


def blowup_same_class(d: int) -> Fraction:
    """E(0, 1), which is also the n = 1 collision rate: sum of p_c^2."""
    return sum((p * p for p in blowup_class_masses(d)), Fraction(0))


# -- geometric graph on [0, 2]^dim with a bonus coin -------------------------


def geometric_sup_edge(p, dim: int) -> Fraction:
    """Sup-norm distance < 1 per coordinate has probability 3/4."""
    return Fraction(p) * Fraction(3, 4) ** dim


# -- mixture control: one global coin picks p1 or p2 -----------------------


def mixture_edge(p1, p2) -> Fraction:
    return (dyadic_below(p1) + dyadic_below(p2)) / 2


def mixture_gap(p1, p2) -> Fraction:
    """Covariance of two disjoint edge indicators: (p1 - p2)^2 / 4."""
    a, b = dyadic_below(p1), dyadic_below(p2)
    return (a - b) ** 2 / 4


# -- max graph: R_m(i, j) is bit m (most significant first) of max prefix --


def maxgraph_pair_measure(d: int, event) -> Fraction:
    """Measure of event(bits) over two uniform d-bit prefixes, exhaustively.

    `event` receives the tuple of the d relation bits R_0..R_{d-1} on
    the pair (0, 1).
    """
    hits = 0
    for a, b in product(range(2**d), repeat=2):
        top = max(a, b)
        bits = tuple((top >> (d - 1 - m)) & 1 for m in range(d))
        hits += bool(event(bits))
    return Fraction(hits, 4**d)


# -- kaleidoscope digraph: loops O ordered by class, P points into O --------


def digraph_edge_measure(d: int) -> Fraction:
    """P(R(0, 1)), enumerating sides, ladder classes and the bit.

    Each vertex is O with probability 1/2 and carries a class of law
    class_law(d). R(i, j) for i != j: both O and cls(i) <= cls(j); or
    i in P, j in O and i's fair bit at cls(j) is set; otherwise false.
    """
    law = class_law(d)
    total = Fraction(0)
    for i_o, j_o in product((True, False), repeat=2):
        for a, b in product(range(d), repeat=2):
            weight = Fraction(1, 4) * law[a] * law[b]
            if i_o and j_o:
                total += weight * (a <= b)
            elif not i_o and j_o:
                total += weight / 2
    return total


# -- bipartite labels: P splits vertices by a fair coin ----------------------


def bipartite_marked_measure() -> Fraction:
    return Fraction(1, 2)


# -- statistics --------------------------------------------------------------


def binomial_stderr(p: Fraction, trials: int) -> float:
    return math.sqrt(float(p) * (1.0 - float(p)) / trials)
