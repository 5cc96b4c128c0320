"""Deliberately broken samplers for exercising the audit machinery.

These are negative controls: each one violates exactly one contract the
real gallery upholds, so the coherence / invariance / collision checks
have something to catch. None of them are reachable from CLI spec
strings.
"""

from __future__ import annotations

from .engine import AhkSampler
from .logic import Signature, TypeFingerprint, pack_atoms
from .seeds import XiFamily


class BrokenSupersetSampler(AhkSampler):
    """Reads randomness attached to the whole domain, not per element.

    P(i) consults the value of the full index set {0..n-1}, so the
    answer for element i changes when the ambient n does: restriction
    coherence fails with a concrete counterexample at almost every seed.
    """

    def __init__(self):
        self.signature = Signature((("P", 1),))
        self.name = "broken-superset"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        everyone = frozenset(range(n))
        atoms = [(0, (i,)) for i in range(n) if xs.value(everyone, stream=i) < 0.5]
        return self._from_bits(n, pack_atoms(n, self._language[1], atoms))


class IndexKeyedSampler(AhkSampler):
    """Biases element i by the parity of the raw index i.

    Even positions get P with probability 0.9, odd with 0.1. The law is
    not permutation-invariant, so both the equivariance half of
    coherence_check and invariance_test flag it loudly.
    """

    P_EVEN = 0.9
    P_ODD = 0.1

    def __init__(self):
        self.signature = Signature((("P", 1),))
        self.name = "broken-index-keyed"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        atoms = [
            (0, (i,)) for i in range(n)
            if xs.value((i,)) < (self.P_EVEN if i % 2 == 0 else self.P_ODD)
        ]
        return self._from_bits(n, pack_atoms(n, self._language[1], atoms))


class EmptySampler(AhkSampler):
    """No facts at all: every tuple realizes the all-false type.

    Useful as the degenerate end of collision statistics (estimate is
    exactly 1) and as a smoke test for serialization of structures
    without facts.
    """

    ARITY = 2

    def __init__(self):
        self.signature = Signature((("R0", self.ARITY),))
        self.name = "empty"

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        return self._from_bits(n, 0)
