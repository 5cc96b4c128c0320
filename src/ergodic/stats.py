"""Root-finding over realized types, plus block-collision statistics.

``find_roots`` answers, for one quantifier-free type in one finite
structure, whether some single element occurs in every tuple realizing
it. ``rootedness_check`` sweeps that question across all types realized
by tuples satisfying a guard formula. ``collision_stat`` estimates the
probability that two disjoint freshly-sampled tuples share a
fingerprint — the Monte Carlo shadow of a type carrying positive mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .engine import AhkSampler, StatReport, _report, _trials
from .logic import (
    CeilingError,
    FiniteStructure,
    LogicError,
    QfFormula,
    TypeFingerprint,
    eval_qf,
    num_vars,
    qf_fingerprint,
)
from .seeds import SeedKey

__all__ = [
    "RootReport",
    "RootednessReport",
    "find_roots",
    "rootedness_check",
    "collision_stat",
]

# Most argument tuples rootedness_check enumerates: some 2.5 s and 65 MB, at
# 25 us and 650 bytes a tuple (kaleidoscope k=2, d=8, n=30; 2-vCPU machine).
MAX_ROOT_TUPLES = 10**5


@dataclass(frozen=True)
class RootReport:
    """Realizations of one fingerprint and the elements common to all of them."""

    fingerprint: TypeFingerprint
    tuples: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]
    rooted: bool
    flag: str | None = None

    def row(self) -> dict:
        return {
            "bits": self.fingerprint.bits,
            "arity": self.fingerprint.arity,
            "realizations": len(self.tuples),
            "roots": list(self.roots),
            "rooted": self.rooted,
            "flag": self.flag,
        }


def _common_support(tuples: list[tuple[int, ...]]) -> tuple[int, ...]:
    common = set(tuples[0])
    for tup in tuples[1:]:
        common &= set(tup)
        if not common:
            break
    return tuple(sorted(common))


def find_roots(M: FiniteStructure, fp: TypeFingerprint) -> RootReport:
    """Enumerate every non-redundant tuple realizing fp; intersect supports.

    A fingerprint nobody realizes is reported rooted (vacuously) with
    flag="unrealized" instead of raising: rootedness quantifies over
    realizing tuples, and there are none.
    """
    if fp.arity > M.domain_size:
        raise LogicError("fingerprint arity exceeds domain size")
    hits = [
        tup
        for tup in itertools.permutations(range(M.domain_size), fp.arity)
        if qf_fingerprint(M, tup, fp.sublanguage) == fp
    ]
    if not hits:
        return RootReport(fp, (), (), True, "unrealized")
    roots = _common_support(hits)
    return RootReport(fp, tuple(hits), roots, bool(roots))


@dataclass(frozen=True)
class RootednessReport:
    """Verdicts for every realized fingerprint compatible with the guard."""

    arity: int
    sublanguage: tuple[int, ...]
    reports: tuple[RootReport, ...]

    @property
    def failures(self) -> tuple[RootReport, ...]:
        return tuple(r for r in self.reports if not r.rooted)

    @property
    def passed(self) -> bool:
        return not self.failures


def rootedness_check(
    M: FiniteStructure,
    chi: QfFormula,
    sub: tuple[int, ...] | None = None,
) -> RootednessReport:
    """Check that every realized fingerprint admitted by chi is rooted.

    chi is evaluated per tuple on the structure itself, so it may read
    symbols outside the fingerprint sublanguage; a fingerprint counts
    as admitted once any of its realizing tuples satisfies chi. Roots
    are still intersected over all realizations of the fingerprint,
    matching find_roots.
    """
    if sub is None:
        sub = tuple(range(len(M.signature)))
    m = num_vars(chi)
    if (tuples := math.perm(M.domain_size, m)) > MAX_ROOT_TUPLES:
        raise CeilingError(f"{m} variables over {M.domain_size} points make {tuples} tuples,"
                           f" past the ceiling of {MAX_ROOT_TUPLES}")
    realized: dict[TypeFingerprint, list[tuple[int, ...]]] = {}
    admitted: set[TypeFingerprint] = set()
    for tup in itertools.permutations(range(M.domain_size), m):
        fp = qf_fingerprint(M, tup, sub)
        realized.setdefault(fp, []).append(tup)
        if fp not in admitted and eval_qf(M, chi, tup):
            admitted.add(fp)
    reports = []
    for fp in sorted(admitted, key=lambda f: f.bits):
        hits = realized[fp]
        roots = _common_support(hits)
        reports.append(RootReport(fp, tuple(hits), roots, bool(roots)))
    return RootednessReport(m, tuple(sub), tuple(reports))


def collision_stat(
    sampler: AhkSampler, n: int, trials: int, seed: SeedKey
) -> StatReport:
    """Estimate P(two disjoint n-tuples from one draw share a fingerprint).

    Each trial samples the type of 2n fresh points once and compares the
    blocks {0..n-1} and {n..2n-1}. Exchangeability makes the block
    choice immaterial; fixing it keeps runs reproducible.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    head, tail = tuple(range(n)), tuple(range(n, 2 * n))
    count = sum(fp.agrees(head, tail) for fp in _trials(sampler, 2 * n, trials, seed))
    return _report("collision", count, trials, seed)
