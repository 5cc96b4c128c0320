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

import numpy as np

from .engine import AhkSampler, StatReport, _report, _trials
from .logic import (
    CeilingError,
    FiniteStructure,
    LogicError,
    QfFormula,
    TypeFingerprint,
    fingerprint_bits,
    num_vars,
    qf_array,
    sub_arities,
)
from .seeds import SeedKey

__all__ = [
    "RootReport",
    "RootednessReport",
    "find_roots",
    "rootedness_check",
    "collision_stat",
]

# Most argument tuples rootedness_check enumerates: some 1.2 s and 70 MB, at
# 12 us and 700 bytes a tuple (kaleidoscope k=2, d=8, the 97,290 3-tuples of
# n = 47, nearly each its own type and report; 2-vCPU machine).
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


def _realizations(M: FiniteStructure, m: int, sub: tuple[int, ...]):
    """Every injective m-tuple of M, and which of them realize each fingerprint.

    Returns the tuples in itertools.permutations order, as tuples and as
    the rows of an int array, and a dict from fingerprint bits to the row
    numbers realizing them; CeilingError past MAX_ROOT_TUPLES tuples.
    """
    if (count := math.perm(M.domain_size, m)) > MAX_ROOT_TUPLES:
        raise CeilingError(f"{m} variables over {M.domain_size} points make {count} tuples,"
                           f" past the ceiling of {MAX_ROOT_TUPLES}")
    tuples = list(itertools.permutations(range(M.domain_size), m))
    rows = np.array(tuples, dtype=np.intp).reshape(count, m)
    packed = np.packbits(fingerprint_bits(M, rows, sub), axis=1, bitorder="little")
    groups: dict[bytes, list[int]] = {}
    for row, key in enumerate(map(bytes, packed)):
        groups.setdefault(key, []).append(row)
    return tuples, rows, {int.from_bytes(key, "little"): group for key, group in groups.items()}


def _root_report(fp: TypeFingerprint, hits: list[tuple[int, ...]]) -> RootReport:
    roots = tuple(sorted(set(hits[0]).intersection(*hits[1:])))
    return RootReport(fp, tuple(hits), roots, bool(roots))


def find_roots(M: FiniteStructure, fp: TypeFingerprint) -> RootReport:
    """Enumerate every non-redundant tuple realizing fp; intersect supports.

    A fingerprint nobody realizes is reported rooted (vacuously) with
    flag="unrealized" instead of raising: rootedness quantifies over
    realizing tuples, and there are none.
    """
    if fp.arity > M.domain_size:
        raise LogicError("fingerprint arity exceeds domain size")
    tuples, _, realized = _realizations(M, fp.arity, fp.sublanguage)
    group = realized.get(fp.bits) if sub_arities(M.signature, fp.sublanguage) == fp.arities else None
    if not group:
        return RootReport(fp, (), (), True, "unrealized")
    return _root_report(fp, [tuples[r] for r in group])


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

    chi is evaluated on every tuple of the structure itself, so it may read
    symbols outside the fingerprint sublanguage; a fingerprint counts
    as admitted once any of its realizing tuples satisfies chi. Roots
    are still intersected over all realizations of the fingerprint,
    matching find_roots.
    """
    sub = tuple(range(len(M.signature))) if sub is None else tuple(sub)
    m = num_vars(chi)
    tuples, rows, realized = _realizations(M, m, sub)
    admits = np.broadcast_to(qf_array(chi, M.tables, lambda v: rows[:, v]), len(rows)).tolist()
    arities = sub_arities(M.signature, sub)
    reports = tuple(
        _root_report(TypeFingerprint(m, sub, arities, bits), [tuples[r] for r in group])
        for bits, group in sorted(realized.items())
        if any(admits[r] for r in group)
    )
    return RootednessReport(m, sub, reports)


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
