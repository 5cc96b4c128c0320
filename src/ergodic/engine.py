"""Exchangeable sampling engine and statistical audits.

A sampler is an executable family of type functions: for each n it maps
the uniform values attached to subsets of [n] to the quantifier-free
type of an n-tuple. Sampling a structure on n points evaluates the
n-ary type function once and reads the facts off the fingerprint, so
consistency across overlapping tuples holds by construction; the
coherence checker verifies the two exchangeability conditions
(restriction and permutation equivariance) exactly, seed by seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .logic import (
    FiniteStructure,
    LogicError,
    Permutation,
    QfFormula,
    Signature,
    TypeFingerprint,
    _fingerprint,
    check_width,
    num_vars,
    structure_from_fingerprint,
)
from .seeds import SeedKey, XiFamily


class AhkSampler:
    """Base class: a named, signature-carrying family of type functions.

    Subclasses implement type_fn(n, xs) returning the fingerprint of an
    injective n-tuple over the full materialized sublanguage. The
    contract that makes the measure exchangeable: read randomness only
    through `xs`, keyed by subsets of tuple positions, never by the raw
    position values themselves.
    """

    name: str = "sampler"
    signature: Signature

    def type_fn(self, n: int, xs: XiFamily) -> TypeFingerprint:
        raise NotImplementedError

    @cached_property
    def _language(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Sublanguage (every symbol) and arities of type_fn's fingerprints."""
        return tuple(range(len(self.signature))), self.signature.arities()

    def _from_bits(self, n: int, bits: int) -> TypeFingerprint:
        """Fingerprint of an injective n-tuple from its packed atom bits."""
        sublanguage, arities = self._language
        return _fingerprint(n, sublanguage, arities, bits)


def sample(sampler: AhkSampler, n: int, seed: SeedKey) -> FiniteStructure:
    """Sample the induced structure on points 0..n-1."""
    check_width(n, sampler.signature.arities())
    fp = sampler.type_fn(n, XiFamily(seed))
    return structure_from_fingerprint(fp, sampler.signature, n)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatReport:
    """One estimated statistic with its standard error; a gap adds its z."""

    statistic: str
    estimate: Fraction | float
    stderr: float
    trials: int
    seed: SeedKey
    z: float | None = None

    def row(self) -> dict:
        row = {
            "statistic": self.statistic,
            "estimate": float(self.estimate),
            "stderr": self.stderr,
            "trials": self.trials,
            "seed_hex": self.seed.hex,
        }
        if self.z is not None:
            row["z"] = self.z
        return row


def binomial_stderr(p: float, trials: int) -> float:
    """Standard error of a proportion p observed over trials."""
    return math.sqrt(p * (1.0 - p) / trials)


def z_score(gap, stderr: float) -> float:
    """gap / stderr; at zero spread, 0 for no gap and inf for any gap."""
    if stderr == 0.0:
        return 0.0 if gap == 0 else math.inf
    return float(gap) / stderr


def _report(name: str, count: int, trials: int, seed: SeedKey) -> StatReport:
    stderr = binomial_stderr(count / trials, trials)
    return StatReport(name, Fraction(count, trials), stderr, trials, seed)


def _trials(sampler: AhkSampler, n: int, trials: int, seed: SeedKey) -> Iterator[TypeFingerprint]:
    """Each trial's type of n points, in trial order: the estimators' one loop.

    Trial t reads the family keyed by seed.child("trial", t).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    check_width(n, sampler.signature.arities())
    type_fn, child = sampler.type_fn, seed.child
    return (type_fn(n, XiFamily(child("trial", t))) for t in range(trials))


# ---------------------------------------------------------------------------
# measure estimation
# ---------------------------------------------------------------------------


def estimate_measure(
    sampler: AhkSampler,
    phi: QfFormula,
    trials: int,
    seed: SeedKey,
) -> StatReport:
    """Monte Carlo estimate of the measure of phi at a tuple of distinct points.

    Each trial derives a fresh subkey, samples the type of a tuple of
    m distinct points (m = number of variables of phi), and evaluates
    phi on it. Tuples are always injective, so eq(x_i, x_j) with i != j
    has measure exactly 0 and the estimate for a tautology is exactly 1.
    """
    count = sum(fp.models(phi) for fp in _trials(sampler, num_vars(phi), trials, seed))
    return _report("measure", count, trials, seed)


@dataclass(frozen=True)
class DissociationReport:
    """Joint-vs-product audit of two events on disjoint tuples."""

    joint: StatReport
    marginal_a: StatReport
    marginal_b: StatReport
    gap: Fraction
    gap_stderr: float
    z: float


def dissociation_test(
    sampler: AhkSampler,
    phi: QfFormula,
    psi: QfFormula,
    trials: int,
    seed: SeedKey,
) -> DissociationReport:
    """Estimate P(phi and psi on disjoint tuples) against the product.

    The gap estimator is the plug-in covariance; its standard error
    comes from the influence-function expansion, which for indicator
    variables reduces to a closed form in the four joint counts. An
    exchangeable measure is dissociated, so a sound sampler should show
    |z| consistent with 0. Phi reads the first num_vars(phi) points and
    psi the next num_vars(psi).
    """
    ma, mb = num_vars(phi), num_vars(psi)
    tuple_b = tuple(range(ma, ma + mb))

    n11 = n10 = n01 = 0
    for fp in _trials(sampler, ma + mb, trials, seed):
        a = fp.models(phi)
        b = fp.models(psi, tuple_b)
        if a and b:
            n11 += 1
        elif a:
            n10 += 1
        elif b:
            n01 += 1
    ca, cb, cab = n11 + n10, n11 + n01, n11
    n = trials
    pa, pb, pab = Fraction(ca, n), Fraction(cb, n), Fraction(cab, n)
    gap = pab - pa * pb

    # Influence values per (a, b) cell; counts give the exact sum of squares.
    fa, fb, fab = float(pa), float(pb), float(pab)
    sum_sq = 0.0
    for (a_val, b_val, cnt) in (
        (1, 1, n11),
        (1, 0, n10),
        (0, 1, n01),
        (0, 0, n - n11 - n10 - n01),
    ):
        infl = ((a_val * b_val) - fab) - fb * (a_val - fa) - fa * (b_val - fb)
        sum_sq += cnt * infl * infl
    gap_stderr = math.sqrt(sum_sq) / n

    return DissociationReport(
        joint=_report("joint", cab, n, seed),
        marginal_a=_report("marginal_a", ca, n, seed),
        marginal_b=_report("marginal_b", cb, n, seed),
        gap=gap,
        gap_stderr=gap_stderr,
        z=z_score(gap, gap_stderr),
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Paired comparison of one event at a tuple and at its permuted image."""

    at_identity: StatReport
    at_permuted: StatReport
    gap: Fraction
    gap_stderr: float
    z: float


def invariance_test(
    sampler: AhkSampler,
    phi: QfFormula,
    sigma: Permutation,
    trials: int,
    seed: SeedKey,
) -> InvarianceReport:
    """Compare the measure of phi at (0..m-1) and at (sigma(0)..sigma(m-1)).

    Both events are evaluated on the same sampled type, so the gap is a
    paired difference; an invariant measure has mean difference 0 and
    the identity permutation gives gap exactly 0 on every seed.
    """
    m = num_vars(phi)
    n = len(sigma)
    if n < m:
        raise LogicError("permutation acts on fewer points than phi uses")
    image = tuple(sigma.mapping[i] for i in range(m))

    # d = a - b per trial: its sum is ca - cb, and d * d = 1 exactly where a != b
    ca = cb = sum_d2 = 0
    for fp in _trials(sampler, n, trials, seed):
        a = fp.models(phi)
        b = fp.models(phi, image)
        ca += a
        cb += b
        sum_d2 += a != b
    sum_d = ca - cb

    gap = Fraction(ca - cb, trials)
    mean_d = sum_d / trials
    if trials > 1:
        var = max(sum_d2 - trials * mean_d * mean_d, 0.0) / (trials - 1)
        gap_stderr = math.sqrt(var / trials)
    else:
        gap_stderr = 0.0
    return InvarianceReport(
        at_identity=_report("at_identity", ca, trials, seed),
        at_permuted=_report("at_permuted", cb, trials, seed),
        gap=gap,
        gap_stderr=gap_stderr,
        z=z_score(gap, gap_stderr),
    )


# ---------------------------------------------------------------------------
# coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceFailure:
    trial: int
    seed_hex: str
    condition: str  # "restriction" or "equivariance"
    sigma: tuple[int, ...] | None


@dataclass(frozen=True)
class CoherenceReport:
    sampler: str
    n: int
    m: int
    trials: int
    failures: tuple[CoherenceFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def coherence_check(
    sampler: AhkSampler, n: int, m: int, trials: int, seed: SeedKey
) -> CoherenceReport:
    """Exact check of the two type-function coherence conditions.

    Per trial, over one drawn subset family: (a) the m-ary type function
    applied to the restricted family must equal the restriction of the
    n-ary output; (b) feeding the family re-indexed along a random
    permutation sigma must permute the output fingerprint accordingly.
    Any failure is reported with its reproducing seed.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    check_width(n, sampler.signature.arities())
    failures: list[CoherenceFailure] = []
    for t in range(trials):
        key = seed.child("coherence", t)
        xs = XiFamily(key)
        fp_n = sampler.type_fn(n, xs)

        fp_m = sampler.type_fn(m, xs)
        if fp_m != fp_n.restrict(m):
            failures.append(CoherenceFailure(t, key.hex, "restriction", None))

        rng = random.Random(key.child("sigma").master)
        perm = list(range(n))
        rng.shuffle(perm)
        sigma = Permutation(tuple(perm))
        remap = {i: sigma.mapping[i] for i in range(n)}
        lhs = sampler.type_fn(n, XiFamily(key, remap=remap))
        if lhs != fp_n.permuted(sigma):
            failures.append(CoherenceFailure(t, key.hex, "equivariance", sigma.mapping))
    return CoherenceReport(sampler.name, n, m, trials, tuple(failures))


# ---------------------------------------------------------------------------
# positive types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositiveTypesReport:
    arity: int
    epsilon: Fraction
    trials: int
    seed: SeedKey
    entries: tuple[tuple[TypeFingerprint, Fraction], ...]
    covered: Fraction

    @property
    def covered_stderr(self) -> float:
        return binomial_stderr(float(self.covered), self.trials)


def estimate_positive_types(
    sampler: AhkSampler,
    arity: int,
    epsilon,
    trials: int,
    seed: SeedKey,
) -> PositiveTypesReport:
    """Empirical fingerprint spectrum at one arity.

    Samples the type of an injective arity-tuple per trial and returns
    the fingerprints whose empirical frequency reaches epsilon, sorted
    by descending frequency. At most floor(1/epsilon) entries can
    qualify, by pigeonhole. `covered` is the total frequency of the
    returned entries (itself a Bernoulli proportion, so its stderr is
    binomial).
    """
    eps = Fraction(epsilon).limit_denominator(10**12) if isinstance(epsilon, float) else Fraction(epsilon)
    counts = Counter(_trials(sampler, arity, trials, seed))
    entries = [
        (fp, Fraction(c, trials))
        for fp, c in counts.items()
        if Fraction(c, trials) >= eps
    ]
    entries.sort(key=lambda e: (-e[1], e[0].bits))
    covered = sum((f for _, f in entries), Fraction(0))
    return PositiveTypesReport(arity, eps, trials, seed, tuple(entries), covered)
