"""Locality analysis for linear codes.

The central computation: the minimum linear locality of a nontrivial code
equals w - 1, where w is the smallest weight at which the supports of all
dual codewords of weight <= w jointly cover every coordinate.  Everything
else here builds on that fact: repair-set extraction with explicit
reconstruction coefficients, the Singleton-like distance bound, a
dimension bound assembled from classical upper bounds on code size, and
the distance dichotomy enjoyed by near-MDS codes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code_core import (
    Caps,
    LinearCode,
    Words,
    distinct_supports,
    dual,
    exact_weight_words,
    in_dual,
    is_cyclic,
    minimum_distance,
    nullspace,
)
from .errors import (
    BadLocality,
    BadParameters,
    DichotomyViolated,
    HypothesisViolated,
    LocalityInvariantBroken,
    NotARepairSet,
    PairingFailed,
    TrivialCode,
)

__all__ = [
    "LocalityReport", "CMTerm", "CMBound", "BoundsReport",
    "is_nontrivial", "minimum_linear_locality", "repair_coefficients",
    "singleton_like", "classify_d_optimality", "k_opt_upper",
    "cm_bound_upper", "classify_k_optimality", "bounds_report",
    "is_nmds", "nmds_locality_check", "nmds_support_pairing",
    "llrc_string",
]


# ---------------------------------------------------------------------------
# locality

@dataclass(frozen=True)
class LocalityReport:
    """Result of a minimum-linear-locality computation.

    ``repair_options[i]`` lists the supports (including i itself) of the
    lightest dual codewords covering coordinate i, in lexicographic order;
    removing i from any of them gives a valid repair set of minimal size.
    """

    r_min: int
    w_star: int
    d_dual: int
    is_dperp_minus_1: bool
    coverage_by_weight: dict[int, tuple[int, ...]]
    repair_options: tuple[tuple[tuple[int, ...], ...], ...]

    def repair_set(self, i: int) -> tuple[int, ...]:
        """Default repair set for coordinate i: lexicographically first."""
        support = self.repair_options[i][0]
        return tuple(j for j in support if j != i)

    def to_json(self) -> dict:
        """JSON-ready form.  Each distinct support is one tuple object,
        shared by the option lists of all coordinates it covers, as
        minimum_linear_locality lists it."""
        return {
            "r_min": self.r_min,
            "w_star": self.w_star,
            "d_dual": self.d_dual,
            "is_dperp_minus_1": self.is_dperp_minus_1,
            "coverage_by_weight": {str(w): list(c)
                                   for w, c in self.coverage_by_weight.items()},
            "repair_options": [list(opts) for opts in self.repair_options],
        }


def is_nontrivial(C: LinearCode) -> bool:
    """True iff both the code and its dual have minimum distance >= 2.  A
    code holds e_j exactly when column j of its dual's generator is zero,
    so neither generator may have a zero column."""
    return 0 < C.k < C.n and all(
        G.any(axis=0).all() for G in (C.gen_array, dual(C).gen_array))


def minimum_linear_locality(C: LinearCode,
                            caps: Caps | None = None) -> LocalityReport:
    """Smallest r such that every coordinate lies in the support of a dual
    codeword of weight at most r + 1.

    Scans dual weights upward from d(dual); the words found at each weight
    are accumulated until their supports cover every coordinate.  The first
    weight scans every support, each later one only the supports through a
    coordinate still uncovered: the others would cover nothing new.
    """
    if not is_nontrivial(C):
        raise TrivialCode(
            "locality is defined for codes with d >= 2 and dual distance >= 2")
    D = dual(C)
    n = C.n
    d_dual = minimum_distance(D, caps)
    covered: set[int] = set()
    coverage: dict[int, tuple[int, ...]] = {}
    options: dict[int, list[tuple[int, ...]]] = {}
    w = d_dual
    uncovered = None  # every coordinate, at the first weight
    while True:
        words = exact_weight_words(D, w, caps, through=uncovered)
        if not in_dual(C, words):
            raise LocalityInvariantBroken(
                f"weight-{w} search produced a word outside the dual")
        supports = distinct_supports(words)
        # the coordinates first covered at weight w, and their options
        fresh = {j: [] for j in
                 sorted({j for s in supports for j in s} - covered)}
        for support in supports:
            for j in support:
                if j in fresh:
                    fresh[j].append(support)
        coverage[w] = tuple(fresh)
        covered.update(fresh)
        options.update(fresh)
        if len(covered) == n:
            break
        if w >= n:
            raise LocalityInvariantBroken(
                "nontrivial dual left coordinates uncovered")
        uncovered = sorted(set(range(n)) - covered)
        w += 1
    r_min = w - 1
    # transitive coordinate action forces coverage already at d(dual)
    if r_min != d_dual - 1 and is_cyclic(C):
        raise LocalityInvariantBroken(
            f"cyclic code has locality {r_min}, not d(dual) - 1 = {d_dual - 1}")
    return LocalityReport(
        r_min=r_min,
        w_star=w,
        d_dual=d_dual,
        is_dperp_minus_1=(r_min == d_dual - 1),
        coverage_by_weight=coverage,
        repair_options=tuple(tuple(options[i]) for i in range(n)),
    )


def repair_coefficients(C: LinearCode, i: int,
                        support) -> dict[int, int]:
    """Coefficients u_j with c_i = sum u_j c_j for every codeword c, valid
    whenever ``support + {i}`` carries a dual codeword nonzero at i."""
    n, F = C.n, C.field
    repair = sorted(set(support))
    if i in repair or not all(0 <= j < n for j in repair) or not 0 <= i < n:
        raise NotARepairSet(f"bad coordinates: i = {i}, support = {support}")
    cols = sorted(repair + [i])
    pos = cols.index(i)
    rows = [[row[j] for j in cols] for row in C.gen]
    h = next((v for v in nullspace(F, rows, len(cols)) if v[pos]), None)
    if h is None:
        raise NotARepairSet(
            f"no dual codeword on {{{i}}} + {repair} is nonzero at {i}")
    scale = F.neg(F.inv(h[pos]))
    rule = [F.mul(scale, x) for x in h]  # -1 at i, u_j at each j of repair
    # c_i = sum u_j c_j on every codeword iff the rule is a dual word
    if not in_dual(C, Words(np.array([cols]), np.array([rule], np.int32))):
        raise LocalityInvariantBroken(
            f"repair coefficients for coordinate {i} failed on a basis "
            "vector")
    return {j: u for j, u in zip(cols, rule) if j != i}


# ---------------------------------------------------------------------------
# distance-side bound

def singleton_like(n: int, k: int, r: int) -> int:
    """Upper bound n - k - ceil(k/r) + 2 on the distance of any code of
    dimension k whose every coordinate has locality r."""
    if r < 1:
        raise BadLocality(f"locality must be positive, got {r}")
    if k < 1 or n < k:
        raise BadParameters(f"need 1 <= k <= n, got n = {n}, k = {k}")
    return n - k - math.ceil(k / r) + 2


# ---------------------------------------------------------------------------
# dimension-side bound

_BOUND_ORDER = ("singleton", "sphere_packing", "plotkin", "griesmer")


def k_opt_upper(n: int, d: int, q: int) -> tuple[int, str]:
    """Best available upper bound on the dimension of any [n, k, >= d]
    code over GF(q), with the name of the bound that attains it."""
    if n < 1 or not 1 <= d <= n or q < 2:
        raise BadParameters(f"need 1 <= d <= n and q >= 2, got {(n, d, q)}")
    values = {"singleton": n - d + 1}

    radius = (d - 1) // 2
    ball = sum(math.comb(n, j) * (q - 1) ** j for j in range(radius + 1))
    k = 0
    while q ** (k + 1) * ball <= q ** n:
        k += 1
    values["sphere_packing"] = k

    if q * d > (q - 1) * n:  # Plotkin regime: d exceeds (1 - 1/q) n
        size = q * d // (q * d - (q - 1) * n)
        k = 0
        while q ** (k + 1) <= size:
            k += 1
        values["plotkin"] = k

    k, used = 0, 0
    while used + -(-d // q ** k) <= n:
        used += -(-d // q ** k)
        k += 1
    values["griesmer"] = k

    best = min(values.values())
    name = next(b for b in _BOUND_ORDER if values.get(b) == best)
    return best, name


@dataclass(frozen=True)
class CMTerm:
    t: int
    n_prime: int
    k_opt: int
    k_opt_bound: str | None
    value: int

    def to_json(self) -> dict:
        return {"t": self.t, "n_prime": self.n_prime, "k_opt": self.k_opt,
                "k_opt_bound": self.k_opt_bound, "value": self.value}


@dataclass(frozen=True)
class CMBound:
    rhs: int
    components: tuple[CMTerm, ...]


def cm_bound_upper(n: int, d: int, q: int, r: int) -> CMBound:
    """Dimension bound min over t >= 1 of t*r + k_opt(n - t(r+1), d),
    where the k_opt term vanishes once the shortened length drops below
    d.  Valid for any code of length n, distance d, and locality r."""
    if r < 1:
        raise BadLocality(f"locality must be positive, got {r}")
    if n < 1 or not 1 <= d <= n or q < 2:
        raise BadParameters(f"need 1 <= d <= n and q >= 2, got {(n, d, q)}")
    t_max = (n - d) // (r + 1)
    terms = []
    for t in range(1, t_max + 1):
        n_prime = n - t * (r + 1)
        k_opt, bound = k_opt_upper(n_prime, d, q)
        terms.append(CMTerm(t, n_prime, k_opt, bound, t * r + k_opt))
    # every later t only shrinks the k_opt term, so one sentinel suffices
    t = t_max + 1
    terms.append(CMTerm(t, n - t * (r + 1), 0, None, t * r))
    rhs = min(n, min(term.value for term in terms))
    return CMBound(rhs, tuple(terms))


@dataclass(frozen=True)
class BoundsReport:
    singleton_like_rhs: int
    d_optimal: bool
    almost_d_optimal: bool
    cm_rhs_ub: int
    k_optimal_certified: bool
    k_opt_components: tuple[CMTerm, ...]

    def to_json(self) -> dict:
        return {
            "singleton_like_rhs": self.singleton_like_rhs,
            "d_optimal": self.d_optimal,
            "almost_d_optimal": self.almost_d_optimal,
            "cm_rhs_ub": self.cm_rhs_ub,
            "k_optimal_certified": self.k_optimal_certified,
            "k_opt_components": [c.to_json() for c in self.k_opt_components],
        }


def bounds_report(C: LinearCode, r: int,
                  caps: Caps | None = None) -> BoundsReport:
    """Evaluate both optimality bounds for C at locality r."""
    d = minimum_distance(C, caps)
    rhs = singleton_like(C.n, C.k, r)
    cm = cm_bound_upper(C.n, d, C.q(), r)
    return BoundsReport(
        singleton_like_rhs=rhs,
        d_optimal=(d == rhs),
        almost_d_optimal=(d == rhs - 1),
        cm_rhs_ub=cm.rhs,
        k_optimal_certified=(C.k == cm.rhs),
        k_opt_components=cm.components,
    )


def classify_d_optimality(C: LinearCode, r: int,
                          caps: Caps | None = None) -> str:
    """"d_optimal" / "almost_d_optimal" / "neither", comparing d against
    the locality-r distance bound.  Meaningful when r is a genuine
    locality of C."""
    b = bounds_report(C, r, caps)
    if b.d_optimal:
        return "d_optimal"
    return "almost_d_optimal" if b.almost_d_optimal else "neither"


def classify_k_optimality(C: LinearCode, r: int,
                          caps: Caps | None = None) -> str:
    """"k_optimal_certified" when the dimension meets the bound exactly;
    "inconclusive" otherwise (true optimality may still hold)."""
    if bounds_report(C, r, caps).k_optimal_certified:
        return "k_optimal_certified"
    return "inconclusive"


# ---------------------------------------------------------------------------
# near-MDS codes

def is_nmds(C: LinearCode, caps: Caps | None = None) -> bool:
    """Near MDS: both C and its dual are almost MDS, i.e. d + d_dual = n."""
    if C.k == 0 or C.k == C.n:
        raise TrivialCode("defect is undefined for the zero and full codes")
    return (minimum_distance(C, caps)
            + minimum_distance(dual(C), caps)) == C.n


def nmds_locality_check(C: LinearCode, caps: Caps | None = None) -> str:
    """For a near-MDS code the locality is d(dual) - 1 or d(dual); report
    which one holds."""
    if not is_nmds(C, caps):
        raise HypothesisViolated("nmds_locality_check needs a near-MDS code")
    report = minimum_linear_locality(C, caps)
    if report.r_min == report.d_dual - 1:
        return "dperp_minus_1"
    if report.r_min == report.d_dual:
        return "dperp"
    raise DichotomyViolated(
        f"r_min = {report.r_min} outside "
        f"{{{report.d_dual - 1}, {report.d_dual}}}")


def nmds_support_pairing(C: LinearCode, caps: Caps | None = None
                         ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Match the support of every minimum-weight word of a near-MDS code
    with the support of the unique (projective) minimum-weight dual word
    disjoint from it.  As d + d(dual) = n, that support is the complement:
    one lookup per word."""
    if not is_nmds(C, caps):
        raise HypothesisViolated("support pairing needs a near-MDS code")
    D = dual(C)
    d = minimum_distance(C, caps)
    d_dual = minimum_distance(D, caps)
    words = exact_weight_words(C, d, caps)
    dual_words = exact_weight_words(D, d_dual, caps)
    if len(words) != len(dual_words):
        raise PairingFailed(
            f"{len(words)} minimum-weight classes vs {len(dual_words)} dual")
    if d + d_dual != C.n:
        raise PairingFailed(f"weights {d} and {d_dual} do not partition "
                            f"the {C.n} coordinates")
    partners = Counter(map(tuple, dual_words.support.tolist()))
    pairs = []
    used: set[tuple[int, ...]] = set()
    for s in map(tuple, words.support.tolist()):
        rest = tuple(sorted(set(range(C.n)).difference(s)))
        if partners[rest] != 1 or rest in used:
            raise PairingFailed(
                f"word with support {s} has {partners[rest]} partners")
        used.add(rest)
        pairs.append((s, rest))
    return pairs


def llrc_string(n: int, k: int, d: int, q: int, r: int) -> str:
    """Parameter tuple of a linear locally repairable code."""
    return f"({n}, {k}, {d}, {q}; {r})"
