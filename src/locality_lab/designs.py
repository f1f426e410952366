"""Combinatorial designs carried by the supports of fixed-weight codewords.

Blocks are the distinct supports of the weight-w codewords of a code (a
"simple" design: scalar multiples collapse to one block).  Verification is
exhaustive: a t-design must cover every t-subset of coordinates the same
number of times, and that count is established by direct enumeration.  A
count up to t_max walks the C(w, t) t-subsets of each of the b blocks for
every t <= t_max, so b * sum C(w, t) is charged against the search cap
before it starts, and SearchTooLarge is raised beyond it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations

from .code_core import (Caps, LinearCode, _caps, distinct_supports, dual,
                        exact_weight_words, minimum_distance)
from .errors import (BadParameters, DesignInvariantBroken,
                     LocalityInvariantBroken, SearchTooLarge)
from .locality import certified_locality

__all__ = ["DesignReport", "support_blocks", "verify_t_design",
           "analyze_design", "one_design_locality_link"]


@dataclass(frozen=True)
class DesignReport:
    n: int
    block_size: int
    blocks: tuple[tuple[int, ...], ...]
    t_lambda: dict[int, int]
    is_steiner: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "block_size": self.block_size,
            "block_count": len(self.blocks),
            "blocks": [list(b) for b in self.blocks],
            "t_lambda": {str(t): lam for t, lam in self.t_lambda.items()},
            "is_steiner": self.is_steiner,
        }


def support_blocks(C: LinearCode, w: int,
                   caps: Caps | None = None) -> DesignReport:
    """Distinct supports of the weight-w codewords, as a design skeleton
    (no t-design verification yet)."""
    blocks = tuple(distinct_supports(exact_weight_words(C, w, caps)))
    return DesignReport(n=C.n, block_size=w, blocks=blocks,
                        t_lambda={}, is_steiner=False)


def _coverage_counts(report: DesignReport, t: int) -> Counter:
    return Counter(chain.from_iterable(
        combinations(b, t) for b in report.blocks))


def verify_t_design(report: DesignReport, t: int,
                    caps: Caps | None = None) -> int | None:
    """The constant λ if every t-subset of points lies in the same number
    of blocks (and that number is positive); None otherwise."""
    if not 1 <= t <= report.block_size:
        raise BadParameters(
            f"need 1 <= t <= block size {report.block_size}, got {t}")
    if not report.blocks:
        return None
    return _design_lambdas(report, t, caps).get(t)


def _design_lambdas(report: DesignReport, t_max: int,
                    caps: Caps | None) -> dict[int, int]:
    """λ_t for each t <= t_max at which the blocks form a t-design, each
    level counted once and checked against the levels below it."""
    w = report.block_size
    if t_max > w:
        raise BadParameters(f"need 1 <= t <= block size {w}, got {t_max}")
    cost = len(report.blocks) * sum(math.comb(w, t)
                                    for t in range(1, t_max + 1))
    caps = _caps(caps)
    if cost > caps.search:
        raise SearchTooLarge(f"design count up to t = {t_max} costs {cost} "
                             f"t-subsets, exceeds cap {caps.search}")
    lambdas = {}
    for t in range(1, t_max + 1):
        counts = _coverage_counts(report, t)
        values = set(counts.values())
        if len(values) == 1 and len(counts) == math.comb(report.n, t):
            lambdas[t] = values.pop()  # no t-subset is uncovered
    _check_downward_consistency(report, lambdas)
    return lambdas


def _check_downward_consistency(report: DesignReport,
                                lambdas: dict[int, int]) -> None:
    # a t-design is a t'-design for t' < t with binomially scaled λ
    n, w = report.n, report.block_size
    for t, lam in lambdas.items():
        for tp in range(1, t):
            expected, rest = divmod(lam * math.comb(n - tp, t - tp),
                                    math.comb(w - tp, t - tp))
            if rest or lambdas.get(tp) != expected:
                raise DesignInvariantBroken(
                    f"{t}-design with λ = {lam} is not a {tp}-design")
        if len(report.blocks) * math.comb(w, t) != lam * math.comb(n, t):
            raise DesignInvariantBroken(
                f"{len(report.blocks)} blocks break b C(w,t) = λ C(n,t) for "
                f"the {t}-design with λ = {lam}")


def analyze_design(C: LinearCode, w: int, t_max: int | None = None,
                   caps: Caps | None = None) -> DesignReport:
    """Support blocks plus t-design verification for 1 <= t <= t_max."""
    report = support_blocks(C, w, caps)
    if not report.blocks:
        return report
    if t_max is None:
        t_max = min(report.block_size, 4)
    t_lambda = _design_lambdas(report, t_max, caps)
    steiner = any(t >= 2 and lam == 1 for t, lam in t_lambda.items())
    return replace(report, t_lambda=t_lambda, is_steiner=steiner)


def one_design_locality_link(C: LinearCode,
                             caps: Caps | None = None) -> bool:
    """Whether the minimum-weight dual supports form a 1-design; when they
    do, the locality must be d(dual) - 1, and that is checked."""
    D = dual(C)
    d_dual = minimum_distance(D, caps)
    report = support_blocks(D, d_dual, caps)
    lam = verify_t_design(report, 1, caps) if report.blocks else None
    if lam is None:
        return False
    r_min = certified_locality(C, caps)
    if r_min != d_dual - 1:
        raise LocalityInvariantBroken(
            f"uniform dual coverage must pin the locality at d(dual) - 1 = "
            f"{d_dual - 1}, got {r_min}")
    return True
