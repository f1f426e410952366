"""Constructions of classical code families: Hamming and simplex codes,
cyclic and BCH codes, generalized Reed-Muller codes, codes from ovoids and
maximal arcs in projective space, codes built from oval polynomials over
even-characteristic fields, and the ternary Golay code.

Each job has one implementation: code_core._projective_span walks the
points of PG(m-1, q) as the classes of the span of the identity;
_code_with_zeros builds BCH and punctured generalized Reed-Muller codes
alike from their zero sets, one minimal polynomial per cyclotomic coset
(MacWilliams and Sloane, ch. 7); _code_from_columns builds every code
whose generator columns are a point set.

Every builder that claims parameters returns through _checked, which
labels the code and checks its length, its dimension and, whenever
code_core.plan prices it within the caps, its minimum distance.  Lengths
above MAX_LENGTH are refused before any loop.  Point-set builders (ovoids,
arcs) return explicit point sets so the exhaustive geometric validators
can be run separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .code_core import (
    Caps,
    LinearCode,
    _numpy_field_tables,
    _projective_span,
    dual,
    extend,
    field_for_q,
    from_generator,
    from_parity_check,
    minimum_distance,
    plan,
)
from .errors import (
    BadParameters,
    CapExceeded,
    ConstructionInvariantBroken,
    FamilyUnavailableForParameters,
    FieldTooLarge,
    GcdNotOne,
    HypothesisViolated,
    NotADivisor,
    NotAnOvoid,
    NotMaximalArc,
    SearchTooLarge,
    WrongFieldForm,
)
from .gf import (
    FieldSpec,
    Poly,
    absolute_trace,
    cyclotomic_coset,
    minimal_polynomial,
    poly,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_x_pow_n_minus_1,
    splitting_field,
)

MAX_LENGTH = 1 << 16


def _check_length(n: int) -> None:
    if n > MAX_LENGTH:
        shown = n if n < 1 << 64 else "2^64 or more"
        raise FieldTooLarge(f"length {shown} exceeds {MAX_LENGTH}")


def _length_power(q: int, m: int) -> int:
    """q^m, q >= 2, for a length of at least q^(m-1): refused before it is
    computed when m > 64, since that length is then 2^64 or more."""
    if m > 64:
        _check_length(1 << 64)
    return q ** m


def _checked(C: LinearCode, label: str, n: int, k: int, d: int | None,
             error_cls) -> LinearCode:
    """C, labelled label, refused with error_cls unless it is [n, k] with
    minimum distance d; d is verified when plan prices it within the caps,
    and never when it is None."""
    C.label = label
    if (C.n, C.k) != (n, k):
        raise error_cls(f"{label} came out [{C.n}, {C.k}], "
                        f"expected [{n}, {k}]")
    if d is None:
        return C
    try:
        plan(n, k, C.field.q, "distance", Caps.from_env(), w=d)
    except CapExceeded:
        return C
    actual = minimum_distance(C)
    if actual != d:
        raise error_cls(f"{C!r} has minimum distance {actual}, expected {d}")
    return C


# ---------------------------------------------------------------------------
# Hamming and simplex codes

def projective_point_list(field: FieldSpec, m: int) -> list[tuple[int, ...]]:
    """One representative per projective point of PG(m-1, q): first nonzero
    coordinate 1, sorted by the integer encoding sum c_i q^i of the tuple.
    They are the class representatives of the span of the identity."""
    if m == 0:
        return []
    span = _projective_span(_numpy_field_tables(field),
                            np.eye(m, dtype=np.int32)[None])
    P = np.concatenate([V[0].T.copy() for V in span])  # buffers are reused
    return list(map(tuple, P[np.lexsort(P.T)].tolist()))


def hamming(q: int, m: int) -> LinearCode:
    if m < 2:
        raise BadParameters(f"hamming needs m >= 2, got {m}")
    field = field_for_q(q)
    n = (_length_power(q, m) - 1) // (q - 1)
    _check_length(n)
    pts = projective_point_list(field, m)
    label = f"hamming({q},{m})"  # also names the dual built beside it
    return _checked(from_parity_check(field, list(zip(*pts)), label=label),
                    label, n, n - m, 3, ConstructionInvariantBroken)


def simplex(q: int, m: int) -> LinearCode:
    if m < 2:
        raise BadParameters(f"simplex needs m >= 2, got {m}")
    D = dual(hamming(q, m))
    D.label = f"simplex({q},{m})"
    return D


# ---------------------------------------------------------------------------
# cyclic and BCH codes

def cyclic_code(q: int, n: int, g: Poly, label: str | None = None) -> LinearCode:
    if n < 1:
        raise BadParameters(f"cyclic code length {n} is below 1")
    _check_length(n)
    field = field_for_q(q)
    if g.field != field:
        raise WrongFieldForm(f"generator polynomial lives over GF({g.field.q}), "
                             f"expected GF({q})")
    if math.gcd(n, q) != 1:
        raise GcdNotOne(f"gcd({n}, {q}) != 1")
    if g.is_zero():
        raise NotADivisor(f"the zero polynomial does not divide x^{n} - 1")
    if g.degree >= n:
        raise NotADivisor(f"degree {g.degree} generator for length {n}")
    _, rem = poly_divmod(poly_x_pow_n_minus_1(field, n), g)
    if not rem.is_zero():
        raise NotADivisor("generator polynomial does not divide x^n - 1")
    k = n - g.degree
    rows = [[0] * i + list(g.coeffs) + [0] * (k - 1 - i) for i in range(k)]
    return from_generator(field, rows, label=label)


def _code_with_zeros(field: FieldSpec, n: int, zeros, label: str) -> LinearCode:
    """The cyclic code of length n over field with the zeros beta^j, j in
    zeros, and their conjugates, for a primitive n-th root of unity beta in
    the splitting field: its generator multiplies one minimal polynomial per
    distinct cyclotomic coset of the zeros."""
    ext, emb, beta = splitting_field(field, n)
    g = poly(field, [1])
    seen = set()
    for j in zeros:
        coset = cyclotomic_coset(j % n, n, field.q)
        if coset not in seen:
            seen.add(coset)
            g = poly_mul(g, minimal_polynomial(ext, beta, j % n, n, field, emb))
    return cyclic_code(field.q, n, g, label=label)


def bch(q: int, n: int, delta: int, h: int) -> LinearCode:
    """Cyclic code whose generator is the least common multiple of the minimal
    polynomials of beta^h, ..., beta^(h+delta-2) for a primitive n-th root of
    unity beta in the splitting field."""
    _check_length(n)
    if not 2 <= delta <= n:
        raise BadParameters(f"designed distance {delta} outside [2, {n}]")
    return _code_with_zeros(field_for_q(q), n, range(h, h + delta - 1),
                            f"bch({q},{n},{delta},{h})")


def ternary_golay() -> LinearCode:
    return _checked(bch(3, 11, 2, 1), "ternary-golay", 11, 6, 5,
                    ConstructionInvariantBroken)


# ---------------------------------------------------------------------------
# generalized Reed-Muller codes

def q_weight(j: int, q: int, m: int) -> int:
    """Digit sum of j written base q with m digits."""
    if not 0 <= j < q ** m:
        raise BadParameters(f"{j} outside [0, q^m)")
    s = 0
    while j:
        s += j % q
        j //= q
    return s


def grm_dimension(q: int, ell: int, m: int) -> int:
    def binom(a: int, b: int) -> int:
        if b < 0 or a < b:
            return 0
        return math.comb(a, b)

    return sum((-1) ** j * binom(m, j) * binom(i - j * q + m - 1, i - j * q)
               for i in range(ell + 1) for j in range(m + 1))


def grm_distance(q: int, ell: int, m: int) -> int:
    ell1, ell0 = divmod(ell, q - 1)
    return (q - ell0) * q ** (m - ell1 - 1)


def _check_grm_range(q: int, ell: int, m: int) -> None:
    if not 1 <= ell < (q - 1) * m:
        raise BadParameters(
            f"order {ell} outside [1, {(q - 1) * m}) for q={q}, m={m}")
    if ell >= q * (m - 1):
        warnings.warn(
            f"order {ell} is at or above q(m-1) = {q * (m - 1)}; the closed-form "
            f"dimension and distance are still asserted", stacklevel=3)


def grm_punctured(q: int, ell: int, m: int) -> LinearCode:
    """Cyclic code of length q^m - 1 whose generator polynomial has the root
    beta^j exactly when the base-q digit sum of j is below (q-1)m - ell."""
    _check_grm_range(q, ell, m)
    field = field_for_q(q)
    n = _length_power(q, m) - 1
    _check_length(n)
    bound = (q - 1) * m - ell
    zeros = [j for j in range(1, n) if q_weight(j, q, m) < bound]
    label = f"grm-punctured({q},{ell},{m})"
    return _checked(_code_with_zeros(field, n, zeros, label), label, n,
                    grm_dimension(q, ell, m), None, ConstructionInvariantBroken)


def grm(q: int, ell: int, m: int) -> LinearCode:
    return _checked(extend(grm_punctured(q, ell, m)), f"grm({q},{ell},{m})",
                    q ** m, grm_dimension(q, ell, m), grm_distance(q, ell, m),
                    ConstructionInvariantBroken)


# ---------------------------------------------------------------------------
# point sets in projective space

def _validate_projective(field: FieldSpec, points, width: int):
    pts = [tuple(p) for p in points]
    normalized = set()
    for pt in pts:
        if len(pt) != width:
            raise BadParameters(f"point {pt} is not {width}-dimensional")
        for x in pt:
            field.check(x)
        lead = next((x for x in pt if x), None)
        if lead is None:
            raise BadParameters("zero vector is not a projective point")
        if lead != 1:
            inv = field.inv(lead)
            pt_n = tuple(field.mul(inv, x) for x in pt)
        else:
            pt_n = pt
        if pt_n in normalized:
            raise BadParameters(f"points {pt} duplicated projectively")
        normalized.add(pt_n)
    return pts


@dataclass(frozen=True)
class PointSet:
    """Points of PG(dim, q) as (dim + 1)-component column vectors, pairwise
    projectively distinct."""

    field: FieldSpec
    dim: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(
            _validate_projective(self.field, self.points, self.dim + 1)))

    def __len__(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# ovoids

def _ovoid_points(field: FieldSpec, z) -> PointSet:
    """The point at infinity (0, 0, 1, 0) and the affine points
    (x, y, z(x, y), 1)."""
    q = field.q
    return PointSet(field, 3, ((0, 0, 1, 0),) + tuple(
        (x, y, z(x, y), 1) for x in range(q) for y in range(q)))


def elliptic_quadric(q: int) -> PointSet:
    """The point at infinity plus the affine points (x, y, x^2+xy+ay^2, 1)
    for the smallest a making x^2+x+a rootless."""
    if q <= 2:
        raise WrongFieldForm(f"ovoids need q > 2, got {q}")
    field = field_for_q(q)
    _check_length(q * q + 1)
    a = next((c for c in range(q)
              if all(field.add(field.add(field.mul(t, t), t), c) != 0
                     for t in range(q))), None)
    if a is None:
        raise ConstructionInvariantBroken("no irreducible x^2+x+a (impossible)")
    add, mul = field.add, field.mul
    return _ovoid_points(field, lambda x, y: add(
        add(mul(x, x), mul(x, y)), mul(a, mul(y, y))))


def tits_ovoid(q: int) -> PointSet:
    """The non-classical ovoid over GF(2^(2e+1)): affine points
    (x, y, x^sigma + xy + y^(sigma+2), 1) with sigma = 2^(e+1)."""
    m = q.bit_length() - 1
    if q < 8 or q & (q - 1) or m % 2 == 0:
        raise WrongFieldForm(f"Tits ovoid needs q = 2^(2e+1) with e >= 1, got {q}")
    sigma = 1 << ((m - 1) // 2 + 1)
    field = field_for_q(q)
    _check_length(q * q + 1)
    add, pw = field.add, field.pow
    return _ovoid_points(field, lambda x, y: add(
        add(pw(x, sigma), field.mul(x, y)), pw(y, sigma + 2)))


def _code_from_columns(field: FieldSpec, cols, label: str, n: int, k: int,
                       d: int, error_cls) -> LinearCode:
    """The code generated by the columns cols, through _checked."""
    return _checked(from_generator(field, list(zip(*cols))), label, n, k, d,
                    error_cls)


def is_ovoid(ps: PointSet, caps: Caps | None = None) -> bool:
    """q^2 + 1 points of PG(3, q), no three on a common line: the code with
    the points as parity-check columns has no word of weight <= 3."""
    field = ps.field
    if ps.dim != 3 or len(ps) != field.q ** 2 + 1:
        return False
    H = from_parity_check(field, list(zip(*ps.points)))
    return minimum_distance(H, caps) >= 4


def ovoid_code(ps: PointSet) -> LinearCode:
    q = ps.field.q
    return _code_from_columns(ps.field, ps.points, f"ovoid({q})",
                              q * q + 1, 4, q * q - q, NotAnOvoid)


# ---------------------------------------------------------------------------
# maximal arcs

def denniston_arc(q: int, h: int) -> PointSet:
    """Affine points (x, y, 1) whose value under an irreducible binary
    quadratic form lands in the additive subgroup {0, ..., h-1}."""
    if q < 8 or q & (q - 1):
        raise BadParameters(f"need q = 2^m with m >= 3, got {q}")
    if not 4 <= h < q or h & (h - 1):
        raise BadParameters(f"need h = 2^i with 2 <= i < m, got {h}")
    field = field_for_q(q)
    n = h * q + h - q
    _check_length(n)
    c = next((t for t in range(q) if absolute_trace(field, t) == 1), None)
    if c is None:
        raise ConstructionInvariantBroken("no trace-one element (impossible)")
    pts = []
    for x in range(q):
        x2 = field.mul(x, x)
        for y in range(q):
            v = field.add(field.add(x2, field.mul(x, y)),
                          field.mul(c, field.mul(y, y)))
            if v < h:  # encodings below h form the chosen additive subgroup
                pts.append((x, y, 1))
    if len(pts) != n:
        raise ConstructionInvariantBroken(
            f"arc has {len(pts)} points, expected {n}")
    return PointSet(field, 2, tuple(pts))


def is_maximal_arc(ps: PointSet, h: int) -> bool:
    """Exhaustive check: every line of PG(2, q) meets the set in 0 or h
    points."""
    field, pts = ps.field, ps.points
    if ps.dim != 2:
        return False
    for line in projective_point_list(field, 3):
        a, b, c = line
        hits = 0
        for (x, y, z) in pts:
            s = field.add(field.add(field.mul(a, x), field.mul(b, y)),
                          field.mul(c, z))
            if s == 0:
                hits += 1
        if hits not in (0, h):
            return False
    return True


def arc_code(ps: PointSet) -> LinearCode:
    q, n = ps.field.q, len(ps)
    h, rem = divmod(n + q, q + 1)
    if rem != 0:
        raise NotMaximalArc(f"{n} points cannot form a maximal arc in PG(2,{q})")
    return _code_from_columns(ps.field, ps.points, f"arc({q},{h})",
                              n, 3, n - h, NotMaximalArc)


# ---------------------------------------------------------------------------
# oval polynomials and their codes

@dataclass(frozen=True)
class OvalPolynomial:
    field: FieldSpec
    poly: Poly
    family: str

    @property
    def q(self) -> int:
        return self.field.q


def _monomial_exponents(family: str, q: int, m: int, param: int | None):
    odd = m % 2 == 1
    if family == "translation":
        h = 1 if param is None else param
        if math.gcd(h, m) != 1:
            raise FamilyUnavailableForParameters(
                f"translation needs gcd(h, m) = 1, got h={h}, m={m}")
        if h < 1:
            raise FamilyUnavailableForParameters(
                f"translation needs h >= 1, got h={h}")
        return [1 << (h % m)]  # x^(2^h) = x^(2^(h mod m)) on GF(2^m)
    if param is not None and family in OVAL_FAMILIES:
        raise FamilyUnavailableForParameters(
            f"{family} takes no parameter, got {family}:{param}")
    if family == "segre":
        if not odd:
            raise FamilyUnavailableForParameters("segre needs m odd")
        return [6]
    if family == "glynn1":
        if not odd:
            raise FamilyUnavailableForParameters("glynn1 needs m odd")
        return [3 * 2 ** ((m + 1) // 2) + 4]
    if family == "glynn2":
        if m % 4 != 3:
            raise FamilyUnavailableForParameters("glynn2 needs m = 3 (mod 4)")
        return [2 ** ((m + 1) // 2) + 2 ** ((m + 1) // 4)]
    if family == "glynn3":
        if m % 4 != 1:
            raise FamilyUnavailableForParameters("glynn3 needs m = 1 (mod 4)")
        return [2 ** ((m + 1) // 2) + 2 ** ((3 * m + 1) // 4)]
    if family == "cherowitzo":
        if not odd:
            raise FamilyUnavailableForParameters("cherowitzo needs m odd")
        e = (m + 1) // 2
        return [1 << e, (1 << e) + 2, 3 * (1 << e) + 4]
    if family == "payne":
        # exponents 1/6, 1/2, 5/6 as inverses modulo q-1; the same three
        # monomials whichever congruent representatives are chosen
        if not odd:
            raise FamilyUnavailableForParameters("payne needs m odd")
        inv6 = pow(6, -1, q - 1)
        return [inv6, pow(2, -1, q - 1), 5 * inv6 % (q - 1)]
    raise FamilyUnavailableForParameters(f"unknown oval family {family!r}")


OVAL_FAMILIES = ("translation", "segre", "glynn1", "glynn2", "glynn3",
                 "cherowitzo", "payne")


def oval_poly(family: str, q: int, param: int | None = None) -> OvalPolynomial:
    """A catalog oval polynomial by family name; exponents are reduced
    modulo q-1 so the polynomial has degree below q.  The result is
    validated exhaustively."""
    m = q.bit_length() - 1
    if q < 8 or q & (q - 1):
        raise FamilyUnavailableForParameters(f"need q = 2^m with m >= 3, got {q}")
    field = field_for_q(q)
    coeffs = [0] * q
    for e in _monomial_exponents(family, q, m, param):
        e = e % (q - 1)
        if e == 0:
            e = q - 1
        coeffs[e] = field.add(coeffs[e], 1)
    f = OvalPolynomial(field, poly(field, coeffs), family)
    if not is_oval_polynomial(field, f.poly):
        raise ConstructionInvariantBroken(
            f"catalog polynomial {family} at q={q} failed the exhaustive "
            f"oval check")
    return f


def is_oval_polynomial(field: FieldSpec, f: Poly) -> bool:
    """Exhaustive test: f(0)=0, f(1)=1, f permutes the field, and x -> f(x)+ux
    is 2-to-1 for every u != 0."""
    if field.p != 2:
        raise WrongFieldForm("oval polynomials live over characteristic 2")
    q = field.q
    if q > 1 << 12:
        raise SearchTooLarge(f"exhaustive oval check at q={q} is out of range")
    if f.field != field:
        raise WrongFieldForm("polynomial is over the wrong field")
    values = [poly_eval(f, x) for x in range(q)]
    if values[0] != 0 or values[1] != 1:
        return False
    if len(set(values)) != q:
        return False
    for u in range(1, q):
        hit: dict[int, int] = {}
        for x in range(q):
            v = field.add(values[x], field.mul(u, x))
            hit[v] = hit.get(v, 0) + 1
        if any(c != 2 for c in hit.values()):
            return False
    return True


def _oval_columns(f: OvalPolynomial):
    """(f(a), a, 1) for the nonzero a, in order of their logarithms."""
    return [(poly_eval(f.poly, a), a, 1)
            for a in map(f.field.gen_pow, range(f.q - 1))]


def _require_gf2_coeffs_odd_m(f: OvalPolynomial, what: str) -> None:
    m = f.field.m
    if m % 2 == 0:
        raise HypothesisViolated(f"{what} needs odd extension degree, got m={m}")
    if any(c not in (0, 1) for c in f.poly.coeffs):
        raise HypothesisViolated(f"{what} needs coefficients in GF(2)")


def code_bf_bar(f: OvalPolynomial) -> LinearCode:
    """The [q+3, 3, q] code whose columns are (f(a), a, 1) over the nonzero
    a plus (0,0,1), (1,0,0), (0,1,0) and (1,1,0)."""
    field = f.field
    if field.m < 3:
        raise HypothesisViolated(f"need m >= 3, got m={field.m}")
    q = field.q
    cols = [(0, 0, 1)] + _oval_columns(f) + [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    return _code_from_columns(field, cols, f"oval-code-bfbar({f.family},{q})",
                              q + 3, 3, q, HypothesisViolated)


def code_gf(f: OvalPolynomial) -> LinearCode:
    """The [q+1, 3, q-2] code whose columns are (f(a), a, 1) over the nonzero
    a plus (0,1,1) and (1,0,1)."""
    _require_gf2_coeffs_odd_m(f, "the [q+1, 3, q-2] construction")
    q = f.q
    cols = _oval_columns(f) + [(0, 1, 1), (1, 0, 1)]
    return _code_from_columns(f.field, cols, f"oval-code-gf({f.family},{q})",
                              q + 1, 3, q - 2, HypothesisViolated)


def code_gf_bar(f: OvalPolynomial) -> LinearCode:
    """The [q+2, 3, q-1] code: the same columns with (0,0,1) prepended."""
    _require_gf2_coeffs_odd_m(f, "the [q+2, 3, q-1] construction")
    q = f.q
    cols = [(0, 0, 1)] + _oval_columns(f) + [(0, 1, 1), (1, 0, 1)]
    return _code_from_columns(f.field, cols, f"oval-code-gfbar({f.family},{q})",
                              q + 2, 3, q - 1, HypothesisViolated)
