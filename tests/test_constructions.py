"""Tests for the code-family constructors: parameters, closed-form weight
enumerators, geometric validators, and the catalog of oval polynomials."""

import random
import warnings
from itertools import combinations

import pytest
import scalar_reference as ref
from scalar_reference import (hamming_weight_distribution_formula,
                              is_maximal_arc, is_ovoid)

from locality_lab import constructions
from locality_lab.code_core import (
    Caps,
    dual,
    exact_weight_words,
    is_cyclic,
    macwilliams,
    minimum_distance,
    weight_distribution,
)
from locality_lab.constructions import (
    OVAL_FAMILIES,
    PointSet,
    arc_code,
    bch,
    code_bf_bar,
    code_gf,
    code_gf_bar,
    cyclic_code,
    denniston_arc,
    elliptic_quadric,
    field_for_q,
    grm,
    grm_dimension,
    grm_distance,
    grm_punctured,
    hamming,
    is_oval_polynomial,
    oval_poly,
    ovoid_code,
    projective_point_list,
    q_weight,
    simplex,
    ternary_golay,
    tits_ovoid,
)
from locality_lab.errors import (
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
    WrongFieldForm,
)
from locality_lab.gf import DLOG_CAP, field_new, poly, splitting_field
from locality_lab.locality import minimum_linear_locality

F3 = field_new(3, 1)
F8 = field_new(2, 3)


def sparse(wd):
    return {i: c for i, c in enumerate(wd.counts) if c}


# ---------------------------------------------------------------------------
# Hamming and simplex

def test_projective_point_list_matches_the_scalar_loop():
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        field = field_for_q(q)
        m = 0
        while q ** m <= 1 << 12:
            pts = projective_point_list(field, m)
            assert pts == ref.projective_point_list(field, m), (q, m)
            assert len(pts) == (q ** m - 1) // (q - 1)
            m += 1


def test_hamming_parameters():
    H = hamming(3, 3)
    assert (H.n, H.k) == (13, 10)
    assert minimum_distance(H) == 3
    H2 = hamming(2, 3)
    assert (H2.n, H2.k, minimum_distance(H2)) == (7, 4, 3)
    with pytest.raises(BadParameters):
        hamming(3, 1)


def test_simplex_refuses_under_its_own_name():
    for m in (1, 0, -1):
        with pytest.raises(BadParameters,
                           match=f"^simplex needs m >= 2, got {m}$"):
            simplex(2, m)


def test_simplex_is_one_weight():
    S = simplex(3, 3)
    assert (S.n, S.k) == (13, 3)
    assert sparse(weight_distribution(S)) == {0: 1, 9: 26}
    assert dual(S) == hamming(3, 3)


def test_simplex_is_built_from_its_columns():
    # from its own 14 x 16,383 generator: the Hamming code's 16,369 x 16,383
    # generator, which the dual would be, is refused as too large to store
    S = simplex(2, 14)
    assert (S.n, S.k, minimum_distance(S)) == (16383, 14, 8192)
    assert S.label == "simplex(2,14)"
    with pytest.raises(CapExceeded, match="^dual generator 16369 x 16383 "):
        dual(S)


def test_hamming_weight_formula_examples():
    assert hamming_weight_distribution_formula(3, 2).counts == (1, 0, 0, 8, 0)
    assert hamming_weight_distribution_formula(2, 3).counts == \
        (1, 0, 0, 7, 7, 0, 0, 1)


def test_hamming_weight_formula_matches_enumeration():
    for q, m in ((2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)):
        formula = hamming_weight_distribution_formula(q, m)
        n = (q ** m - 1) // (q - 1)
        assert sum(formula.counts) == q ** (n - m)
        enumerated = macwilliams(weight_distribution(simplex(q, m)), n, m, q)
        assert formula.counts == enumerated.counts


# ---------------------------------------------------------------------------
# cyclic and BCH codes

def test_cyclic_code_trivial_generators():
    whole = cyclic_code(3, 4, poly(F3, [1]))
    assert (whole.n, whole.k, minimum_distance(whole)) == (4, 4, 1)
    parity = cyclic_code(3, 4, poly(F3, [2, 1]))  # x - 1
    assert (parity.n, parity.k, minimum_distance(parity)) == (4, 3, 2)
    assert is_cyclic(parity) and is_cyclic(dual(parity))


def test_cyclic_code_validation():
    with pytest.raises(NotADivisor):
        cyclic_code(3, 4, poly(F3, [1, 1, 1]))  # roots have order 3, not 4
    with pytest.raises(GcdNotOne):
        cyclic_code(3, 6, poly(F3, [2, 1]))
    with pytest.raises(WrongFieldForm):
        cyclic_code(2, 4, poly(F3, [2, 1]))
    with pytest.raises(NotADivisor, match="the zero polynomial"):
        cyclic_code(3, 4, poly(F3, [0]))


def test_cyclic_lengths_above_max_length_are_refused(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_LENGTH", 16)
    with pytest.raises(FieldTooLarge, match="length 17 exceeds 16"):
        bch(2, 17, 3, 1)
    with pytest.raises(FieldTooLarge, match="length 17 exceeds 16"):
        cyclic_code(2, 17, poly(field_new(2, 1), [1, 1]))
    assert bch(2, 15, 3, 1).n == 15


def test_point_set_lengths_above_max_length_are_refused(monkeypatch):
    monkeypatch.setattr(constructions, "MAX_LENGTH", 16)
    for build, n in ((lambda: elliptic_quadric(4), 17),
                     (lambda: tits_ovoid(8), 65),
                     (lambda: denniston_arc(8, 4), 28)):
        with pytest.raises(FieldTooLarge, match=f"length {n} exceeds 16"):
            build()


@pytest.mark.parametrize("family, args, zeros", [
    ("bch", (2, 15, 5, 1), range(1, 5)),
    ("bch", (2, 31, 5, 1), range(1, 5)),
    ("bch", (3, 13, 4, 2), range(2, 5)),
    ("bch", (3, 26, 4, 2), range(2, 5)),
    ("bch", (9, 10, 3, 1), range(1, 3)),
    ("bch", (16, 17, 3, 1), range(1, 3)),
    ("bch", (4, 21, 4, 0), range(0, 3)),
    ("grm-punctured", (2, 2, 4), [j for j in range(1, 15)
                                  if q_weight(j, 2, 4) < 2]),
    ("grm-punctured", (3, 1, 2), [j for j in range(1, 8)
                                  if q_weight(j, 3, 2) < 3]),
    ("grm-punctured", (4, 1, 3), [j for j in range(1, 63)
                                  if q_weight(j, 4, 3) < 8]),
    # n | q - 1: Reed-Solomon codes, whose splitting field is GF(q) itself
    ("bch", (8, 7, 3, 1), range(1, 3)),
    ("bch", (16, 15, 5, 1), range(1, 5)),
    # splitting fields GF(2^20) and GF(3^11), above gf.DLOG_CAP: their
    # minimal polynomials come from the untabulated arithmetic
    ("bch", (2, 41, 3, 1), range(1, 3)),
    ("bch", (3, 23, 2, 1), range(1, 2)),
])
def test_zero_set_codes_match_the_coset_loop(family, args, zeros):
    build = {"bch": bch, "grm-punctured": grm_punctured}[family]
    C = build(*args)
    q, n = args[0], (args[1] if family == "bch" else args[0] ** args[2] - 1)
    want = cyclic_code(q, n, ref.generator_with_zeros(field_for_q(q), n, zeros))
    assert C.gen == want.gen
    assert C.label == f"{family}({','.join(map(str, args))})"


@pytest.mark.parametrize("args, ext_q, nkd", [
    ((2, 41, 3, 1), 2 ** 20, (41, 21, 9)),
    ((3, 23, 2, 1), 3 ** 11, (23, 12, 8)),
])
def test_bch_codes_over_untabulated_splitting_fields(args, ext_q, nkd):
    ext = splitting_field(field_for_q(args[0]), args[1])[0]
    assert ext.q == ext_q > DLOG_CAP and ext.tables is None
    C = bch(*args)
    assert (C.n, C.k, minimum_distance(C)) == nkd


@pytest.mark.parametrize("args, nkd", [((8, 7, 3, 1), (7, 5, 3)),
                                       ((16, 15, 5, 1), (15, 11, 5))])
def test_reed_solomon_bch_codes_are_mds_with_locality_k(args, nkd):
    C = bch(*args)
    assert (C.n, C.k, minimum_distance(C)) == nkd
    assert minimum_linear_locality(C).r_min == C.k


def test_bch_small_nmds_instances():
    C1 = bch(9, 10, 3, 1)
    assert (C1.n, C1.k, minimum_distance(C1)) == (10, 6, 4)
    C2 = bch(16, 17, 3, 1)
    assert (C2.n, C2.k, minimum_distance(C2)) == (17, 13, 4)


def test_bch_q32_dimensions_and_designed_distance():
    C = bch(32, 33, 4, 1)
    assert (C.n, C.k) == (33, 27)
    # BCH bound: no nonzero word lighter than the designed distance
    for w in range(1, 4):
        assert len(exact_weight_words(C, w, Caps())) == 0


def test_bch_bound_on_small_instances():
    for q, n, delta, h in ((2, 7, 3, 1), (3, 8, 3, 1), (2, 15, 5, 1),
                           (3, 11, 2, 1), (4, 15, 4, 1), (5, 8, 3, 2)):
        C = bch(q, n, delta, h)
        assert minimum_distance(C) >= delta
        assert is_cyclic(C)


def test_ternary_golay():
    G = ternary_golay()
    assert (G.n, G.k, minimum_distance(G)) == (11, 6, 5)
    D = dual(G)
    assert (D.n, D.k, minimum_distance(D)) == (11, 5, 6)
    assert sparse(weight_distribution(D)) == {0: 1, 6: 132, 9: 110}
    assert G == cyclic_code(3, 11, _golay_generator())


def _golay_generator():
    # independent route: factor x^11 - 1 over GF(3) by scanning monic
    # degree-5 divisors, then pick the factor bch() uses (root beta^1)
    from locality_lab.gf import poly_divmod, poly_x_pow_n_minus_1, splitting_field
    target = poly_x_pow_n_minus_1(F3, 11)
    ext, _, beta = splitting_field(F3, 11)
    divisors = []
    for enc in range(3 ** 5):
        coeffs = []
        e = enc
        for _ in range(5):
            coeffs.append(e % 3)
            e //= 3
        cand = poly(F3, coeffs + [1])
        _, rem = poly_divmod(target, cand)
        if rem.is_zero():
            divisors.append(cand)
    assert len(divisors) == 2
    with_beta = [g for g in divisors
                 if _eval_in_ext(ext, g, beta) == 0]
    assert len(with_beta) == 1
    return with_beta[0]


def _eval_in_ext(ext, g, x):
    acc = 0
    for c in reversed(g.coeffs):
        acc = ext.add(ext.mul(acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# generalized Reed-Muller codes

def test_q_weight():
    assert q_weight(0, 3, 2) == 0
    assert q_weight(5, 3, 2) == 3  # 5 = 1*3 + 2
    assert max(q_weight(j, 3, 2) for j in range(9)) == 4
    with pytest.raises(BadParameters):
        q_weight(9, 3, 2)


def test_grm_examples():
    R = grm(3, 1, 2)
    assert (R.n, R.k, minimum_distance(R)) == (9, 3, 6)
    assert grm(3, 2, 2) == dual(R)
    R2 = grm(2, 1, 3)
    assert (R2.n, R2.k, minimum_distance(R2)) == (8, 4, 4)


def test_grm_formula_values():
    assert grm_dimension(3, 1, 2) == 3
    assert grm_distance(3, 1, 2) == 6
    for q, m in ((2, 3), (3, 2), (4, 2), (3, 3)):
        n = q ** m
        for ell in range(1, (q - 1) * m):
            partner = m * (q - 1) - 1 - ell
            assert grm_dimension(q, ell, m) + grm_dimension(q, partner, m) == n


def test_grm_range_checks():
    with pytest.raises(BadParameters):
        grm(3, 0, 2)
    with pytest.raises(BadParameters):
        grm(3, 4, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grm(3, 3, 2)  # at q(m-1) = 3, outside the narrower printed range
        assert any("closed-form" in str(w.message) for w in caught)


def test_grm_sweep_small_fields():
    """Constructors self-assert dimension always and distance when the
    enumeration fits; this sweep additionally checks the duality pairing."""
    cases = [(q, m) for q, m in
             ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2),
              (7, 2), (8, 2), (9, 2), (4, 3))
             if q ** m <= 81]
    for q, m in cases:
        built = {}
        for ell in range(1, (q - 1) * m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                C = grm(q, ell, m)
            assert C.k == grm_dimension(q, ell, m)
            built[ell] = C
        for ell, C in built.items():
            partner = m * (q - 1) - 1 - ell
            if partner in built:
                assert dual(C) == built[partner]


def test_grm_punctured_is_cyclic_of_right_dimension():
    P = grm_punctured(3, 1, 2)
    assert (P.n, P.k) == (8, 3)
    assert is_cyclic(P)
    assert minimum_distance(P) == grm_distance(3, 1, 2) - 1


# ---------------------------------------------------------------------------
# ovoids

def test_elliptic_quadric_code_q4():
    ps = elliptic_quadric(4)
    assert len(ps) == 17
    C = ovoid_code(ps)
    assert (C.n, C.k, minimum_distance(C)) == (17, 4, 12)
    assert sparse(weight_distribution(C)) == {0: 1, 12: 204, 16: 51}


def test_elliptic_quadrics_are_ovoids():
    for q in (3, 4, 5, 7, 8):
        assert is_ovoid(elliptic_quadric(q))


def test_ovoid_enumerator_closed_form():
    for q, builder in ((3, elliptic_quadric), (5, elliptic_quadric),
                       (7, elliptic_quadric), (8, tits_ovoid)):
        C = ovoid_code(builder(q))
        wd = weight_distribution(C)
        expected = {0: 1,
                    q * q - q: (q * q - q) * (q * q + 1),
                    q * q: (q - 1) * (q * q + 1)}
        assert sparse(wd) == expected


def test_tits_ovoid():
    ps = tits_ovoid(8)
    assert len(ps) == 65
    assert is_ovoid(ps)
    C = ovoid_code(ps)
    assert (C.n, C.k, minimum_distance(C)) == (65, 4, 56)
    with pytest.raises(WrongFieldForm):
        tits_ovoid(16)
    with pytest.raises(WrongFieldForm):
        tits_ovoid(7)


def broken_quadric():
    """elliptic_quadric(4) with three points made collinear: the last
    affine point is replaced by the sum of the first two."""
    field = field_for_q(4)
    pts = list(elliptic_quadric(4).points)
    bad = tuple(field.add(x, y) for x, y in zip(pts[1], pts[2]))
    return PointSet(field, 3, tuple(pts[:-1] + [bad]))


def triple_scan_is_ovoid(ps):
    """The definition, one scalar elimination per triple: q^2 + 1 points
    of PG(3, q), every three of them independent."""
    if ps.dim != 3 or len(ps) != ps.field.q ** 2 + 1:
        return False
    return all(len(ref.rref(ps.field, list(triple))[1]) == 3
               for triple in combinations(ps.points, 3))


def test_is_ovoid_matches_the_triple_scan():
    sets = [elliptic_quadric(q) for q in (3, 4, 5)] + [broken_quadric()]
    verdicts = [is_ovoid(ps) for ps in sets]
    assert verdicts == [triple_scan_is_ovoid(ps) for ps in sets]
    assert verdicts == [True, True, True, False]


def test_elliptic_quadric_16_is_an_ovoid():
    assert is_ovoid(elliptic_quadric(16))  # 257 points, 2.8M triples


def test_broken_point_set_is_rejected():
    field = field_for_q(4)
    pts = list(elliptic_quadric(4).points)
    broken = broken_quadric()
    assert not is_ovoid(broken)
    with pytest.raises(NotAnOvoid):
        ovoid_code(broken)
    with pytest.raises(BadParameters):
        PointSet(field, 3, tuple(pts[:-1] + [pts[0]]))  # duplicate
    with pytest.raises(BadParameters):
        PointSet(field, 3, tuple(pts[:-1] + [(0, 0, 0, 0)]))
    with pytest.raises(BadParameters):
        PointSet(field, 2, tuple(pts))  # points of PG(3, 4), not PG(2, 4)
    # a point set of PG(3, q) is no maximal arc of PG(2, q)
    assert not is_maximal_arc(elliptic_quadric(4), 4)


# ---------------------------------------------------------------------------
# maximal arcs

def test_denniston_arc_8_4():
    ps = denniston_arc(8, 4)
    assert len(ps) == 28
    assert is_maximal_arc(ps, 4)
    C = arc_code(ps)
    assert (C.n, C.k, minimum_distance(C)) == (28, 3, 24)
    assert sparse(weight_distribution(C)) == {0: 1, 24: 441, 28: 70}


def test_denniston_arcs_q16():
    for h in (4, 8):
        ps = denniston_arc(16, h)
        n = 16 * h + h - 16
        assert len(ps) == n
        assert is_maximal_arc(ps, h)
        C = arc_code(ps)
        wd = weight_distribution(C)
        assert sparse(wd) == {0: 1,
                              n - h: (16 * 16 - 1) * n // h,
                              n: ((16 ** 3 - 1) * h - (16 * 16 - 1) * n) // h}


def test_random_point_set_is_not_an_arc():
    rng = random.Random(19)
    field = field_for_q(8)
    pts = set()
    while len(pts) < 28:
        pts.add((rng.randrange(8), rng.randrange(8), 1))
    ps = PointSet(field, 2, tuple(sorted(pts)))
    assert not is_maximal_arc(ps, 4)


def test_point_sets_of_the_wrong_rank_name_their_code():
    field = field_for_q(4)
    plane = PointSet(field, 3, tuple(
        pt + (0,) for pt in projective_point_list(field, 3)[:17]))
    with pytest.raises(NotAnOvoid,
                       match=r"ovoid\(4\) came out \[17, 3\], expected \[17, 4\]"):
        ovoid_code(plane)
    with pytest.raises(NotMaximalArc,
                       match=r"arc\(8,1\) came out \[1, 1\], expected \[1, 3\]"):
        arc_code(PointSet(F8, 2, ((0, 0, 1),)))


@pytest.mark.parametrize("name, wrong, build, message", [
    # one parity-check row too few
    ("from_parity_check",
     lambda real: lambda f, rows, label=None: real(f, rows[1:], label),
     lambda: hamming(2, 3), "hamming(2,3) came out [7, 5], expected [7, 4]"),
    # zeros beta and beta^2, in two cyclotomic cosets of size 5
    ("bch", lambda real: lambda q, n, delta, h: real(q, n, 3, h),
     ternary_golay, "ternary-golay came out [11, 1], expected [11, 6]"),
    ("grm_dimension", lambda real: lambda q, ell, m: real(q, ell, m) + 1,
     lambda: grm_punctured(2, 1, 3),
     "grm-punctured(2,1,3) came out [7, 4], expected [7, 5]"),
    # a punctured code of one order up, which passes its own check
    ("grm_punctured", lambda real: lambda q, ell, m: real(q, ell + 1, m),
     lambda: grm(2, 1, 3), "grm(2,1,3) came out [8, 7], expected [8, 4]"),
], ids=["hamming", "ternary-golay", "grm-punctured", "grm"])
def test_builders_refuse_a_wrong_dimension_by_name(monkeypatch, name, wrong,
                                                   build, message):
    # every builder's claim goes through one check with one message
    monkeypatch.setattr(constructions, name,
                        wrong(getattr(constructions, name)))
    with pytest.raises(ConstructionInvariantBroken) as exc:
        build()
    assert str(exc.value) == message


def test_arc_parameter_validation():
    with pytest.raises(BadParameters):
        denniston_arc(8, 2)
    with pytest.raises(BadParameters):
        denniston_arc(4, 4)
    field = field_for_q(8)
    ps = PointSet(field, 2,
                  tuple((x, y, 1) for x in range(8) for y in range(4))[:29])
    with pytest.raises(NotMaximalArc):
        arc_code(ps)


# ---------------------------------------------------------------------------
# oval polynomials

def test_catalog_families_q8_q32():
    for q in (8, 32):
        seen = 0
        for family in OVAL_FAMILIES:
            try:
                f = oval_poly(family, q)
            except FamilyUnavailableForParameters:
                continue
            seen += 1
            assert is_oval_polynomial(f.field, f.poly)
        assert seen >= 5


def test_oval_frozen_exponents():
    def exponents(f):
        return [i for i, c in enumerate(f.poly.coeffs) if c]

    assert exponents(oval_poly("translation", 8, 1)) == [2]
    assert exponents(oval_poly("segre", 8)) == [6]
    assert exponents(oval_poly("payne", 32)) == [6, 16, 26]
    assert exponents(oval_poly("cherowitzo", 32)) == [8, 10, 28]
    assert exponents(oval_poly("glynn1", 32)) == [28]
    assert exponents(oval_poly("glynn3", 32)) == [24]


def test_oval_family_congruences():
    with pytest.raises(FamilyUnavailableForParameters):
        oval_poly("segre", 16)
    with pytest.raises(FamilyUnavailableForParameters):
        oval_poly("glynn3", 8)
    with pytest.raises(FamilyUnavailableForParameters):
        oval_poly("glynn2", 32)
    with pytest.raises(FamilyUnavailableForParameters):
        oval_poly("translation", 16, 2)
    with pytest.raises(FamilyUnavailableForParameters):
        oval_poly("nope", 8)


def test_is_oval_polynomial_negative():
    assert not is_oval_polynomial(F8, poly(F8, [0, 0, 0, 1]))  # x^3
    assert not is_oval_polynomial(F8, poly(F8, [0, 1]))        # identity
    assert is_oval_polynomial(F8, poly(F8, [0, 0, 1]))         # x^2
    with pytest.raises(WrongFieldForm):
        is_oval_polynomial(F3, poly(F3, [0, 0, 1]))


# ---------------------------------------------------------------------------
# oval polynomial codes

def _bf_bar_enumerator(q):
    return {0: 1,
            q: (q - 1) * (q + 2) // 2,
            q + 1: (q - 1) * q * (q + 2) // 2,
            q + 2: (q - 1) * q // 2,
            q + 3: (q - 2) * (q - 1) * q // 2}


def _gf_enumerator(q):
    return {0: 1,
            q - 2: (q - 1) * (q - 2),
            q - 1: (q - 1) * (q * q - 5 * q + 12) // 2,
            q: (q - 1) * (4 * q - 5),
            q + 1: (q - 1) * (q * q - 3 * q + 4) // 2}


def _gf_bar_enumerator(q):
    return {0: 1,
            q - 1: (q - 1) * (q - 2),
            q: (q - 1) * (q * q - 3 * q + 14) // 2,
            q + 1: 3 * (q - 1) * (q - 2),
            q + 2: (q - 1) * (q * q - 3 * q + 4) // 2}


def test_oval_codes_q8():
    f = oval_poly("translation", 8, 1)
    B = code_bf_bar(f)
    assert (B.n, B.k, minimum_distance(B)) == (11, 3, 8)
    assert sparse(weight_distribution(B)) == _bf_bar_enumerator(8)
    G = code_gf(f)
    assert (G.n, G.k, minimum_distance(G)) == (9, 3, 6)
    assert sparse(weight_distribution(G)) == _gf_enumerator(8)
    Gb = code_gf_bar(f)
    assert (Gb.n, Gb.k, minimum_distance(Gb)) == (10, 3, 7)
    assert sparse(weight_distribution(Gb)) == _gf_bar_enumerator(8)


def test_oval_codes_q32_all_families():
    for family in ("translation", "segre", "glynn1", "glynn3", "cherowitzo",
                   "payne"):
        f = oval_poly(family, 32)
        assert sparse(weight_distribution(code_gf(f))) == _gf_enumerator(32)
        assert sparse(weight_distribution(code_gf_bar(f))) == _gf_bar_enumerator(32)
        assert sparse(weight_distribution(code_bf_bar(f))) == _bf_bar_enumerator(32)


def test_oval_code_hypotheses():
    f16 = oval_poly("translation", 16, 1)  # valid oval, but m is even
    B = code_bf_bar(f16)
    assert (B.n, B.k, minimum_distance(B)) == (19, 3, 16)
    with pytest.raises(HypothesisViolated):
        code_gf(f16)
    with pytest.raises(HypothesisViolated):
        code_gf_bar(f16)
