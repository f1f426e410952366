"""Release gate: one test per acceptance criterion, exact integers throughout.

Each test prints a single "criterion NN: PASS" line (visible with -s; under
plain -v the test outcome itself is the line).  A criterion that cannot be
certified fails with the full evidence in the assertion message rather than
being weakened to pass.
"""

import random

from scalar_reference import (encode, hamming_weight_distribution_formula,
                              is_maximal_arc)

from locality_lab.code_core import (
    dual,
    extend,
    field_for_q,
    from_generator,
    is_cyclic,
    macwilliams,
    minimum_distance,
    puncture,
    shorten,
    weight_distribution,
)
from locality_lab.constructions import (
    arc_code,
    bch,
    code_bf_bar,
    code_gf,
    code_gf_bar,
    denniston_arc,
    elliptic_quadric,
    grm,
    grm_punctured,
    hamming,
    oval_poly,
    ovoid_code,
    simplex,
    ternary_golay,
)
from locality_lab.designs import analyze_design
from locality_lab.locality import (
    bounds_report,
    cm_bound_upper,
    is_nmds,
    minimum_linear_locality,
    nmds_locality_check,
    nmds_support_pairing,
    repair_coefficients,
)


def _ok(num: int, summary: str) -> None:
    print(f"criterion {num:02d}: PASS — {summary}")


def _sparse(C) -> dict[int, int]:
    return {w: c for w, c in enumerate(weight_distribution(C).counts) if c}


def _profile(C):
    """(n, k, d, r_min, d_optimal, almost_d_optimal, k_certified)."""
    rep = minimum_linear_locality(C)
    b = bounds_report(C, rep.r_min)
    return (C.n, C.k, minimum_distance(C), rep.r_min,
            b.d_optimal, b.almost_d_optimal, b.k_optimal_certified)


def test_criterion_01_hamming_and_simplex():
    H, S = hamming(3, 3), simplex(3, 3)
    assert _profile(H) == (13, 10, 3, 8, True, False, True)
    n, k, d, r, _, _, k_cert = _profile(S)
    assert (n, k, d, r, k_cert) == (13, 3, 9, 2, True)
    wd = weight_distribution(H)
    assert wd == hamming_weight_distribution_formula(3, 3)
    assert wd == macwilliams(weight_distribution(S), 13, 3, 3)
    _ok(1, "[13,10,3] r=8 and [13,3,9] r=2, enumerator identities hold")


def test_criterion_02_shortened_and_punctured_hamming():
    H, S = hamming(3, 3), simplex(3, 3)
    expected = [
        (shorten(H, {0}), (12, 9, 3), 7),
        (dual(shorten(H, {0})), (12, 3, 8), 2),
        (shorten(S, {0}), (12, 2, 9), 1),
        (dual(shorten(S, {0})), (12, 10, 2), 8),
    ]
    for C, (n, k, d), r in expected:
        got = _profile(C)
        assert got[:4] == (n, k, d, r), (got, (n, k, d, r))
        assert got[6], f"k-optimality not certified for [{n},{k},{d}]"
    _ok(2, "four derived codes with localities 7, 2, 1, 8, all k-optimal")


def test_criterion_03_first_order_reed_muller():
    R = grm(3, 1, 2)
    n, k, d, r, _, _, k_cert = _profile(R)
    assert (n, k, d, r, k_cert) == (9, 3, 6, 2, True)
    nd, kd, dd, rd, _, _, kd_cert = _profile(dual(R))
    assert (nd, kd, dd, rd, kd_cert) == (9, 6, 3, 5, True)
    assert rd == (3 - 1) * 3 - 1
    assert dual(R) == grm(3, 2, 2)  # canonical generator equality
    _ok(3, "[9,3,6] r=2, dual [9,6,3] r=5, order-duality identity")


def test_criterion_04_ovoid_code_and_derivatives():
    C = ovoid_code(elliptic_quadric(4))
    assert _sparse(C) == {0: 1, 12: 204, 16: 51}
    n, k, d, r, _, _, k_cert = _profile(C)
    assert (n, k, d, r, k_cert) == (17, 4, 12, 3, True)
    assert _profile(dual(C)) == (17, 13, 4, 11, True, False, True)

    design = analyze_design(C, 12, t_max=3)
    assert len(design.blocks) == 68
    assert design.t_lambda.get(3) == 22

    derived = [
        (shorten(C, {0}), (16, 3, 12), 2, None),
        (dual(shorten(C, {0})), (16, 13, 3), 11, True),
        (dual(shorten(dual(C), {0})), (16, 4, 11), 3, None),
        (shorten(dual(C), {0}), (16, 12, 4), 10, True),
    ]
    for D, (n, k, d), r, d_mark in derived:
        got = _profile(D)
        assert got[:4] == (n, k, d, r), (got, (n, k, d, r))
        assert got[6], f"k-optimality not certified for [{n},{k},{d}]"
        if d_mark:
            assert got[4], f"d-optimality not certified for [{n},{k},{d}]"
    _ok(4, "[17,4,12] with 3-design λ=22 and all four derived codes")


def test_criterion_05_denniston_maximal_arc():
    ps = denniston_arc(8, 4)
    assert is_maximal_arc(ps, 4)
    C = arc_code(ps)
    assert _sparse(C) == {0: 1, 24: 441, 28: 70}
    n, k, d, r, _, _, k_cert = _profile(C)
    assert (n, k, d, r, k_cert) == (28, 3, 24, 2, True)
    assert _profile(dual(C)) == (28, 25, 3, 23, True, False, True)
    _ok(5, "arc passes incidence check; [28,3,24] r=2, dual r=23")


def test_criterion_06_nmds_bch_codes():
    C = bch(9, 10, 3, 1)
    assert is_nmds(C)
    assert _profile(C) == (10, 6, 4, 5, True, False, True)
    D = dual(C)
    assert _sparse(D) == {0: 1, 6: 240, 8: 2160, 9: 2000, 10: 2160}
    rep = minimum_linear_locality(C)
    assert rep.r_min == rep.d_dual - 1 == 5
    assert nmds_locality_check(C) == "dperp_minus_1"

    design = analyze_design(C, 4, t_max=3)
    assert len(design.blocks) == 30
    assert design.t_lambda == {1: 12, 2: 4, 3: 1}  # Steiner S(3, 4, 10)
    assert design.is_steiner

    pairs = nmds_support_pairing(C)
    n_min = _sparse(C)[4]
    n_max = _sparse(D)[6]
    assert n_min == n_max == 240
    assert len(pairs) * (9 - 1) == 240  # one pair per projective class

    C16 = bch(16, 17, 3, 1)
    assert (C16.n, C16.k, minimum_distance(C16)) == (17, 13, 4)
    assert _sparse(dual(C16))[13] == 2040
    design16 = analyze_design(C16, 4, t_max=2)
    assert len(design16.blocks) == 136
    assert design16.t_lambda == {1: 32, 2: 6}
    _ok(6, "both codes NMDS with the stated enumerators, designs, pairing")


def test_criterion_07_extended_nmds_duals():
    E9 = extend(bch(9, 10, 3, 1))
    assert (E9.n, E9.k, minimum_distance(E9)) == (11, 6, 5)
    assert _profile(dual(E9)) == (11, 5, 6, 4, True, False, True)

    E16 = extend(bch(16, 17, 3, 1))
    assert (E16.n, E16.k, minimum_distance(E16)) == (18, 13, 5)
    assert _profile(dual(E16)) == (18, 5, 13, 4, True, False, True)
    _ok(7, "extended duals [11,5,6] and [18,5,13] both have r=4")


def test_criterion_08_oval_polynomial_dichotomy():
    families = (("translation:1", oval_poly("translation", 8, 1)),
                ("segre", oval_poly("segre", 8)))
    for fam, f in families:
        G = code_gf(f)
        rep = minimum_linear_locality(G)
        # the non-cyclic branch: r = d⊥
        assert rep.r_min == rep.d_dual == 3, (fam, rep.r_min, rep.d_dual)
        assert not rep.is_dperp_minus_1, f"{fam}: [9,3,6] code has r = d⊥ - 1"
        n, k, d, r, d_opt, almost, k_cert = _profile(G)
        assert (n, k, d, r) == (9, 3, 6, 3), (fam, (n, k, d, r))
        assert (d_opt, almost, k_cert) == (False, True, True), (
            fam, (d_opt, almost, k_cert))
        got = _profile(dual(G))
        assert got == (9, 6, 3, 5, True, False, True), (fam, got)

        Gbar = code_gf_bar(f)
        got = _profile(Gbar)
        assert got[:4] == (10, 3, 7, 3), (fam, got)
        got = _profile(dual(Gbar))
        assert got == (10, 7, 3, 6, True, False, True), (fam, got)

        B = code_bf_bar(f)
        got = _profile(B)
        assert got == (11, 3, 8, 2, True, False, True), (fam, got)

        # The columns of B are a hyperoval plus the point P = (1,1,0) at
        # coordinate 10.  A line missing P meets the hyperoval in 0 or 2
        # points, so every codeword of B = dual(dual(B)) that is nonzero at
        # coordinate 10 has weight >= 11 - 2 = 9: the locality of dual(B) is
        # at least 8.  The catalogue's q-1 = 7 is below this floor.
        on_line = _max_columns_on_a_line_missing(B, 10)
        assert on_line <= 2, (
            f"{fam}: a line of PG(2,8) missing column 10 of the [11,3,8] "
            f"hyperoval-extension code holds {on_line} columns; the "
            f"hyperoval-plus-point lower bound r >= 8 for its dual fails")

        D = dual(B)
        rep = minimum_linear_locality(D)
        for i in range(D.n):
            repair = rep.repair_set(i)
            assert len(repair) <= 8, (
                f"{fam}: repair set {repair} for coordinate {i} of the dual "
                f"[11,8,3] code is larger than the locality 8")
            repair_coefficients(D, i, repair)  # raises unless it repairs c_i
        assert rep.r_min == rep.d_dual == 8, (
            f"{fam}: dual [11,8,3] code of the hyperoval extension has "
            f"r_min = {rep.r_min}, d(dual) = {rep.d_dual}; the line count "
            f"and the verified repair sets pin both to q = 8")
        assert not rep.is_dperp_minus_1, f"{fam}: r = d⊥ - 1 on the dual"
        assert nmds_locality_check(D) == "dperp", (
            f"{fam}: the NMDS dual [11,8,3] code is not on the r = d⊥ side")
        assert _profile(D) == (11, 8, 3, 8, False, True, True), (
            f"{fam}: profile {_profile(D)} of the dual [11,8,3] code; at "
            f"locality 8 it is almost-d-optimal and k-optimal, not d-optimal")
    _ok(8, "r = d⊥ on both hyperoval codes; "
           "extension dual r = q = 8 by line count")


def _max_columns_on_a_line_missing(C, j: int) -> int:
    """Most columns of a k = 3 code on any line of PG(2,q) that misses
    column j.  The line with coordinates v holds column t exactly when the
    codeword v·G vanishes at t, so this is field arithmetic on C.gen."""
    q = C.q()
    lines = ([(1, a, b) for a in range(q) for b in range(q)]
             + [(0, 1, b) for b in range(q)] + [(0, 0, 1)])
    words = [encode(C, list(v)) for v in lines]
    return max(word.count(0) for word in words if word[j])


def test_criterion_09_ternary_golay():
    G = ternary_golay()
    assert is_cyclic(G)
    assert _sparse(G) == {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}
    assert _sparse(dual(G)) == {0: 1, 6: 132, 9: 110}
    rep = minimum_linear_locality(G)
    assert rep.r_min == rep.d_dual - 1 == 5
    assert rep.is_dperp_minus_1
    assert nmds_locality_check(G) == "dperp_minus_1"
    assert _profile(G) == (11, 6, 5, 5, True, False, True)
    assert _profile(dual(G)) == (11, 5, 6, 4, True, False, True)
    _ok(9, "[11,6,5] r=5, dual r=4, both enumerators, all four marks")


def _random_code(rng: random.Random):
    q = rng.choice([2, 3, 4, 5, 9])
    n = rng.randint(4, 12)
    k = rng.randint(1, n - 1)
    field = field_for_q(q)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return from_generator(field, rows)


def test_criterion_10_property_suites():
    rng = random.Random(2026)

    # puncture/shorten exchange under duality, 200 random codes
    for _ in range(200):
        C = _random_code(rng)
        size = rng.randint(1, max(1, min(3, C.n - C.k, C.k)))
        T = set(rng.sample(range(C.n), size))
        assert dual(shorten(C, T)) == puncture(dual(C), T)
        assert dual(puncture(C, T)) == shorten(dual(C), T)

    # the enumerator transform round-trips and matches direct enumeration;
    # field and length kept small enough to enumerate the code and its dual
    for _ in range(30):
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(4, 9)
        k = rng.randint(1, n - 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        C = from_generator(field_for_q(q), rows)
        wd = weight_distribution(C)
        transformed = macwilliams(wd, C.n, C.k, C.q())
        assert transformed == weight_distribution(dual(C))
        assert macwilliams(transformed, C.n, C.n - C.k, C.q()) == wd

    roster = [
        hamming(2, 3), hamming(3, 3), simplex(3, 3),
        grm(3, 1, 2), dual(grm(3, 1, 2)), grm_punctured(3, 1, 2),
        ovoid_code(elliptic_quadric(4)), dual(ovoid_code(elliptic_quadric(4))),
        arc_code(denniston_arc(8, 4)), dual(arc_code(denniston_arc(8, 4))),
        ternary_golay(), dual(ternary_golay()),
        bch(9, 10, 3, 1), dual(bch(9, 10, 3, 1)),
        bch(16, 17, 3, 1), dual(bch(16, 17, 3, 1)),
        code_gf(oval_poly("translation", 8, 1)),
        dual(code_gf(oval_poly("translation", 8, 1))),
        code_bf_bar(oval_poly("segre", 8)),
        dual(extend(bch(9, 10, 3, 1))),
    ]
    for C in roster:
        rep = minimum_linear_locality(C)
        # locality never undercuts the dual-distance floor
        assert rep.r_min >= rep.d_dual - 1, C
        # transitive coordinate action pins cyclic codes to the floor
        if is_cyclic(C):
            assert rep.r_min == rep.d_dual - 1, C
        # dimension certificate is genuinely an upper bound
        d = minimum_distance(C)
        assert C.k <= cm_bound_upper(C.n, d, C.q(), rep.r_min).rhs, C
    _ok(10, "duality identities (200 codes), transform round-trip, "
            "locality floor, cyclic fast path, dimension-bound soundness")
