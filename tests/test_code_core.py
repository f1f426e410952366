"""Tests for linear-code plumbing: canonical forms, duality, derived codes,
weight distributions, MacWilliams, and the low-weight search."""

import math
import random
from itertools import product

import numpy as np
import pytest
import scalar_reference as ref
from scalar_reference import hamming_weight_distribution_formula
from hypothesis import given, settings, strategies as st

from locality_lab import code_core
from locality_lab.cli import _table_rows
from locality_lab.code_core import (
    Caps,
    LinearCode,
    Plan,
    WeightDistribution,
    dual,
    exact_weight_words,
    extend,
    field_for_q,
    from_generator,
    from_parity_check,
    is_cyclic,
    load_matrix,
    macwilliams,
    minimum_distance,
    plan,
    puncture,
    rref,
    save_matrix,
    shorten,
    weight_distribution,
    zero_code,
)
from locality_lab.errors import (
    BadCoordinate,
    CapExceeded,
    EnumerationTooLarge,
    InconsistentInput,
    NonIntegerOutput,
    NotPrime,
    RaggedRows,
    SearchTooLarge,
    WrongFieldForm,
    ZeroCode,
)
from locality_lab.constructions import (bch, elliptic_quadric, hamming,
                                        ovoid_code, ternary_golay)
from locality_lab.gf import field_new, quadratic_extension

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)


def random_code(rng, field, n_max=12, k_max=None):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max or n, n))
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
    if all(all(x == 0 for x in r) for r in rows):
        rows[0][0] = 1
    return from_generator(field, rows)


def projective_points(field, m):
    """Columns of a simplex generator: one representative per line, first
    nonzero coordinate 1, sorted."""
    pts = set()
    for enc in range(1, field.q ** m):
        digits = []
        x = enc
        for _ in range(m):
            digits.append(x % field.q)
            x //= field.q
        lead = next(d for d in digits if d)
        inv = field.inv(lead)
        pts.add(tuple(field.mul(inv, d) for d in digits))
    return sorted(pts)


# ---------------------------------------------------------------------------
# construction and canonical form

def test_generator_is_canonical_rref():
    C = from_generator(F2, [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0]])
    assert C.k == 2  # third row is the sum of the first two
    for i, p in enumerate(C.pivots):
        col = [row[p] for row in C.gen]
        assert col == [1 if j == i else 0 for j in range(C.k)]
    # same row space, different presentation, same object value
    D = from_generator(F2, [[0, 1, 1, 1], [1, 1, 0, 1]])
    assert C == D and hash(C) == hash(D)


def test_from_generator_validation():
    with pytest.raises(RaggedRows):
        from_generator(F2, [[1, 0], [1]])
    with pytest.raises(RaggedRows):
        from_generator(F2, [])
    from locality_lab.errors import FieldMismatch
    with pytest.raises(FieldMismatch):
        from_generator(F2, [[0, 2]])


def test_from_parity_check_even_weight():
    C = from_parity_check(F2, [[1, 1, 1, 1]])
    assert (C.n, C.k) == (4, 3)
    wd = weight_distribution(C)
    assert wd.counts == (1, 0, 6, 0, 1)


def test_encode_and_contains():
    rng = random.Random(11)
    for field in (F2, F3, F4):
        C = random_code(rng, field, n_max=9)
        for _ in range(10):
            msg = [rng.randrange(field.q) for _ in range(C.k)]
            assert ref.in_dual(dual(C), [ref.encode(C, msg)])
        outside = [rng.randrange(field.q) for _ in range(C.n)]
        # membership test agrees with brute force over all messages when small
        if field.q ** C.k <= 4096:
            words = {ref.encode(C, list(m)) for m in
                     __import__("itertools").product(range(field.q), repeat=C.k)}
            assert ref.in_dual(dual(C), [outside]) == (tuple(outside) in words)


# ---------------------------------------------------------------------------
# duality

def test_dual_dimensions_and_involution():
    rng = random.Random(23)
    for field in (F2, F3, F4):
        for _ in range(8):
            C = random_code(rng, field)
            D = dual(C)
            assert D.n == C.n and D.k == C.n - C.k
            assert dual(D) is C
            # every pair of rows is orthogonal
            for g in C.gen:
                for h in D.gen:
                    acc = 0
                    for a, b in zip(g, h):
                        acc = field.add(acc, field.mul(a, b))
                    assert acc == 0


def test_dual_of_zero_and_full():
    full = from_generator(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    z = dual(full)
    assert z.k == 0
    assert weight_distribution(z).counts == (1, 0, 0, 0)
    assert dual(z) == full
    with pytest.raises(ZeroCode):
        minimum_distance(z)


def test_dual_eliminates_only_the_generator(monkeypatch):
    # the dual of the [1025, 4] ovoid code is read off one elimination of
    # the 4-row generator, not of a 1021-row nullspace basis
    rows = []

    def recording_rref(field, matrix):
        rows.append(len(matrix))
        return rref(field, matrix)

    monkeypatch.setattr(code_core, "rref", recording_rref)
    D = dual(ovoid_code(elliptic_quadric(32)))
    assert (D.n, D.k) == (1025, 1021)
    assert rows and set(rows) == {4}


def test_dual_too_large_to_store_is_refused_before_it_is_built(monkeypatch):
    # the dual of the [4, 1] repetition code has a 3 x 4 generator
    C = from_generator(F2, [[1, 1, 1, 1]])
    eliminations = []
    monkeypatch.setattr(code_core, "rref",
                        lambda *args: eliminations.append(args))
    monkeypatch.setattr(code_core, "_DUAL_CELLS", 11)
    with pytest.raises(CapExceeded,
                       match=r"^dual generator 3 x 4 exceeds 11 entries$"):
        dual(C)
    assert not eliminations and C._dual is None
    monkeypatch.undo()
    monkeypatch.setattr(code_core, "_DUAL_CELLS", 12)
    assert (dual(C).n, dual(C).k) == (4, 3)


def test_in_dual_makes_no_elimination(monkeypatch):
    # bch(16, 17, 3, 1) is [17, 13]: in_dual checks on the 4-row dual side,
    # through the dual's stored reduced generator and pivots
    C = bch(16, 17, 3, 1)
    D = dual(C)
    rows = []

    def recording_rref(field, matrix):
        rows.append(len(matrix))
        return rref(field, matrix)

    monkeypatch.setattr(code_core, "rref", recording_rref)
    for j in range(17):  # the dual of a cyclic code is cyclic
        assert code_core.in_dual(
            C, ref.rows_as_words(np.roll(D.gen_array, j, axis=1)))
        assert code_core.in_dual(
            D, ref.rows_as_words(np.roll(C.gen_array, j, axis=1)))
    bad = D.gen_array[:1].copy()
    bad[0, 0] ^= 1
    assert not code_core.in_dual(C, ref.rows_as_words(bad))
    assert rows == []


def test_a_linear_code_is_made_only_by_code_core():
    with pytest.raises(TypeError, match="use from_generator"):
        LinearCode(F3, 2, ((1, 0),), (0,))


def is_reduced(C):
    """C holds its own reduced echelon form and the form's pivots."""
    return rref(C.field, C.gen) == ([list(r) for r in C.gen], list(C.pivots))


def test_every_way_of_making_a_code_yields_its_reduced_form(tmp_path):
    F5 = field_new(5, 1)
    unreduced = from_generator(F5, [[0, 2, 3, 1, 4, 4], [3, 1, 0, 2, 2, 1]])
    rng = random.Random(20)
    codes = [unreduced, hamming(2, 6), hamming(4, 3), bch(16, 17, 3, 1),
             from_parity_check(F3, [[1, 2, 0, 1], [0, 1, 1, 1]]),
             random_code(rng, quadratic_extension(F3)), zero_code(F4, 5),
             from_generator(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])]
    codes += [random_code(rng, field) for field in (F2, F3, F4)
              for _ in range(4)]
    made = []
    for C in codes:
        T = [0, C.n - 1] if C.n > 2 else [0]
        made += [C, dual(C), puncture(C, T), shorten(C, T), extend(C)]
        if C.field == field_for_q(C.q()):  # a file holds no tower code
            path = tmp_path / "code.txt"
            save_matrix(path, C)
            made.append(load_matrix(path))
    assert unreduced.gen != ((0, 2, 3, 1, 4, 4), (3, 1, 0, 2, 2, 1))
    for C in made:
        assert is_reduced(C), C


def test_puncture_shorten_duality_identities():
    rng = random.Random(5)
    for field in (F2, F3, F4):
        for _ in range(12):
            C = random_code(rng, field)
            tsize = rng.randint(1, min(3, C.n - 1))
            T = rng.sample(range(C.n), tsize)
            assert shorten(dual(C), T) == dual(puncture(C, T))
            assert puncture(dual(C), T) == dual(shorten(C, T))


def test_puncture_and_shorten_edges():
    C = from_parity_check(F2, [[1, 1, 1, 1]])
    with pytest.raises(BadCoordinate):
        puncture(C, [4])
    with pytest.raises(BadCoordinate):
        shorten(C, [-1])
    assert puncture(C, []) is C
    P = puncture(C, [0])
    assert (P.n, P.k) == (3, 3)
    S = shorten(C, [0])
    assert (S.n, S.k) == (3, 2)
    # shortening the repetition code kills it
    rep = from_generator(F2, [[1, 1, 1]])
    assert shorten(rep, [1]).k == 0


def test_extend():
    ham = from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]])
    ext = extend(ham)
    assert (ext.n, ext.k) == (8, 4)
    assert weight_distribution(ext).counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
    # extended words all sum to zero
    for row in ext.gen:
        acc = 0
        for x in row:
            acc ^= x
        assert acc == 0


def _brute_force_cyclic(C):
    """Every codeword's cyclic shift is a codeword, by listing all q^k."""
    words = {ref.encode(C, list(m)) for m in product(range(C.q()), repeat=C.k)}
    return all(w[-1:] + w[:-1] in words for w in words)


def test_is_cyclic_matches_brute_force():
    rng = random.Random(13)
    seen = set()
    for field in (F2, F3, F4, field_new(5, 1)):
        for _ in range(12):
            n = rng.randint(3, 7)
            v = [rng.randrange(field.q) for _ in range(n)]
            if rng.random() < 0.5:  # the span of v's shifts is cyclic
                rows = [v[i:] + v[:i] for i in range(n)]
            else:
                rows = [[rng.randrange(field.q) for _ in range(n)]
                        for _ in range(rng.randint(1, n))]
            C = from_generator(field, rows)
            if field.q ** C.k > 4096:
                continue
            assert is_cyclic(C) == _brute_force_cyclic(C), rows
            seen.add((is_cyclic(C), 2 * C.k < C.n, 2 * C.k > C.n))
        for n in (3, 6):
            assert is_cyclic(zero_code(field, n))
            full = from_generator(field, [[int(i == j) for j in range(n)]
                                          for i in range(n)])
            assert full.k == n and is_cyclic(full)
    # cyclic and not, with k below and above n/2
    assert {(c, lo, hi) for c in (True, False)
            for lo, hi in ((True, False), (False, True))} <= seen


def test_is_cyclic_certifies_cyclic_constructions_and_their_duals():
    for C in (bch(2, 7, 3, 1), bch(3, 8, 3, 1), bch(2, 15, 5, 1),
              bch(4, 15, 4, 1), bch(5, 8, 3, 2), bch(9, 10, 3, 1),
              bch(16, 17, 3, 1), ternary_golay()):
        assert is_cyclic(C) and is_cyclic(dual(C)), C
    # the [7, 4] Hamming code as built has its columns in counting order
    assert not is_cyclic(from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]]))


def test_reloaded_ternary_golay_is_cyclic(tmp_path):
    path = tmp_path / "golay.txt"
    save_matrix(path, ternary_golay())
    back = load_matrix(path)
    assert back == ternary_golay() and is_cyclic(back)


def test_extend_distance_gain_is_zero_or_one():
    rng = random.Random(31)
    for field in (F2, F3):
        for _ in range(10):
            C = random_code(rng, field, n_max=9)
            d = minimum_distance(C)
            de = minimum_distance(extend(C))
            assert de - d in (0, 1)


# ---------------------------------------------------------------------------
# weight distributions and MacWilliams

def test_repetition_weight_distribution():
    for field, n in ((F2, 5), (F3, 4), (F4, 3)):
        C = from_generator(field, [[1] * n])
        wd = weight_distribution(C)
        expected = [1] + [0] * n
        expected[n] = field.q - 1
        assert wd.counts == tuple(expected)
        assert minimum_distance(C) == n


def test_weight_distribution_totals_and_singleton():
    rng = random.Random(47)
    for field in (F2, F3, F4):
        for _ in range(10):
            C = random_code(rng, field, n_max=10)
            wd = weight_distribution(C)
            assert sum(wd.counts) == field.q ** C.k
            assert wd.counts[0] == 1
            assert minimum_distance(C) <= C.n - C.k + 1


def test_macwilliams_of_zero_code():
    wd = weight_distribution(zero_code(F3, 5))
    mw = macwilliams(wd, 5, 0, 3)
    assert mw.counts == tuple(math.comb(5, i) * 2 ** i for i in range(6))


def test_macwilliams_matches_dual_enumeration():
    rng = random.Random(59)
    for field in (F2, F3, F4):
        for _ in range(8):
            C = random_code(rng, field, n_max=10)
            wd = weight_distribution(C)
            mw = macwilliams(wd, C.n, C.k, field.q)
            assert mw.counts == weight_distribution(dual(C)).counts


def test_macwilliams_involution():
    rng = random.Random(61)
    for field in (F2, F3):
        for _ in range(6):
            C = random_code(rng, field, n_max=9)
            wd = weight_distribution(C)
            once = macwilliams(wd, C.n, C.k, field.q)
            twice = macwilliams(once, C.n, C.n - C.k, field.q)
            assert twice.counts == wd.counts


def test_macwilliams_simplex_to_hamming():
    pts = projective_points(F3, 3)
    gen = [[p[i] for p in pts] for i in range(3)]
    simplex = from_generator(F3, gen)
    wd = weight_distribution(simplex)
    expected = [0] * 14
    expected[0], expected[9] = 1, 26
    assert wd.counts == tuple(expected)
    hamming_wd = macwilliams(wd, 13, 3, 3)
    assert sum(hamming_wd.counts) == 3 ** 10
    assert hamming_wd.min_distance() == 3


def krawtchouk(n, q, j, i):
    """K_j(i) by its defining sum: the reference for the recurrence."""
    return sum((-1) ** s * math.comb(i, s) * math.comb(n - i, j - s)
               * (q - 1) ** (j - s) for s in range(min(i, j) + 1))


def macwilliams_by_sums(counts, n, k, q):
    """Dual counts q^-k * sum_i A_i K_j(i), one Krawtchouk sum per pair of
    weights; None where macwilliams must raise NonIntegerOutput."""
    out = []
    for j in range(n + 1):
        acc = sum(a * krawtchouk(n, q, j, i) for i, a in enumerate(counts))
        if acc % q ** k or acc < 0:
            return None
        out.append(acc // q ** k)
    return tuple(out)


def test_macwilliams_matches_krawtchouk_sums_on_codes():
    rng = random.Random(67)
    for field in (F2, F3, F4, field_new(5, 1), field_new(3, 2)):
        for _ in range(6):
            C = random_code(rng, field, n_max=9, k_max=4)
            wd = weight_distribution(C)
            assert macwilliams(wd, C.n, C.k, field.q).counts == \
                macwilliams_by_sums(wd.counts, C.n, C.k, field.q)


@st.composite
def distributions(draw):
    """(counts, n, k, q): any counts summing to q^k with A_0 = 1, most of
    them no code's distribution, so the transform often is not integral."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, min(n, 4)))
    counts, left = [1], q ** k - 1
    for _ in range(n - 1):
        counts.append(draw(st.integers(0, left)))
        left -= counts[-1]
    return counts + [left], n, k, q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(distributions())
def test_macwilliams_matches_krawtchouk_sums(case):
    counts, n, k, q = case
    expected = macwilliams_by_sums(counts, n, k, q)
    if expected is None:
        with pytest.raises(NonIntegerOutput):
            macwilliams(counts, n, k, q)
    else:
        assert macwilliams(counts, n, k, q).counts == expected


def test_hamming_2_8_builds_through_macwilliams():
    H = hamming(2, 8)  # its distance comes from the dual's distribution
    assert (H.n, H.k) == (255, 247)
    assert weight_distribution(H) == hamming_weight_distribution_formula(2, 8)


def test_macwilliams_input_validation():
    wd = weight_distribution(from_generator(F2, [[1, 1, 0]]))
    with pytest.raises(InconsistentInput):
        macwilliams(wd, 3, 2, 2)  # wrong k: counts sum to 2, not 4
    with pytest.raises(InconsistentInput):
        macwilliams([1, 0, 1], 3, 1, 2)  # wrong length
    with pytest.raises(InconsistentInput):
        WeightDistribution((1, -1))


def test_enumeration_cap():
    # [I | I]: both sides hold 2^8 words, so no side fits below 256
    C = from_generator(F2, [[1 if j % 8 == i else 0 for j in range(16)]
                            for i in range(8)])
    with pytest.raises(EnumerationTooLarge):
        weight_distribution(C, Caps(enumeration=255))
    wd = weight_distribution(C, Caps(enumeration=256))
    assert wd.counts == tuple(math.comb(8, i // 2) if i % 2 == 0 else 0
                              for i in range(17))


def test_distribution_called_first_uses_the_dual_side():
    # a fresh copy has no cached distribution: the 2^26 words of the code
    # exceed the cap, the 2^5 of its dual do not
    H = hamming(2, 5)
    C = from_generator(H.field, H.gen)
    assert weight_distribution(C, Caps(enumeration=2 ** 10)) == \
        hamming_weight_distribution_formula(2, 5)


# ---------------------------------------------------------------------------
# the planner

def test_plan_distribution_at_the_enumeration_cap():
    # [8, 4] over GF(2): equal sides, the code's own side is enumerated
    assert plan(8, 4, 2, "distribution", Caps(enumeration=16)) == \
        Plan("enumerate", 16)
    assert plan(8, 4, 2, "distance", Caps(enumeration=16)) == \
        Plan("enumerate", 16)
    with pytest.raises(EnumerationTooLarge):
        plan(8, 4, 2, "distribution", Caps(enumeration=15))
    assert plan(8, 5, 2, "distribution", Caps(enumeration=8)) == \
        Plan("dual", 8)
    with pytest.raises(EnumerationTooLarge):
        plan(8, 5, 2, "distribution", Caps(enumeration=7))


def test_plan_takes_the_dual_side_whatever_the_search_cap():
    # [8, 6] over GF(2): the dual side has 4 words.  MacWilliams is a
    # transform, not a search, so no search cap holds it back, not even one
    # below (8 + 1)^2 = 81
    for search in (1, 80, 81):
        caps = Caps(enumeration=16, search=search)
        assert plan(8, 6, 2, "distribution", caps) == Plan("dual", 4)
        assert plan(8, 6, 2, "distance", caps) == Plan("dual", 4)
    # the smaller side wins when both fit, the code's own on ties
    assert plan(8, 6, 2, "distance", Caps(enumeration=64, search=1)) == \
        Plan("dual", 4)
    assert plan(8, 4, 2, "distribution", Caps(search=1)) == \
        Plan("enumerate", 16)
    # the enum cap still holds both sides
    caps = Caps(enumeration=3, search=1 << 24)
    with pytest.raises(EnumerationTooLarge):
        plan(8, 6, 2, "distribution", caps)
    assert plan(8, 6, 2, "distance", caps).route == "scan"


@pytest.mark.parametrize("enum_cap", [2 ** 4, 2 ** 10, 2 ** 22,
                                      Caps.enumeration])
def test_plan_distance_takes_the_distribution_route(enum_cap):
    # one enumeration rule for both goals; a distance scans only where
    # the distribution cannot be enumerated
    caps = Caps(enumeration=enum_cap)
    for q in (2, 3, 4, 16):
        for n in (1, 5, 12, 30, 46, 64):
            for k in range(n + 1):
                try:
                    expected = plan(n, k, q, "distribution", caps)
                except EnumerationTooLarge:
                    assert plan(n, k, q, "distance", caps).route == "scan"
                    continue
                for w in (0, 3):
                    assert plan(n, k, q, "distance", caps, w=w) == expected


def test_plan_prices_a_distance_scan_one_weight_at_a_time():
    # [31, 26] over GF(2) with its 32-word dual out of reach: each weight
    # is priced as its "words".  Weight 1 costs 31 * 5 = 155 by the rank
    # scan; weight 2 costs (31 + 31) * 5 = 310 by the join, below the rank
    # scan's 465 * 2 * 5 = 4650; weight 3 costs (465 * 2 + 31) * 5 = 4805
    # by the join.  The cap holds each weight, not their sum 465
    caps = Caps(enumeration=16, search=310)
    assert plan(31, 26, 2, "distance", caps) == Plan("scan", 0)
    assert plan(31, 26, 2, "distance", caps, w=1) == Plan("scan", 155)
    assert plan(31, 26, 2, "distance", caps, w=2) == Plan("scan", 310)
    with pytest.raises(SearchTooLarge):
        plan(31, 26, 2, "distance", caps, w=3)
    with pytest.raises(SearchTooLarge):
        plan(31, 26, 2, "distance", Caps(enumeration=16, search=309), w=2)
    assert plan(31, 26, 2, "distance", Caps(enumeration=16, search=4805),
                w=3) == Plan("scan", 4805)
    # the price of the scan up to w is the dearest "words" price up to w
    caps = Caps(enumeration=16, search=2 ** 40)
    for w in range(1, 8):
        assert plan(31, 26, 2, "distance", caps, w=w).cost == max(
            plan(31, 26, 2, "words", caps, v).cost for v in range(1, w + 1))


def _priced(price):
    """price(), or the type and message of the cap error it raises."""
    try:
        return price()
    except CapExceeded as exc:
        return type(exc), str(exc)


def _dual_pricing_as_statements(n, k, q, caps, w):
    """The "locality" goal written out as the statements it replaced in the
    table pre-flight, returning the costliest plan they price."""
    plans = [plan(n, n - k, q, "distance", caps, w=w)]
    for v in range(1, w + 1):
        plans.append(plan(n, n - k, q, "words", caps, v))
    return max(plans, key=lambda p: p.cost)


_LOCALITY_CAPS = [Caps(), Caps(enumeration=2 ** 10, search=2 ** 16),
                  Caps(enumeration=2 ** 30, search=2 ** 36)]


@pytest.mark.parametrize("caps", _LOCALITY_CAPS, ids=repr)
def test_plan_locality_prices_every_table_claim_as_its_statements(caps):
    claims = {(q, claimed) for which in (1, 2)
              for _, q, _, claimed, _, _ in _table_rows(which)}
    assert len(claims) == 31
    for q, (n, k, _, r) in sorted(claims):
        assert _priced(lambda: plan(n, k, q, "locality", caps, w=r + 1)) == \
            _priced(lambda: _dual_pricing_as_statements(n, k, q, caps, r + 1))


@pytest.mark.parametrize("caps", _LOCALITY_CAPS, ids=repr)
def test_plan_locality_prices_random_codes_as_its_statements(caps):
    rng = random.Random(2024)
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5, 8, 9, 16, 32))
        n = rng.randint(1, 80)
        k, w = rng.randint(0, n), rng.randint(0, 12)
        assert _priced(lambda: plan(n, k, q, "locality", caps, w=w)) == \
            _priced(lambda: _dual_pricing_as_statements(n, k, q, caps, w))


def test_plan_words_at_the_search_cap():
    # each route fits a cap equal to its price and no cap below it: the
    # join of the [6, 4] code over GF(3) at w = 2, (6 + 6) * 2 = 24; the
    # enumeration of the [6, 2] one, 4 classes * 6 = 24; the rank scan of
    # the [4, 2] code over GF(5) at w = 3, C(4, 3) * 3 * 2 = 24
    for n, k, q, w, route in ((6, 4, 3, 2, "join"), (6, 2, 3, 2, "enumerate"),
                              (4, 2, 5, 3, "parity-check")):
        assert plan(n, k, q, "words", Caps(search=24), w=w) == \
            Plan(route, 24)
        with pytest.raises(SearchTooLarge):
            plan(n, k, q, "words", Caps(search=23), w=w)


def test_plan_prices_the_parity_check_rows_of_long_low_rate_codes():
    # the [16385, 4] ovoid code over GF(128) at w = 1: 16385 * 16381 is
    # above 2^24, however few generator rows the code has, and the join
    # only ties it
    with pytest.raises(SearchTooLarge):
        plan(16385, 4, 128, "words", Caps(), 1)
    with pytest.raises(SearchTooLarge):
        plan(16385, 4, 128, "distance", Caps(), 1)
    # the [1540, 3] Denniston arc code over GF(512): 1540 * 1537 at w = 1,
    # (1540 + 1540) * 1537 by the join at w = 2, and at w = 3 even the
    # enumeration, 262657 classes * 1540, is above 2^24
    assert plan(1540, 3, 512, "words", Caps(), 1) == \
        Plan("parity-check", 1540 * 1537)
    assert plan(1540, 3, 512, "words", Caps(), 2) == \
        Plan("join", 2 * 1540 * 1537)
    with pytest.raises(SearchTooLarge):
        plan(1540, 3, 512, "words", Caps(), 3)
    with pytest.raises(SearchTooLarge):
        plan(1540, 3, 512, "distance", Caps(), 3)


def test_plan_words_tie_breaks():
    # [4, 1] over GF(2), w = 1: enumeration (1 class * 4) undercuts the
    # rank scan and the join (4 * 3 each)
    assert plan(4, 1, 2, "words", Caps(), w=1) == Plan("enumerate", 4)
    assert plan(4, 1, 2, "words", Caps(), w=2) == Plan("enumerate", 4)
    # [4, 2] over GF(5), w = 3: enumeration (6 classes * 4) ties the rank
    # scan (4 * 3 * 2) and loses; the join costs (4 * 1 + 6 * 4 * 2) * 2
    assert plan(4, 2, 5, "words", Caps(), w=3) == Plan("parity-check", 24)
    # w = 2: the join, (4 + 4) per parity-check row, undercuts both
    assert plan(4, 2, 5, "words", Caps(), w=2) == Plan("join", 16)
    assert plan(4, 3, 5, "words", Caps(), w=2) == Plan("join", 8)
    # a cap below the rank scan's C(4, 2) * 2 * 2 = 24 holds only the
    # route taken
    assert plan(4, 2, 5, "words", Caps(search=23), w=2) == Plan("join", 16)
    # a join that ties loses: [4, 2] over GF(3), w = 2, where it ties
    # enumeration at 16, and [4, 3] over GF(5), w = 1, where it ties the
    # parity-check scan at 4
    assert plan(4, 2, 3, "words", Caps(), w=2) == Plan("enumerate", 16)
    assert plan(4, 3, 5, "words", Caps(), w=1) == Plan("parity-check", 4)
    assert plan(4, 2, 5, "words", Caps(search=16), w=2).cost == 16
    with pytest.raises(SearchTooLarge):
        plan(4, 2, 5, "words", Caps(search=15), w=2)


@pytest.mark.parametrize("goal", ["distribution", "distance", "words",
                                  "locality"])
def test_plan_refuses_a_negative_weight(goal):
    # the locality goal priced a weight of -1 as a locality of -2
    with pytest.raises(InconsistentInput, match="^weight -1 is negative$"):
        plan(7, 4, 2, goal, Caps(), -1)


@pytest.mark.parametrize("goal", ["nonsense", "Words", ""])
def test_plan_refuses_an_unknown_goal(goal):
    with pytest.raises(InconsistentInput) as exc:
        plan(13, 10, 3, goal, Caps(), 2)
    message = str(exc.value)
    assert repr(goal) in message
    assert message.endswith(
        "choose from distribution, distance, words, locality")


# ---------------------------------------------------------------------------
# minimum distance strategies

def test_minimum_distance_hamming():
    ham = from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]])
    assert minimum_distance(ham) == 3


def test_minimum_distance_via_dual_side():
    # k = 10 over GF(3) would be direct; force the dual route by checking a
    # high-rate code whose dual is small
    pts = projective_points(F3, 3)
    gen = [[p[i] for p in pts] for i in range(3)]
    ham = dual(from_generator(F3, gen))
    assert (ham.n, ham.k) == (13, 10)
    assert minimum_distance(ham) == 3


def test_existence_scan_agrees_with_enumeration():
    # the first weight with words, through exact_weight_words and through
    # the distance scan on a fresh copy of the code, so that the scan
    # answers and not the d cached by weight_distribution
    rng = random.Random(73)
    caps = Caps(enumeration=1)
    scanned = 0
    for field in (F2, F3, F4):
        for _ in range(8):
            C = random_code(rng, field, n_max=10)
            d = weight_distribution(C).min_distance()
            first = next(w for w in range(1, C.n + 1)
                         if len(exact_weight_words(C, w)))
            assert first == d
            if plan(C.n, C.k, field.q, "distance", caps).route == "scan":
                assert minimum_distance(from_generator(field, C.gen),
                                        caps) == d
                scanned += 1
    assert scanned >= 20


def test_search_cap_raises():
    C = from_generator(F2, [[1 if j == i else 0 for j in range(20)]
                            for i in range(10)])
    with pytest.raises(SearchTooLarge):
        exact_weight_words(C, 10, Caps(search=100))


# ---------------------------------------------------------------------------
# low-weight search

def test_low_weight_below_distance_is_empty():
    ham = from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]])
    for w in (1, 2):
        words = exact_weight_words(ham, w)
        assert len(words) == 0 and words.support.shape == (0, w)


def test_low_weight_matches_weight_distribution():
    rng = random.Random(89)
    for field in (F2, F3, F4):
        for _ in range(8):
            C = random_code(rng, field, n_max=10)
            wd = weight_distribution(C)
            for w in range(1, C.n + 1):
                words = exact_weight_words(C, w)
                assert len(words) * (field.q - 1) == wd.counts[w]


def test_low_weight_words_are_codewords_with_exact_support():
    rng = random.Random(97)
    for field in (F2, F3, F4):
        C = random_code(rng, field, n_max=9)
        for w in range(1, C.n + 1):
            W = exact_weight_words(C, w)
            assert W.values.dtype == np.int32 and W.values.shape[1:] == (w,)
            assert W.support.shape == W.values.shape
            assert W.values.all()  # exactly w nonzero entries
            assert (np.diff(W.support, axis=1) > 0).all()
            assert ((W.support >= 0) & (W.support < C.n)).all()
            for word in ref.dense(W, C.n).tolist():
                assert ref.in_dual(dual(C), [word])
            # canonical projective representatives
            assert (W.values[:, :1] == 1).all()


def test_exact_weight_words_refuses_a_negative_weight():
    with pytest.raises(InconsistentInput, match="^weight -1 is negative$"):
        exact_weight_words(hamming(2, 3), -1)


def test_exact_weight_words_deterministic():
    ham = from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]])
    a = exact_weight_words(ham, 3)
    b = exact_weight_words(ham, 3)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.values, b.values)
    supports = a.support.tolist()
    assert supports == sorted(supports)
    assert len(a) == 7


def test_low_weight_supports_cover_check():
    # weight-3 words of the [7,4] Hamming code are the lines of the Fano
    # plane; they cover every coordinate
    ham = from_parity_check(
        F2, [[0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0, 1]])
    covered = set(exact_weight_words(ham, 3).support.ravel().tolist())
    assert covered == set(range(7))


# ---------------------------------------------------------------------------
# matrix files and caps plumbing

def test_matrix_file_round_trip(tmp_path):
    rng = random.Random(101)
    for field in (F2, F3, F4):
        C = random_code(rng, field, n_max=9)
        path = tmp_path / f"code_q{field.q}.txt"
        save_matrix(path, C)
        assert load_matrix(path) == C


def test_matrix_file_refuses_a_tower_code(tmp_path):
    # a file records only q and is read back over field_for_q(q), so a code
    # over another encoding of GF(q) is refused before the file is opened
    rng = random.Random(107)
    C = random_code(rng, quadratic_extension(F3), n_max=7, k_max=3)
    path = tmp_path / "tower.txt"
    with pytest.raises(WrongFieldForm, match=r"field_for_q\(9\)"):
        save_matrix(path, C)
    assert not path.exists()
    same_rows = from_generator(field_for_q(9), C.gen)
    save_matrix(path, same_rows)
    assert load_matrix(path) == same_rows


def test_matrix_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("4 3 2\n1 0 1\n")
    with pytest.raises(InconsistentInput):
        load_matrix(bad)
    rankdrop = tmp_path / "rankdrop.txt"
    rankdrop.write_text("2 3 2\n1 0 1\n1 0 1\n")
    with pytest.raises(InconsistentInput):
        load_matrix(rankdrop)
    for q in (6, 1, 0, -4):  # factorize(0) would loop, -4 factor as 2^2
        with pytest.raises(NotPrime):
            field_for_q(q)
    assert field_for_q(9).m == 2


def test_caps_env_parsing():
    caps = Caps.from_env({"LOCALITY_LAB_CAPS": "enum:2^10,search:2^8"})
    assert caps == Caps(enumeration=1024, search=256)
    caps = Caps.from_env({"LOCALITY_LAB_CAPS": "search:99"})
    assert caps == Caps(enumeration=Caps.enumeration, search=99)
    assert Caps.from_env({}) == Caps()
    with pytest.raises(InconsistentInput):
        Caps.from_env({"LOCALITY_LAB_CAPS": "nope:3"})


def test_rref_idempotent_and_rank():
    rng = random.Random(103)
    for field in (F2, F3, F4):
        rows = [[rng.randrange(field.q) for _ in range(8)] for _ in range(5)]
        red, piv = rref(field, rows)
        red2, piv2 = rref(field, red)
        assert red == red2 and piv == piv2
        assert len(red) == len(piv)
