"""Field arithmetic, polynomials, towers, cosets, minimal polynomials."""

import math
import random
from functools import reduce

import pytest
import scalar_reference as ref

from locality_lab import errors, gf

# composite fields are where representation bugs live; prime fields are mod-p
AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (2, 2), (2, 3), (2, 4), (3, 2), (2, 5), (5, 2),
                (3, 3), (2, 6), (7, 2)]


def _all_fields():
    return [gf.field_new(p, m) for p, m in AXIOM_FIELDS]


def test_field_new_rejects_bad_input():
    with pytest.raises(errors.NotPrime):
        gf.field_new(6, 2)
    with pytest.raises(errors.FieldTooLarge):
        gf.field_new(2, 21)


def test_field_new_refuses_degree_zero_as_bad_parameters():
    # an invalid degree, not a resource cap
    with pytest.raises(errors.BadParameters, match="degree 0") as info:
        gf.field_new(2, 0)
    assert not isinstance(info.value, errors.CapExceeded)


def test_field_tables_layout():
    for F in _all_fields() + [gf.quadratic_extension(gf.field_new(3, 2)),
                              gf.field_new(2, 16), gf.field_new(3, 6)]:
        t, q = F.tables, F.q
        assert len(t.exp) == 4 * (q - 1) + 1 and len(t.log) == q
        assert t.exp[2 * (q - 1):] == [0] * (2 * (q - 1) + 1)
        assert t.log[0] == 2 * (q - 1)
        for i in range(q - 1):
            assert t.exp[i] == t.exp[i + q - 1] == F.gen_pow(i)
            assert t.log[t.exp[i]] == i
        assert t.neg[0] == t.inv[0] == 0
        assert (t.add is None) == (F.p == 2 or q > gf.ADD_TABLE_CAP)
        for a in range(1, q, max(1, q // 500)):
            # checked in the raw arithmetic the tables are built from
            assert F._digitwise(a, t.neg[a], int.__add__) == 0
            assert F._raw_mul(a, t.inv[a]) == 1
            assert t.exp[t.log[a] + t.log[0]] == 0
    assert gf.field_new(2, 17).tables is None
    assert gf.field_new(65537, 1).tables is None


def test_moduli_are_smallest_primitive():
    # frozen after exhaustive search; GF(9) has exactly three monic
    # irreducible quadratics and x^2+x+2 is the first primitive one
    assert gf.field_new(2, 1).modulus == (1, 1)
    assert gf.field_new(2, 2).modulus == (1, 1, 1)
    assert gf.field_new(2, 3).modulus == (1, 1, 0, 1)
    assert gf.field_new(2, 4).modulus == (1, 1, 0, 0, 1)
    assert gf.field_new(2, 5).modulus == (1, 0, 1, 0, 0, 1)
    assert gf.field_new(3, 2).modulus == (2, 1, 1)


def test_gf9_modulus_oracle():
    # independent re-derivation: scan monic quadratics over GF(3), keep the
    # irreducible ones, then the primitive ones, ranked by low-to-high encoding
    irreducible = []
    for enc in range(9):
        c0, c1 = enc % 3, enc // 3
        if all((t * t + c1 * t + c0) % 3 != 0 for t in range(3)):
            irreducible.append((enc, (c0, c1, 1)))
    assert len(irreducible) == 3
    primitive = []
    for enc, cand in irreducible:
        v, order = [1, 0], None
        for k in range(1, 9):
            # v <- v*x, with x^2 = -c1*x - c0
            v = [-v[1] * cand[0] % 3, (v[0] - v[1] * cand[1]) % 3]
            if v == [1, 0]:
                order = k
                break
        if order == 8:
            primitive.append(cand)
    assert len(primitive) == 2
    assert gf.field_new(3, 2).modulus == primitive[0]


def test_modulus_is_irreducible():
    for F in _all_fields():
        assert gf._is_irreducible(F)
        # brute force: no monic factor of degree <= m/2 divides the modulus
        p, m = F.p, F.m
        for deg in range(1, m // 2 + 1):
            for enc in range(p ** deg):
                g = [enc // p ** i % p for i in range(deg)] + [1]
                rem = list(F.modulus)
                for top in range(m, deg - 1, -1):
                    c = rem[top]
                    for j in range(deg + 1):
                        rem[top - deg + j] = (rem[top - deg + j] - c * g[j]) % p
                assert any(rem), (F, g)


def test_a_reducible_modulus_is_refused():
    # x^2 + 1 = (x + 1)^2 over GF(2): x^3 = x, so x has no order 3, though
    # x^(3/3) != 1 alone would pass for it
    F = gf.FieldSpec(2, 2, (1, 0, 1), None, gf._CONSTRUCT_TOKEN)
    assert not gf._is_irreducible(F)
    assert not gf._has_order(F, 2, 3)


def test_field_axioms_exhaustive():
    for F in _all_fields():
        q = F.q
        elems = range(q)
        for a in elems:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in elems:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
        for a in elems:
            for b in elems:
                ab = F.add(a, b)
                m_ab = F.mul(a, b)
                for c in elems:
                    assert F.add(ab, c) == F.add(a, F.add(b, c))
                    assert F.mul(m_ab, c) == F.mul(a, F.mul(b, c))
                    assert F.mul(F.add(a, b), c) == F.add(F.mul(a, c), F.mul(b, c))


@pytest.mark.parametrize("p, m", [(3, 7), (5, 4), (7, 4), (521, 1), (3, 11)])
def test_untabulated_add_and_neg_are_digitwise(p, m):
    # fields above ADD_TABLE_CAP add base-p digit by digit, and so do they
    # negate above DLOG_CAP; the tables' neg agrees with the digits
    F = gf.field_new(p, m)
    assert F.q > gf.ADD_TABLE_CAP
    assert F.tables is None if F.q > gf.DLOG_CAP else F.tables.add is None
    rng = random.Random(F.q)

    def digits(v):
        return [v // p ** i % p for i in range(m)]

    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert digits(F.add(a, b)) == [
            (x + y) % p for x, y in zip(digits(a), digits(b))]
        assert digits(F.neg(a)) == [-x % p for x in digits(a)]
        assert F.add(a, F.neg(a)) == 0 and F.sub(a, b) == F.add(a, F.neg(b))


def test_raw_product_matches_the_tables():
    for F in _all_fields():
        assert F.tables is not None
        for a in range(F.q):
            for b in range(F.q):
                assert F._raw_mul(a, b) == F.mul(a, b) == ref.field_product(
                    F, a, b)


@pytest.mark.parametrize("p, m", [(2, 17), (3, 11)])
def test_untabulated_product_matches_schoolbook(p, m):
    F = gf.field_new(p, m)
    assert F.tables is None
    rng = random.Random(F.q)
    for _ in range(1000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul(a, b) == ref.field_product(F, a, b)


def test_frobenius_is_additive():
    for F in _all_fields():
        p = F.p
        for a in range(F.q):
            for b in range(F.q):
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_pow_semantics():
    F = gf.field_new(3, 2)
    for a in range(1, 9):
        assert F.pow(a, 8) == 1
        assert F.pow(a, -1) == F.inv(a)
        assert F.pow(a, 13) == F.pow(a, 13 % 8)
    assert F.pow(0, 5) == 0
    assert F.pow(0, 0) == 1
    with pytest.raises(errors.DivisionByZero):
        F.pow(0, -2)
    with pytest.raises(errors.DivisionByZero):
        F.inv(0)


def test_generator_has_full_order():
    for F in _all_fields():
        assert gf._has_order(F, F.generator, F.q - 1)


def test_quadratic_extension_examples():
    T9 = gf.quadratic_extension(gf.field_new(3, 1))
    # embedded GF(3) is fixed by the Frobenius x -> x^3
    for v in range(3):
        assert T9.pow(v, 3) == v
    T81 = gf.quadratic_extension(gf.field_new(3, 2))
    assert gf._has_order(T81, T81.generator, 80)
    T64 = gf.quadratic_extension(gf.field_new(2, 3))
    d9 = T64.pow(T64.generator, 9)
    assert gf._has_order(T64, d9, 7)
    assert d9 < 8  # lies in the embedded GF(8)


def test_quadratic_extension_cap():
    with pytest.raises(errors.FieldTooLarge):
        gf.quadratic_extension(gf.field_new(2, 11))


def _trace(T, x):
    """Tr(x) = x + x^q0 from a quadratic tower down to its base field."""
    return T.add(x, T.pow(x, T.tower_base.q))


def test_trace_examples():
    F9 = gf.field_new(3, 2)
    T81 = gf.quadratic_extension(F9)
    assert _trace(T81, 0) == 0
    for v in range(9):  # subfield elements: Tr(x) = 2x
        assert _trace(T81, v) == F9.mul(v, 2)
    d = T81.generator
    assert _trace(T81, d) < 9  # lands in the embedded base field
    T64 = gf.quadratic_extension(gf.field_new(2, 3))
    for v in range(8):  # characteristic 2: subfield traces vanish
        assert _trace(T64, v) == 0


def test_trace_linear_and_surjective():
    # all towers with q^2 <= 4096
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3),
                 (5, 2), (2, 4), (2, 5), (3, 3), (2, 6)]:
        base = gf.field_new(p, m)
        if base.q ** 2 > 4096:
            continue
        T = gf.quadratic_extension(base)
        tr = [_trace(T, x) for x in range(T.q)]
        assert set(tr) == set(range(base.q))
        # additivity on all pairs for small towers, on a stride otherwise
        step = 1 if T.q <= 1024 else 7
        for a in range(0, T.q, step):
            for b in range(0, T.q, step):
                assert tr[T.add(a, b)] == base.add(tr[a], tr[b])
        for lam in range(base.q):
            for a in range(0, T.q, step):
                assert tr[T.mul(lam, a)] == base.mul(lam, tr[a])


def test_cyclotomic_cosets():
    assert gf.cyclotomic_coset(0, 10, 9) == (0,)
    assert gf.cyclotomic_coset(1, 10, 9) == (1, 9)
    assert gf.cyclotomic_coset(1, 7, 2) == (1, 2, 4)
    assert gf.cyclotomic_coset(3, 7, 2) == (3, 5, 6)
    with pytest.raises(errors.GcdNotOne):
        gf.cyclotomic_coset(1, 10, 2)


def test_cyclotomic_coset_refuses_a_representative_out_of_range():
    with pytest.raises(errors.BadParameters, match="representative 7"):
        gf.cyclotomic_coset(7, 5, 2)
    with pytest.raises(errors.BadParameters, match="representative -1"):
        gf.cyclotomic_coset(-1, 5, 2)
    # cosets partition Z_n
    n, q = 33, 32
    seen = set()
    for s in range(n):
        seen.update(gf.cyclotomic_coset(s, n, q))
    assert seen == set(range(n))


def test_minimal_polynomial_basics():
    base = gf.field_new(3, 2)
    ext, emb, beta = gf.splitting_field(base, 10)
    m0 = gf.minimal_polynomial(beta, 0, 10, emb)
    assert m0 == gf.poly(base, [base.neg(1), 1])  # x - 1
    m1 = gf.minimal_polynomial(beta, 1, 10, emb)
    assert m1.degree == 2
    # beta and beta^9 are the roots of m1 inside the tower
    for e in (1, 9):
        acc = 0
        r = ext.pow(beta, e)
        for c in reversed(m1.coeffs):
            acc = ext.add(ext.mul(acc, r), c)
        assert acc == 0
    with pytest.raises(errors.NotRootOfUnity):
        gf.minimal_polynomial(ext.generator, 1, 10, emb)


def test_minimal_polynomial_checks_each_root_once(monkeypatch):
    # a code asks for the minimal polynomial of every cyclotomic coset of
    # one root: its order is tested in raw arithmetic once, not per coset
    base = gf.field_new(2, 1)
    ext, emb, beta = gf.splitting_field(base, 63)
    powers = []
    raw_pow = gf.FieldSpec._raw_pow

    def counting(self, a, e):
        powers.append(e)
        return raw_pow(self, a, e)

    monkeypatch.setattr(gf.FieldSpec, "_raw_pow", counting)
    cosets = {gf.cyclotomic_coset(s, 63, 2) for s in range(63)}
    for coset in cosets:
        mp = gf.minimal_polynomial(beta, coset[0], 63, emb)
        assert mp.degree == len(coset)
    assert len(cosets) == 13
    assert len(powers) <= 1 + len(gf.factorize(63))
    for _ in range(2):  # the second verdict is the cached one
        with pytest.raises(errors.NotRootOfUnity):
            gf.minimal_polynomial(ext.pow(beta, 3), 1, 63, emb)


@pytest.mark.parametrize("p,m,n", [(3, 2, 10), (2, 3, 9), (2, 4, 17),
                                   (2, 5, 33), (3, 1, 11), (3, 1, 8),
                                   (2, 1, 7), (2, 2, 63), (2, 2, 5)])
def test_minimal_polynomials_factor_xn_minus_1(p, m, n):
    base = gf.field_new(p, m)
    ext, emb, beta = gf.splitting_field(base, n)
    assert ext.pow(beta, n) == 1
    seen, polys = set(), []
    for s in range(n):
        if s in seen:
            continue
        coset = gf.cyclotomic_coset(s, n, base.q)
        seen.update(coset)
        mp = gf.minimal_polynomial(beta, s, n, emb)
        assert mp.degree == len(coset)
        assert mp.coeffs[-1] == 1
        polys.append(mp)
    assert reduce(gf.poly_mul, polys) == gf.poly_x_pow_n_minus_1(base, n)


def test_embedding_is_a_field_homomorphism():
    for p, m, n, Q in [(2, 2, 63, 64), (2, 3, 73, 512), (3, 2, 7, 729)]:
        base = gf.field_new(p, m)
        ext, emb, _ = gf.splitting_field(base, n)
        assert ext.q == Q and emb.fwd is not None
        for a in range(base.q):
            for b in range(base.q):
                fwd = emb.fwd
                assert fwd[base.add(a, b)] == ext.add(fwd[a], fwd[b])
                assert fwd[base.mul(a, b)] == ext.mul(fwd[a], fwd[b])
        # x goes to the least root of the base modulus in the whole extension
        f = gf.poly(ext, base.modulus)
        assert emb.fwd[p] == min(z for z in range(Q) if gf.poly_eval(f, z) == 0)
        with pytest.raises(errors.CoefficientNotInBase):
            bad = next(v for v in range(Q) if v not in emb.fwd)
            emb.unmap(bad)


def test_poly_arithmetic():
    F = gf.field_new(2, 1)
    f = gf.poly(F, [1, 1, 1])  # x^2+x+1
    assert gf.poly_eval(f, 1) == 1
    g = gf.poly(F, [1, 1])
    q, r = gf.poly_divmod(f, g)
    assert gf.poly_add(gf.poly_mul(q, g), r) == f
    assert gf.poly_gcd(gf.poly_mul(f, g), g) == g
    with pytest.raises(errors.DivisionByZeroPolynomial):
        gf.poly_divmod(f, gf.poly(F, []))
    with pytest.raises(errors.FieldMismatch):
        gf.poly_mul(f, gf.poly(gf.field_new(3, 1), [1, 1]))


def test_xn_minus_1_squarefree_when_coprime():
    for q, n in [(3, 10), (2, 7), (4, 9), (9, 10)]:
        p = 2 if q in (2, 4) else 3
        m = {2: 1, 3: 1, 4: 2, 9: 2}[q]
        F = gf.field_new(p, m)
        assert math.gcd(n, F.q) == 1
        f = gf.poly_x_pow_n_minus_1(F, n)
        # i mod p is the encoding of the prime-subfield constant i
        df = gf.poly(F, [F.mul(c, i % F.p)
                         for i, c in enumerate(f.coeffs[1:], start=1)])
        assert gf.poly_gcd(f, df).degree == 0


def test_field_spec_json_and_equality():
    F = gf.field_new(3, 2)
    assert F.to_json() == {"p": 3, "m": 2, "modulus": [2, 1, 1]}
    assert F == gf.field_new(3, 2)
    assert F != gf.quadratic_extension(gf.field_new(3, 1))
    T = gf.quadratic_extension(F)
    blob = T.to_json()
    assert blob["tower_base"] == F.to_json()
    assert blob["m"] == 4


def test_element_encoding_bounds():
    F = gf.field_new(2, 3)
    with pytest.raises(errors.FieldMismatch):
        F.check(8)
    with pytest.raises(errors.FieldMismatch):
        F.check(-1)
