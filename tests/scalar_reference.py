"""Scalar references for the numpy kernels of locality_lab.code_core.

Each function redoes one kernel entry point one field operation at a time
through the FieldSpec methods, on the route code_core.plan gives the kernel
it checks and with the same budget accounting; the syndrome join, which
charges per word listed, is checked against the parity-check scan.  rref
and nullspace are the scalar loops of code_core.rref and
code_core.nullspace with every entry an arithmetic method call, at every
size: code_core's loop reads the field's exp/log tables as lists instead,
and hands matrices from _RREF_NUMPY_MIN on to its numpy kernel.  dual and
shorten are the nullspace constructions that code_core.dual and
code_core.shorten replaced.  tests/test_kernels.py
compares the two.  field_product is the schoolbook product that gf's
multiply-by-x step replaced; tests/test_gf.py compares them.
projective_point_list is the loop over all q^m encodings that the span
walk of locality_lab.constructions replaced, and generator_with_zeros the
coset loop that bch and grm_punctured each ran before _code_with_zeros;
tests/test_constructions.py compares them.  encode multiplies a message
by a code's generator, for the tests that need words of a code.
hamming_weight_distribution_formula is a closed form for the distribution
of the Hamming code, an oracle for the enumeration and the MacWilliams
transform.  is_ovoid, is_maximal_arc and is_amds are the exhaustive
validators of point sets and of almost-MDS codes, oracles that no command
of the package runs.  The words here are dense rows of n entries, the
form code_core.exact_weight_words returned before its Words; same_words
compares a Words with them, and words_of and rows_as_words turn dense
rows into a Words.  Not a test module: pytest does not collect it.
"""

import math
from itertools import combinations, product

import numpy as np

from locality_lab.code_core import (Caps, WeightDistribution, Words,
                                   from_parity_check, minimum_distance, plan)
from locality_lab.errors import (ConstructionInvariantBroken, SearchTooLarge,
                                 TrivialCode)
from locality_lab.gf import (cyclotomic_coset, minimal_polynomial, poly,
                             poly_mul, splitting_field)


def field_product(field, a, b):
    """a*b in a field built over GF(p): the product of the base-p digit
    lists, reduced modulo the monic modulus one top coefficient at a time,
    in plain integer arithmetic."""
    p, m, mod = field.p, field.m, field.modulus
    da = [a // p ** i % p for i in range(m)]
    db = [b // p ** i % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * m - 2, m - 1, -1):
        c = prod[top] % p
        for j in range(m + 1):
            prod[top - m + j] -= c * mod[j]
    return sum(c % p * p ** i for i, c in enumerate(prod[:m]))


def encode(C, message):
    """The codeword message * G of C, as a tuple of n encodings."""
    F = C.field
    out = [0] * C.n
    for u, row in zip(message, C.gen):
        if u:
            out = [F.add(o, F.mul(u, g)) for o, g in zip(out, row)]
    return tuple(out)


def projective_point_list(field, m):
    """One representative per projective point of PG(m-1, q): every nonzero
    encoding read as base-q digits and scaled so its first nonzero digit is
    1, sorted by the integer encoding of the tuple."""
    q = field.q
    seen = set()
    for enc in range(1, q ** m):
        digits = [enc // q ** i % q for i in range(m)]
        inv = field.inv(next(d for d in digits if d))
        seen.add(tuple(field.mul(inv, d) for d in digits))
    return sorted(seen, key=lambda pt: sum(c * q ** i for i, c in enumerate(pt)))


def generator_with_zeros(field, n, zeros):
    """The generator polynomial of the cyclic code of length n over field
    with the zeros beta^j, j in zeros: the product of the minimal
    polynomials of beta^j, one per cyclotomic coset, in order of first
    appearance."""
    _, emb, beta = splitting_field(field, n)
    g = poly(field, [1])
    seen = set()
    for j in zeros:
        coset = cyclotomic_coset(j % n, n, field.q)
        if coset in seen:
            continue
        seen.add(coset)
        g = poly_mul(g, minimal_polynomial(beta, j % n, n, emb))
    return g


def rref(field, rows):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows
    dropped."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(field, rows, ncols):
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][f])
        basis.append(v)
    return basis


def dual(field, rows, ncols):
    """The reduced form (rows, pivot columns) of the code whose parity
    check has the given rows: the nullspace of the rows, reduced again."""
    return rref(field, nullspace(field, rows, ncols))


def shorten(field, rows, ncols, T):
    """The reduced form (rows, pivot columns) of the code generated by the
    rows, shortened on T: the messages whose codeword vanishes on T, their
    codewords with T removed."""
    keep = [j for j in range(ncols) if j not in set(T)]
    words = []
    for u in nullspace(field, [[row[t] for row in rows] for t in T],
                       len(rows)):
        word = [0] * ncols
        for coeff, grow in zip(u, rows):
            if coeff:
                word = [field.add(w, field.mul(coeff, g))
                        for w, g in zip(word, grow)]
        words.append([word[j] for j in keep])
    return rref(field, words)


def projective_reps(field, basis):
    """One representative per projective class of the span of basis,
    normalized so the first nonzero coefficient is 1."""
    q = field.q
    nu = len(basis)
    for lead in range(nu):
        # coefficient vectors (0,...,0,1,c_{lead+1},...)
        for tail in product(range(q), repeat=nu - lead - 1):
            vec = list(basis[lead])
            for c, brow in zip(tail, basis[lead + 1:]):
                if c:
                    vec = [field.add(v, field.mul(c, b))
                           for v, b in zip(vec, brow)]
            yield vec


def same_words(words, W) -> bool:
    """True iff words holds the rows of the dense array W, in order: each
    row's support its nonzero columns and its values the entries there."""
    W = np.asarray(W)
    m, w = words.support.shape
    if len(W) != m or words.values.shape != (m, w):
        return False
    if (np.count_nonzero(W, axis=1) != w).any():
        return False
    rows, cols = np.nonzero(W)
    return (np.array_equal(cols.reshape(m, w), words.support)
            and np.array_equal(W[rows, cols].reshape(m, w), words.values))


def words_of(W):
    """The rows of the dense array W, all of one weight, as a Words."""
    W = np.asarray(W, dtype=np.int32)
    S = np.nonzero(W)[1].reshape(len(W), -1 if len(W) else 0)
    return Words(S, np.take_along_axis(W, S, axis=1))


def rows_as_words(W):
    """The rows of the dense array W, of any weights, as a Words whose
    support is the full column range, zero values included: the form
    code_core.is_cyclic passes to in_dual."""
    W = np.asarray(W, dtype=np.int32)
    return Words(np.broadcast_to(np.arange(W.shape[1]), W.shape), W)


def dense(words, n):
    """The words of a Words as dense rows of n entries."""
    W = np.zeros((len(words), n), dtype=np.int32)
    W[np.arange(len(words))[:, None], words.support] = words.values
    return W


def in_dual(C, vectors) -> bool:
    """True iff every vector is orthogonal to every row of the generator."""
    F = C.field
    for vec in vectors:
        for row in C.gen:
            acc = 0
            for x, g in zip(vec, row):
                acc = F.add(acc, F.mul(x, g))
            if acc:
                return False
    return True


def enumerate_counts(C) -> list[int]:
    """Weight distribution counts by walking all q^k messages."""
    F, n, k = C.field, C.n, C.k
    sc = [[[F.mul(s, x) for x in row] for s in range(F.q)] for row in C.gen]
    counts = [0] * (n + 1)

    def rec(i, vec):
        if i == k:
            counts[sum(1 for x in vec if x)] += 1
            return
        rec(i + 1, vec)
        for s in range(1, F.q):
            rec(i + 1, [F.add(v, x) for v, x in zip(vec, sc[i][s])])

    rec(0, [0] * n)
    return counts


def deficient_subsets(C, w):
    """The w-subsets S, in lexicographic order, on which the columns of the
    parity check are dependent: one scalar elimination per subset."""
    F, n = C.field, C.n
    H = dual(F, C.gen, n)[0]
    for S in combinations(range(n), w):
        _, pivots = rref(F, [[row[j] for row in H] for j in S])
        if len(pivots) < w:
            yield S


def words_by_enumeration(C, w):
    """Weight-w words by walking the projective classes of the code."""
    F = C.field
    out = []
    for vec in projective_reps(F, list(C.gen)):
        if sum(1 for x in vec if x) != w:
            continue
        first = next(x for x in vec if x)
        inv = F.inv(first)
        out.append(tuple(F.mul(inv, x) for x in vec))
    return out


def words_by_scan(C, w, budget):
    """The support scan, one nullspace per rank-deficient subset."""
    F, n = C.field, C.n
    H = dual(F, C.gen, n)[0]
    spent = 0
    out = []
    for S in deficient_subsets(C, w):
        basis = nullspace(F, [[hrow[j] for j in S] for hrow in H], w)
        spent += (F.q ** len(basis) - 1) // (F.q - 1) * w
        if spent > budget:
            raise SearchTooLarge("dependency-space enumeration exceeded search cap")
        for vec in projective_reps(F, basis):
            if any(x == 0 for x in vec):
                continue
            inv = F.inv(vec[0])
            full = [0] * n
            for j, x in zip(S, vec):
                full[j] = F.mul(inv, x)
            out.append(tuple(full))
    return out


def exact_weight_words(C, w, caps=None):
    """code_core.exact_weight_words with the scalar routes, its words
    sorted by support, then by word, and only then made an (m, n) array."""
    caps = caps if caps is not None else Caps()
    out = []
    if C.k and 0 < w <= C.n:
        route = plan(C.n, C.k, C.field.q, "words", caps, w).route
        if route == "enumerate":
            out = words_by_enumeration(C, w)
        else:
            # the syndrome join lists the words of the parity-check scan,
            # the dependencies of the parity check's columns; it charges
            # the budget per word listed, not per dependency space
            out = words_by_scan(C, w, caps.search)
    out.sort(key=lambda word: (
        tuple(j for j, x in enumerate(word) if x), word))
    return np.array(out, dtype=np.int32).reshape(len(out), C.n)


def has_words_of_weight_at_most(C, w, caps):
    """Whether C has a nonzero word of weight at most w, by the scalar scan
    for some w dependent columns of the parity check; refused as
    exact_weight_words refuses weight w."""
    plan(C.n, C.k, C.field.q, "words", caps, w)
    return next(deficient_subsets(C, w), None) is not None


def hamming_weight_distribution_formula(q: int, m: int) -> WeightDistribution:
    """Closed-form weight distribution of the [(q^m-1)/(q-1), n-m, 3] code,
    evaluated in exact integer arithmetic."""
    n1 = (q ** (m - 1) - 1) // (q - 1)
    big = q ** (m - 1)
    n = (q ** m - 1) // (q - 1)
    qm = q ** m
    counts = []
    for k in range(n + 1):
        acc = 0
        for i in range(0, min(k, n1) + 1):
            j = k - i
            if j > big:
                continue
            acc += (math.comb(n1, i) * math.comb(big, j)
                    * ((q - 1) ** k + (-1) ** j * (q - 1) ** i * (qm - 1)))
        if acc % qm:
            raise ConstructionInvariantBroken("closed form is not integral")
        counts.append(acc // qm)
    return WeightDistribution(tuple(counts))


def is_ovoid(ps, caps=None):
    """q^2 + 1 points of PG(3, q), no three on a common line: the code with
    the points as parity-check columns has no word of weight <= 3."""
    field = ps.field
    if ps.dim != 3 or len(ps) != field.q ** 2 + 1:
        return False
    H = from_parity_check(field, list(zip(*ps.points)))
    return minimum_distance(H, caps) >= 4


def is_maximal_arc(ps, h):
    """Every line of PG(2, q) meets the point set in 0 or h points."""
    field = ps.field
    if ps.dim != 2:
        return False
    for a, b, c in projective_point_list(field, 3):
        hits = sum(field.add(field.add(field.mul(a, x), field.mul(b, y)),
                             field.mul(c, z)) == 0 for x, y, z in ps.points)
        if hits not in (0, h):
            return False
    return True


def is_amds(C, caps=None):
    """Almost MDS: d = n - k, a Singleton defect of exactly one."""
    if C.k == 0 or C.k == C.n:
        raise TrivialCode("defect is undefined for the zero and full codes")
    return minimum_distance(C, caps) == C.n - C.k
