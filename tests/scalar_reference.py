"""Scalar references for the numpy kernels of locality_lab.code_core.

Each function redoes one kernel entry point one field operation at a time
through the FieldSpec methods, on the route code_core.plan gives the kernel
it checks and with the same budget accounting.  rref and nullspace are the
scalar loops of code_core.rref and code_core.nullspace, kept here at every
size: code_core hands matrices from _RREF_NUMPY_MIN on to its numpy
kernel.  tests/test_kernels.py compares the two.  Not a test module:
pytest does not collect it.
"""

from itertools import combinations, product

from locality_lab.code_core import Caps, LowWeightWord, dual, plan
from locality_lab.errors import SearchTooLarge


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


def deficient_subsets(C, w, use_gen_route):
    """The w-subsets S, in lexicographic order, that hold the support of
    some nonzero codeword: one scalar elimination per subset."""
    F, n, k = C.field, C.n, C.k
    M = C.gen if use_gen_route else dual(C).gen
    full_rank = k if use_gen_route else w
    for S in combinations(range(n), w):
        cols = [j for j in range(n) if j not in S] if use_gen_route else S
        _, pivots = rref(F, [[row[j] for row in M] for j in cols])
        if len(pivots) < full_rank:
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
        vec = [F.mul(inv, x) for x in vec]
        out.append(LowWeightWord(
            tuple(j for j, x in enumerate(vec) if x), tuple(vec)))
    return out


def words_by_scan(C, w, use_gen_route, budget):
    """The support scan, one nullspace per rank-deficient subset."""
    F, n, k = C.field, C.n, C.k
    H = None if use_gen_route else dual(C).gen
    G = C.gen
    spent = 0
    out = []
    for S in deficient_subsets(C, w, use_gen_route):
        if use_gen_route:
            sbar = [j for j in range(n) if j not in set(S)]
            rows = [[G[r][j] for r in range(k)] for j in sbar]
            # words u.G restricted to S
            basis = []
            for u in nullspace(F, rows, k):
                word = [0] * w
                for coeff, grow in zip(u, G):
                    if coeff:
                        word = [F.add(x, F.mul(coeff, grow[j]))
                                for x, j in zip(word, S)]
                basis.append(word)
            basis, _ = rref(F, basis)
        else:
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
            out.append(LowWeightWord(tuple(S), tuple(full)))
    return out


def exact_weight_words(C, w, caps=None):
    """code_core.exact_weight_words with the scalar routes."""
    caps = caps if caps is not None else Caps()
    if C.k == 0 or w == 0 or w > C.n:
        return []
    route = plan(C.n, C.k, C.field.q, "words", caps, w).route
    if route == "enumerate":
        out = words_by_enumeration(C, w)
    else:
        out = words_by_scan(C, w, route == "generator", caps.search)
    out.sort(key=lambda lw: (lw.support, lw.word))
    return out


def has_words_of_weight_at_most(C, w, caps):
    """code_core._has_words_of_weight_at_most with the scalar scan."""
    route = plan(C.n, C.k, C.field.q, "exists", caps, w).route
    return next(deficient_subsets(C, w, route == "generator"),
                None) is not None
