"""Differential tests: every table-driven numpy kernel of code_core against
its scalar reference in scalar_reference.py."""

import math
import random
from itertools import cycle, product

import numpy as np
import pytest
import scalar_reference as ref
from hypothesis import given, settings, strategies as st

from locality_lab import code_core
from locality_lab.code_core import (
    _batch_kernel,
    _deficient_blocks,
    _eliminate,
    _enumerated_distribution,
    _lead_with_one,
    _numpy_field_tables,
    _popcount_by_table,
    _projective_span,
    _words_by_enumeration,
    _words_by_kernels,
    distinct_supports,
    dual,
    exact_weight_words,
    from_generator,
    from_parity_check,
    in_dual,
    is_cyclic,
    nullspace,
    plan,
    rref,
    shorten,
    weight_distribution,
    zero_code,
)
from locality_lab.errors import (BadCoordinate, FieldTooLarge,
                                 LocalityInvariantBroken, SearchTooLarge)
from locality_lab.constructions import (elliptic_quadric, grm, ovoid_code,
                                        simplex)
from locality_lab.gf import (ADD_TABLE_CAP, DLOG_CAP, FieldSpec, field_new,
                             quadratic_extension)

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2), 16: (2, 4)}


def field(q):
    return field_new(*FIELDS[q])


def matmul(F, L, R, inner):
    out = []
    for lrow in L:
        row = []
        for j in range(len(R[0]) if R else 0):
            acc = 0
            for t in range(inner):
                acc = F.add(acc, F.mul(lrow[t], R[t][j]))
            row.append(acc)
        out.append(row)
    return out


def scalar_rank(F, matrix):
    return len(ref.rref(F, matrix)[1])


# ---------------------------------------------------------------------------
# the pivot count of batched elimination against scalar rref

@st.composite
def stacks(draw):
    """(q, stack, shape) for stacks of any shape, zero sizes included; half
    of them are products L.R of random factors, so of bounded rank."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    F = field(q)
    nb = draw(st.integers(0, 5))
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    low_rank = draw(st.booleans())
    entries = st.integers(0, q - 1)
    stack = []
    for _ in range(nb):
        if low_rank:
            t = draw(st.integers(0, 3))
            L = [[draw(entries) for _ in range(t)] for _ in range(nrows)]
            R = [[draw(entries) for _ in range(ncols)] for _ in range(t)]
            stack.append(matmul(F, L, R, t) if t else
                         [[0] * ncols for _ in range(nrows)])
        else:
            stack.append([[draw(entries) for _ in range(ncols)]
                          for _ in range(nrows)])
    return q, stack, (nb, nrows, ncols)


def check_batch_rank(q, stack, shape):
    """The pivots of each matrix, and its pivot rows read through pivot at
    the non-pivot columns, against the scalar reduced echelon form."""
    F = field(q)
    A = np.array(stack, dtype=np.int32).reshape(shape)
    flat, pivot = _eliminate(_numpy_field_tables(F), A)
    for b, m in enumerate(stack):
        red, pivots = ref.rref(F, m)
        assert np.nonzero(pivot[b] >= 0)[0].tolist() == pivots
        rest = [c for c in range(shape[2]) if c not in pivots]
        got = flat[pivot[b, pivots]][:, rest].tolist()
        assert got == [[row[c] for c in rest] for row in red]


def test_eliminate_leaves_rows_in_place():
    # column 0's pivot is row 1, read through pivot where it stands
    A = np.array([[[0, 1], [1, 0]]], dtype=np.int32)
    flat, pivot = _eliminate(_numpy_field_tables(field(2)), A)
    assert pivot.tolist() == [[1, 0]]
    assert flat.tolist() == [[0, 1], [1, 0]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stacks())
def test_batch_rank_matches_scalar_rref(case):
    check_batch_rank(*case)


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (0, 3, 3),
                                   (4, 3, 5)])
def test_batch_rank_degenerate_stacks(q, shape):
    nb, nrows, ncols = shape
    zeros = [[[0] * ncols for _ in range(nrows)] for _ in range(nb)]
    check_batch_rank(q, zeros, shape)  # all-zero stacks have rank 0


# ---------------------------------------------------------------------------
# batched kernel bases against scalar nullspace

def check_batch_kernel(q, stack, shape):
    F = field(q)
    A = np.array(stack, dtype=np.int32).reshape(shape)
    got = [[] for _ in stack]
    for nu, idx, basis in _batch_kernel(_numpy_field_tables(F), A):
        assert basis.shape == (len(idx), nu, shape[2])
        for i, b in zip(idx.tolist(), basis.tolist()):
            got[i] = b
    # the reduced echelon form is unique, so the bases agree row for row
    assert got == [ref.nullspace(F, m, shape[2]) for m in stack]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stacks())
def test_batch_kernel_matches_scalar_nullspace(case):
    check_batch_kernel(*case)


def full_rank_matrix(rng, q, nrows, ncols):
    """A random matrix of rank min(nrows, ncols): a unit diagonal, random
    above it, zero below."""
    return [[1 if i == j else rng.randrange(q) if j > i else 0
             for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (0, 3, 3),
                                   (4, 3, 5), (4, 5, 3)])
def test_batch_kernel_degenerate_stacks(q, shape):
    nb, nrows, ncols = shape
    zeros = [[[0] * ncols for _ in range(nrows)] for _ in range(nb)]
    check_batch_kernel(q, zeros, shape)  # zero rows or all zero: identity
    rng = random.Random(q)
    full = [full_rank_matrix(rng, q, nrows, ncols) for _ in range(nb)]
    check_batch_kernel(q, full, shape)
    # a full-rank matrix next to zero matrices in one stack
    check_batch_kernel(q, full[:1] + zeros[1:], shape)


@st.composite
def bases(draw):
    """(q, B): a stack of m bases of nu vectors of length w."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    m = draw(st.integers(0, 4))
    nu = draw(st.integers(1, 3))
    w = draw(st.integers(1, 5))
    entries = st.integers(0, q - 1)
    return q, [[[draw(entries) for _ in range(w)] for _ in range(nu)]
               for _ in range(m)], (m, nu, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bases())
def test_full_support_words_match_projective_reps(case):
    q, B, shape = case
    F = field(q)
    want = []  # a dependent basis repeats classes, in both paths alike
    for i, basis in enumerate(B):
        for vec in ref.projective_reps(F, basis):
            if all(vec):
                inv = F.inv(vec[0])
                want.append((i, tuple(F.mul(inv, x) for x in vec)))
    tables = _numpy_field_tables(F)
    got = []
    for V in _projective_span(tables,
                              np.array(B, dtype=np.int32).reshape(shape)):
        assert V.shape[:2] == shape[::2]
        i, t = np.nonzero((V != 0).all(axis=1))
        vecs = _lead_with_one(tables, V[i, :, t])
        got.extend(zip(i.tolist(), map(tuple, vecs.tolist())))
    assert sorted(got) == sorted(want)


# ---------------------------------------------------------------------------
# the word search against the weight distribution and the scalar path

def random_code(rng, q, n, k):
    F = field(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        C = from_generator(F, rows)
        if C.k == k:
            return C


def route(C, w):
    return plan(C.n, C.k, C.field.q, "words", code_core.Caps(), w).route


def code_roster():
    rng = random.Random(2024)
    codes = []
    for _ in range(4):  # small k over GF(9) and GF(16)
        codes.append(random_code(rng, rng.choice([9, 16]),
                                 rng.randint(8, 10), 3))
    for _ in range(4):  # large k: parity-check-route scans
        n = rng.randint(7, 9)
        codes.append(random_code(rng, rng.choice([2, 3, 4]), n,
                                 n - rng.randint(2, 3)))
    for _ in range(4):  # tiny q^k: enumeration
        codes.append(random_code(rng, rng.choice([2, 3, 4]),
                                 rng.randint(5, 9), rng.randint(1, 2)))
    codes.append(random_code(rng, 3, 5, 5))  # k = n
    codes.append(random_code(rng, 9, 6, 1))  # k = 1
    # given by rows outside echelon form, reduced by from_generator
    codes.append(from_generator(field(5), [[0, 2, 3, 1, 4, 4],
                                           [3, 1, 0, 2, 2, 1]]))
    return codes


def test_word_counts_match_weight_distribution():
    routes = set()
    for C in code_roster():
        q = C.field.q
        wd = weight_distribution(C)
        for w in range(1, C.n + 1):
            words = exact_weight_words(C, w)
            routes.add(route(C, w))
            assert len(words) * (q - 1) == wd[w], (C, w)
            assert words.support.shape == words.values.shape == (len(words), w)
            assert words.support.dtype == np.intp
            assert words.values.dtype == np.int32
            assert in_dual(dual(C), words)
    assert routes == {"enumerate", "parity-check", "join"}


def same(a, b):
    """True iff two Words hold equal arrays."""
    return (np.array_equal(a.support, b.support)
            and np.array_equal(a.values, b.values))


def meeting(words, U):
    """The rows of words whose support meets the coordinates U."""
    meets = np.isin(words.support, U).any(axis=1)
    return code_core.Words(words.support[meets], words.values[meets])


def corrupted(W):
    """The rows of W plus the last one with its first nonzero entry zeroed."""
    if not len(W):
        return W
    bad = W[-1].copy()
    bad[np.flatnonzero(bad)[0]] = 0
    return np.vstack([W, bad])


def record_kernel_scans(monkeypatch):
    """Patch the numpy support scan to record what it reached: every
    nullity nu of a kernel basis, and "words" when a scan returned
    words."""
    reached, nus = set(), []
    kernel, scan = code_core._batch_kernel, code_core._words_by_kernels

    def counting_kernel(tables, A):
        for nu, idx, basis in kernel(tables, A):
            nus.append(nu)
            yield nu, idx, basis

    def recording_scan(H, w, budget, tables, u):
        nus.clear()
        for words in scan(H, w, budget, tables, u):
            if len(words):
                reached.add("words")
            yield words
        reached.update(nus)

    monkeypatch.setattr(code_core, "_batch_kernel", counting_kernel)
    monkeypatch.setattr(code_core, "_words_by_kernels", recording_scan)
    return reached


def test_distinct_supports_match_np_unique():
    # distinct_supports keeps the first word of each run of equal supports
    # in the sorted array; np.unique sorts the supports afresh
    runs = empty = 0
    for C in code_roster():
        for w in range(1, C.n + 1):
            W = exact_weight_words(C, w)
            expected = np.unique(W.support, axis=0).tolist()
            assert distinct_supports(W) == list(map(tuple, expected))
            runs += len(expected) < len(W)
            empty += not len(W)
    assert runs and empty  # supports with several words, and no words


def test_numpy_paths_match_scalar_reference(monkeypatch):
    """Each Words row against the dense reference: its support the
    reference's nonzero columns, its values the entries there.  Words hold
    12 bytes per entry of a support."""
    roster = code_roster()
    reached = record_kernel_scans(monkeypatch)
    caps = code_core.Caps()
    verdicts = []
    for C in roster:
        words = []
        for w in range(1, C.n + 1):
            fast, slow = exact_weight_words(C, w), ref.exact_weight_words(C, w)
            assert ref.same_words(fast, slow), (C, w)
            words.append(slow)
            assert any(map(len, words)) == \
                ref.has_words_of_weight_at_most(C, w, caps), (C, w)
        assert list(weight_distribution(C).counts) == ref.enumerate_counts(C)
        bad = corrupted(np.concatenate(words))
        verdicts.append(in_dual(dual(C), ref.rows_as_words(bad)))
        assert verdicts[-1] == ref.in_dual(dual(C), bad.tolist())
    assert False in verdicts  # some corrupted word left the dual
    # dependency spaces of nullity 2 and 3 (the k = n code among them),
    # and words found by the scan
    assert {2, 3, "words"} <= reached
    # w entries per word, 8 bytes of support and 4 of value each: the
    # weight-3 words of the [255, 247] Hamming code, not 255 entries each
    words = exact_weight_words(dual(simplex(2, 8)), 3)
    assert len(words) == 255 * 254 // 6
    assert words.support.nbytes + words.values.nbytes <= 12 * len(words) * 3


@pytest.mark.parametrize("n, w, through", [
    (1, 1, [0]), (5, 1, [2, 4]), (5, 5, [0]), (5, 5, [0, 1, 2, 3, 4]),
    (6, 3, [0]), (6, 3, [5]), (6, 3, [1, 2, 3, 4, 5]), (7, 4, [0, 3, 6]),
    (7, 2, []), (8, 4, [1, 2, 5, 6, 7]), (9, 8, [3, 4]), (9, 4, [7, 2, 7]),
])
def test_rank_scan_ranks_only_the_subsets_through(monkeypatch, n, w, through):
    """The rank scan tests each w-subset meeting through once and no
    other: C(n, w) - C(n - u, w) of them for the u distinct coordinates of
    through.  The walk the scan runs is rerun on a zero parity check of the
    same shape, where every subset it tests at the last level is
    deficient, so it yields exactly the subsets it tests."""
    tested = []
    walk = code_core._deficient_blocks

    def counting_walk(H, w, tables, u):
        for S, _, _ in walk(np.zeros_like(H), w, tables, u):
            tested.extend(map(tuple, S.tolist()))
        yield from walk(H, w, tables, u)

    monkeypatch.setattr(code_core, "_deficient_blocks", counting_walk)
    C = random_code(random.Random(n * w), 3, n, max(1, n - 3))
    words_by("parity-check", C, w, through)
    u = len(set(through))
    assert len(tested) == len(set(tested))
    assert len(tested) == math.comb(n, w) - math.comb(n - u, w)
    # through is moved to the front: its coordinates are the first u columns
    assert all(S[0] < u for S in tested)


@pytest.mark.parametrize("cells", [None, 1, 1 << 11])
def test_walk_matches_scalar_deficient_subsets(monkeypatch, cells):
    """_deficient_blocks against scalar_reference.deficient_subsets and a
    scalar rank per subset, over every field, r = 0 to 5 parity-check rows,
    u from 0 to n and w up to beyond r, at the default block budget, at
    one that holds a single parent per chunk and at one that splits the
    larger levels; no stack the walk makes exceeds a quarter of the budget,
    or one parent's children when those alone are larger."""
    if cells is not None:
        monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    sizes = []
    vmul, vadd = code_core._vmul, code_core._vadd

    def recording(op):
        def recorded(*args):
            out = op(*args)
            sizes.append(np.size(out))
            return out
        return recorded

    monkeypatch.setattr(code_core, "_vmul", recording(vmul))
    monkeypatch.setattr(code_core, "_vadd", recording(vadd))
    rng = random.Random(26)
    reached = set()
    for q in sorted(FIELDS):
        F = field(q)
        tables = _numpy_field_tables(F)
        for r in range(6):
            n = rng.randint(r + 1, max(r + 2, 7))
            C = random_code(rng, q, n, n - r)
            H = dual(C).gen_array
            for w in range(1, n + 1):
                want = list(ref.deficient_subsets(C, w))
                for u in sorted({0, rng.randint(1, n), n}):
                    sizes.clear()
                    got, nullities = [], []
                    for S, K, nullity in _deficient_blocks(H, w, tables, u):
                        assert np.array_equal(K, H[:, S].transpose(1, 0, 2))
                        sizes.append(K.size)
                        got.extend(map(tuple, S.tolist()))
                        nullities.extend(nullity.tolist())
                    assert got == [S for S in want if S[0] < u], (q, r, w, u)
                    assert nullities == [
                        w - scalar_rank(F, [[row[j] for row in H.tolist()]
                                            for j in S]) for S in got]
                    # a residual stack below the last level, or a K at it,
                    # per child; a parent has at most n - w + 1 children
                    per_child = max(n * r if w > 1 else 0, max(1, r, w) * w)
                    bound = max(code_core._BLOCK_CELLS // 4,
                                (n - w + 1) * per_child)
                    assert max(sizes, default=0) <= bound
                    if got and w > r:
                        reached.add("w > r")
                    if max(nullities, default=0) > 1:
                        reached.add("nullity > 1")
    assert reached == {"w > r", "nullity > 1"}


def through_sets(rng, n):
    """One coordinate, all but one, and two random subsets of range(n)."""
    return [[rng.randrange(n)], sorted(rng.sample(range(n), n - 1)),
            *(sorted(rng.sample(range(n), rng.randint(1, n)))
              for _ in range(2))]


def test_restricted_scan_matches_filtered_full_scan():
    """The words through U are the rows of the full scan whose support
    meets U, on every route, as in the dense scalar reference filtered
    alike; U unsorted and with a repeated coordinate gives the same
    arrays.  Some word of each scan leads, in the order of C, at a
    coordinate outside U with an entry the scan, which led with 1 on U,
    has to rescale."""
    rng = random.Random(14)
    narrowed = set()  # routes on which some U dropped some but not all words
    rescaled = set()
    for C in code_roster():
        for w in range(1, C.n + 1):
            full = exact_weight_words(C, w)
            slow = ref.exact_weight_words(C, w)
            for U in through_sets(rng, C.n):
                got = exact_weight_words(C, w, through=U)
                assert same(got, meeting(full, U))
                assert ref.same_words(got, slow[slow[:, U].any(axis=1)]), \
                    (C, w, U)
                shuffled = rng.sample(U, len(U)) + [U[-1]]
                assert same(exact_weight_words(C, w, through=shuffled), got)
                if 0 < len(got) < len(full):
                    narrowed.add(route(C, w))
                # supports ascend: the first member in U is the least
                first_on_U = np.isin(got.support, U).argmax(axis=1)
                if (got.values[np.arange(len(got)), first_on_U] != 1).any():
                    rescaled.add(route(C, w))
    assert narrowed == {"enumerate", "parity-check", "join"}
    assert {"parity-check", "join"} <= rescaled


@pytest.mark.parametrize("kernel", ["enumerate", "parity-check", "join"])
def test_through_is_checked_on_every_route(kernel):
    """A coordinate outside [0, n) is refused, on every route, and a
    repeated one counts once."""
    C = random_code(random.Random(23), 4, 7, 4)
    for bad in ([C.n], [-1], [0, C.n]):
        with pytest.raises(BadCoordinate):
            words_by(kernel, C, 3, bad)
    once, _ = words_by(kernel, C, 3, [0])
    assert len(once)
    assert same(words_by(kernel, C, 3, [0, 0])[0], once)


@pytest.mark.parametrize("numpy_kernel", [True, False])
def test_dependency_budget_is_exact(numpy_kernel):
    """The scan charges (q^nu - 1)/(q - 1) * w per rank-deficient subset
    and raises once the total exceeds the search cap, in the numpy kernel
    and in its scalar reference alike."""
    search = exact_weight_words if numpy_kernel else ref.exact_weight_words
    C = random_code(random.Random(5), 3, 5, 5)  # k = n: every subset
    for w in (4, 5):
        assert route(C, w) == "parity-check"
    # w = 5: one subset of nullity 5, 121 classes; w = 4: five of nullity 4
    for w, spent in ((5, 121 * 5), (4, 5 * 40 * 4)):
        assert len(search(C, w, code_core.Caps(search=spent)))
        with pytest.raises(SearchTooLarge, match="dependency-space"):
            search(C, w, code_core.Caps(search=spent - 1))


# ---------------------------------------------------------------------------
# the syndrome join against the rank scan and the scalar reference

def words_by(route, C, w, through=None, caps=None):
    """exact_weight_words, and its scalar reference when through is None,
    with plan's route forced."""
    def forced(*args, **kwargs):
        return code_core.Plan(route, 0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_core, "plan", forced)
        mp.setattr(ref, "plan", forced)
        fast = exact_weight_words(C, w, caps, through)
        slow = None if through is not None else ref.exact_weight_words(C, w)
    return fast, slow


def join_roster():
    """(code, largest weight to list): random codes over small fields, over
    GF(1024) and over GF(729), and codes whose syndromes are degenerate."""
    rng = random.Random(21)
    fields = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3),
              9: (3, 2), 16: (2, 4)}
    codes = []
    for q, (p, m) in fields.items():
        F = field_new(p, m)
        for _ in range(2):
            n = rng.randint(5, 7 if q <= 5 else 6)
            k = rng.randint(1, n - 1 if q <= 5 else 3)
            while True:
                C = from_generator(F, [[rng.randrange(q) for _ in range(n)]
                                       for _ in range(k)])
                if C.k == k:
                    codes.append((C, n))
                    break
    for p, m in ((2, 10), (3, 6)):  # xor sums, Zech-logarithm sums
        F = field_new(p, m)
        for k in (2, 3):
            codes.append((from_generator(F, [[rng.randrange(1, F.q)
                                              for _ in range(5)]
                                             for _ in range(k)]), 3))
    F3, F4 = field_new(3, 1), field_new(2, 2)
    codes += [
        # k = n: the parity check has no rows
        (from_generator(F3, [[int(i == j) for j in range(4)]
                             for i in range(4)]), 4),
        # holds e_2: column 2 of the parity check is zero
        (from_generator(F3, [[1, 2, 0, 1, 1, 0], [0, 0, 1, 0, 0, 0],
                             [0, 1, 0, 2, 1, 1]]), 6),
        # one parity-check row: every support has nullity w - 1
        (from_parity_check(F4, [[1, 1, 2, 3, 1, 2]]), 5),
        # (1, 2, mu, mu, 0, 0): two disjoint weight-2 words, whose halves
        # both have zero syndromes
        (from_generator(F3, [[1, 2, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
                             [0, 0, 0, 0, 1, 1]]), 6),
    ]
    return codes


def test_join_matches_rank_scan_and_scalar_reference(monkeypatch):
    """The join lists the words of the parity-check scan, row for row, at
    every weight (w = 1 has an empty right half, w = 2 equal halves), in
    blocks of the default size and of a few cells, through one
    coordinate, two, and all of them."""
    rng = random.Random(22)
    degenerate = set()
    for C, top in join_roster():
        n, H = C.n, dual(C).gen_array
        if not len(H):
            degenerate.add("no rows")
        elif (H == 0).all(axis=0).any():
            degenerate.add("zero column")
        for w in range(1, top + 1):
            join, slow = words_by("join", C, w)
            scan, _ = words_by("parity-check", C, w)
            assert same(join, scan), (C, w)
            assert ref.same_words(join, slow), (C, w)
            if w == 4 and (slow[:, :2] == [1, 2]).all(axis=1).any():
                degenerate.add("zero halves")
            for U in ([rng.randrange(n)], sorted(rng.sample(range(n), 2)),
                      list(range(n))):
                got, _ = words_by("join", C, w, U)
                assert same(got, meeting(join, U)), (C, w, U)
        with monkeypatch.context() as mp:
            mp.setattr(code_core, "_BLOCK_CELLS", 8)
            for w in range(1, top + 1):
                assert same(words_by("join", C, w)[0],
                            words_by("parity-check", C, w)[0])
    assert degenerate == {"no rows", "zero column", "zero halves"}


@pytest.mark.parametrize("q, rows, w, through, charged", [
    # k = n over GF(3), w = 4: C(5, 4) * 2^3 = 40 words of zero syndromes
    (3, [[int(i == j) for j in range(5)] for i in range(5)], 4, None, 160),
    # the [7, 4] Hamming code, w = 3: the 3 words through coordinate 0
    (2, [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1, 0],
         [0, 0, 0, 1, 1, 1, 1]], 3, [0], 9),
])
def test_join_budget_is_exact(q, rows, w, through, charged):
    """The join charges w per word it lists and raises once the total
    exceeds the search cap."""
    C = from_generator(field(q), rows)
    words, _ = words_by("join", C, w, through, code_core.Caps(search=charged))
    assert len(words) * w == charged
    with pytest.raises(SearchTooLarge, match="syndrome join"):
        words_by("join", C, w, through, code_core.Caps(search=charged - 1))


def mds_count(n, k, q, w):
    """A_w of an [n, k] MDS code over GF(q)."""
    d = n - k + 1
    return math.comb(n, w) * sum(
        (-1) ** j * math.comb(w, j) * (q ** (w - d + 1 - j) - 1)
        for j in range(w - d + 1))


@pytest.mark.parametrize("p, m", [(2, 10), (3, 6)])
def test_large_fields_match_mds_formula(p, m):
    """GF(1024) and GF(729), whose sums go through xor and through Zech
    logarithms: the numpy kernels against the MDS weight formula and the
    scalar reference, on every route."""
    F = field_new(p, m)
    q = F.q
    rng = random.Random(q)
    x = rng.sample(range(1, q), 4)
    C1 = from_parity_check(F, [[1] + x[:3]])  # [4, 3, 2]
    C2 = from_parity_check(F, [[1, 1, 1, 1], x])  # [4, 2, 3]
    C3 = dual(C1)  # [4, 1, 4]
    routes = set()
    # C1 has about q^2 words of weight 4, too many to list here
    for C, top in ((C1, 3), (C2, 4), (C3, 4)):
        for w in range(1, top + 1):
            words = exact_weight_words(C, w)
            routes.add(route(C, w))
            assert len(words) * (q - 1) == mds_count(4, C.k, q, w), (C, w)
            assert in_dual(dual(C), words)
            assert ref.same_words(words, ref.exact_weight_words(C, w)), (C, w)
    assert routes == {"enumerate", "parity-check", "join"}
    for C in (C2, C3):
        assert list(weight_distribution(C).counts) == [
            1] + [mds_count(4, C.k, q, w) for w in range(1, 5)]
    assert ref.same_words(exact_weight_words(C3, 4), [C3.gen[0]])
    # C1 has words of weight 2 and none of weight 1: d = 2, by the scan
    assert len(exact_weight_words(C1, 2)) and \
        not len(exact_weight_words(C1, 1))
    fresh = from_parity_check(F, [[1] + x[:3]])
    assert code_core.minimum_distance(
        fresh, code_core.Caps(enumeration=1)) == 2


def test_fields_above_the_cap_are_refused():
    # a code over a field without tables is refused when it is built, on
    # every door in
    for F in (field_new(2, 17), field_new(65537, 1)):
        assert F.tables is None and F.q > DLOG_CAP
        for build in (lambda: from_generator(F, [[1, 2, 3]]),
                      lambda: from_parity_check(F, [[1, 1]]),
                      lambda: zero_code(F, 3)):
            with pytest.raises(FieldTooLarge, match=f"cap {DLOG_CAP}"):
                build()


# ---------------------------------------------------------------------------
# the single-matrix elimination against the scalar loop

# (q, rows, cols, rank bound or None for a uniform random matrix), on both
# sides of _RREF_NUMPY_MIN
RREF_CASES = [
    (2, 104, 110, None),
    (3, 110, 104, 60),
    (4, 103, 103, None),
    (16, 30, 40, 12),
    (9, 24, 24, None),
    (5, 20, 20, None),
    (9, 12, 40, 4),
    (16, 16, 31, 7),
    (3, 1, 50, None),
]


def rref_cost(nrows, ncols):
    return nrows * ncols * min(nrows, ncols)


def test_rref_cases_straddle_the_numpy_threshold():
    for deficient in (False, True):
        costs = [rref_cost(r, c) for _, r, c, cap in RREF_CASES
                 if (cap is not None) == deficient]
        assert min(costs) < code_core._RREF_NUMPY_MIN <= max(costs)


@pytest.mark.parametrize("q, nrows, ncols, rank_cap", RREF_CASES)
def test_rref_numpy_matches_scalar(q, nrows, ncols, rank_cap):
    F = field(q)
    rng = random.Random(q)
    if rank_cap is None:
        M = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
    else:
        L = [[rng.randrange(q) for _ in range(rank_cap)] for _ in range(nrows)]
        R = [[rng.randrange(q) for _ in range(ncols)] for _ in range(rank_cap)]
        M = matmul(F, L, R, rank_cap)
    red, pivots = rref(F, M)
    assert (red, pivots) == ref.rref(F, M)
    if rank_cap is not None:
        assert len(pivots) <= rank_cap < min(nrows, ncols)


# the scalar loop's field classes: GF(2), GF(2^e) and GF(p) read the field
# tables alone, GF(3^6), odd above gf.ADD_TABLE_CAP, adds through
# FieldSpec.add, and GF(2^17), above gf.DLOG_CAP, has no tables and is refused
SCALAR_FIELDS = [(2, 1), (2, 4), (5, 1), (3, 6), (2, 17)]

# (rows, cols, rank bound or None), full rank and rank deficient, on both
# sides of _RREF_NUMPY_MIN
SCALAR_SHAPES = [(7, 40, None), (12, 20, 4), (24, 64, None), (36, 36, 8)]


@pytest.mark.parametrize("p, m", SCALAR_FIELDS)
def test_rref_loop_matches_scalar_reference(monkeypatch, p, m):
    """rref and nullspace against the method-driven reference on every
    field class, and, where the field has an addition table or
    characteristic 2, with no FieldSpec arithmetic method called per
    entry.  A field without tables is refused on both sides of
    _RREF_NUMPY_MIN, with no method-driven fallback."""
    for deficient in (False, True):
        costs = [rref_cost(r, c) for r, c, cap in SCALAR_SHAPES
                 if (cap is not None) == deficient]
        assert min(costs) < code_core._RREF_NUMPY_MIN <= max(costs)
    F = field_new(p, m)
    rng = random.Random(100 * p + m)
    if F.tables is None:
        assert F.q > DLOG_CAP
        for nrows, ncols, _ in SCALAR_SHAPES:
            M = [[rng.randrange(F.q) for _ in range(ncols)]
                 for _ in range(nrows)]
            for run in (lambda: rref(F, M), lambda: nullspace(F, M, ncols)):
                with pytest.raises(FieldTooLarge, match=f"cap {DLOG_CAP}"):
                    run()
        return
    cases = []
    for nrows, ncols, cap in SCALAR_SHAPES:
        if cap is None:
            M = [[rng.randrange(F.q) for _ in range(ncols)]
                 for _ in range(nrows)]
        else:
            L = [[rng.randrange(F.q) for _ in range(cap)]
                 for _ in range(nrows)]
            R = [[rng.randrange(F.q) for _ in range(ncols)]
                 for _ in range(cap)]
            M = matmul(F, L, R, cap)
        cases.append((M, cap, ref.rref(F, M), ref.nullspace(F, M, ncols)))
    _numpy_field_tables(F)  # built once per field; zech calls FieldSpec.add
    calls = []
    for name in ("add", "sub", "mul", "neg"):
        method = getattr(FieldSpec, name)
        monkeypatch.setattr(FieldSpec, name, lambda self, *a, method=method,
                            name=name: calls.append(name) or method(self, *a))
    for M, cap, red, kernel in cases:
        assert rref(F, M) == red
        assert nullspace(F, M, len(M[0])) == kernel
        if cap is not None:
            assert len(red[1]) <= cap < min(len(M), len(M[0]))
    by_lists = p == 2 or F.q <= ADD_TABLE_CAP
    assert by_lists == (not calls)
    assert by_lists or set(calls) == {"add"}


# ---------------------------------------------------------------------------
# the block split of the projective enumeration

def all_words(C, tables):
    """Every weight's words on the enumeration route and on the rank scan,
    as sorted lists of (support, values) rows."""
    out = []
    for w in range(1, C.n + 1):
        for blocks in (_words_by_enumeration(C, w, tables),
                       _words_by_kernels(dual(C).gen_array, w, 1 << 24,
                                         tables, C.n)):
            out.append(sorted((s, v) for S, V in blocks
                              for s, v in zip(S.tolist(), V.tolist())))
    return out


@pytest.mark.parametrize("cells", [8, 64])
def test_block_budget_does_not_change_results(monkeypatch, cells):
    roster = code_roster()
    tables = [_numpy_field_tables(C.field) for C in roster]
    want = [(_enumerated_distribution(C), all_words(C, t))
            for C, t in zip(roster, tables)]
    monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    got = [(_enumerated_distribution(C), all_words(C, t))
           for C, t in zip(roster, tables)]
    assert got == want


def test_in_dual_checks_every_block(monkeypatch):
    """Blocks of one word: a word corrupted in any block, a later one
    among them, is found, as the scalar reference finds it, on both
    sides."""
    monkeypatch.setattr(code_core, "_BLOCK_CELLS", 8)
    found = set()
    for C in code_roster()[4:8]:  # [n, n - 2] and [n, n - 3] codes
        for w in range(1, C.n + 1):
            W = exact_weight_words(dual(C), w)
            assert in_dual(C, W)
            syndrome = w * C.k <= (C.n - C.k) * C.n
            for r in range(len(W)):
                values = W.values.copy()
                values[r, 0] = 0
                bad = code_core.Words(W.support, values)
                verdict = in_dual(C, bad)
                assert verdict == ref.in_dual(C, ref.dense(bad, C.n).tolist()), \
                    (C, r)
                if not verdict and r:
                    found.add(syndrome)
    assert found == {True, False}


def test_in_dual_matches_scalar_reference_on_both_sides():
    """in_dual against the scalar syndrome, on both sides of its choice:
    codes with 2k below, at and above n, the zero code, the whole space and
    a code given by rows outside echelon form, each checked with words of
    its dual, corrupted words and random vectors, all on the full column
    range with their zero values, as is_cyclic passes them.  Then the
    minimum-weight words of each dual, with one value on a support
    corrupted, are refused on the syndrome side and on the pivot side."""
    rng = random.Random(18)
    codes = [code_roster()[-1]]  # given by rows outside echelon form
    for q in (2, 3, 4, 9, 16):
        n = rng.choice([6, 8])
        codes.append(zero_code(field(q), n))
        codes.extend(random_code(rng, q, n, k)
                     for k in (1, rng.randint(2, n // 2 - 1), n // 2,
                               n - 1, n))
    seen, verdicts, refused, zeros_held = set(), [], set(), False
    for C in codes:
        for A in (C, dual(C)):
            q, D = A.field.q, dual(A)
            words = np.array([ref.encode(D, [rng.randrange(q) for _ in range(D.k)])
                              for _ in range(6)], dtype=np.int32)
            words = words[words.any(axis=1)]
            assert in_dual(A, ref.rows_as_words(words))
            assert ref.in_dual(A, words.tolist())
            zeros_held = zeros_held or not words.all()
            outside = [corrupted(words)] if len(words) else []
            outside.append(np.array([[rng.randrange(q) for _ in range(A.n)]
                                     for _ in range(3)], dtype=np.int32))
            for bad in outside:
                verdicts.append(in_dual(A, ref.rows_as_words(bad)))
                assert verdicts[-1] == ref.in_dual(A, bad.tolist()), (A, bad)
            seen.add((2 * A.k < A.n, 2 * A.k > A.n, A.k in (0, A.n)))
            if D.k:
                w = code_core.minimum_distance(D)
                W = exact_weight_words(D, w)
                values = W.values.copy()
                values[-1, -1] = (values[-1, -1] + 1) % q  # 0 when q = 2
                bad = code_core.Words(W.support, values)
                verdict = in_dual(A, bad)
                assert verdict == ref.in_dual(
                    A, ref.dense(bad, A.n).tolist()), (A, w)
                if not verdict:
                    refused.add(w * A.k <= (A.n - A.k) * A.n)
    assert zeros_held and False in verdicts
    # the syndrome (2k <= n) and the re-encoding (2k > n), with k = 0 and
    # k = n among them
    assert {(True, False, False), (False, False, False),
            (False, True, False), (True, False, True),
            (False, True, True)} <= seen
    assert refused == {True, False}  # the syndrome side, the pivot side


def test_in_dual_multiplies_only_the_support(monkeypatch):
    """The syndrome side gathers each word's support: m words of weight w
    cost m * w * k products, not m * n * k; the pivot side, chosen when
    w * k exceeds (n - k) * n, costs m * (n - k) * n."""
    C = grm(2, 1, 5)  # RM(1, 5): [32, 6], its dual RM(3, 5) [32, 26]
    D = dual(C)
    low = exact_weight_words(D, 4)
    high = exact_weight_words(C, 16)
    count = [0]  # entries of every product _vmul returns
    vmul = code_core._vmul

    def counting(tables, a, b):
        out = vmul(tables, a, b)
        count[0] += out.size
        return out

    monkeypatch.setattr(code_core, "_vmul", counting)
    assert in_dual(C, low)  # 4 * 6 <= 6 * 32: the syndrome side
    assert count[0] == len(low) * 4 * C.k
    count[0] = 0
    assert in_dual(D, high)  # 16 * 26 > 6 * 32: the pivot side
    assert count[0] == len(high) * (D.n - D.k) * D.n
    # k > n - k, but words of weight 2 still cost less on the syndrome side
    _, _, E = case_code(3, 12, 7, seed=1)
    pairs = exact_weight_words(dual(E), 2)
    count[0] = 0
    assert len(pairs) and in_dual(E, pairs)  # 2 * 7 <= 5 * 12
    assert count[0] == len(pairs) * 2 * E.k


@pytest.mark.parametrize("cells", [16, 1 << 18])
def test_in_dual_on_rows_of_mixed_weight(monkeypatch, cells):
    """Rows of different weights, zero rows among them, on the full column
    range as is_cyclic passes a generator, against the scalar syndrome, in blocks of one or
    two rows and in one block, on both sides."""
    monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    for C in code_roster():
        for A in (C, dual(C)):
            D = dual(A)
            words = [ref.encode(D, [rng.randrange(A.field.q) for _ in range(D.k)])
                     for _ in range(5)]
            W = np.array(words + [[0] * A.n] + list(D.gen), dtype=np.int32)
            if D.k:
                assert len({int(np.count_nonzero(r)) for r in W}) > 1
            assert in_dual(A, ref.rows_as_words(W))
            assert ref.in_dual(A, W.tolist())
            bad = corrupted(W[np.any(W, axis=1)])
            assert in_dual(A, ref.rows_as_words(bad)) == \
                ref.in_dual(A, bad.tolist()), A
            assert is_cyclic(A) == ref.in_dual(
                D, np.roll(A.gen_array, 1, axis=1).tolist())


def test_a_dropped_block_breaks_the_distribution(monkeypatch):
    span = code_core._projective_span

    def drop_last(tables, B, *packed):
        # copies: the enumerator reuses one buffer for its blocks
        blocks = [V.copy() for V in span(tables, B, *packed)]
        assert len(blocks) > 1
        yield from blocks[:-1]

    monkeypatch.setattr(code_core, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(code_core, "_projective_span", drop_last)
    roster = code_roster()
    for C in (roster[0], roster[5]):  # GF(16), packed, and GF(3)
        with pytest.raises(LocalityInvariantBroken, match="miscounted"):
            _enumerated_distribution(C)


# ---------------------------------------------------------------------------
# the packed enumeration of characteristic 2 against the int32 path

GF8, TOWER16 = field_new(2, 3), quadratic_extension(field_new(2, 2))
PACKED_FIELDS = [field(2), field(4), GF8, field(16), TOWER16]
# one coordinate, one lane with and without a pad bit, one bit into the
# next lane, two lanes with a pad bit, with none, and one bit into a third
PACKED_LENGTHS = [1, 63, 64, 65, 127, 128, 129]


def code_over(F, n, k, rng, zero_column=None):
    """A random [n, k] code over F; with zero_column, that column is 0."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        for row in rows:
            if zero_column is not None:
                row[zero_column] = 0
        C = from_generator(F, rows)
        if C.k == k:
            return C


def int32_counts(C):
    """The weight distribution walked through the int32 encoding."""
    q, n = C.field.q, C.n
    classes = np.zeros(n + 1, dtype=np.int64)
    G = np.array(C.gen, dtype=np.int32).reshape(1, C.k, n)
    for V in _projective_span(_numpy_field_tables(C.field), G):
        assert V.dtype == np.int32
        classes += np.bincount(np.count_nonzero(V[0], axis=0),
                               minlength=n + 1)
    return [1] + [int(x) * (q - 1) for x in classes[1:]]


def packed_roster():
    rng = random.Random(64)
    codes = [code_over(F, n, k, rng) for F in PACKED_FIELDS
             for n in PACKED_LENGTHS for k in (1, 2, 3) if k <= n]
    codes += [code_over(F, n, n, rng) for F in PACKED_FIELDS for n in (2, 4)]
    # zero columns on both sides of a lane boundary
    codes += [code_over(F, n, 2, rng, zero_column=j)
              for F in (field(2), GF8, TOWER16)
              for n, j in ((3, 0), (64, 63), (65, 64), (129, 64), (129, 0))]
    return codes


def record_blocks(monkeypatch):
    """Patch the enumerator to record (dtype, bytes) of every block."""
    blocks = []
    span = code_core._projective_span

    def recording_span(tables, B, *packed):
        for V in span(tables, B, *packed):
            blocks.append((V.dtype, V.nbytes))
            yield V

    monkeypatch.setattr(code_core, "_projective_span", recording_span)
    return blocks


# the default budget, and one that splits every span into many blocks
@pytest.mark.parametrize("cells", [None, 16])
def test_packed_distribution_matches_int32_and_scalar(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    blocks = record_blocks(monkeypatch)
    for C in packed_roster():
        blocks.clear()
        got = list(_enumerated_distribution(C).counts)
        assert {dtype for dtype, _ in blocks} == {np.dtype(np.uint64)}, C
        assert got == int32_counts(C) == ref.enumerate_counts(C), C


def test_packed_distribution_through_the_table_popcount(monkeypatch):
    # the byte-table popcount that numpy before 2.0 runs, end to end
    monkeypatch.setattr(code_core, "_popcount", _popcount_by_table)
    for C in packed_roster():
        got = list(_enumerated_distribution(C).counts)
        assert got == int32_counts(C) == ref.enumerate_counts(C), C


def test_odd_characteristic_keeps_the_int32_path(monkeypatch):
    blocks = record_blocks(monkeypatch)
    rng = random.Random(65)
    for q in (3, 5):
        for n in (1, 64, 65):
            C = code_over(field(q), n, min(n, 3), rng)
            blocks.clear()
            got = list(_enumerated_distribution(C).counts)
            assert {dtype for dtype, _ in blocks} == {np.dtype(np.int32)}, C
            assert got == int32_counts(C) == ref.enumerate_counts(C), C


# ---------------------------------------------------------------------------
# the weight count of _enumerated_distribution: two weights per index

def record_bincounts(monkeypatch):
    """Patch np.bincount to record (input length, output length) of every
    call, and np.zeros the cells of every int64 array it makes."""
    calls, grids = [], []
    bincount, zeros = np.bincount, np.zeros

    def recording_bincount(x, *args, **kwargs):
        out = bincount(x, *args, **kwargs)
        calls.append((len(x), len(out)))
        return out

    def recording_zeros(shape, dtype=float, *args, **kwargs):
        out = zeros(shape, dtype, *args, **kwargs)
        if out.dtype == np.int64:
            grids.append(out.size)
        return out

    monkeypatch.setattr(np, "bincount", recording_bincount)
    monkeypatch.setattr(np, "zeros", recording_zeros)
    return calls, grids


def counted(monkeypatch, C):
    """The distribution of C, with the np.bincount calls and int64 arrays
    the count made; the oracles are computed unpatched."""
    with monkeypatch.context() as mp:
        calls, grids = record_bincounts(mp)
        got = list(_enumerated_distribution(C).counts)
    return got, calls, grids


def regroup(monkeypatch, sizes):
    """Patch the enumerator to yield its classes in blocks of the given
    sizes, cycled."""
    span = code_core._projective_span

    def regrouped_span(tables, B, *packed):
        V = np.concatenate([V.copy() for V in span(tables, B, *packed)],
                           axis=2)
        at = 0
        for size in cycle(sizes):
            if at >= V.shape[2]:
                return
            yield V[:, :, at:at + size]
            at += size

    monkeypatch.setattr(code_core, "_projective_span", regrouped_span)


def pair_base(C):
    """One more than the largest weight the count can see."""
    return (64 * -(-C.n // 64) if C.field.p == 2 else C.n) + 1


def classes_of(C):
    return (C.field.q ** C.k - 1) // (C.field.q - 1)


def check_pair_count(monkeypatch, C):
    """The distribution of C against both oracles; whether it was counted
    in pairs, which a span of at least one chunk of classes is."""
    got, calls, grids = counted(monkeypatch, C)
    assert got == int32_counts(C) == ref.enumerate_counts(C), C
    paired = classes_of(C) >= code_core._BLOCK_CELLS // 4
    assert grids == [pair_base(C) ** (2 if paired else 1)], C
    # two weights per index, less one phantom per odd chunk
    assert sum(x for x, _ in calls) <= (
        classes_of(C) // 2 + len(calls) if paired else classes_of(C)), C
    return paired


# each block counted alone (_BLOCK_CELLS // 4 = 1) in chunks of one class,
# of two and of three; blocks of one class held four at a time; and blocks
# of five and seven held in odd and even chunks of at least 16
@pytest.mark.parametrize("cells, sizes", [(4, (1, 2, 3)), (16, (1,)),
                                          (64, (5, 7))])
def test_pair_count_over_odd_and_even_chunks(monkeypatch, cells, sizes):
    monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    regroup(monkeypatch, sizes)
    rng = random.Random(66)
    # 1, 7, 4, 6, 21, 9 and 63 classes; one, two and three lanes packed
    for F, n, k in ((field(2), 5, 1), (field(2), 5, 3), (field(3), 4, 2),
                    (field(5), 6, 2), (field(4), 65, 3), (GF8, 129, 2),
                    (field(2), 64, 6)):
        C = code_over(F, n, k, rng)
        check_pair_count(monkeypatch, C)


# the buffer flushed in mid-walk, over one, two and three lanes (the
# packed roster) and over GF(3) and GF(5)
@pytest.mark.parametrize("cells", [16, 64])
def test_pair_count_matches_int32_and_scalar(monkeypatch, cells):
    monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    rng = random.Random(67)
    paired = set()
    for C in packed_roster() + [code_over(field(q), n, min(n, 4), rng)
                                for q in (3, 5) for n in (1, 2, 64, 65)]:
        if check_pair_count(monkeypatch, C):
            paired.add(pair_base(C) if C.field.p == 2 else C.field.q)
    assert paired == {65, 129, 193, 3, 5}


def test_large_codes_count_one_weight_per_index(monkeypatch):
    rng = random.Random(68)
    short = code_over(field(2), 300, 11, rng)
    ovoid = ovoid_code(elliptic_quadric(32))  # [1025, 4] over GF(32)
    q = 32
    # the q^3 + q secant planes leave q^2 - q points, the q^2 + 1 tangent
    # planes q^2, each plane q - 1 words
    ovoid_counts = {0: 1, q * q - q: (q - 1) * (q ** 3 + q),
                    q * q: (q - 1) * (q * q + 1)}
    # budgets under which each span holds a chunk of classes or more
    for C, cells, want in ((short, 1 << 12, ref.enumerate_counts(short)),
                           (ovoid, 1 << 16, None)):
        monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
        assert classes_of(C) >= cells // 4
        assert pair_base(C) ** 2 > 1 << 16
        got, calls, grids = counted(monkeypatch, C)
        assert got == int32_counts(C), C
        assert want is None or got == want, C
        assert sum(x for x, _ in calls) == classes_of(C)
        assert max(y for _, y in calls) <= pair_base(C)
        assert grids == [pair_base(C)], C
    assert {w: c for w, c in enumerate(got) if c} == ovoid_counts


def test_weights_of_1024_lanes_do_not_wrap():
    # 65,536 coordinates fill 1,024 lanes: the full weight is one past uint16
    n = 1 << 16
    C = from_generator(field(2), [[1] * n, [1] * (n // 2) + [0] * (n // 2)])
    got = _enumerated_distribution(C).counts
    assert {w: c for w, c in enumerate(got) if c} == {0: 1, n // 2: 2, n: 1}


def test_rm_2_6_counts_a_quarter_block_per_bincount(monkeypatch):
    C = grm(2, 2, 6)  # RM(2, 6): 2^22 - 1 classes of 64 coordinates
    got, calls, _ = counted(monkeypatch, C)
    assert {w: c for w, c in enumerate(got) if c} == {
        0: 1, 16: 2604, 24: 291648, 28: 888832, 32: 1828134, 36: 888832,
        40: 291648, 48: 2604, 64: 1}
    quarter = code_core._BLOCK_CELLS // 4
    assert len(calls) <= -(-(2 ** 22 - 1) // quarter) + 1


# the default budget, and one under which the span of a few rows is
# tabulated and the leading combinations run over several blocks
@pytest.mark.parametrize("cells", [None, 64])
def test_span_yields_each_class_once(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    rng = random.Random(15)
    for F in (field(2), field(3), field(4), field(16), TOWER16):
        tables = _numpy_field_tables(F)
        bits = (F.q - 1).bit_length()
        for nu, w in product(range(1, 5), (5, 65)):
            B = [[[rng.randrange(F.q) for _ in range(w)] for _ in range(nu)]
                 for _ in range(3)]
            want = [np.array(list(ref.projective_reps(F, basis)),
                             dtype=np.int32) for basis in B]
            for packed in (False, True) if F.p == 2 else (False,):
                got = [[] for _ in B]
                for V in _projective_span(tables, np.array(B, dtype=np.int32),
                                          packed):
                    for i, vectors in enumerate(V):
                        got[i] += vectors.T.tolist()
                for vectors, reps in zip(got, want):
                    if packed:
                        reps = code_core._pack_planes(reps, bits)
                    assert len(vectors) == (F.q ** nu - 1) // (F.q - 1)
                    assert sorted(vectors) == sorted(reps.tolist()), \
                        (F, nu, w, packed)


def test_a_dirty_pad_bit_breaks_the_distribution(monkeypatch):
    pack = code_core._pack_planes

    def dirty(V, bits):
        out = pack(V, bits)
        # the top bit of each plane's last lane lies past coordinate n - 1
        lanes = out.shape[-1] // bits
        out.reshape(out.shape[:-1] + (bits, lanes))[..., -1] |= np.uint64(
            1 << 63)
        return out

    monkeypatch.setattr(code_core, "_pack_planes", dirty)
    # one class, of weight n; and [1, 1, 0], of weight 2, which the pad
    # bit would lift to a weight of n = 3
    for rows in ([[1]], [[1] * 63], [[1] * 65], [[1] * 127], [[1, 1, 0]]):
        C = from_generator(field(2), rows)
        with pytest.raises(LocalityInvariantBroken, match="miscounted"):
            _enumerated_distribution(C)


@pytest.mark.parametrize("build, cells", [
    (lambda: grm(2, 2, 5), 1 << 10),  # RM(2,5) under a lowered budget
    (lambda: grm(2, 2, 6), None),      # 2^21 classes at the first lead
    (lambda: code_over(GF8, 100, 7, random.Random(8)), None),
    (lambda: code_over(field(3), 40, 12, random.Random(3)), None),
], ids=["rm25-lowered", "rm26", "gf8", "gf3"])
def test_every_block_keeps_the_byte_budget(monkeypatch, build, cells):
    C = build()
    if cells is not None:
        monkeypatch.setattr(code_core, "_BLOCK_CELLS", cells)
    blocks = record_blocks(monkeypatch)
    _enumerated_distribution(C)  # counts checked by the kernel itself
    assert len(blocks) > C.k  # the leading combinations took several blocks
    assert max(size for _, size in blocks) <= code_core._BLOCK_CELLS * 4


def popcount_reference(x):
    return np.array([int(v).bit_count() for v in x.ravel()],
                    dtype=np.uint8).reshape(x.shape)


LANES = st.integers(0, (1 << 64) - 1) | st.sampled_from([0, (1 << 64) - 1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(LANES, max_size=40), st.integers(1, 3))
def test_popcount_table_matches_bitwise_count(lanes, rows):
    x = np.array(lanes * rows, dtype=np.uint64).reshape(rows, len(lanes))
    got = _popcount_by_table(x)
    assert got.dtype == np.uint8 and got.shape == x.shape
    assert np.array_equal(got, popcount_reference(x))
    if hasattr(np, "bitwise_count"):
        assert np.array_equal(got, np.bitwise_count(x))
        assert code_core._popcount is np.bitwise_count


def test_popcount_table_on_full_and_empty_lanes():
    x = np.array([0, (1 << 64) - 1, 1 << 63, 1], dtype=np.uint64)
    assert _popcount_by_table(x).tolist() == [0, 64, 1, 1]
    # a strided view, as a slice of packed planes would be
    assert _popcount_by_table(x[::2]).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# duals and shortenings against the nullspace constructions they replaced

# (q, n, k): k = 0 and k = n among them; the eliminations of the dual
# construction, k * n * min(k, n), on both sides of _RREF_NUMPY_MIN
DUAL_CASES = [(2, 7, 0), (3, 6, 6), (4, 9, 3), (5, 12, 7), (9, 10, 5),
              (16, 8, 4), (8, 11, 10), (2, 48, 20), (3, 40, 24),
              (16, 36, 18), (9, 30, 30), (4, 36, 33)]


def generator_rows(q, n, k, seed):
    """k rows of length n of rank k: [I | A] with random A, its columns
    shuffled.  When n >= k + 2, one column is zero and one repeats
    another, so that the dual holds words of weight 1 and 2."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(k)]
            + [rng.randrange(q) for _ in range(n - k)] for i in range(k)]
    if n >= k + 2:
        for row in rows:
            row[k], row[k + 1] = 0, row[0]
    order = rng.sample(range(n), n)
    return [[row[j] for j in order] for row in rows]


def case_code(q, n, k, seed):
    F = code_core.field_for_q(q)
    rows = generator_rows(q, n, k, seed)
    return F, rows, (from_generator(F, rows) if rows else zero_code(F, n))


def test_dual_cases_straddle_the_numpy_threshold():
    costs = [rref_cost(k, n) for _, n, k in DUAL_CASES if k]
    assert min(costs) < code_core._RREF_NUMPY_MIN <= max(costs)
    assert any(k == 0 for _, _, k in DUAL_CASES)
    assert any(k == n for _, n, k in DUAL_CASES)


@pytest.mark.parametrize("q, n, k", DUAL_CASES)
def test_dual_and_parity_check_match_the_nullspace_reference(q, n, k):
    F, rows, C = case_code(q, n, k, seed=q * n + k)
    assert C.k == k
    D = dual(C)
    want = ref.dual(F, C.gen, n)
    assert ([list(r) for r in D.gen], list(D.pivots)) == want
    assert (D.n, D.k) == (n, n - k)
    assert is_cyclic(D) == is_cyclic(C)
    assert dual(D) is C
    if rows:
        H = from_parity_check(F, rows, label="h")
        assert ([list(r) for r in H.gen], list(H.pivots)) == want
        assert (H.label, dual(H).label, dual(H)) == ("h", "dual(h)", C)


@pytest.mark.parametrize("q, n, k", DUAL_CASES)
def test_shorten_matches_the_nullspace_reference(q, n, k):
    F, _, C = case_code(q, n, k, seed=q * n + k + 1)
    rng = random.Random(n)
    for T in ([], [0], rng.sample(range(n), n // 3),
              rng.sample(range(n), n - 1), range(n)):
        S = shorten(C, T)
        assert S.n == n - len(set(T))
        assert ([list(r) for r in S.gen], list(S.pivots)) == ref.shorten(
            F, C.gen, n, T), T


def codewords(C):
    return {ref.encode(C, list(m)) for m in product(range(C.field.q), repeat=C.k)}


def test_shorten_by_brute_force():
    """The shortened code is the set of codewords that vanish on T, with T
    removed, on codes small enough to list."""
    rng = random.Random(41)
    for q in (2, 3, 4, 5):
        for _ in range(6):
            n = rng.randint(2, 8)
            k = rng.randint(0, min(n, 4))
            F, _, C = case_code(q, n, k, seed=rng.randrange(1 << 30))
            T = rng.sample(range(n), rng.randint(1, n))
            keep = [j for j in range(n) if j not in T]
            want = {tuple(c[j] for j in keep) for c in codewords(C)
                    if all(c[t] == 0 for t in T)}
            assert codewords(shorten(C, T)) == want, (q, n, k, T)
