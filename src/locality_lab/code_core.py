"""Linear codes over a FieldSpec: canonical generator matrices, duality,
derived codes, weight distributions, and low-weight codeword search.

A LinearCode stores its generator matrix in reduced row echelon form, so
set-equality of codes is entrywise equality of matrices; only _build, which
reduces its rows, and dual make one.  dual reads the dual's reduced form
off the nullspace of the generator with its columns reversed, and caches
each code as the other's dual; a code given by a parity check is the dual
of the code the check generates, and a shortening is the dual of the
dual's puncturing.

One planner, plan, chooses the route to each of its four goals and prices
it in the units the caps count.  Work beyond a cap raises the cap's error
before it starts; nothing is silently truncated.

Each job has one numpy kernel, and every stack handed to one holds at most
_BLOCK_CELLS entries.  _projective_span enumerates a span, one vector per
projective class: the (q^k - 1)/(q - 1) classes of a code, each holding
q - 1 words of one weight, give its weight distribution (or the dual's,
followed by the MacWilliams transform), and its words of weight w when it
is small.  minimum_distance reads d off a distribution or asks
exact_weight_words for the words of each weight upward.  _eliminate
eliminates a stack of matrices.  The support scan walks the w-subsets S of
the columns of the parity check H depth first by their prefixes, each
holding the residuals of the columns modulo the span of its own, so adding
a column is one rank-1 update and a subset is dependent when the residual
of its last column is zero or its prefix was; a Gauss-Jordan pass over the
stacked H[:, S] of the dependent ones reads a basis of each dependency
space, whose classes with no zero entry on S are the words.  The syndrome
join finds the words of one weight without testing every w-subset: it keys
the parity-check syndromes of the first and the last halves of each support
and joins equal keys by one sort.  Both scans take the parity check and
list only the words whose least support member is below a count u, a prefix
of their subsets.  rref eliminates a single matrix by a scalar loop of
list lookups through the field's exp/log tables, and hands it to
_eliminate from the measured crossover _RREF_NUMPY_MIN on.

The words of one weight w are one Words: two (m, w) arrays, one row per
projective class, the support of each word ascending and its values there
scaled to lead with 1, sorted by support, then by word.  No route writes a
word out in n entries.  in_dual, the one membership check, tests words on
the side with less work: the code's generator columns on each support, or
the stored form of the dual.

The kernels do their field arithmetic through O(q) int32 arrays: products
as exp[log a + log b], sums as xor in characteristic 2 and through Zech
logarithms otherwise, with a sentinel log of 0 so that zero operands need
no special case.  They are built for every field up to gf.DLOG_CAP
elements; larger fields are refused with FieldTooLarge, a cap.  The scalar
references the kernels are tested against live with the tests.

In characteristic 2 the distribution walks its classes packed: a vector
over GF(2^e) is stored as e bit planes, bit b of the encodings of 64
coordinates in each uint64 lane, with zero pad bits past n.  Addition is
xor on the encodings (for tower fields too, see gf), so a sum is an xor of
lanes, and a weight is the popcount of the OR of the planes.  Odd
characteristic and the word routes keep one int32 entry per coordinate,
since the words need field values on their supports.

_projective_span tabulates the span of a basis's last rows once, in at
most half a block: the coefficient-1 slice of each row's step is the
classes that lead at that row.  Every other class is a class of the
leading rows, which the walker takes from itself, added to the whole
table, several of them to a block in one reused buffer.  Its blocks are
coordinate-major, (m, cells, t), with the class axis innermost, so the
xor and popcount of a block each run along long rows; the consumers
reduce along the coordinate axis and transpose only the vectors they
keep.  The distribution holds the weights of its blocks until a quarter
block of them has piled up and counts them two to a np.bincount index,
in a grid of weight pairs whose row and column sums are the counts.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product, takewhile
from typing import NamedTuple

import numpy as np

from .errors import (
    BadCoordinate,
    CapExceeded,
    EnumerationTooLarge,
    FieldTooLarge,
    InconsistentInput,
    LocalityInvariantBroken,
    NonIntegerOutput,
    NotPrime,
    RaggedRows,
    SearchTooLarge,
    UnusablePath,
    WrongFieldForm,
    ZeroCode,
)
from .gf import DLOG_CAP, FIELD_CAP, FieldSpec, factorize, field_new

CAPS_ENV_VAR = "LOCALITY_LAB_CAPS"
_CONSTRUCT_TOKEN = object()  # LinearCode's: passed only by _build and dual


@dataclass(frozen=True)
class Caps:
    """Resource ceilings: enumeration counts the q^k words walked; search
    counts, one weight w at a time, the C(n, w) * w * (n - k) cost proxy of
    a rank scan of the parity check, n per class of an enumeration of the
    words, or the field operations of a syndrome join (see plan)."""

    enumeration: int = 1 << 26
    search: int = 1 << 24

    @staticmethod
    def from_env(environ=None) -> "Caps":
        env = os.environ if environ is None else environ
        raw = env.get(CAPS_ENV_VAR)
        if not raw:
            return Caps()
        values = {}
        for part in raw.split(","):
            name, _, expr = part.partition(":")
            name = name.strip()
            if name not in ("enum", "search") or not expr:
                raise InconsistentInput(f"bad {CAPS_ENV_VAR} entry: {part!r}")
            if name in values:
                raise InconsistentInput(
                    f"bad {CAPS_ENV_VAR} entry {part!r}: {name} given twice")
            values[name] = _parse_cap(part, expr)
        return Caps(enumeration=values.get("enum", Caps.enumeration),
                    search=values.get("search", Caps.search))


_MAX_CAP_EXPONENT = 64


def _parse_cap(part: str, expr: str) -> int:
    """A cap written as N or B^E: positive integers, E at most 64."""
    base, hat, exponent = expr.partition("^")
    try:
        base, exponent = int(base), (int(exponent) if hat else 1)
    except ValueError:
        raise InconsistentInput(
            f"bad {CAPS_ENV_VAR} entry {part!r}: not an integer") from None
    if not 0 <= exponent <= _MAX_CAP_EXPONENT:
        raise InconsistentInput(
            f"bad {CAPS_ENV_VAR} entry {part!r}: exponent outside "
            f"[0, {_MAX_CAP_EXPONENT}]")
    if base <= 0:
        raise InconsistentInput(
            f"bad {CAPS_ENV_VAR} entry {part!r}: caps must be positive")
    return base ** exponent


def _caps(caps: Caps | None) -> Caps:
    return caps if caps is not None else Caps.from_env()


# ---------------------------------------------------------------------------
# the planner

class Plan(NamedTuple):
    route: str
    cost: int  # in the units of the cap the route is held to


def plan(n: int, k: int, q: int, goal: str, caps: Caps, w: int = 0) -> Plan:
    """The route an [n, k] code over GF(q) takes to a goal, and its price;
    raises the exceeded cap's error when no route fits.

    "distribution", "distance": "enumerate" the q^k words or the q^(n-k)
    of the "dual" plus MacWilliams, the smaller side first, the code's own
    on ties; the transform is no search, so only the enum cap holds either
    side.  A distance that fits neither side will "scan" weight after
    weight, each priced as its "words"; the weights up to w are priced now.
    "words" at weight w: rank the w-subsets of the columns of the
    "parity-check" matrix, C(n, w) * w per row (its prefix walk updates
    about price * n / (n - w + 1) residual entries), or "enumerate" the
    (q^k - 1)/(q - 1) projective classes, n each, or "join" the syndromes
    of the halves of size a = ceil(w/2) and b = floor(w/2), the field
    operations that build them, (C(n, a) (q-1)^(a-1) a + C(n, b)
    (q-1)^(b-1) b) per parity-check row; each only when strictly cheaper
    than the routes before it.
    "locality" with locality w - 1 claimed: the dual's "distance" up to w,
    then its "words" at each weight up to w, in that order; the costliest
    of these plans."""
    goals = ("distribution", "distance", "words", "locality")
    if goal not in goals:
        raise InconsistentInput(f"unknown plan goal {goal!r}; choose from "
                                f"{', '.join(goals)}")
    if w < 0:
        raise InconsistentInput(f"weight {w} is negative")
    if goal == "locality":
        return max([plan(n, n - k, q, "distance", caps, w)]
                   + [plan(n, n - k, q, "words", caps, v)
                      for v in range(1, w + 1)], key=lambda p: p.cost)
    if goal in ("distribution", "distance"):
        own, other = q ** k, q ** (n - k)
        if own <= min(other, caps.enumeration):
            return Plan("enumerate", own)
        if other <= caps.enumeration:
            return Plan("dual", other)
        if goal == "distribution":
            # written as powers: q^(n-k) may have more digits than str
            # converts
            raise EnumerationTooLarge(
                f"neither side fits the enum cap {caps.enumeration}: "
                f"q^k = {q}^{k}, q^(n-k) = {q}^{n - k}")
        return Plan("scan", max((plan(n, k, q, "words", caps, v).cost
                                 for v in range(1, w + 1)), default=0))
    rows = max(1, n - k)
    halves = sum(math.comb(n, h) * (q - 1) ** max(0, h - 1) * h
                 for h in ((w + 1) // 2, w // 2))
    best = min([Plan("parity-check", math.comb(n, w) * max(1, w) * rows),
                Plan("enumerate", (q ** k - 1) // (q - 1) * n),
                Plan("join", halves * rows)], key=lambda p: p.cost)
    if best.cost > caps.search:
        raise SearchTooLarge(f"weight-{w} words scan cost {best.cost} "
                             f"exceeds cap {caps.search}")
    return best


# ---------------------------------------------------------------------------
# matrices

# a full elimination pass costs about rows * cols * min(rows, cols) field
# operations.  On dense random matrices of k rows and k, 2k or 4k columns
# (k = 8 to 64, min of 7 runs of each route, 2 cores, Python 3.11), the
# numpy kernel on a stack of one overtakes the scalar loop's list lookups
# from about 30,000 over GF(2) and 32,000 over GF(3), 16,000-20,000 over
# GF(9) and 10,000-13,000 over GF(16) and GF(32).  The cut sits at the
# binary and ternary crossover: over GF(9) to GF(32) the loop is up to 1.7
# times slower just below it, but no larger field eliminates a matrix
# above 3,042 in the benchmark workloads, and their largest matrix, 30,976
# over GF(2), stays on the loop
_RREF_NUMPY_MIN = 1 << 15

# every stack handed to the numpy kernels holds at most this many entries
# (1 MB), or one matrix or vector per basis when those alone are larger
_BLOCK_CELLS = 1 << 18


def _lanes(w: int) -> int:
    """uint64 lanes holding w coordinates, one bit each."""
    return -(-w // 64)


def _pack_planes(V: np.ndarray, bits: int) -> np.ndarray:
    """The entries of V (shape (..., w), encodings below 2^bits) as bit
    planes: shape (..., bits * _lanes(w)) uint64, where lane b * lanes + l
    holds bit b of coordinates 64 l to 64 l + 63, and the pad bits past w
    are zero.  In characteristic 2 the field sum of two vectors is the xor
    of their planes, and the weight is the popcount of the planes' OR."""
    w = V.shape[-1]
    planes = np.zeros(V.shape[:-1] + (bits, 64 * _lanes(w)), dtype=np.uint8)
    shifts = np.arange(bits, dtype=V.dtype)[:, None]
    planes[..., :w] = (V[..., None, :] >> shifts) & 1
    packed = np.packbits(planes, axis=-1, bitorder="little").view(np.uint64)
    return packed.reshape(V.shape[:-1] + (bits * _lanes(w),))


_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)


def _popcount_by_table(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 entry, through a table of byte popcounts."""
    by_byte = _BYTE_POPCOUNT[np.ascontiguousarray(x).view(np.uint8)]
    return by_byte.reshape(x.shape + (8,)).sum(axis=-1, dtype=np.uint8)


# np.bitwise_count is numpy 2.0+; pyproject.toml still admits numpy 1.24
_popcount = getattr(np, "bitwise_count", _popcount_by_table)


def _packed_weights(V: np.ndarray, bits: int) -> np.ndarray:
    """Hamming weight of each packed vector V[:, i] (shape
    (bits * lanes, t)), pad bits included, in a fresh array: uint8 for one
    lane, uint16 for several (uint32 from 1,024 lanes, whose 65,536 bits
    overflow it)."""
    planes = V.reshape(bits, -1, V.shape[1])
    occupied = planes[0]
    for b in range(1, bits):
        occupied = occupied | planes[b]
    ones = _popcount(occupied)
    if len(ones) == 1:
        return ones[0]
    dtype = np.uint16 if len(ones) < 1024 else np.uint32
    return ones.sum(axis=0, dtype=dtype)


class _FieldArrays(NamedTuple):
    """O(q) int32 arrays for entrywise field arithmetic in numpy (_vmul,
    _vadd).  exp[i] = g^(i mod (q-1)) for i < 2(q-1) and 0 beyond; log[0]
    is the sentinel zero = 2(q-1), whose sums land in that zeroed tail.
    zech, None in characteristic 2, holds log(1 + g^d) at d + zero.
    inv[0] is 0."""

    exp: np.ndarray
    log: np.ndarray
    zech: np.ndarray | None
    neg: np.ndarray
    inv: np.ndarray
    zero: int


@lru_cache(maxsize=None)
def _numpy_field_tables(field: FieldSpec) -> _FieldArrays:
    """The _FieldArrays of a field, built once per field; fields above
    DLOG_CAP are refused with FieldTooLarge."""
    q = field.q
    if q > DLOG_CAP:
        raise FieldTooLarge(
            f"numpy field arrays for q = {q} exceed the cap {DLOG_CAP}")
    zero = 2 * (q - 1)
    powers = [field.gen_pow(i) for i in range(q - 1)]
    exp = np.zeros(2 * zero + 1, dtype=np.int32)
    exp[:zero] = powers + powers
    log = np.full(q, zero, dtype=np.int32)
    log[powers] = np.arange(q - 1, dtype=np.int32)
    zech = None
    if field.p != 2:
        # d = log[b] - log[a] has |d| < q - 1 when a, b are nonzero.  Only
        # a = 0: d <= -q, and zech = d gives exp[log[b]].  Only b = 0:
        # d >= q, and zech = 0 gives exp[log[a]].  Both 0, or b = -a: the
        # index lands in the zero tail of exp.
        d = np.arange(-zero, zero + 1, dtype=np.int32)
        zech = np.where(d <= -q, d, 0).astype(np.int32)
        inner = np.abs(d) < q - 1
        one_plus = log[[field.add(1, g) for g in powers]]
        zech[inner] = one_plus[d[inner] % (q - 1)]
    neg = np.array([field.neg(x) for x in range(q)], dtype=np.int32)
    inv = np.array([0] + [field.inv(x) for x in range(1, q)], dtype=np.int32)
    return _FieldArrays(exp, log, zech, neg, inv, zero)


def _vmul(t: _FieldArrays, a, b) -> np.ndarray:
    """Entrywise field product of broadcastable encodings."""
    return t.exp[t.log[a] + t.log[b]]


def _vadd(t: _FieldArrays, a, b) -> np.ndarray:
    """Entrywise field sum of broadcastable encodings."""
    if t.zech is None:
        return a ^ b
    log_a = t.log[a]
    return t.exp[log_a + t.zech[t.log[b] - log_a + t.zero]]


def _eliminate(tables, A: np.ndarray):
    """Gauss-Jordan elimination of every matrix in the stack A of shape
    (B, rows, cols) at once (A may be overwritten).  Returns the eliminated
    rows, flattened so that row b * rows + i is row i of A[b], and the
    (B, cols) array holding the flat index of the pivot row of each column,
    -1 where a column has no pivot.  No row moves: the pivot row of a column
    is the first free row of its matrix with a nonzero there, and is marked
    not free.  Each pivot row is scaled to lead with 1 and clears its column
    from every other row, so a pivot row read at the non-pivot columns is
    the row of the reduced echelon form there (entries at the pivot columns
    are left stale)."""
    nb, nrows, ncols = A.shape
    pivot = np.full((nb, ncols), -1, dtype=np.intp)
    flat = A.reshape(nb * nrows, ncols)
    if flat.size == 0:
        return flat, pivot
    free = np.ones(nb * nrows, dtype=bool)  # rows not yet used as a pivot
    left = nb * nrows  # free rows in the whole stack
    for c in range(ncols):
        nonzero = flat[:, c] != 0
        by_matrix = (nonzero & free).reshape(nb, nrows)
        hit = np.nonzero(by_matrix.any(axis=1))[0]
        if hit.size == 0:
            continue
        prow = hit * nrows + by_matrix[hit].argmax(axis=1)
        free[prow] = False
        left -= hit.size
        pivot[hit, c] = prow
        flat[prow, c:] = _vmul(tables, tables.inv[flat[prow, c]][:, None],
                               flat[prow, c:])
        nonzero[prow] = False
        rows = np.nonzero(nonzero)[0]
        rows = rows[pivot[rows // nrows, c] >= 0]  # matrices with a pivot
        if rows.size:
            # columns up to c are done; only later columns are updated
            slot = np.searchsorted(hit, rows // nrows)  # the matrix's pivot
            f = tables.neg[flat[rows, c]]
            P = flat[prow, c + 1:]
            if hit.size > 1:  # else one pivot row, broadcast to every row
                P = P[slot]
            flat[rows, c + 1:] = _vadd(tables, flat[rows, c + 1:],
                                       _vmul(tables, f[:, None], P))
        if not left:
            break  # every row holds a pivot: no later column has one
    return flat, pivot


def _batch_kernel(tables, A: np.ndarray):
    """Kernel bases {v : M v = 0} of every matrix M in the stack A of shape
    (B, rows, cols), read off one Gauss-Jordan pass over the stack (A may be
    overwritten).  Yields (nu, idx, basis) per nullity nu > 0: the matrices
    A[idx] have nullity nu and basis[i] is the (nu, cols) basis of the
    kernel of A[idx[i]], the same basis as nullspace returns."""
    nb, _, ncols = A.shape
    flat, pivot = _eliminate(tables, A)
    is_pivot = pivot >= 0
    nullity = ncols - np.count_nonzero(is_pivot, axis=1)
    for nu in np.unique(nullity).tolist():
        if nu == 0:
            continue
        idx = np.nonzero(nullity == nu)[0]
        m = len(idx)
        at = np.arange(m)[:, None, None]
        free = np.nonzero(~is_pivot[idx])[1].reshape(m, 1, nu)
        basis = np.zeros((m, nu, ncols), dtype=np.int32)
        basis[at, np.arange(nu)[None, :, None], free.transpose(0, 2, 1)] = 1
        if nu < ncols:
            # basis vector t: 1 at its free column f_t, -red[i][f_t] at the
            # column of pivot i
            cols = np.nonzero(is_pivot[idx])[1].reshape(m, ncols - nu, 1)
            red = flat[pivot[idx[:, None, None], cols], free]  # (m, rank, nu)
            basis[at, np.arange(nu)[None, None, :], cols] = tables.neg[red]
        yield nu, idx, basis


def _projective_span(tables: _FieldArrays, B: np.ndarray,
                     packed: bool = False):
    """One vector per projective class of the span of each basis B[i], for
    a stack B of shape (m, nu, w): the combinations with coefficients
    (0,...,0,1,c_{lead+1},...,c_{nu-1}), for every lead.  Yields blocks V
    of shape (m, cells, t), coordinate-major, so that V[i, :, j] is a
    vector in the span of B[i] and the class axis is innermost, of at most
    max(m * vector bytes, _BLOCK_CELLS * 4) bytes.  A dependent basis
    repeats classes and yields zeros.

    Table: the span of the last r rows is tabulated once, from the last
    row up, in at most half of _BLOCK_CELLS * 4 bytes.  Each step adds the
    multiples of one row to the span so far, and its coefficient-1 slice
    holds exactly the classes that lead at that row, so those slices are
    yielded as they are made.  When the whole span fits (r = nu), the top
    row's step makes only that slice.  Leading combinations: the classes
    leading above the table are the projective classes of the first
    nu - r rows, walked by this same function, each added to the whole
    table; a block holds as many of them as fit in a quarter of the budget
    (at least one), written into one buffer that the next block reuses, so
    a consumer must be done with a block before it asks for the next.
    When not even the q multiples of one row fit half the budget, the last
    row's coefficient is looped instead, one block per coefficient and
    leading block.

    A vector is w int32 entries (cells = w), or, packed (characteristic 2
    only), the _pack_planes lanes of its entries, each multiple packed as
    it is made; either way _vadd, an xor in characteristic 2, is the sum."""
    q = len(tables.inv)
    m, _, w = B.shape
    bits = (q - 1).bit_length()
    cells = bits * _lanes(w) if packed else w
    dtype = np.dtype(np.uint64 if packed else np.int32)
    # vectors per basis in one block
    room = _BLOCK_CELLS * 4 // max(1, m * cells * dtype.itemsize)

    def scaled(j, lo, hi):  # (m, cells, hi - lo): c * B[:, j], lo <= c < hi
        V = B[:, j, None] if (lo, hi) == (1, 2) else _vmul(
            tables, np.arange(lo, hi, dtype=np.int32)[:, None], B[:, j, None])
        return (_pack_planes(V, bits) if packed else V).transpose(0, 2, 1)

    def add(a, b, out):
        """out = a + b, the xor written in place."""
        if tables.zech is None:
            return np.bitwise_xor(a, b, out=out)
        out[...] = _vadd(tables, a, b)
        return out

    def walk(nu):  # the classes of the span of the first nu rows
        if nu == 0:
            return
        yield scaled(nu - 1, 1, 2)  # the classes leading at row nu - 1
        if nu == 1:
            return
        # the last r rows tabulated: q^r vectors per basis in at most half
        # of room, or 2 q^(nu - 1) when r = nu
        r = 0
        while r < nu and q ** r * (q if r + 1 < nu else 2) <= room // 2:
            r += 1
        if r == 0:
            for L in walk(nu - 1):
                for c in range(q):
                    yield _vadd(tables, L, scaled(nu - 1, c, c + 1))
            return
        top = nu - r
        T = np.empty((m, cells, q ** (r - 1) * (q if top else 2)), dtype)
        T[:, :, 0] = 0
        T[:, :, 1:q] = scaled(nu - 1, 1, q)
        size = q
        for j in range(nu - 2, top - 1, -1):
            c = q if j else 2  # the top row: its leading classes only
            add(T[:, :, None, :size], scaled(j, 1, c)[..., None],
                T[:, :, size:c * size].reshape(m, cells, c - 1, size))
            yield T[:, :, size:2 * size]  # the classes leading at row j
            size *= q
        if top == 0:
            return
        # leading combinations per block: a quarter of the budget beside
        # the table, or one when the table alone is larger
        batch = max(1, room // 4 // size)
        buffer = np.empty((m, cells, batch, size), dtype)
        for L in walk(top):
            for i in range(0, L.shape[2], batch):
                lead = L[:, :, i:i + batch, None]
                V = add(lead, T[:, :, None], buffer[:, :, :lead.shape[2]])
                yield V.reshape(m, cells, -1)

    yield from walk(B.shape[1])


def _lead_with_one(tables: _FieldArrays, V: np.ndarray) -> np.ndarray:
    """The rows of V, which hold no zero, each scaled to lead with 1."""
    return _vmul(tables, tables.inv[V[:, :1]], V)


class _RowOps(NamedTuple):
    """The row operations of rref's scalar loop over one field: scale(row,
    a) is a * row, logs(row) the pivot row as clear reads it, clear(row, f,
    logs(pivot)) is row - f * pivot, and neg(a) is -a."""

    scale: Callable[[list[int], int], list[int]]
    logs: Callable[[list[int]], list[int]]
    clear: Callable[[list[int], int, list[int]], list[int]]
    neg: Callable[[int], int]


@lru_cache(maxsize=None)
def _row_ops(field: FieldSpec) -> _RowOps:
    """The _RowOps of a field, built once per field.  Up to DLOG_CAP they
    read the _FieldArrays as lists, with no method call per entry: a
    product is exp[log a + log b], the sentinel log of 0 landing in exp's
    zero tail, and a sum is an xor in characteristic 2 and a lookup in the
    field's q x q addition table otherwise.  Above DLOG_CAP, and for the
    sums of odd fields above gf.ADD_TABLE_CAP, they call the FieldSpec
    methods."""
    if field.q > DLOG_CAP:
        mul, sub = field.mul, field.sub
        return _RowOps(
            lambda row, a: [mul(a, x) for x in row],
            lambda row: row,
            lambda row, f, P: [sub(x, mul(f, y)) for x, y in zip(row, P)],
            field.neg)
    t = _numpy_field_tables(field)
    exp, log, neg = t.exp.tolist(), t.log.tolist(), t.neg.tolist()

    def scale(row, a):
        la = log[a]
        return [exp[la + log[x]] for x in row]

    def logs(row):
        return [log[y] for y in row]

    if field.p == 2:
        def clear(row, f, R):
            lf = log[f]
            return [x ^ exp[lf + ly] for x, ly in zip(row, R)]
    elif field._add is not None:
        add = field._add

        def clear(row, f, R):
            lf = log[neg[f]]
            return [add[x][exp[lf + ly]] for x, ly in zip(row, R)]
    else:
        add = field.add

        def clear(row, f, R):
            lf = log[neg[f]]
            return [add(x, exp[lf + ly]) for x, ly in zip(row, R)]

    return _RowOps(scale, logs, clear, neg.__getitem__)


def rref(field: FieldSpec, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place semantics; returns (rows, pivot columns).
    Zero rows are dropped.  Below _RREF_NUMPY_MIN a scalar Gauss-Jordan
    loop over Python lists, its row operations the field's _RowOps; from
    there on one _eliminate of a stack of one."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    if (len(rows) * ncols * min(len(rows), ncols) >= _RREF_NUMPY_MIN
            and field.q <= DLOG_CAP):
        flat, pivot = _eliminate(_numpy_field_tables(field),
                                 np.array(rows, dtype=np.int32)[None])
        pivots = np.nonzero(pivot[0] >= 0)[0]
        red = flat[pivot[0, pivots]]  # the pivot rows, in column order
        red[:, pivots] = np.eye(len(pivots), dtype=np.int32)  # stale entries
        return red.tolist(), pivots.tolist()
    ops = _row_ops(field)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != 1:
            rows[r] = ops.scale(rows[r], field.inv(rows[r][c]))
        R = ops.logs(rows[r])
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = ops.clear(rows[i], rows[i][c], R)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(field: FieldSpec, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows)
    neg = _row_ops(field).neg
    free = sorted(set(range(ncols)).difference(pivots))
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(red[i][f])
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# the code object

class LinearCode:
    """A [n, k] code over a FieldSpec, held by its generator gen in reduced
    row echelon form with pivot columns pivots; made only in this module."""

    __slots__ = ("field", "n", "k", "gen", "pivots", "label", "_gen_array",
                 "_dual", "_wd", "_mind")

    def __init__(self, field: FieldSpec, n: int, gen: tuple[tuple[int, ...], ...],
                 pivots: tuple[int, ...], label: str | None = None,
                 _token: object = None):
        if _token is not _CONSTRUCT_TOKEN:
            raise TypeError("use from_generator(), from_parity_check() or dual()")
        self.field = field
        self.n = n
        self.k = len(gen)
        self.gen = gen
        self.pivots = pivots
        self.label = label
        self._gen_array: np.ndarray | None = None
        self._dual: LinearCode | None = None
        self._wd = None
        self._mind: int | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode) and self.field == other.field
                and self.n == other.n and self.gen == other.gen)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.gen))

    def __repr__(self) -> str:
        tag = self.label or f"[{self.n},{self.k}] over GF({self.field.q})"
        return f"<LinearCode {tag}>"

    def q(self) -> int:
        return self.field.q

    @property
    def gen_array(self) -> np.ndarray:
        """The generator as an int32 array, made on first use, read-only."""
        if self._gen_array is None:
            G = np.array(self.gen, dtype=np.int32).reshape(self.k, self.n)
            G.flags.writeable = False
            self._gen_array = G
        return self._gen_array

    def encode(self, message: list[int]) -> tuple[int, ...]:
        F = self.field
        if len(message) != self.k:
            raise RaggedRows(f"message length {len(message)} != k={self.k}")
        out = [0] * self.n
        for u, row in zip(message, self.gen):
            if u:
                out = [F.add(o, F.mul(u, g)) for o, g in zip(out, row)]
        return tuple(out)


def _build(field: FieldSpec, n: int, rows: list[list[int]],
           label: str | None) -> LinearCode:
    red, pivots = rref(field, rows)
    return LinearCode(field, n, tuple(tuple(r) for r in red), tuple(pivots),
                      label, _CONSTRUCT_TOKEN)


def _checked_rows(field: FieldSpec, rows, who: str) -> list[list[int]]:
    """The rows as lists; refused if there are none, if they are ragged or
    if an entry is no element of the field."""
    rows = [list(r) for r in rows]
    if not rows:
        raise RaggedRows(f"{who} needs at least one row")
    for r in rows:
        if len(r) != len(rows[0]):
            raise RaggedRows("rows of unequal length")
        for x in r:
            field.check(x)
    return rows


def from_generator(field: FieldSpec, rows, label: str | None = None) -> LinearCode:
    rows = _checked_rows(field, rows, "from_generator")
    return _build(field, len(rows[0]), rows, label)


def from_parity_check(field: FieldSpec, rows, label: str | None = None) -> LinearCode:
    """The code with the given parity-check rows: the dual of the code
    they generate, which stays cached as the other's dual."""
    rows = _checked_rows(field, rows, "from_parity_check")
    C = dual(_build(field, len(rows[0]), rows, None))
    if label:
        C.label, C._dual.label = label, f"dual({label})"
    return C


def zero_code(field: FieldSpec, n: int, label: str | None = None) -> LinearCode:
    return _build(field, n, [], label)


# the largest dual generator dual writes out, in entries: its rows are
# Python tuples, so a [8191, 13] code's dual, 66,985,998 entries, peaks
# near 1 GB, and the next Hamming code's would need about 4 GB
_DUAL_CELLS = 1 << 26


def dual(C: LinearCode) -> LinearCode:
    """The dual code, built once and cached on both codes; one whose
    generator would hold more than _DUAL_CELLS entries is refused first.

    The nullspace of the generator with its columns reversed, read back in
    reverse, is already reduced: the reversed reduction has zeros left of
    each pivot, so each kernel vector, reversed, leads with its 1 at a
    column where no other row is nonzero."""
    if C._dual is not None:
        return C._dual
    F, n = C.field, C.n
    if (n - C.k) * n > _DUAL_CELLS:
        raise CapExceeded(f"dual generator {n - C.k} x {n} exceeds "
                          f"{_DUAL_CELLS} entries")
    kernel = nullspace(F, [row[::-1] for row in C.gen], n)
    rows = tuple(tuple(v[::-1]) for v in reversed(kernel))
    D = LinearCode(F, n, rows, tuple(row.index(1) for row in rows),
                   f"dual({C.label})" if C.label else None, _CONSTRUCT_TOKEN)
    C._dual = D
    D._dual = C
    return D


def _check_coords(C: LinearCode, T) -> list[int]:
    T = sorted(set(T))
    for t in T:
        if not isinstance(t, int) or not 0 <= t < C.n:
            raise BadCoordinate(f"coordinate {t} outside [0, {C.n})")
    return T


def puncture(C: LinearCode, T) -> LinearCode:
    T = _check_coords(C, T)
    if not T:
        return C
    keep = [j for j in range(C.n) if j not in set(T)]
    rows = [[r[j] for j in keep] for r in C.gen]
    return _build(C.field, len(keep), rows, None)


def shorten(C: LinearCode, T) -> LinearCode:
    """The words of C that vanish on T, with T removed: the dual of the
    dual punctured on T."""
    if not _check_coords(C, T):
        return C
    return dual(puncture(dual(C), T))


def extend(C: LinearCode) -> LinearCode:
    F = C.field
    rows = []
    for r in C.gen:
        s = 0
        for x in r:
            s = F.add(s, x)
        rows.append(list(r) + [F.neg(s)])
    out = _build(F, C.n + 1, rows, None)
    if C.label:
        out.label = f"extend({C.label})"
    return out


@dataclass(frozen=True, eq=False)
class Words:
    """Words of one weight w, one per row: row i of support, shape (m, w),
    holds the coordinates of word i in ascending order, and row i of values
    its entries there.  The words of exact_weight_words lead with 1 and
    hold no zero value; in_dual takes any."""

    support: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.support)


def in_dual(C: LinearCode, words: Words) -> bool:
    """True iff every word of words, zero off its support, lies in
    dual(C); a value on a support may be zero.  For w = support.shape[1],
    the words are checked on the side with less work: the syndrome, the
    sum of v_t G[:, s_t] over the support for C's generator G, at w * k
    products per word, or x = x[P] H, for the stored reduced generator H
    of dual(C) and its pivots P, at (n - k) * n, each block of words
    scattered into n entries per word."""
    n, k, w = C.n, C.k, words.support.shape[1]
    tables = _numpy_field_tables(C.field)
    syndrome = w * k <= (n - k) * n
    step = max(1, _BLOCK_CELLS // max(1, k if syndrome else n))
    for lo in range(0, len(words), step):
        S, V = words.support[lo:lo + step], words.values[lo:lo + step]
        if syndrome:
            acc = np.zeros((len(S), k), dtype=np.int32)
            for t in range(w):  # C.gen_array.T is (n, k)
                acc = _vadd(tables, acc, _vmul(tables, V[:, t, None],
                                               C.gen_array.T[S[:, t]]))
            if acc.any():
                return False
            continue
        D = dual(C)
        X = np.zeros((len(S), n), dtype=np.int32)
        X[np.arange(len(S))[:, None], S] = V
        acc = np.zeros_like(X)
        for t, j in enumerate(D.pivots):
            acc = _vadd(tables, acc, _vmul(tables, X[:, j, None],
                                           D.gen_array[None, t]))
        if (acc != X).any():
            return False
    return True


def is_cyclic(C: LinearCode) -> bool:
    """True iff the cyclic shift maps C onto itself: the shifted generator
    rows lie in C, the dual of dual(C)."""
    G = C.gen_array
    return in_dual(dual(C), Words(np.broadcast_to(np.arange(C.n), G.shape),
                                  np.roll(G, 1, axis=1)))


# ---------------------------------------------------------------------------
# weight distributions

@dataclass(frozen=True)
class WeightDistribution:
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise InconsistentInput("negative weight count")

    def total(self) -> int:
        return sum(self.counts)

    def min_distance(self) -> int | None:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        return None

    def __getitem__(self, i: int) -> int:
        return self.counts[i]


def _enumerated_distribution(C: LinearCode) -> WeightDistribution:
    """The distribution of C from its (q^k - 1)/(q - 1) projective classes,
    walked in numpy blocks: the q - 1 nonzero multiples of a class share
    its weight.  In characteristic 2 the classes are walked packed, 64
    coordinates per lane; one AND per block tests the pad bits past n in
    each plane's last lane, and a pad bit set by mistake raises.

    The weights are counted in pairs: they are held until at least
    _BLOCK_CELLS // 4 have piled up, and the first half of them is paired
    with the second as a * base + b, in uint16, so one np.bincount counts
    two weights per index into a base x base grid.  Every weight is below
    base, pad bits included, and the class counts are the grid's row sums
    plus its column sums, less the phantom 0 that pads an odd chunk.  When
    base^2 exceeds 2^16, or the span holds fewer classes than one chunk,
    whose grid and fold would cost more than the pairing saves, the
    weights are counted one per index."""
    n, q = C.n, C.field.q
    tables = _numpy_field_tables(C.field)
    packed = C.field.p == 2
    bits = (q - 1).bit_length()
    base = (64 * _lanes(n) if packed else n) + 1
    pairs = base * base <= 1 << 16 and \
        (q ** C.k - 1) // (q - 1) >= _BLOCK_CELLS // 4
    counted = np.zeros(base * base if pairs else base, dtype=np.int64)
    pad = np.uint64((1 << 64) - (1 << n % 64)) if packed and n % 64 else 0
    held: list[np.ndarray] = []
    phantoms = 0

    def count():
        nonlocal phantoms
        weights = held[0] if len(held) == 1 else np.concatenate(held)
        held.clear()
        index = weights
        if pairs:
            half, odd = divmod(len(weights), 2)
            index = np.multiply(weights[:half + odd], base, dtype=np.uint16,
                                casting="unsafe")
            np.add(index[:half], weights[half + odd:], out=index[:half],
                   casting="unsafe")
            phantoms += odd
        tally = np.bincount(index)
        counted[:len(tally)] += tally

    size = 0
    for V in _projective_span(tables, C.gen_array[None], packed):
        if pad and np.bitwise_and(V[0][_lanes(n) - 1::_lanes(n)], pad).any():
            raise LocalityInvariantBroken(
                "enumeration kernel miscounted: a pad bit is set")
        # fresh arrays, safe from the walker's reuse of its buffer
        held.append(_packed_weights(V[0], bits) if packed else
                    np.count_nonzero(V[0], axis=0))
        size += len(held[-1])
        if size >= _BLOCK_CELLS // 4:
            count()
            size = 0
    if held:
        count()
    classes = counted
    if pairs:
        grid = counted.reshape(base, base)
        classes = grid.sum(axis=1) + grid.sum(axis=0)
        classes[0] -= phantoms
    # no weight lies above n: the pad bits are clean
    counts = [x * (q - 1) for x in classes[:n + 1].tolist()]
    counts[0] += 1
    if counts[0] != 1 or sum(counts) != q ** C.k:
        raise LocalityInvariantBroken("enumeration kernel miscounted")
    return WeightDistribution(tuple(counts))


def weight_distribution(C: LinearCode, caps: Caps | None = None) -> WeightDistribution:
    """The weight distribution of C, from the side plan chooses: the words
    of C, or those of its dual followed by the MacWilliams transform."""
    if C._wd is None:
        n, k, q = C.n, C.k, C.field.q
        if plan(n, k, q, "distribution", _caps(caps)).route == "enumerate":
            C._wd = _enumerated_distribution(C)
        else:
            D = dual(C)
            if D._wd is None:
                D._wd = _enumerated_distribution(D)
                D._mind = D._wd.min_distance()
            C._wd = macwilliams(D._wd, n, n - k, q)
        C._mind = C._wd.min_distance()
    return C._wd


def macwilliams(wd, n: int, k: int, q: int) -> WeightDistribution:
    """Weight distribution of the dual of a code with the given distribution:
    B_j = q^-k * sum_i A_i K_j(i).  For each weight i with A_i != 0 the
    Krawtchouk values K_j(i), j = 0..n, come from the exact recurrence
    (j+1) K_{j+1}(i) = ((n-j)(q-1) + j - q i) K_j(i) - (q-1)(n-j+1) K_{j-1}(i)."""
    counts = list(wd.counts) if isinstance(wd, WeightDistribution) else list(wd)
    if len(counts) != n + 1:
        raise InconsistentInput(f"expected {n + 1} counts, got {len(counts)}")
    if sum(counts) != q ** k:
        raise InconsistentInput(f"counts sum to {sum(counts)}, expected q^k = {q ** k}")
    qk = q ** k
    acc = [0] * (n + 1)
    for i, a in enumerate(counts):
        if not a:
            continue
        prev, cur = 0, 1  # K_{-1}(i), K_0(i)
        for j in range(n + 1):
            acc[j] += a * cur
            prev, cur = cur, (((n - j) * (q - 1) + j - q * i) * cur
                              - (q - 1) * (n - j + 1) * prev) // (j + 1)
    out = []
    for j, total in enumerate(acc):
        if total % qk != 0 or total < 0:
            raise NonIntegerOutput(f"transform produced {total}/{qk} at weight {j}")
        out.append(total // qk)
    return WeightDistribution(tuple(out))


# ---------------------------------------------------------------------------
# low-weight search

def distinct_supports(words: Words) -> list[tuple[int, ...]]:
    """The distinct supports of words sorted by support, in order, as
    tuples of ints: the form reports hand on to JSON."""
    S = words.support
    first = np.r_[True, (S[1:] != S[:-1]).any(axis=1)][:len(S)]
    return list(map(tuple, S[first].tolist()))


def _words_by_enumeration(C: LinearCode, w: int, tables: _FieldArrays):
    """Blocks (S, V) of the weight-w words of C, one per projective class
    of the code, each block's words read off as it is filtered; each
    leads with the 1 at the pivot of its leading generator row."""
    for V in _projective_span(tables, C.gen_array[None]):
        kept = V[0][:, np.count_nonzero(V[0], axis=0) == w].T
        S = np.nonzero(kept)[1].reshape(len(kept), w)
        yield S, np.take_along_axis(kept, S, axis=1)


def _deficient_blocks(H: np.ndarray, w: int, tables: _FieldArrays, u: int):
    """The w-subsets S of the columns of the parity check H whose least
    member is below u, in lexicographic order, that hold the support of
    some nonzero codeword: the columns of H on S are dependent.  Those
    subsets are the prefix of combinations(range(n), w) that meets the
    first u columns.  Yields (S, K, nullity) for those subsets only, a
    block at a time: S[i] is the subset; K[i] is H[:, S[i]], whose kernel
    is the dependency space on S, and nullity[i] is its dimension.

    A depth-first walk over the prefixes P of the subsets, each holding its
    nullity and the residuals R of the columns of H modulo span(H[:, P]),
    zero at the pivot rows chosen so far, so zero exactly on the span.
    Adding a column with residual v adds [v = 0] to the nullity and, below
    the last level, subtracts R[:, p] v / v[p] from R, for the first
    nonzero row p of v (nothing when v = 0, as inv[0] = 0).  Each stack of
    children's residuals, and each K, holds at most a quarter of
    _BLOCK_CELLS entries, or one parent's children when those are more."""
    r, n = H.shape
    cols = np.arange(n)

    def walk(S, R, N):  # prefixes S (m, t), residuals R (m, n, r), nullities N
        t = S.shape[1]
        last = S[:, -1] if t else np.full(1, -1)
        hi = n - w + t + 1 if t else min(u, n - w + 1)  # next column below hi
        count = np.maximum(0, hi - 1 - last)  # children per parent
        ends = np.cumsum(count)
        room = _BLOCK_CELLS // 4 // (max(1, r, w) * w if t == w - 1
                                     else max(1, n * r))
        a = 0
        while a < len(S):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - count[a] + room,
                                                side="right")))
            p, j = np.nonzero((cols > last[a:b, None]) & (cols < hi))
            p += a
            a = b
            v = R[p, j]  # the residuals of the columns added
            children = np.column_stack([S[p], j])
            nullity = N[p] + ~v.any(axis=1)
            if t == w - 1:
                hit = nullity > 0
                if hit.any():
                    D = children[hit]
                    yield D, H[:, D].transpose(1, 0, 2), nullity[hit]
                continue
            Rc = R[p]
            if r:  # a parity check with no rows leaves nothing to reduce
                lead = (v != 0).argmax(axis=1)
                v = _vmul(tables, tables.neg[v],
                          tables.inv[v[np.arange(len(v)), lead]][:, None])
                Rc = _vadd(tables, Rc, _vmul(tables, R[p, :, lead][:, :, None],
                                             v[:, None, :]))
            yield from walk(children, Rc, nullity)

    yield from walk(np.zeros((1, 0), dtype=np.intp), H.T[None],
                    np.zeros(1, dtype=np.intp))


def _words_by_kernels(H: np.ndarray, w: int, budget: int,
                      tables: _FieldArrays, u: int):
    """The support scan with table-driven numpy: the kernel bases of all
    rank-deficient subsets of a block come from one _batch_kernel pass, and
    the words on S are the classes of their spans with no zero entry.
    Yields blocks (S, V) of the words of the code with parity check H
    whose least support member is below u, each scaled to lead with 1."""
    q = len(tables.inv)
    spent = 0
    for S, K, nullity in _deficient_blocks(H, w, tables, u):
        values, counts = np.unique(nullity, return_counts=True)
        spent += w * sum(c * ((q ** nu - 1) // (q - 1)) for nu, c in
                         zip(values.tolist(), counts.tolist()))
        if spent > budget:
            raise SearchTooLarge("dependency-space enumeration exceeded search cap")
        for nu, idx, basis in _batch_kernel(tables, K):
            S_nu = S[idx]
            for V in _projective_span(tables, basis):
                i, t = np.nonzero((V != 0).all(axis=1))
                yield S_nu[i], _lead_with_one(tables, V[i, :, t])


def _syndrome_keys(tables: _FieldArrays, Ht: np.ndarray, S: np.ndarray,
                   coefs: np.ndarray):
    """The syndromes sum_i c_i h_(S_i) of every subset row of S with every
    coefficient row c of coefs, for the parity-check columns h_j = Ht[j]:
    record i * len(coefs) + t is S[i] with coefs[t].  Returns each
    syndrome scaled to lead with 1, packed into uint64 lanes, bits
    entries after entries, as the key (shape (records, lanes)), and its
    scale, the leading entry (0 for a zero syndrome).  The syndromes are
    made a block of subsets at a time."""
    q, r, m = len(tables.inv), Ht.shape[1], len(coefs)
    bits = (q - 1).bit_length()
    per = 64 // bits  # entries per lane
    shifts = np.arange(per, dtype=np.uint64) * np.uint64(bits)
    key = np.zeros((len(S) * m, max(1, -(-r // per))), dtype=np.uint64)
    scale = np.zeros(len(S) * m, dtype=np.int32)
    step = max(1, _BLOCK_CELLS // max(1, m * r))
    for at in range(0, len(S), step):
        block = S[at:at + step]
        syn = np.zeros((len(block), m, r), dtype=np.int32)
        for i in range(S.shape[1]):
            syn = _vadd(tables, syn, _vmul(tables, coefs[None, :, i, None],
                                           Ht[block[:, i]][:, None]))
        syn = syn.reshape(len(block) * m, r)
        rows = slice(at * m, at * m + len(syn))
        if r:  # the code C = GF(q)^n has no parity-check rows
            lead = syn[np.arange(len(syn)), (syn != 0).argmax(axis=1)]
            syn = _vmul(tables, tables.inv[lead][:, None], syn)
            scale[rows] = lead
        for lane, lo in enumerate(range(0, r, per)):
            part = syn[:, lo:lo + per].astype(np.uint64)
            key[rows, lane] = (part << shifts[:part.shape[1]]).sum(axis=1)
    return key, scale


def _join_sorted(lkey, lpos, rkey, rpos):
    """The pairs of a left and a right record with equal keys and
    lpos < rpos, by one sort of both sides by key, then position, then
    side (right first), after dropping the records that no position
    allows.  Returns (lefts, lo, hi, rights): the left record lefts[i]
    pairs with the right records rights[lo[i]:hi[i]]."""
    none = np.zeros(0, dtype=np.intp)
    if not (len(lpos) and len(rpos)):
        return none, none, none, none
    li = np.nonzero(lpos < rpos.max())[0]
    ri = np.nonzero(rpos > lpos.min())[0]
    if not (len(li) and len(ri)):
        return none, none, none, none
    keys = np.concatenate([rkey[ri], lkey[li]])
    is_left = np.arange(len(keys)) >= len(ri)
    pos = 2 * np.concatenate([rpos[ri], lpos[li]]) + is_left
    order = np.lexsort([pos, *keys.T])
    sk = keys[order]
    starts = np.r_[True, (sk[1:] != sk[:-1]).any(axis=1)]
    group = np.cumsum(starts) - 1
    is_right = ~is_left[order]
    below = np.cumsum(is_right)  # right records up to each sorted position
    group_end = below[np.r_[np.nonzero(starts)[0][1:], len(order)] - 1]
    at = np.nonzero(~is_right)[0]
    return (li[order[at] - len(ri)], below[at], group_end[group[at]],
            ri[order[is_right]])


def _words_by_join(H: np.ndarray, w: int, budget: int, tables: _FieldArrays,
                   u: int):
    """The weight-w words of the code with parity check H whose least
    support member is below u, by a collision of half-support syndromes.
    A word with support S, scaled to lead with 1, splits into its first
    a = ceil(w/2) coordinates T1, with coefficients leading with 1, and its
    last b = floor(w/2), T2, with coefficients mu times a vector leading
    with 1: H c = 0 says the two halves' syndromes s1, s2 agree up to
    scale, s1 + mu s2 = 0.  So the half syndromes are keyed by their scaled
    form and joined where max(T1) < min(T2); mu = -lambda1 / lambda2 for
    their scales, and a pair of zero syndromes gives q - 1 words, one per
    mu (one, when b = 0).  The least member of S is the least of T1, so
    only the left halves that start below u are keyed, in blocks, each
    joined with every right half.  Each block's matched words are charged
    w each against the budget before they are made.  Yields blocks (S, V)
    of words, each leading with 1."""
    q, n = len(tables.inv), H.shape[1]
    Ht = np.ascontiguousarray(H.T)  # column h_j is Ht[j]
    a, b = (w + 1) // 2, w // 2

    def coefficients(size):  # every vector leading with 1, no zero entry
        rows = [((1,) + c)[:size]
                for c in product(range(1, q), repeat=max(0, size - 1))]
        return np.array(rows, dtype=np.int32).reshape(len(rows), size)

    right_cf = coefficients(b)
    right_S = np.array(list(combinations(range(n), b)), dtype=np.intp
                       ).reshape(math.comb(n, b), b)
    rkey, rscale = _syndrome_keys(tables, Ht, right_S, right_cf)
    rpos = np.repeat(right_S[:, 0] if b else n, len(right_cf))  # min(T2)
    left_cf = right_cf if a == b else coefficients(a)
    many = q - 1 if b else 1  # words of a pair of zero syndromes
    spent = 0
    block = max(1, _BLOCK_CELLS // max(1, len(left_cf) * Ht.shape[1]))
    subsets = takewhile(lambda T: T[0] < u, combinations(range(n), a))
    while chunk := list(islice(subsets, block)):
        left_S = np.array(chunk, dtype=np.intp).reshape(len(chunk), a)
        lkey, lscale = _syndrome_keys(tables, Ht, left_S, left_cf)
        lpos = np.repeat(left_S[:, -1], len(left_cf))  # max(T1)
        lefts, lo, hi, rights = _join_sorted(lkey, lpos, rkey, rpos)
        counts = hi - lo
        per_pair = np.where(lscale[lefts] == 0, many, 1)
        spent += w * int((counts * per_pair).sum())
        if spent > budget:
            raise SearchTooLarge("syndrome join exceeded search cap")
        # the pairs: left record li with right record ri
        li = np.repeat(lefts, counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        ri = rights[np.repeat(lo, counts) + np.arange(len(li)) - first]
        mu = _vmul(tables, tables.neg[lscale[li]], tables.inv[rscale[ri]])
        zero = mu == 0  # a pair of zero syndromes: one word per mu
        li = np.r_[li[~zero], np.repeat(li[zero], many)]
        ri = np.r_[ri[~zero], np.repeat(ri[zero], many)]
        mu = np.r_[mu[~zero], np.tile(np.arange(1, many + 1),
                                      np.count_nonzero(zero))]
        # max(T1) < min(T2): the halves side by side are the support
        yield (np.hstack([left_S[li // len(left_cf)],
                          right_S[ri // len(right_cf)]]),
               np.hstack([left_cf[li % len(left_cf)],
                          _vmul(tables, mu[:, None],
                                right_cf[ri % len(right_cf)])]))


def exact_weight_words(C: LinearCode, w: int, caps: Caps | None = None,
                       through: list[int] | None = None) -> Words:
    """All weight-w codewords of C, one per projective class, as a Words of
    m rows (m = 0 when there are none), support intp and values int32,
    each row's support ascending and its values leading with 1; given
    through, a list of coordinates checked as puncture checks its
    coordinates, only those whose support meets it.  The rows are sorted
    by support, then by values: two words on one support differ only on
    it, so every route returns the same arrays.  The route is plan's
    "words" route, priced there: an enumeration of C, the rank scan of the
    w-subsets of the columns of the parity check, or the syndrome join.
    The route and its price are those of the full search, through or not.
    An enumeration filters its words by through; a scan gets the parity
    check with the u coordinates of through moved to the front, where the
    supports that meet them are those whose least member is below u, and
    maps its supports back, each sorted with its values, led with 1 again."""
    if w < 0:
        raise InconsistentInput(f"weight {w} is negative")
    caps = _caps(caps)
    n, k = C.n, C.k
    if through is not None:
        through = _check_coords(C, through)
    S, V = np.zeros((0, w), dtype=np.intp), np.zeros((0, w), dtype=np.int32)
    if k == 0 or w == 0 or w > n:
        return Words(S, V)
    route = plan(n, k, C.field.q, "words", caps, w).route
    tables = _numpy_field_tables(C.field)
    if route == "enumerate":
        blocks = _words_by_enumeration(C, w, tables)
    else:
        kernel = _words_by_join if route == "join" else _words_by_kernels
        H, u = dual(C).gen_array, n
        if through is not None:
            order = np.argsort(~np.isin(np.arange(n), through), kind="stable")
            H, u = H[:, order], len(through)
        blocks = kernel(H, w, caps.search, tables, u)
    S, V = (np.concatenate(parts) for parts in zip((S, V), *blocks))
    if through is not None and route == "enumerate":
        meets = np.isin(S, through).any(axis=1)
        S, V = S[meets], V[meets]
    elif through is not None:  # C's columns, each sorted with its values
        by = np.argsort(order[S], axis=1)
        S, V = (np.take_along_axis(X, by, axis=1) for X in (order[S], V))
        V = _lead_with_one(tables, V)
    by = np.lexsort([*V.T[::-1], *S.T[::-1]])
    return Words(S[by], V[by])


def minimum_distance(C: LinearCode, caps: Caps | None = None) -> int:
    """d of C, off a distribution or the first w with words; cached."""
    if C.k == 0:
        raise ZeroCode("zero code has no minimum distance")
    if C._mind is not None:
        return C._mind
    caps = _caps(caps)
    if plan(C.n, C.k, C.field.q, "distance", caps).route == "scan":
        d = next((w for w in range(1, C.n + 1)
                  if len(exact_weight_words(C, w, caps))), None)
    else:
        d = weight_distribution(C, caps).min_distance()
    if d is None:
        raise LocalityInvariantBroken("nonzero code with no nonzero weight")
    C._mind = d
    return d


# ---------------------------------------------------------------------------
# matrix file format: "q n k" then k rows of n encodings

def field_for_q(q: int) -> FieldSpec:
    if q > FIELD_CAP:  # before factorize, whose trial division would not end
        shown = q if q < 1 << 64 else "2^64 or more"
        raise FieldTooLarge(f"q = {shown} exceeds cap {FIELD_CAP}")
    fac = factorize(q) if q >= 2 else {}  # factorize(0) would never end
    if len(fac) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, m = next(iter(fac.items()))
    return field_new(p, m)


def save_matrix(path, C: LinearCode) -> None:
    """Write C as a matrix file.  The file records only q, and load_matrix
    reads it over field_for_q(q), so a code over any other encoding of
    GF(q), such as a quadratic tower, is refused with WrongFieldForm before
    the file is opened."""
    if C.field != field_for_q(C.field.q):
        raise WrongFieldForm(f"matrix files hold codes over field_for_q("
                             f"{C.field.q}), not over {C.field!r}")
    lines = [f"{C.field.q} {C.n} {C.k}"]
    for row in C.gen:
        lines.append(" ".join(str(x) for x in row))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UnusablePath(str(exc)) from exc


def load_matrix(path) -> LinearCode:
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = [int(t) for t in fh.read().split()]
    except ValueError as exc:  # a bad token, or a byte beyond ASCII
        raise InconsistentInput(f"matrix file {path}: {exc}") from None
    except OSError as exc:
        raise UnusablePath(str(exc)) from exc
    if len(tokens) < 3:
        raise InconsistentInput("matrix file too short")
    q, n, k = tokens[:3]
    if n < 0 or k < 0:
        raise InconsistentInput(f"matrix file claims n = {n}, k = {k}")
    body = tokens[3:]
    if len(body) != n * k:
        raise InconsistentInput(
            f"expected {n * k} entries for a {k}x{n} matrix, got {len(body)}")
    field = field_for_q(q)
    rows = [body[i * n:(i + 1) * n] for i in range(k)]
    C = from_generator(field, rows) if rows else zero_code(field, n)
    if C.k != k:
        raise InconsistentInput(f"rows have rank {C.k}, file claims k = {k}")
    return C
