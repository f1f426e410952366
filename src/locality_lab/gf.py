"""Exact arithmetic in GF(p^m), polynomials over it, and extension plumbing.

Field elements are plain integers in [0, q).  For a field built directly
over its prime subfield, the base-p digits of the encoding are the
polynomial-basis coefficients.  For a quadratic tower over GF(q0), the two
base-q0 digits are the coefficients over the base field.  In both cases the
additive structure is digitwise mod p on the base-p digits of the encoding,
which is what the enumeration kernels in code_core rely on.  splitting_field
builds quadratic towers for the roots of unity of cyclic codes; the code
families and the matrix files use field_new fields only.

A field over its prime subfield rests on one primitive, multiplication
by x: shift the base-p digits up one place and subtract the overflow digit
times the modulus (in characteristic 2, a shift and an xor).  field_new
tests each candidate modulus by the order of x, computed with products
built from that step: x^(q-1) = 1 and x^((q-1)/l) != 1 for every prime
l | q - 1.  The same order test picks a tower's generator and checks the
root of unity behind a minimal polynomial.  The discrete-log tables walk
the powers of x with the step, and an untabulated product is Horner's
rule over the digits of one factor, on packed digits for odd p.

A FieldSpec exposes arithmetic as methods taking and returning bare ints.
Up to DLOG_CAP elements it holds its lookup tables in one FieldTables
record of lists, built once when the field is made: exp and log with a
sentinel log of 0 whose sums land in a zeroed tail of exp, neg, inv, and
a full addition table for odd fields up to ADD_TABLE_CAP.  This is the one
table layout: the methods read it, and so do the kernels of code_core,
which need no other.  Larger fields, up to FIELD_CAP, serve as splitting
fields only and keep their untabulated arithmetic.  Cross-field mixups are
caught at the levels that carry a field tag: polynomials, codes,
embeddings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BadParameters,
    CoefficientNotInBase,
    DivisionByZero,
    DivisionByZeroPolynomial,
    FieldInvariantBroken,
    FieldMismatch,
    FieldTooLarge,
    GcdNotOne,
    NotPrime,
    NotRootOfUnity,
)

FIELD_CAP = 1 << 20      # largest supported cardinality
DLOG_CAP = 1 << 16       # discrete-log tables are built up to this size
ADD_TABLE_CAP = 512      # full q x q addition table for odd p up to this size


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for n up to ~2^40."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    if math.gcd(a, n) != 1:
        raise GcdNotOne(f"gcd({a}, {n}) != 1")
    e, x = 1, a % n
    while x != 1:
        x = (x * a) % n
        e += 1
    return e


# ---------------------------------------------------------------------------

class FieldSpec:
    """A concrete finite field; construct via field_new or quadratic_extension."""

    __slots__ = (
        "p", "m", "q", "modulus", "tower_base", "generator", "_mod_low",
        "tables", "_hash",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...],
                 tower_base: "FieldSpec | None", _token: object = None):
        if _token is not _CONSTRUCT_TOKEN:
            raise TypeError("use field_new() or quadratic_extension()")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.tower_base = tower_base
        self.generator = 0          # set by the constructors below
        # the modulus below x^m as an encoding; the multiply-by-x step of a
        # field over its prime subfield reduces with it
        self._mod_low = sum(c * p ** i for i, c in enumerate(modulus[:-1]))
        self.tables: FieldTables | None = None  # set by _build_tables
        self._hash = hash((p, m, modulus, tower_base))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus
                and self.tower_base == other.tower_base)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = f"GF({self.q})"
        if self.tower_base is not None:
            tag += f"/GF({self.tower_base.q})"
        return f"<FieldSpec {tag}>"

    def to_json(self) -> dict:
        out = {"p": self.p, "m": self.m, "modulus": list(self.modulus)}
        if self.tower_base is not None:
            out["tower_base"] = self.tower_base.to_json()
        return out

    # -- raw arithmetic (no tables) -----------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.tower_base is not None:
            base = self.tower_base
            q0 = base.q
            a0, a1 = a % q0, a // q0
            b0, b1 = b % q0, b // q0
            z0 = base.mul(a0, b0)
            z1 = base.add(base.mul(a0, b1), base.mul(a1, b0))
            z2 = base.mul(a1, b1)
            if z2:
                c0, c1 = self.modulus[0], self.modulus[1]
                # y^2 = -c1*y - c0
                z0 = base.sub(z0, base.mul(z2, c0))
                z1 = base.sub(z1, base.mul(z2, c1))
            return z0 + q0 * z1
        # Horner over the digits of b: acc <- acc*x + d*a
        if self.p == 2:
            acc = 0
            for d in reversed(self._digits(b)):
                acc = self._mul_x(acc) ^ (a if d else 0)
            return acc
        # odd p: the digits sit unreduced in s-bit slots of one integer; a
        # slot stays below 2m(p-1)^2 < 2^s, so no sum carries into the next
        p, m = self.p, self.m
        s = (2 * m * p * p).bit_length()
        A = sum(d << s * i for i, d in enumerate(self._digits(a)))
        low = sum(-c % p << s * i for i, c in enumerate(self.modulus[:-1]))
        acc, mask, slot = 0, (1 << s * m) - 1, (1 << s) - 1
        for d in reversed(self._digits(b)):
            acc <<= s  # times x: the overflow slot, mod p, times low folds back
            acc = (acc & mask) + (acc >> s * m) % p * low + d * A
        return sum((acc >> s * i & slot) % p * p ** i for i in range(m))

    def _mul_x(self, a: int) -> int:
        """a*x in a field built over its prime subfield: shift the base-p
        digits up one place and subtract the overflow digit times the
        modulus (in characteristic 2, a shift and an xor)."""
        top, a = divmod(a * self.p, self.q)
        if not top:
            return a
        if self.p == 2:
            return a ^ self._mod_low
        return self._digitwise(a, self._mod_low, lambda u, c: u - top * c)

    def _digits(self, v: int) -> list[int]:
        p, m = self.p, self.m
        out = []
        for _ in range(m):
            out.append(v % p)
            v //= p
        return out

    # -- public element operations ------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise FieldMismatch(f"{a} is not an element encoding of {self!r}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        t = self.tables
        if t is not None and t.add is not None:
            return t.add[a][b]
        return self._digitwise(a, b, int.__add__)

    def neg(self, a: int) -> int:
        t = self.tables
        if t is not None:
            return t.neg[a]
        if self.p == 2:
            return a
        return self._digitwise(0, a, int.__sub__)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self.tables
        if t is not None:
            return t.exp[t.log[a] + t.log[b]]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        t = self.tables
        if t is not None:
            return t.inv[a]
        return self._raw_pow(a, self.q - 2)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DivisionByZero(f"0**{e} in {self!r}")
        e %= self.q - 1
        t = self.tables
        if t is not None:
            return t.exp[t.log[a] * e % (self.q - 1)]
        return self._raw_pow(a, e)

    def gen_pow(self, e: int) -> int:
        """generator**e; the fast path for enumerating the nonzero elements."""
        t = self.tables
        if t is not None:
            return t.exp[e % (self.q - 1)]
        return self.pow(self.generator, e)

    # -- table construction ---------------------------------------------------

    def _digitwise(self, a: int, b: int, op) -> int:
        p = self.p
        out, shift = 0, 1
        while a or b:
            out += op(a % p, b % p) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _build_tables(self) -> None:
        """Set tables: the FieldTables up to DLOG_CAP, None above it."""
        q = self.q
        if q > DLOG_CAP:
            return
        g = self.generator
        # a field over its prime subfield is generated by x itself
        step = (self._mul_x if self.tower_base is None
                else lambda v: self._raw_mul(v, g))
        powers = [1] * (q - 1)
        for i in range(1, q - 1):
            powers[i] = step(powers[i - 1])
        if step(powers[-1]) != 1:
            raise FieldInvariantBroken(
                "generator order mismatch while building tables")
        zero = 2 * (q - 1)
        exp = powers + powers + [0] * (zero + 1)
        log = [zero] * q
        for i, v in enumerate(powers):
            log[v] = i
        # -1 = g^((q - 1)/2) for odd p, and log 0 + (q - 1)/2 stays in
        # exp's zero tail
        neg = (list(range(q)) if self.p == 2
               else [exp[v + (q - 1) // 2] for v in log])
        inv = [0] + [exp[q - 1 - log[a]] for a in range(1, q)]
        add = None
        if self.p != 2 and q <= ADD_TABLE_CAP:
            add = [[self._digitwise(a, b, int.__add__) for b in range(q)]
                   for a in range(q)]
        self.tables = FieldTables(exp, log, neg, inv, add)


class FieldTables(NamedTuple):
    """The lookup tables of a field with q <= DLOG_CAP, as lists, in the
    layout every kernel reads.  exp[i] = g^(i mod (q-1)) for i < 2(q-1),
    and 0 from there up to 4(q-1); log[0] is the sentinel 2(q-1), so
    exp[log a + log b] is a*b with no zero test.  neg[a] = -a and inv[a] =
    1/a, inv[0] = 0.  add is the q x q addition table of an odd field up to
    ADD_TABLE_CAP, else None."""

    exp: list[int]
    log: list[int]
    neg: list[int]
    inv: list[int]
    add: list[list[int]] | None


_CONSTRUCT_TOKEN = object()


@lru_cache(maxsize=None)
def _has_order(F: FieldSpec, a: int, n: int) -> bool:
    """a^n = 1 and a^(n/l) != 1 for every prime l | n, by raw arithmetic.

    The tables and pow's reduction of exponents mod q - 1 both assume a
    field; a candidate modulus may be reducible, so it is tested without.
    Each (F, a, n) is tested once: minimal_polynomial checks its root for
    every cyclotomic coset of one code.
    """
    return (F._raw_pow(a, n) == 1
            and all(F._raw_pow(a, n // ell) != 1 for ell in factorize(n)))


def _is_irreducible(field: FieldSpec) -> bool:
    """Ben-Or's test of field.modulus over GF(p): gcd(x^(p^d) - x, f) = 1
    for every d <= m/2."""
    F = field_new(field.p, 1)
    f = Poly(F, field.modulus)
    minus_x = Poly(F, (0, F.neg(1)))
    xp = Poly(F, (0, 1))
    for _ in range(field.m // 2):
        # xp <- xp^p mod f, by squaring and multiplying
        power, e = Poly(F, (1,)), field.p
        while e:
            if e & 1:
                power = poly_mod(poly_mul(power, xp), f)
            xp = poly_mod(poly_mul(xp, xp), f)
            e >>= 1
        xp = power
        if poly_gcd(poly_add(xp, minus_x), f).degree > 0:
            return False
    return True


@lru_cache(maxsize=None)
def field_new(p: int, m: int) -> FieldSpec:
    """The field GF(p^m) with the smallest-encoded monic primitive modulus.

    Candidate moduli are ranked by the integer encoding of their coefficient
    sequence read low-to-high; the first whose residue class of x has order
    p^m - 1 wins, and x is the generator.  The ring GF(p)[x]/(f) has p^m - 1
    nonzero elements, so that order implies both primitivity and
    irreducibility; irreducibility is re-checked independently.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise BadParameters(f"extension degree {m} must be >= 1")
    q = p ** m
    if q > FIELD_CAP:
        raise FieldTooLarge(f"p^m = {q} exceeds cap {FIELD_CAP}")

    for enc in range(1, q):
        if enc % p == 0:
            continue  # constant term 0: divisible by x
        field = FieldSpec(p, m, (*(enc // p ** i % p for i in range(m)), 1),
                          None, _CONSTRUCT_TOKEN)
        x = field._mul_x(1)
        if _has_order(field, x, q - 1):
            break
    else:
        raise FieldInvariantBroken(
            f"no primitive polynomial of degree {m} over GF({p})")
    if m > 1 and not _is_irreducible(field):
        raise FieldInvariantBroken(
            "primitive modulus failed irreducibility cross-check")
    field.generator = x
    field._build_tables()
    return field


@lru_cache(maxsize=None)
def quadratic_extension(base: FieldSpec) -> FieldSpec:
    """Degree-2 tower over base; elements are base-q digit pairs.

    The modulus is the smallest-encoded monic irreducible quadratic over the
    base (not necessarily primitive); the cached generator is the smallest
    element encoding of full multiplicative order.
    """
    q0 = base.q
    if q0 * q0 > FIELD_CAP:
        raise FieldTooLarge(f"q^2 = {q0 * q0} exceeds cap {FIELD_CAP}")

    for enc in range(1, q0 * q0):
        if enc % q0 == 0:
            continue
        # irreducible over base iff no root in base
        f = Poly(base, (enc % q0, enc // q0, 1))
        if all(poly_eval(f, t) != 0 for t in range(q0)):
            break
    else:
        raise FieldInvariantBroken("no irreducible quadratic found (impossible)")

    field = FieldSpec(base.p, 2 * base.m, f.coeffs, base, _CONSTRUCT_TOKEN)
    for gen in range(2, field.q):
        if _has_order(field, gen, field.q - 1):
            break
    else:
        raise FieldInvariantBroken("no generator found (impossible)")
    field.generator = gen
    field._build_tables()
    return field


def absolute_trace(field: FieldSpec, x: int) -> int:
    """Tr(x) = x + x^p + ... + x^(p^(m-1)), landing in the prime subfield."""
    t, v = 0, x
    for _ in range(field.m):
        t = field.add(t, v)
        v = field.pow(v, field.p)
    if t >= field.p:
        raise FieldInvariantBroken("trace landed outside the prime subfield")
    return t


def cyclotomic_coset(s: int, n: int, q: int) -> tuple[int, ...]:
    """C_s = {s * q^i mod n}, sorted."""
    if math.gcd(n, q) != 1:
        raise GcdNotOne(f"gcd({n}, {q}) != 1")
    if not 0 <= s < n:
        raise BadParameters(f"representative {s} out of range [0, {n})")
    out = {s}
    v = s * q % n
    while v not in out:
        out.add(v)
        v = v * q % n
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# embeddings of a base field into a splitting field

class Embedding:
    """A field embedding base -> ext with an explicit inverse on the image.

    For the common layouts (prime base inside a directly-built extension,
    or a base inside its own quadratic tower) the embedding is the identity
    on encodings below base.q.  The general case stores a forward table
    built from a root of the base modulus inside ext.
    """

    __slots__ = ("base", "ext", "fwd", "_inv")

    def __init__(self, base: FieldSpec, ext: FieldSpec,
                 fwd: tuple[int, ...] | None = None):
        self.base = base
        self.ext = ext
        self.fwd = fwd
        self._inv = None if fwd is None else {v: i for i, v in enumerate(fwd)}

    def unmap(self, v: int) -> int:
        if self.fwd is None:
            if v < self.base.q:
                return v
        elif v in self._inv:
            return self._inv[v]
        raise CoefficientNotInBase(
            f"{v} is not in the embedded image of {self.base!r} inside {self.ext!r}")


def _embedding_by_root(base: FieldSpec, ext: FieldSpec) -> Embedding:
    # smallest root of the base modulus inside ext; base elements embed by
    # evaluating their polynomial-basis digits at that root.  The roots are
    # the conjugates r, r^p, ... of one root, all in the subfield of order
    # base.q, whose units are the powers of h below.
    f = Poly(ext, base.modulus)
    h = ext.gen_pow((ext.q - 1) // (base.q - 1))
    z = 1
    for _ in range(base.q - 1):
        if poly_eval(f, z) == 0:
            break
        z = ext.mul(z, h)
    else:
        raise FieldInvariantBroken("base modulus has no root in the extension")
    root = min(ext.pow(z, base.p ** i) for i in range(base.m))
    fwd = [poly_eval(poly(ext, base._digits(v)), root) for v in range(base.q)]
    if len(set(fwd)) != base.q:
        raise FieldInvariantBroken("embedding is not injective")
    return Embedding(base, ext, tuple(fwd))


def splitting_field(base: FieldSpec, n: int) -> tuple[FieldSpec, Embedding, int]:
    """Smallest extension of base containing the n-th roots of unity.

    Returns (ext, embedding, beta) with beta a primitive n-th root of unity
    obtained from the cached generator of ext.
    """
    if math.gcd(n, base.q) != 1:
        raise GcdNotOne(f"gcd({n}, {base.q}) != 1")
    d = multiplicative_order(base.q, n)
    if base.q ** d > FIELD_CAP:
        raise FieldTooLarge(
            f"splitting field GF({base.q}^{d}) exceeds cap {FIELD_CAP}")
    if d == 1:
        ext, emb = base, Embedding(base, base)
    elif base.m == 1:
        ext = field_new(base.p, d)
        emb = Embedding(base, ext)
    elif d == 2:
        ext = quadratic_extension(base)
        emb = Embedding(base, ext)
    else:
        ext = field_new(base.p, base.m * d)
        emb = _embedding_by_root(base, ext)
    beta = ext.pow(ext.generator, (ext.q - 1) // n)
    return ext, emb, beta


# ---------------------------------------------------------------------------
# univariate polynomials

@dataclass(frozen=True)
class Poly:
    """Coefficients low-to-high over a fixed field, no trailing zeros."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise FieldInvariantBroken("unnormalized polynomial")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


def poly(field: FieldSpec, coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    for c in cs:
        field.check(c)
    return Poly(field, tuple(cs))


def poly_x_pow_n_minus_1(field: FieldSpec, n: int) -> Poly:
    cs = [0] * (n + 1)
    cs[0] = field.neg(1)
    cs[n] = 1
    return Poly(field, tuple(cs))


def _same_field(f: Poly, g: Poly) -> FieldSpec:
    if f.field != g.field:
        raise FieldMismatch("polynomials over different fields")
    return f.field


def poly_add(f: Poly, g: Poly) -> Poly:
    F = _same_field(f, g)
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return poly(F, out)


def poly_mul(f: Poly, g: Poly) -> Poly:
    F = _same_field(f, g)
    if f.is_zero() or g.is_zero():
        return Poly(F, ())
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                if b:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly(F, out)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    F = _same_field(f, g)
    if g.is_zero():
        raise DivisionByZeroPolynomial("polynomial division by zero")
    rem = list(f.coeffs)
    qc = [0] * max(0, len(f.coeffs) - len(g.coeffs) + 1)
    inv_lead = F.inv(g.coeffs[-1])
    dg = g.degree
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = F.mul(c, inv_lead)
        qc[i - dg] = factor
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] = F.sub(rem[i - dg + j], F.mul(factor, gc))
    return poly(F, qc), poly(F, rem)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return poly_divmod(f, g)[1]


def poly_monic(f: Poly) -> Poly:
    if f.is_zero():
        raise DivisionByZeroPolynomial("cannot normalize the zero polynomial")
    F = f.field
    lead = f.coeffs[-1]
    if lead == 1:
        return f
    inv = F.inv(lead)
    return poly(F, [F.mul(c, inv) for c in f.coeffs])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    _same_field(f, g)
    if f.is_zero() and g.is_zero():
        raise DivisionByZeroPolynomial("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    return poly_monic(a)


def poly_eval(f: Poly, x: int) -> int:
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def minimal_polynomial(beta: int, s: int, n: int,
                       embedding: Embedding) -> Poly:
    """Minimal polynomial over embedding.base of beta^s, for beta a
    primitive n-th root of unity in embedding.ext: the product of
    (x - beta^i) over the cyclotomic coset of s."""
    base, ext = embedding.base, embedding.ext
    if not _has_order(ext, beta, n):
        raise NotRootOfUnity(f"beta is not a primitive {n}-th root of unity")
    coset = cyclotomic_coset(s, n, base.q)
    prod = poly(ext, [1])
    for i in coset:
        root = ext.pow(beta, i)
        prod = poly_mul(prod, poly(ext, [ext.neg(root), 1]))
    coeffs = []
    for c in prod.coeffs:
        coeffs.append(embedding.unmap(c))  # raises CoefficientNotInBase on a bug
    return poly(base, coeffs)
