"""The fixed reference computation that defines the benchmark's time unit.

Its parts mirror the program's hot paths but are written independently of
it: Gauss-Jordan elimination over GF(16) on small matrices with Python
lists (``eliminate``, like scalar ``rref``), big-integer binomial sums
(``bigint``, like ``macwilliams``) and a numpy xor/popcount pass
(``numpy``, like the enumeration kernel).  Its inputs are constants, so its
wall time follows only the speed of the machine at that moment.  A
workload's reference computation is a fixed subset of the parts; one
sample of it takes about a millisecond or two.
"""

from __future__ import annotations

import math
import time

# GF(16) from the primitive polynomial x^4 + x + 1
_EXP = [0] * 30
_LOG = [0] * 16
_v = 1
for _i in range(15):
    _EXP[_i] = _EXP[_i + 15] = _v
    _LOG[_v] = _i
    _v <<= 1
    if _v & 16:
        _v ^= 0b10011
del _i, _v


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _matrices(count: int, rows: int, cols: int) -> list[list[list[int]]]:
    state = 12345
    out = []
    for _ in range(count):
        m = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                state = (1103515245 * state + 12345) & 0x7FFFFFFF
                row.append((state >> 16) & 15)
            m.append(row)
        out.append(m)
    return out


_MATS = _matrices(16, 6, 9)
_WORDS = []  # built on first use, so that importing this module leaves
             # numpy unloaded for the set-up probe


def _rank(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _EXP[15 - _LOG[rows[r][c]]]
        rows[r] = [_mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x ^ _mul(f, y) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _binomial_sums(n: int) -> int:
    acc = 0
    for j in range(0, n + 1, 3):
        for i in range(0, n + 1, 2):
            acc += sum((-1) ** s * math.comb(i, s) * math.comb(n - i, j - s)
                       * 15 ** (j - s) for s in range(0, min(i, j) + 1))
    return acc


def _xor_popcount() -> int:
    import numpy as np
    if not _WORDS:
        _WORDS.append(np.asarray(_matrices(1, 64, 1 << 10)[0],
                                 dtype=np.int32).T.copy())
    words = _WORDS[0]
    total = 0
    for s in (3, 5):
        block = words ^ (s * (words & 1))
        total += int(np.bincount(np.count_nonzero(block, axis=1),
                                 minlength=65)[32])
    return total


PARTS = {
    "eliminate": lambda: sum(_rank(m) for m in _MATS),
    "bigint": lambda: _binomial_sums(20),
    "numpy": _xor_popcount,
}
_CHECKSUMS: dict[str, int] = {}  # each part's first result


def sample(parts) -> float:
    """Wall time of one run of the named parts of the reference computation."""
    t0 = time.perf_counter()
    values = [PARTS[name]() for name in parts]
    seconds = time.perf_counter() - t0
    for name, value in zip(parts, values):
        if _CHECKSUMS.setdefault(name, value) != value:
            raise RuntimeError("reference computation is not deterministic")
    return seconds
