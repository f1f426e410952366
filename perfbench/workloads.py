"""The benchmark's three workloads: their items and the checks on every
item's output.

An item is one CLI call (``cli.main(argv)`` with its output captured) or
one library computation.  ``run()`` is the timed part; ``check(output)``
returns a list of problems, empty when the output is right.  Expected
values come from ``theory``; none is a stored copy of the program's output.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

from locality_lab import cli, code_core, constructions

import theory

@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutput(code, out.getvalue(), err.getvalue())


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _sparse(counts) -> dict[int, int]:
    return {w: int(c) for w, c in enumerate(counts) if c}


# memo for the benchmark's own transforms, which see the same inputs on
# every pass
_TRANSFORMS: dict[tuple, dict[int, int]] = {}


def transform(counts: dict[int, int], n: int, q: int) -> dict[int, int]:
    key = (tuple(sorted(counts.items())), n, q)
    if key not in _TRANSFORMS:
        _TRANSFORMS[key] = theory.krawtchouk_transform(counts, n, q)
    return _TRANSFORMS[key]


# ---------------------------------------------------------------------------
# tables: one `table N --only LABEL --json` call per computed row

def _table_item(table: int, label: str, claim, d_claim: str,
                k_claim: str) -> Item:
    argv = ["table", str(table), "--only", label, "--json"]
    n, k, d, r = claim
    known_r = theory.KNOWN_FAIL_ROWS.get(label)

    def check(out: CliOutput) -> list[str]:
        problems: list[str] = []
        _expect(problems, "exit code", out.code, 1 if known_r else 0)
        rows = json.loads(out.stdout)
        _expect(problems, "rows", len(rows), 1)
        row = rows[0]
        _expect(problems, "label", row["label"], label)
        _expect(problems, "claimed", row["claimed"],
                {"n": n, "k": k, "d": d, "r": r, "d_optimal": d_claim,
                 "k_optimal": k_claim})
        got = row["computed"]
        if not isinstance(got, dict):
            return problems + [f"computed: {got!r}"]
        want_r = known_r if known_r else r
        _expect(problems, "(n, k, d; r)",
                (got["n"], got["k"], got["d"], got["r"]), (n, k, d, want_r))
        _expect(problems, "d_optimal", got["d_optimal"],
                theory.d_mark(n, k, d, want_r))
        if known_r:
            _expect(problems, "verdict", row["verdict"], "FAIL")
        else:
            if d_claim != "?":
                _expect(problems, "d_optimal claim", got["d_optimal"], d_claim)
            _expect(problems, "k_optimal", got["k_optimal"], k_claim)
            _expect(problems, "verdict", row["verdict"], "PASS")
        return problems

    return Item(f"table{table}:{label}", lambda: call_cli(argv), check)


def table_items() -> list[Item]:
    return [_table_item(*row) for row in theory.TABLE_CLAIMS]


# ---------------------------------------------------------------------------
# families: `analyze --bounds --json` on mid-size codes, plus repair sets

def _check_bundle(b: dict, spec: dict) -> list[str]:
    problems: list[str] = []
    n, k, d, q, r, d_dual = (spec[x] for x in ("n", "k", "d", "q", "r",
                                                "d_dual"))
    _expect(problems, "[n, k, d] over GF(q)", (b["n"], b["k"], b["d"], b["q"]),
            (n, k, d, q))
    _expect(problems, "llrc", b["llrc"], f"({n}, {k}, {d}, {q}; {r})")

    wd = {int(w): c for w, c in b["weight_distribution"].items()}
    _expect(problems, "sum of weight distribution", sum(wd.values()), q ** k)
    _expect(problems, "A_0", wd.get(0), 1)
    _expect(problems, "minimum weight", theory.min_weight(wd), d)
    if "wd" in spec:
        _expect(problems, "weight distribution", wd, spec["wd"])
    for w, count in spec.get("wd_has", {}).items():
        _expect(problems, f"A_{w}", wd.get(w), count)
    try:
        dual_wd = transform(wd, n, q)
    except ValueError as exc:
        return problems + [f"weight distribution: {exc}"]
    _expect(problems, "dual minimum weight", theory.min_weight(dual_wd), d_dual)
    if spec.get("self_dual"):
        _expect(problems, "MacWilliams self-duality", dual_wd, wd)
    if "dual_wd" in spec:
        _expect(problems, "dual weight distribution", dual_wd, spec["dual_wd"])

    loc = b["locality"]
    _expect(problems, "r_min", loc["r_min"], r)
    _expect(problems, "w_star", loc["w_star"], r + 1)
    _expect(problems, "d_dual", loc["d_dual"], d_dual)
    _expect(problems, "is_dperp_minus_1", loc["is_dperp_minus_1"],
            r == d_dual - 1)
    first = {}
    for w, coords in loc["coverage_by_weight"].items():
        for j in coords:
            if j in first:
                problems.append(f"coordinate {j} covered twice")
            first[j] = int(w)
    _expect(problems, "covered coordinates", sorted(first), list(range(n)))
    want_options = spec.get("options")
    if want_options == "transitive":
        # a transitive group spreads the minimum-weight dual supports
        # evenly: each coordinate lies in (A/(q-1)) * d_dual / n of them
        want_options = dual_wd[d_dual] // (q - 1) * d_dual // n
    options = loc["repair_options"]
    _expect(problems, "repair option lists", len(options), n)
    for i, opts in enumerate(options):
        if want_options is not None and len(opts) != want_options:
            problems.append(f"coordinate {i}: {len(opts)} repair options, "
                            f"expected {want_options}")
        if opts != sorted(opts) or len({tuple(s) for s in opts}) != len(opts):
            problems.append(f"coordinate {i}: options not distinct and sorted")
        for s in opts:
            if i not in s or len(s) != first.get(i) or s != sorted(set(s)):
                problems.append(f"coordinate {i}: bad repair option {s}")
                break
        if len(problems) > 20:
            return problems

    bounds = b["bounds"]
    rhs = theory.singleton_like_rhs(n, k, r)
    _expect(problems, "singleton_like_rhs", bounds["singleton_like_rhs"], rhs)
    _expect(problems, "d_optimal", bounds["d_optimal"], d == rhs)
    _expect(problems, "almost_d_optimal", bounds["almost_d_optimal"],
            d == rhs - 1)
    cm = min([n] + [c["value"] for c in bounds["k_opt_components"]])
    _expect(problems, "cm_rhs_ub", bounds["cm_rhs_ub"], cm)
    if cm < k:
        problems.append(f"dimension bound {cm} is below k = {k}")
    _expect(problems, "k_optimal_certified", bounds["k_optimal_certified"],
            k == cm)

    designs = b.get("designs", [])
    _expect(problems, "designs", len(designs), len(spec.get("designs", ())))
    for entry, (t, w, blocks, lam) in zip(designs, spec.get("designs", ())):
        got_blocks = entry["blocks"]
        _expect(problems, f"design {t}:{w} block size", entry["block_size"], w)
        if blocks is None:
            # w = d = n - k: w columns of the parity check are dependent
            # exactly when they lie in a hyperplane, and a hyperplane holding
            # s columns is the zero set of dual words of weight n - s
            blocks = sum(math.comb(n - u, w) * c // (q - 1)
                         for u, c in dual_wd.items() if u and n - u >= w)
        _expect(problems, f"design {t}:{w} blocks", entry["block_count"], blocks)
        _expect(problems, f"design {t}:{w} listed blocks", len(got_blocks),
                blocks)
        if any(len(set(x)) != w or x != sorted(x) for x in got_blocks) or \
                len({tuple(x) for x in got_blocks}) != len(got_blocks):
            problems.append(f"design {t}:{w}: malformed blocks")
            continue
        if w == d:
            # two words on one minimum-weight support would combine to a
            # lighter word, so supports and projective classes correspond
            _expect(problems, f"design {t}:{w} blocks vs A_{w}/(q-1)",
                    blocks, wd[w] // (q - 1))
        own = theory.design_lambdas(got_blocks, n, t)
        _expect(problems, f"design {t}:{w} lambda", entry["lambda"], own[t])
        _expect(problems, f"design {t}:{w} t_lambda",
                {int(s): v for s, v in entry["t_lambda"].items()},
                {s: v for s, v in own.items() if v is not None})
        if lam is not None:
            _expect(problems, f"design {t}:{w} theory lambda", own[t], lam)
        for s, v in own.items():
            if v is not None and blocks * math.comb(w, s) != v * math.comb(n, s):
                problems.append(f"design {t}:{w}: b*C(w,{s}) != lambda*C(n,{s})")
        _expect(problems, f"design {t}:{w} steiner", entry["is_steiner"],
                any(s >= 2 and v == 1 for s, v in own.items()))
    return problems


def _analyze_item(argv: str, spec: dict) -> Item:
    args = argv.split()

    def check(out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()}"]
        return _check_bundle(json.loads(out.stdout), spec)

    return Item(argv, lambda: call_cli(args), check)


def _rm_options(r: int, m: int) -> int:
    """Minimum-weight words of RM(r, m) through one coordinate: the
    automorphism group is transitive, so A * w / n."""
    return theory.rm_min_weight_count(r, m) * 2 ** (m - r) // 2 ** m


# q = 16, h = 4 Denniston arc: n = (h-1)q + h points, every line meets it
# in 0 or h points; n(q+1)/h secant lines
_ARC_Q, _ARC_H = 16, 4
_ARC_N = (_ARC_H - 1) * _ARC_Q + _ARC_H
_ARC_SECANTS = _ARC_N * (_ARC_Q + 1) // _ARC_H

FAMILY_SPECS = [
    # RM(2,5) is self-dual; its 620 = A_8 words cover each coordinate 155 times
    ("analyze grm q=2 ell=2 m=5 --bounds --json",
     dict(n=32, k=16, d=8, q=2, r=7, d_dual=8, self_dual=True,
          wd_has={8: theory.rm_min_weight_count(2, 5)},
          options=_rm_options(2, 5))),
    # dual of the elliptic-quadric ovoid code: (65, 61, 4; q^2 - q - 1); a
    # point lies in q^2 (q - 1) of the secant-plane complements
    ("analyze ovoid-elliptic q=8 --dual --bounds --json",
     dict(n=65, k=61, d=4, q=8, r=8 * 8 - 8 - 1, d_dual=56,
          dual_wd={0: 1, 56: 3640, 64: 455}, options=8 * 8 * 7)),
    # maximal-arc code: weights n - h (secant lines) and n (external lines);
    # each point lies on q + 1 secants, each giving C(h-1, 2) triples
    ("analyze arc-denniston q=16 h=4 --bounds --json",
     dict(n=_ARC_N, k=3, d=_ARC_N - _ARC_H, q=16, r=2, d_dual=3,
          wd={0: 1, _ARC_N - _ARC_H: 15 * _ARC_SECANTS,
              _ARC_N: 15 * (16 * 16 + 16 + 1 - _ARC_SECANTS)},
          options=(_ARC_Q + 1) * math.comb(_ARC_H - 1, 2))),
    # C_f family of table 1: (q+1, 3, q-2; 3)
    ("analyze oval-code-gf q=32 f=segre --bounds --json",
     dict(n=33, k=3, d=30, q=32, r=3, d_dual=3)),
    # binary Hamming [63, 57, 3]: dual simplex, weight-3 supports S(2,3,63)
    ("analyze hamming q=2 m=6 --bounds --json --designs 2:3",
     dict(n=63, k=57, d=3, q=2, r=31, d_dual=32,
          dual_wd=theory.simplex_distribution(2, 6), options=32,
          wd_has={3: 63 * 62 // 6}, designs=[(2, 3, 651, 1)])),
    # RM(1,5): weight-16 supports form a 3-(32,16,7) design with 62 blocks
    ("analyze grm q=2 ell=1 m=5 --bounds --json --designs 3:16",
     dict(n=32, k=6, d=16, q=2, r=3, d_dual=4, wd={0: 1, 16: 62, 32: 1},
          options=_rm_options(3, 5), designs=[(3, 16, 62, 7)])),
    # table 2 row C_(2^s,2^s+1,3,1), s = 4: (17, 13, 4; 12), cyclic
    ("analyze bch q=16 n=17 delta=3 --bounds --json --designs 3:4",
     dict(n=17, k=13, d=4, q=16, r=12, d_dual=13, options="transitive",
          designs=[(3, 4, None, None)])),
    # affine functions at the 63 nonzero points of AG(3,4): weight 47 when
    # f(0) != 0, 48 when f(0) = 0; dual words on three collinear points
    ("analyze grm-punctured q=4 ell=1 m=3 --bounds --json",
     dict(n=63, k=4, d=47, q=4, r=2, d_dual=3,
          wd={0: 1, 47: 63 * 3, 48: 63, 63: 3}, options=20 * 3 + 1)),
]


def _repair_sets_item() -> Item:
    argv = "repair-sets bch q=16 n=17 delta=3 --json"
    n, r = 17, 13 - 1  # cyclic, so r = d(dual) - 1 with d(dual) = 13
    generator: dict[str, Any] = {}

    def check(out: CliOutput) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()}"]
        if not generator:  # built once, outside any timed or traced pass
            C = constructions.bch(16, 17, 3, 1)
            generator.update(rows=C.gen, field=theory.Field.from_json(
                C.field.to_json()))
        F, rows = generator["field"], generator["rows"]
        got = json.loads(out.stdout)
        problems: list[str] = []
        _expect(problems, "r_min", got["r_min"], r)
        _expect(problems, "coordinates",
                [s["coordinate"] for s in got["repair_sets"]], list(range(n)))
        for rule in got["repair_sets"]:
            i, support = rule["coordinate"], rule["repair_set"]
            coeffs = {int(j): u for j, u in rule["coefficients"].items()}
            if len(support) != r or i in support or sorted(coeffs) != support:
                problems.append(f"coordinate {i}: malformed rule")
                continue
            for g in rows:
                acc = 0
                for j, u in coeffs.items():
                    acc = F.add(acc, F.mul(u, g[j]))
                if acc != g[i]:
                    problems.append(f"coordinate {i}: rule fails on a row")
                    break
        return problems

    return Item(argv, lambda: call_cli(argv.split()), check)


def family_items() -> list[Item]:
    return [_analyze_item(a, s) for a, s in FAMILY_SPECS] + [_repair_sets_item()]


# ---------------------------------------------------------------------------
# distributions: weight_distribution and minimum_distance on a code and dual

@dataclass
class Distributions:
    n: int
    k: int
    q: int
    d: int
    wd: dict[int, int]
    d_dual: int
    wd_dual: dict[int, int]


def _distributions(build: Callable[[], code_core.LinearCode]) -> Distributions:
    C = build()
    wd = code_core.weight_distribution(C)
    d = code_core.minimum_distance(C)
    # the dual's distance first: for RM(2,6) it is what makes the dual's
    # distribution available, through the MacWilliams transform
    D = code_core.dual(C)
    d_dual = code_core.minimum_distance(D)
    wd_dual = code_core.weight_distribution(D)
    return Distributions(C.n, C.k, C.field.q, d, _sparse(wd.counts), d_dual,
                         _sparse(wd_dual.counts))


def _distribution_item(name: str, build, n: int, k: int, q: int,
                       expect: Callable[[Distributions], list[str]]) -> Item:
    def check(out: Distributions) -> list[str]:
        problems: list[str] = []
        _expect(problems, "[n, k] over GF(q)", (out.n, out.k, out.q), (n, k, q))
        _expect(problems, "sum", sum(out.wd.values()), q ** k)
        _expect(problems, "dual sum", sum(out.wd_dual.values()), q ** (n - k))
        _expect(problems, "d", out.d, theory.min_weight(out.wd))
        _expect(problems, "d(dual)", out.d_dual, theory.min_weight(out.wd_dual))
        return problems + expect(out)

    return Item(name, lambda: _distributions(build), check)


def _pair(code_wd: dict[int, int] | None, dual_wd: dict[int, int] | None,
          n: int, q: int, k: int):
    """Expect the given distributions; a missing side is the benchmark's own
    MacWilliams transform of the other."""
    if code_wd is None:
        code_wd = transform(dual_wd, n, q)
    if dual_wd is None:
        dual_wd = transform(code_wd, n, q)

    def expect(out: Distributions) -> list[str]:
        problems: list[str] = []
        _expect(problems, "weight distribution", out.wd, code_wd)
        _expect(problems, "dual weight distribution", out.wd_dual, dual_wd)
        return problems

    return expect


def _lazy(make):
    """Build an expectation on first use (outside the timed work)."""
    cache = []

    def expect(out):
        if not cache:
            cache.append(make())
        return cache[0](out)

    return expect


def _hamming_item(q: int, m: int) -> Item:
    n = (q ** m - 1) // (q - 1)
    return _distribution_item(
        f"hamming({q},{m})", lambda: constructions.hamming(q, m), n, n - m, q,
        _lazy(lambda: _pair(None, theory.simplex_distribution(q, m), n, q,
                            n - m)))


def _rm26_expect(out: Distributions) -> list[str]:
    problems: list[str] = []
    wd = out.wd
    _expect(problems, "A_16", wd.get(16), theory.rm_min_weight_count(2, 6))
    _expect(problems, "symmetric", wd, {64 - w: c for w, c in wd.items()})
    _expect(problems, "odd weights", [w for w in wd if w % 2], [])
    _expect(problems, "dual weight distribution", out.wd_dual,
            transform(wd, 64, 2))
    _expect(problems, "dual A_8", out.wd_dual.get(8),
            theory.rm_min_weight_count(3, 6))
    return problems


OVOID_Q8 = {0: 1, 56: 3640, 64: 455}
GOLAY = {0: 1, 5: 132, 6: 132, 8: 330, 9: 110, 11: 24}
BCH31_DUAL = {0: 1, 12: 310, 16: 527, 20: 186}


def distribution_items() -> list[Item]:
    c = constructions
    return [
        _hamming_item(2, 7),
        _hamming_item(3, 5),
        _hamming_item(4, 4),
        _distribution_item(
            "simplex(2,7)", lambda: c.simplex(2, 7), 127, 7, 2,
            _lazy(lambda: _pair(theory.simplex_distribution(2, 7), None,
                                127, 2, 7))),
        _distribution_item("grm(2,2,6)", lambda: c.grm(2, 2, 6), 64, 22, 2,
                           _rm26_expect),
        _distribution_item(
            "bch(2,31,5,1)", lambda: c.bch(2, 31, 5, 1), 31, 21, 2,
            _lazy(lambda: _pair(None, BCH31_DUAL, 31, 2, 21))),
        _distribution_item(
            "ovoid_code(elliptic_quadric(8))",
            lambda: c.ovoid_code(c.elliptic_quadric(8)), 65, 4, 8,
            _lazy(lambda: _pair(OVOID_Q8, None, 65, 8, 4))),
        _distribution_item(
            "ovoid_code(tits_ovoid(8))",
            lambda: c.ovoid_code(c.tits_ovoid(8)), 65, 4, 8,
            _lazy(lambda: _pair(OVOID_Q8, None, 65, 8, 4))),
        _distribution_item("ternary_golay()", lambda: c.ternary_golay(), 11, 6, 3,
                           _lazy(lambda: _pair(GOLAY, None, 11, 3, 6))),
    ]


def items_for(workload: str) -> list[Item]:
    return {"tables": table_items, "families": family_items,
            "distributions": distribution_items}[workload]()
