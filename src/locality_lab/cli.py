"""Command-line front end.

Subcommands
  construct     build a code by family name and write its matrix file
  analyze       full report: parameters, weight distribution, locality,
                optimality bounds, support designs
  repair-sets   per-coordinate repair sets with reconstruction coefficients
  validate-oval check a polynomial against the oval property
  table         reproduce the summary tables of known LLRC families at
                desk-scale parameters, with PASS/FAIL per row

Resource ceilings come from the LOCALITY_LAB_CAPS environment variable
("enum:2^26,search:2^24"); computations beyond them are reported as
"skipped: cap" (exit code 2), never silently truncated.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings

from .code_core import (
    Caps,
    LinearCode,
    dual,
    extend,
    field_for_q,
    load_matrix,
    minimum_distance,
    plan,
    puncture,
    save_matrix,
    shorten,
    weight_distribution,
)
from .constructions import (
    OVAL_FAMILIES,
    arc_code,
    bch,
    code_bf_bar,
    code_gf,
    code_gf_bar,
    cyclic_code,
    denniston_arc,
    elliptic_quadric,
    grm,
    grm_punctured,
    hamming,
    is_oval_polynomial,
    oval_poly,
    ovoid_code,
    simplex,
    ternary_golay,
    tits_ovoid,
)
from .designs import analyze_design
from .errors import (
    BadCoordinate,
    BadParameters,
    CapExceeded,
    LocalityLabError,
    TrivialCode,
    UnknownFamily,
)
from .gf import poly
from .locality import (
    bounds_report,
    certified_locality,
    llrc_string,
    minimum_linear_locality,
    repair_coefficients,
)

SKIPPED = "skipped: cap"


# ---------------------------------------------------------------------------
# JSON output

_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, one
    generator step per token, and an ``analyze --json`` report repeats each
    repair support in the option list of every coordinate it covers.  Here
    every token goes to one list of pieces and one ``str.join`` builds the
    text: no container's text exists beside its parent's, so a 20 MB report
    is built once, not again at each level of nesting above it.  A list or
    tuple of exactly ``int`` elements is one piece, rendered once per object
    and depth (``kept`` holds each memoised object, so its ``id`` stays
    valid).  Other scalars go to ``json.dumps`` without indent, so their
    text and their ``TypeError`` are its own.  ``obj`` must be acyclic, and
    every dict key a ``str``, as in every report.
    """
    parts, memo, kept = [], {}, []  # memo: (id, indent) -> int list text
    add, get = parts.append, memo.get

    def enc(o, indent):
        if isinstance(o, str):
            add(_encode_str(o))
        elif isinstance(o, int) and type(o) is not bool:
            add(int.__repr__(o))
        elif not isinstance(o, (list, tuple, dict)):
            add(json.dumps(o))
        elif not o:
            add("{}" if isinstance(o, dict) else "[]")
        else:
            inner = indent + "  "
            sep = ",\n" + inner
            if isinstance(o, dict):
                add("{\n" + inner)
                for k, v in sorted(o.items()):
                    add(_encode_str(k) + ": ")
                    enc(v, inner)
                    add(sep)
                parts[-1] = "\n" + indent + "}"
            elif set(map(type, o)) == {int}:
                text = f"[\n{inner}{sep.join(map(int.__repr__, o))}\n{indent}]"
                memo[id(o), indent] = text
                kept.append(o)
                add(text)
            else:
                add("[\n" + inner)
                for v in o:
                    text = get((id(v), inner))
                    if text is None:
                        enc(v, inner)
                    else:
                        add(text)
                    add(sep)
                parts[-1] = "\n" + indent + "]"

    enc(obj, "")
    add("\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# parameter parsing

def _parse_params(tokens: list[str]) -> dict[str, str]:
    params = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise BadParameters(f"expected key=value, got {tok!r}")
        if key in params:
            raise BadParameters(f"duplicate parameter {key!r}")
        params[key] = value
    return params


def _int(text: str, what: str) -> int:
    """text as an int; the error names what and quotes at most 40
    characters of text."""
    try:
        return int(text)
    except ValueError:
        pass
    if re.fullmatch(r"\s*[+-]?\d+\s*", text):  # beyond int's digit limit
        raise BadParameters(f"{what} has {len(text.strip().lstrip('+-'))} "
                            f"digits, above the limit of "
                            f"{sys.get_int_max_str_digits()}")
    shown = repr(text) if len(text) <= 40 else \
        f"{text[:40]!r}... ({len(text)} characters)"
    raise BadParameters(f"{what} must be an integer, got {shown}")


def _take_int(params: dict, key: str, default: int | None = None) -> int:
    if key not in params:
        if default is None:
            raise BadParameters(f"missing required parameter {key!r}")
        return default
    return _int(params.pop(key), f"parameter {key!r}")


def _oval_from_text(q: int, text: str):
    family, _, param = text.partition(":")
    if family not in OVAL_FAMILIES:
        raise BadParameters(
            f"unknown oval polynomial family {family!r}; "
            f"choose from {', '.join(OVAL_FAMILIES)}")
    value = _int(param, "oval polynomial parameter") if param else None
    return oval_poly(family, q, value)


def _build_code(family: str, params: dict[str, str]) -> LinearCode:
    params = dict(params)
    if family == "hamming":
        C = hamming(_take_int(params, "q"), _take_int(params, "m"))
    elif family == "simplex":
        C = simplex(_take_int(params, "q"), _take_int(params, "m"))
    elif family == "cyclic":
        q, n = _take_int(params, "q"), _take_int(params, "n")
        raw = params.pop("g", None)
        if raw is None:
            raise BadParameters("cyclic needs g=c0,c1,... (ascending coefficients)")
        coeffs = [_int(c, "each coefficient of g") for c in raw.split(",")]
        C = cyclic_code(q, n, poly(field_for_q(q), coeffs))
    elif family == "bch":
        C = bch(_take_int(params, "q"), _take_int(params, "n"),
                _take_int(params, "delta"), _take_int(params, "h", 1))
    elif family == "grm":
        C = grm(_take_int(params, "q"), _take_int(params, "ell"),
                _take_int(params, "m"))
    elif family == "grm-punctured":
        C = grm_punctured(_take_int(params, "q"), _take_int(params, "ell"),
                          _take_int(params, "m"))
    elif family == "ovoid-elliptic":
        C = ovoid_code(elliptic_quadric(_take_int(params, "q")))
    elif family == "ovoid-tits":
        C = ovoid_code(tits_ovoid(_take_int(params, "q")))
    elif family == "arc-denniston":
        C = arc_code(denniston_arc(_take_int(params, "q"),
                                   _take_int(params, "h")))
    elif family in ("oval-code-bfbar", "oval-code-gf", "oval-code-gfbar"):
        q = _take_int(params, "q")
        text = params.pop("f", None)
        if text is None:
            raise BadParameters("oval codes need f=family[:param]")
        f = _oval_from_text(q, text)
        builder = {"oval-code-bfbar": code_bf_bar, "oval-code-gf": code_gf,
                   "oval-code-gfbar": code_gf_bar}[family]
        C = builder(f)
    elif family == "ternary-golay":
        C = ternary_golay()
    elif family == "from-file":
        path = params.pop("path", None)
        if path is None:
            raise BadParameters("from-file needs path=...")
        C = load_matrix(path)
    else:
        raise UnknownFamily(f"unknown family {family!r}")
    if params:
        raise BadParameters(f"unused parameters: {', '.join(sorted(params))}")
    return C


def _resolve(args) -> LinearCode:
    C = _build_code(args.family, _parse_params(args.params))
    if getattr(args, "dual", False):
        C = dual(C)
    return C


# ---------------------------------------------------------------------------
# analyze

def _design_args(requests: list[str]) -> list[tuple[int, int]]:
    out = []
    for item in requests:
        t, sep, w = item.partition(":")
        if not sep:
            raise BadParameters(f"--designs wants t:w, got {item!r}")
        t, w = _int(t, "design strength t"), _int(w, "design weight w")
        if not 1 <= t <= w:
            raise BadParameters(f"--designs wants 1 <= t <= w, got {item!r}")
        out.append((t, w))
    return out


def _analysis_bundle(C: LinearCode, identity: dict, caps: Caps | None,
                     want_bounds: bool, design_requests: list[tuple[int, int]]):
    bundle = dict(identity)
    bundle.update({"q": C.q(), "n": C.n, "k": C.k})
    d = r = trivial_note = None
    try:
        d = minimum_distance(C, caps)
        bundle["d"] = d
    except CapExceeded:
        bundle["d"] = SKIPPED
    try:
        wd = weight_distribution(C, caps)
        bundle["weight_distribution"] = {str(w): c for w, c in
                                         enumerate(wd.counts) if c}
    except CapExceeded:
        bundle["weight_distribution"] = SKIPPED
    try:
        report = minimum_linear_locality(C, caps)
        r = report.r_min
        bundle["locality"] = report.to_json()
    except CapExceeded:
        bundle["locality"] = SKIPPED
    except TrivialCode:
        trivial_note = "undefined: trivial code"
        bundle["locality"] = trivial_note
    known = d is not None and r is not None
    missing = trivial_note if d is not None and trivial_note else SKIPPED
    bundle["llrc"] = llrc_string(C.n, C.k, d, C.q(), r) if known else missing
    if want_bounds:
        bundle["bounds"] = (bounds_report(C, r, caps).to_json() if known
                            else missing)
    designs = []
    for t, w in design_requests:
        try:
            rep = analyze_design(C, w, t_max=t, caps=caps)
            designs.append(rep.to_json() | {"t_requested": t,
                                            "lambda": rep.t_lambda.get(t)})
        except CapExceeded:
            designs.append({"w": w, "t_requested": t, "status": SKIPPED})
    if designs:
        bundle["designs"] = designs
    return bundle


def _bundle_exit(bundle) -> int:
    """2 if a computation of the bundle was skipped, else 0: the marker sits
    only where _analysis_bundle writes it."""
    marks = [bundle.get(key) for key in
             ("d", "weight_distribution", "locality", "llrc", "bounds")]
    marks += [entry.get("status") for entry in bundle.get("designs", ())]
    return 2 if any(mark == SKIPPED for mark in marks) else 0


def _print_bundle(bundle, out) -> None:
    print(f"family: {bundle['family']}", file=out)
    if bundle["params"]:
        pairs = " ".join(f"{k}={v}" for k, v in bundle["params"].items())
        print(f"params: {pairs}", file=out)
    d = bundle["d"]
    print(f"code: [{bundle['n']}, {bundle['k']}, {d}] over GF({bundle['q']})",
          file=out)
    print(f"llrc: {bundle['llrc']}", file=out)
    loc = bundle["locality"]
    if isinstance(loc, dict):
        loc = (f"r_min={loc['r_min']} w_star={loc['w_star']} "
               f"d_dual={loc['d_dual']} "
               f"is_dperp_minus_1={loc['is_dperp_minus_1']}")
    print(f"locality: {loc}", file=out)
    wd = bundle["weight_distribution"]
    if isinstance(wd, dict):
        wd = " ".join(f"{w}:{c}" for w, c in
                      sorted(wd.items(), key=lambda kv: int(kv[0])))
    print(f"weight_distribution: {wd}", file=out)
    bounds = bundle.get("bounds")
    if isinstance(bounds, dict):
        bounds = (f"singleton_like_rhs={bounds['singleton_like_rhs']} "
                  f"d_optimal={bounds['d_optimal']} "
                  f"almost_d_optimal={bounds['almost_d_optimal']} "
                  f"cm_rhs_ub={bounds['cm_rhs_ub']} "
                  f"k_optimal_certified={bounds['k_optimal_certified']}")
    if bounds is not None:
        print(f"bounds: {bounds}", file=out)
    for entry in bundle.get("designs", ()):
        if "status" in entry:
            print(f"design w={entry['w']} t={entry['t_requested']}: "
                  f"{entry['status']}", file=out)
        else:
            lam = entry["lambda"]
            verdict = f"lambda={lam}" if lam is not None else "not a t-design"
            print(f"design w={entry['block_size']} t={entry['t_requested']}: "
                  f"{entry['block_count']} blocks, {verdict}, "
                  f"steiner={entry['is_steiner']}", file=out)


def cmd_analyze(args) -> int:
    designs = _design_args(args.designs)
    C = _resolve(args)
    identity = {"family": args.family,
                "params": _parse_params(args.params),
                "dual": bool(args.dual)}
    bundle = _analysis_bundle(C, identity, None, args.bounds, designs)
    if args.json:
        sys.stdout.write(_json_text(bundle))
    else:
        _print_bundle(bundle, sys.stdout)
    return _bundle_exit(bundle)


# ---------------------------------------------------------------------------
# construct

def cmd_construct(args) -> int:
    C = _resolve(args)
    if args.out:
        save_matrix(args.out, C)
        print(f"wrote {args.out}")
    try:
        d = minimum_distance(C)
    except CapExceeded:
        print(f"[{C.n}, {C.k}, ?] over GF({C.q()})  (distance {SKIPPED})")
        return 2
    print(f"[{C.n}, {C.k}, {d}] over GF({C.q()})")
    return 0


# ---------------------------------------------------------------------------
# repair sets

def cmd_repair_sets(args) -> int:
    C = _resolve(args)
    only = args.coordinate
    if only is not None and not 0 <= only < C.n:
        raise BadCoordinate(f"coordinate {only} outside [0, {C.n})")
    coords = range(C.n) if only is None else [only]
    report = minimum_linear_locality(C)
    rows = []
    for i in coords:
        support = report.repair_set(i)  # lexicographically first option
        coeffs = repair_coefficients(C, i, support)
        rows.append({"coordinate": i, "repair_set": list(support),
                     "coefficients": {str(j): u for j, u in sorted(coeffs.items())}})
    if args.json:
        sys.stdout.write(_json_text({"r_min": report.r_min,
                                     "repair_sets": rows}))
    else:
        print(f"r_min = {report.r_min}")
        for row in rows:
            pairs = " ".join(f"c{j}*{u}" for j, u in
                             sorted((int(j), u) for j, u in
                                    row["coefficients"].items()))
            print(f"c{row['coordinate']} = {pairs}   "
                  f"(repair set {row['repair_set']})")
    return 0


# ---------------------------------------------------------------------------
# oval validation

def cmd_validate_oval(args) -> int:
    params = _parse_params(args.params)
    q = _take_int(params, "q")
    text = params.pop("f", None)
    if text is None or params:
        raise BadParameters("validate-oval wants q=... f=family[:param] "
                        "or f=monomial:e")
    family, _, param = text.partition(":")
    field = field_for_q(q)
    if family == "monomial":
        e = _int(param, "monomial exponent")
        if e < 0:
            raise BadParameters(f"monomial exponent must be >= 0, got {e}")
        # x^e is the map of x^r on GF(q), r = e mod (q - 1) in [1, q - 1]
        r = (e - 1) % (q - 1) + 1 if e else 0
        candidate = poly(field, [0] * r + [1])
        valid = is_oval_polynomial(field, candidate)
        exponents = [e]
    else:
        f = _oval_from_text(q, text)
        candidate = f.poly
        valid = True  # catalog construction validates exhaustively
        exponents = [i for i, c in enumerate(candidate.coeffs) if c]
    result = {"q": q, "f": text, "exponents": exponents, "valid": valid}
    if args.json:
        sys.stdout.write(_json_text(result))
    else:
        terms = " + ".join(f"x^{e}" for e in exponents)
        print(f"{terms} over GF({q}): "
              f"{'oval polynomial' if valid else 'NOT an oval polynomial'}")
    return 0


# ---------------------------------------------------------------------------
# tables

def _table_rows(which: int):
    """Desk-scale instances of every family row of table 1, else of
    table 2 (the parser admits no other); cells are
    (label, q, builder, claimed (n, k, d, r), d-optimality mark,
    k-optimality mark).  A "?" mark is reported but not judged."""
    ham, spx = lambda: hamming(3, 3), lambda: simplex(3, 3)
    ovo = lambda: ovoid_code(elliptic_quadric(4))
    arc = lambda: arc_code(denniston_arc(8, 4))
    ovl = lambda: oval_poly("translation", 8, 1)
    if which == 1:
        return [
            ("H_(q,m) q=3 m=3", 3, ham, (13, 10, 3, 8), "?", "yes"),
            ("S_(q,m) q=3 m=3", 3, spx, (13, 3, 9, 2), "?", "yes"),
            ("(H_(q,m))_t1 q=3 m=3", 3, lambda: shorten(ham(), {0}),
             (12, 9, 3, 7), "?", "yes"),
            ("((H_(q,m))_t1)^perp q=3 m=3", 3,
             lambda: dual(shorten(ham(), {0})), (12, 3, 8, 2), "?", "yes"),
            ("(S_(q,m))_t1 q=3 m=3", 3, lambda: shorten(spx(), {0}),
             (12, 2, 9, 1), "?", "yes"),
            ("((S_(q,m))_t1)^perp q=3 m=3", 3,
             lambda: dual(shorten(spx(), {0})), (12, 10, 2, 8), "?", "yes"),
            ("R_q(1,m) q=3 m=2", 3, lambda: grm(3, 1, 2), (9, 3, 6, 2),
             "?", "yes"),
            ("R_q(1,m)^perp q=3 m=2", 3, lambda: dual(grm(3, 1, 2)),
             (9, 6, 3, 5), "?", "yes"),
            ("C_f q=8 f=translation:1", 8, lambda: code_gf(ovl()),
             (9, 3, 6, 3), "almost", "yes"),
            ("Cbar_f q=8 f=translation:1", 8, lambda: code_gf_bar(ovl()),
             (10, 3, 7, 3), "almost", "yes"),
            ("C_o q=4", 4, ovo, (17, 4, 12, 3), "?", "yes"),
            ("(C_o)_t1 q=4", 4, lambda: shorten(ovo(), {0}),
             (16, 3, 12, 2), "?", "yes"),
            ("(C_o)^t1 q=4", 4, lambda: puncture(ovo(), {0}),
             (16, 4, 11, 3), "?", "yes"),
            ("C(A) q=8 h=4", 8, arc, (28, 3, 24, 2), "?", "yes"),
        ]
    return [
        ("H_(q,3) q=3", 3, ham, (13, 10, 3, 8), "yes", "yes"),
        ("(H_(q,3))_t1 q=3", 3, lambda: shorten(ham(), {0}),
         (12, 9, 3, 7), "yes", "yes"),
        ("((S_(q,3))_t1)^perp q=3", 3, lambda: dual(shorten(spx(), {0})),
         (12, 10, 2, 8), "yes", "yes"),
        ("C_o^perp q=4", 4, lambda: dual(ovo()), (17, 13, 4, 11),
         "yes", "yes"),
        ("C_o^perp q=32", 32,
         lambda: dual(ovoid_code(elliptic_quadric(32))),
         (1025, 1021, 4, 991), "yes", "yes"),
        ("(C_o^perp)_t1 q=4", 4, lambda: shorten(dual(ovo()), {0}),
         (16, 12, 4, 10), "yes", "yes"),
        ("(C_o^perp)^t1 q=4", 4, lambda: puncture(dual(ovo()), {0}),
         (16, 13, 3, 11), "yes", "yes"),
        ("C(A)^perp q=8 h=4", 8, lambda: dual(arc()), (28, 25, 3, 23),
         "yes", "yes"),
        ("C_(3^s,3^s+1,3,1) s=2", 9, lambda: bch(9, 10, 3, 1),
         (10, 6, 4, 5), "yes", "yes"),
        ("C_(3^s,3^s+1,3,1)^perp s=2", 9, lambda: dual(bch(9, 10, 3, 1)),
         (10, 4, 6, 3), "yes", "yes"),
        ("C_(2^s,2^s+1,3,1) s=4", 16, lambda: bch(16, 17, 3, 1),
         (17, 13, 4, 12), "yes", "yes"),
        ("C_(2^s,2^s+1,3,1)^perp s=4", 16,
         lambda: dual(bch(16, 17, 3, 1)), (17, 4, 13, 3), "yes", "yes"),
        ("C_(2^s,2^s+1,4,1) s=5", 32, lambda: bch(32, 33, 4, 1),
         (33, 27, 6, 26), "yes", "yes"),
        ("C_(2^s,2^s+1,4,1)^perp s=5", 32,
         lambda: dual(bch(32, 33, 4, 1)), (33, 6, 27, 5), "yes", "yes"),
        ("C_f^perp q=8 f=translation:1", 8, lambda: dual(code_gf(ovl())),
         (9, 6, 3, 5), "yes", "yes"),
        ("Cbar_f^perp q=8 f=translation:1", 8,
         lambda: dual(code_gf_bar(ovl())), (10, 7, 3, 6), "yes", "yes"),
        # catalogue's claim, kept as is; criterion 08 proves r = 8 instead
        ("Bbar_f^perp q=8 f=translation:1", 8,
         lambda: dual(code_bf_bar(ovl())), (11, 8, 3, 7), "yes", "yes"),
        ("Bbar_f q=8 f=translation:1", 8, lambda: code_bf_bar(ovl()),
         (11, 3, 8, 2), "yes", "yes"),
        ("ext(C_(2^s,2^s+1,3,1))^perp s=4", 16,
         lambda: dual(extend(bch(16, 17, 3, 1))), (18, 5, 13, 4),
         "yes", "yes"),
        ("ext(C_(3^s,3^s+1,3,1))^perp s=2", 9,
         lambda: dual(extend(bch(9, 10, 3, 1))), (11, 5, 6, 4),
         "yes", "yes"),
    ]


def _run_table_row(label, q, build, claimed, d_mark, k_mark, caps):
    n_c, k_c, d_c, r_c = claimed
    row = {"label": label,
           "claimed": {"n": n_c, "k": k_c, "d": d_c, "r": r_c,
                       "d_optimal": d_mark, "k_optimal": k_mark}}
    try:
        # priced on the claimed parameters, so hopeless rows skip unbuilt
        plan(n_c, k_c, q, "distance", caps, w=d_c)
        plan(n_c, k_c, q, "locality", caps, w=r_c + 1)
        C = build()
        d = minimum_distance(C, caps)
        r = certified_locality(C, caps)  # the row reads only r
        b = bounds_report(C, r, caps)
    except CapExceeded:
        row["computed"] = SKIPPED
        row["verdict"] = SKIPPED
        return row
    d_opt = "yes" if b.d_optimal else "almost" if b.almost_d_optimal else "no"
    k_opt = "yes" if b.k_optimal_certified else "open"
    row["computed"] = {"n": C.n, "k": C.k, "d": d, "r": r,
                       "d_optimal": d_opt, "k_optimal": k_opt}
    ok = (C.n, C.k, d, r) == claimed
    if d_mark != "?":
        ok = ok and d_opt == d_mark
    if k_mark != "?":
        ok = ok and k_opt == k_mark
    row["verdict"] = "PASS" if ok else "FAIL"
    return row


def cmd_table(args) -> int:
    caps = Caps.from_env()
    table = [row for row in _table_rows(args.which)
             if not args.only or args.only in row[0]]
    if not table:
        raise BadParameters(
            f"no row of table {args.which} matches --only {args.only!r}")
    rows = [_run_table_row(*row, caps) for row in table]
    if args.json:
        sys.stdout.write(_json_text(rows))
    else:
        fmt = "{:<36} {:>18} {:>18} {:>10} {:>10}  {}"
        print(fmt.format("row", "claimed(n,k,d;r)", "computed", "d_opt",
                         "k_opt", "verdict"))
        for row in rows:
            c = row["claimed"]
            claimed_s = f"({c['n']},{c['k']},{c['d']};{c['r']})"
            if row["computed"] == SKIPPED:
                print(fmt.format(row["label"], claimed_s, "-", "-", "-",
                                 SKIPPED))
                continue
            g = row["computed"]
            computed_s = f"({g['n']},{g['k']},{g['d']};{g['r']})"
            print(fmt.format(row["label"], claimed_s, computed_s,
                             f"{c['d_optimal']}/{g['d_optimal']}",
                             f"{c['k_optimal']}/{g['k_optimal']}",
                             row["verdict"]))
    if any(row["verdict"] == "FAIL" for row in rows):
        return 1
    if any(row["verdict"] == SKIPPED for row in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point

def _add_code_arguments(sub):
    sub.add_argument("family", help="code family name")
    sub.add_argument("params", nargs="*", default=[],
                     help="key=value parameters")
    sub.add_argument("--dual", action="store_true",
                     help="analyze the dual of the constructed code")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise BadParameters, so they exit
    1 with one error line, not argparse's 2, the status of a cap skip.
    The subcommand parsers are made of the same class."""

    def error(self, message):
        raise BadParameters(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="locality-lab",
        description="locality analysis and optimality certification "
                    "for linear codes")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="build a code and write its matrix")
    _add_code_arguments(p)
    p.add_argument("--out", help="matrix file destination")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("analyze", help="full analysis report")
    _add_code_arguments(p)
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument("--bounds", action="store_true",
                   help="include the optimality bounds report")
    p.add_argument("--designs", nargs="*", default=[], metavar="T:W",
                   help="verify support designs, e.g. 3:4")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("repair-sets",
                        help="repair sets and reconstruction coefficients")
    _add_code_arguments(p)
    p.add_argument("--coordinate", type=lambda t: _int(t, "--coordinate"),
                   default=None,
                   help="restrict to one coordinate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_repair_sets)

    p = subs.add_parser("validate-oval",
                        help="check the oval-polynomial property")
    p.add_argument("params", nargs="*", default=[],
                   help="q=... f=family[:param]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate_oval)

    p = subs.add_parser("table", help="reproduce an LLRC summary table")
    p.add_argument("which", type=int, choices=(1, 2))
    p.add_argument("--only", help="substring filter on row labels")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)
    return parser


def _shortened(exc: Exception) -> str:
    """exc's message with each run of more than 40 digits, such as a
    parameter Python reads but no loop could use, cut to its first 20 and
    its length."""
    return re.sub(r"\d{41,}", lambda m: f"{m[0][:20]}... ({len(m[0])} digits)",
                  str(exc))


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():  # each as one line, no path or source
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except CapExceeded as exc:
            print(f"error (cap): {_shortened(exc)}", file=sys.stderr)
            return 2
        except LocalityLabError as exc:
            print(f"error: {_shortened(exc)}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
