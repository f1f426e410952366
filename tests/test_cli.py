"""End-to-end tests of the command-line interface.

Every test drives main() directly with an argv list and inspects the
captured output plus the exit code, matching how the console script runs.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locality_lab import cli, constructions
from locality_lab.cli import SKIPPED, _bundle_exit, _json_text, main
from locality_lab.code_core import CAPS_ENV_VAR, load_matrix
from locality_lab.constructions import ternary_golay
from locality_lab.errors import SearchTooLarge


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# JSON encoder and parser

def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _text(obj):
    """What the CLI writes for obj: _reference(obj) and one newline."""
    return _reference(obj) + "\n"


_strings = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f",
                     "caf\u00e9", "\u2028", "\ud800", "\U0001f600"]))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2**130, max_value=2**130),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    _strings)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_dumps_matches_json_dumps(obj):
    assert _json_text(obj) == _text(obj)


@settings(max_examples=100, deadline=None)
@given(_values, st.one_of(st.lists(st.integers(), max_size=4), _values))
def test_dumps_renders_a_shared_object_at_each_depth(obj, shared):
    # one object at depths 1, 2 and 4, and twice at depth 3
    nested = [shared, [shared], {"a": [shared, shared], "b": [[shared]]}, obj]
    assert _json_text(nested) == _text(nested)


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.dictionaries(st.integers(), st.integers(), max_size=4),
    st.dictionaries(st.floats(allow_nan=False), st.none(), max_size=4),
    st.dictionaries(st.booleans(), st.text(max_size=3), max_size=2),
    st.dictionaries(st.tuples(st.integers()), st.none(), max_size=2)))
def test_dumps_refuses_non_string_keys(obj):
    # every report key is a str; json.dumps would write these keys as text
    if obj:
        with pytest.raises(TypeError):
            _json_text(obj)
        with pytest.raises(TypeError):
            _json_text({"a": [obj]})
    else:
        assert _json_text(obj) == _text(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    st.lists(st.integers(), min_size=1, max_size=4).map(tuple),
    st.dictionaries(_strings, _values, max_size=3),
    _strings), max_size=8))
def test_json_text_mixes_memoised_int_tuples_with_other_elements(items):
    # each int tuple is memoised; the dicts and strings beside it in the
    # same list take the per-element path
    shared = (3, -1, 2 ** 70)
    obj = [shared, *items, shared, {"t": shared}]
    assert _json_text(obj) == _text(obj)


def test_json_text_renders_a_shared_int_tuple_at_two_depths():
    t = (0, 5, 9)
    obj = [t, [t, t], t, [[t], t], "x", t]
    # depths 1, 2 and 3 of one list: one memo entry per depth
    assert _json_text(obj) == _text(obj)


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], {"a": {}}, [True, 1], [1, True], [1, False, 0],
    [None, -0.0, math.nan, math.inf, -math.inf], [1, 2.0], [-5, 2**100],
    {"b": 1, "a": [1, 2], "": None}, {"null": 1}, 7, "x", 1.5, None, True,
])
def test_dumps_edge_values(obj):
    assert _json_text(obj) == _text(obj)


@pytest.mark.parametrize("obj", [
    np.int64(3), [1, np.int64(3)], {1, 2}, {"a": [set()]}, {"a": b"x"},
    {1: 0, "1": 0}, object(),
])
def test_dumps_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as ours:
        _json_text(obj)
    with pytest.raises(TypeError) as theirs:
        _reference(obj)
    assert str(ours.value) == str(theirs.value)


# (argv, exit status, sha256 of the output), pinned: the output stays
# byte-identical when the engine under it changes
JSON_OUTPUTS = [
    ("analyze ovoid-elliptic q=8 --dual --bounds --json", 0,
     "4c795e9a25a7115a57052ca903986e05528dc17f88dec604031c80946526ff4e"),
    ("analyze hamming q=2 m=6 --bounds --json --designs 2:3", 0,
     "061ed96f1746e5a5f94807d17cb1bfac056c345e9b632897ef95c1a4e8a2da34"),
    ("analyze grm q=2 ell=2 m=5 --bounds --json", 0,
     "1bc2c40a6418b826e7f40c302ac8dad75e0ca95bb9d752254dd718d932429474"),
    ("repair-sets bch q=16 n=17 delta=3 --json", 0,
     "5331b720ac3acaa5f860e8cb2c7e2b6b3c743fc532afe6df8acf0b7f2ce7e375"),
    ("table 1 --json", 0,
     "9500e955631a0f2b74a77efe94ba22ff73373729262830d181dceb071355d8c7"),
    ("table 2 --json", 1,  # the known FAIL row
     "0f1b314a679f0e1cbfee609fdcbb2cc09c28968a60852f97e91668eff70cce90"),
    # coverage over two weights: the later weight scans through the
    # coordinates still uncovered
    ("analyze oval-code-gf q=32 f=segre --bounds --json", 0,
     "5f1ed6ea385b785239438929e34791e60fdf503b202addb5aff9c9c0b15f7ba8"),
    ("repair-sets oval-code-gf q=32 f=segre --json", 0,
     "8ff109148250a5c5f70e8b2718859bb9837a8f7f3b25771f0a95f10e7427276b"),
    ("analyze oval-code-gfbar q=8 f=translation:1 --bounds --json", 0,
     "e9003deb667409d298e17a4fbc75f25f29c7c8805a3cba5a57c1ec12d9633965"),
]


@pytest.mark.parametrize("argv, status, digest", JSON_OUTPUTS,
                         ids=[argv for argv, _, _ in JSON_OUTPUTS])
def test_cli_json_is_json_dumps_output(capsys, monkeypatch, argv, status,
                                       digest):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, *argv.split())
    assert rc == status
    assert out == _text(json.loads(out))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    calls = [
        ["analyze", "bch", "q=9", "n=10", "delta=3", "--designs", "3:4",
         "--json"],
        ["analyze", "bch", "q=9", "n=10", "delta=3", "--json"],
        ["table", "1", "--json"],
    ]
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()
    assert "designs" in json.loads(shared[0][1])
    assert "designs" not in json.loads(shared[1][1])
    for argv, (rc, out, err) in zip(calls, shared):
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == (rc, out, err)


# ---------------------------------------------------------------------------
# construct

def test_construct_writes_matrix_file(tmp_path, capsys):
    path = tmp_path / "golay.txt"
    rc, out, _ = run(capsys, "construct", "ternary-golay", "--out", str(path))
    assert rc == 0
    assert f"wrote {path}" in out
    assert "[11, 6, 5] over GF(3)" in out
    assert load_matrix(path) == ternary_golay()


def test_construct_dual_flag(capsys):
    rc, out, _ = run(capsys, "construct", "ternary-golay", "--dual")
    assert rc == 0
    assert "[11, 5, 6] over GF(3)" in out


def test_construct_long_hamming_through_macwilliams(capsys, monkeypatch):
    # d comes from the 2^9 words of the dual, transformed by MacWilliams
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "construct", "hamming", "q=2", "m=9")
    assert rc == 0
    assert "[511, 502, 3]" in out


def test_construct_reads_d_off_a_2_24_word_dual(capsys, monkeypatch):
    # the [63, 39] BCH code's distance comes from the 2^24 words of its
    # dual, below the enum cap, as its distribution does
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, err = run(capsys, "construct", "bch", "q=2", "n=63", "delta=9")
    assert rc == 0
    assert out == "[63, 39, 9] over GF(2)\n"
    assert err == ""


# the generator of a [63, 36, 6] binary cyclic code, ascending coefficients
G63 = "1,0,1,1,1,0,0,0,0,0,1,0,0,1,0,1,0,0,0,1,0,1,0,1,1,0,1,1"


def test_construct_scans_d_through_the_syndrome_join(capsys, monkeypatch):
    # neither 2^36 words nor the dual's 2^27 fit the enum cap, so d is
    # scanned weight by weight; the rank scan at weight 4 would cost
    # C(63, 4) * 4 * 27 = 64,331,820, but the join of weight 6 costs
    # 6,433,182, within the search cap
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, err = run(capsys, "construct", "cyclic", "q=2", "n=63",
                       f"g={G63}")
    assert (rc, out, err) == (0, "[63, 36, 6] over GF(2)\n", "")


def test_analyze_d_is_the_least_weight_of_its_distribution(capsys,
                                                           monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "analyze", "bch", "q=2", "n=63", "delta=9",
                     "--json")
    assert rc == 2  # the locality search is beyond the search cap
    bundle = json.loads(out)
    assert bundle["d"] == 9
    assert bundle["d"] == min(int(w) for w, count
                              in bundle["weight_distribution"].items()
                              if int(w) > 0 and count > 0)


def test_analyze_long_ovoid_dual(capsys, monkeypatch):
    # each of the q^3 + q planes that meet the ovoid in an oval holds
    # C(q + 1, 4) 4-subsets of it, each carrying one projective class
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "analyze", "ovoid-elliptic", "q=32", "--dual")
    assert rc == 2  # locality is skipped
    assert "[1025, 1021, 4]" in out
    assert f"locality: {SKIPPED}" in out
    q = 32
    a4 = (q ** 3 + q) * math.comb(q + 1, 4) * (q - 1)
    assert a4 == 41_607_456_000
    assert f"weight_distribution: 0:1 4:{a4} " in out


def test_failed_self_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "minimum_distance", lambda C: 4)
    rc, out, err = run(capsys, "construct", "hamming", "q=2", "m=3")
    assert rc == 1
    assert out == ""
    assert err == ("error: <LinearCode hamming(2,3)> has minimum distance 4, "
                   "expected 3\n")


def test_construct_skips_a_self_check_beyond_the_caps(capsys, monkeypatch):
    # neither the 2^26 words nor the dual's 2^5 fit the enum cap, and the
    # weight-3 join costs 4805: hamming() skips its distance check instead
    # of failing, and construct reports the skip
    monkeypatch.setenv(CAPS_ENV_VAR, "enum:16,search:1000")
    rc, out, err = run(capsys, "construct", "hamming", "q=2", "m=5")
    assert rc == 2
    assert out == "[31, 26, ?] over GF(2)  (distance skipped: cap)\n"
    assert err == ""


def test_construct_roundtrips_through_from_file(tmp_path, capsys):
    path = tmp_path / "ham.txt"
    rc, _, _ = run(capsys, "construct", "hamming", "q=2", "m=3",
                   "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "analyze", "from-file", f"path={path}")
    assert rc == 0
    assert "code: [7, 4, 3] over GF(2)" in out


# ---------------------------------------------------------------------------
# analyze

def test_analyze_human_readable(capsys):
    rc, out, _ = run(capsys, "analyze", "hamming", "q=3", "m=3", "--bounds")
    assert rc == 0
    assert "code: [13, 10, 3] over GF(3)" in out
    assert "llrc: (13, 10, 3, 3; 8)" in out
    assert "r_min=8" in out
    assert "d_optimal=True" in out
    assert "k_optimal_certified=True" in out


def test_analyze_json_fields(capsys):
    rc, out, _ = run(capsys, "analyze", "simplex", "q=3", "m=3", "--json",
                     "--bounds")
    assert rc == 0
    bundle = json.loads(out)
    assert (bundle["n"], bundle["k"], bundle["d"]) == (13, 3, 9)
    assert bundle["locality"]["r_min"] == 2
    assert bundle["locality"]["d_dual"] == 3
    assert bundle["weight_distribution"] == {"0": 1, "9": 26}
    assert bundle["bounds"]["almost_d_optimal"] is True
    assert bundle["bounds"]["k_optimal_certified"] is True
    assert bundle["llrc"] == "(13, 3, 9, 3; 2)"


def test_analyze_json_is_deterministic(capsys):
    args = ("analyze", "bch", "q=9", "n=10", "delta=3", "--json", "--bounds",
            "--designs", "3:4")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_analyze_dual_flag(capsys):
    rc, out, _ = run(capsys, "analyze", "ternary-golay", "--dual")
    assert rc == 0
    assert "code: [11, 5, 6] over GF(3)" in out
    assert "r_min=4" in out


def test_analyze_design_report(capsys):
    rc, out, _ = run(capsys, "analyze", "bch", "q=9", "n=10", "delta=3",
                     "--designs", "3:4", "--json")
    assert rc == 0
    entry = json.loads(out)["designs"][0]
    assert entry["block_count"] == 30
    assert entry["t_lambda"] == {"1": 12, "2": 4, "3": 1}
    assert entry["lambda"] == 1
    assert entry["is_steiner"] is True


def test_analyze_design_that_is_not_one(capsys):
    rc, out, _ = run(capsys, "analyze", "oval-code-gf", "q=8",
                     "f=translation:1", "--dual", "--designs", "2:3", "--json")
    assert rc == 0
    entry = json.loads(out)["designs"][0]
    assert entry["lambda"] is None


@pytest.mark.parametrize("argv, line", [
    (("hamming", "q=2", "m=3", "--designs", "2:3"),
     "design w=3 t=2: 7 blocks, lambda=1, steiner=True"),
    (("cyclic", "q=2", "n=7", "g=1,1,0,1", "--dual", "--designs", "2:7"),
     "design w=7 t=2: 0 blocks, not a t-design, steiner=False"),
])
def test_analyze_prints_a_computed_design(capsys, argv, line):
    rc, out, err = run(capsys, "analyze", *argv)
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == line


def test_design_count_beyond_the_search_cap_is_skipped(capsys):
    # 254 blocks of 64 hold 172,496,480 t-subsets up to t = 4, over 2^24
    argv = ("analyze", "grm", "q=2", "ell=1", "m=7", "--designs", "4:64")
    rc, out, _ = run(capsys, *argv)
    assert rc == 2
    assert out.splitlines()[-1] == "design w=64 t=4: skipped: cap"
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 2
    assert json.loads(out)["designs"] == [
        {"w": 64, "t_requested": 4, "status": SKIPPED}]


def test_analyze_cap_skip_sets_exit_code(capsys, monkeypatch):
    monkeypatch.setenv(CAPS_ENV_VAR, "enum:2^4,search:2^6")
    rc, out, _ = run(capsys, "analyze", "hamming", "q=3", "m=3", "--json")
    assert rc == 2
    bundle = json.loads(out)
    assert bundle["weight_distribution"] == "skipped: cap"
    assert bundle["locality"] == "skipped: cap"
    # parameters never require a search, so they are always present
    assert (bundle["n"], bundle["k"]) == (13, 10)


def test_analyze_reports_locality_when_distance_is_skipped(capsys,
                                                          monkeypatch):
    # the [31, 26, 3] Hamming code: neither side fits the enum cap, so both
    # distances are scanned, each weight at its "words" price.  The code's
    # weight-3 join costs (C(31, 2) * 2 + 31) * 5 = 4805, beyond the cap.
    # The locality needs the dual [31, 5, 16] simplex code's distance and
    # its weight-16 words: weight 1 by the rank scan, 31 * 26 = 806, and
    # every other weight by enumerating its 31 classes, 31 * 31 = 961
    monkeypatch.setenv(CAPS_ENV_VAR, "enum:16,search:4000")
    rc, out, _ = run(capsys, "analyze", "hamming", "q=2", "m=5", "--json")
    assert rc == 2
    bundle = json.loads(out)
    assert bundle["d"] == SKIPPED
    assert bundle["weight_distribution"] == SKIPPED
    assert bundle["locality"]["r_min"] == 15


def _bundle(**fields):
    """An analyze bundle with every field computed, then overridden."""
    bundle = {"family": "hamming", "params": {"q": "2", "m": "3"},
              "dual": False, "q": 2, "n": 7, "k": 4, "d": 3,
              "weight_distribution": {"0": 1, "3": 7, "4": 7, "7": 1},
              "locality": {"r_min": 3, "repair_options": [[[0, 1, 2]]]},
              "llrc": "(7, 4, 3, 2; 3)", "bounds": {"d_optimal": True},
              "designs": [{"block_size": 3, "lambda": 1},
                          {"block_size": 4, "lambda": 2}]}
    bundle.update(fields)
    return bundle


@pytest.mark.parametrize("fields", [
    {"d": SKIPPED},
    {"weight_distribution": SKIPPED},
    {"locality": SKIPPED},
    {"llrc": SKIPPED},
    {"bounds": SKIPPED},
    {"designs": [{"block_size": 3, "lambda": 1},
                 {"w": 4, "t_requested": 2, "status": SKIPPED}]},
])
def test_bundle_exit_finds_each_skip_marker(fields):
    assert _bundle_exit(_bundle(**fields)) == 2


def test_bundle_exit_without_marker():
    assert _bundle_exit(_bundle()) == 0
    without_optional = _bundle()
    del without_optional["bounds"], without_optional["designs"]
    assert _bundle_exit(without_optional) == 0


def test_analyze_trivial_code_is_not_a_cap_skip(capsys):
    rc, out, _ = run(capsys, "analyze", "cyclic", "q=2", "n=3", "g=1")
    assert rc == 0
    assert "locality: undefined: trivial code" in out


# ---------------------------------------------------------------------------
# errors

SEVENS = "7" * 5000
# numbers beyond int's 4,300-digit limit, and a long non-number: the error
# names the parameter instead of echoing the text
OVERSIZED = [
    (("analyze", "hamming", f"q={SEVENS}", "m=2"), "parameter 'q' has 5000"),
    (("repair-sets", "hamming", "q=2", "m=3", "--coordinate", SEVENS),
     "--coordinate has 5000"),
    (("validate-oval", "q=8", f"f=monomial:{SEVENS}"),
     "monomial exponent has 5000"),
    (("analyze", "hamming", "q=2", "m=3", "--designs", f"{SEVENS}:3"),
     "design strength t has 5000"),
    (("analyze", "hamming", f"q=abc{SEVENS}", "m=2"),
     "parameter 'q' must be an integer, got 'abc777"),
]

SEVENS_READ = "7" * 4000
# numbers Python reads, whose refusals echo them: each error line shows at
# most 20 of their digits, as is done for every run of more than 40
LONG_NUMBERS = [
    ("repair-sets", "hamming", "q=2", "m=3", "--coordinate", SEVENS_READ),
    ("analyze", "hamming", "q=2", "m=3", "--designs", f"{SEVENS_READ}:3"),
    ("analyze", "hamming", "q=2", f"m=-{SEVENS_READ}"),
    ("analyze", "simplex", "q=2", f"m=-{SEVENS_READ}"),
    ("analyze", "bch", "q=2", "n=7", f"delta={SEVENS_READ}"),
    ("analyze", "grm", "q=2", f"ell={SEVENS_READ}", "m=3"),
    ("analyze", "oval-code-gf", f"q={SEVENS_READ}", "f=segre"),
    ("analyze", "arc-denniston", "q=16", f"h={SEVENS_READ}"),
    ("analyze", "cyclic", "q=2", "n=7", f"g=1,{SEVENS_READ}"),
    ("validate-oval", "q=8", f"f=monomial:-{SEVENS_READ}"),
    ("analyze", "ovoid-tits", f"q={SEVENS_READ}"),
    ("analyze", "ovoid-elliptic", f"q=-{SEVENS_READ}"),
    (f"{CAPS_ENV_VAR}=enum:{SEVENS_READ}x", "construct", "hamming", "q=2",
     "m=3"),
    (f"{CAPS_ENV_VAR}=enum:2^{SEVENS_READ}", "construct", "hamming", "q=2",
     "m=3"),
]

# a family refuses its parameters under its own name, also where it is
# built from another family
NAMED_REFUSALS = [
    (("construct", "hamming", "q=2", "m=1"), "hamming needs m >= 2, got 1"),
    (("construct", "simplex", "q=2", "m=1"), "simplex needs m >= 2, got 1"),
    (("analyze", "hamming", "q=2", "q=3", "m=3"), "duplicate parameter 'q'"),
    (("analyze", "cyclic", "q=2", "n=7"),
     "cyclic needs g=c0,c1,... (ascending coefficients)"),
    (("analyze", "oval-code-gf", "q=8"), "oval codes need f=family[:param]"),
    (("analyze", "from-file"), "from-file needs path=..."),
    (("validate-oval", "q=8"),
     "validate-oval wants q=... f=family[:param] or f=monomial:e"),
    (("construct", "bch", "q=2", "n=4", "delta=2"), "gcd(4, 2) != 1"),
    (("construct", "cyclic", "q=2", "n=3", "g=1,0,0,1"),
     "degree 3 generator for length 3"),
    (("analyze", "oval-code-gf", "q=16", "f=glynn1"), "glynn1 needs m odd"),
    (("analyze", "oval-code-gf", "q=16", "f=cherowitzo"),
     "cherowitzo needs m odd"),
    (("analyze", "oval-code-gf", "q=16", "f=payne"), "payne needs m odd"),
]


@pytest.mark.parametrize("argv", [
    ("analyze", "nonsense"),
    ("analyze", "hamming", "q=3"),            # missing m
    ("analyze", "hamming", "q3", "m=3"),      # malformed pair
    ("analyze", "hamming", "q=3", "m=3", "x=1"),  # unused parameter
    ("analyze", "bch", "q=9", "n=10", "delta=3", "--designs", "3"),
    ("analyze", "grm", "q=3", "ell=9", "m=2"),    # degree out of range
    ("repair-sets", "cyclic", "q=2", "n=3", "g=1"),  # trivial code
    ("analyze", "hamming", "q=2", "m=3", "--designs", "x:y"),
    ("analyze", "cyclic", "q=2", "n=7", "g=1,a"),  # malformed coefficient
    ("analyze", "cyclic", "q=2", "n=7", "g=0"),  # the zero polynomial
    ("analyze", "oval-code-gf", "q=8", "f=translation:z"),
    ("validate-oval", "q=8", "f=monomial:x"),
    ("validate-oval", "q=8", "f=monomial:-1"),  # x^-1 would be the constant 1
    # q or h no power of two in range, such as 0
    ("analyze", "arc-denniston", "q=8", "h=0"),
    ("analyze", "arc-denniston", "q=0", "h=4"),
    ("analyze", "ovoid-tits", "q=0"),
    ("analyze", "oval-code-gf", "q=0", "f=translation"),
    # --designs t:w outside 1 <= t <= w
    ("analyze", "hamming", "q=2", "m=3", "--designs", "3:-1"),
    ("analyze", "hamming", "q=2", "m=3", "--designs", "0:0"),
    ("analyze", "hamming", "q=2", "m=3", "--designs", "9:3"),
    # --only that matches no row
    ("table", "1", "--only", "nosuch"),
    ("table", "1", "--only", "nosuch", "--json"),
    # usage errors: argparse would exit 2, the status of a cap skip
    ("table", "3"),
    ("analyze",),
    ("repair-sets", "hamming", "q=2", "m=3", "--coordinate", "x"),
    *(argv for argv, _ in OVERSIZED),
    *LONG_NUMBERS,
    *(argv for argv, _ in NAMED_REFUSALS),
])
def test_error_paths_exit_1(capsys, monkeypatch, argv):
    if argv[0].startswith(f"{CAPS_ENV_VAR}="):  # an environment entry
        monkeypatch.setenv(CAPS_ENV_VAR, argv[0].partition("=")[2])
        argv = argv[1:]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("argv, name", OVERSIZED)
def test_oversized_numbers_name_their_parameter(capsys, argv, name):
    rc, _, err = run(capsys, *argv)
    assert rc == 1 and err.startswith(f"error: {name}")


@pytest.mark.parametrize("argv, message", NAMED_REFUSALS)
def test_refusals_name_their_family(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("construct", "bch", "q=2", "n=47", "delta=3"),
     "splitting field GF(2^23) exceeds cap 1048576"),
    (("validate-oval", "q=8192", "f=monomial:2"),
     "exhaustive oval check at q=8192 is out of range"),
    # a code over a field without tables is refused when it is built, not
    # skipped computation by computation
    (("construct", "cyclic", "q=65537", "n=2", "g=1,1"),
     "a code over GF(65537) needs the field's tables, built up to cap 65536"),
    (("analyze", "cyclic", "q=65537", "n=4", "g=1,1"),
     "a code over GF(65537) needs the field's tables, built up to cap 65536"),
])
def test_cap_refusals_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error (cap): {message}\n")


def test_a_matrix_file_over_a_field_without_tables_is_refused(tmp_path,
                                                               capsys):
    path = tmp_path / "big.txt"
    path.write_text("131072 2 1\n1 1\n")
    rc, out, err = run(capsys, "analyze", "from-file", f"path={path}")
    assert (rc, out) == (2, "")
    assert err == ("error (cap): a code over GF(131072) needs the field's "
                   "tables, built up to cap 65536\n")


def test_validate_oval_reports_a_constant_monomial(capsys):
    rc, out, err = run(capsys, "validate-oval", "q=8", "f=monomial:0")
    assert (rc, out, err) == (0, "x^0 over GF(8): NOT an oval polynomial\n",
                              "")


def test_a_design_weight_above_the_length_has_no_blocks(capsys):
    # exact_weight_words returns no word for w > n
    rc, out, _ = run(capsys, "analyze", "hamming", "q=2", "m=3",
                     "--designs", "1:8")
    assert rc == 0
    assert out.splitlines()[-1] == (
        "design w=8 t=1: 0 blocks, not a t-design, steiner=False")


def test_long_numbers_are_shortened_in_error_lines(capsys):
    rc, out, err = run(capsys, *LONG_NUMBERS[0])
    assert (rc, out) == (1, "")
    assert err == ("error: coordinate 77777777777777777777... (4000 digits) "
                   "outside [0, 7)\n")
    # the rule is one for both error lines, and spares 40 digits
    assert cli._shortened(SearchTooLarge(f"cost {'9' * 41} > {'8' * 40}")) \
        == f"cost 99999999999999999999... (41 digits) > {'8' * 40}"


@pytest.mark.parametrize("params, message", [
    # a prime above the field cap, which trial division would take ages on
    (("hamming", "q=2305843009213693951", "m=2"),
     "q = 2305843009213693951 exceeds cap 1048576"),
    # lengths of 2^64 or more: q^m is never computed, nor printed
    (("hamming", "q=3", "m=100000000"), "length 2^64 or more exceeds 65536"),
    (("grm", "q=3", "ell=1", "m=100000000"),
     "length 2^64 or more exceeds 65536"),
    (("hamming", "q=2", "m=99999"), "length 2^64 or more exceeds 65536"),
    (("grm-punctured", "q=2", "ell=1", "m=5000"),
     "length 2^64 or more exceeds 65536"),
    # duals whose generator, written out, would take gigabytes
    (("hamming", "q=2", "m=14"),
     "dual generator 16369 x 16383 exceeds 67108864 entries"),
    (("ovoid-elliptic", "q=128", "--dual"),
     "dual generator 16381 x 16385 exceeds 67108864 entries"),
])
def test_oversize_parameters_are_refused_before_arithmetic(capsys, params,
                                                           message):
    start = time.perf_counter()
    rc, out, err = run(capsys, "analyze", *params)
    assert time.perf_counter() - start < 2
    assert (rc, out, err) == (2, "", f"error (cap): {message}\n")


@pytest.mark.parametrize("command", ["analyze", "construct", "repair-sets"])
def test_missing_family_names_only_family(capsys, command):
    # params may be empty, so the message names the family alone
    rc, out, err = run(capsys, command)
    assert (rc, out) == (1, "")
    assert err == "error: the following arguments are required: family\n"


def test_validate_oval_without_params_asks_for_q(capsys):
    rc, out, err = run(capsys, "validate-oval")
    assert (rc, out) == (1, "")
    assert err == "error: missing required parameter 'q'\n"


@pytest.mark.parametrize("argv", [("--help",), ("table", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: locality-lab")


@pytest.mark.parametrize("caps, reason", [
    ("enum:abc", "not an integer"),
    ("search:2^x", "not an integer"),
    ("enum:-5", "must be positive"),
    ("search:0", "must be positive"),
    ("enum:2^65", "exponent outside"),
    # a repeated name is refused, not overridden by the later entry
    ("enum:2^26,enum:3", "'enum:3': enum given twice"),
])
def test_malformed_caps_exit_1(capsys, monkeypatch, caps, reason):
    monkeypatch.setenv(CAPS_ENV_VAR, caps)
    rc, out, err = run(capsys, "analyze", "hamming", "q=2", "m=3", "--json")
    assert rc == 1
    assert out == ""
    assert CAPS_ENV_VAR in err and reason in err


@pytest.mark.parametrize("content, reason", [
    (b"2 3 1\n1 x 1\n", "invalid literal for int()"),  # a non-integer token
    (b"2 3 1\n1 \xff 1\n", "can't decode byte 0xff"),  # a byte beyond ASCII
    (b"2 -1 0\n", "n = -1, k = 0"),  # once a length -1 zero code
    (b"2 3 -1\n", "n = 3, k = -1"),
    (b"0 3 1\n1 1 1\n", "0 is not a prime power"),  # once an endless loop
    (b"2 3\n", "matrix file too short"),
])
def test_malformed_matrix_file_exits_1(tmp_path, capsys, content, reason):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    rc, out, err = run(capsys, "analyze", "from-file", f"path={path}")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and reason in err, err


@pytest.mark.parametrize("argv", [
    ("analyze", "from-file", "path={}"),
    ("construct", "hamming", "q=2", "m=3", "--out", "{}"),
])
def test_unusable_path_exits_1(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such.txt"
    rc, out, err = run(capsys, *(a.format(missing) for a in argv))
    assert (rc, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_other_os_errors_are_not_reported_as_user_errors(monkeypatch):
    # only a matrix file's path becomes "error: ..."; an OSError elsewhere,
    # such as a broken pipe on stdout, keeps its traceback
    def broken(args):
        raise BrokenPipeError("stdout closed")

    monkeypatch.setattr(cli, "_resolve", broken)
    with pytest.raises(BrokenPipeError):
        main(["analyze", "hamming", "q=2", "m=3"])


@pytest.mark.parametrize("n", [0, -3])
def test_cyclic_length_below_1_is_refused_first(capsys, n):
    # before the gcd and degree checks, whose messages would mislead
    rc, out, err = run(capsys, "analyze", "cyclic", "q=2", f"n={n}", "g=1")
    assert (rc, out) == (1, "")
    assert err == f"error: cyclic code length {n} is below 1\n"


@pytest.mark.parametrize("argv, order, bound", [
    (("construct", "grm-punctured", "q=3", "ell=3", "m=2"), 3, 3),
    (("analyze", "grm", "q=4", "ell=4", "m=2"), 4, 4),
])
def test_warnings_are_one_cli_line(capsys, argv, order, bound):
    # no path or source line, wherever the warning is raised
    rc, _, err = run(capsys, *argv)
    assert rc == 0
    assert err == (f"warning: order {order} is at or above q(m-1) = {bound}; "
                   f"the closed-form dimension and distance are still "
                   f"asserted\n")


def test_module_entry_point_runs_without_warning():
    # the package must not import cli before runpy executes it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop(CAPS_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "locality_lab.cli", "analyze", "hamming", "q=2", "m=3", "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 7


@pytest.mark.parametrize("argv", [
    ["analyze", "bch", "q=9", "n=10", "delta=3", "--designs", "3:4", "--json"],
    ["table", "1", "--json"],
])
def test_json_output_is_independent_of_hash_seed(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.pop(CAPS_ENV_VAR, None)
    outputs = set()
    for seed in ("0", "1", "random"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "locality_lab.cli", *argv],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# repair-sets

def test_repair_sets_json(capsys):
    rc, out, _ = run(capsys, "repair-sets", "simplex", "q=3", "m=2", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["r_min"] == 2
    rows = payload["repair_sets"]
    assert [row["coordinate"] for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert len(row["repair_set"]) == 2
        assert row["coordinate"] not in row["repair_set"]
        assert all(int(u) != 0 for u in row["coefficients"].values())


def test_repair_sets_single_coordinate(capsys):
    rc, out, _ = run(capsys, "repair-sets", "hamming", "q=2", "m=3",
                     "--coordinate", "5")
    assert rc == 0
    assert "r_min = 3" in out
    assert out.count("c5 =") == 1


@pytest.mark.parametrize("coordinate", ["99", "7", "-1"])
def test_repair_sets_coordinate_outside_the_code_exits_1(capsys, coordinate):
    # -1 once printed coordinate 6's repair set under i = -1, 99 a traceback
    rc, out, err = run(capsys, "repair-sets", "hamming", "q=2", "m=3",
                       "--coordinate", coordinate)
    assert (rc, out) == (1, "")
    assert err == f"error: coordinate {coordinate} outside [0, 7)\n"


# ---------------------------------------------------------------------------
# validate-oval

def test_validate_oval_monomial_positive(capsys):
    rc, out, _ = run(capsys, "validate-oval", "q=8", "f=monomial:6")
    assert rc == 0
    assert "oval polynomial" in out
    assert "NOT" not in out


def test_validate_oval_monomial_negative(capsys):
    rc, out, _ = run(capsys, "validate-oval", "q=8", "f=monomial:3")
    assert rc == 0  # the check itself succeeded; the verdict is in the output
    assert "NOT an oval polynomial" in out


@pytest.mark.parametrize("e", [99999999999, 7 * 10 ** 10])
def test_validate_oval_huge_exponent_reads_as_its_residue(capsys, e):
    # x^e is the map of x^r on GF(8), r = e mod 7 taken in [1, 7]
    rc, out, err = run(capsys, "validate-oval", "q=8", f"f=monomial:{e}",
                       "--json")
    assert rc == 0 and err == ""
    result = json.loads(out)
    assert result["exponents"] == [e]
    r = (e - 1) % 7 + 1
    _, want, _ = run(capsys, "validate-oval", "q=8", f"f=monomial:{r}",
                     "--json")
    assert result["valid"] == json.loads(want)["valid"]


@pytest.mark.parametrize("argv", [
    ["validate-oval", "q=8", "f=translation:-1"],
    ["construct", "oval-code-gf", "q=8", "f=translation:-1"],
])
def test_translation_shift_below_one_is_refused(capsys, argv):
    # the shift 1 << h once ran first: a negative count was a traceback
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == "error: translation needs h >= 1, got h=-1\n"


@pytest.mark.parametrize("h", [4, 10 ** 21])
def test_translation_shift_reads_modulo_m(capsys, h):
    # x^(2^h) is x^(2^(h mod 3)) on GF(8); 1 << 10^21 once overflowed
    rc, out, err = run(capsys, "validate-oval", "q=8", f"f=translation:{h}")
    assert (rc, err) == (0, "")
    assert out == "x^2 over GF(8): oval polynomial\n"


@pytest.mark.parametrize("argv, message", [
    (["validate-oval", "q=32", "f=segre:99"], "segre takes no parameter, "
     "got segre:99"),
    (["validate-oval", "q=32", "f=payne:-5", "--json"], "payne takes no "
     "parameter, got payne:-5"),
    (["construct", "oval-code-gf", "q=8", "f=segre:5"], "segre takes no "
     "parameter, got segre:5"),
])
def test_oval_family_without_parameter_refuses_one(capsys, argv, message):
    # the parameter was once dropped: segre:99 printed x^6 and exited 0
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: {message}\n"


def test_translation_keeps_its_parameter(capsys):
    rc, out, err = run(capsys, "validate-oval", "q=32", "f=translation:3")
    assert (rc, err) == (0, "")
    assert out == "x^8 over GF(32): oval polynomial\n"


def test_validate_oval_catalog_json(capsys):
    rc, out, _ = run(capsys, "validate-oval", "q=32", "f=payne", "--json")
    assert rc == 0
    result = json.loads(out)
    assert result["valid"] is True
    assert result["exponents"] == [6, 16, 26]


def test_validate_oval_rejects_bad_family(capsys):
    rc, _, err = run(capsys, "validate-oval", "q=8", "f=nope")
    assert rc == 1
    assert "nope" in err


# ---------------------------------------------------------------------------
# tables

def test_table_one_all_rows_pass(capsys, monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "table", "1")
    assert rc == 0
    assert out.count("PASS") == 14
    assert "FAIL" not in out
    assert "skipped" not in out


def test_table_two_flags_known_discrepancy(capsys, monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "table", "2")
    assert rc == 1
    fail_lines = [ln for ln in out.splitlines() if ln.endswith("FAIL")]
    # the dual of the 8-point hyperoval extension truly has locality 8;
    # the published summary row says 7
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith("Bbar_f^perp")
    assert "(11,8,3;7)" in fail_lines[0]
    assert "(11,8,3;8)" in fail_lines[0]
    skipped = [ln for ln in out.splitlines() if ln.endswith("skipped: cap")]
    assert len(skipped) == 3
    assert all("q=32" in ln or "s=5" in ln for ln in skipped)


@pytest.mark.parametrize("only", ["q=32", "s=5"])
def test_table_skips_rows_before_building_them(capsys, monkeypatch, only):
    # without the pre-flight, s=5 would build its [33, 27] code and scan
    # weights 1 to 5 before the weight-6 price hit the cap
    def unbuildable(*args):
        raise RuntimeError("a row priced beyond the caps was built")

    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    monkeypatch.setattr(cli, "ovoid_code", unbuildable)
    monkeypatch.setattr(cli, "bch", unbuildable)
    rc, out, _ = run(capsys, "table", "2", "--only", only)
    assert rc == 2
    body = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert len(body) == (1 if only == "q=32" else 2)
    assert all(ln.endswith(SKIPPED) for ln in body)


def test_table_only_filter(capsys, monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "table", "2", "--only", "C_o^perp q=4")
    assert rc == 0
    body = [ln for ln in out.splitlines()[1:] if ln.strip()]
    assert len(body) == 1
    assert body[0].endswith("PASS")


def test_table_json_shape(capsys, monkeypatch):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    rc, out, _ = run(capsys, "table", "1", "--json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 14
    for row in rows:
        assert row["verdict"] == "PASS"
        assert row["computed"]["n"] == row["claimed"]["n"]
