"""Tests for locality computation, repair sets, and the two optimality
bounds."""

import inspect
import os
import random
import subprocess
import sys

import numpy as np
import pytest
import scalar_reference as ref

import locality_lab.code_core as code_core
import locality_lab.locality as locality_module

from locality_lab.cli import SKIPPED, _run_table_row, _table_rows
from locality_lab.code_core import (
    Caps,
    Words,
    distinct_supports,
    dual,
    exact_weight_words,
    extend,
    field_for_q,
    from_generator,
    is_cyclic,
    minimum_distance,
    puncture,
    shorten,
    weight_distribution,
)
from locality_lab.constructions import (
    arc_code,
    bch,
    code_bf_bar,
    code_gf,
    code_gf_bar,
    denniston_arc,
    elliptic_quadric,
    grm,
    grm_punctured,
    hamming,
    oval_poly,
    ovoid_code,
    simplex,
    ternary_golay,
)
from locality_lab.errors import (
    BadLocality,
    BadParameters,
    HypothesisViolated,
    LocalityInvariantBroken,
    NotARepairSet,
    PairingFailed,
    TrivialCode,
)
from locality_lab.gf import field_new
from locality_lab.locality import (
    LocalityReport,
    bounds_report,
    certified_locality,
    classify_d_optimality,
    classify_k_optimality,
    cm_bound_upper,
    is_nmds,
    is_nontrivial,
    k_opt_upper,
    llrc_string,
    minimum_linear_locality,
    nmds_locality_check,
    nmds_support_pairing,
    repair_coefficients,
    singleton_like,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)

TETRACODE = [[1, 0, 1, 1], [0, 1, 1, 2]]  # [4, 2, 3] MDS over GF(3)


def all_codewords(C):
    q, k = C.field.q, C.k
    for enc in range(q ** k):
        msg, e = [], enc
        for _ in range(k):
            msg.append(e % q)
            e //= q
        yield ref.encode(C, msg)


# ---------------------------------------------------------------------------
# nontriviality

def test_is_nontrivial():
    assert is_nontrivial(hamming(3, 3))
    assert not is_nontrivial(from_generator(F2, [[1, 0], [0, 1]]))  # whole space
    # identically-zero coordinate makes the dual distance 1
    assert not is_nontrivial(from_generator(F2, [[1, 0, 0], [0, 1, 0]]))
    # weight-1 codeword makes the distance 1
    assert not is_nontrivial(from_generator(F2, [[1, 0, 0], [0, 1, 1]]))
    with pytest.raises(TrivialCode):
        minimum_linear_locality(from_generator(F3, [[1, 0], [0, 1]]))


def test_is_nontrivial_matches_weight_one_words():
    # sparse random generators, so that zero columns and weight-1 words
    # turn up in the code and in its dual
    rng = random.Random(8)
    for q in (2, 3, 4, 5):
        F = field_for_q(q)
        for _ in range(40):
            n = rng.randint(1, 7)
            rows = [[rng.randrange(q) if rng.random() < 0.6 else 0
                     for _ in range(n)] for _ in range(rng.randint(1, n))]
            if not any(map(any, rows)):
                continue
            C = from_generator(F, rows)
            want = (0 < C.k < C.n and not len(exact_weight_words(C, 1))
                    and not len(exact_weight_words(dual(C), 1)))
            assert is_nontrivial(C) == want, C.gen


# ---------------------------------------------------------------------------
# minimum linear locality

def test_locality_simplex_and_hamming():
    rs = minimum_linear_locality(simplex(3, 3))
    assert (rs.r_min, rs.w_star, rs.d_dual) == (2, 3, 3)
    assert rs.is_dperp_minus_1
    rh = minimum_linear_locality(hamming(3, 3))
    assert (rh.r_min, rh.w_star, rh.d_dual) == (8, 9, 9)
    assert rh.coverage_by_weight == {9: tuple(range(13))}


def test_locality_report_invariants():
    for C in (hamming(2, 3), grm(3, 1, 2), dual(grm(3, 1, 2)),
              ternary_golay()):
        rep = minimum_linear_locality(C)
        assert rep.r_min >= rep.d_dual - 1
        covered = set()
        for i, options in enumerate(rep.repair_options):
            assert options, f"coordinate {i} has no repair support"
            for support in options:
                assert i in support
                assert len(support) == rep.w_star or \
                    len(support) < rep.w_star
            covered.update(j for s in options for j in s)
        assert covered == set(range(C.n))
        # every reported support really carries a dual codeword: the
        # repair coefficients must reconstruct coordinate i everywhere
        for i in range(C.n):
            coeffs = repair_coefficients(C, i, rep.repair_set(i))
            for word in all_codewords(C):
                acc = 0
                for j, u in coeffs.items():
                    acc = C.field.add(acc, C.field.mul(u, word[j]))
                assert acc == word[i]


# the codes of the perfbench `families` workload
FAMILIES = {
    "grm q=2 ell=2 m=5": lambda: grm(2, 2, 5),
    "ovoid-elliptic q=8 --dual": lambda: dual(ovoid_code(elliptic_quadric(8))),
    "arc-denniston q=16 h=4": lambda: arc_code(denniston_arc(16, 4)),
    "oval-code-gf q=32 f=segre": lambda: code_gf(oval_poly("segre", 32)),
    "hamming q=2 m=6": lambda: hamming(2, 6),
    "grm q=2 ell=1 m=5": lambda: grm(2, 1, 5),
    "bch q=16 n=17 delta=3": lambda: bch(16, 17, 3, 1),
    "grm-punctured q=4 ell=1 m=3": lambda: grm_punctured(4, 1, 3),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_repair_options_are_strictly_ascending(family):
    # the report keeps each coordinate's supports in the order the scan
    # lists them, without sorting: that order must already be ascending
    rep = minimum_linear_locality(FAMILIES[family]())
    for options in rep.repair_options:
        assert all(a < b for a, b in zip(options, options[1:]))


def test_locality_strictly_above_dual_distance():
    # the decisive case: weight-3 dual words of this code miss a
    # coordinate, so the locality exceeds d(dual) - 1
    C = code_gf(oval_poly("translation", 8, 1))
    rep = minimum_linear_locality(C)
    assert rep.d_dual == 3
    assert rep.r_min == 3
    assert not rep.is_dperp_minus_1
    assert len(rep.coverage_by_weight[3]) == C.n - 1


def test_locality_cyclic_fast_path():
    for C in (bch(9, 10, 3, 1), bch(16, 17, 3, 1), ternary_golay(),
              bch(2, 7, 3, 1)):
        rep = minimum_linear_locality(C)
        assert rep.r_min == rep.d_dual - 1  # verified, not assumed


# dual words of weight 2 miss coordinate 2, so r = 2 = d(dual): not cyclic
NOT_CYCLIC = [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]]


def test_wrong_cyclic_flag_is_caught(monkeypatch):
    C = from_generator(F2, NOT_CYCLIC)
    assert not is_cyclic(C)
    assert minimum_linear_locality(C).r_min == 2
    # a shift check that wrongly certifies C is caught by the invariant
    monkeypatch.setattr(locality_module, "is_cyclic", lambda C: True)
    with pytest.raises(LocalityInvariantBroken, match="cyclic"):
        minimum_linear_locality(C)
    with pytest.raises(LocalityInvariantBroken, match="cyclic"):
        certified_locality(C)


def test_every_searched_word_is_checked(monkeypatch):
    search = locality_module.exact_weight_words

    def corrupt_last(D, w, caps=None, through=None):
        words = search(D, w, caps, through)
        values = words.values.copy()
        if len(words):  # zero the last entry of the last word's support
            values[-1, -1] = 0
        return Words(words.support, values)

    monkeypatch.setattr(locality_module, "exact_weight_words", corrupt_last)
    with pytest.raises(LocalityInvariantBroken, match="outside the dual"):
        minimum_linear_locality(hamming(2, 5))  # 31 dual words of weight 16

    monkeypatch.setattr(locality_module, "exact_weight_words",
                        lambda D, w, caps=None, through=None:
                        ref.words_of(np.zeros((0, D.n), np.int32)))
    with pytest.raises(LocalityInvariantBroken, match="uncovered"):
        minimum_linear_locality(hamming(2, 3))


def field_tables(F):
    """The addition and multiplication tables of F, as (q, q) arrays."""
    q = F.q
    return (np.array([[F.add(a, b) for b in range(q)] for a in range(q)]),
            np.array([[F.mul(a, b) for b in range(q)] for a in range(q)]))


def span_of(F, rows, n):
    """Every word of the span of rows, all q^len(rows) combinations."""
    ADD, MUL = field_tables(F)
    coeffs = np.indices((F.q,) * len(rows)).reshape(len(rows), -1)
    words = np.zeros((coeffs.shape[1], n), dtype=np.intp)
    for c, row in zip(coeffs, rows):
        words = ADD[words, MUL[c[:, None], np.array(row)[None, :]]]
    return words


def brute_force_report(C):
    """The LocalityReport of C read off every word of its dual: coordinate
    j is first covered at w_j, the least weight of a dual word through j,
    and its options are the supports of weight w_j through it."""
    n = C.n
    D_rows, _ = ref.dual(C.field, C.gen, n)
    supports = [tuple(np.flatnonzero(m).tolist()) for m in
                np.unique(span_of(C.field, D_rows, n) != 0, axis=0)]
    supports = [s for s in supports if s]
    w_of = [min(len(s) for s in supports if j in s) for j in range(n)]
    d_dual, w_star = min(map(len, supports)), max(w_of)
    return LocalityReport(
        r_min=w_star - 1,
        w_star=w_star,
        d_dual=d_dual,
        is_dperp_minus_1=w_star == d_dual,
        coverage_by_weight={w: tuple(j for j in range(n) if w_of[j] == w)
                            for w in range(d_dual, w_star + 1)},
        repair_options=tuple(
            tuple(sorted(s for s in supports if len(s) == w_of[j] and j in s))
            for j in range(n)))


def differential_roster():
    """About 40 tiny random nontrivial codes over GF(2), GF(3) and GF(4),
    then the oval code and NOT_CYCLIC, whose coverage spans two weights."""
    rng = random.Random(1414)
    codes = []
    while len(codes) < 40:
        q = rng.choice([2, 3, 4])
        n = rng.randint(4, 9)
        k = rng.randint(max(1, n - {2: 8, 3: 6, 4: 5}[q]), n - 1)
        C = from_generator(field_for_q(q), [[rng.randrange(q)
                                             for _ in range(n)]
                                            for _ in range(k)])
        if is_nontrivial(C):
            codes.append(C)
    return codes + [code_gf(oval_poly("translation", 8, 1)),
                    from_generator(F2, NOT_CYCLIC)]


def test_locality_matches_brute_force_over_the_whole_dual():
    spanning = 0
    for C in differential_roster():
        rep, want = minimum_linear_locality(C), brute_force_report(C)
        for field in ("r_min", "w_star", "d_dual", "is_dperp_minus_1",
                      "coverage_by_weight", "repair_options"):
            assert getattr(rep, field) == getattr(want, field), (C.gen, field)
        if sum(map(bool, rep.coverage_by_weight.values())) < 2:
            continue
        # coverage over two or more weights: the restricted scan ran, and
        # every repair rule it reported holds on every codeword
        spanning += 1
        ADD, MUL = field_tables(C.field)
        words = span_of(C.field, C.gen, C.n)
        for i, options in enumerate(rep.repair_options):
            for support in options:
                rule = repair_coefficients(C, i, set(support) - {i})
                acc = np.zeros(len(words), dtype=np.intp)
                for j, u in rule.items():
                    acc = ADD[acc, MUL[u, words[:, j]]]
                assert np.array_equal(acc, words[:, i]), (C.gen, i, support)
    assert spanning >= 5


def test_invariant_checks_survive_optimize():
    script = ("import locality_lab.locality as locality\n"
              "from locality_lab.code_core import from_generator\n"
              "from locality_lab.errors import LocalityInvariantBroken\n"
              "from locality_lab.gf import field_new\n"
              f"C = from_generator(field_new(2, 1), {NOT_CYCLIC!r})\n"
              "locality.is_cyclic = lambda C: True\n"
              "try:\n"
              "    locality.minimum_linear_locality(C)\n"
              "except LocalityInvariantBroken:\n"
              "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr


# each former assert of locality and designs, broken on purpose; the script
# prints the name of every check that raised its bug-signal error
BROKEN_INVARIANTS = """
import numpy as np
import locality_lab.designs as designs
import locality_lab.locality as locality
from locality_lab.code_core import Words, from_generator
from locality_lab.constructions import hamming
from locality_lab.errors import (DesignInvariantBroken,
                                 LocalityInvariantBroken, PairingFailed)
from locality_lab.gf import field_new


def expect(name, error, call):
    try:
        call()
    except error:
        print(name)


C = from_generator(field_new(2, 1), [[1, 0, 1], [0, 1, 1]])
locality.nullspace = lambda F, rows, ncols: [[1, 0, 1]]
expect("repair_coefficients", LocalityInvariantBroken,
       lambda: locality.repair_coefficients(C, 2, [0, 1]))

locality.is_nmds = lambda C, caps=None: True
locality.minimum_distance = lambda C, caps=None: 1
locality.exact_weight_words = lambda D, w, caps=None: Words(
    np.array([[0]] if D is C else [[1]]), np.ones((1, 1), dtype=np.int32))
expect("nmds_support_pairing", PairingFailed,
       lambda: locality.nmds_support_pairing(C))

pair = designs.DesignReport(4, 2, ((0, 1), (2, 3)), {}, False)
expect("t-design is a t'-design", DesignInvariantBroken,
       lambda: designs._check_downward_consistency(pair, {1: 1, 2: 1}))
single = designs.DesignReport(4, 2, ((0, 1),), {}, False)
expect("block count", DesignInvariantBroken,
       lambda: designs._check_downward_consistency(single, {1: 1}))

designs.certified_locality = lambda C, caps=None: 99
expect("one_design_locality_link", LocalityInvariantBroken,
       lambda: designs.one_design_locality_link(hamming(2, 3)))
"""


def test_former_asserts_raise_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_INVARIANTS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "repair_coefficients", "nmds_support_pairing",
        "t-design is a t'-design", "block count",
        "one_design_locality_link"], proc.stderr


# ---------------------------------------------------------------------------
# certified locality: r by first cover

KERNELS = ("_words_by_enumeration", "_words_by_kernels", "_words_by_join")


def test_certified_locality_matches_brute_force():
    for C in differential_roster():
        assert certified_locality(C) == brute_force_report(C).r_min, C.gen


def test_certified_locality_matches_the_full_scan_on_the_tables():
    # every row the table computes at the default caps reads r off the
    # certificate; the full scan must give the same r on the same code
    computed, past_d_dual = 0, []
    for which in (1, 2):
        for label, q, build, *rest in _table_rows(which):
            row = _run_table_row(label, q, build, *rest, Caps())
            if row["computed"] == SKIPPED:
                continue
            computed += 1
            rep = minimum_linear_locality(build())
            assert row["computed"]["r"] == rep.r_min, label
            if rep.r_min == rep.d_dual:
                past_d_dual.append(label)
    assert computed == 31
    # r = d(dual) (3, 3 and 8): the loop must go on past weight d(dual)
    assert past_d_dual == ["C_f q=8 f=translation:1",
                           "Cbar_f q=8 f=translation:1",
                           "Bbar_f^perp q=8 f=translation:1"]


def _corrupting(kernel):
    """kernel, but with the last entry of the first word it yields zeroed:
    a nontrivial code has no zero column, so that word leaves the dual."""
    def corrupted(*args):
        done = False
        for S, V in kernel(*args):
            if len(S) and not done:
                V, done = V.copy(), True
                V[0, -1] = 0
            yield S, V
    return corrupted


@pytest.mark.parametrize("C", [hamming(3, 3), simplex(3, 3),
                               code_gf(oval_poly("translation", 8, 1))],
                         ids=["enumeration", "join", "kernels"])
def test_certified_locality_checks_every_block(monkeypatch, C):
    for name in KERNELS:
        monkeypatch.setattr(code_core, name,
                            _corrupting(getattr(code_core, name)))
    with pytest.raises(LocalityInvariantBroken, match="outside the dual"):
        certified_locality(C)


def test_certified_locality_refuses_a_dual_that_covers_nothing(monkeypatch):
    for name in KERNELS:
        monkeypatch.setattr(code_core, name, lambda *args: iter(()))
    with pytest.raises(LocalityInvariantBroken, match="uncovered"):
        certified_locality(hamming(2, 3))


def test_certified_locality_check_survives_optimize():
    script = ("import locality_lab.code_core as code_core\n"
              "from locality_lab.constructions import hamming\n"
              "from locality_lab.errors import LocalityInvariantBroken\n"
              "from locality_lab.locality import certified_locality\n"
              + inspect.getsource(_corrupting) +
              "code_core._words_by_enumeration = _corrupting(\n"
              "    code_core._words_by_enumeration)\n"
              "try:\n"
              "    certified_locality(hamming(3, 3))\n"
              "except LocalityInvariantBroken:\n"
              "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_certified_locality_stops_at_the_first_cover(monkeypatch):
    # the [18, 13] GF(16) rank scan of the s = 4 ext row covers every
    # coordinate in its first block at weight 5; the full scan reads all
    label = "ext(C_(2^s,2^s+1,3,1))^perp s=4"
    build = next(row[2] for row in _table_rows(2) if row[0] == label)
    kernel, blocks = code_core._words_by_kernels, []

    def counted(*args):
        for block in kernel(*args):
            blocks.append(len(block[0]))
            yield block

    monkeypatch.setattr(code_core, "_words_by_kernels", counted)
    C = build()
    minimum_distance(dual(C))  # cached, so only the locality scans count
    r = certified_locality(C)
    certified = len(blocks)
    assert minimum_linear_locality(C).r_min == r == 4
    assert 0 < certified < len(blocks) - certified


# ---------------------------------------------------------------------------
# repair coefficients

def test_repair_coefficients_parity():
    C = from_generator(F2, [[1, 0, 1], [0, 1, 1]])  # even-weight [3, 2, 2]
    assert repair_coefficients(C, 0, {1, 2}) == {1: 1, 2: 1}


def test_repair_coefficients_simplex():
    C = simplex(3, 3)
    rep = minimum_linear_locality(C)
    for i in range(C.n):
        support = rep.repair_set(i)
        assert len(support) == 2
        coeffs = repair_coefficients(C, i, support)
        assert all(u != 0 for u in coeffs.values())


def test_repair_coefficients_rejects_non_repair_sets():
    C = hamming(2, 3)
    with pytest.raises(NotARepairSet):
        repair_coefficients(C, 0, {1})  # no dual word lives on two coords
    with pytest.raises(NotARepairSet):
        repair_coefficients(C, 0, {0, 1, 2})  # target inside the set


# ---------------------------------------------------------------------------
# Singleton-like bound

def test_singleton_like_values():
    assert singleton_like(13, 10, 8) == 3
    assert singleton_like(17, 13, 11) == 4
    assert singleton_like(9, 3, 3) == 7
    with pytest.raises(BadLocality):
        singleton_like(10, 5, 0)
    with pytest.raises(BadParameters):
        singleton_like(3, 5, 2)


def test_classify_d_optimality():
    assert classify_d_optimality(hamming(3, 3), 8) == "d_optimal"
    assert classify_d_optimality(grm(3, 1, 2), 2) == "d_optimal"
    assert classify_d_optimality(code_gf(oval_poly("translation", 8, 1)),
                                 3) == "almost_d_optimal"
    # d = 3 against a bound of 5
    C = from_generator(F2, [[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 1]])
    assert minimum_linear_locality(C).r_min == 2
    assert classify_d_optimality(C, 2) == "neither"


# ---------------------------------------------------------------------------
# dimension bounds

def test_k_opt_upper_examples():
    assert k_opt_upper(10, 9, 3) == (1, "plotkin")
    assert k_opt_upper(12, 12, 5) == (1, "singleton")
    assert k_opt_upper(4, 3, 3) == (2, "singleton")
    value, name = k_opt_upper(9, 4, 8)
    assert value <= 8 - 2 and name == "singleton"
    assert k_opt_upper(10, 5, 2) == (3, "griesmer")
    with pytest.raises(BadParameters):
        k_opt_upper(10, 0, 3)
    with pytest.raises(BadParameters):
        k_opt_upper(10, 11, 3)


def test_k_opt_upper_is_actually_an_upper_bound():
    # every constructed code obeys every bound the helper reports
    for C in (hamming(3, 3), simplex(3, 3), grm(3, 1, 2), ternary_golay(),
              bch(9, 10, 3, 1)):
        d = minimum_distance(C)
        assert C.k <= k_opt_upper(C.n, d, C.q())[0]


def test_cm_bound():
    cm = cm_bound_upper(13, 9, 3, 2)
    assert cm.rhs == 3
    assert cm.components[0].t == 1
    assert cm.components[0].value == 3
    assert cm_bound_upper(13, 3, 3, 8).rhs == 10
    with pytest.raises(BadLocality):
        cm_bound_upper(13, 9, 3, 0)


def test_classify_k_optimality():
    assert classify_k_optimality(simplex(3, 3), 2) == "k_optimal_certified"
    assert classify_k_optimality(hamming(3, 3), 8) == "k_optimal_certified"
    rng = random.Random(11)
    while True:  # a random [10, 3, d>=2] code is far from the bound
        C = from_generator(F3, [[rng.randrange(3) for _ in range(10)]
                                for _ in range(3)])
        if C.k == 3 and is_nontrivial(C):
            break
    r = minimum_linear_locality(C).r_min
    cm = cm_bound_upper(C.n, minimum_distance(C), 3, r)
    if C.k < cm.rhs:
        assert classify_k_optimality(C, r) == "inconclusive"


def test_bounds_report_assembly():
    C = dual(ovoid_code(elliptic_quadric(4)))
    rep = bounds_report(C, 11)
    assert rep.singleton_like_rhs == 4
    assert rep.d_optimal and not rep.almost_d_optimal
    assert rep.cm_rhs_ub == 13 and rep.k_optimal_certified
    js = rep.to_json()
    assert js["singleton_like_rhs"] == 4
    assert js["k_opt_components"][0]["t"] == 1


# ---------------------------------------------------------------------------
# near-MDS codes

def test_amds_nmds():
    assert is_nmds(bch(9, 10, 3, 1))
    assert is_nmds(ternary_golay())
    assert is_nmds(code_gf(oval_poly("translation", 8, 1)))
    mds = from_generator(F3, TETRACODE)
    assert not ref.is_amds(mds)
    assert not is_nmds(mds)
    with pytest.raises(TrivialCode):
        is_nmds(from_generator(F3, [[1, 0], [0, 1]]))


def test_nmds_locality_dichotomy():
    assert nmds_locality_check(bch(9, 10, 3, 1)) == "dperp_minus_1"
    f = oval_poly("translation", 8, 1)
    assert nmds_locality_check(code_gf(f)) == "dperp"
    assert nmds_locality_check(code_gf_bar(f)) == "dperp"
    assert nmds_locality_check(code_bf_bar(f)) == "dperp_minus_1"
    with pytest.raises(HypothesisViolated):
        nmds_locality_check(from_generator(F3, TETRACODE))


def test_nmds_support_pairing():
    G = ternary_golay()
    pairs = nmds_support_pairing(G)
    assert len(pairs) == 66  # 132 words over GF(3), two per support
    assert weight_distribution(G).counts[5] == 132
    # each partner is the one dual support disjoint from the word's
    dual_supports = distinct_supports(exact_weight_words(dual(G), 6))
    for c, h in pairs:
        assert [t for t in dual_supports if set(c).isdisjoint(t)] == [h]
        assert len(c) + len(h) == G.n
    B = bch(9, 10, 3, 1)
    assert len(nmds_support_pairing(B)) * 8 == 240


# (distances of C and its dual, their minimum-weight words, the error)
PAIRING_FAILURES = [
    ((1, 2), [[1, 0, 0]], [[0, 1, 1], [1, 1, 0]], "classes"),
    ((1, 1), [[1, 0, 0]], [[0, 1, 0]], "partition"),
    ((1, 2), [[1, 0, 0]], [[1, 1, 0]], "has 0 partners"),
    ((1, 2), [[1, 0, 0], [0, 0, 1]], [[0, 1, 1], [0, 1, 1]],
     "has 2 partners"),
    ((1, 2), [[1, 0, 0], [1, 0, 0]], [[0, 1, 1], [1, 1, 0]],
     "has 1 partners"),
]


@pytest.mark.parametrize("dists, words, dual_words, error", PAIRING_FAILURES)
def test_nmds_support_pairing_failures(monkeypatch, dists, words, dual_words,
                                       error):
    C = from_generator(F2, [[1, 0, 1], [0, 1, 1]])
    monkeypatch.setattr(locality_module, "is_nmds", lambda C, caps=None: True)
    monkeypatch.setattr(locality_module, "minimum_distance",
                        lambda D, caps=None: dists[D is not C])
    monkeypatch.setattr(
        locality_module, "exact_weight_words", lambda D, w, caps=None:
        ref.words_of(words if D is C else dual_words))
    with pytest.raises(PairingFailed, match=error):
        nmds_support_pairing(C)


def test_llrc_string():
    assert llrc_string(13, 10, 3, 3, 8) == "(13, 10, 3, 3; 8)"


# ---------------------------------------------------------------------------
# randomized property suite

def random_nontrivial_code(rng, field, n, k):
    while True:
        C = from_generator(field, [[rng.randrange(field.q) for _ in range(n)]
                                   for _ in range(k)])
        if 0 < C.k < C.n and is_nontrivial(C):
            return C


def test_property_locality_lower_bound_and_bound_soundness():
    rng = random.Random(23)
    fields = [field_new(2, 1), F3, field_new(2, 2)]
    for trial in range(40):
        field = fields[trial % 3]
        n = rng.randrange(6, 12)
        k = rng.randrange(2, n - 1)
        C = random_nontrivial_code(rng, field, n, k)
        rep = minimum_linear_locality(C)
        assert rep.r_min >= rep.d_dual - 1
        d = minimum_distance(C)
        assert d <= singleton_like(C.n, C.k, rep.r_min)
        assert C.k <= cm_bound_upper(C.n, d, C.q(), rep.r_min).rhs
        # spot-check one repair set per code
        i = rng.randrange(C.n)
        coeffs = repair_coefficients(C, i, rep.repair_set(i))
        msg = [rng.randrange(field.q) for _ in range(C.k)]
        word = ref.encode(C, msg)
        acc = 0
        for j, u in coeffs.items():
            acc = field.add(acc, field.mul(u, word[j]))
        assert acc == word[i]


def test_property_shortening_preserves_bound_soundness():
    # derived codes (puncture/shorten/extend/dual) stay inside both bounds
    rng = random.Random(41)
    base = [hamming(3, 3), simplex(3, 3), bch(9, 10, 3, 1), ternary_golay()]
    derived = []
    for C in base:
        t = rng.randrange(C.n)
        derived.extend([puncture(C, {t}), shorten(C, {t}), dual(C)])
    derived.append(extend(bch(9, 10, 3, 1)))
    for C in derived:
        if not (0 < C.k < C.n) or not is_nontrivial(C):
            continue
        rep = minimum_linear_locality(C)
        d = minimum_distance(C)
        assert d <= singleton_like(C.n, C.k, rep.r_min)
        assert C.k <= cm_bound_upper(C.n, d, C.q(), rep.r_min).rhs


def test_locality_report_json():
    rep = minimum_linear_locality(simplex(3, 3))
    js = rep.to_json()
    assert js["r_min"] == 2 and js["is_dperp_minus_1"] is True
    assert set(js["coverage_by_weight"]) == {"3"}
    assert len(js["repair_options"]) == 13


def test_locality_report_json_shares_one_list_per_support():
    # the [65, 61] dual of the q = 8 elliptic-quadric ovoid code: 520
    # weight-56 supports, each listed by all 56 coordinates it covers
    rep = minimum_linear_locality(dual(ovoid_code(elliptic_quadric(8))))
    options = rep.to_json()["repair_options"]
    assert len(options) == 65
    assert {len(opts) for opts in options} == {448}
    lists = {id(s): s for opts in options for s in opts}
    assert len(lists) == 520
    assert sorted(map(tuple, lists.values())) == sorted(
        {s for opts in rep.repair_options for s in opts})
