"""Tests for support-design extraction and t-design verification."""

import math

import pytest

from locality_lab import designs
from locality_lab.code_core import Caps, dual
from locality_lab.constructions import (
    bch,
    code_gf,
    elliptic_quadric,
    grm,
    hamming,
    oval_poly,
    ovoid_code,
    simplex,
    ternary_golay,
)
from locality_lab.designs import (
    analyze_design,
    one_design_locality_link,
    support_blocks,
    verify_t_design,
)
from locality_lab.errors import BadParameters, InconsistentInput, SearchTooLarge


def test_support_blocks_golay():
    G = ternary_golay()
    rep = support_blocks(G, 5)
    assert rep.block_count() == 66  # 132 words, collapsed by scalar
    assert all(len(b) == 5 for b in rep.blocks)
    assert len(set(rep.blocks)) == 66
    assert support_blocks(G, 4).blocks == ()  # no weight-4 words


@pytest.mark.parametrize("entry", [support_blocks, analyze_design])
def test_negative_block_sizes_are_refused(entry):
    with pytest.raises(InconsistentInput, match="^weight -1 is negative$"):
        entry(hamming(2, 3), -1)


def test_support_blocks_simplex():
    rep = support_blocks(simplex(3, 2), 3)
    assert rep.n == 4 and rep.block_count() == 4


def test_steiner_quadruple_system():
    rep = analyze_design(bch(9, 10, 3, 1), 4, t_max=3)
    assert rep.block_count() == 30
    assert rep.t_lambda[3] == 1
    assert rep.is_steiner
    # block-count identity for the Steiner system
    assert 30 * math.comb(4, 3) == math.comb(10, 3)


def test_two_design_q16():
    rep = analyze_design(bch(16, 17, 3, 1), 4, t_max=3)
    assert rep.block_count() == 136
    assert rep.t_lambda[2] == 6
    assert 3 not in rep.t_lambda
    assert not rep.is_steiner


def test_ovoid_three_design():
    rep = analyze_design(ovoid_code(elliptic_quadric(4)), 12, t_max=3)
    assert rep.block_count() == 68
    assert rep.t_lambda[3] == 22  # (q-2)(q^2-q-1) at q = 4
    assert rep.t_lambda[2] == 33 and rep.t_lambda[1] == 48


def test_golay_four_design():
    rep = analyze_design(ternary_golay(), 5, t_max=4)
    assert rep.t_lambda == {1: 30, 2: 12, 3: 4, 4: 1}
    assert rep.is_steiner


def test_each_level_is_counted_once(monkeypatch):
    levels = []
    count = designs._coverage_counts

    def recording(report, t):
        levels.append(t)
        return count(report, t)

    monkeypatch.setattr(designs, "_coverage_counts", recording)
    rep = analyze_design(ternary_golay(), 5, t_max=4)
    assert rep.t_lambda == {1: 30, 2: 12, 3: 4, 4: 1}
    assert levels == [1, 2, 3, 4]


def test_verify_t_design_non_design():
    # weight-3 dual supports of this code miss a coordinate entirely
    C = dual(code_gf(oval_poly("translation", 8, 1)))
    rep = support_blocks(C, 3)
    assert rep.blocks
    assert verify_t_design(rep, 1) is None
    with pytest.raises(BadParameters):
        verify_t_design(rep, 0)
    with pytest.raises(BadParameters):
        verify_t_design(rep, 4)


def test_design_count_is_charged_against_the_search_cap():
    # RM(1, 5): its 62 words of weight 16 cost 2,016 to list, and their
    # blocks hold 62 * (16 + 120 + 560) t-subsets up to t = 3
    C = grm(2, 1, 5)
    price = 62 * sum(math.comb(16, t) for t in range(1, 4))
    with pytest.raises(SearchTooLarge, match=f"costs {price} t-subsets"):
        analyze_design(C, 16, t_max=3, caps=Caps(search=price - 1))
    rep = analyze_design(C, 16, t_max=3, caps=Caps(search=price))
    assert rep.t_lambda == {1: 31, 2: 15, 3: 7}
    with pytest.raises(SearchTooLarge, match=f"costs {price} t-subsets"):
        verify_t_design(rep, 3, Caps(search=price - 1))
    assert verify_t_design(rep, 3, Caps(search=price)) == 7


def test_design_report_json():
    rep = analyze_design(bch(9, 10, 3, 1), 4, t_max=3)
    js = rep.to_json()
    assert js["block_count"] == 30
    assert js["t_lambda"]["3"] == 1
    assert js["is_steiner"] is True
    assert js["blocks"][0] == sorted(js["blocks"][0])


def test_one_design_locality_link():
    assert one_design_locality_link(hamming(3, 3))
    assert one_design_locality_link(ternary_golay())
    assert not one_design_locality_link(code_gf(oval_poly("translation", 8, 1)))
