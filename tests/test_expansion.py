"""Polymer series: Ursell coefficients, truncations, Q criterion, counting."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import (
    BudgetExceededError,
    InvalidDegreeSequenceError,
    OrderTooLargeError,
)

import support as sp


def _mask_polymer(mask: int) -> lg.Polymer:
    """Synthetic polymer whose only meaningful payload is its node mask."""
    return lg.Polymer(edge_ids=(), node_mask=mask, size=bin(mask).count("1"))


def _overlap_polymers(m: int, edges: frozenset[tuple[int, int]]) -> list[lg.Polymer]:
    """Polymers realizing a prescribed overlap pattern, one bit per edge."""
    edge_list = sorted(edges)
    masks = [0] * m
    for bit, (u, v) in enumerate(edge_list):
        masks[u] |= 1 << bit
        masks[v] |= 1 << bit
    base = len(edge_list)
    for v in range(m):
        if masks[v] == 0:
            masks[v] = 1 << (base + v)  # private bit for isolated vertices
    return [_mask_polymer(x) for x in masks]


def _zero_messages(g):
    return lg.MessageSet(
        kind=g.weights.kind,
        var_to_check=np.zeros(g.edge_count),
        check_to_var=np.zeros(g.edge_count),
    )


def _single_polymer_fixture(k: float):
    """4-cycle whose lone polymer has activity exactly k at zero messages."""
    a = 0.6
    h0, h1 = math.atanh(a), math.atanh(k / a)
    g = lg.build_factor_graph(
        2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)], lg.LdgmWeights((h0, h1))
    )
    return g, _zero_messages(g)


# ---------------------------------------------------------------------------
# Ursell coefficients


def test_ursell_hand_values():
    a = _mask_polymer(0b0011)
    b = _mask_polymer(0b0110)
    c = _mask_polymer(0b1100)
    d = _mask_polymer(0b110000)
    assert lg.ursell([a]) == 1
    assert lg.ursell([a, b]) == -1
    assert lg.ursell([a, c]) == 0  # disjoint
    assert lg.ursell([a, b, c]) == 1  # path overlap
    tri = _overlap_polymers(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert lg.ursell(tri) == 2  # triangle overlap
    assert lg.ursell([a, b, c, d]) == 0  # d floats free


def test_ursell_order_cap():
    a = _mask_polymer(0b1)
    lg.ursell([a] * 7)
    with pytest.raises(OrderTooLargeError):
        lg.ursell([a] * 8)


def test_connected_mayer_sum_matches_subset_oracle():
    for m in (1, 2, 3, 4):
        all_edges = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(all_edges)):
            edges = frozenset(
                all_edges[k] for k in range(len(all_edges)) if bits >> k & 1
            )
            assert lg.connected_mayer_sum(m, edges) == sp.oracle_mayer(m, edges)


def test_ursell_equals_mayer_sum_of_overlap_pattern():
    patterns = [
        frozenset({(0, 1), (1, 2), (2, 3)}),
        frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
        frozenset({(0, 1), (0, 2), (0, 3)}),
        frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}),
    ]
    for edges in patterns:
        polys = _overlap_polymers(4, edges)
        assert lg.ursell(polys) == lg.connected_mayer_sum(4, edges)


def test_ursell_tree_graph_inequality():
    # |U| is bounded by the number of spanning trees of the overlap pattern
    for m in (2, 3, 4):
        all_edges = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(all_edges)):
            edges = frozenset(
                all_edges[k] for k in range(len(all_edges)) if bits >> k & 1
            )
            u = lg.connected_mayer_sum(m, edges)
            assert abs(u) <= sp.spanning_tree_count(m, edges)


# ---------------------------------------------------------------------------
# truncated series


@pytest.mark.parametrize("k", [0.15, -0.2, 0.3])
def test_series_single_polymer_is_log_expansion(k):
    g, zero = _single_polymer_fixture(k)
    sr = lg.polymer_series(g, zero, m_max=6)
    assert sr.polymer_count == 1
    for order in range(1, 7):
        expected = (-1.0) ** (order - 1) * k**order / order
        assert sr.terms[order - 1] == pytest.approx(expected, abs=1e-14)
    assert abs(sr.partial_sums[-1] - math.log1p(k)) <= abs(k) ** 7


@pytest.mark.parametrize("k", [0.15, -0.2, 0.3])
def test_series_partial_sums_contract(k):
    g, zero = _single_polymer_fixture(k)
    sr = lg.polymer_series(g, zero, m_max=5)
    target = math.log1p(k)
    errs = [abs(s - target) for s in sr.partial_sums]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_series_disjoint_pair_adds_logs():
    h = (math.atanh(0.5), math.atanh(0.3), math.atanh(0.4), math.atanh(0.25))
    edges = [
        (0, 0), (1, 0), (0, 1), (1, 1),
        (2, 2), (3, 2), (2, 3), (3, 3),
    ]
    g = lg.build_factor_graph(4, 4, edges, lg.LdgmWeights(h))
    zero = _zero_messages(g)
    k1 = 0.5 * 0.3
    k2 = 0.4 * 0.25
    sr = lg.polymer_series(g, zero, m_max=6)
    assert sr.polymer_count == 2
    target = math.log1p(k1) + math.log1p(k2)
    # cross-connected orders all vanish, each order is the sum of the two
    # scalar expansions
    for order in range(1, 7):
        expected = (-1.0) ** (order - 1) * (k1**order + k2**order) / order
        assert sr.terms[order - 1] == pytest.approx(expected, abs=1e-14)
    assert abs(sr.partial_sums[-1] - target) <= abs(k1) ** 7 + abs(k2) ** 7


def test_series_z_scaling():
    g, zero = _single_polymer_fixture(0.25)
    base = lg.polymer_series(g, zero, m_max=4)
    scaled = lg.polymer_series(g, zero, m_max=4, z=0.5)
    for idx in range(4):
        assert scaled.terms[idx] == pytest.approx(
            0.5 ** (idx + 1) * base.terms[idx], abs=1e-15
        )


def test_series_on_tree_is_empty():
    g = sp.random_tree(9, 1, "ldgm")
    res = lg.solve_fixed_point(g)
    sr = lg.polymer_series(g, res.messages, m_max=4)
    assert sr.polymer_count == 0
    assert all(t == 0.0 for t in sr.terms)
    assert sr.q == 0.0


def test_series_size_cutoff_matches_restricted_polymer_list():
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    res = lg.solve_fixed_point(g)
    cut = lg.polymer_series(g, res.messages, m_max=2, size_cutoff=5)
    small = lg.enumerate_polymers(g, max_size=5)
    manual = lg.polymer_series(g, res.messages, m_max=2, polymers=small)
    assert cut.polymer_count == len(small) == manual.polymer_count
    for a, b in zip(cut.terms, manual.terms):
        assert a == pytest.approx(b, abs=1e-14)


def test_series_tuple_budget():
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    res = lg.solve_fixed_point(g)
    with pytest.raises(BudgetExceededError):
        lg.polymer_series(g, res.messages, m_max=3, budget=100)


def _ldgm_four_cycles(n, m, extra_edges, ks):
    """The criterion-6 fixtures: 4-cycles whose checks carry fields atanh(k)."""
    edges = [(0, 0), (1, 0), (0, 1), (1, 1)] + extra_edges
    return lg.build_factor_graph(
        n, m, edges, lg.LdgmWeights(check_fields=[math.atanh(k) for k in ks])
    )


SERIES_CASES = {
    # the three criterion-6 fixtures, every order the Ursell table supports;
    # order 6 includes multisets such as (0, 0, 0, 1, 1, 1), divided by 3! twice
    "single-m7": (lambda: _ldgm_four_cycles(2, 2, [], [0.09, 0.09]), {"m_max": 7}),
    "disjoint-pair-m7": (
        lambda: _ldgm_four_cycles(4, 4, [(2, 2), (3, 2), (2, 3), (3, 3)], [0.09] * 4),
        {"m_max": 7},
    ),
    "shared-variable-m7": (
        lambda: _ldgm_four_cycles(3, 4, [(1, 2), (2, 2), (1, 3), (2, 3)], [0.42] * 4),
        {"m_max": 7},
    ),
    # uneven fields: dividing the pieces of multisets such as (0, 0, 0, 1, 1, 1)
    # by 3! * 3! at once, instead of by 3! twice, changes the order-6 term
    "shared-variable-uneven-m7": (
        lambda: _ldgm_four_cycles(
            3, 4, [(1, 2), (2, 2), (1, 3), (2, 3)], [0.37, 0.41, 0.29, 0.33]
        ),
        {"m_max": 7},
    ),
    "ldpc-3-4-n4-c4-m4": (
        lambda: sp.ldpc_instance(3, 4, 4, 0.45, 2),
        {"m_max": 4, "size_cutoff": 4},
    ),
    # 69 polymers, all with nonzero activity
    "general-3-4-n8-c6-m3": (
        lambda: sp.general_instance(3, 4, 8, 0.3, 0),
        {"m_max": 3, "size_cutoff": 6},
    ),
    # 12 polymers with nonzero activity, up to order 6
    "general-3-4-n8-c4-m6": (
        lambda: sp.general_instance(3, 4, 8, 0.3, 1),
        {"m_max": 6, "size_cutoff": 4},
    ),
    "general-3-4-n8-c4-m4-z0.5": (
        lambda: sp.general_instance(3, 4, 8, 0.3, 1),
        {"m_max": 4, "size_cutoff": 4, "z": 0.5},
    ),
    "tree-m4": (lambda: sp.random_tree(9, 1, "ldgm"), {"m_max": 4}),
    # n + m = 72 nodes: node masks span two uint64 words
    "ldpc-3-6-n48-c6-m2": (
        lambda: sp.ldpc_instance(3, 6, 48, 0.45, 1),
        {"m_max": 2, "size_cutoff": 6},
    ),
    # n + m > 64 with no polymers at all: q is 0.0, not an index error
    "ldpc-3-6-n48-c3-m2": (
        lambda: sp.ldpc_instance(3, 6, 48, 0.45, 1),
        {"m_max": 2, "size_cutoff": 3},
    ),
    "tree-n60-m2": (lambda: sp.random_tree(60, 1, "ldgm"), {"m_max": 2}),
}


@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_series_terms_match_the_multiset_loop(case, monkeypatch):
    build, kwargs = SERIES_CASES[case]
    g = build()
    msgs = lg.solve_fixed_point(g).messages
    # a small block makes every order with more than 97 multisets span blocks
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", 97)
    sr = lg.polymer_series(g, msgs, **kwargs)
    expected = sp.oracle_polymer_series(g, msgs, **kwargs)
    assert [t.hex() for t in sr.terms] == [t.hex() for t in expected]
    polys = lg.enumerate_polymers(g, max_size=kwargs.get("size_cutoff"))
    ev = lg.ActivityEvaluator(g, msgs)
    weights = [
        abs(kwargs.get("z", 1.0) * ev.value(p.edge_ids)) * math.exp(p.size) for p in polys
    ]
    nodes = [[b for b in range(g.n + g.m) if p.node_mask >> b & 1] for p in polys]
    assert sr.q == sp._node_load(nodes, weights)
    if sr.polymer_count == 0:
        assert sr.q == 0.0
    if case.startswith("tree"):
        assert sr.polymer_count == 0 and all(t == 0.0 for t in sr.terms)
    if case == "ldpc-3-6-n48-c6-m2":
        low = (1 << 64) - 1
        assert any(
            a.node_mask & b.node_mask and not a.node_mask & b.node_mask & low
            for a, b in itertools.combinations(polys, 2)
        ), "no polymer pair overlaps only above bit 63"


@pytest.mark.parametrize("p,order,block", [(0, 3, 5), (1, 7, 3), (5, 4, 7), (9, 3, 1000)])
def test_multiset_blocks_cover_each_multiset_once(p, order, block, monkeypatch):
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", block)
    blocks = list(lg.expansion._multiset_blocks(p, order))
    assert all(0 < len(rows) <= block for rows in blocks)
    rows = [tuple(r) for rows in blocks for r in rows.tolist()]
    assert sorted(rows) == list(
        itertools.combinations_with_replacement(range(p), order)
    )


def test_series_memory_is_bounded_by_the_block(monkeypatch):
    g = sp.ldpc_instance(3, 6, 48, 0.45, 1)
    msgs = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g, max_size=6)
    assert math.comb(len(polys) + 1, 2) > 24_000
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", 256)

    def peak(m_max):
        tracemalloc.start()
        try:
            lg.polymer_series(g, msgs, m_max=m_max, polymers=polys)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations (caches, lazy imports) are not the series'
    # order 2 adds 24,310 multisets, 6,486 of them overlapping pairs: one Python
    # float per piece would hold about 200 KB, one 256-row block about 15 KB
    assert peak(2) - peak(1) < 60_000


def test_series_over_budget_is_refused_before_any_work(monkeypatch):
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    msgs = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g, max_size=4)
    tuples = sum(math.comb(len(polys) + k - 1, k) for k in range(1, 4))
    calls = []
    value = lg.ActivityEvaluator.value
    monkeypatch.setattr(
        lg.ActivityEvaluator, "value", lambda self, e: calls.append(e) or value(self, e)
    )
    ursell_masked = lg.expansion._ursell_masked
    monkeypatch.setattr(
        lg.expansion, "_ursell_masked", lambda *a: calls.append(a) or ursell_masked(*a)
    )
    with pytest.raises(BudgetExceededError):
        lg.polymer_series(g, msgs, m_max=3, polymers=polys, budget=tuples - 1)
    assert calls == []
    with pytest.raises(BudgetExceededError):
        sp.oracle_polymer_series(g, msgs, m_max=3, polymers=polys, budget=tuples - 1)
    at_cap = lg.polymer_series(g, msgs, m_max=3, polymers=polys, budget=tuples)
    assert at_cap.terms == sp.oracle_polymer_series(
        g, msgs, m_max=3, polymers=polys, budget=tuples
    )
    assert calls


# ---------------------------------------------------------------------------
# convergence criterion


def test_q_is_zero_on_trees():
    g = sp.random_tree(9, 4, "ldpc")
    res = lg.solve_fixed_point(g)
    report = lg.convergence_criterion_q(g, res.messages)
    assert report.q == 0.0 and report.certified


def test_q_closed_form_on_single_cycle():
    for k in (0.01, 0.3):
        g, zero = _single_polymer_fixture(k)
        report = lg.convergence_criterion_q(g, zero)
        assert report.q == pytest.approx(abs(k) * math.e**4, rel=1e-12)
        assert report.certified == (report.q < 1.0)
    small = lg.convergence_criterion_q(*_single_polymer_fixture(0.01))
    assert small.certified


def test_q_uncertified_at_moderate_noise():
    # the exponential size factor swamps moderate-noise activities; the
    # criterion must report that honestly
    g = sp.ldpc_instance(3, 4, 8, 0.475, 0)
    res = lg.solve_fixed_point(g)
    report = lg.convergence_criterion_q(g, res.messages, size_cutoff=8)
    assert not report.certified
    assert report.q > 1.0


def test_q_bound_variant_matches_flat_bound():
    g, zero = _single_polymer_fixture(0.3)
    polys = lg.enumerate_polymers(g)
    report = lg.convergence_criterion_q_bound(g, polys, lambda poly: 0.25)
    assert report.q == pytest.approx(0.25 * math.e**4, rel=1e-12)


def test_q_bound_variant_dominates_activity_q():
    p = 0.45
    g = sp.ldgm_instance(3, 6, 9, p, 1)
    zero = _zero_messages(g)
    polys = lg.enumerate_polymers(g, max_size=8)
    act = lg.convergence_criterion_q(g, zero, size_cutoff=8)
    bound = lg.convergence_criterion_q_bound(
        g,
        polys,
        lambda poly: lg.ldgm_trivial_activity_bound(g, poly, p, zero),
        size_cutoff=8,
    )
    assert bound.q >= act.q


# ---------------------------------------------------------------------------
# rooted polymer counting


def test_rooted_count_on_trees_is_zero():
    g = sp.random_tree(9, 5, "ldpc")
    for root in range(g.n + g.m):
        count, cap = lg.count_rooted_polymers(g, root, 6)
        assert count == 0
        assert cap > 0


def test_rooted_count_on_four_cycle():
    g, _ = _single_polymer_fixture(0.2)
    assert lg.count_rooted_polymers(g, 0, 3)[0] == 0
    count, cap = lg.count_rooted_polymers(g, 0, 4)
    assert count == 1
    assert cap == pytest.approx(math.e**8, rel=1e-12)  # max degree 2
    assert lg.count_rooted_polymers(g, 2, 4)[0] == 1  # check node root


def test_rooted_count_matches_subset_oracle():
    g = sp.ldpc_instance(3, 4, 4, 0.4, 1)
    oracle = sp.oracle_polymers(g)
    node_masks = {}
    for s in oracle:
        mask = 0
        for e in s:
            i, a = g.edges[e]
            mask |= 1 << i
            mask |= 1 << (g.n + a)
        node_masks[s] = mask
    for root in range(g.n + g.m):
        for t in (4, 6, 9):
            expected = sum(
                1
                for s, mask in node_masks.items()
                if mask >> root & 1 and bin(mask).count("1") <= t
            )
            count, cap = lg.count_rooted_polymers(g, root, t)
            assert count == expected
            assert count <= cap


def test_rooted_count_argument_validation():
    g, _ = _single_polymer_fixture(0.2)
    with pytest.raises(ValueError):
        lg.count_rooted_polymers(g, 4, 4)  # nodes run 0..3
    with pytest.raises(ValueError):
        lg.count_rooted_polymers(g, 0, 0)


# ---------------------------------------------------------------------------
# tree counting oracles


def test_dary_counts_match_catalan_and_dp():
    assert lg.rooted_dary_tree_count(2, 0) == 1
    for t in range(11):
        assert lg.rooted_dary_tree_count(2, t) == sp.catalan(t)
    for d in (1, 2, 3, 4):
        for t in range(9):
            assert lg.rooted_dary_tree_count(d, t) == sp.dary_tree_dp(d, t)


def test_dary_counts_match_closed_form():
    # C(d t, t) / ((d - 1) t + 1)
    for d in (2, 3, 4):
        for t in range(1, 9):
            expected = math.comb(d * t, t) // ((d - 1) * t + 1)
            assert lg.rooted_dary_tree_count(d, t) == expected


def test_dary_argument_validation():
    with pytest.raises(ValueError):
        lg.rooted_dary_tree_count(0, 3)
    with pytest.raises(ValueError):
        lg.rooted_dary_tree_count(2, -1)


def test_cayley_hand_values():
    assert lg.cayley_tree_count((1, 2, 1)) == 1
    assert lg.cayley_tree_count((3, 1, 1, 1)) == 1
    assert lg.cayley_tree_count((2, 2, 1, 1)) == 2


def test_cayley_rejects_invalid_sequences():
    with pytest.raises(InvalidDegreeSequenceError):
        lg.cayley_tree_count((1,))
    with pytest.raises(InvalidDegreeSequenceError):
        lg.cayley_tree_count((0, 2, 2))
    with pytest.raises(InvalidDegreeSequenceError):
        lg.cayley_tree_count((2, 2, 2))


def test_cayley_sums_to_total_tree_count():
    for m in range(2, 8):
        total = 0
        for degs in itertools.product(range(1, m), repeat=m):
            if sum(degs) == 2 * (m - 1):
                total += lg.cayley_tree_count(degs)
        assert total == m ** max(m - 2, 0)


def test_cayley_matches_prufer_histogram():
    for m in (3, 4, 5, 6):
        hist = {}
        for tree in sp.all_labeled_trees(m):
            degs = [0] * m
            for u, v in tree:
                degs[u] += 1
                degs[v] += 1
            hist[tuple(degs)] = hist.get(tuple(degs), 0) + 1
        for degs, count in hist.items():
            assert lg.cayley_tree_count(degs) == count


def test_omega_constant():
    assert lg.omega_constant(6) == 134
    assert lg.omega_constant(2) == 14
    assert lg.omega_constant(4) == 58
