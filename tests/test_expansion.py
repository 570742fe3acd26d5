"""Polymer series: Ursell coefficients, truncations, Q criterion, counting."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import BudgetExceededError, InvalidDegreeSequenceError, WeightOverflowError

import support as sp
from loopgas.loops import node_words, polymer_q


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
    assert sp.ursell([a]) == 1
    assert sp.ursell([a, b]) == -1
    assert sp.ursell([a, c]) == 0  # disjoint
    assert sp.ursell([a, b, c]) == 1  # path overlap
    tri = _overlap_polymers(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert sp.ursell(tri) == 2  # triangle overlap
    assert sp.ursell([a, b, c, d]) == 0  # d floats free


def test_ursell_order_cap():
    a = _mask_polymer(0b1)
    sp.ursell([a] * 7)
    with pytest.raises(ValueError, match="order 8 exceeds the supported maximum 7"):
        sp.ursell([a] * 8)


def test_connected_mayer_sum_matches_subset_oracle():
    for m in (1, 2, 3, 4):
        all_edges = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(all_edges)):
            edges = frozenset(
                all_edges[k] for k in range(len(all_edges)) if bits >> k & 1
            )
            assert sp.connected_mayer_sum(m, edges) == sp.oracle_mayer(m, edges)


def test_ursell_equals_mayer_sum_of_overlap_pattern():
    patterns = [
        frozenset({(0, 1), (1, 2), (2, 3)}),
        frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
        frozenset({(0, 1), (0, 2), (0, 3)}),
        frozenset({(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}),
    ]
    for edges in patterns:
        polys = _overlap_polymers(4, edges)
        assert sp.ursell(polys) == sp.connected_mayer_sum(4, edges)


def test_ursell_tree_graph_inequality():
    # |U| is bounded by the number of spanning trees of the overlap pattern
    for m in (2, 3, 4):
        all_edges = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(all_edges)):
            edges = frozenset(
                all_edges[k] for k in range(len(all_edges)) if bits >> k & 1
            )
            u = sp.connected_mayer_sum(m, edges)
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


def test_series_takes_any_order():
    # ln Xi's recurrence has no order cap: order 16 of one polymer is
    # -k^16 / 16, and the partial sums close on ln(1 + k)
    k = 0.3
    g, zero = _single_polymer_fixture(k)
    sr = lg.polymer_series(g, zero, m_max=16)
    assert len(sr.terms) == 16
    assert sr.terms[-1] == pytest.approx(-(k**16) / 16, rel=1e-12)
    assert abs(sr.partial_sums[-1] - math.log1p(k)) <= k**17


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
    ev = lg.ActivityEvaluator(g, res.messages)
    words = node_words([p.node_mask for p in small], g.n + g.m)
    acts = ev.values([p.edge_ids for p in small])
    assert cut.polymer_count == len(small)
    assert list(cut.terms) == lg.expansion._log_gas_terms(words, acts, 2)


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


def _general_k63(seed: int, couplings_per_check: int):
    """General (3,6) n = 6, the complete bipartite K_{6,3}, at beta = 0.3."""
    g = lg.sample_regular_bipartite(3, 6, 6, seed=seed)
    g = lg.build_factor_graph(
        g.n, g.m, g.edges, lg.LdpcWeights(variable_fields=(0.0,) * g.n), meta=dict(g.meta)
    )
    return lg.attach_random_general_weights(
        g, beta=0.3, seed=seed, couplings_per_check=couplings_per_check
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
    # the second 4-cycle shares a check, not a variable: again three
    # polymers, so order 7 meets every run pattern (k1, k2, k3) of 7
    "shared-check-uneven-m7": (
        lambda: _ldgm_four_cycles(4, 3, [(2, 1), (3, 1), (2, 2), (3, 2)], [0.61, 0.43, 0.07]),
        {"m_max": sp.URSELL_MAX_ORDER},
    ),
    # K_{6,3} as on the benchmark, with eight couplings per check so that
    # all 45 polymers have nonzero activity; every two of them share a check,
    # so each order-M pattern is complete and every multiset has a piece
    "general-3-6-n6-k8-c4-m4": (
        lambda: _general_k63(seed=0, couplings_per_check=8),
        {"m_max": 4, "size_cutoff": 4},
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
    # a small block makes every order with more than 97 candidate families
    # span blocks
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", 97)
    sr = lg.polymer_series(g, msgs, **kwargs)
    # each term is ln Xi's, rounded once from the exact family sums: within
    # 2 ulp of the multiset definition done exactly (1.38 at most measured)
    exact = sp.oracle_series_exact(g, msgs, **kwargs)
    assert len(sr.terms) == len(exact)
    assert max(sp.series_ulps(t, x) for t, x in zip(sr.terms, exact)) <= 2.0
    polys = lg.enumerate_polymers(g, max_size=kwargs.get("size_cutoff"))
    factors = sp.ScalarFactors(g, msgs)
    weights = [
        abs(kwargs.get("z", 1.0) * sp.oracle_activity(factors, p.edge_ids)) * math.exp(p.size)
        for p in polys
    ]
    nodes = [[b for b in range(g.n + g.m) if p.node_mask >> b & 1] for p in polys]
    assert sr.q == sp._node_load(nodes, weights)
    if sr.polymer_count == 0:
        assert sr.q == 0.0
    if case.startswith("tree"):
        assert sr.polymer_count == 0 and all(t == 0.0 for t in sr.terms)
    if case.endswith("-m7"):
        assert sr.polymer_count <= 3
    if case.startswith("general-3-6"):
        assert sr.polymer_count == 45 and all(t != 0.0 for t in sr.terms)
    if case == "ldpc-3-6-n48-c6-m2":
        low = (1 << 64) - 1
        assert any(
            a.node_mask & b.node_mask and not a.node_mask & b.node_mask & low
            for a, b in itertools.combinations(polys, 2)
        ), "no polymer pair overlaps only above bit 63"


def _disjoint_sets(masks, k):
    """The k-sets of pairwise disjoint masks, in lexicographic order."""
    return [
        combo
        for combo in itertools.combinations(range(len(masks)), k)
        if all(not masks[a] & masks[b] for a, b in itertools.combinations(combo, 2))
    ]


@pytest.mark.parametrize("p,order,block", [(0, 3, 5), (1, 7, 3), (5, 4, 7), (9, 3, 1000)])
def test_multiset_blocks_cover_each_multiset_once(p, order, block, monkeypatch):
    # the family generator's blocks hold each pairwise-disjoint k-set once, in
    # lexicographic order; activities that are distinct primes name each set
    # by its product, which stays an exact float
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", block)
    rng = np.random.default_rng(p)
    masks = [int(1 << a | 1 << b) for a, b in rng.integers(0, 3 * p + 1, (p, 2)).tolist()]
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23][:p]
    words, acts = node_words(masks, 64), np.array(primes, dtype=float)
    blocks = list(lg.expansion._disjoint_blocks(words, acts, order))
    assert all(0 < len(prod) <= block for _k, prod in blocks)
    for k in range(1, order + 1):
        got = [
            tuple(i for i, q in enumerate(primes) if int(x) % q == 0)
            for size, prod in blocks if size == k for x in prod.tolist()
        ]
        assert [math.prod(primes[i] for i in c) for c in got] == [
            x for size, prod in blocks if size == k for x in prod.tolist()
        ]
        assert got == _disjoint_sets(masks, k)
    if p == 9:
        assert _disjoint_sets(masks, 3), "no disjoint triple to grow"


@pytest.mark.parametrize("block", [7, 97])
def test_series_hands_on_one_piece_per_multiset_with_nonzero_ursell(block, monkeypatch):
    # the term check above compares values, which a dropped or doubled family
    # of activity product 0 does not change; this counts the families instead
    g = sp.general_instance(3, 4, 8, 0.3, 1)
    msgs = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g, max_size=4)
    m_max = 4
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", block)
    counts = [0] * (m_max + 1)
    blocks = lg.expansion._disjoint_blocks

    def counting_blocks(*args):
        for order, prod in blocks(*args):
            counts[order] += len(prod)
            yield order, prod

    monkeypatch.setattr(lg.expansion, "_disjoint_blocks", counting_blocks)
    sr = lg.polymer_series(g, msgs, m_max=m_max, size_cutoff=4)
    assert all(t != 0.0 for t in sr.terms)
    masks = [p.node_mask for p in polys]
    want = [len(_disjoint_sets(masks, k)) for k in range(1, m_max + 1)]
    assert counts[1:] == want and want[1] > 0
    assert sum(want) < math.comb(len(polys) + m_max - 1, m_max)


XI_CASES = {
    # a (3,4) code on n = 4, where no two loops are disjoint, and two
    # disjoint 4-cycle codes, whose two cycles form one loop together
    "ldpc-3-4-n4": lambda: sp.ldpc_instance(3, 4, 4, 0.45, 2),
    "two-4-cycles": lambda: _ldgm_four_cycles(
        4, 4, [(2, 2), (3, 2), (2, 3), (3, 3)], [0.31, 0.2, 0.45, 0.27]
    ),
}


@pytest.mark.parametrize("case", sorted(XI_CASES))
def test_family_sums_add_up_to_the_loop_sum(case):
    # every generalized loop is one disjoint family of polymers, so with no
    # size cutoff and m_max past the most polymers a loop holds, Xi(1) is the
    # loop sum
    g = XI_CASES[case]()
    msgs = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g)
    acts = lg.ActivityEvaluator(g, msgs).values([p.edge_ids for p in polys])
    words = node_words([p.node_mask for p in polys], g.n + g.m)
    sums = lg.expansion._family_sums(words, acts, 4)
    most = max(k for k, s in enumerate(sums) if s)
    assert most == (1 if case == "ldpc-3-4-n4" else 2) and sums[-1] == 0
    xi = sum(sums) / (1 << 1126)
    total = lg.loop_sum_direct(g, msgs).total
    assert abs(xi - total) <= 1e-13 * abs(total)


def test_series_products_past_the_float_range_raise_naming_the_order():
    # activities near 1e200: the two 4-cycles' product, 1e400, is no float,
    # and neither is a lone polymer's order-2 term -K^2 / 2
    pair = _ldgm_four_cycles(4, 4, [(2, 2), (3, 2), (2, 3), (3, 3)], [0.09] * 4)
    single = _ldgm_four_cycles(2, 2, [], [0.09, 0.09])
    for g, message in ((pair, "order 2: an activity product"), (single, "order 2: the term")):
        msgs = lg.solve_fixed_point(g).messages
        assert lg.polymer_series(g, msgs, m_max=1, z=1.2e202).terms[0] > 9e199
        with pytest.raises(WeightOverflowError, match=message):
            lg.polymer_series(g, msgs, m_max=2, z=1.2e202)


def _exact_total_cases():
    rng = np.random.default_rng(0)
    n = 3000
    wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1130, 1000, n))
    subnormal = rng.integers(-(1 << 52), 1 << 52, n) * 2.0**-1074
    ones = rng.uniform(-1.0, 1.0, n)
    # pairs that cancel exactly, around values that do not
    cancel = np.concatenate([wide, -wide, ones * 1e-300, ones])
    rng.shuffle(cancel)
    # 1 + 2**-53 is a tie, broken to even, and a further 2**-106 breaks it up
    tie = np.array([1.0, 2.0**-53, -(2.0**-53), 2.0**-53, 2.0**-106])
    return {
        "wide": wide,
        "subnormal": subnormal,
        "subnormal-total": np.array([2.0**-1074, 2.0**-1074, -(2.0**-1073), 2.0**-1070]),
        "cancel": cancel,
        "tie": tie,
        "tie-even": np.array([1.0, 2.0**-53]),
        "tie-odd": np.array([1.0 + 2.0**-52, 2.0**-53]),
        "near-max": np.array([1.7e308, -1.6e308, 1.5e308, 1e292]),
    }


def _rounded(total: int) -> float:
    return total / (1 << 1126)


@pytest.mark.parametrize("case", sorted(_exact_total_cases()))
@pytest.mark.parametrize("chunks", [1, 3, 17])
def test_exact_sum_is_fsum_bit_for_bit(case, chunks):
    # each chunk's exact total, added up and rounded once, is fsum of the whole
    x = _exact_total_cases()[case]
    total = sum(lg.loops._exact_total(part) for part in np.array_split(x, chunks) + [x[:0]])
    assert _rounded(total).hex() == math.fsum(x.tolist()).hex()


def test_exact_total_of_zeros_rounds_to_positive_zero():
    exact = lg.loops._exact_total
    zeros = [np.array([-0.0, -0.0]), np.array([]), np.array([0.0, -0.0])]
    assert _rounded(sum(map(exact, zeros))).hex() == "0x0.0p+0"
    assert math.fsum([-0.0, -0.0, 0.0, -0.0]).hex() == "0x0.0p+0"
    assert _rounded(exact(np.array([-0.0]))).hex() == "0x0.0p+0"
    assert exact(np.array([])) == 0


def test_exact_total_refuses_2_to_the_26_elements():
    # past that, a bin's float64 sum could round; a zero-stride view costs
    # no memory and is refused before any work
    with pytest.raises(ValueError, match="fewer than 2\\*\\*26 elements"):
        lg.loops._exact_total(np.broadcast_to(1.0, 1 << 26))


def test_series_memory_is_bounded_by_the_block(monkeypatch):
    # the family sums past the polymers' own arrays, which the walk builds
    g = sp.ldpc_instance(3, 6, 48, 0.45, 1)
    ev = lg.ActivityEvaluator(g, lg.solve_fixed_point(g).messages)
    words, acts, _sizes = lg.loops._polymer_arrays(g, 6, 10**7, ev)
    assert math.comb(len(acts) + 1, 2) > 24_000
    monkeypatch.setattr(lg.expansion, "SERIES_BLOCK", 256)

    def peak(m_max, columns=slice(None)):
        tracemalloc.start()
        try:
            lg.expansion._log_gas_terms(words[:, columns], acts[columns], m_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations (caches, lazy imports) are not the series'
    # order 2 tries 24,090 pairs, 17,824 of them disjoint: one Python float per
    # pair would hold about 200 KB
    assert peak(2) - peak(1) < 60_000
    # order 3 over the first 100 polymers tries up to 161,700 triples, 58,552
    # of them disjoint: a table of the whole order would hold 1.3 MB, a
    # 100 x 100 overlap matrix of int64 80 KB
    few = slice(100)
    assert math.comb(len(acts[few]), 3) > 600 * 256
    assert peak(3, few) - peak(1, few) < 60_000


def test_repeated_series_evaluates_no_ursell_coefficient(monkeypatch):
    # the series reads its terms off ln Xi, so the package holds no Ursell
    # coefficient at all, and no call, not even a first one past the old
    # cap of order 7, evaluates one
    assert not hasattr(lg, "ursell") and not hasattr(lg.expansion, "connected_mayer_sum")
    g = sp.general_instance(3, 4, 8, 0.3, 1)
    msgs = lg.solve_fixed_point(g).messages

    def no_mayer_sum(*args):
        raise AssertionError("connected_mayer_sum ran")

    monkeypatch.setattr(sp, "connected_mayer_sum", no_mayer_sum)
    first = lg.polymer_series(g, msgs, m_max=9, size_cutoff=4)
    assert lg.polymer_series(g, msgs, m_max=9, size_cutoff=4) == first
    assert len(first.terms) == 9 and all(t != 0.0 for t in first.terms)


def test_series_over_budget_is_refused_before_any_work(monkeypatch):
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    msgs = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g, max_size=4)
    tuples = sum(math.comb(len(polys) + k - 1, k) for k in range(1, 4))
    # the walk's visits stay far below the tuples, so only the tuples refuse
    assert lg.loops._walk(g, 10**7, max_nodes=4).visits < tuples - 1
    calls = []
    blocks = lg.expansion._disjoint_blocks
    monkeypatch.setattr(
        lg.expansion, "_disjoint_blocks", lambda *a: calls.append(a) or blocks(*a)
    )
    ursell_masked = sp._ursell_masked
    monkeypatch.setattr(sp, "_ursell_masked", lambda *a: calls.append(a) or ursell_masked(*a))
    with pytest.raises(BudgetExceededError, match=f"series needs {tuples} tuples"):
        lg.polymer_series(g, msgs, m_max=3, size_cutoff=4, budget=tuples - 1)
    assert calls == []
    with pytest.raises(BudgetExceededError):
        sp.oracle_series_exact(g, msgs, m_max=3, size_cutoff=4, budget=tuples - 1)
    at_cap = lg.polymer_series(g, msgs, m_max=3, size_cutoff=4, budget=tuples)
    exact = sp.oracle_series_exact(g, msgs, m_max=3, size_cutoff=4, budget=tuples)
    assert max(sp.series_ulps(t, x) for t, x in zip(at_cap.terms, exact)) <= 2.0
    assert calls


def test_bad_series_and_loop_sum_numbers_are_refused_before_the_walk(monkeypatch):
    g = sp.ldpc_instance(3, 4, 4, 0.45, 2)
    msgs = lg.solve_fixed_point(g).messages

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(lg.loops, "_walk", no_walk)
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"z must be a finite number, got {z}"):
            lg.polymer_series(g, msgs, m_max=2, size_cutoff=4, z=z)
    with pytest.raises(ValueError, match="max_size must be >= 0, got -1"):
        lg.enumerate_polymers(g, max_size=-1)
    with pytest.raises(ValueError, match="size_cutoff must be >= 0, got -1"):
        lg.polymer_series(g, msgs, m_max=2, size_cutoff=-1)
    with pytest.raises(ValueError, match="split_lambda must be a finite number, got nan"):
        lg.loop_sum_direct(g, msgs, split_lambda=math.nan)
    with pytest.raises(ValueError, match="split_lambda must be a finite number, got inf"):
        lg.verify_loop_identity(g, split_lambda=math.inf)
    monkeypatch.undo()
    # a size cutoff of 0 stays valid: no polymer touches no node
    assert lg.enumerate_polymers(g, max_size=0) == []


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


def _q_weights(acts, sizes):
    # each polymer alone on its own node, so the loads polymer_q leaves are
    # the weights themselves (0 + w is w)
    load = np.zeros(len(acts))
    polymer_q(load, node_words([1 << j for j in range(len(acts))], len(acts)), acts, sizes)
    return load


def test_q_weights_past_the_range_of_e_to_the_size():
    # |K| e^size bit for bit while e^size is finite, e^(size + ln|K|)
    # after; 0 for K = 0, inf only past float range, never NaN
    acts = [0.0, -1e-300, 0.3, 1.0, math.inf]
    for size in [*range(0, 709, 7), 709]:
        got = _q_weights(acts, [size] * len(acts)).tolist()
        assert got == [abs(k) * math.exp(size) for k in acts]
    got = _q_weights(acts, [800] * len(acts)).tolist()
    assert got[0] == 0.0
    assert got[1] == pytest.approx(math.exp(800 - 300 * math.log(10)), rel=1e-12)
    assert got[2:] == [math.inf] * 3


@pytest.mark.parametrize(
    "g, cutoff",
    [
        (sp.ldpc_instance(3, 4, 8, 0.42, 7, chan_seed=1), 6),
        (sp.ldpc_instance(3, 4, 8, 0.42, 7, chan_seed=1), None),
        (sp.ldgm_instance(2, 4, 12, 0.45, 1), None),
    ],
    ids=["readme-demo", "readme-demo-uncut", "ldgm-2-4-n12"],
)
def test_series_and_both_criteria_give_one_q(g, cutoff):
    # the series, the criterion and the bound criterion with |K| as its
    # bound score the same polymers, in walk order, through polymer_q, bit
    # for bit; with no cutoff so does the loop sum
    messages = lg.solve_fixed_point(g).messages
    polys = lg.enumerate_polymers(g, max_size=cutoff)
    ev = lg.ActivityEvaluator(g, messages)
    series = lg.polymer_series(g, messages, m_max=1, size_cutoff=cutoff)
    criterion = lg.convergence_criterion_q(g, messages, size_cutoff=cutoff)
    bound = lg.convergence_criterion_q_bound(g, polys, lambda p: abs(ev.value(p.edge_ids)))
    assert series.q == criterion.q == bound.q > 0.0
    if cutoff is None:
        assert lg.verify_loop_identity(g).q == criterion.q


def test_q_on_a_ring_past_709_nodes():
    # the 400-cycle is one polymer of 800 nodes; its weight e^800 |K| is
    # finite although e^800 is not
    g = lg.apply_channel(sp.chain(400, closed=True), 0.3, seed=0)
    messages = lg.solve_fixed_point(g).messages
    (ring,) = lg.enumerate_polymers(g)
    k = lg.ActivityEvaluator(g, messages).value(ring.edge_ids)
    report = lg.convergence_criterion_q(g, messages)
    assert report.q == pytest.approx(math.exp(800 + math.log(abs(k))), rel=1e-12)
    assert math.log(report.q) == pytest.approx(645.79, abs=0.01)
    bound = lg.convergence_criterion_q_bound(g, [ring], lambda poly: 1e-300)
    assert bound.q == pytest.approx(math.exp(800 - 300 * math.log(10)), rel=1e-12)


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


def test_rooted_count_bound_is_inf_past_float_range():
    # max degree 2: e^(2 t) is finite up to t = 354
    g = sp.chain(400, closed=True)
    assert lg.count_rooted_polymers(g, 0, 354) == (0, math.exp(708))
    assert lg.count_rooted_polymers(g, 0, 355) == (0, math.inf)
    assert lg.count_rooted_polymers(g, 0, 800) == (1, math.inf)


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
    assert sp.omega_constant(6) == 134
    assert sp.omega_constant(2) == 14
    assert sp.omega_constant(4) == 58
