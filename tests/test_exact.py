"""Exact partition functions, GF(2) counting, entropy formulas."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest

import loopgas as lg
from loopgas.errors import LogDomainError, TooLargeError, WrongWeightKindError
from loopgas.exact import EXACT_MAX_BITS, _reduced_rows, gauge_keys, null_space_gf2

import support as sp

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# hand-checkable partition functions


def test_free_spin_is_ln_two():
    g = lg.build_factor_graph(1, 0, [], lg.LdpcWeights((0.0,)))
    assert lg.log_partition(g).log_z == pytest.approx(LN2, abs=1e-14)


def test_single_parity_check_is_ln_two():
    g = lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdpcWeights((0.0, 0.0)))
    assert lg.log_partition(g).log_z == pytest.approx(LN2, abs=1e-14)


def test_field_spin_is_log_two_cosh():
    h = 0.7
    g = lg.build_factor_graph(1, 0, [], lg.LdpcWeights((h,)))
    expected = math.log(2.0 * math.cosh(h))
    assert lg.log_partition(g).log_z == pytest.approx(expected, abs=1e-14)


def test_isolated_variable_adds_ln_two():
    base = lg.build_factor_graph(2, 1, [(0, 0), (1, 0)], lg.LdpcWeights((0.3, -0.2)))
    grown = lg.build_factor_graph(
        3, 1, [(0, 0), (1, 0)], lg.LdpcWeights((0.3, -0.2, 0.0))
    )
    lz0 = lg.log_partition(base).log_z
    lz1 = lg.log_partition(grown).log_z
    assert lz1 - lz0 == pytest.approx(LN2, abs=1e-13)


def test_brute_force_rejects_too_many_variables():
    # ldpc without checks: every one of the 2^27 configurations is a codeword
    n = 27
    g = lg.build_factor_graph(n, 0, [], lg.LdpcWeights((0.0,) * n))
    with pytest.raises(TooLargeError, match="k = 27 or more"):
        lg.log_partition(g)


@pytest.mark.parametrize(
    "builder,args",
    [
        (sp.ldpc_instance, (3, 6, 6, 0.2, 0)),
        (sp.ldpc_instance, (3, 4, 8, 0.35, 1)),
        (sp.ldgm_instance, (3, 6, 6, 0.3, 2)),
        (sp.ldgm_instance, (2, 4, 8, 0.45, 3)),
        (sp.general_instance, (3, 4, 8, 0.25, 4)),
        (sp.general_instance, (2, 4, 6, 0.15, 5)),
        # ldgm where variable 3 feeds no check: the term map has rank 3 < n
        (
            lg.build_factor_graph,
            (4, 2, [(0, 0), (1, 0), (1, 1), (2, 1)], lg.LdgmWeights((0.3, -0.7))),
        ),
        # general weights with a zero coupling in each check
        (
            lg.build_factor_graph,
            (
                3,
                2,
                [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1)],
                lg.GeneralWeights(
                    0.8,
                    (
                        (((0, 1), 0.5), ((0, 1, 2), 0.0), ((2,), -0.3)),
                        (((1, 2), 0.0), ((1,), 0.4)),
                    ),
                ),
            ),
        ),
        # ldgm without checks: every configuration has weight 1, Z = 2^n
        (lg.build_factor_graph, (5, 0, [], lg.LdgmWeights(()))),
        # fields +-40 on two checks of one variable: Z = 2, which the row
        # space sums exactly; the signed dual sum would cancel to 0
        (lg.build_factor_graph, (1, 2, [(0, 0), (0, 1)], lg.LdgmWeights((40.0, -40.0)))),
    ],
)
def test_brute_force_matches_pure_python_oracle(builder, args):
    g = builder(*args)
    report = lg.log_partition(g)
    assert report.log_z == pytest.approx(sp.oracle_log_z(g), abs=1e-11)
    assert report.n == g.n
    assert (report.method, report.k) == sp.oracle_log_partition(g)[1:]


# ---------------------------------------------------------------------------
# GF(2) rank and codeword counting


def test_gf2_rank_hand_cases():
    assert lg.gf2_rank([]) == 0
    assert lg.gf2_rank([0b1, 0b10, 0b100]) == 3
    assert lg.gf2_rank([0b11, 0b11]) == 1
    assert lg.gf2_rank([0b110, 0b011, 0b101]) == 2  # rows sum to zero
    assert lg.gf2_rank([0, 0]) == 0


def test_gf2_rank_counts_solutions():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 8)
        m = rng.randint(0, 6)
        rows = [rng.randrange(1 << n) for _ in range(m)]
        rank = lg.gf2_rank(rows)
        solutions = sum(
            1
            for x in range(1 << n)
            if all(bin(x & row).count("1") % 2 == 0 for row in rows)
        )
        assert solutions == 1 << (n - rank)


def test_codeword_count_matches_enumeration():
    for seed in range(5):
        g = sp.ldpc_instance(3, 6, 6, 0.2, seed)
        k = lg.codeword_count_gf2(g)
        masks = []
        for a in range(g.m):
            mask = 0
            for i in g.check_neighbors(a):
                mask |= 1 << i
            masks.append(mask)
        count = sum(
            1
            for x in range(1 << g.n)
            if all(bin(x & mask).count("1") % 2 == 0 for mask in masks)
        )
        assert count == 1 << k


def test_null_space_is_the_solution_set():
    rng = random.Random(11)
    for _ in range(25):
        width = rng.randint(1, 9)
        rows = [rng.randrange(1 << width) for _ in range(rng.randint(0, 7))]
        basis = null_space_gf2(rows, width)
        assert len(basis) == width - lg.gf2_rank(rows)
        span = {0}
        for vec in basis:
            span |= {x ^ vec for x in span}
        solutions = {
            x
            for x in range(1 << width)
            if all(bin(x & row).count("1") % 2 == 0 for row in rows)
        }
        assert span == solutions


def test_oracle_codewords_agree_with_brute_force():
    for seed in range(3):
        g = sp.ldpc_instance(3, 4, 12, 0.3, seed)
        assert len(sp.oracle_codewords(g)) == 1 << lg.codeword_count_gf2(g)
        assert sp.oracle_ldpc_log_z(g) == pytest.approx(
            lg.log_partition(g).log_z, rel=1e-12
        )


def test_codeword_count_requires_parity_weights():
    g = sp.ldgm_instance(3, 6, 6, 0.2, 0)
    with pytest.raises(WrongWeightKindError):
        lg.codeword_count_gf2(g)


# ---------------------------------------------------------------------------
# the route rule against the oracles

CODE_SPACE_PS = (1e-3, 0.05, 0.45, 0.5)


def _agrees_with_brute_force(g):
    # against the codeword listing for ldpc, the configuration sweep else
    report = lg.log_partition(g)
    if g.weights.kind == "ldpc":
        want = sp.oracle_ldpc_log_z(g)
    else:
        want = sp.oracle_log_z(g)
    assert report.log_z == pytest.approx(want, rel=1e-12, abs=0.0)
    return report


def _zero_some_fields(g, every=3):
    w = g.weights
    if w.kind == "ldpc":
        fields = tuple(0.0 if i % every == 0 else h for i, h in enumerate(w.variable_fields))
        return dataclasses.replace(g, weights=lg.LdpcWeights(fields))
    fields = tuple(0.0 if a % every == 0 else h for a, h in enumerate(w.check_fields))
    return dataclasses.replace(g, weights=lg.LdgmWeights(fields))


@pytest.mark.parametrize("p", CODE_SPACE_PS)
def test_code_space_matches_brute_force(p):
    for seed in range(3):
        for g in (
            sp.ldpc_instance(3, 4, 8, p, seed),
            sp.ldpc_instance(3, 6, 12, p, seed),
            sp.ldpc_instance(3, 4, 20, p, seed),
            sp.ldgm_instance(2, 4, 12, p, seed),
        ):
            report = _agrees_with_brute_force(g)
            if g.weights.kind == "ldpc":
                assert report.k == lg.codeword_count_gf2(g)


ROUTE_CASES = [
    (family, spec, x, seed)
    for seed in range(3)
    for family, spec, xs in (
        ("ldpc", (3, 4, 8), (0.45, 1e-3, 1e-6)),
        ("ldpc", (3, 6, 12), (0.4, 1e-6)),
        ("ldgm", (3, 6, 6), (0.45, 1e-3, 1e-6)),
        ("ldgm", (2, 4, 12), (0.4, 1e-6)),
        ("ldgm", (4, 2, 10), (0.45, 1e-3)),
        ("general", (3, 4, 8), (0.1, 0.3, 1.0, 2.0)),
        ("general", (3, 6, 12), (0.3, 2.0)),
        ("general", (2, 4, 12), (0.1, 1.0, 2.0)),
    )
    for x in xs
] + [("ldpc", (3, 4, 20), 1e-6, 0), ("ldgm", (2, 4, 20), 0.45, 0), ("general", (3, 4, 16), 2.0, 1)]
_BUILDERS = {"ldpc": sp.ldpc_instance, "ldgm": sp.ldgm_instance, "general": sp.general_instance}


@pytest.mark.parametrize("family, spec, x, seed", ROUTE_CASES)
def test_every_route_matches_the_configuration_sweep(family, spec, x, seed):
    # x is the channel p (ldpc, ldgm) or beta (general)
    g = _BUILDERS[family](*spec, x, seed)
    report = lg.log_partition(g)
    assert report.log_z == pytest.approx(sp.oracle_log_z(g), rel=1e-12, abs=0.0)
    assert (report.log_z.hex(), report.method, report.k) == sp.oracle_log_partition(g)


def test_route_rule_takes_the_smaller_space_and_the_row_space_on_a_tie():
    def ldgm(n, supports, fields):
        edges = [(i, a) for a, support in enumerate(supports) for i in support]
        return lg.build_factor_graph(n, len(supports), edges, lg.LdgmWeights(fields))

    # one variable, two checks: rank 1 against a dual of 1, a tie
    assert lg.log_partition(ldgm(1, [(0,), (0,)], (0.3, 0.2))).method == "row-space"
    # three checks on variables 0, 0, 1: rank 2 against a dual of 1
    report = lg.log_partition(ldgm(2, [(0,), (0,), (1,)], (0.3, 0.2, 0.1)))
    assert (report.method, report.k) == ("dual-code", 1)
    # zero fields drop out: with the third check dead, rank 1 ties a dual of 1
    report = lg.log_partition(ldgm(2, [(0,), (0,), (1,)], (0.3, 0.2, 0.0)))
    assert (report.method, report.k) == ("row-space", 1)
    ldpc = sp.ldpc_instance(3, 4, 8, 0.3, 0)
    assert lg.log_partition(ldpc).method == "codewords"


@pytest.mark.parametrize("p", CODE_SPACE_PS)
def test_code_space_with_zero_fields(p):
    for seed in range(3):
        _agrees_with_brute_force(_zero_some_fields(sp.ldpc_instance(3, 4, 12, p, seed)))
        g = _zero_some_fields(sp.ldgm_instance(3, 6, 6, p, seed), every=2)
        assert _agrees_with_brute_force(g).k == 0  # only one live check is left
    # every field zero: the codewords count alone, and only the empty check set
    g = lg.apply_channel(lg.sample_regular_bipartite(3, 4, 12, seed=0), 0.5, 0)
    assert lg.log_partition(g).log_z == pytest.approx(
        lg.codeword_count_gf2(g) * LN2, rel=1e-15
    )


@pytest.mark.parametrize("p", CODE_SPACE_PS)
def test_code_space_full_rank_ldpc_has_one_codeword(p):
    # H has rank n: only x = 0 satisfies it, so ln Z = sum_i h_i
    edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 4), (2, 4)]
    g = lg.apply_channel(
        lg.build_factor_graph(4, 5, edges, lg.LdpcWeights((0.0,) * 4)), p, 3
    )
    report = _agrees_with_brute_force(g)
    assert report.k == 0
    assert report.log_z == pytest.approx(math.fsum(g.weights.variable_fields), rel=1e-15)


@pytest.mark.parametrize("p", CODE_SPACE_PS)
def test_code_space_ldgm_dual_dimensions(p):
    live = p < 0.5  # at p = 1/2 every field is 0 and no term is live
    for seed in range(3):
        # (3,6) at n = 9: the six checks' masks are independent, dual 0
        g = sp.ldgm_instance(3, 6, 9, p, seed)
        report = _agrees_with_brute_force(g)
        assert (report.method, report.k) == (("dual-code", 0) if live else ("row-space", 0))
        # (3,6) at n = 6 is K_{6,3}: three checks on one mask, rank 1 and dual 2
        g = sp.ldgm_instance(3, 6, 6, p, seed)
        report = _agrees_with_brute_force(g)
        assert (report.method, report.k) == ("row-space", 1 if live else 0)
    # two copies of K_{6,3} side by side: rank 2 and dual 4 across 12 variables
    g = sp.disjoint_union([sp.ldgm_instance(3, 6, 6, p, s) for s in (1, 2)], seed=5)
    report = _agrees_with_brute_force(g)
    assert (report.method, report.k) == ("row-space", 2 if live else 0)


@pytest.mark.parametrize("p", CODE_SPACE_PS)
def test_code_space_beyond_one_word(p):
    # n = 72 > 64; ln Z of a disjoint union is the sum over its parts
    parts = [sp.ldpc_instance(3, 4, 12, p, s, chan_seed=s) for s in range(6)]
    g = sp.disjoint_union(parts, seed=1)
    report = lg.log_partition(g)
    want = math.fsum(sp.oracle_ldpc_log_z(q) for q in parts)
    assert g.n == 72 and report.k == sum(lg.codeword_count_gf2(q) for q in parts)
    assert report.log_z == pytest.approx(want, rel=1e-12, abs=0.0)

    # 42 live checks of rank 30: the dual code, of dimension 12
    parts = [sp.ldgm_instance(3, 6, 6, p, s, chan_seed=s) for s in range(6)]
    parts += [sp.ldgm_instance(3, 6, 9, p, s, chan_seed=s) for s in range(4)]
    g = sp.disjoint_union(parts, seed=2)
    report = lg.log_partition(g)
    want = math.fsum(sp.oracle_log_z(q) for q in parts)
    assert g.n == 72
    assert (report.method, report.k) == (("dual-code", 12) if p < 0.5 else ("row-space", 0))
    assert report.log_z == pytest.approx(want, rel=1e-12, abs=0.0)


def test_general_union_past_26_variables_equals_the_sum_of_its_parts():
    parts = [sp.general_instance(3, 4, 8, beta, s) for s, beta in enumerate((0.1, 0.3, 1.0, 2.0))]
    g = sp.disjoint_union(parts, seed=3)
    report = lg.log_partition(g)
    assert g.n == 32 and report.k <= EXACT_MAX_BITS
    want = math.fsum(sp.oracle_log_z(q) for q in parts)
    assert report.log_z == pytest.approx(want, rel=1e-12, abs=0.0)


def test_code_space_symmetric_channel_at_n96():
    # p = 1/2: every field is 0, so ln Z = k ln 2 + n * 0 for ldpc, and no
    # ldgm term is live, giving n ln 2
    g = lg.apply_channel(lg.sample_regular_bipartite(3, 4, 96, seed=0), 0.5, 0)
    report = lg.log_partition(g)
    assert report.k == lg.codeword_count_gf2(g) >= 24
    assert report.log_z == pytest.approx(report.k * LN2, rel=1e-12)
    g = lg.apply_channel(lg.sample_ldgm({3: 1.0}, {6: 1.0}, 96, seed=0), 0.5, 0)
    report = lg.log_partition(g)
    assert report.k == 0 and report.log_z == pytest.approx(96 * LN2, rel=1e-15)


def _pair(h):
    """Two checks on one variable with fields +h and -h: Z = 2."""
    return lg.build_factor_graph(1, 2, [(0, 0), (0, 1)], lg.LdgmWeights((h, -h)))


@pytest.mark.parametrize("h", [40.0, lg.ChannelParams(p=1e-6).h, lg.ChannelParams(p=1e-9).h])
def test_opposite_field_pairs_give_ln_two(h):
    # rank 1 ties a dual of 1, so the positive row-space sum is taken
    report = lg.log_partition(_pair(h))
    assert report.method == "row-space"
    assert report.log_z == pytest.approx(LN2, rel=0.0, abs=1e-14)


def test_code_space_cancellation_raises():
    # checks on variables 0, 0 and 1 with fields +40, -40 and 0.3: the dual
    # (dimension 1) beats the row space (2), and at h = 40 tanh h rounds to
    # 1, so the signed sum 1 - 1 cancels to 0 and is refused, never NaN
    g = lg.build_factor_graph(
        2, 3, [(0, 0), (0, 1), (1, 2)], lg.LdgmWeights((40.0, -40.0, 0.3))
    )
    assert sp.oracle_log_z(g) == pytest.approx(math.log(4.0 * math.cosh(0.3)), rel=1e-15)
    with pytest.raises(LogDomainError, match="signed dual-code sum 0.0 is not positive"):
        lg.log_partition(g)


def test_code_space_refuses_over_cap_and_general_weights():
    n = 27
    g = lg.build_factor_graph(n, 0, [], lg.LdpcWeights((0.0,) * n))
    with pytest.raises(TooLargeError, match="k = 27"):
        lg.log_partition(g)
    # general weights take the dual code, of dimension 24, at n = 48 ...
    g = lg.attach_random_general_weights(lg.sample_regular_bipartite(3, 4, 48, 0), 0.2, 1)
    report = lg.log_partition(g)
    assert (report.n, report.method, report.k) == (48, "dual-code", 24)
    # ... and are refused past the cap on both routes
    g = lg.attach_random_general_weights(lg.sample_regular_bipartite(3, 4, 120, 0), 0.2, 1)
    with pytest.raises(TooLargeError, match="row-space dimension k = 27 or more"):
        lg.log_partition(g)


def test_code_space_rank_bound_refuses_before_elimination(monkeypatch):
    pivot_counts = []

    def counting_reduced_rows(*args):
        pivots = _reduced_rows(*args)
        pivot_counts.append(len(pivots))
        return pivots

    monkeypatch.setattr("loopgas.exact._reduced_rows", counting_reduced_rows)
    # ldpc: 27 variables and no check leave k >= 27 - 0 > 26
    g = lg.build_factor_graph(27, 0, [], lg.LdpcWeights((0.3,) * 27))
    with pytest.raises(TooLargeError, match="k = 27 or more"):
        lg.log_partition(g)
    assert pivot_counts == []
    # general (3,4) at n = 1000: 1500 live couplings leave a dual of at
    # least 500, and the row space passes the cap at pivot 27
    g = lg.attach_random_general_weights(lg.sample_regular_bipartite(3, 4, 1000, 0), 0.2, 1)
    with pytest.raises(TooLargeError, match="k = 27 or more and dual-code dimension k = 500 or"):
        lg.log_partition(g)
    assert pivot_counts == [EXACT_MAX_BITS + 1]
    # ldgm: 28 live checks on one variable are a dual of 27 but a row space
    # of 1, so they are summed: Z = 2 cosh(28 * 0.3)
    m = 28
    g = lg.build_factor_graph(1, m, [(0, a) for a in range(m)], lg.LdgmWeights((0.3,) * m))
    report = lg.log_partition(g)
    assert (report.method, report.k) == ("row-space", 1)
    assert report.log_z == pytest.approx(math.log(2.0 * math.cosh(8.4)), rel=1e-15)
    assert pivot_counts[-1] == 1


def _channel_patterns(g, count=None, seed=0):
    """(g, field rows): channel sign patterns of g's own field magnitude
    |h|, all of them or count drawn at random."""
    slots = len(sp.own_fields(g))
    h = abs(sp.own_fields(g)[0])
    if count is None:
        patterns = range(1 << slots)
    else:
        rng = random.Random(seed)
        patterns = [rng.getrandbits(slots) for _ in range(count)]
    rows = [[-h if pattern >> k & 1 else h for k in range(slots)] for pattern in patterns]
    return g, np.array(rows, dtype=float)


def _zero_some_rows(g, rows):
    """Every other row with some fields zeroed, a different set per row."""
    graphs = [sp.pattern_graph(g, row) for row in rows]
    graphs = [
        _zero_some_fields(h, every=2 + pos % 3) if pos % 2 else h
        for pos, h in enumerate(graphs)
    ]
    return g, sp.field_rows(graphs)


def _oracle_outcome(g):
    try:
        return "ok", sp.oracle_log_partition(g)
    except LogDomainError as exc:
        return "LogDomainError", str(exc)


CODE_SPACE_BATCHES = {
    # name: ((graph, field rows), compare with an independent ln Z)
    "ldpc (3,4) n=8, all patterns": (
        lambda: _channel_patterns(sp.ldpc_instance(3, 4, 8, 0.45, 0)), True
    ),
    "ldpc (3,6) n=12": (
        lambda: _channel_patterns(sp.ldpc_instance(3, 6, 12, 0.3, 1), 64), True
    ),
    "ldgm (2,4) n=12, all patterns": (
        lambda: _channel_patterns(sp.ldgm_instance(2, 4, 12, 0.2, 2)), True
    ),
    "ldgm (4,2) n=10, two span axes": (
        lambda: _channel_patterns(sp.ldgm_instance(4, 2, 10, 0.4, 0), 24), True
    ),
    "ldgm with zero fields, several live sets": (
        lambda: _zero_some_rows(
            *_channel_patterns(sp.ldgm_instance(2, 4, 12, 0.3, 3), 16, seed=4)
        ),
        True,
    ),
    "ldpc (2,4) n=40, blocks past 2^18": (
        lambda: _channel_patterns(sp.ldpc_instance(2, 4, 40, 0.45, 0), 3), False
    ),
    "ldgm (4,2) n=20, row-space blocks past 2^18": (
        lambda: _channel_patterns(sp.ldgm_instance(4, 2, 20, 0.45, 1), 2), False
    ),
    "ldgm (3,2) n=40, signed blocks past 2^18": (
        lambda: _channel_patterns(sp.ldgm_instance(3, 2, 40, 0.45, 1), 2), False
    ),
}


@pytest.mark.parametrize("name", list(CODE_SPACE_BATCHES))
def test_code_space_batches_equal_the_per_pattern_oracle(name):
    build, independent = CODE_SPACE_BATCHES[name]
    graph, rows = build()
    reports = lg.log_partitions(graph, rows)
    assert len(reports) == len(rows)
    for row, report in zip(rows, reports):
        g = sp.pattern_graph(graph, row)
        assert ("ok", (report.log_z.hex(), report.method, report.k)) == _oracle_outcome(g)
        assert lg.log_partition(g) == report
        if independent:
            assert g.n <= 12
            if g.weights.kind == "ldpc":
                want = sp.oracle_ldpc_log_z(g)
            else:
                want = sp.oracle_log_z(g)
            assert report.log_z == pytest.approx(want, rel=0.0, abs=1e-12)
    if "past 2^18" in name:
        assert reports[0].k > 18  # the outer block loop runs
        assert ("signed" in name) == (reports[0].method == "dual-code")


def test_code_space_batch_raises_for_the_first_cancelling_sum():
    # checks on variables 0, 0 and 1, a dual of 1 against a row space of 2:
    # +-40 rounds tanh to 1, so the pair (40, -40) cancels to 0, and (40, 40)
    # and (-40, -40) do not
    g = lg.build_factor_graph(
        2, 3, [(0, 0), (0, 1), (1, 2)], lg.LdgmWeights((0.3, -0.2, 0.1))
    )
    rows = np.array(
        [(40.0, 40.0, 0.1), (-40.0, -40.0, 0.1), (40.0, -40.0, 0.1), (0.3, -0.2, 0.1)]
    )
    graphs = [sp.pattern_graph(g, row) for row in rows]
    want = _oracle_outcome(graphs[2])
    assert want[0] == "LogDomainError"
    with pytest.raises(LogDomainError) as exc:
        lg.log_partitions(g, rows)
    assert str(exc.value) == want[1]
    ok = lg.log_partitions(g, rows[[0, 1, 3]])
    assert [(r.log_z.hex(), r.method, r.k) for r in ok] == [
        _oracle_outcome(graphs[k])[1] for k in (0, 1, 3)
    ]
    assert {r.method for r in ok} == {"dual-code"}


def test_code_space_batch_of_the_own_weights_and_of_no_rows():
    g = sp.ldpc_instance(3, 4, 8, 0.3, 0)
    assert lg.log_partitions(g) == [lg.log_partition(g)]
    assert lg.log_partitions(g, np.empty((0, g.n))) == []
    # general weights: their own couplings are the one row, field rows are refused
    general = sp.general_instance(3, 4, 8, 0.2, 0)
    assert lg.log_partitions(general) == [lg.log_partition(general)]
    with pytest.raises(WrongWeightKindError, match="channel fields need ldpc or ldgm"):
        lg.log_partitions(general, np.zeros((1, general.n)))


# ---------------------------------------------------------------------------
# channel averages


def _free_energy(g):
    return lg.log_partition(g).log_z / g.n


def _free_energies(g):
    """value_fn for channel averages over g: the brute-force free energy of
    each field row's pattern graph."""
    return lambda fields: [_free_energy(sp.pattern_graph(g, row)) for row in fields]


def test_channel_average_refuses_bad_p_and_samples_before_any_work():
    g = lg.sample_regular_bipartite(3, 6, 6, seed=0)
    calls = []

    def counting(fields):
        calls.append(1)
        return _free_energies(g)(fields)

    for p in (0.0, 1.0, 0.7):
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1/2\]"):
            lg.channel_average(g, p, counting)
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"mc_samples must be at least 1, got {samples}"):
            lg.channel_average(g, 0.3, counting, exhaustive_limit=0, mc_samples=samples)
    assert calls == []


def test_channel_average_degenerate_at_half():
    g = lg.sample_regular_bipartite(3, 6, 6, seed=0)
    avg = lg.channel_average(g, 0.5, _free_energies(g))
    assert avg.method == "degenerate" and avg.patterns == 1
    assert avg.stderr == 0.0
    k = lg.codeword_count_gf2(g)
    assert avg.mean == pytest.approx(k * LN2 / g.n, abs=1e-13)


def test_channel_average_exhaustive_matches_hand_sum():
    g = lg.sample_regular_bipartite(3, 6, 6, seed=1)
    p = 0.25
    avg = lg.channel_average(g, p, _free_energies(g))
    assert avg.method == "exhaustive" and avg.patterns == 1 << g.n
    h = lg.ChannelParams(p=p).h
    total = []
    for signs in range(1 << g.n):
        flips = bin(signs).count("1")
        fields = tuple(
            -h if signs >> i & 1 else h for i in range(g.n)
        )
        gg = lg.build_factor_graph(g.n, g.m, g.edges, lg.LdpcWeights(fields))
        weight = p**flips * (1.0 - p) ** (g.n - flips)
        total.append(weight * _free_energy(gg))
    assert avg.mean == pytest.approx(math.fsum(total), abs=1e-12)


def test_channel_average_montecarlo_brackets_exhaustive():
    # parity-check weights: distinct sign patterns give distinct ln Z
    g = lg.sample_regular_bipartite(3, 6, 12, seed=2)
    p = 0.3
    exact = lg.channel_average(g, p, _free_energies(g), exhaustive_limit=20)
    assert exact.method == "exhaustive"
    mc = lg.channel_average(
        g, p, _free_energies(g), exhaustive_limit=2, mc_samples=400, seed=11
    )
    assert mc.method == "montecarlo" and mc.patterns == 400
    assert mc.stderr > 0.0
    assert abs(mc.mean - exact.mean) < 5.0 * mc.stderr
    again = lg.channel_average(
        g, p, _free_energies(g), exhaustive_limit=2, mc_samples=400, seed=11
    )
    assert mc.mean == again.mean


def test_channel_average_constant_for_full_rank_ldgm():
    # when the generator spans all checks, every sign pattern is a codeword
    # shift and the free energy is exactly pattern-independent
    g = lg.sample_ldgm({3: 1.0}, {6: 1.0}, 12, seed=2)
    mc = lg.channel_average(
        g, 0.3, _free_energies(g), exhaustive_limit=2, mc_samples=50, seed=4
    )
    assert mc.method == "montecarlo"
    assert mc.stderr <= 1e-14


def _code_free_energy(g):
    return lg.log_partition(g).log_z / g.n


def _recording(graph, value, sizes):
    def batch(fields):
        # a float64 (rows, slots) array, no graph per pattern
        assert fields.dtype == np.float64
        assert fields.shape[1:] == (len(sp.own_fields(graph)),)
        sizes.append(len(fields))
        return [value(sp.pattern_graph(graph, row)) for row in fields]

    return batch


@pytest.mark.parametrize(
    "family, n, p, options, chunks",
    [
        # 2^12 = 4,096 exhaustive patterns: four full chunks
        ("ldpc", 12, 0.3, {}, [1024] * 4),
        ("ldgm", 12, 0.2, {}, [64]),
        # 2,500 samples: two full chunks and a partial one
        ("ldpc", 24, 0.4, {"mc_samples": 2_500, "seed": 3}, [1024, 1024, 452]),
        ("ldpc", 8, 0.5, {}, [1]),
    ],
)
def test_channel_average_batches_equal_the_per_graph_oracle(
    family, n, p, options, chunks
):
    if family == "ldpc":
        g = lg.sample_regular_bipartite(3, 4, n, seed=4)
    else:
        g = lg.sample_ldgm({2: 1.0}, {4: 1.0}, n, seed=4)
    sizes = []
    avg = lg.channel_average(g, p, _recording(g, _code_free_energy, sizes), **options)
    assert avg == sp.oracle_channel_average(g, p, _code_free_energy, **options)
    assert sizes == chunks


@pytest.mark.parametrize("extra", [-1, 1])
def test_channel_average_refuses_a_wrong_value_count(extra):
    g = lg.sample_regular_bipartite(3, 4, 8, seed=0)

    def miscounting(fields):
        return [0.0] * (len(fields) + extra)

    for options in ({}, {"exhaustive_limit": 2, "mc_samples": 10}):
        with pytest.raises(ValueError, match="value_fn returned"):
            lg.channel_average(g, 0.3, miscounting, **options)


def test_channel_average_refuses_a_runaway_enumeration_before_any_value():
    # (3,4) n = 40 draws 40 fields: 2^40 patterns are refused up front, and
    # the cap itself is the last size enumerated
    calls = []

    def counting(fields):
        calls.append(len(fields))
        return [0.0] * len(fields)

    g = lg.sample_regular_bipartite(3, 4, 40, seed=0)
    with pytest.raises(TooLargeError, match=r"2\^40 sign patterns exceeds the cap 2\^26"):
        lg.channel_average(g, 0.3, counting, exhaustive_limit=40)
    assert calls == []
    # under it, sampling still runs, and so does p = 1/2's single value
    assert lg.channel_average(g, 0.3, counting, exhaustive_limit=39, mc_samples=5).patterns == 5
    assert lg.channel_average(g, 0.5, counting, exhaustive_limit=40).patterns == 1
    assert calls == [5, 1]


def test_channel_average_enumerates_up_to_the_cap(monkeypatch):
    g = lg.sample_regular_bipartite(3, 4, 8, seed=0)

    def zeros(fields):
        return [0.0] * len(fields)

    monkeypatch.setattr(lg.exact, "EXACT_MAX_BITS", 8)
    assert lg.channel_average(g, 0.3, zeros).patterns == 256
    monkeypatch.setattr(lg.exact, "EXACT_MAX_BITS", 7)
    with pytest.raises(TooLargeError, match=r"2\^8 sign patterns"):
        lg.channel_average(g, 0.3, zeros)


GAUGE_CASES = {
    "ldpc-3-4-n8": lambda: lg.sample_regular_bipartite(3, 4, 8, seed=0),
    "ldpc-3-4-n12": lambda: lg.sample_regular_bipartite(3, 4, 12, seed=1),
    "ldgm-2-4-n12": lambda: lg.sample_ldgm({2: 1.0}, {4: 1.0}, 12, seed=0),
    "ldgm-3-6-n6": lambda: lg.sample_ldgm({3: 1.0}, {6: 1.0}, 6, seed=0),
}


@pytest.mark.parametrize("mode", ["exhaustive", "montecarlo"])
@pytest.mark.parametrize("case", sorted(GAUGE_CASES))
def test_gauge_keys_partition_patterns_as_the_gauge_flips_do(case, mode):
    # two patterns share a key exactly when their signs differ by a codeword
    # (ldpc) or by the check parities of some variable flips (ldgm), found
    # here by listing those flips
    g = GAUGE_CASES[case]()
    rows = []

    def record(fields):
        rows.extend(fields.tolist())
        return [0.0] * len(fields)

    options = {"exhaustive_limit": 0, "mc_samples": 300, "seed": 5} if mode == "montecarlo" else {}
    lg.channel_average(g, 0.3, record, **options)
    fields = np.array(rows)
    keys = gauge_keys(g, fields)
    classes = sp.oracle_gauge_classes(g, fields)
    assert len(set(keys)) == len(set(classes)) == len(set(zip(keys, classes)))
    slots = fields.shape[1]
    if mode == "exhaustive":
        assert len(fields) == 1 << slots
        assert len(set(keys)) == (1 << slots) // len(sp.oracle_gauge_flips(g))
    # the magnitudes are part of the key, and rows keep their order
    doubled = gauge_keys(g, 2.0 * fields)
    assert set(doubled).isdisjoint(keys)
    assert gauge_keys(g, fields[::-1]) == keys[::-1]


def test_gauge_keys_refuse_general_weights():
    g = sp.general_instance(3, 4, 8, 0.3, 0)
    with pytest.raises(WrongWeightKindError):
        gauge_keys(g, np.zeros((1, g.m)))


# ---------------------------------------------------------------------------
# conditional entropy formulas


def test_channel_shift_values():
    assert lg.channel_shift(0.5) == 0.0
    assert lg.channel_shift(0.1) == pytest.approx(0.4 * math.log(9.0), abs=1e-14)
    with pytest.raises(ValueError):
        lg.channel_shift(0.0)
    with pytest.raises(ValueError):
        lg.channel_shift(0.6)


@pytest.mark.parametrize("p", [0.2, 0.35, 0.5])
def test_ldgm_entropy_formula_matches_joint_enumeration(p):
    g = lg.sample_ldgm({2: 1.0}, {4: 1.0}, 6, seed=1)
    avg = lg.channel_average(g, p, _free_energies(g))
    formula = lg.conditional_entropy_ldgm(avg.mean, p, g.m / g.n)
    assert formula == pytest.approx(sp.entropy_oracle_ldgm(g, p), abs=1e-10)


@pytest.mark.parametrize("p", [0.2, 0.35, 0.5])
def test_ldpc_entropy_formula_matches_joint_enumeration(p):
    g = lg.sample_regular_bipartite(3, 6, 6, seed=0)
    avg = lg.channel_average(g, p, _free_energies(g))
    formula = lg.conditional_entropy_ldpc(avg.mean, p)
    assert formula == pytest.approx(sp.entropy_oracle_ldpc(g, p), abs=1e-10)


def test_ldpc_entropy_at_half_is_code_dimension():
    for seed in range(4):
        g = lg.sample_regular_bipartite(3, 4, 8, seed=seed)
        avg = lg.channel_average(g, 0.5, _free_energies(g))
        formula = lg.conditional_entropy_ldpc(avg.mean, 0.5)
        k = lg.codeword_count_gf2(g)
        assert formula == pytest.approx(k * LN2 / g.n, abs=1e-12)
