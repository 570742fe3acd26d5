"""Polymer-expansion series for the log of the loop-corrected partition sum.

Every generalized loop is a unique disjoint union of polymers, so the loop
sum is Xi(1) for the hard-core polymer gas Xi(z) = 1 + sum_k a_k z^k, where
a_k sums the activity products over the sets of k pairwise node-disjoint
polymers.  The order-M series term is [z^M] ln Xi(z), the cluster expansion
(Kotecky and Preiss; Scott and Sokal): the sum, over multisets of M polymers,
of the Ursell coefficient of their overlap pattern times the activity
product over the multiplicity factorials.  Its convergence is certified
through the standard single-node criterion q (loops.polymer_q), and the
combinatorial lemmas that control the number of polymers are exposed
alongside for direct verification.

The series is summed through Xi, not multiset by multiset: the disjoint
families are grown one polymer at a time with the loop walk's pair
generator, loops._runs, each a_k is kept exact (loops._exact_total), and the
terms follow from M c_M = M a_M - sum_{k<M} k c_k a_{M-k} in exact rational
arithmetic, each rounded once.  Disjoint families are rare exactly where the
multisets are many, among densely overlapping polymers.  The polymers and
their activities come from one loop walk (loops._polymer_arrays).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bp import MessageSet, check_weight_range
from .errors import BudgetExceededError, InvalidDegreeSequenceError, WeightOverflowError
from .graphs import FactorGraph
from .loops import (
    ActivityEvaluator,
    Polymer,
    _exact_total,
    _meets,
    _polymer_arrays,
    _runs,
    node_words,
    polymer_q,
)

SERIES_BLOCK = 1 << 12  # families per block; bounds memory


@dataclass(frozen=True)
class SeriesResult:
    """Per-order terms and partial sums of the polymer series."""

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    q: float
    polymer_count: int
    size_cutoff: int | None


@dataclass(frozen=True)
class QReport:
    """Single-node convergence statistic q and whether it certifies."""

    q: float
    certified: bool
    size_cutoff: int | None


def check_series_options(m_max: int, size_cutoff: int | None, z: float) -> None:
    """Refuse series options before any work: a non-finite z, an order
    below 1, a negative size cutoff."""
    if not math.isfinite(z):
        raise ValueError(f"z must be a finite number, got {z}")
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if size_cutoff is not None and size_cutoff < 0:
        raise ValueError(f"size_cutoff must be >= 0, got {size_cutoff}")


def polymer_series(
    graph: FactorGraph,
    messages: MessageSet,
    m_max: int = 4,
    size_cutoff: int | None = None,
    budget: int = 10_000_000,
    z: float = 1.0,
) -> SeriesResult:
    """Orders 1..m_max of the series for ln(1 + sum of loop activities).

    Order M is the sum, over multisets of M polymers, of the Ursell
    coefficient of their overlap pattern times the product of activities
    divided by the multiplicity factorials.  It is evaluated as [z^M] of
    ln Xi, the log of the hard-core polymer gas (module docstring): each
    term is exact given the activities and the float64 products over the
    disjoint families, rounded once, and the tests hold it within 2 ulp of
    the multiset sum done exactly.  `z` scales every activity; the
    default 1 evaluates the series itself, smaller values probe its decay.
    `budget` caps the walk's visits and the multisets over all orders; a
    series that needs more multisets is refused before any family is grown.
    A product or a term past the float range raises WeightOverflowError
    naming its order, a q past it one naming q.
    """
    check_series_options(m_max, size_cutoff, z)
    check_weight_range(graph)
    ev = ActivityEvaluator(graph, messages)
    words, acts, sizes = _polymer_arrays(graph, size_cutoff, budget, ev)
    tuples = sum(math.comb(len(acts) + order - 1, order) for order in range(1, m_max + 1))
    if tuples > budget:
        raise BudgetExceededError(
            f"series needs {tuples} tuples, over the budget of {budget};"
            " lower m_max or restrict size_cutoff"
        )
    acts = z * acts
    terms = _log_gas_terms(words, acts, m_max)
    q = _q_report(graph, words, acts, sizes, size_cutoff).q
    if not math.isfinite(q):
        raise WeightOverflowError(f"q = {q} passes the float range")
    return SeriesResult(
        terms=tuple(terms),
        partial_sums=tuple(itertools.accumulate(terms)),
        q=q,
        polymer_count=len(acts),
        size_cutoff=size_cutoff,
    )


def _family_sums(words: np.ndarray, acts: np.ndarray, m_max: int) -> list[int]:
    """a_0..a_m_max of Xi exactly, as ints in units of 2**-1126: a_k adds
    the activity products over the sets of k pairwise node-disjoint
    polymers (_disjoint_blocks), a_0 the empty set's 1.  A non-finite
    product raises before any of them is added."""
    sums = [1 << 1126] + [0] * m_max
    for order, prod in _disjoint_blocks(words, acts, m_max):
        if not np.isfinite(prod).all():
            raise WeightOverflowError(
                f"order {order}: an activity product passes the float range"
            )
        sums[order] += _exact_total(prod)
    return sums


def _log_gas_terms(words: np.ndarray, acts: np.ndarray, m_max: int) -> list[float]:
    """[z^M] ln Xi(z) for M = 1..m_max, each rounded once, from the exact
    a_k (_family_sums) by M c_M = M a_M - sum_{k<M} k c_k a_{M-k}, which is
    Xi' = Xi (ln Xi)', in Fractions."""
    a = [Fraction(s, 1 << 1126) for s in _family_sums(words, acts, m_max)]
    c, terms = [Fraction(0)], []
    for order in range(1, m_max + 1):
        c.append((order * a[order] - sum(k * c[k] * a[order - k] for k in range(1, order))) / order)
        try:
            terms.append(float(c[order]))
        except OverflowError:
            raise WeightOverflowError(f"order {order}: the term passes the float range") from None
    return terms


def _disjoint_blocks(words: np.ndarray, acts: np.ndarray, m_max: int):
    """Every set of 1..m_max pairwise node-disjoint polymers, in blocks
    (k, products) of at most SERIES_BLOCK sets of size k: each set's
    activities multiplied in increasing index order.  A block comes before
    the blocks grown from it, so the sets of each size come in
    lexicographic order."""
    root = np.full(1, -1), np.zeros((len(words), 1), dtype=np.uint64), np.ones(1)
    return _grow(words, acts, m_max, 1, *root)


def _grow(words, acts, m_max, order, last, union, prod):
    """The `order`-sets grown from a block of (order - 1)-sets, given by
    their last indices, union node words and products, then the sets grown
    from those: each set by every j past its last index whose node words
    miss its union (loops._runs, SERIES_BLOCK at a time)."""
    for parent, j in _runs(len(acts) - 1 - last, SERIES_BLOCK):
        j += last[parent] + 1
        # np.take, as indexing along axis 1 is several times slower
        free = ~_meets(np.take(union, parent, axis=1), np.take(words, j, axis=1))
        if not free.all():
            parent, j = parent[free], j[free]
        if not len(j):
            continue
        with np.errstate(over="ignore"):  # _family_sums refuses an inf
            block = prod[parent] * acts[j]
        yield order, block
        if order < m_max:
            grown = np.take(union, parent, axis=1) | np.take(words, j, axis=1)
            del parent, free  # else each level keeps its chunk
            yield from _grow(words, acts, m_max, order + 1, j, grown, block)


def convergence_criterion_q(
    graph: FactorGraph,
    messages: MessageSet,
    size_cutoff: int | None = None,
    budget: int = 10_000_000,
) -> QReport:
    """q = max over nodes of sum_{polymers through it} e^size * |activity|.

    q < 1 certifies a convergent series with per-order error decay; the
    polymers come from one walk, as the series', and past the float range
    q reads inf.
    """
    ev = ActivityEvaluator(graph, messages)
    return _q_report(graph, *_polymer_arrays(graph, size_cutoff, budget, ev), size_cutoff)


def convergence_criterion_q_bound(
    graph: FactorGraph,
    polymers: list[Polymer],
    bound_fn,
    size_cutoff: int | None = None,
) -> QReport:
    """Same statistic over a polymer list with a per-polymer activity
    bound, such as |ActivityEvaluator.value|, in place of |K|."""
    words = node_words([p.node_mask for p in polymers], graph.n + graph.m)
    bounds = [float(bound_fn(p)) for p in polymers]
    return _q_report(graph, words, bounds, [p.size for p in polymers], size_cutoff)


def _q_report(graph: FactorGraph, words, acts, sizes, size_cutoff) -> QReport:
    """polymer_q over polymers given as columns of words, acts and sizes."""
    q = polymer_q(np.zeros(graph.n + graph.m), words, acts, sizes)
    return QReport(q=q, certified=q < 1.0, size_cutoff=size_cutoff)


# ---------------------------------------------------------------------------
# combinatorial counting lemmas


def count_rooted_polymers(
    graph: FactorGraph,
    root: int,
    t: int,
    budget: int = 10_000_000,
) -> tuple[int, float]:
    """(number of polymers through node `root` with size <= t, e^(d t)).

    root is a global node id: variables 0..n-1 then checks n..n+m-1; d is the
    largest degree in the graph.  The bound always dominates the count; it
    is inf where e^(d t) passes float range.
    """
    if not 0 <= root < graph.n + graph.m:
        raise ValueError(f"root {root} outside the node range")
    if t < 1:
        raise ValueError(f"size threshold must be positive, got {t}")
    words = _polymer_arrays(graph, t, budget)[0]
    count = int(np.count_nonzero(words[root >> 6] >> np.uint64(root & 63) & np.uint64(1)))
    d = max(graph.l_max, graph.r_max)
    return count, math.exp(d * t) if d * t <= 709 else math.inf


def rooted_dary_tree_count(d: int, t: int) -> int:
    """Rooted ordered trees with t nodes, each with up to d ordered slots.

    Fuss-Catalan: C(t*d, t) / (t*(d-1) + 1); d = 2 gives the Catalan numbers
    and t = 0 counts the empty tree once.
    """
    if d < 1 or t < 0:
        raise ValueError(f"need d >= 1 and t >= 0, got d = {d}, t = {t}")
    return math.comb(t * d, t) // (t * (d - 1) + 1)


def cayley_tree_count(degrees: tuple[int, ...]) -> int:
    """Labeled trees on len(degrees) vertices with the given degree sequence.

    (M-2)! / prod (d_k - 1)!; the sequence must have every degree >= 1 and
    total 2(M-1).
    """
    m = len(degrees)
    if m < 2:
        raise InvalidDegreeSequenceError(f"need at least 2 vertices, got {m}")
    if any(d < 1 for d in degrees):
        raise InvalidDegreeSequenceError(f"degrees must be >= 1: {degrees}")
    if sum(degrees) != 2 * (m - 1):
        raise InvalidDegreeSequenceError(
            f"degree total {sum(degrees)} != 2(M-1) = {2 * (m - 1)}"
        )
    out = math.factorial(m - 2)
    for d in degrees:
        out //= math.factorial(d - 1)
    return out
