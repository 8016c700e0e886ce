"""Exact winner distributions.

Every mechanism draws k times with replacement, so its randomness space is
the n^k equally likely draw sequences; a deterministic mechanism draws
nothing, and its one sequence of zero draws is the point mass.  Both
enumeration routes return one shape, ``(weights list, no-winner weight)``:
how many sequences each vertex wins, and how many nobody wins.
:func:`exact_distribution` alone divides them into a rational
:class:`WinnerDistribution`.

The two routes are kept deliberately independent:

* ``sequences`` walks all n^k draw sequences directly, the reference.
* ``sets`` is the bitmask kernel :func:`winner_weights`, which the
  exhaustive engines call too.  It walks the multisets of k draws of
  :func:`sample_space` lazily and weights each by the k!/prod(m_i!)
  sequences that produce it, m_i its multiplicities.  random-k's rule
  reads only which vertices were drawn, so it scores the same set once
  per multiset that has it.  It walks blocks of profiles that differ only
  in the last vertex's row, once per exhaustive search; this route one.

Agreement between the two is a test target, so neither is expressed in
terms of the other.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .core import NominationProfile, checked_int
from .mechanisms import (  # noqa: F401  (the guarantee formulas are also read from here)
    KINDS,
    MechanismSpec,
    check_model,
    resolve_k,
    rks_gap_lower_bound,
    sks_gap_upper_bound,
    sks_sample_size,
)

__all__ = [
    "DEFAULT_SEQUENCE_BUDGET",
    "EnumerationTooLarge",
    "WinnerDistribution",
    "checked_sample_size",
    "exact_distribution",
    "expected_winner_degree",
    "pr_top_in_nominated",
    "sample_space",
    "winner_weights",
]

#: Enumeration refuses once the draw-sequence space n^k exceeds this.
DEFAULT_SEQUENCE_BUDGET = 10**7


class EnumerationTooLarge(ValueError):
    """The draw-sequence space n^k exceeds the enumeration budget.

    ``required`` holds n^k, so callers can decide whether to raise the
    budget or fall back to Monte Carlo estimation.  Past 8192 bits (about
    2,466 digits) it is None and the message names the space ``n^k``.
    """

    def __init__(self, n: int, k: int, budget: int):
        self.n, self.k, self.budget = n, k, budget
        self.required = n**k if k * n.bit_length() <= 8192 else None
        super().__init__(
            f"enumeration needs {self.required or f'{n}^{k}'} draw sequences, budget is {budget}; "
            f"raise the budget or use Monte Carlo"
        )


@dataclass(frozen=True)
class WinnerDistribution:
    """Probability of each vertex winning, plus the no-winner mass.

    ``p`` maps vertex to an exact rational; zero entries are stripped so
    equal distributions compare equal.  ``p_none + sum(p.values()) == 1``
    always holds.
    """

    n: int
    p: dict[int, Fraction]
    p_none: Fraction

    def __post_init__(self):
        checked_int(self.n, "vertex count", 1)
        cleaned = {}
        for u, prob in sorted(self.p.items()):
            prob = Fraction(prob)
            if prob < 0:
                raise ValueError(f"negative probability for vertex {u}")
            checked_int(u, "vertex", 0, self.n - 1)
            if prob:
                cleaned[u] = prob
        object.__setattr__(self, "p", cleaned)
        object.__setattr__(self, "p_none", Fraction(self.p_none))
        if self.p_none < 0:
            raise ValueError("negative no-winner probability")
        total = self.p_none + sum(cleaned.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def probability(self, u: int) -> Fraction:
        return self.p.get(u, Fraction(0))

    def to_json_dict(self) -> dict:
        """JSON-safe form; rationals as "num/den" strings to stay exact."""
        return {
            "n": self.n,
            "p": {str(u): str(prob) for u, prob in sorted(self.p.items())},
            "p_none": str(self.p_none),
        }


def checked_sample_size(spec: MechanismSpec, n: int, model: str, budget: int) -> int:
    """Number of draws k of ``spec`` on n-vertex ``model`` profiles, 0 for a
    deterministic kind.

    Raises ModelMismatch when the kind is not defined for ``model``; then,
    when k > 0, ValueError unless ``budget`` is a non-negative int, and
    EnumerationTooLarge when n^k exceeds ``budget``, without building n^k.
    """
    check_model(spec.kind, model)
    k = resolve_k(spec, n)
    # n >= 2, so n^k exceeds the budget once k reaches the budget's bit length
    if k and n ** min(k, checked_int(budget, "budget").bit_length()) > budget:
        raise EnumerationTooLarge(n, k, budget)
    return k


def sample_space(n: int, k: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The multisets of k >= 1 draws over n vertices, one at a time.

    Yields ``(members, levels, weight)``: the distinct vertices drawn, the
    bitmasks ``levels[j]`` of those drawn more than j times, and the
    k!/prod(m!) of the n^k draw sequences that give the multiset.
    """
    for combo in itertools.combinations_with_replacement(range(n), k):
        mult = Counter(combo)
        levels = tuple(sum(1 << u for u in mult if mult[u] > j) for j in range(max(mult.values())))
        yield tuple(mult), levels, math.factorial(k) // math.prod(map(math.factorial, mult.values()))


def winner_weights(
    kind: str, blocks: Iterable[Sequence[Sequence[int]]], last_choices: Iterable[Sequence[int]], samples: Iterable
) -> Iterator[list[tuple[list[int], int]]]:
    """Integer winning weight of each vertex, and the no-winner weight, for each
    profile of each block, the out-rows of vertices 0..n-2, with each row of
    ``last_choices`` for the last vertex L in turn: one list of pairs per block.

    ``samples`` come from :func:`sample_space`, so each pair's weights sum to
    n^k; they are iterated once per block, lazily.  The rules of
    ``nominated_winner`` and ``multiset_winner`` on bitmasks: the pool is the OR
    of the members' out-rows less the sample, and a pool member v scores
    ``deg[v] - popcount(in_mask[v] & pool)`` (random-k) or the sample's
    nominations, one popcount per level (simple-k).  No pool, no winner; ties
    to the lowest id.  Masks stay non-negative, where CPython's bitwise ops are
    about twice as fast: ``(pool | s) ^ s`` is ``pool & ~s``.

    L's choice masks are built once per walk.  Blocks may come in any order: only
    the fixed rows that differ from the block before update their masks.  A sample
    that does not draw L is scored once per block: its pool is the same for
    every choice, simple-k reads no undrawn row, and under random-k L's nominee
    gains one in degree and, when L is in the pool, one in in-pool count.  With
    L outside the pool the gain stands, and each choice's winner is read off
    the members at the best score and one below.  A sample that draws L is
    scored per choice.  Under random-k a pool of exactly two members, lo < hi,
    is scored inline, not by ``scan``: with L drawn, the higher scorer wins and
    lo a tie; otherwise it gives scan's pair, ``(lo, 0)``, ``(pool, 0)`` on a tie
    or ``(hi, lo)`` with lo one below hi, else ``(hi, 0)``.
    """
    rks = kind == "random_k_sample"
    masks = [sum(1 << v for v in row) for row in last_choices]

    def scan(pool: int, levels: tuple[int, ...], nominees: int, bonus: int) -> tuple[int, int]:
        """Masks of the pool members at the best score and, scanning ids from the
        highest down, of those one below it that a gain of one could make win."""
        best, top, near, rest = -1, 0, 0, pool
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            if rks:
                score = degree[v] - (in_mask[v] & pool).bit_count()
            else:
                score = 0
                for level in levels:
                    score += (in_mask[v] & level).bit_count()
            if nominees & bit:
                score += bonus
            if score > best:
                best, top, near = score, bit, 0
            elif score == best:
                top |= bit
            elif score == best - 1:
                near |= bit
        return top, near

    previous = None
    for fixed_rows in blocks:
        if previous is None:  # the first block sizes the walk
            n = len(fixed_rows) + 1
            last, previous = 1 << (n - 1), [()] * (n - 1)
            out_mask, in_mask, degree = [0] * n, [0] * n, [0] * n
        for u, (row, old) in enumerate(zip(fixed_rows, previous)):
            if row != old:
                for v in old:
                    in_mask[v] ^= 1 << u
                    degree[v] -= 1
                for v in row:
                    in_mask[v] |= 1 << u
                    degree[v] += 1
                out_mask[u] = sum(1 << v for v in row)
        previous = fixed_rows
        # per choice: L's nominees as a mask, and the weights it alone decides.  [n], that
        # is [-1], is no winner, so an empty pool's lowest bit, at -1, lands there
        choices = [(mask, [0] * (n + 1)) for mask in masks]
        common = [0] * (n + 1)
        for members, levels, weight in samples:
            drawn = levels[0]
            pool = 0
            for u in members:
                pool |= out_mask[u]
            tie = not rks and len(members) == 1  # simple-k's lone nominator scores its nominees alike
            if drawn & last:
                # L, drawn, is in no pool: its nominees gain its one nomination, or its multiplicity
                bonus = 1 if rks else sum(level >> (n - 1) for level in levels)
                for nominees, weights in choices:
                    top = (pool | nominees | drawn) ^ drawn
                    rest = top & (top - 1)
                    if rest and not tie:  # two candidates or more that may score apart
                        if rks and not rest & (rest - 1):  # two, lo < hi: lo wins a tie
                            lo, hi = (top ^ rest).bit_length() - 1, rest.bit_length() - 1
                            s_lo = degree[lo] - (in_mask[lo] & top).bit_count() + (nominees >> lo & 1)
                            s_hi = degree[hi] - (in_mask[hi] & top).bit_count() + (nominees >> hi & 1)
                            weights[hi if s_hi > s_lo else lo] += weight
                            continue
                        top = scan(top, levels, nominees, bonus)[0]
                    weights[(top & -top).bit_length() - 1] += weight
                continue
            pool = (pool | drawn) ^ drawn
            rest = pool & (pool - 1)
            if tie or not rest:
                common[(pool & -pool).bit_length() - 1] += weight
                continue
            if rks and not rest & (rest - 1):  # two candidates: scan's (top, near), lo < hi
                lo, hi = (pool ^ rest).bit_length() - 1, rest.bit_length() - 1
                s_lo = degree[lo] - (in_mask[lo] & pool).bit_count()
                s_hi = degree[hi] - (in_mask[hi] & pool).bit_count()
                if s_lo > s_hi:
                    top, near = pool ^ rest, 0
                elif s_lo == s_hi:
                    top, near = pool, 0
                else:
                    top, near = rest, pool ^ rest if s_lo == s_hi - 1 else 0
            else:
                top, near = scan(pool, levels, 0, 0)
            if not rks or pool & last:
                common[(top & -top).bit_length() - 1] += weight
                continue
            for nominees, weights in choices:
                won = nominees & top or top | (nominees & near)
                weights[(won & -won).bit_length() - 1] += weight
        head, none = common[:n], common[n]
        yield [([*map(add, head, weights)], none + weights[n]) for _, weights in choices]


def _by_sequences(spec: MechanismSpec, profile: NominationProfile, k: int) -> tuple[list[int], int]:
    """Winning weight of each vertex, and the no-winner weight, over all n^k
    draw sequences, applying the kind's winner rule once per multiset of draws."""
    n = profile.n
    winner_of = KINDS[spec.kind].winner
    weights = [0] * n
    none_weight = 0
    cache: dict = {}
    for seq in itertools.product(range(n), repeat=k):
        key = tuple(sorted(seq))
        if key in cache:
            winner = cache[key]
        else:
            winner = cache[key] = winner_of(spec, profile, key)
        if winner is None:
            none_weight += 1
        else:
            weights[winner] += 1
    return weights, none_weight


def exact_distribution(
    spec: MechanismSpec,
    profile: NominationProfile,
    *,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
    method: str = "auto",
) -> WinnerDistribution:
    """Exact winner distribution of ``spec`` on ``profile``.

    ``method`` selects the enumeration route: ``"sequences"``, ``"sets"``
    (weighted multisets), or ``"auto"`` to pick the cheaper ``"sets"``
    route.  A deterministic mechanism draws nothing, so both routes are its
    one empty sequence, the point mass, and no budget is checked.
    """
    if method not in ("auto", "sequences", "sets"):
        raise ValueError(f"unknown method {method!r}")
    n = profile.n
    k = checked_sample_size(spec, n, profile.model, budget)
    if method == "sequences" or k == 0:
        weights, none_weight = _by_sequences(spec, profile, k)
    else:
        rows = profile.out
        [[(weights, none_weight)]] = winner_weights(spec.kind, [rows[:-1]], rows[-1:], sample_space(n, k))
    total = n**k
    assert none_weight + sum(weights) == total
    return WinnerDistribution(
        n,
        {u: Fraction(weights[u], total) for u in itertools.compress(range(n), weights)},
        Fraction(none_weight, total),
    )


def expected_winner_degree(dist: WinnerDistribution, profile: NominationProfile) -> Fraction:
    """Exact expected in-degree of the winner; the no-winner event counts 0."""
    if dist.n != profile.n:
        raise ValueError(f"distribution is over {dist.n} vertices, profile has {profile.n}")
    degs = profile.in_degrees
    return sum((prob * degs[u] for u, prob in dist.p.items()), Fraction(0))


def pr_top_in_nominated(n: int, k: int, delta: int) -> Fraction:
    """Probability that a vertex of in-degree ``delta`` lands in the nominee pool.

    For k draws with replacement: the vertex itself must escape every draw,
    and at least one of its delta nominators must be drawn.  Conditioned on
    the first event each draw is uniform over the other n-1 vertices, so the
    value is exactly (1 - (1 - delta/(n-1))^k) * (1 - 1/n)^k.
    """
    n = checked_int(n, "vertex count", 2)
    checked_int(k, "sample size", 1)
    checked_int(delta, "in-degree", 1, n - 1)
    miss_all_nominators = (1 - Fraction(delta, n - 1)) ** k
    escape_sample = (1 - Fraction(1, n)) ** k
    return (1 - miss_all_nominators) * escape_sample
