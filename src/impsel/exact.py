"""Exact winner distributions.

Sampling mechanisms draw k times with replacement, so their randomness
space is the n^k equally likely draw sequences.  Everything here works in
exact rational arithmetic over that space.

Two enumeration routes are implemented and kept deliberately independent:

* ``sequences`` walks all n^k draw sequences directly.
* ``sets`` walks distinct sample sets (or multisets) and weights each by
  the number of sequences that produce it: inclusion-exclusion
  sum_j (-1)^j C(t,j) (t-j)^k for a t-element set, k!/prod(m_i!) for a
  multiset with multiplicities m_i.

Agreement between the two is a test target, so neither is expressed in
terms of the other.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import NominationProfile
from .mechanisms import (  # noqa: F401  (the guarantee formulas are also read from here)
    KINDS,
    BoundReport,
    MechanismSpec,
    check_model,
    compute_bound,
    multiset_winner,
    mwd_gap_upper_bound,
    nominated_winner,
    resolve_k,
    rks_gap_lower_bound,
    rks_worst_delta,
    run_mechanism,
    sks_gap_upper_bound,
    sks_sample_size,
)

__all__ = [
    "DEFAULT_SEQUENCE_BUDGET",
    "EnumerationTooLarge",
    "WinnerDistribution",
    "exact_distribution",
    "expected_winner_degree",
    "pr_top_in_nominated",
]

#: Enumeration refuses once the draw-sequence space n^k exceeds this.
DEFAULT_SEQUENCE_BUDGET = 10**7


class EnumerationTooLarge(ValueError):
    """The draw-sequence space exceeds the enumeration budget.

    ``required`` holds the size of the space that was requested, so
    callers can decide whether to raise the budget or fall back to
    Monte Carlo estimation.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} draw sequences, budget is {budget}; "
            f"raise the budget or use Monte Carlo"
        )
        self.required = required
        self.budget = budget


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
        cleaned = {}
        for u, prob in sorted(self.p.items()):
            prob = Fraction(prob)
            if prob < 0:
                raise ValueError(f"negative probability for vertex {u}")
            if not 0 <= u < self.n:
                raise ValueError(f"vertex {u} out of range 0..{self.n - 1}")
            if prob:
                cleaned[u] = prob
        object.__setattr__(self, "p", cleaned)
        object.__setattr__(self, "p_none", Fraction(self.p_none))
        if self.p_none < 0:
            raise ValueError("negative no-winner probability")
        total = self.p_none + sum(cleaned.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def point_mass(cls, n: int, winner: int | None) -> "WinnerDistribution":
        if winner is None:
            return cls(n, {}, Fraction(1))
        return cls(n, {winner: Fraction(1)}, Fraction(0))

    def probability(self, u: int) -> Fraction:
        return self.p.get(u, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.p))

    def to_json_dict(self) -> dict:
        """JSON-safe form; rationals as "num/den" strings to stay exact."""
        return {
            "n": self.n,
            "p": {str(u): str(prob) for u, prob in sorted(self.p.items())},
            "p_none": str(self.p_none),
        }


def _check_budget(n: int, k: int, budget: int) -> int:
    required = n**k
    if required > budget:
        raise EnumerationTooLarge(required, budget)
    return required


def _sequences_with_image_size(k: int, t: int) -> int:
    """Length-k sequences over a fixed t-element alphabet using every symbol."""
    return sum(
        (-1) ** j * math.comb(t, j) * (t - j) ** k for j in range(t + 1)
    )


def _random_k_by_sets(profile: NominationProfile, k: int) -> tuple[Counter, int, int]:
    n = profile.n
    counts: Counter[int] = Counter()
    none_weight = 0
    for t in range(1, min(k, n) + 1):
        weight = _sequences_with_image_size(k, t)
        if weight == 0:
            continue
        for subset in itertools.combinations(range(n), t):
            _, winner = nominated_winner(profile, subset)
            if winner is None:
                none_weight += weight
            else:
                counts[winner] += weight
    return counts, none_weight, n**k


def _simple_k_by_multisets(profile: NominationProfile, k: int) -> tuple[Counter, int, int]:
    n = profile.n
    counts: Counter[int] = Counter()
    none_weight = 0
    k_factorial = math.factorial(k)
    for combo in itertools.combinations_with_replacement(range(n), k):
        mults = Counter(combo)
        weight = k_factorial
        for m in mults.values():
            weight //= math.factorial(m)
        winner = multiset_winner(profile, mults)
        if winner is None:
            none_weight += weight
        else:
            counts[winner] += weight
    return counts, none_weight, n**k


def _by_sequences(
    spec: MechanismSpec, profile: NominationProfile, k: int, sample_of
) -> tuple[Counter, int, int]:
    """Walk all n^k draw sequences, applying the kind's winner rule once per
    distinct ``sample_of(sequence)``."""
    n = profile.n
    winner_of = KINDS[spec.kind].winner
    counts: Counter[int] = Counter()
    none_weight = 0
    cache: dict = {}
    for seq in itertools.product(range(n), repeat=k):
        key = sample_of(seq)
        if key in cache:
            winner = cache[key]
        else:
            winner = cache[key] = winner_of(spec, profile, key)
        if winner is None:
            none_weight += 1
        else:
            counts[winner] += 1
    return counts, none_weight, n**k


def exact_distribution(
    spec: MechanismSpec,
    profile: NominationProfile,
    *,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
    method: str = "auto",
) -> WinnerDistribution:
    """Exact winner distribution of ``spec`` on ``profile``.

    ``method`` selects the enumeration route for sampling mechanisms:
    ``"sequences"``, ``"sets"`` (weighted distinct sets or multisets), or
    ``"auto"`` to pick the cheaper ``"sets"`` route.  Deterministic
    mechanisms return a point mass and ignore both ``method`` and
    ``budget``.
    """
    if method not in ("auto", "sequences", "sets"):
        raise ValueError(f"unknown method {method!r}")
    n = profile.n
    if not spec.is_randomized:
        return WinnerDistribution.point_mass(n, run_mechanism(spec, profile))
    check_model(spec.kind, profile.model)
    k = resolve_k(spec, n)
    _check_budget(n, k, budget)
    rks = spec.kind == "random_k_sample"
    if method == "sequences":
        # random-k's winner depends on the set of draws, simple-k's on the multiset
        sample_of = frozenset if rks else lambda seq: tuple(sorted(seq))
        counts, none_weight, total = _by_sequences(spec, profile, k, sample_of)
    else:
        counts, none_weight, total = (_random_k_by_sets if rks else _simple_k_by_multisets)(profile, k)
    assert none_weight + sum(counts.values()) == total
    return WinnerDistribution(
        n,
        {u: Fraction(c, total) for u, c in counts.items()},
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
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    if k < 1:
        raise ValueError(f"sample size must be at least 1, got {k}")
    if not 1 <= delta <= n - 1:
        raise ValueError(f"in-degree {delta} out of range 1..{n - 1}")
    miss_all_nominators = (1 - Fraction(delta, n - 1)) ** k
    escape_sample = (1 - Fraction(1, n)) ** k
    return (1 - miss_all_nominators) * escape_sample
