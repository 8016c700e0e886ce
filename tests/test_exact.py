"""Exact winner distributions and the analytic guarantee values.

The enumeration engine is checked against hand computations, against its
own second route, and against an independent symbolic evaluation of the
sample-size formula.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from impsel import mechanisms
from impsel.core import MULTI, SINGLE, NominationProfile
from impsel.exact import (
    DEFAULT_SEQUENCE_BUDGET,
    EnumerationTooLarge,
    WinnerDistribution,
    checked_sample_size,
    exact_distribution,
    expected_winner_degree,
    pr_top_in_nominated,
    rks_gap_lower_bound,
    sks_gap_upper_bound,
    sks_sample_size,
)
from impsel.generators import gen_random_single
from impsel.mechanisms import (
    MechanismSpec,
    ModelMismatch,
    compute_bound,
    mwd_gap_upper_bound,
    rks_worst_delta,
)

TRI = NominationProfile.single([2, 2, 0])


# ---------------------------------------------------------------------------
# WinnerDistribution


def test_distribution_must_sum_to_one():
    with pytest.raises(ValueError):
        WinnerDistribution(3, {0: Fraction(1, 2)}, Fraction(0))
    with pytest.raises(ValueError):
        WinnerDistribution(3, {0: Fraction(1, 2), 1: Fraction(1, 2)}, Fraction(1, 4))


def test_distribution_strips_zero_entries():
    d = WinnerDistribution(3, {0: Fraction(1), 1: Fraction(0)}, Fraction(0))
    assert d.p == {0: 1}
    assert d.probability(1) == 0
    assert d.probability(0) == 1


def test_point_mass():
    d = WinnerDistribution(4, {2: 1}, 0)
    assert d.probability(2) == 1
    assert d.p_none == 0
    none = WinnerDistribution(4, {}, 1)
    assert none.p_none == 1
    assert none.p == {}


def test_to_json_dict_uses_exact_strings():
    d = WinnerDistribution(3, {2: Fraction(2, 3), 0: Fraction(1, 3)}, Fraction(0))
    payload = d.to_json_dict()
    assert payload == {"n": 3, "p": {"0": "1/3", "2": "2/3"}, "p_none": "0"}


# ---------------------------------------------------------------------------
# exact distributions, hand-checked cases


def test_random_k1_on_triangle():
    d = exact_distribution(MechanismSpec.random_k(1), TRI)
    assert d.probability(2) == Fraction(2, 3)
    assert d.probability(0) == Fraction(1, 3)
    assert d.p_none == 0
    assert expected_winner_degree(d, TRI) == Fraction(5, 3)


def test_random_k_methods_agree_on_triangle():
    for k in (1, 2, 3):
        spec = MechanismSpec.random_k(k)
        assert exact_distribution(spec, TRI, method="sets") == exact_distribution(
            spec, TRI, method="sequences"
        )


def test_simple_k_all_abstain_never_selects():
    p = NominationProfile.multi(3, {})
    d = exact_distribution(MechanismSpec.simple_k(1), p)
    assert d.p_none == 1
    assert expected_winner_degree(d, p) == 0


def test_simple_k1_two_cycle():
    # sampling either vertex elects the other
    p = NominationProfile.single([1, 0])
    d = exact_distribution(MechanismSpec.simple_k(1), p)
    assert d.probability(0) == Fraction(1, 2)
    assert d.probability(1) == Fraction(1, 2)


def test_deterministic_specs_give_point_masses():
    star = NominationProfile.single([1, 0, 0, 0, 0])
    d = exact_distribution(MechanismSpec.fixed([0]), star)
    assert d.probability(1) == 1
    m = exact_distribution(MechanismSpec.majority_default(1), star)
    assert m.probability(0) == 1


def test_random_k_rejects_multi_model():
    p = NominationProfile.multi(3, {0: [1]})
    with pytest.raises(ModelMismatch):
        exact_distribution(MechanismSpec.random_k(1), p)


def test_expected_degree_checks_profile():
    d = WinnerDistribution(3, {0: 1}, 0)
    with pytest.raises(ValueError):
        expected_winner_degree(d, NominationProfile.single([1, 2, 3, 0]))


# ---------------------------------------------------------------------------
# enumeration budget


def test_budget_exceeded():
    p = NominationProfile.single([(u + 1) % 3 for u in range(3)])
    with pytest.raises(EnumerationTooLarge) as exc:
        exact_distribution(MechanismSpec.random_k(15), p)
    assert exc.value.required == 3**15
    assert exc.value.budget == DEFAULT_SEQUENCE_BUDGET


@pytest.mark.parametrize("budget", [-1, 0, 1, 2**20 - 1, 2**20, 2**20 + 1, 3**13, DEFAULT_SEQUENCE_BUDGET])
def test_budget_refuses_exactly_when_n_to_the_k_exceeds_it(budget):
    for n in (2, 3, 7):
        for k in range(1, 30):
            if budget < 0:  # a negative budget is refused as such, whatever n^k is
                with pytest.raises(ValueError, match=f"^budget must be non-negative, got {budget}$"):
                    checked_sample_size(MechanismSpec.random_k(k), n, SINGLE, budget)
            elif n**k > budget:
                with pytest.raises(EnumerationTooLarge):
                    checked_sample_size(MechanismSpec.random_k(k), n, SINGLE, budget)
            else:
                assert checked_sample_size(MechanismSpec.random_k(k), n, SINGLE, budget) == k
        # a deterministic kind draws nothing, so no budget is checked, not even a negative one
        for spec in (MechanismSpec.fixed([0]), MechanismSpec.majority_default(1)):
            assert checked_sample_size(spec, n, SINGLE, budget) == 0


def test_budget_refusal_never_builds_a_huge_space():
    p = NominationProfile.single([(u + 1) % 3 for u in range(3)])
    with pytest.raises(EnumerationTooLarge) as exc:
        exact_distribution(MechanismSpec.random_k(10**9), p)
    assert (exc.value.n, exc.value.k, exc.value.required) == (3, 10**9, None)
    assert str(exc.value).startswith("enumeration needs 3^1000000000 draw sequences, budget is 10000000;")
    # up to 8192 bits the space is still written out in decimal
    with pytest.raises(EnumerationTooLarge) as exc:
        exact_distribution(MechanismSpec.random_k(4096), p)
    assert exc.value.required == 3**4096
    assert f"needs {3**4096} draw sequences" in str(exc.value)


def test_budget_override():
    p = NominationProfile.single([(u + 1) % 3 for u in range(3)])
    d = exact_distribution(MechanismSpec.random_k(15), p, budget=3**15, method="sets")
    assert d.p_none + sum(d.probability(v) for v in range(3)) == 1


def test_sets_route_streams_its_samples():
    """The sets route reads ``sample_space`` one multiset at a time: on 120 vertices
    at k = 2 its peak stays well below the 1.5 MB that its 7,260 samples take at once."""
    p = gen_random_single(120, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        exact_distribution(MechanismSpec.random_k(2), p, method="sets")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


# ---------------------------------------------------------------------------
# the two enumeration routes agree on random instances


@st.composite
def small_profile(draw):
    n = draw(st.integers(2, 5))
    model = draw(st.sampled_from([SINGLE, MULTI]))
    if model == SINGLE:
        nominees = [draw(st.integers(0, n - 2)) for _ in range(n)]
        return NominationProfile.single([r if r < u else r + 1 for u, r in enumerate(nominees)])
    rows = [
        draw(st.sets(st.integers(0, n - 1).filter(lambda v, u=u: v != u), max_size=n - 1))
        for u in range(n)
    ]
    return NominationProfile.multi(n, rows)


@given(small_profile(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_enumeration_routes_agree(profile, k):
    spec = MechanismSpec.simple_k(k)
    assert exact_distribution(spec, profile, method="sets") == exact_distribution(
        spec, profile, method="sequences"
    )
    if profile.model == SINGLE:
        rspec = MechanismSpec.random_k(k)
        assert exact_distribution(rspec, profile, method="sets") == exact_distribution(
            rspec, profile, method="sequences"
        )


# ---------------------------------------------------------------------------
# closed-form membership probability


def test_pr_top_hand_values():
    assert pr_top_in_nominated(2, 1, 1) == Fraction(1, 2)
    assert pr_top_in_nominated(3, 1, 2) == Fraction(2, 3)
    # degree n - 1 collapses to the chance the top vertex is never drawn
    for n, k in [(4, 2), (5, 3)]:
        assert pr_top_in_nominated(n, k, n - 1) == Fraction(n - 1, n) ** k


def test_pr_top_validation():
    with pytest.raises(ValueError):
        pr_top_in_nominated(3, 1, 0)
    with pytest.raises(ValueError):
        pr_top_in_nominated(3, 1, 3)
    with pytest.raises(ValueError):
        pr_top_in_nominated(3, 0, 1)


def test_pr_top_matches_enumeration():
    # unique top vertex with degree 2 at n = 4
    p = NominationProfile.single([3, 3, 1, 2])
    top = 3
    assert p.in_degrees == (0, 1, 1, 2) and p.in_degrees.index(p.delta) == top
    for k in (1, 2, 3):
        total = Fraction(0)
        d = Fraction(p.delta, p.n - 1)
        # direct evaluation of the formula pieces as a sanity anchor
        expect = (1 - (1 - d) ** k) * Fraction(p.n - 1, p.n) ** k
        assert pr_top_in_nominated(p.n, k, p.delta) == expect
        # enumerate all draw sequences and count memberships
        seqs = p.n**k
        hits = 0
        for code in range(seqs):
            digits = []
            c = code
            for _ in range(k):
                digits.append(c % p.n)
                c //= p.n
            sample = set(digits)
            if top in sample:
                continue
            if any(top in p.out[s] for s in sample):
                hits += 1
        total = Fraction(hits, seqs)
        assert total == pr_top_in_nominated(p.n, k, p.delta)


# ---------------------------------------------------------------------------
# guarantee values


def test_rks_bound_values():
    assert rks_gap_lower_bound(2, 1) == 1.5
    assert rks_gap_lower_bound(100, 10) == pytest.approx(18 + 101 / 11)
    assert rks_gap_lower_bound(10000, 100) == pytest.approx(198 + 10001 / 101)
    with pytest.raises(ValueError):
        rks_gap_lower_bound(10, 0)
    with pytest.raises(ValueError):
        rks_gap_lower_bound(10, 10)


def test_rks_worst_delta():
    assert rks_worst_delta(2, 1) == 1
    assert rks_worst_delta(100, 10) == 27
    assert rks_worst_delta(10000, 100) == 297
    for n, k in [(5, 2), (50, 7), (333, 18)]:
        assert 1 <= rks_worst_delta(n, k) <= n - 1


def test_sks_sample_size_values():
    assert sks_sample_size(3) == 2
    assert sks_sample_size(100) == 57
    assert sks_sample_size(1000) == 303


def test_sks_sample_size_against_sympy():
    for n in list(range(2, 120)) + [500, 1000, 4096]:
        val = sympy.Pow(4 * sympy.Integer(n) ** 2 * sympy.log(n), sympy.Rational(1, 3))
        want = int(sympy.ceiling(val))
        want = max(1, min(want, n - 1))
        assert sks_sample_size(n) == want, n


def test_sks_gap_bound():
    assert sks_gap_upper_bound(100, 57) == pytest.approx(
        114 + 10**4 * math.exp(-(57**3) / (2 * 10**4))
    )
    # at the formula's own k the tail term is exactly n^2 * n^-2 = 1
    for n in (50, 200, 1000):
        k = (4 * n * n * math.log(n)) ** (1 / 3)
        assert sks_gap_upper_bound(n, k) == pytest.approx(2 * k + 1)


def test_mwd_bound_is_majority_threshold():
    assert mwd_gap_upper_bound(2) == 1
    assert mwd_gap_upper_bound(5) == 3
    assert mwd_gap_upper_bound(6) == 3
    assert mwd_gap_upper_bound(101) == 51


def test_compute_bound_reports():
    assert compute_bound(MechanismSpec.random_k(10), 100) == ("rks_lower", rks_gap_lower_bound(100, 10))
    assert compute_bound(MechanismSpec.simple_k(), 100) == ("sks_lower", sks_gap_upper_bound(100, 57))
    label, value = compute_bound(MechanismSpec.majority_default(0), 9)
    assert (label, value, type(value)) == ("mwd_upper", 5, float)
    with pytest.raises(ValueError, match="no closed-form guarantee for fixed_sample"):
        compute_bound(MechanismSpec.fixed([0]), 9)
    with pytest.raises(ValueError, match=r"sample size 9 out of range 1\.\.8"):
        compute_bound(MechanismSpec.random_k(9), 9)


def test_compute_bound_reads_the_formula_at_call_time(monkeypatch):
    calls = []
    formula = mechanisms.rks_gap_lower_bound
    monkeypatch.setattr(mechanisms, "rks_gap_lower_bound", lambda n, k: calls.append((n, k)) or formula(n, k))
    assert compute_bound(MechanismSpec.random_k(), 9) == ("rks_lower", 6.5)
    assert calls == [(9, 3)]


def test_sks_sample_size_precision_window():
    # an 80-digit mpmath cube root as the reference for the 60-digit decimal
    # evaluation, over small n, powers of two and powers of ten
    inputs = [*range(2, 3001), *(2**e for e in range(12, 41)), *(10**e for e in range(6, 13))]
    for n in inputs:
        with mpmath.workdps(80):
            val = mpmath.cbrt(4 * mpmath.mpf(n) ** 2 * mpmath.log(n))
            want = int(mpmath.ceil(val))
        assert sks_sample_size(n) == max(1, min(want, n - 1))
