"""Exact closed forms for the gap on the star and bound-stress families.

On ``fixed-sample-adversary`` with v = 0 (the star: every vertex nominates
0, and 0 nominates 1) both sampling rules behave alike: if 0 is not drawn
it wins; if 0 is drawn but 1 is not, 1 wins; if both are drawn nobody
does.  With a = (1 - 1/n)^k and b = (1 - 2/n)^k the gap delta - E[winner
degree] is therefore (n-1)(1-a) - (a-b), and the star attains the random-k
rate Theta(sqrt n) at the default k.  Where every profile can be enumerated
it is also the worst one: the exhaustive gap of either rule at its default k
equals the star's on single n = 3..6, and on multi n = 3, 4 simple-k's worst
profile is the multi star, whose centre nominates nobody, at the measured
gaps 10/9 and 111/64.  There simple-k's centre wins unless it is drawn; drawn,
it leaves every candidate at score 0 and nobody wins.  So that gap is
(n-1)(1-a), at the k that ``resolve_k`` gives: simple-k clamps its k to n - 1.

On ``bound-stress`` the gap is (delta-1)(1 - pr_top_in_nominated) whenever
some vertex always wins, which holds when k < n - delta + 1, the length of
the chain's cycle.  At the default k it grows only like n^(1/3), which is
why acceptance criterion C4's pinned window [0.35, 0.65] stays red: the
family picks the delta where the guarantee is tightest, not where the
mechanism is worst.  Together the two bound the sampling family from
below: at every size checked, no fixed k keeps both gaps under sqrt(n)/2.
On single n = 3..6 no mixture of random-k over k <= 7 beats k = 1: one
``single-worst`` profile holds every such k at or above k = 1's worst gap.
The closed forms live here as test oracles.
"""

import math
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from impsel.core import MULTI, SINGLE, NominationProfile
from impsel.exact import exact_distribution, expected_winner_degree, pr_top_in_nominated
from impsel.generators import GeneratorSpec, gen_bound_stress, gen_fixed_sample_adversary, gen_single_worst
from impsel.mechanisms import (
    MechanismSpec,
    multiset_winner,
    nominated_winner,
    resolve_k,
    rks_gap_lower_bound,
    rks_worst_delta,
    sks_gap_upper_bound,
    trial_draws,
)
from impsel.montecarlo import TrialPlan, estimate
from impsel.verify import measure_additive_gap_exhaustive
from test_winners import reference_multiset, reference_nominated

C4_N_VALUES = (64, 128, 256, 512, 1024, 2048, 4096)
MC_SEED = 31
MATCH_TRIALS = 300
ESTIMATE_TRIALS = 3_000
SMALL_CASES = [(n, k) for n in range(3, 13) for k in range(1, 6) if n**k <= 10**6]


def star_gap(n, k):
    a = Fraction(n - 1, n) ** k
    b = Fraction(n - 2, n) ** k
    return (n - 1) * (1 - a) - (a - b)


def multi_star_gap(n, k):
    return (n - 1) * (1 - Fraction(n - 1, n) ** k)


def multi_star(n):
    return NominationProfile.multi(n, {v: (0,) for v in range(1, n)})


def bound_stress_gap(n, k):
    delta = rks_worst_delta(n, k)
    return (delta - 1) * (1 - pr_top_in_nominated(n, k, delta))


def enumerated_gap(spec, profile):
    return profile.delta - expected_winner_degree(exact_distribution(spec, profile), profile)


def log_log_slope(gap, n_values, make=MechanismSpec.random_k):
    """Least-squares slope of ln(gap) against ln(n) at the default k of ``make``'s kind."""
    points = [(math.log(n), math.log(gap(n, resolve_k(make(), n)))) for n in n_values]
    return statistics.linear_regression(*zip(*points)).slope


@pytest.mark.parametrize("make", [MechanismSpec.random_k, MechanismSpec.simple_k])
def test_star_gap_matches_enumeration(make):
    assert len(SMALL_CASES) == 50
    for n, k in SMALL_CASES:
        spec = make(k)
        assert enumerated_gap(spec, gen_fixed_sample_adversary(n, 0)) == star_gap(n, resolve_k(spec, n)), (n, k)


def test_multi_star_gap_matches_enumeration():
    unclamped = set()
    for n in range(3, 9):
        for k in range(1, 5):
            spec = MechanismSpec.simple_k(k)
            gap = enumerated_gap(spec, multi_star(n))
            assert gap == multi_star_gap(n, resolve_k(spec, n)), (n, k)
            if gap != multi_star_gap(n, k):
                unclamped.add((n, k))
    assert unclamped == {(3, 3), (3, 4), (4, 4)}


def test_bound_stress_gap_matches_enumeration_while_someone_always_wins():
    checked = 0
    for n, k in SMALL_CASES:
        if k < n - rks_worst_delta(n, k) + 1:
            assert enumerated_gap(MechanismSpec.random_k(k), gen_bound_stress(n, k)) == bound_stress_gap(n, k), (n, k)
            checked += 1
    assert checked == 21


def test_star_shows_the_sqrt_rate_under_its_guarantee():
    assert 0.35 <= log_log_slope(star_gap, C4_N_VALUES) <= 0.65
    for n in C4_N_VALUES:
        k = resolve_k(MechanismSpec.random_k(), n)
        assert 0 < star_gap(n, k) < rks_gap_lower_bound(n, k)


def test_bound_stress_slope_explains_c4():
    assert log_log_slope(bound_stress_gap, C4_N_VALUES) == pytest.approx(0.3231, abs=1e-4)


def test_multi_star_slope_is_the_simple_k_rate():
    """n^(2/3) ln^(1/3) n over these sizes: the shape of simple-k's guarantee."""
    assert log_log_slope(multi_star_gap, C4_N_VALUES, MechanismSpec.simple_k) == pytest.approx(0.7712, abs=1e-4)


@pytest.mark.parametrize("n", [*C4_N_VALUES, 10**5, 10**6])
def test_the_star_attains_each_guarantee_within_a_constant_factor(n):
    """Both guarantees are tight up to a constant: at its kind's default k, the star's
    exact gap is at least 3/10 of random-k's guarantee, and the multi star's at least
    1/3 of simple-k's.  Each gap is a Fraction; each comparison with a guarantee's
    float is exact."""
    k = resolve_k(MechanismSpec.random_k(), n)
    assert 10 * star_gap(n, k) >= 3 * rks_gap_lower_bound(n, k), (n, k)
    k = resolve_k(MechanismSpec.simple_k(), n)
    assert 3 * multi_star_gap(n, k) >= sks_gap_upper_bound(n, k), (n, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("make", [MechanismSpec.random_k, MechanismSpec.simple_k])
def test_star_is_the_worst_single_profile(make, n):
    spec = make()
    assert measure_additive_gap_exhaustive(spec, n, SINGLE) == (
        star_gap(n, resolve_k(spec, n)),
        gen_fixed_sample_adversary(n, 0),
    )


@pytest.mark.parametrize("n, gap", [(3, Fraction(10, 9)), (4, Fraction(111, 64))])
def test_multi_star_is_the_worst_multi_profile_of_simple_k(n, gap):
    spec = MechanismSpec.simple_k()
    assert multi_star_gap(n, resolve_k(spec, n)) == gap
    assert measure_additive_gap_exhaustive(spec, n, MULTI) == (gap, multi_star(n))


@pytest.mark.parametrize("n", [*C4_N_VALUES, 10**5, 10**6])
def test_no_fixed_k_escapes_sqrt_n_on_star_and_bound_stress(n):
    """random-k draws its sample without looking at the profile, so each
    ``random-k:k`` is a randomized strong-sample mechanism, and the paper's
    Omega(sqrt n) lower bound applies to it.  On these two families: the star
    punishes a large k, bound-stress a small one, and at every k one of them
    keeps the gap at c * sqrt(n) or more, with c = 1/2.

    The star's gap rises with k: its k-derivative is n a |ln(1 - 1/n)| -
    b |ln(1 - 2/n)|, positive because a >= b and n |ln(1 - 1/n)| >= 1 >
    |ln(1 - 2/n)|.  So k runs only up to the first k where the star alone
    reaches c * sqrt(n).  Every comparison is exact: gap >= sqrt(n)/2 is
    4 gap^2 >= n in Fractions."""
    k = 0
    while True:
        k += 1
        assert k < n - rks_worst_delta(n, k) + 1  # where bound_stress_gap is exact
        star = star_gap(n, k)
        gap = max(star, bound_stress_gap(n, k))
        assert 4 * gap * gap >= n, k
        if 4 * star * star >= n:
            break


@pytest.mark.parametrize(
    "n, gap, delta, k_max",
    [(3, Fraction(1, 3), 2, 7), (4, Fraction(1, 2), 3, 7), (5, Fraction(4, 5), 3, 7), (6, Fraction(1), 4, 6)],
    ids=["n3", "n4", "n5", "n6"],
)
def test_no_mixture_of_random_k_beats_k_1_on_small_single_profiles(n, gap, delta, k_max):
    """A mechanism that runs random-k:k with probability mu_k, for k = 1..k_max,
    has worst single-model gap ``gap``, the one random-k:1 has: no lower.  Scope:
    mixtures of random-k with k <= 7, not every strong-sample mechanism.

    k = 1 attains ``gap`` over every n-vertex profile.  One profile certifies that
    no mixture does better: on ``gen_single_worst(n, delta)`` every random-k:k has
    exact gap at least ``gap``, so every mixture's gap there, and its worst gap,
    is at least ``gap`` too."""
    assert measure_additive_gap_exhaustive(MechanismSpec.random_k(1), n, SINGLE)[0] == gap
    profile = gen_single_worst(n, delta)
    for k in range(1, k_max + 1):
        assert enumerated_gap(MechanismSpec.random_k(k), profile) >= gap, k


@pytest.mark.parametrize("family", ["bound-stress", "star"])
def test_random_k_at_c4s_sizes_matches_the_reference_and_the_closed_form(family):
    """The sizes the C4 sweep and the ``mc-rks`` benchmark run, n = 64..4096 at the
    default k.  First, the first 300 trials' draws of seed 31 give
    ``reference_nominated``'s pool and winner, trial by trial, on the flat profile the
    sweep builds (the reference reads a second copy, so the first builds no rows).
    Second, ``estimate`` over 3,000 trials of seed 31 sits within 5 sigma of the
    family's closed-form gap and below the random-k guarantee."""
    spec = MechanismSpec.random_k()
    for n in C4_N_VALUES:
        k = resolve_k(spec, n)
        if family == "star":
            make, gap = (lambda: gen_fixed_sample_adversary(n, 0)), star_gap(n, k)
        else:
            assert k < n - rks_worst_delta(n, k) + 1  # where bound_stress_gap is exact
            make, gap = (lambda: gen_bound_stress(n, k)), bound_stress_gap(n, k)
        profile, reference = make(), make()
        for draws in trial_draws(MC_SEED, MATCH_TRIALS, k, n):
            pool, winner, _ = reference_nominated(reference, draws)
            assert nominated_winner(profile, draws) == (pool, winner), (n, draws)
        assert "out" not in vars(profile)
        row = estimate(spec, profile, TrialPlan(ESTIMATE_TRIALS, MC_SEED))
        assert abs(row.gap - gap) <= 5 * row.std_err, (n, row.gap, float(gap), row.std_err)
        assert row.gap < rks_gap_lower_bound(n, k), (n, row.gap)


@pytest.mark.parametrize(
    "family, params", [("single-worst", {}), ("random-multi", {"p": 0.05})], ids=["single", "multi"]
)
def test_simple_k_at_c5s_sizes_up_to_256_matches_the_reference(family, params):
    """C5's sizes where ``multiset_winner`` sums byte lanes, n = 128 and 256 at the
    default k: the first 300 trials' draws of seed 31 give ``reference_multiset``'s
    winner, trial by trial, on the profiles C5 and the ``mc-sks`` benchmark sweep.  The
    reference reads a second copy, so the flat single-worst profile builds no rows."""
    spec, generator = MechanismSpec.simple_k(), GeneratorSpec.from_mapping(family, params)
    for n in (128, 256):
        seed = MC_SEED if generator.needs_seed else None
        profile, reference = generator.build(n, seed), generator.build(n, seed)
        for draws in trial_draws(MC_SEED, MATCH_TRIALS, resolve_k(spec, n), n):
            assert multiset_winner(profile, draws) == reference_multiset(reference, Counter(draws))[0], (n, draws)
        assert "nominee_lanes" in vars(profile) and (profile.model != SINGLE or "out" not in vars(profile))


@pytest.mark.parametrize("n", [128, 256])
def test_simple_k_on_the_multi_star_matches_the_closed_form(n):
    """The sizes of C5's multi rows: ``estimate`` of ``simple-k:auto`` over 3,000 trials
    of seed 31 on the multi star sits within 5 sigma of its closed-form gap and below
    the simple-k guarantee."""
    spec = MechanismSpec.simple_k()
    k = resolve_k(spec, n)
    row = estimate(spec, multi_star(n), TrialPlan(ESTIMATE_TRIALS, MC_SEED))
    gap = multi_star_gap(n, k)
    assert abs(row.gap - gap) <= 5 * row.std_err, (n, row.gap, float(gap), row.std_err)
    assert row.gap < sks_gap_upper_bound(n, k), (n, row.gap)
