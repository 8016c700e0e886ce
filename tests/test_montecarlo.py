"""Monte Carlo estimation, sweeps, and scaling fits.

The estimator is validated against exact distributions in two ways: a
fixed-profile comparison with a generous sigma allowance, and a repeated
check over many master seeds that the exact mean lands inside the
reported confidence band at the expected rate.
"""

import dataclasses
import math
import time
from fractions import Fraction

import pytest

from impsel.core import SINGLE, NominationProfile
from impsel.exact import exact_distribution, expected_winner_degree, pr_top_in_nominated
from impsel.generators import GeneratorSpec, gen_single_worst
from impsel.mechanisms import MechanismSpec
from impsel.montecarlo import (
    CSV_HEADER,
    GapReport,
    SweepConfig,
    SweepRow,
    TrialPlan,
    estimate,
    fit_scaling,
    rows_to_csv,
    rows_to_json,
    sweep,
)

TRI = NominationProfile.single([2, 2, 0])


# ---------------------------------------------------------------------------
# plans and reports


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(0, 1)
    TrialPlan(1, 0)


def test_gap_report_invariants():
    with pytest.raises(ValueError):
        GapReport(3, 1, 2, 2.5, -0.5, 0.0, 0.0, 0.0, 10, 0, False)
    with pytest.raises(ValueError):
        GapReport(3, 1, 2, 1.0, 1.0, 0.1, 0.2, 0.0, 10, 0, True)


# ---------------------------------------------------------------------------
# deterministic mechanisms are reported exactly


def test_estimate_fixed_sample_exact():
    star = NominationProfile.single([1, 0, 0, 0, 0])
    report = estimate(MechanismSpec.fixed([0]), star, TrialPlan(1000, 42))
    assert report.exact
    assert report.gap == 3.0
    assert report.std_err == 0.0
    assert report.no_winner_rate == 0.0
    assert report.k == 1
    again = estimate(MechanismSpec.fixed([0]), star, TrialPlan(5, 7))
    assert again.gap == report.gap


def test_estimate_majority_default_exact():
    p = NominationProfile.multi(4, {1: [2], 3: [2]})
    report = estimate(MechanismSpec.majority_default(0), p, TrialPlan(10, 0))
    assert report.exact
    assert report.mean_degree == 2.0
    assert report.gap == 0.0


# ---------------------------------------------------------------------------
# randomized estimation against exact values


def test_estimate_matches_exact_on_triangle():
    spec = MechanismSpec.random_k(1)
    exact = float(expected_winner_degree(exact_distribution(spec, TRI), TRI))
    report = estimate(spec, TRI, TrialPlan(20000, 2718))
    assert report.std_err > 0
    assert abs(report.mean_degree - exact) < 5 * report.std_err
    assert report.exact is False


def test_estimate_is_deterministic_per_seed():
    spec = MechanismSpec.simple_k(2)
    a = estimate(spec, TRI, TrialPlan(500, 99))
    b = estimate(spec, TRI, TrialPlan(500, 99))
    assert a == b
    c = estimate(spec, TRI, TrialPlan(500, 100))
    assert c != a


def test_estimate_no_winner_rate():
    allabstain = NominationProfile.multi(4, {})
    report = estimate(MechanismSpec.simple_k(2), allabstain, TrialPlan(200, 3))
    assert report.no_winner_rate == 1.0
    assert report.mean_degree == 0.0


def test_random_k_stays_linear_when_no_candidate_is_skipped():
    # on an n-cycle every in-degree is 1, so no pool member is passed over on its
    # in-degree and each one's in-pool count is read, for a pool of about 24,000
    # per trial: a scan of the pool's nominations per candidate would take seconds
    cycle = gen_single_worst(100_000, 1)
    start = time.perf_counter()
    report = estimate(MechanismSpec.random_k(50_000), cycle, TrialPlan(3, 7))
    assert time.perf_counter() - start < 3
    assert (report.mean_degree, report.no_winner_rate) == (1.0, 0.0)


def test_confidence_band_coverage():
    # Exact mean should fall within 5 standard errors essentially always;
    # 100 independent master seeds make a sensitive end-to-end check of
    # the stream, the winner rule, and the variance computation at once.
    spec = MechanismSpec.random_k(2)
    profile = gen_single_worst(8, 4)
    exact = float(expected_winner_degree(exact_distribution(spec, profile), profile))
    misses = 0
    for seed in range(100):
        report = estimate(spec, profile, TrialPlan(2000, seed))
        if abs(report.mean_degree - exact) > 5 * report.std_err:
            misses += 1
    assert misses == 0


def test_concentrated_family_closed_form():
    # On the concentrated-degree family the winner is either the top vertex
    # or some degree-1 vertex, so the expected gap has a closed form:
    # (delta - 1) * (1 - Pr[top vertex is nominated by the sample]).
    n, k, delta = 50, 7, 18
    profile = gen_single_worst(n, delta)
    want = (delta - 1) * (1 - Fraction(pr_top_in_nominated(n, k, delta)))
    report = estimate(MechanismSpec.random_k(k), profile, TrialPlan(30000, 1234))
    assert abs(report.gap - float(want)) < 5 * report.std_err


def test_concentrated_family_closed_form_exactly():
    # same identity, verified without sampling at enumerable size
    n, k, delta = 6, 2, 3
    profile = gen_single_worst(n, delta)
    d = exact_distribution(MechanismSpec.random_k(k), profile)
    gap = delta - expected_winner_degree(d, profile)
    assert gap == (delta - 1) * (1 - pr_top_in_nominated(n, k, delta))


# ---------------------------------------------------------------------------
# sweeps


SMALL_DOC = {
    "mechanisms": ["random-k:2", "simple-k:2"],
    "generator": {"family": "random-single"},
    "n_values": [6, 9],
    "trials": 400,
    "master_seed": 2024,
    "instances": 2,
}


def small_config(**overrides):
    return SweepConfig.from_json_dict({**SMALL_DOC, **overrides})


def test_sweep_row_grid_and_order():
    config = small_config()
    rows = sweep(config)
    assert len(rows) == 2 * 2 * 2
    labels = [(r.mechanism, r.report.n) for r in rows]
    assert labels == [
        ("random-k:2", 6),
        ("random-k:2", 6),
        ("random-k:2", 9),
        ("random-k:2", 9),
        ("simple-k:2", 6),
        ("simple-k:2", 6),
        ("simple-k:2", 9),
        ("simple-k:2", 9),
    ]
    # seeded family: every row carries its instance seed
    assert all(r.instance_seed is not None for r in rows)
    seeds = {r.instance_seed for r in rows}
    assert len(seeds) == len(rows)


def test_sweep_is_reproducible_across_jobs():
    config = small_config()
    solo = sweep(config, jobs=1)
    par = sweep(config, jobs=2)
    assert solo == par
    assert rows_to_csv(solo) == rows_to_csv(par)


def test_sweep_empty_n_values():
    config = small_config(n_values=[])
    assert sweep(config) == []


def test_sweep_seed_changes_rows():
    a = sweep(small_config())
    b = sweep(small_config(master_seed=2025))
    assert a != b


def test_config_validation_messages():
    with pytest.raises(ValueError, match="/trials"):
        SweepConfig.from_json_dict(
            {
                "mechanisms": ["random-k:2"],
                "generator": {"family": "star"},
                "n_values": [4],
                "master_seed": 0,
            }
        )
    with pytest.raises(ValueError, match="unknown"):
        SweepConfig.from_json_dict(
            {
                "mechanisms": ["random-k:2"],
                "generator": {"family": "star"},
                "n_values": [4],
                "trials": 10,
                "master_seed": 0,
                "bogus": 1,
            }
        )


def test_config_constructor_checks_the_converted_fields():
    config = small_config()
    with pytest.raises(ValueError, match=r"^/mechanisms\[0\]: must be a MechanismSpec$"):
        dataclasses.replace(config, mechanisms=("random-k:2",))
    with pytest.raises(ValueError, match=r"^/generator: must be a GeneratorSpec$"):
        dataclasses.replace(config, generator="random-single")
    # a container that is not iterable at all is named by its field too
    with pytest.raises(ValueError, match=r"^/n_values: must be a list of integers$"):
        dataclasses.replace(config, n_values=5)
    with pytest.raises(ValueError, match=r"^/mechanisms: must be a list of MechanismSpecs$"):
        dataclasses.replace(config, mechanisms=5)


def test_config_rejects_exact_budget():
    with pytest.raises(ValueError, match="^/exact_budget: unknown field$"):
        small_config(exact_budget=1000)


def test_config_rejects_bound_stress_k_zero():
    with pytest.raises(ValueError, match="^/generator: parameter k must be at least 1, got 0$"):
        small_config(generator={"family": "bound-stress", "k": 0}, instances=1)


def test_config_rejects_single_worst_delta_zero():
    with pytest.raises(ValueError, match="^/generator: parameter delta must be at least 1, got 0$"):
        small_config(generator={"family": "single-worst", "delta": 0}, instances=1)


@pytest.mark.parametrize("key", ["trials", "instances"])
def test_config_rejects_null_counts(key):
    with pytest.raises(ValueError, match=f"^/{key}: must be an integer >= 1$"):
        small_config(**{key: None})


_STAR = {"generator": {"family": "star"}, "instances": 1}
_MULTI = {"mechanisms": ["simple-k:2"], "generator": {"family": "random-multi", "p": 0.2}}
# (a valid base over SMALL_DOC, the one field corrupted, its bad value, the path the error names)
_CORRUPTIONS = {
    "mechanisms-not-a-list": ({}, "mechanisms", "random-k:2", "/mechanisms"),
    "mechanisms-not-a-string": ({}, "mechanisms", ["random-k:2", 7], "/mechanisms[1]"),
    "mechanisms-bad-k": ({}, "mechanisms", ["random-k:2", "simple-k:0"], "/mechanisms[1]"),
    "mechanisms-model-mismatch": (_MULTI, "mechanisms", ["simple-k:2", "random-k:2"], "/mechanisms[1]"),
    "generator-unknown-family": ({}, "generator", {"family": "bogus"}, "/generator"),
    "generator-not-an-object": ({}, "generator", ["random-single"], "/generator"),
    "n_values-not-a-list": ({}, "n_values", 6, "/n_values"),
    "n_values-float": ({}, "n_values", [6, 9.0], "/n_values"),
    "n_values-bool": ({}, "n_values", [6, True], "/n_values"),
    "n_values-below-two": ({}, "n_values", [6, 1], "/n_values"),
    "trials-zero": ({}, "trials", 0, "/trials"),
    "trials-bool": ({}, "trials", True, "/trials"),
    "trials-float": ({}, "trials", 2.5, "/trials"),
    "master_seed-string": ({}, "master_seed", "7", "/master_seed"),
    "master_seed-bool": ({}, "master_seed", False, "/master_seed"),
    "instances-zero": ({}, "instances", 0, "/instances"),
    "instances-bool": ({}, "instances", True, "/instances"),
    "instances-deterministic-family": (_STAR, "instances", 3, "/instances"),
}


@pytest.mark.parametrize(("base", "key", "value", "path"), _CORRUPTIONS.values(), ids=_CORRUPTIONS)
def test_config_error_starts_with_its_field_path(base, key, value, path):
    valid = {**SMALL_DOC, **base}
    SweepConfig.from_json_dict(valid)
    with pytest.raises(ValueError) as exc:
        SweepConfig.from_json_dict({**valid, key: value})
    assert str(exc.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# scaling fit


def fake_row(n, gap):
    delta = n - 1
    report = GapReport(n, 2, delta, delta - gap, gap, 0.0, 0.0, 0.0, 1, 0, True)
    return SweepRow("random-k:2", "single-worst", None, report)


def test_fit_recovers_sqrt_exponent():
    rows = [fake_row(n, math.sqrt(n)) for n in (16, 64, 256, 1024)]
    fit = fit_scaling(rows)
    assert fit.slope == pytest.approx(0.5)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_recovers_two_thirds_exponent():
    rows = [fake_row(n, 0.5 * n ** (2 / 3)) for n in (27, 81, 243, 729)]
    fit = fit_scaling(rows)
    assert fit.slope == pytest.approx(2 / 3)
    assert fit.intercept == pytest.approx(math.log(0.5))


def test_fit_needs_three_positive_rows():
    rows = [fake_row(16, 4.0), fake_row(64, 0.0), fake_row(256, 16.0)]
    with pytest.raises(ValueError):
        fit_scaling(rows)


# ---------------------------------------------------------------------------
# renderings


def test_csv_shape():
    rows = sweep(small_config(n_values=[6], instances=1, mechanisms=["random-k:2"]))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "random-k:2"
    assert cells[1] == "6"
    assert cells[-1] == "false"


def test_csv_quotes_labels_with_commas():
    star = NominationProfile.single([1, 0, 0, 0])
    report = estimate(MechanismSpec.fixed([0, 2]), star, TrialPlan(1, 0))
    row = SweepRow("fixed:0,2", "star", None, report)
    text = rows_to_csv([row])
    assert '"fixed:0,2"' in text


def test_csv_fit_comment():
    rows = [fake_row(n, math.sqrt(n)) for n in (16, 64, 256)]
    text = rows_to_csv(rows, fit_scaling(rows))
    last = text.strip().split("\n")[-1]
    assert last.startswith("# fit ")
    assert "slope=" in last and "r2=" in last


def test_json_round_trip():
    import json

    rows = sweep(small_config(n_values=[6], instances=1))
    doc = json.loads(rows_to_json(rows, fit_scaling(rows) if len(rows) >= 3 else None))
    assert len(doc["rows"]) == len(rows)
    first = doc["rows"][0]
    assert first["mechanism"] == rows[0].mechanism
    assert first["n"] == 6
    assert isinstance(first["gap"], float)
    assert isinstance(first["exact"], bool)
