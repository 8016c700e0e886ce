"""Error messages of the input checks that no behaviour test reaches.

Each row is one call, the exception it raises and the full message, so a
reworded or lost check shows up here by name.
"""

import pytest

from impsel.core import ModelViolation, NominationProfile
from impsel.exact import WinnerDistribution, exact_distribution
from impsel.generators import GeneratorSpec
from impsel.mechanisms import MAX_TRIAL_DRAWS, DrawStream, parse_mechanism, trial_draws
from impsel.montecarlo import GapReport, TrialPlan, estimate
from impsel.verify import Witness, named_oracle

STAR = NominationProfile.single([1, 0, 0])


def _gap_report(no_winner_rate):
    return GapReport(n=3, k=None, delta=1, mean_degree=0.5, gap=0.5, std_err=0.0, ci95=0.0,
                     no_winner_rate=no_winner_rate, trials=1, master_seed=0, exact=False)


ERRORS = {
    "single-nominees-of-a-multi-profile": (
        lambda: NominationProfile.multi(3, {0: (1,)}).single_nominees,
        ModelViolation, "single_nominees is defined for the single model only"),
    "estimate-above-the-draw-ceiling": (
        lambda: estimate(parse_mechanism("random-k:1048577"), STAR, TrialPlan(1, 0)),
        ValueError, "draws per trial 1048577 out of range 1..1048576"),
    **{f"trial-draws-of-{k}-per-trial": (
        lambda k=k: next(trial_draws(0, 1, k, 5)), ValueError, f"draws per trial {k} out of range 1..1048576")
       for k in (0, -3, MAX_TRIAL_DRAWS + 1)},
    "negative-draw-count": (
        lambda: DrawStream(0).draws(-3, 5), ValueError, "draw count must be non-negative, got -3"),
    "fractional-draw-count": (lambda: DrawStream(0).draws(2.5, 5), ValueError, "draw count 2.5 is not an int"),
    **{f"draws-below-{n!r}": (lambda n=n: DrawStream(0).draws(5, n), ValueError, f"bound {n!r} is not an int")
       for n in (2.5, True)},
    "draws-below-2^64+1": (
        lambda: DrawStream(0).draws(5, 2**64 + 1), ValueError, f"bound {2**64 + 1} out of range 1..{2**64}"),
    "one-draw-below-a-fraction": (lambda: DrawStream(0).next_below(2.5), ValueError, "bound 2.5 is not an int"),
    "duplicate-generator-parameter": (
        lambda: GeneratorSpec("single-worst", (("delta", 2), ("delta", 3))),
        ValueError, "duplicate parameter for family single-worst"),
    "unknown-exact-method": (
        lambda: exact_distribution(parse_mechanism("fixed:0"), STAR, method="x"), ValueError, "unknown method 'x'"),
    "negative-vertex-probability": (
        lambda: WinnerDistribution(3, {1: -1}, 2), ValueError, "negative probability for vertex 1"),
    "negative-no-winner-probability": (
        lambda: WinnerDistribution(3, {1: 2}, -1), ValueError, "negative no-winner probability"),
    "no-winner-rate-above-one": (lambda: _gap_report(1.5), ValueError, "no-winner rate 1.5 outside [0, 1]"),
    "no-winner-rate-below-zero": (lambda: _gap_report(-0.5), ValueError, "no-winner rate -0.5 outside [0, 1]"),
    "unknown-witness-kind": (lambda: Witness("bogus", STAR), ValueError, "unknown witness kind 'bogus'"),
    "plurality-with-an-argument": (
        lambda: named_oracle("plurality:1"), ValueError, "plurality takes no argument"),
    "dictator-without-a-vertex": (lambda: named_oracle("dictator"), ValueError, "dictator needs ':<vertex>'"),
}


@pytest.mark.parametrize("call, error, message", ERRORS.values(), ids=ERRORS)
def test_error_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
