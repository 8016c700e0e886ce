"""Seeded Monte Carlo estimation of winner degree, and multi-instance sweeps.

Determinism contract: every result is a pure function of the plan or
config, independent of scheduling.  Trial i draws from a stream seeded by
``derive_seed(master_seed, i)``, so trials can run in any order or split
across processes.  ``estimate`` draws a block of trials on one lane pass
(``trial_draws``) and replays a block with a rejected lane trial by trial,
so each trial's values are its own stream's; the trial seeds are drawn up
to 1,024 at a time, so memory does not grow with the trial count.  Winner
degrees are integers, and the estimator accumulates exact integer sums, so
not even float rounding depends on ordering; floats appear once, in the
final mean/variance division.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

from .core import NominationProfile, checked_int
from .generators import GeneratorSpec
from .mechanisms import (
    KINDS,
    MechanismSpec,
    ModelMismatch,
    check_model,
    derive_seed,
    parse_mechanism,
    resolve_k,
    trial_draws,
)

__all__ = [
    "TrialPlan",
    "GapReport",
    "estimate",
    "SweepConfig",
    "SweepRow",
    "sweep",
    "ScalingFit",
    "fit_scaling",
    "rows_to_csv",
    "rows_to_json",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class TrialPlan:
    """How many trials to run and the 64-bit seed they all derive from."""

    trials: int
    master_seed: int

    def __post_init__(self):
        checked_int(self.trials, "trials", 1)
        checked_int(self.master_seed, "seed", None)


@dataclass(frozen=True)
class GapReport:
    """Estimated (or exact) winner quality of one mechanism on one profile.

    ``gap`` is delta minus ``mean_degree``, the quantity the additive
    guarantees bound.  ``exact`` is set for a kind that draws nothing (k = 0),
    where a single evaluation is the whole distribution and std_err is 0.
    """

    n: int
    k: int | None
    delta: int
    mean_degree: float
    gap: float
    std_err: float
    ci95: float
    no_winner_rate: float
    trials: int
    master_seed: int
    exact: bool

    def __post_init__(self):
        if not 0 <= self.mean_degree <= self.delta:
            raise ValueError(f"mean degree {self.mean_degree} outside [0, {self.delta}]")
        if not 0 <= self.no_winner_rate <= 1:
            raise ValueError(f"no-winner rate {self.no_winner_rate} outside [0, 1]")
        if self.exact and self.std_err != 0:
            raise ValueError("exact reports must have zero standard error")

    def fields(self) -> dict:
        """The report as CSV/JSON fields, in column order."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


def estimate(spec: MechanismSpec, profile: NominationProfile, plan: TrialPlan) -> GapReport:
    """Run ``plan.trials`` independent evaluations and report mean winner degree.

    ``trial_draws`` refuses a trial of more than ``MAX_TRIAL_DRAWS`` draws before the
    first draw.  A kind that draws nothing, k = 0, is evaluated once and flagged exact.  A
    winnerless evaluation contributes degree 0, matching the expectation
    convention where the no-winner mass contributes nothing.
    """
    check_model(spec.kind, profile.model)
    n = profile.n
    k = resolve_k(spec, n)
    trials = plan.trials if k else 1
    winner_of = KINDS[spec.kind].winner
    samples = trial_draws(plan.master_seed, trials, k, n) if k else [()]
    winners = (winner_of(spec, profile, sample) for sample in samples)

    degs = profile.in_degrees
    sum_deg = 0
    sum_sq = 0
    no_winner = 0
    for winner in winners:
        if winner is None:
            no_winner += 1
        else:
            d = degs[winner]
            sum_deg += d
            sum_sq += d * d

    mean = sum_deg / trials
    if trials >= 2:
        # exact integer form of the (Bessel-corrected) variance of the mean
        std_err = math.sqrt((trials * sum_sq - sum_deg * sum_deg) / (trials * trials * (trials - 1)))
    else:
        std_err = 0.0
    return GapReport(
        n=n,
        k=k or len(spec.fixed_set or ()) or None,
        delta=profile.delta,
        mean_degree=mean,
        gap=profile.delta - mean,
        std_err=std_err,
        ci95=1.96 * std_err,
        no_winner_rate=no_winner / trials,
        trials=plan.trials,
        master_seed=plan.master_seed,
        exact=not k,
    )


#: Offset for deriving instance seeds from a row seed, far above any trial index.
_INSTANCE_SEED_INDEX = 1 << 41


@dataclass(frozen=True)
class SweepConfig:
    """A JSON-loadable experiment: mechanisms x n values x instances.

    ``instances`` makes sense only for seeded generator families; a
    deterministic family produces the same profile every time.  Sweep
    rows are always Monte Carlo estimates.
    """

    mechanisms: tuple[MechanismSpec, ...]
    generator: GeneratorSpec
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    instances: int = 1

    def __post_init__(self):
        """Check every field, in a fixed order; each error starts with the field's JSON path."""

        def require(ok: bool, path: str, message: str) -> None:
            if not ok:
                raise ValueError(f"{path}: {message}")

        require(isinstance(self.generator, GeneratorSpec), "/generator", "must be a GeneratorSpec")
        ints = isinstance(self.n_values, Iterable) and all(type(n) is int for n in self.n_values)
        require(ints, "/n_values", "must be a list of integers")
        require(type(self.trials) is int and self.trials >= 1, "/trials", "must be an integer >= 1")
        require(type(self.master_seed) is int, "/master_seed", "must be an integer")
        require(type(self.instances) is int and self.instances >= 1, "/instances", "must be an integer >= 1")
        require(
            self.instances == 1 or self.generator.needs_seed,
            "/instances",
            f"family {self.generator.family} is deterministic; instances must be 1",
        )
        for n in self.n_values:
            require(n >= 2, "/n_values", f"every n must be at least 2, got {n}")
        require(isinstance(self.mechanisms, Iterable), "/mechanisms", "must be a list of MechanismSpecs")
        for i, mech in enumerate(self.mechanisms):
            require(isinstance(mech, MechanismSpec), f"/mechanisms[{i}]", "must be a MechanismSpec")
            try:
                check_model(mech.kind, self.generator.model)
            except ModelMismatch as exc:
                raise ValueError(f"/mechanisms[{i}]: {exc}") from None

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SweepConfig":
        """Check a parsed JSON document's shape and convert it; the constructor checks the fields."""

        def fail(path: str, message: str):
            raise ValueError(f"{path}: {message}")

        if not isinstance(doc, dict):
            fail("/", "config must be a JSON object")
        for key in doc:
            if key not in {field.name for field in fields(cls)}:
                fail(f"/{key}", "unknown field")
        for field in fields(cls):
            if field.default is MISSING and field.name not in doc:
                fail(f"/{field.name}", "required field is missing")

        raw_mechs = doc["mechanisms"]
        if not isinstance(raw_mechs, list):
            fail("/mechanisms", "must be a list of mechanism strings")
        mechanisms = []
        for i, text in enumerate(raw_mechs):
            if not isinstance(text, str):
                fail(f"/mechanisms[{i}]", "must be a string")
            try:
                mechanisms.append(parse_mechanism(text))
            except ValueError as exc:
                fail(f"/mechanisms[{i}]", str(exc))

        raw_gen = doc["generator"]
        if not isinstance(raw_gen, dict) or "family" not in raw_gen:
            fail("/generator", 'must be an object with a "family" field')
        params = {key: value for key, value in raw_gen.items() if key != "family"}
        try:
            generator = GeneratorSpec.from_mapping(raw_gen["family"], params)
        except ValueError as exc:
            fail("/generator", str(exc))

        if not isinstance(doc["n_values"], list):
            fail("/n_values", "must be a list of integers")
        converted = {"mechanisms": tuple(mechanisms), "generator": generator}
        return cls(**{**doc, **converted, "n_values": tuple(doc["n_values"])})


@dataclass(frozen=True)
class SweepRow:
    mechanism: str
    generator: str
    instance_seed: int | None
    report: GapReport

    def fields(self) -> dict:
        """The row as CSV/JSON fields; CSV_HEADER gives the column order."""
        return {
            "mechanism": self.mechanism,
            "generator": self.generator,
            "instance_seed": self.instance_seed,
            **self.report.fields(),
        }


def _sweep_task(task) -> SweepRow:
    mech, gen, n, instance_seed, plan = task
    profile = gen.build(n, instance_seed)
    report = estimate(mech, profile, plan)
    return SweepRow(mech.label(), gen.label(), instance_seed, report)


def sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """Run the whole experiment; output is independent of ``jobs``.

    Row order is mechanism-major, then n, then instance.  Row i's plan is
    seeded by derive_seed(master_seed, i), and a seeded family's instance
    seed derives from the row seed at a reserved index, so no stream
    overlaps any other.
    """
    checked_int(jobs, "jobs", 1)
    tasks = []
    row_index = 0
    for mech in config.mechanisms:
        for n in config.n_values:
            for _ in range(config.instances):
                row_seed = derive_seed(config.master_seed, row_index)
                instance_seed = (
                    derive_seed(row_seed, _INSTANCE_SEED_INDEX)
                    if config.generator.needs_seed
                    else None
                )
                tasks.append(
                    (mech, config.generator, n, instance_seed, TrialPlan(config.trials, row_seed))
                )
                row_index += 1
    if jobs <= 1 or len(tasks) <= 1:
        return [_sweep_task(task) for task in tasks]
    # the package imports its process pool on first use, so only a run with jobs > 1 loads it
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_task, tasks))


class ScalingFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def fit_scaling(rows: Iterable[SweepRow]) -> ScalingFit:
    """Least squares of ln(gap) against ln(n) over rows with positive gap."""
    points = [
        (math.log(row.report.n), math.log(row.report.gap))
        for row in rows
        if row.report.gap > 0
    ]
    checked_int(len(points), "rows with positive gap", 3)
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    mean_y = statistics.fmean(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in points)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(slope, intercept, r2)


CSV_HEADER = (
    "mechanism,n,k,generator,instance_seed,delta,mean_degree,gap,"
    "std_err,ci95,no_winner_rate,trials,master_seed,exact"
)


def plain(value) -> str:
    """Text form of a field: booleans as true/false, None as empty."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def rows_to_csv(rows: Sequence[SweepRow], fit: ScalingFit | None = None) -> str:
    """Stable CSV rendering; a fit, when given, is appended as comment lines."""
    header = CSV_HEADER.split(",")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        fields = row.fields()
        writer.writerow(plain(fields[key]) for key in header)
    if fit is not None:
        buf.write(f"# fit slope={fit.slope} intercept={fit.intercept} r2={fit.r2}\n")
    return buf.getvalue()


def rows_to_json(rows: Sequence[SweepRow], fit: ScalingFit | None = None) -> str:
    doc: dict = {"rows": [row.fields() for row in rows]}
    if fit is not None:
        doc["fit"] = {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2}
    return json.dumps(doc, indent=2, sort_keys=True)
