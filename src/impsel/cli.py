"""Command-line front end.

Subcommands: gen, run, exact, sweep, verify {impartial,strong-sample,gap},
refute.  Every command is deterministic given its full argument list;
randomness enters only through explicit seeds, never the clock.

Exit codes: 0 on success (including an expected witness from refute),
1 when a verification finds violations, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .core import MODELS, SINGLE, format_profile, load_profile, write_profile
from .exact import DEFAULT_SEQUENCE_BUDGET, exact_distribution, expected_winner_degree
from .generators import FAMILIES, PARAMS, GeneratorSpec
from .mechanisms import MechanismSpec, compute_bound, parse_mechanism, resolve_k
from .montecarlo import (
    SweepConfig,
    TrialPlan,
    estimate,
    fit_scaling,
    plain,
    rows_to_csv,
    rows_to_json,
    sweep,
)
from .verify import (
    SAMPLE_CATALOG,
    check_impartial,
    check_strong_sample,
    format_witness,
    measure_additive_gap_exhaustive,
    named_oracle,
    profile_count,
    refute_two_additive,
    validate_witness,
)

_MAX_WITNESSES_SHOWN = 3


def _output(out: str | None):
    """The stream a command writes to: stdout, or the --out file, opened for writing now."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="\n")


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)
        if out is None and not text.endswith("\n"):
            fh.write("\n")


def _load_subject(args) -> "MechanismSpec | object":
    """A --mech spec or a --oracle callable, for the verify subcommands."""
    if getattr(args, "mech", None):
        return parse_mechanism(args.mech)
    return named_oracle(args.oracle)


def _budget(subject, n: int, args) -> int:
    """--budget, else the default.  Only a mechanism that draws on n vertices enumerates,
    so any other subject refuses the enumeration flags its command has: --budget, and in
    exact --method too."""
    if isinstance(subject, MechanismSpec) and resolve_k(subject, n):
        return DEFAULT_SEQUENCE_BUDGET if args.budget is None else args.budget
    if args.budget is not None or getattr(args, "method", "auto") != "auto":
        flags = "neither --budget nor --method" if hasattr(args, "method") else "no --budget"
        raise ValueError(f"{getattr(args, 'oracle', None) or subject.label()} is deterministic; it takes {flags}")
    return DEFAULT_SEQUENCE_BUDGET


def _note_clamped_k(subject, n: int) -> None:
    if isinstance(subject, MechanismSpec) and subject.k is not None and subject.k != (k := resolve_k(subject, n)):
        print(f"note: {subject.label()} draws k={k} on n={n} (k is clamped to n - 1)", file=sys.stderr)


def cmd_gen(args) -> int:
    params = {key: getattr(args, key) for key in PARAMS if getattr(args, key) is not None}
    spec = GeneratorSpec.from_mapping(args.family, params)
    profile = spec.build(args.n, args.seed)  # before --out is opened, so a refusal truncates nothing
    with _output(args.out) as fh:
        write_profile(profile, fh)
    return 0


def cmd_run(args) -> int:
    spec = parse_mechanism(args.mech)
    profile = load_profile(args.profile)
    if args.exact:
        if args.trials is not None or args.seed is not None:
            raise ValueError("--exact enumerates every draw; it takes neither --trials nor --seed")
        dist = exact_distribution(spec, profile, budget=_budget(spec, profile.n, args))
        mean, delta = expected_winner_degree(dist, profile), profile.delta
        result = {
            "mechanism": spec.label(),
            "n": profile.n,
            "delta": delta,
            "mean_degree": str(mean),
            "gap": str(delta - mean),
            "p_none": str(dist.p_none),
            "exact": True,
        }
    else:
        if args.trials is None:
            raise ValueError("one of --exact or --trials is required")
        if args.seed is None:
            raise ValueError("--trials requires --seed")
        if args.budget is not None:
            raise ValueError("--budget bounds enumeration; it applies only with --exact")
        report = estimate(spec, profile, TrialPlan(args.trials, args.seed))
        result = {"mechanism": spec.label(), **report.fields()}
    _note_clamped_k(spec, profile.n)
    if args.format == "json":
        _emit(json.dumps(result, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(f"{key}={plain(value)}" for key, value in result.items()), args.out)
    return 0


def cmd_exact(args) -> int:
    spec = parse_mechanism(args.mech)
    profile = load_profile(args.profile)
    dist = exact_distribution(spec, profile, budget=_budget(spec, profile.n, args), method=args.method)
    mean = expected_winner_degree(dist, profile)
    delta = profile.delta
    doc = dist.to_json_dict()
    doc.update(
        mechanism=spec.label(),
        delta=delta,
        expected_degree=str(mean),
        gap=str(delta - mean),
    )
    try:
        doc["bound_kind"], doc["bound_value"] = compute_bound(spec, profile.n)
    except ValueError as exc:
        doc["bound_error"] = str(exc)
    _note_clamped_k(spec, profile.n)
    if args.format == "json":
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [f"mechanism={doc['mechanism']}", f"n={profile.n}"]
        lines.extend(f"p[{u}]={p}" for u, p in sorted(doc["p"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"p_none={doc['p_none']}")
        lines.append(f"delta={delta}")
        lines.append(f"expected_degree={mean}")
        lines.append(f"gap={delta - mean}")
        if "bound_error" in doc:
            lines.append(f"bound=n/a ({doc['bound_error']})")
        else:
            lines.append(f"bound[{doc['bound_kind']}]={doc['bound_value']}")
        _emit("\n".join(lines), args.out)
    return 0


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if args.seed is not None and isinstance(doc, dict):
        doc["master_seed"] = args.seed
    config = SweepConfig.from_json_dict(doc)
    rows = sweep(config, jobs=args.jobs)
    for mech in config.mechanisms:
        for n in config.n_values:
            _note_clamped_k(mech, n)
    fit = None
    if args.fit:
        fit = fit_scaling(rows)
        dropped = sum(row.report.gap <= 0 for row in rows)
        if dropped:
            print(f"fit: dropped {dropped} rows with gap <= 0", file=sys.stderr)
    text = rows_to_json(rows, fit) if args.format == "json" else rows_to_csv(rows, fit)
    _emit(text, args.out)
    return 0


def _report_witnesses(witnesses, domain: str) -> int:
    if not witnesses:
        print(f"verified ({domain}, 0 witnesses)")
        return 0
    print(f"FAILED ({domain}, {len(witnesses)} witnesses)")
    for witness in witnesses[:_MAX_WITNESSES_SHOWN]:
        print(format_witness(witness))
    if len(witnesses) > _MAX_WITNESSES_SHOWN:
        print(f"... and {len(witnesses) - _MAX_WITNESSES_SHOWN} more")
    return 1


def cmd_verify_impartial(args) -> int:
    subject = _load_subject(args)
    witnesses = check_impartial(subject, args.n, args.model, budget=_budget(subject, args.n, args), max_n=args.max_n)
    _note_clamped_k(subject, args.n)
    return _report_witnesses(
        witnesses, f"{profile_count(args.n, args.model)} {args.model} profiles, n={args.n}"
    )


def cmd_verify_strong_sample(args) -> int:
    try:
        g = SAMPLE_CATALOG[args.g]
    except KeyError:
        raise ValueError(
            f"unknown sample function {args.g!r}; known: {', '.join(sorted(SAMPLE_CATALOG))}"
        ) from None
    witnesses = check_strong_sample(g, args.n, max_n=args.max_n)
    return _report_witnesses(witnesses, f"{profile_count(args.n, SINGLE)} {SINGLE} profiles, n={args.n}")


def cmd_verify_gap(args) -> int:
    subject = _load_subject(args)
    alpha, worst = measure_additive_gap_exhaustive(
        subject, args.n, args.model, budget=_budget(subject, args.n, args), max_n=args.max_n
    )
    _note_clamped_k(subject, args.n)
    print(f"alpha={alpha}")
    print("worst profile:")
    for line in format_profile(worst).splitlines():
        print(f"    {line}")
    return 0


def cmd_refute(args) -> int:
    oracle = named_oracle(args.oracle)
    witness = refute_two_additive(oracle)
    print(format_witness(witness))
    if validate_witness(witness, oracle):
        print("witness validates")
        return 0
    print("witness FAILED re-validation")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impsel",
        description="Impartial selection mechanisms on nomination graphs: "
        "generate instances, evaluate mechanisms exactly or by Monte Carlo, "
        "and verify impartiality and additive guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, handler, help: str) -> argparse.ArgumentParser:
        """Declare one subcommand and the function that runs it."""
        p = subparsers.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p_gen = command(sub, "gen", cmd_gen, "generate an instance profile")
    p_gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_gen.add_argument("--n", type=int, required=True)
    for key, (kind, _, text) in PARAMS.items():
        takers = ", ".join(sorted(name for name, family in FAMILIES.items() if key in family.params))
        p_gen.add_argument(f"--{key}", type=kind, help=f"{text} ({takers})")
    p_gen.add_argument("--seed", type=int, help="instance seed (random families)")
    p_gen.add_argument("--out", help="output file (default: stdout)")

    p_run = command(sub, "run", cmd_run, "evaluate one mechanism on one profile")
    p_run.add_argument("--mech", required=True)
    p_run.add_argument("--profile", required=True)
    p_run.add_argument("--exact", action="store_true", help="enumerate instead of sampling")
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--out")

    p_exact = command(sub, "exact", cmd_exact, "full exact winner distribution")
    p_exact.add_argument("--mech", required=True)
    p_exact.add_argument("--profile", required=True)
    p_exact.add_argument("--method", choices=("auto", "sequences", "sets"), default="auto")
    p_exact.add_argument("--budget", type=int)
    p_exact.add_argument("--format", choices=("text", "json"), default="text")
    p_exact.add_argument("--out")

    p_sweep = command(sub, "sweep", cmd_sweep, "run a JSON-configured experiment")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--fit", action="store_true", help="append a log-log scaling fit")
    p_sweep.add_argument("--seed", type=int, help="override the config's master_seed")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out")

    p_verify = sub.add_parser("verify", help="exhaustive verification")
    vsub = p_verify.add_subparsers(dest="verify_command", required=True)

    def add_subject_flags(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--mech")
        group.add_argument("--oracle")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--model", choices=MODELS, default=SINGLE)
        p.add_argument("--budget", type=int)
        p.add_argument("--max-n", type=int, dest="max_n")

    add_subject_flags(command(vsub, "impartial", cmd_verify_impartial, "exhaustive impartiality check"))
    p_vs = command(vsub, "strong-sample", cmd_verify_strong_sample, "strong-sample check of a catalog function")
    p_vs.add_argument("--g", required=True)
    p_vs.add_argument("--n", type=int, required=True)
    p_vs.add_argument("--max-n", type=int, dest="max_n")
    add_subject_flags(command(vsub, "gap", cmd_verify_gap, "exact worst additive gap"))

    p_refute = command(sub, "refute", cmd_refute, "corner a 4-vertex oracle out of 2-additivity")
    p_refute.add_argument("--oracle", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # every input problem in this package is a ValueError subclass:
        # profile format, model violations, budget refusals, bad configs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
