"""The four benchmark workloads: their generated inputs, their ops and the checks on each op.

A workload is a fixed list of ops.  Each op is one ``impsel`` command line,
run in-process through ``impsel.cli.main``.  Inputs (sweep configs and
profile files) are generated from the workload seed into a work directory;
the program receives only those files and arguments.

Every op output is checked.  An op fails when it raises, exits with another
code than expected, fails its invariant check, differs from its own output
in an earlier round, or, on ``DEFAULT_SEED``, differs from the digest
recorded in ``digests.json``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Seed whose op outputs are pinned by digest in ``digests.json``.
DEFAULT_SEED = 0
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

WORKLOADS = ("mc-rks", "mc-sks", "exhaustive", "profile-io")

# Pinned work per round.  Trial counts and sizes are fixed so that the time
# of a round is the time to a result of fixed accuracy.
C4_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
C5_SIZES = (128, 256, 512, 1024, 2048, 4096)
C5_MULTI_SIZES = (128, 256)
RKS_TRIALS = 3000
SKS_SINGLE_TRIALS = 300
SKS_MULTI_TRIALS = 300
SIGMA = 5.0
RANDOM_SINGLE_N = 100_000
SINGLE_WORST_N = 150_000
RANDOM_MULTI_N = 400
RANDOM_MULTI_P = 0.05
IO_RKS_TRIALS = 100

# Check-op result: None when the output is right, else the reason it is not.
Check = Callable[[int, str, dict], "str | None"]


@dataclass
class Op:
    """One CLI call with the exit code it must give and the checks on its output.

    ``out_file`` names the file the op writes (``--out``); its content is
    then the op's output, otherwise stdout is.  ``check`` runs on every
    round's output; ``check_once`` only on the first round, for checks
    that cost about as much as the op itself.
    """

    name: str
    argv: list[str]
    expect_rc: int = 0
    out_file: str | None = None
    check: Check | None = None
    check_once: Check | None = None
    # a sweep whose argv ends in "--jobs 1"; the traced run repeats it with
    # --jobs 2 to compare bytes and time
    jobs_flag: bool = False


def digest(rc: int, output: str) -> str:
    return hashlib.sha256(f"{rc}\n{output}".encode("utf-8")).hexdigest()


def load_digests() -> dict:
    """Recorded ``{workload: {op: digest}}`` for DEFAULT_SEED; empty when absent."""
    try:
        with open(DIGEST_FILE, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    if doc.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{DIGEST_FILE} is for seed {doc.get('seed')}, expected {DEFAULT_SEED}")
    return doc["digests"]


def _seeds(workload: str, seed: int) -> random.Random:
    # string seeding of random.Random is stable across Python versions
    return random.Random(f"{workload}/{seed}")


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Generate the workload's inputs from ``seed`` into ``workdir`` and list its ops."""
    os.makedirs(workdir, exist_ok=True)
    rng = _seeds(workload, seed)
    makers = {
        "mc-rks": _mc_rks,
        "mc-sks": _mc_sks,
        "exhaustive": _exhaustive,
        "profile-io": _profile_io,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return makers[workload](rng, workdir)


# ----- Monte Carlo workloads -----


def _sweep_config(path: str, **doc) -> str:
    return _write(path, json.dumps(doc, sort_keys=True))


def _mc_rks(rng: random.Random, workdir: str) -> list[Op]:
    config = _sweep_config(
        os.path.join(workdir, "rks.json"),
        mechanisms=["random-k:auto"],
        generator={"family": "bound-stress"},
        n_values=list(C4_SIZES),
        trials=RKS_TRIALS,
        master_seed=rng.randrange(2**32),
    )
    return [
        Op(
            "sweep-rks",
            ["sweep", "--config", config, "--fit", "--jobs", "1"],
            check=_sweep_rows_check("rks", C4_SIZES, 1, RKS_TRIALS, fit=True),
            jobs_flag=True,
        )
    ]


def _mc_sks(rng: random.Random, workdir: str) -> list[Op]:
    single = _sweep_config(
        os.path.join(workdir, "sks-single.json"),
        mechanisms=["simple-k:auto"],
        generator={"family": "single-worst"},
        n_values=list(C5_SIZES),
        trials=SKS_SINGLE_TRIALS,
        master_seed=rng.randrange(2**32),
    )
    multi = _sweep_config(
        os.path.join(workdir, "sks-multi.json"),
        mechanisms=["simple-k:auto"],
        generator={"family": "random-multi", "p": RANDOM_MULTI_P},
        n_values=list(C5_MULTI_SIZES),
        trials=SKS_MULTI_TRIALS,
        master_seed=rng.randrange(2**32),
        instances=2,
    )
    return [
        Op(
            "sweep-sks-single",
            ["sweep", "--config", single, "--jobs", "1"],
            check=_sweep_rows_check("sks", C5_SIZES, 1, SKS_SINGLE_TRIALS, fit=False),
            jobs_flag=True,
        ),
        Op(
            "sweep-sks-multi",
            ["sweep", "--config", multi, "--jobs", "1"],
            check=_sweep_rows_check("sks", C5_MULTI_SIZES, 2, SKS_MULTI_TRIALS, fit=False),
            jobs_flag=True,
        ),
    ]


def _guarantee(kind: str, n: int, k: int) -> float:
    from impsel.exact import rks_gap_lower_bound, sks_gap_upper_bound

    return rks_gap_lower_bound(n, k) if kind == "rks" else sks_gap_upper_bound(n, k)


def _sweep_rows_check(kind: str, sizes, instances: int, trials: int, fit: bool) -> Check:
    """Row count, sizes and trials as configured; every gap within guarantee + 5 sigma."""

    def check(rc: int, output: str, _round: dict) -> str | None:
        lines = output.splitlines()
        fit_lines = [line for line in lines if line.startswith("# fit slope=")]
        if fit and len(fit_lines) != 1:
            return "missing fit line"
        rows = list(csv.DictReader(io.StringIO("\n".join(line for line in lines if not line.startswith("#")))))
        want_ns = [n for n in sizes for _ in range(instances)]
        if [int(row["n"]) for row in rows] != want_ns:
            return f"rows cover n={[row['n'] for row in rows]}, expected {want_ns}"
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            if int(row["trials"]) != trials:
                return f"n={n}: {row['trials']} trials, expected {trials}"
            allowed = _guarantee(kind, n, k) + SIGMA * float(row["std_err"])
            if float(row["gap"]) > allowed:
                return f"n={n}: gap {row['gap']} above guarantee + {SIGMA} sigma = {allowed}"
        return None

    return check


# ----- exhaustive workload -----

# (mechanism, model, n) domains of the impartiality proofs; all must come out clean
IMPARTIAL_DOMAINS = tuple(
    [(f"random-k:{k}", "single", n) for n in (3, 4, 5) for k in (1, 2, 3)]
    + [(f"simple-k:{k}", "multi", n) for n in (3, 4) for k in (1, 2)]
)
PLURALITY_N = 3
GAP_MECH, GAP_N, GAP_ALPHA = "random-k:2", 6, "23/18"
# (name, family, n, mechanism) of the seeded profiles fed to `impsel exact`
EXACT_CASES = (
    ("rks", "random-single", 7, "random-k:4"),
    ("sks", "random-multi", 6, "simple-k:4"),
)
EXACT_MULTI_P = 0.3


def profile_count(n: int, model: str) -> int:
    """Profiles on n vertices: (n-1)^n single-model, 2^(n(n-1)) multi-model."""
    return (n - 1) ** n if model == "single" else 2 ** (n * (n - 1))


def _exhaustive(rng: random.Random, workdir: str) -> list[Op]:
    from impsel.core import format_profile
    from impsel.generators import GeneratorSpec

    ops = []
    for mech, model, n in IMPARTIAL_DOMAINS:
        expected = f"verified ({profile_count(n, model)} {model} profiles, n={n}, 0 witnesses)\n"
        ops.append(
            Op(
                f"impartial-{mech}-{model}-n{n}",
                ["verify", "impartial", "--mech", mech, "--n", str(n), "--model", model],
                check=_equals(expected),
            )
        )
    ops.append(
        Op(
            "impartial-plurality",
            ["verify", "impartial", "--oracle", "plurality", "--n", str(PLURALITY_N)],
            expect_rc=1,
            check=_plurality_witnesses_check,
        )
    )
    ops.append(
        Op(
            "gap",
            ["verify", "gap", "--mech", GAP_MECH, "--n", str(GAP_N)],
            check=_first_line(f"alpha={GAP_ALPHA}"),
        )
    )
    for name, family, n, mech in EXACT_CASES:
        params = {"p": EXACT_MULTI_P} if family == "random-multi" else {}
        profile = GeneratorSpec.from_mapping(family, params).build(n, rng.randrange(2**32))
        path = _write(os.path.join(workdir, f"exact-{name}.txt"), format_profile(profile))
        for method in ("sets", "sequences"):
            ops.append(
                Op(
                    f"exact-{name}-{method}",
                    ["exact", "--mech", mech, "--profile", path, "--method", method],
                    check=_exact_check(f"exact-{name}-sets" if method == "sequences" else None),
                )
            )
    return ops


def _equals(expected: str) -> Check:
    def check(rc: int, output: str, _round: dict) -> str | None:
        return None if output == expected else f"printed {output!r}, expected {expected!r}"

    return check


def _first_line(expected: str) -> Check:
    def check(rc: int, output: str, _round: dict) -> str | None:
        first = output.splitlines()[0] if output else ""
        return None if first == expected else f"first line {first!r}, expected {expected!r}"

    return check


def _key_values(output: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in output.splitlines() if "=" in line)


def _exact_check(same_as: str | None) -> Check:
    """Probabilities sum to one, gap = delta - E[degree]; the sequences route prints the sets route's bytes."""

    def check(rc: int, output: str, round_outputs: dict) -> str | None:
        values = _key_values(output)
        total = Fraction(values["p_none"]) + sum(
            Fraction(v) for key, v in values.items() if key.startswith("p[")
        )
        if total != 1:
            return f"probabilities sum to {total}"
        if Fraction(values["gap"]) != int(values["delta"]) - Fraction(values["expected_degree"]):
            return "gap is not delta - expected_degree"
        if same_as is not None and round_outputs.get(same_as) != output:
            return f"output differs from {same_as}"
        return None

    return check


def parse_witnesses(output: str) -> list:
    """Rebuild the witnesses that ``impsel verify`` printed, from their text form."""
    from impsel.core import parse_profile
    from impsel.verify import Witness

    blocks: list[list[str]] = []
    for line in output.splitlines()[1:]:
        if line.startswith("... and "):
            break
        if not line.startswith(" "):
            blocks.append([])
        blocks[-1].append(line)
    witnesses = []
    for block in blocks:
        header = block[0].split()
        vertex = next(int(tok[7:]) for tok in header if tok.startswith("vertex="))
        profiles: dict[str, list[str]] = {}
        current = None
        for line in block[1:]:
            if line.startswith("  profile "):
                current = line.strip().rstrip(":")
                profiles[current] = []
            else:
                profiles[current].append(line[4:])
        witnesses.append(
            Witness(
                header[0],
                parse_profile("\n".join(profiles["profile a"]) + "\n"),
                parse_profile("\n".join(profiles["profile b"]) + "\n"),
                vertex,
            )
        )
    return witnesses


def _plurality_witnesses_check(rc: int, output: str, _round: dict) -> str | None:
    from impsel.verify import named_oracle, validate_witness

    prefix = f"FAILED ({profile_count(PLURALITY_N, 'single')} single profiles, n={PLURALITY_N}, "
    if not output.startswith(prefix):
        return f"expected a FAILED report, got {output[:80]!r}"
    witnesses = parse_witnesses(output)
    if not witnesses:
        return "no witnesses printed"
    oracle = named_oracle("plurality")
    if not all(validate_witness(w, oracle) for w in witnesses):
        return "a printed witness does not validate"
    return None


# ----- profile-io workload -----


def _profile_io(rng: random.Random, workdir: str) -> list[Op]:
    single = os.path.join(workdir, "random-single.txt")
    worst = os.path.join(workdir, "single-worst.txt")
    multi = os.path.join(workdir, "random-multi.txt")
    delta = rng.randrange(200, 600)
    return [
        Op(
            "gen-random-single",
            ["gen", "--family", "random-single", "--n", str(RANDOM_SINGLE_N),
             "--seed", str(rng.randrange(2**32)), "--out", single],
            out_file=single,
            check_once=_round_trip_check(RANDOM_SINGLE_N, None),
        ),
        Op(
            "gen-single-worst",
            ["gen", "--family", "single-worst", "--n", str(SINGLE_WORST_N),
             "--delta", str(delta), "--out", worst],
            out_file=worst,
            check_once=_round_trip_check(SINGLE_WORST_N, delta),
        ),
        Op(
            "gen-random-multi",
            ["gen", "--family", "random-multi", "--n", str(RANDOM_MULTI_N), "--p", str(RANDOM_MULTI_P),
             "--seed", str(rng.randrange(2**32)), "--out", multi],
            out_file=multi,
            check_once=_round_trip_check(RANDOM_MULTI_N, None),
        ),
        Op(
            "run-mwd-random-single",
            ["run", "--mech", "majority-default:0", "--profile", single, "--exact"],
            check=_run_check(RANDOM_SINGLE_N, None),
        ),
        Op(
            "exact-mwd-single-worst",
            ["exact", "--mech", "majority-default:0", "--profile", worst],
            check=_exact_check(None),
        ),
        Op(
            "run-mwd-random-multi",
            ["run", "--mech", "majority-default:0", "--profile", multi, "--exact"],
            check=_run_check(RANDOM_MULTI_N, None),
        ),
        Op(
            "run-rks-random-single",
            ["run", "--mech", "random-k:auto", "--profile", single,
             "--trials", str(IO_RKS_TRIALS), "--seed", str(rng.randrange(2**32))],
            check=_run_check(RANDOM_SINGLE_N, "rks"),
        ),
    ]


def _round_trip_check(n: int, delta: int | None) -> Check:
    """The written profile parses back to the same bytes, at the designed n and delta."""

    def check(rc: int, output: str, _round: dict) -> str | None:
        from impsel.core import format_profile, parse_profile

        profile = parse_profile(output)
        if format_profile(profile) != output:
            return "profile does not round-trip to the same bytes"
        if profile.n != n:
            return f"profile has n={profile.n}, expected {n}"
        if delta is not None and profile.delta != delta:
            return f"profile has delta={profile.delta}, expected {delta}"
        return None

    return check


def _run_check(n: int, kind: str | None) -> Check:
    """`impsel run` report: right n, gap = delta - mean; sampled runs within guarantee + 5 sigma."""

    def check(rc: int, output: str, _round: dict) -> str | None:
        values = _key_values(output)
        if int(values["n"]) != n:
            return f"report has n={values['n']}, expected {n}"
        if kind is None:
            if values["exact"] != "true":
                return "deterministic run not flagged exact"
            if Fraction(values["gap"]) != int(values["delta"]) - Fraction(values["mean_degree"]):
                return "gap is not delta - mean_degree"
            return None
        allowed = _guarantee(kind, n, int(values["k"])) + SIGMA * float(values["std_err"])
        if float(values["gap"]) > allowed:
            return f"gap {values['gap']} above guarantee + {SIGMA} sigma = {allowed}"
        return None

    return check
