"""Command-line behavior: outputs, exit codes, and determinism.

Most cases drive main() in process and read capsys; a few go through a
real subprocess to cover the installed entry point end to end.
"""

import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import impsel
from impsel.cli import build_parser, main
from impsel.core import MODELS, SINGLE, NominationProfile, format_profile, load_profile, parse_profile
from impsel.generators import FAMILIES, PARAMS, GeneratorSpec
from impsel.montecarlo import CSV_HEADER, SweepConfig, fit_scaling, rows_to_csv, rows_to_json, sweep
from impsel.verify import check_impartial, format_witness, named_oracle


def run_cli(*argv):
    # ``python -m`` puts its working directory first on sys.path, so the child
    # imports the same impsel as this process, with or without PYTHONPATH
    return subprocess.run(
        [sys.executable, "-m", "impsel", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(impsel.__file__).parents[1],
    )


@pytest.fixture()
def tri_path(tmp_path):
    path = tmp_path / "tri.txt"
    assert main(["gen", "--family", "star", "--n", "3", "--out", str(path)]) == 0
    # overwrite with the triangle used throughout
    path.write_text("impsel 1\nmodel single\nn 3\n0 2\n1 2\n2 0\n")
    return str(path)


@pytest.fixture()
def sweep_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps(
            {
                "mechanisms": ["random-k:2", "simple-k:2"],
                "generator": {"family": "random-single"},
                "n_values": [6, 9],
                "trials": 300,
                "master_seed": 7,
                "instances": 2,
            }
        )
    )
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_parseable_profile(capsys):
    assert main(["gen", "--family", "single-worst", "--n", "6", "--delta", "3"]) == 0
    profile = parse_profile(capsys.readouterr().out)
    assert profile.n == 6
    assert profile.delta == 3


def test_gen_seeded_family_needs_seed(capsys):
    assert main(["gen", "--family", "random-single", "--n", "5"]) == 2
    assert "seed" in capsys.readouterr().err
    assert main(["gen", "--family", "random-single", "--n", "5", "--seed", "4"]) == 0


def test_gen_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "no-such", "--n", "5"])
    assert exc.value.code == 2


def test_gen_random_multi_requires_p(capsys):
    assert main(["gen", "--family", "random-multi", "--n", "5", "--seed", "1"]) == 2
    assert main(["gen", "--family", "random-multi", "--n", "5", "--seed", "1", "--p", "0.3"]) == 0


def test_gen_rejects_seed_for_deterministic_family(capsys):
    assert main(["gen", "--family", "star", "--n", "4", "--seed", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "deterministic" in captured.err


def test_gen_bound_stress_rejects_k_zero(capsys):
    assert main(["gen", "--family", "bound-stress", "--n", "8", "--k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter k must be at least 1, got 0" in captured.err


def test_gen_single_worst_rejects_delta_zero(capsys):
    assert main(["gen", "--family", "single-worst", "--n", "5", "--delta", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter delta must be at least 1, got 0" in captured.err


def test_gen_to_file(tmp_path):
    out = tmp_path / "p.txt"
    assert main(["gen", "--family", "star", "--n", "4", "--out", str(out)]) == 0
    assert load_profile(out).in_degrees == (3, 1, 0, 0)


@pytest.mark.parametrize(
    ("family", "n", "params"),
    [("random-single", 20000, {}), ("random-multi", 300, {"p": 0.3})],
    ids=["single", "multi"],
)
def test_gen_writes_format_profile_bytes(family, n, params, tmp_path, capsys):
    """Both a single and a multi profile longer than one written block."""
    text = format_profile(GeneratorSpec.from_mapping(family, params).build(n, 3))
    assert text.count("\n") > 3 + 2**14
    argv = ["gen", "--family", family, "--n", str(n), "--seed", "3", *(f"--{k}={v}" for k, v in params.items())]
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "p.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def test_refused_gen_leaves_the_out_file_as_it_was(tmp_path, capsys):
    out = tmp_path / "p.txt"
    out.write_bytes(b"kept\r\n")
    assert main(["gen", "--family", "single-worst", "--n", "5", "--delta", "0", "--out", str(out)]) == 2
    assert "parameter delta must be at least 1, got 0" in capsys.readouterr().err
    assert out.read_bytes() == b"kept\r\n"


def _gen_argvs():
    """gen command lines: every family, any subset of PARAMS, small values, optional seed."""
    value = st.one_of(st.integers(-3, 64).map(str), st.floats(-1, 2, allow_nan=False).map(str))
    params = st.dictionaries(st.sampled_from(sorted(PARAMS)), value, max_size=len(PARAMS))
    seed = st.none() | st.integers(0, 2**32).map(lambda s: ["--seed", str(s)])
    return st.tuples(st.sampled_from(sorted(FAMILIES)), st.integers(-2, 64), params, seed).map(
        lambda t: ["gen", "--family", t[0], "--n", str(t[1])]
        + [arg for key, text in t[2].items() for arg in (f"--{key}", text)]
        + (t[3] or [])
    )


@given(_gen_argvs())
@settings(max_examples=150, deadline=None)
def test_gen_fuzz_exits_zero_or_two(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a float where an int is declared
            code = exc.code
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# run and exact


def test_run_exact_text(tri_path, capsys):
    assert main(["run", "--mech", "fixed:0", "--profile", tri_path, "--exact"]) == 0
    out = capsys.readouterr().out
    assert "gap" in out
    assert "2" in out


def test_run_requires_trials_or_exact(tri_path, capsys):
    assert main(["run", "--mech", "random-k:1", "--profile", tri_path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("extra", [["--trials", "5", "--seed", "1"], ["--trials", "5"], ["--seed", "1"]])
def test_run_exact_rejects_trials_and_seed(tri_path, capsys, extra):
    assert main(["run", "--mech", "fixed:0", "--profile", tri_path, "--exact", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--exact enumerates every draw; it takes neither --trials nor --seed" in captured.err


def test_run_sampling_rejects_budget(tri_path, capsys):
    argv = ["run", "--mech", "random-k:1", "--profile", tri_path, "--trials", "5", "--seed", "1"]
    assert main([*argv, "--budget", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget bounds enumeration; it applies only with --exact" in captured.err
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--method", "sequences"],
        ["exact", "--budget", "1"],
        ["exact", "--method", "sets", "--budget", "1"],
        ["run", "--exact", "--budget", "1"],
    ],
)
def test_deterministic_exact_rejects_budget_and_method(tri_path, capsys, argv):
    assert main([*argv, "--mech", "fixed:0", "--profile", tri_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # run has no --method, so its refusal names --budget alone
    flags = "no --budget" if argv[0] == "run" else "neither --budget nor --method"
    assert captured.err == f"error: fixed:0 is deterministic; it takes {flags}\n"
    # without either flag both commands still evaluate it
    plain = ["run", "--exact"] if argv[0] == "run" else ["exact"]
    assert main([*plain, "--mech", "fixed:0", "--profile", tri_path]) == 0


@pytest.mark.parametrize("command", ["impartial", "gap"])
@pytest.mark.parametrize(
    ("subject", "label"),
    [
        (["--mech", "fixed:0"], "fixed:0"),
        (["--mech", "majority-default:1"], "majority-default:1"),
        (["--oracle", "plurality"], "plurality"),
    ],
)
def test_deterministic_verify_rejects_budget(capsys, command, subject, label):
    argv = ["verify", command, *subject, "--n", "3"]
    assert main([*argv, "--budget", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {label} is deterministic; it takes no --budget\n"
    assert main(argv) in (0, 1)


@pytest.mark.parametrize("command", ["impartial", "gap"])
@pytest.mark.parametrize(
    ("mech", "message"),
    [
        ("random-k:2", "vertex count must be at least 2, got 1"),
        ("majority-default:0", "majority-default:0 is deterministic; it takes no --budget"),
    ],
)
def test_verify_refusal_order_at_n_1(capsys, command, mech, message):
    """A mechanism that draws checks --n before it takes --budget; one that draws
    nothing refuses --budget before --n is read."""
    assert main(["verify", command, "--mech", mech, "--n", "1", "--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["impartial", "gap"])
def test_verify_budget_bounds_a_randomized_mechanism(capsys, command):
    argv = ["verify", command, "--mech", "random-k:2", "--n", "3"]
    assert main([*argv, "--budget", "8"]) == 2  # 3^2 = 9 draw sequences
    assert "draw sequences, budget is 8; raise the budget" in capsys.readouterr().err
    assert main([*argv, "--budget", "9"]) == 0


@pytest.mark.parametrize("command", ["run", "run --exact", "exact", "sweep", "verify impartial", "verify gap"])
def test_a_clamped_k_is_noted_on_stderr_and_stdout_keeps_its_bytes(tri_path, tmp_path, capsys, command):
    """simple-k clamps an explicit k to n - 1.  On the triangle, simple-k:300 draws k = 2,
    and every command says so in one note on stderr; its stdout is simple-k:2's but for
    the label.  simple-k:auto, an unclamped simple-k:2 and random-k:5, which draws 5
    times even on 3 vertices, print no note."""

    def argv(mech):
        if command == "sweep":
            config = tmp_path / "sweep.json"
            config.write_text(json.dumps({"mechanisms": [mech], "generator": {"family": "fixed-sample-adversary"},
                                          "n_values": [3], "trials": 20, "master_seed": 1}))
            return ["sweep", "--config", str(config)]
        if command.startswith("verify"):
            return [*command.split(), "--mech", mech, "--n", "3"]
        trials = ["--trials", "20", "--seed", "1"] if command == "run" else []
        return [*command.split(), "--mech", mech, "--profile", tri_path, *trials]

    outputs = {}
    for mech in ("simple-k:300", "simple-k:2", "simple-k:auto", "random-k:5"):
        assert main(argv(mech)) == 0, mech
        outputs[mech] = capsys.readouterr()
    assert outputs["simple-k:300"].err == "note: simple-k:300 draws k=2 on n=3 (k is clamped to n - 1)\n"
    assert outputs["simple-k:300"].out == outputs["simple-k:2"].out.replace("simple-k:2", "simple-k:300")
    assert [outputs[mech].err for mech in ("simple-k:2", "simple-k:auto", "random-k:5")] == ["", "", ""]


def test_exact_budget_zero_still_refuses(tri_path, capsys):
    for argv in (["exact"], ["run", "--exact"]):
        assert main([*argv, "--mech", "random-k:1", "--profile", tri_path, "--budget", "0"]) == 2
        assert "raise the budget or use Monte Carlo" in capsys.readouterr().err


def test_run_trials_need_seed(tri_path):
    assert main(["run", "--mech", "random-k:1", "--profile", tri_path, "--trials", "10"]) == 2


def test_run_sampling_is_deterministic(tri_path, capsys):
    argv = ["run", "--mech", "random-k:2", "--profile", tri_path, "--trials", "500", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_run_json_format(tri_path, capsys):
    argv = [
        "run", "--mech", "simple-k:1", "--profile", tri_path,
        "--trials", "200", "--seed", "3", "--format", "json",
    ]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert 0 <= doc["mean_degree"] <= 2
    assert doc["exact"] is False


def test_exact_json_includes_bound(tri_path, capsys):
    argv = ["exact", "--mech", "random-k:1", "--profile", tri_path, "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == {"0": "1/3", "2": "2/3"}
    assert doc["expected_degree"] == "5/3"
    assert doc["gap"] == "1/3"
    assert doc["bound_kind"] == "rks_lower"
    assert doc["bound_value"] == pytest.approx(2.0)


def test_exact_text_mentions_distribution(tri_path, capsys):
    assert main(["exact", "--mech", "simple-k:1", "--profile", tri_path]) == 0
    out = capsys.readouterr().out
    assert "p_none" in out or "p(" in out


def test_one_parser_serves_every_call_without_leaking_defaults(tri_path, capsys):
    """``main`` reuses one parser per process; each call in a mixed sequence must
    print, and exit with, what a freshly built parser gives for the same argv."""
    exact = ["exact", "--mech", "random-k:1", "--profile", tri_path]
    run = ["run", "--mech", "simple-k:1", "--profile", tri_path]
    gap = ["verify", "gap", "--mech", "simple-k:1", "--n", "3"]
    argvs = [
        [*exact, "--format", "json"], exact, [*exact, "--method", "sequences"], exact,
        [*run, "--trials", "50", "--seed", "2", "--format", "json"], [*run, "--exact"],
        [*run, "--trials", "50"], [*gap, "--model", "multi"], gap,
        ["exact", "--mech", "fixed:1", "--profile", tri_path, "--budget", "5"], exact,
    ]

    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    assert build_parser() is build_parser()
    reused = [outcome(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert reused[0][1] != reused[1][1] == reused[3][1] == reused[-1][1]
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", [["exact"], ["run", "--exact"]])
@pytest.mark.parametrize(
    ("edges", "message"),
    [("0 1\n1 9223372036854775808\n", "vertex 1: nominee 9223372036854775808 out of range 0..1"),
     ("0 1\n1 -9223372036854775809\n", "vertex 1: nominee -9223372036854775809 out of range 0..1"),
     ("0 1\n1 -1\n", "vertex 1: nominee -1 out of range 0..1"),
     ("0 1\n18446744073709551616 0\n", "edge source 18446744073709551616 out of range 0..1")],
)
def test_ids_past_64_bits_exit_two_with_their_message(tmp_path, capsys, model, command, edges, message):
    path = tmp_path / "huge.txt"
    path.write_text(f"impsel 1\nmodel {model}\nn 2\n{edges}")
    assert main([command[0], "--mech", "majority-default:0", "--profile", str(path), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _cap_address_space():
    """In the child only: at most 512 MB of address space, so a padding to n rows fails at once."""
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def _refused_at_once(argv, message):
    """``impsel argv`` exits 2 with ``message`` alone, in under a second of the child's CPU
    time and under a 512 MB address-space cap: nothing sized by the input is allocated."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "impsel", *argv], capture_output=True, text=True, timeout=120,
                          cwd=Path(impsel.__file__).parents[1], preexec_fn=_cap_address_space)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1


@pytest.mark.parametrize("command", [["exact"], ["run", "--trials", "1", "--seed", "1"]])
@pytest.mark.parametrize(
    ("edges", "message"),
    [("0 1\n1 0\n", "vertex 2: single model requires out-degree exactly 1, got 0"),
     ("0 1\n1 1\n", "vertex 1: self-loop is not allowed"),
     ("1 0\n2 0\n", "vertex 0: single model requires out-degree exactly 1, got 0")],
)
def test_a_huge_declared_n_exits_two_with_the_row_check_message(tmp_path, command, edges, message):
    """A single-model file declaring 10^9 vertices and giving a few rows is refused by the
    row check, first bad row in vertex order, in under a second of the child's CPU time
    and under a 512 MB address-space cap: no row is padded out to n."""
    path = tmp_path / "huge.txt"
    path.write_text(f"impsel 1\nmodel single\nn 1000000000\n{edges}")
    _refused_at_once([command[0], "--mech", "random-k:1", "--profile", str(path), *command[1:]], message)


@pytest.mark.parametrize("family", [*sorted(FAMILIES), "sweep"])
def test_a_vertex_count_past_an_index_exits_two_before_a_family_runs(tmp_path, family):
    """n = 2^63 is refused at once by ``GeneratorSpec.build``'s one check, in ``gen`` for
    every family (with the seed and p it needs) and in ``sweep``."""
    if family == "sweep":
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"mechanisms": ["random-k:2"], "generator": {"family": "star"},
                                    "n_values": [2**63], "trials": 10, "master_seed": 1}))
        argv = ["sweep", "--config", str(path)]
    else:
        needs = FAMILIES[family]
        argv = ["gen", "--family", family, "--n", str(2**63), *["--seed", "1"] * needs.seeded,
                *["--p", "0.5"] * ("p" in needs.required)]
    _refused_at_once(argv, f"vertex count {2**63} out of range 2..{2**63 - 1}")


@pytest.mark.parametrize(
    "mech, reason",
    [("random-k:3", "sample size 3 out of range 1..2"), ("fixed:1", "no closed-form guarantee")],
)
def test_exact_reports_missing_bound(tri_path, capsys, mech, reason):
    assert main(["exact", "--mech", mech, "--profile", tri_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("bound=n/a (") and reason in lines[-1]
    assert main(["exact", "--mech", mech, "--profile", tri_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert reason in doc["bound_error"]
    assert "bound_kind" not in doc and "bound_value" not in doc


@pytest.mark.parametrize(
    ("mech", "n", "line", "fields"),
    [
        ("random-k:auto", 9, "bound[rks_lower]=6.5", {"bound_kind": "rks_lower", "bound_value": 6.5}),
        ("simple-k:2", 4, "bound[sks_lower]=16.46081252914248",
         {"bound_kind": "sks_lower", "bound_value": 16.46081252914248}),
        ("majority-default:0", 9, "bound[mwd_upper]=5.0", {"bound_kind": "mwd_upper", "bound_value": 5.0}),
        ("fixed:0", 9, "bound=n/a (no closed-form guarantee for fixed_sample)",
         {"bound_error": "no closed-form guarantee for fixed_sample"}),
        ("random-k:5", 4, "bound=n/a (sample size 5 out of range 1..3)",
         {"bound_error": "sample size 5 out of range 1..3"}),
    ],
)
def test_exact_prints_each_kinds_bound(tmp_path, capsys, mech, n, line, fields):
    path = str(tmp_path / "star.txt")
    assert main(["gen", "--family", "star", "--n", str(n), "--out", path]) == 0
    assert main(["exact", "--mech", mech, "--profile", path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line
    assert main(["exact", "--mech", mech, "--profile", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc[key] for key in doc if key.startswith("bound")} == fields
    assert type(doc.get("bound_value", 0.0)) is float  # 5.0, not 5, for majority-default too


@pytest.mark.parametrize(
    ("mech", "lines"),
    [
        ("random-k:2", ["p[0]=1/2", "p[1]=5/16", "p[2]=1/16", "p_none=1/8", "delta=2", "expected_degree=11/8",
                        "gap=5/8", "bound[rks_lower]=3.666666666666667"]),
        ("simple-k:2", ["p[0]=1/2", "p[1]=5/16", "p[2]=1/16", "p_none=1/8", "delta=2", "expected_degree=11/8",
                        "gap=5/8", "bound[sks_lower]=16.46081252914248"]),
        ("fixed:0", ["p[1]=1", "p_none=0", "delta=2", "expected_degree=1", "gap=1",
                     "bound=n/a (no closed-form guarantee for fixed_sample)"]),
        ("majority-default:0", ["p[0]=1", "p_none=0", "delta=2", "expected_degree=2", "gap=0",
                                "bound[mwd_upper]=2.0"]),
    ],
)
def test_exact_text_and_the_run_exact_summary_of_it(tmp_path, capsys, mech, lines):
    """The whole text ``exact`` prints on one 4-vertex profile, and ``run --exact``'s
    summary of the same enumeration, in text and in JSON."""
    path = tmp_path / "four.txt"
    path.write_text("impsel 1\nmodel single\nn 4\n0 1\n1 0\n2 0\n3 2\n")
    argv = ["--mech", mech, "--profile", str(path)]
    assert main(["exact", *argv]) == 0
    assert capsys.readouterr().out == "\n".join([f"mechanism={mech}", "n=4", *lines, ""])
    exact = dict(line.split("=", 1) for line in lines)
    summary = {"mechanism": mech, "n": "4", "delta": exact["delta"], "mean_degree": exact["expected_degree"],
               "gap": exact["gap"], "p_none": exact["p_none"], "exact": "true"}
    assert main(["run", "--exact", *argv]) == 0
    assert capsys.readouterr().out == "".join(f"{key}={value}\n" for key, value in summary.items())
    assert main(["run", "--exact", *argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {**summary, "n": 4, "delta": int(exact["delta"]), "exact": True}


def test_exact_budget_error_is_reported(tri_path, capsys):
    argv = ["exact", "--mech", "random-k:15", "--profile", tri_path]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["exact"], ["run", "--exact"]])
def test_exact_checks_model_before_budget(tmp_path, capsys, command):
    # n^k = 40^7 is far over the budget, but random-k is not defined for multi at all
    path = tmp_path / "multi.txt"
    gen = ["gen", "--family", "random-multi", "--n", "40", "--p", "0.1", "--seed", "1", "--out", str(path)]
    assert main(gen) == 0
    assert main([command[0], "--mech", "random-k:auto", "--profile", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "random_k_sample is defined for the single model, profile is multi" in captured.err
    assert "budget" not in captured.err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ["run", "--mech", "random-k:mechanism", "--trials", "1", "--seed", "1", "--profile"],
            "bad mechanism argument in 'random-k:mechanism': invalid literal for int() with base 10: 'mechanism'",
        ),
        (
            ["verify", "impartial", "--n", "3", "--oracle", "dictator:x"],
            "bad oracle argument in 'dictator:x': invalid literal for int() with base 10: 'x'",
        ),
        (
            ["verify", "impartial", "--n", "3", "--oracle", "majority-default-ext:x"],
            "bad oracle argument in 'majority-default-ext:x': invalid literal for int() with base 10: 'x'",
        ),
        (
            ["verify", "impartial", "--n", "3", "--oracle", "dictator:-1"],
            "bad oracle argument in 'dictator:-1': dictator vertex must be non-negative, got -1",
        ),
    ],
    ids=["mechanism-word", "dictator-x", "majority-default-ext-x", "dictator-negative"],
)
def test_bad_mechanism_and_oracle_arguments_name_the_argument(tri_path, capsys, argv, message):
    if argv[-1] == "--profile":
        argv = [*argv, tri_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("k, space", [(15, "14348907"), (10**9, "3^1000000000")])
@pytest.mark.parametrize("command", [["exact"], ["run", "--exact"], ["verify", "gap"]])
def test_budget_refusal_names_the_space_at_once(tri_path, capsys, command, k, space):
    # the refusal never builds n^k: 3^(10^9) would take minutes to compute and cannot be printed
    where = ["--n", "3"] if command[0] == "verify" else ["--profile", tri_path]
    start = time.perf_counter()
    assert main([*command, "--mech", f"random-k:{k}", *where]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: enumeration needs {space} draw sequences, budget is 10000000; "
        "raise the budget or use Monte Carlo\n"
    )


def _sample_size():
    return (st.integers(1, 64) | st.sampled_from([10**6, 3 * 10**7, 10**9, 10**18])).map(str)


def _mechanism_texts():
    """Every mechanism spelling, with small and huge k and vertex ids past n."""
    return st.one_of(
        st.tuples(st.sampled_from(["random-k", "simple-k"]), _sample_size() | st.just("auto")).map(":".join),
        st.lists(st.integers(0, 6), min_size=1, max_size=3).map(lambda vs: "fixed:" + ",".join(map(str, vs))),
        st.integers(0, 6).map(lambda v: f"majority-default:{v}"),
    )


def _run_fuzz(argv, codes=(0, 1, 2)):
    """The command exits with one of ``codes``, and prints no traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in codes, argv
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_profiles(tmp_path_factory):
    """A profile file per (n, model), n in 2..6."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for n in range(2, 7):
        rows = [[v for v in ((u + 1) % n, (u + 2) % n) if v != u] for u in range(n)]
        for model, profile in (
            ("single", NominationProfile.single([(u + 1) % n for u in range(n)])),
            ("multi", NominationProfile.multi(n, rows)),
        ):
            paths[n, model] = root / f"{model}-{n}.txt"
            paths[n, model].write_text(format_profile(profile))
    return paths


@given(
    st.sampled_from(["exact", "run", "impartial", "gap"]),
    _mechanism_texts(),
    st.integers(2, 6),
    st.sampled_from(MODELS),
)
@settings(max_examples=60, deadline=None)
def test_exact_and_verify_fuzz_exit_zero_one_or_two(fuzz_profiles, command, mech, n, model):
    if command in ("exact", "run"):
        argv = [command, "--mech", mech, "--profile", str(fuzz_profiles[n, model])]
        argv += ["--exact"] if command == "run" else []
    else:
        argv = ["verify", command, "--mech", mech, "--n", str(n), "--model", model]
    _run_fuzz(argv)


def _trial_sample_size(least):
    """k for a Monte Carlo run: mostly ``least``..64, else past the draws-per-trial
    ceiling, where an explicit random-k k is refused before the first draw."""
    return _mostly(st.integers(least, 64), st.sampled_from([2**20 + 1, 10**9])).map(str)


def _fuzz_mechanism_texts():
    """Mechanism spellings, some malformed, with k past the draw ceiling and
    vertex ids past n."""
    return st.one_of(
        st.tuples(st.sampled_from(["random-k", "simple-k"]), _trial_sample_size(0) | st.just("auto"))
        .map(":".join),
        st.lists(st.integers(0, 70), min_size=1, max_size=3).map(lambda vs: "fixed:" + ",".join(map(str, vs))),
        st.integers(0, 70).map(lambda v: f"majority-default:{v}"),
        st.sampled_from(["", "random-k", "fixed:", "majority-default:x", "nope:1"]),
    )


_SEEDS = st.integers(-(2**70), 2**70)


def _mostly(valid, wrong):
    """``valid`` seven times in eight, else ``wrong``."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: valid if ok else wrong)


def _valid_mechanism_texts():
    """Mechanism spellings that parse, most of them valid on the profiles used here."""
    sampled = st.tuples(st.sampled_from(["random-k", "simple-k"]), _trial_sample_size(1) | st.just("auto"))
    return sampled.map(":".join) | st.sampled_from(["fixed:0", "fixed:1,2", "majority-default:1"])


@given(
    _mostly(_valid_mechanism_texts(), _fuzz_mechanism_texts()),
    st.integers(2, 6),
    st.sampled_from(MODELS),
    _mostly(st.integers(1, 20), st.integers(-2, 0)),
    _SEEDS,
    st.sampled_from([[]] * 4 + [["--budget", "5"], ["--format", "json"], ["--exact"]]),
)
@settings(max_examples=60, deadline=None)
def test_run_trials_fuzz_exit_zero_or_two(fuzz_profiles, mech, n, model, trials, seed, extra):
    argv = ["run", "--mech", mech, "--profile", str(fuzz_profiles[n, model])]
    _run_fuzz(argv + ["--trials", str(trials), "--seed", str(seed)] + extra, codes=(0, 2))


def test_run_refuses_a_trial_past_the_draw_ceiling_at_once(tri_path, capsys):
    start = time.perf_counter()
    assert main(["run", "--mech", "random-k:1000000000", "--profile", tri_path, "--trials", "1", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: draws per trial 1000000000 out of range 1..1048576\n"


def _json_values():
    """Values of every JSON type, for fields given the wrong one; integers stay
    below 2, so no count they stand for grows."""
    return st.one_of(
        st.none(), st.booleans(), st.integers(-3, 1), st.floats(allow_nan=True), st.text(max_size=4),
        st.lists(st.integers(0, 5), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    )


def _generators():
    """A family with values for its required and some optional parameters;
    sometimes an unknown family or parameter, or a value of the wrong type."""

    def of(name):
        family = FAMILIES[name]
        values = {key: st.floats(0, 1) if key == "p" else st.integers(1, 8) for key in PARAMS}
        values = {key: _mostly(value, _json_values()) for key, value in values.items()}
        return st.fixed_dictionaries(
            {"family": st.just(name), **{key: values[key] for key in family.required}},
            optional={key: values[key] for key in sorted(family.params - family.required)},
        )

    family = st.sampled_from(sorted(FAMILIES) + ["bogus"]) | _json_values()
    wrong = st.fixed_dictionaries({"family": family}, optional={"bogus": st.integers(1, 8)})
    return _mostly(st.sampled_from(sorted(FAMILIES)).flatmap(of), wrong | _json_values())


def _sweep_docs():
    """Sweep configs covering every field, each mostly valid and sometimes of a
    wrong type or value; now and then a field is dropped or an unknown one
    added.  n <= 64, trials <= 20 and instances <= 3 keep every run small."""
    mechanisms = st.lists(_mostly(_valid_mechanism_texts(), _fuzz_mechanism_texts()), min_size=1, max_size=3)
    fields = st.fixed_dictionaries({
        "mechanisms": _mostly(mechanisms, _json_values()),
        "generator": _generators(),
        "n_values": _mostly(st.lists(st.integers(2, 64), min_size=1, max_size=3), _json_values()),
        "trials": _mostly(st.integers(1, 20), _json_values()),
        "master_seed": _mostly(_SEEDS, _json_values()),
        "instances": _mostly(st.integers(1, 3), _json_values()),
    })

    def edit(doc, drop, extra):
        doc = {key: value for key, value in doc.items() if key != drop}
        return {**doc, "bogus": extra} if drop == "instances" else doc

    # drop a required field, or the optional one and add an unknown field
    drop = st.sampled_from([None] * 7 + ["mechanisms", "trials", "instances"])
    return _mostly(st.builds(edit, fields, drop, _json_values()), _json_values())


@given(
    _sweep_docs(),
    st.sampled_from([[], ["--jobs", "-1"], ["--jobs", "0"], ["--jobs", "1"]]),
    st.sampled_from([[], ["--fit"], ["--format", "json"], ["--seed", "3"], ["--seed", str(-(2**70))]]),
)
@settings(max_examples=80, deadline=None)
def test_sweep_fuzz_exit_zero_one_or_two(tmp_path_factory, doc, jobs, extra):
    path = tmp_path_factory.mktemp("sweep") / "config.json"
    path.write_text(json.dumps(doc))
    _run_fuzz(["sweep", "--config", str(path)] + jobs + extra)


def test_run_missing_profile_file(capsys):
    assert main(["run", "--mech", "fixed:0", "--profile", "/nonexistent", "--exact"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv(sweep_config, capsys):
    assert main(["sweep", "--config", sweep_config]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2


def test_sweep_fit_and_jobs(sweep_config, capsys):
    assert main(["sweep", "--config", sweep_config, "--fit", "--jobs", "2"]) == 0
    solo_out = capsys.readouterr().out
    assert "# fit slope=" in solo_out
    assert main(["sweep", "--config", sweep_config, "--fit", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == solo_out
    rows = sweep(SweepConfig.from_json_dict(json.loads(Path(sweep_config).read_text())))
    assert main(["sweep", "--config", sweep_config, "--fit", "--format", "json"]) == 0
    assert capsys.readouterr().out == rows_to_json(rows, fit_scaling(rows)) + "\n"


def test_sweep_fit_reports_dropped_rows(tmp_path, capsys):
    # fixed:0 concedes n-2 on the star, majority-default:0 picks its top: gap 0
    doc = {
        "mechanisms": ["fixed:0", "majority-default:0"],
        "generator": {"family": "star"},
        "n_values": [4, 5, 6],
        "trials": 1,
        "master_seed": 0,
    }
    path = tmp_path / "zero-gap.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--fit"]) == 0
    captured = capsys.readouterr()
    rows = sweep(SweepConfig.from_json_dict(doc))
    assert [row.report.gap for row in rows] == [2.0, 3.0, 4.0, 0.0, 0.0, 0.0]
    assert captured.out == rows_to_csv(rows, fit_scaling(rows))
    assert captured.err == "fit: dropped 3 rows with gap <= 0\n"
    # no fit, nothing dropped
    assert main(["sweep", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(sweep_config, capsys, jobs):
    assert main(["sweep", "--config", sweep_config, "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"jobs must be at least 1, got {jobs}" in captured.err


def test_sweep_seed_override(sweep_config, capsys):
    assert main(["sweep", "--config", sweep_config]) == 0
    base = capsys.readouterr().out
    assert main(["sweep", "--config", sweep_config, "--seed", "8"]) == 0
    assert capsys.readouterr().out != base


def test_sweep_json_format(sweep_config, capsys):
    assert main(["sweep", "--config", sweep_config, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 8


def test_sweep_config_error_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mechanisms": ["random-k:2"], "generator": {"family": "star"}, "n_values": [4], "master_seed": 0}))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert "/trials" in capsys.readouterr().err


@pytest.mark.parametrize("family", [["star"], {"name": "star"}])
def test_sweep_rejects_a_family_that_is_not_a_string(tmp_path, capsys, family):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mechanisms": ["random-k:2"], "generator": {"family": family},
                               "n_values": [4], "trials": 1, "master_seed": 0}))
    assert main(["sweep", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: /generator: unknown family {family!r}; known: ")


def test_sweep_output_file(sweep_config, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", sweep_config, "--out", str(out)]) == 0
    assert out.read_text().startswith(CSV_HEADER)


# ---------------------------------------------------------------------------
# verify and refute


def test_verify_impartial_mechanism_passes(capsys):
    argv = ["verify", "impartial", "--mech", "simple-k:2", "--n", "3", "--model", "multi"]
    assert main(argv) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_impartial_oracle_fails(capsys):
    argv = ["verify", "impartial", "--oracle", "plurality", "--n", "3"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "impartiality_violation" in out


def test_verify_impartial_shows_three_witnesses_then_a_count(capsys):
    assert main(["verify", "impartial", "--oracle", "plurality", "--n", "4"]) == 1
    witnesses = check_impartial(named_oracle("plurality"), 4, "single")
    assert len(witnesses) == 30
    shown = "\n".join(format_witness(w) for w in witnesses[:3])
    assert capsys.readouterr().out == f"FAILED (81 single profiles, n=4, 30 witnesses)\n{shown}\n... and 27 more\n"


def test_verify_strong_sample(capsys):
    assert main(["verify", "strong-sample", "--g", "const-0", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["verify", "strong-sample", "--g", "min-degree", "--n", "3"]) == 1
    assert "strong_sample_violation" in capsys.readouterr().out


def test_verify_strong_sample_unknown_g(capsys):
    assert main(["verify", "strong-sample", "--g", "nope", "--n", "3"]) == 2


def test_verify_gap(capsys):
    assert main(["verify", "gap", "--mech", "fixed:0", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "2" in out


def test_verify_ceiling_message_names_the_ceiling_in_force(capsys):
    assert main(["verify", "gap", "--mech", "random-k:2", "--n", "7"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive check over 279936 single-model profiles on 7 vertices "
        "exceeds the default ceiling; pass max_n=7 (--max-n 7) to allow it\n"
    )
    assert main(["verify", "gap", "--mech", "random-k:2", "--n", "3", "--max-n", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive check over 8 single-model profiles on 3 vertices "
        "exceeds the ceiling max_n=2; pass max_n=3 (--max-n 3) to allow it\n"
    )


_HUGE_SPACE_COMMANDS = [
    *([command, "--mech", mech, "--model", model] for command, mech in
      [("impartial", "random-k:1"), ("impartial", "simple-k:1"), ("gap", "random-k:1")] for model in MODELS),
    ["strong-sample", "--g", "const-0"],  # single-model profiles, with no --model
]


@pytest.mark.parametrize("n", [121, 2000, 3000, 30000, 1000000])
@pytest.mark.parametrize("command", _HUGE_SPACE_COMMANDS, ids=" ".join)
def test_verify_refuses_a_huge_space_at_once(capsys, command, n):
    """The refusal builds no count wider than 8192 bits and leaves such a count
    out; printed in full, it would overrun int-to-text conversion."""
    model = command[-1] if "--model" in command else SINGLE
    start = time.perf_counter()
    assert main(["verify", *command, "--n", str(n)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    count = f"{120**121} " if (model, n) == (SINGLE, 121) else ""  # the one count within 8192 bits
    assert captured.out == ""
    assert captured.err == (
        f"error: exhaustive check over {count}{model}-model profiles on {n} vertices "
        f"exceeds the default ceiling; pass max_n={n} (--max-n {n}) to allow it\n"
    )


def test_verify_mech_and_oracle_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "impartial", "--mech", "fixed:0", "--oracle", "plurality", "--n", "3"])
    assert exc.value.code == 2


def test_refute_validates(capsys):
    assert main(["refute", "--oracle", "dictator:0"]) == 0
    out = capsys.readouterr().out
    assert "witness validates" in out
    assert "additivity_violation" in out


def test_refute_exits_one_when_the_witness_fails_revalidation(monkeypatch, capsys):
    monkeypatch.setattr("impsel.cli.validate_witness", lambda witness, oracle: False)
    assert main(["refute", "--oracle", "dictator:0"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("witness FAILED re-validation\n")
    assert "witness validates" not in out


# ---------------------------------------------------------------------------
# subprocess round trips


def test_subprocess_gen_run_round_trip(tmp_path):
    path = tmp_path / "p.txt"
    gen = run_cli("gen", "--family", "single-worst", "--n", "8", "--delta", "4", "--out", str(path))
    assert gen.returncode == 0, gen.stderr
    run = run_cli("run", "--mech", "fixed:1", "--profile", str(path), "--exact")
    assert run.returncode == 0, run.stderr
    assert "gap" in run.stdout


def test_subprocess_usage_error():
    proc = run_cli("run", "--mech", "fixed:0")
    assert proc.returncode == 2


def test_subprocess_verify_exit_code():
    proc = run_cli("verify", "impartial", "--oracle", "plurality", "--n", "3")
    assert proc.returncode == 1
