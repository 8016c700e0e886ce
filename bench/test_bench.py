"""Tests of the benchmark itself, at a quick size (one round per run).

Run from the root of the repository::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from impsel import cli  # noqa: E402


def _benchmark_doc() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def all_workloads():
    """One untraced and one traced run of every workload, one round each, on the default seed."""
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "all",
            "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_named_metric_is_emitted_with_its_unit(all_workloads):
    _, result = all_workloads
    doc = _benchmark_doc()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for metric in doc["end_to_end"] + doc["per_layer"]:
            emitted = result["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"], (workload, metric["name"])
            assert isinstance(emitted["value"], (int, float))
    expected = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in doc["end_to_end"] + doc["per_layer"]}
    assert set(result["metrics"]) == expected


def test_no_op_fails_and_counts_match_their_formulas(all_workloads):
    table, result = all_workloads
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    fail_lines = [line.split() for line in table if line.split()[1] == "fail_share"]
    assert len(fail_lines) == 2 * len(workloads.WORKLOADS)
    assert all(float(fields[2]) == 0 for fields in fail_lines)
    for workload in workloads.WORKLOADS:
        assert result["metrics"][f"{workload}.bench.count_mismatches"]["value"] == 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", "mc-rks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_digests_reproduce(workload, tmp_path):
    ops = workloads.build(workload, workloads.DEFAULT_SEED, str(tmp_path))
    runner = run.Runner(cli, {})
    runner.round(ops)
    assert runner.failures == []
    assert runner.first == workloads.load_digests()[workload]


class _FakeCli:
    """Stands in for impsel.cli: prints a fixed text and returns a fixed code."""

    def __init__(self, text: str, rc: int = 0):
        self.text, self.rc = text, rc

    def main(self, argv):
        sys.stdout.write(self.text)
        return self.rc


def _op(workload: str, name: str, tmp_path):
    ops = workloads.build(workload, workloads.DEFAULT_SEED, str(tmp_path))
    return next(op for op in ops if op.name == name)


def test_corrupted_output_is_counted_as_failed(tmp_path):
    op = _op("mc-rks", "sweep-rks", tmp_path)
    text = _capture(op)
    pinned = workloads.load_digests()["mc-rks"]

    # a changed last digit still passes the invariants, but not the recorded digest
    body = text.rstrip("\n")
    assert body[-1].isdigit()
    corrupted = body[:-1] + ("1" if body[-1] != "1" else "2") + "\n"
    runner = run.Runner(_FakeCli(corrupted), pinned)
    runner.execute(op, {})
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "digest" in runner.failures[0]

    # a gap far above the guarantee fails the invariant check on any seed
    rows = text.splitlines()
    cells = rows[1].split(",")
    cells[7] = "1000.0"
    rows[1] = ",".join(cells)
    runner = run.Runner(_FakeCli("\n".join(rows) + "\n"), {})
    runner.execute(op, {})
    assert runner.failed == 1 and "guarantee" in runner.failures[0]

    # a wrong exit code fails, and so does a round whose bytes differ from the first
    runner = run.Runner(_FakeCli(text, rc=1), {})
    runner.execute(op, {})
    assert runner.failed == 1 and "exit code" in runner.failures[0]
    runner = run.Runner(_FakeCli(text), {})
    runner.execute(op, {})
    runner.cli = _FakeCli(text.replace("\n", "\n\n", 1))
    runner.execute(op, {})
    assert (runner.attempted, runner.failed) == (2, 1)


def test_wrong_verification_outputs_are_counted_as_failed(tmp_path):
    gap = _op("exhaustive", "gap", tmp_path)
    runner = run.Runner(_FakeCli("alpha=4/3\n"), {})
    runner.execute(gap, {})
    assert runner.failed == 1

    domain = _op("exhaustive", "impartial-random-k:2-single-n4", tmp_path)
    runner = run.Runner(_FakeCli("FAILED (81 single profiles, n=4, 1 witnesses)\n", rc=1), {})
    runner.execute(domain, {})
    assert runner.failed == 1

    sets = _op("exhaustive", "exact-rks-sets", tmp_path)
    sequences = _op("exhaustive", "exact-rks-sequences", tmp_path)
    runner = run.Runner(cli, {})
    outputs: dict = {}
    runner.execute(sets, outputs)
    outputs[sets.name] += "# differs\n"
    runner.execute(sequences, outputs)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_plurality_witnesses_are_rebuilt_and_validated(tmp_path):
    op = _op("exhaustive", "impartial-plurality", tmp_path)
    text = _capture(op)
    witnesses = workloads.parse_witnesses(text)
    assert len(witnesses) >= 1
    assert all(w.kind == "impartiality_violation" and w.profile_b is not None for w in witnesses)
    # a witness printed without its second profile fails the check
    broken = text.replace("  profile b:", "  profile c:")
    runner = run.Runner(_FakeCli(broken, rc=1), {})
    runner.execute(op, {})
    assert runner.failed == 1


def test_mc_rks_csv_is_identical_with_one_and_two_jobs(tmp_path):
    op = _op("mc-rks", "sweep-rks", tmp_path)
    assert op.argv[-2:] == ["--jobs", "1"]
    assert _capture(op) == _capture(op, op.argv[:-1] + ["2"])


def _capture(op, argv=None) -> str:
    outputs: dict = {}
    runner = run.Runner(cli, {})
    runner.execute(op, outputs, argv=argv)
    assert runner.failures == []
    return outputs[op.name]


def test_tracer_counts_match_formulas_and_flag_a_different_program(monkeypatch):
    import impsel.exact
    import impsel.verify
    from impsel.mechanisms import MechanismSpec
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert impsel.verify.check_impartial(MechanismSpec.random_k(2), 4, "single") == []
    finally:
        tracer.uninstall()
    tracer.check_totals()
    assert tracer.mismatches == []
    metrics = tracer.metrics(1)
    assert metrics["verify.check_impartial.visits"] == (4 * 3**4, "count")
    assert metrics["exact.exact_distribution.calls"] == (3**4, "count")
    assert metrics["exact.sets.items"] == (3**4 * (4 + 6), "count")
    assert metrics["mechanisms.nominated_winner.calls"] == (3**4 * (4 + 6), "count")
    assert impsel.exact.exact_distribution.__name__ == "exact_distribution"  # originals are back

    # a route that evaluates every sample set twice is a different program
    route = impsel.exact._random_k_by_sets

    def twice(profile, k):
        route(profile, k)
        return route(profile, k)

    monkeypatch.setattr(impsel.exact, "_random_k_by_sets", twice)
    tracer = Tracer()
    tracer.install()
    try:
        impsel.verify.check_impartial(MechanismSpec.random_k(2), 3, "single")
    finally:
        tracer.uninstall()
    assert tracer.mismatches
