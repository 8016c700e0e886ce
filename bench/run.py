"""impsel benchmark: times each workload end to end through the CLI, and traces its layers.

Run from the root of a checkout; impsel is imported from ``./src``::

    python3 bench/run.py --workload mc-rks --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 25

One run of one workload is one fresh process.  It builds the workload's
inputs from ``--seed``, then repeats the workload's fixed ops (a round)
through ``impsel.cli.main`` until ``--seconds`` is spent, checking every
op's output.  The last stdout line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the wall time from launch
  until impsel is imported and the inputs are built;
* ``run_s``: time of one round, as the sum over its ops of each op's
  median time over the rounds;
* ``peak_rss_mb``: peak resident memory of the workload process.

Both times are wall times scaled to a reference machine speed by
``speed.SpeedMeter``; the info line before the result holds them as
measured too (``setup_wall_s``, ``round_wall_s``).

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``layers.py``, the tracing overhead, and a record of
the machine.  ``--workload all`` runs every workload both ways, each in its
own process, and prints every metric by name and unit.

The share of failed ops, ``failed / attempted``, is printed on the line
before the result; it is not a gated metric because it is 0 when the
program is right.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_run"
SETUP_PROBES = 15
TRACE_SETUP_PROBES = 5
MAX_FAILURES_SHOWN = 5


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _use_checkout_source() -> str | None:
    """Put ``./src`` first on the import path; an error message when impsel is not there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "impsel", "cli.py")):
        return f"no impsel source under {src}; run from the root of a checkout"
    sys.path.insert(0, src)
    return None


def _import_cli():
    import impsel.cli

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(impsel.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"impsel was imported from {impsel.cli.__file__}, not from {src}")
    return impsel.cli


def _workdir(workload: str, tag: str) -> str:
    return os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}-{tag}")


# ----- set-up -----


def probe(workload: str, seed: int) -> int:
    """Child side of a set-up measurement: import impsel, build the inputs, report."""
    started = time.perf_counter()
    _import_cli()
    import_s = time.perf_counter() - started
    import workloads

    workdir = _workdir(workload, "probe")
    try:
        workloads.build(workload, seed, workdir)
        print(json.dumps({"import_s": import_s}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int, probes: int, meter: SpeedMeter) -> tuple[float, float, float]:
    """Medians over fresh processes of the launch-to-ready time, scaled and as measured, and of the import time.

    The speed samples are taken before the launch and after the child has
    exited, so that they never share the core with it.
    """
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    times, walls, imports = [], [], []
    for _ in range(probes):
        before = meter.edge()
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - started
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line:
                raise RuntimeError(f"set-up probe exited with code {child.returncode}")
        times.append(meter.scale(ready, before + meter.edge()))
        walls.append(ready)
        imports.append(json.loads(line)["import_s"])
    return statistics.median(times), statistics.median(walls), statistics.median(imports)


# ----- running ops -----


class Runner:
    """Runs ops through ``impsel.cli.main`` and judges each output."""

    def __init__(self, cli, pinned: dict[str, str]):
        self.cli = cli
        self.pinned = pinned
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.meter = SpeedMeter()

    def execute(self, op, round_outputs: dict, argv=None, tracer=None) -> tuple[float, float]:
        """Run one op; return its wall time scaled to the reference speed, and as measured.

        Speed samples are taken around and, untraced, during the op;
        judging the output happens afterwards, outside the timed part.
        """
        import workloads

        buf = io.StringIO()

        def call():
            try:
                with redirect_stdout(buf):
                    return self.cli.main(argv or op.argv), None
            except SystemExit as exc:
                return exc.code, None
            except Exception:
                return None, traceback.format_exc()

        if tracer is not None:
            tracer.install()
        try:
            (rc, error), op_s, elapsed = self.meter.measure(call, periodic=tracer is None and argv is None)
        finally:
            if tracer is not None:
                tracer.uninstall()

        output = buf.getvalue()
        if op.out_file is not None and error is None:
            try:
                with open(op.out_file, "r", encoding="utf-8") as fh:
                    output = fh.read()
            except OSError as exc:
                error = f"output file not readable: {exc}"
        self.attempted += 1
        reason = error or self._judge(op, rc, output, round_outputs, workloads.digest(rc, output))
        if reason:
            self.failed += 1
            self.failures.append(f"{op.name}: {reason}")
        round_outputs[op.name] = output
        if argv is None and tracer is None:
            self.op_times.setdefault(op.name, []).append(op_s)
        return op_s, elapsed

    def _judge(self, op, rc, output: str, round_outputs: dict, digest: str) -> str | None:
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}"
        is_first = op.name not in self.first
        if digest != self.first.setdefault(op.name, digest):
            return "output differs from the first round"
        pinned = self.pinned.get(op.name)
        if pinned is not None and digest != pinned:
            return "output differs from the digest recorded for the default seed"
        checks = [op.check] + ([op.check_once] if is_first else [])
        for check in checks:
            if check is None:
                continue
            try:
                reason = check(rc, output, round_outputs)
            except Exception as exc:  # output too malformed for the check to read
                reason = f"check could not read the output: {exc!r}"
            if reason:
                return reason
        return None

    def round(self, ops, tracer=None) -> tuple[float, float]:
        """Every op once; the round's scaled and measured wall times."""
        gc.collect()
        outputs: dict = {}
        times = [self.execute(op, outputs, tracer=tracer) for op in ops]
        return sum(t for t, _ in times), sum(w for _, w in times)


# ----- the machine -----


def cpu_times() -> list[int] | None:
    """Aggregate jiffies from /proc/stat (read only); None where it is not readable."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_share(before, after) -> float:
    if before is None or after is None:
        return 0.0
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas)
    return deltas[7] / total if total else 0.0


def count_lines(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine_record() -> dict:
    from importlib import metadata

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "loc_src": count_lines("src"),
        "loc_tests": count_lines("tests"),
    }


def _set_cpus(cpus) -> None:
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def _pin_to_one_cpu():
    """Keep this process and its set-up probes on one CPU, where the speed samples are taken.

    Returns the CPUs allowed before, or None where affinity is not supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    _set_cpus({min(cpus)})
    return cpus


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ----- one workload -----


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return the info record and the result object."""
    import workloads

    cli = _import_cli()
    cpu_before = cpu_times()
    pinned = workloads.load_digests().get(workload, {}) if seed == workloads.DEFAULT_SEED else {}
    runner = Runner(cli, pinned)
    all_cpus = _pin_to_one_cpu()
    setup_s, setup_wall_s, import_s = measure_setup(
        workload, seed, TRACE_SETUP_PROBES if trace else SETUP_PROBES, runner.meter
    )
    workdir = _workdir(workload, "run")
    try:
        ops = workloads.build(workload, seed, workdir)
        if trace:
            rounds, metrics = _traced(runner, ops, seconds, import_s, all_cpus)
        else:
            rounds = _timed_rounds(runner, ops, seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (sum(statistics.median(times) for times in runner.op_times.values()), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal = steal_share(cpu_before, cpu_times())
    machine = machine_record()
    calib = runner.meter.samples
    calib_ms = statistics.median(calib) * 1e3
    calib_quartiles = statistics.quantiles(calib, n=4)
    calib_spread = (calib_quartiles[2] - calib_quartiles[0]) * 1e3 / calib_ms
    if trace:
        metrics.update(
            {
                "machine.calib_ms": (calib_ms, "ms"),
                "machine.calib_spread": (calib_spread, "share"),
                "machine.steal_share": (steal, "share"),
                "machine.nproc": (machine["nproc"], "count"),
                "loc.src": (machine["loc_src"], "lines"),
                "loc.tests": (machine["loc_tests"], "lines"),
            }
        )
    info = {
        "workload": workload,
        "seed": seed,
        "fail_share": runner.failed / runner.attempted,
        "failures": runner.failures[:MAX_FAILURES_SHOWN],
        "setup_wall_s": setup_wall_s,
        "round_s": [t for t, _ in rounds],
        "round_wall_s": [w for _, w in rounds],
        "machine": dict(machine, calib_ms=calib_ms, calib_spread=calib_spread, steal_share=steal),
    }
    return {
        "info": info,
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def _timed_rounds(runner: Runner, ops, seconds: float) -> list[tuple[float, float]]:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    started = time.perf_counter()
    rounds = []
    while True:
        rounds.append(runner.round(ops))
        if time.perf_counter() - started + statistics.median(w for _, w in rounds) > seconds:
            return rounds


def _traced(runner: Runner, ops, seconds: float, import_s: float, all_cpus):
    """Untraced and traced rounds in turn; the traced rounds give the per-layer metrics."""
    from layers import Tracer

    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(runner.round(ops))
        traced.append(runner.round(ops, tracer=tracer))
        pair = statistics.median(w for _, w in plain) + statistics.median(w for _, w in traced)
        if time.perf_counter() - started + pair > seconds:
            break
    tracer.check_totals()
    for mismatch in tracer.mismatches:
        print(f"bench: count mismatch: {mismatch}", file=sys.stderr)

    # sweeps once more with --jobs 2, untraced: same bytes, and the speed-up
    serial = parallel = 0.0
    outputs: dict = {}
    _set_cpus(all_cpus)
    for op in ops:
        if op.jobs_flag:
            argv = op.argv[:-1] + ["2"]  # swap the trailing "--jobs 1"
            parallel += runner.execute(op, outputs, argv=argv)[0]
            serial += statistics.median(runner.op_times[op.name])

    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update(tracer.metrics(len(traced)))
    traced_wall = sum(w for _, w in traced)
    plain_s = statistics.median(t for t, _ in plain)
    metrics["montecarlo.sweep.jobs2_speedup"] = (serial / parallel if parallel else 0.0, "ratio")
    metrics["bench.trace_overhead"] = (statistics.median(t for t, _ in traced) / plain_s - 1.0, "share")
    metrics["bench.unattributed_share"] = ((traced_wall - tracer.attributed_seconds()) / traced_wall, "share")
    metrics["bench.count_mismatches"] = (len(tracer.mismatches), "count")
    return plain, metrics


# ----- every workload -----


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process; prints every metric."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                return _fail(f"{workload} --trace {trace} exited with code {proc.returncode}")
            info = json.loads(lines[-2])
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            print(f"{workload:<11} {'fail_share':<48} {info['fail_share']:.6g} share")
            for name, metric in result["metrics"].items():
                print(f"{workload:<11} {name:<48} {metric['value']:.6g} {metric['unit']}")
                merged["metrics"][f"{workload}.{name}"] = metric
            for failure in info["failures"]:
                print(f"{workload:<11} FAILED {failure}")
    print(json.dumps(merged, sort_keys=True))
    return 0


def write_digests() -> int:
    """Record the digest of every op's output on the default seed into ``digests.json``."""
    import workloads

    cli = _import_cli()
    doc = {"seed": workloads.DEFAULT_SEED, "digests": {}}
    for workload in workloads.WORKLOADS:
        workdir = _workdir(workload, "digests")
        try:
            ops = workloads.build(workload, workloads.DEFAULT_SEED, workdir)
            runner = Runner(cli, {})
            runner.round(ops)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if runner.failed:
            return _fail(f"{workload}: {runner.failures}")
        doc["digests"][workload] = runner.first
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)

    problem = _use_checkout_source()
    if problem:
        return _fail(problem)
    try:
        if args.write_digests:
            return write_digests()
        import workloads

        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.workload not in workloads.WORKLOADS:
            return _fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
        if args.probe:
            return probe(args.workload, args.seed)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        return _fail(str(exc))
    finally:
        _remove_if_empty(WORK_ROOT)
    print(json.dumps(outcome["info"], sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


def _remove_if_empty(directory: str) -> None:
    try:
        os.rmdir(directory)
    except OSError:
        pass  # absent, or still used by a parent run


if __name__ == "__main__":
    sys.exit(main())
