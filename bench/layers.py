"""Per-layer tracing of impsel from outside the package.

``Tracer.install`` replaces each layer's public entry point with a timing
wrapper, in every ``impsel`` module that holds the function by name (so
``montecarlo.nominated_winner`` and ``exact.nominated_winner`` are both
wrapped), plus the methods ``DrawStream.draws``,
``NominationProfile.__post_init__`` and ``GeneratorSpec.build``.
``uninstall`` puts the originals back; no source file is edited.

Each wrapper records a span: its duration counts toward the layer's total
time, and toward the child time of the enclosing span.  A layer's self time
is its total minus its child time.  Spans are aggregated as they close, not
kept one by one, because the Monte Carlo workloads make hundreds of
thousands of them.  Spans opened in worker processes are lost, so traced
ops must run with ``--jobs 1``.

Work counts come from formulas over the call arguments (n^k draw sequences,
sum_{t<=k} C(n,t) sample sets, C(n+k-1,k) multisets, n * profile_count
visits, trials * k draws).  ``mismatches`` lists every place where the
wrapped calls made inside a span differ from its formula.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from time import perf_counter

from workloads import profile_count

# splitmix64 advances its state by this odd constant per raw value, so the
# raw values a stream consumed are (state delta) * GOLDEN^-1 mod 2^64.
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
_MASK64 = (1 << 64) - 1

GENERATOR_FAMILIES = ("bound-stress", "single-worst", "random-single", "random-multi")


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps impsel layers while installed and aggregates their spans."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.calls: Counter = Counter()
        self.units: Counter = Counter()  # work done, from call arguments
        self.times: Counter = Counter()  # inclusive seconds by sub-key
        self.mismatches: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._original_sks_sample_size = None

    # ----- installing -----

    def install(self) -> None:
        import impsel.core
        import impsel.exact
        import impsel.generators
        import impsel.mechanisms

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._original_sks_sample_size = impsel.exact.sks_sample_size
        snapshot = self._snapshot
        self._method(impsel.core.NominationProfile, "__post_init__", "core.build")
        self._method(
            impsel.mechanisms.DrawStream, "draws", "mechanisms.draws", self._on_draws,
            lambda args: args[0]._state,
        )
        self._method(impsel.generators.GeneratorSpec, "build", "generators.build", self._on_generate)
        for module, name, layer, hook, before in (
            ("impsel.cli", "main", "cli.main", None, None),
            ("impsel.core", "parse_profile", "core.parse_profile", self._on_parse, None),
            ("impsel.core", "format_profile", "core.format_profile", self._on_format, None),
            ("impsel.mechanisms", "nominated_winner", "mechanisms.nominated_winner", None, None),
            ("impsel.mechanisms", "multiset_winner", "mechanisms.multiset_winner", None, None),
            ("impsel.montecarlo", "estimate", "montecarlo.estimate", self._on_estimate, snapshot),
            ("impsel.montecarlo", "sweep", "montecarlo.sweep", None, None),
            ("impsel.exact", "exact_distribution", "exact.exact_distribution", self._on_exact, snapshot),
            ("impsel.exact", "sks_sample_size", "exact.sks_sample_size", None, None),
            ("impsel.verify", "check_impartial", "verify.check_impartial", self._on_check_impartial, snapshot),
            (
                "impsel.verify",
                "measure_additive_gap_exhaustive",
                "verify.measure_additive_gap",
                self._on_measure_gap,
                snapshot,
            ),
        ):
            self._function(module, name, layer, hook, before)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _method(self, cls, name: str, layer: str, hook=None, before=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._wrap(layer, original, hook, before))
        self._patches.append((cls, name, original))

    def _function(self, module_name: str, name: str, layer: str, hook, before) -> None:
        original = getattr(importlib.import_module(module_name), name)
        wrapper = self._wrap(layer, original, hook, before)
        for module_key, module in list(sys.modules.items()):
            if module_key.split(".")[0] == "impsel" and module.__dict__.get(name) is original:
                setattr(module, name, wrapper)
                self._patches.append((module, name, original))

    def _wrap(self, layer: str, fn, hook, before_hook):
        """``before_hook(args)`` runs before the span opens and its value goes to
        ``hook(args, kwargs, result, elapsed, before)``, which runs after it closes."""
        stat = self.stats.setdefault(layer, _Stat())
        stack = self._stack
        calls = self.calls
        clock = perf_counter

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            before = before_hook(args) if before_hook is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
            if hook is not None:
                hook(args, kwargs, result, elapsed, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ----- work counts -----

    def _snapshot(self, args) -> Counter:
        snapshot = Counter(self.calls)
        snapshot["draws.count"] = self.units["draws.count"]
        return snapshot

    def _since(self, before: Counter, key: str) -> int:
        now = self.units["draws.count"] if key == "draws.count" else self.calls[key]
        return now - before[key]

    def _expect(self, what: str, formula: int, measured: int) -> None:
        if formula != measured:
            self.mismatches.append(f"{what}: formula {formula}, wrapped calls {measured}")

    def _on_draws(self, args, kwargs, result, elapsed, state_before):
        stream, count = args[0], args[1]
        self.units["draws.count"] += count
        self.units["draws.raw"] += ((stream._state - state_before) * _GOLDEN_INV) & _MASK64

    def _on_generate(self, args, kwargs, result, elapsed, before):
        family = args[0].family
        self.units[f"gen.{family}.vertices"] += args[1]
        self.times[f"gen.{family}"] += elapsed

    def _on_parse(self, args, kwargs, result, elapsed, before):
        self.units["parse.edges"] += result.edge_count

    def _on_format(self, args, kwargs, result, elapsed, before):
        self.units["format.edges"] += args[0].edge_count

    def _on_estimate(self, args, kwargs, report, elapsed, before):
        spec, profile, plan = args
        if spec.kind not in ("random_k_sample", "simple_k_sample"):
            return
        rks = spec.kind == "random_k_sample"
        kind = "rks" if rks else ("sks" if profile.model == "single" else "sks_multi")
        draws = plan.trials * report.k
        self.units["estimate.trials"] += plan.trials
        self.units[f"estimate.{kind}.n{profile.n}.trials"] += plan.trials
        self.times[f"estimate.{kind}.n{profile.n}"] += elapsed
        self.units["formula.draws"] += draws
        winner = "mechanisms.nominated_winner" if rks else "mechanisms.multiset_winner"
        self.units[f"formula.{winner}"] += plan.trials
        label = f"estimate {spec.label()} n={profile.n}"
        self._expect(f"{label} draws", draws, self._since(before, "draws.count"))
        self._expect(f"{label} {winner}", plan.trials, self._since(before, winner))

    def _on_exact(self, args, kwargs, dist, elapsed, before):
        spec, profile = args
        if spec.kind not in ("random_k_sample", "simple_k_sample"):
            return
        n = profile.n
        rks = spec.kind == "random_k_sample"
        # the sample size resolve_k gives, without a traced sks_sample_size call
        if spec.k is not None:
            k = spec.k
        elif rks:
            k = max(1, min(math.isqrt(n - 1) + 1, n - 1))
        else:
            k = self._original_sks_sample_size(n)
        if not rks:
            k = max(1, min(k, n - 1))
        if rks:
            distinct = sum(math.comb(n, t) for t in range(1, min(k, n) + 1))
        else:
            distinct = math.comb(n + k - 1, k)
        method = kwargs.get("method", "auto")
        route = "sequences" if method == "sequences" else ("sets" if rks else "multisets")
        self.units[f"exact.{route}.items"] += n**k if route == "sequences" else distinct
        self.units[f"exact.{route}.distinct"] += distinct
        self.times[f"exact.{route}"] += elapsed
        winner = "mechanisms.nominated_winner" if rks else "mechanisms.multiset_winner"
        self.units[f"formula.{winner}"] += distinct
        self._expect(f"exact {spec.label()} n={n} {route} {winner}", distinct, self._since(before, winner))

    def _exhaustive_counts(self, what: str, args, before, visits_per_profile: int) -> tuple[int, bool]:
        """Expected profile builds and distribution calls of an exhaustive engine."""
        subject, n, model = args[0], args[1], args[2]
        count = profile_count(n, model)
        self._expect(
            f"{what} n={n} {model} profile builds", visits_per_profile * count, self._since(before, "core.build")
        )
        by_spec = not callable(subject)
        if by_spec:
            self._expect(
                f"{what} n={n} {model} exact_distribution", count, self._since(before, "exact.exact_distribution")
            )
        return count, by_spec

    def _on_check_impartial(self, args, kwargs, result, elapsed, before):
        n = args[1]
        count, by_spec = self._exhaustive_counts("check_impartial", args, before, n)
        self.units["check_impartial.visits"] += n * count
        if by_spec:
            self.units["check_impartial.dist_lookups"] += n * count
            self.units["check_impartial.dist_computed"] += self._since(before, "exact.exact_distribution")

    def _on_measure_gap(self, args, kwargs, result, elapsed, before):
        count, _ = self._exhaustive_counts("measure_additive_gap", args, before, 1)
        self.units["measure_gap.profiles"] += count

    def check_totals(self) -> None:
        """Every draw and winner call was claimed by the formula of an enclosing span."""
        self._expect("draws in total", self.units["formula.draws"], self.units["draws.count"])
        for winner in ("mechanisms.nominated_winner", "mechanisms.multiset_winner"):
            self._expect(f"{winner} in total", self.units[f"formula.{winner}"], self.calls[winner])

    # ----- metrics -----

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``rounds`` traced rounds; counts are per round.

        A rate whose layer did no work on this workload reads 0.
        """
        st = self.stats.setdefault
        units = self.units

        def per(numer: float, denom: float, scale: float = 1.0) -> float:
            return numer / denom * scale if denom else 0.0

        def count(value: float) -> float:
            return value / rounds

        out: dict[str, tuple[float, str]] = {}
        main = st("cli.main", _Stat())
        out["cli.main.self_ms_per_call"] = (per(main.self_time, main.calls, 1e3), "ms")
        out["cli.main.calls"] = (count(main.calls), "count")
        out["core.parse_profile.us_per_edge"] = (
            per(st("core.parse_profile", _Stat()).total, units["parse.edges"], 1e6), "us")
        out["core.format_profile.us_per_edge"] = (
            per(st("core.format_profile", _Stat()).total, units["format.edges"], 1e6), "us")
        build = st("core.build", _Stat())
        out["core.build.us_per_profile"] = (per(build.total, build.calls, 1e6), "us")
        out["core.build.calls"] = (count(build.calls), "count")
        for family in GENERATOR_FAMILIES:
            out[f"generators.{family}.us_per_vertex"] = (
                per(self.times[f"gen.{family}"], units[f"gen.{family}.vertices"], 1e6), "us")
        draws = st("mechanisms.draws", _Stat())
        out["mechanisms.draws.ns_per_draw"] = (per(draws.total, units["draws.count"], 1e9), "ns")
        out["mechanisms.draws.count"] = (count(units["formula.draws"]), "count")
        out["mechanisms.draws.accept_ratio"] = (per(units["draws.count"], units["draws.raw"]), "ratio")
        for winner in ("nominated_winner", "multiset_winner"):
            layer = f"mechanisms.{winner}"
            stat = st(layer, _Stat())
            out[f"{layer}.us_per_call"] = (per(stat.total, stat.calls, 1e6), "us")
            out[f"{layer}.calls"] = (count(units[f"formula.{layer}"]), "count")
        est = st("montecarlo.estimate", _Stat())
        out["montecarlo.estimate.self_us_per_trial"] = (
            per(est.self_time, units["estimate.trials"], 1e6), "us")
        out["montecarlo.estimate.trials"] = (count(units["estimate.trials"]), "count")
        for kind, n in (("rks", 256), ("rks", 4096), ("sks", 256), ("sks", 4096), ("sks_multi", 256)):
            key = f"estimate.{kind}.n{n}"
            out[f"montecarlo.estimate.{kind}.us_per_trial.n{n}"] = (
                per(self.times[key], units[f"{key}.trials"], 1e6), "us")
        sweep = st("montecarlo.sweep", _Stat())
        out["montecarlo.sweep.self_ms"] = (per(sweep.self_time, sweep.calls, 1e3), "ms")
        for route in ("sets", "multisets", "sequences"):
            out[f"exact.{route}.ns_per_item"] = (
                per(self.times[f"exact.{route}"], units[f"exact.{route}.items"], 1e9), "ns")
            out[f"exact.{route}.items"] = (count(units[f"exact.{route}.items"]), "count")
        seq_items = units["exact.sequences.items"]
        out["exact.sequences.cache_hit_ratio"] = (
            per(seq_items - units["exact.sequences.distinct"], seq_items), "ratio")
        dist = st("exact.exact_distribution", _Stat())
        out["exact.exact_distribution.self_us_per_call"] = (per(dist.self_time, dist.calls, 1e6), "us")
        out["exact.exact_distribution.calls"] = (count(dist.calls), "count")
        sks = st("exact.sks_sample_size", _Stat())
        out["exact.sks_sample_size.us_per_call"] = (per(sks.total, sks.calls, 1e6), "us")
        out["exact.sks_sample_size.calls"] = (count(sks.calls), "count")
        check = st("verify.check_impartial", _Stat())
        out["verify.check_impartial.self_us_per_visit"] = (
            per(check.self_time, units["check_impartial.visits"], 1e6), "us")
        out["verify.check_impartial.visits"] = (count(units["check_impartial.visits"]), "count")
        lookups = units["check_impartial.dist_lookups"]
        out["verify.check_impartial.dist_cache_hit_ratio"] = (
            per(lookups - units["check_impartial.dist_computed"], lookups), "ratio")
        gap = st("verify.measure_additive_gap", _Stat())
        out["verify.measure_additive_gap.us_per_profile"] = (
            per(gap.total, units["measure_gap.profiles"], 1e6), "us")
        out["verify.measure_additive_gap.profiles"] = (count(units["measure_gap.profiles"]), "count")
        return out

    def attributed_seconds(self) -> float:
        """Self time of every layer below ``cli.main``."""
        return sum(stat.self_time for layer, stat in self.stats.items() if layer != "cli.main")
