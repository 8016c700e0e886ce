"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single ``[acceptance]`` line before asserting, so the
full scorecard can be read off a verbose run.  Tolerances are pinned as
module constants and are not derived from measurements.

Criterion 4 is expected to fail: on the concentrated-degree family the
expected gap of the random-sample mechanism has the closed form
(delta - 1) * (1 - Pr[top vertex is nominated]), and with k = ceil(sqrt(n))
and delta = round((n - 1 + 2k^2) / (k + 1)) that quantity grows with an
exponent near 1/3, below the pinned slope window.  The assertion is kept
strict rather than widened to fit; see the test body.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from impsel.core import MULTI, SINGLE, NominationProfile
from impsel.exact import (
    exact_distribution,
    expected_winner_degree,
    pr_top_in_nominated,
    rks_gap_lower_bound,
    sks_gap_upper_bound,
)
from impsel.generators import GeneratorSpec, gen_fixed_sample_adversary, gen_random_multi, gen_random_single
from impsel.mechanisms import DrawStream, MechanismSpec, derive_seed, nominated_winner, rks_worst_delta
from impsel.montecarlo import SweepConfig, fit_scaling, rows_to_csv, sweep
from impsel.verify import (
    SAMPLE_CATALOG,
    check_impartial,
    check_sample_constant,
    check_strong_sample,
    iter_profiles,
    measure_additive_gap_exhaustive,
    named_oracle,
    refute_two_additive,
    sample_mechanism_oracle,
    validate_witness,
)

# pinned tolerances and budgets
C1_MAX_SECONDS = 60.0
C1_MAX_N = 6
C1_MAX_K = 3
C3_MAX_SECONDS = 300.0
C4_N_VALUES = (64, 128, 256, 512, 1024, 2048, 4096)
C4_TRIALS = 100_000
C4_SIGMA = 5.0
C4_SLOPE_WINDOW = (0.35, 0.65)
C4_MAX_SECONDS = 600.0
C5_N_VALUES = (128, 256, 512, 1024, 2048, 4096)
C5_MULTI_N_VALUES = (128, 256)
C5_TRIALS = 10_000
C5_SIGMA = 5.0
C8_MAX_SECONDS_EACH = 1.0
C8_MAX_QUERIES = 64
C9_PROFILES = 200
C9_MASTER_SEED = 20260816
C10_MASTER_SEED = 99


def _report(cid, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid} {name}: {status} ({detail})")


# number of length-k draw sequences whose image is exactly a t-element set
_SURJ = {k: {t: sum((-1) ** j * math.comb(t, j) * (t - j) ** k for j in range(t + 1)) for t in range(1, k + 1)} for k in range(1, C1_MAX_K + 1)}


@pytest.fixture(scope="module")
def small_single_scan():
    """Shared enumeration behind criteria 1 and 2.

    Walks every single-model profile with 2 <= n <= 6 that has a unique
    maximum-degree vertex u*, and every distinct draw set of size <= 3,
    recording (a) the exact membership probability of u* in the nominated
    pool per k and (b) any draw outcome whose winner trails delta by more
    than k while u* is in the pool.
    """
    started = time.perf_counter()
    ks = range(1, C1_MAX_K + 1)
    mismatches = []
    floor_violations = []
    profiles_used = 0
    for n in range(2, C1_MAX_N + 1):
        subsets = [
            T
            for size in range(1, C1_MAX_K + 1)
            for T in itertools.combinations(range(n), size)
        ]
        nk = {k: n**k for k in ks}
        for profile in iter_profiles(n, SINGLE):
            degs = profile.in_degrees
            delta = max(degs)
            if degs.count(delta) != 1:
                continue
            profiles_used += 1
            ustar = degs.index(delta)
            ins = frozenset(u for u in range(n) if profile.out[u][0] == ustar)
            hits = {k: 0 for k in ks}
            for T in subsets:
                t = len(T)
                if ustar in T or not ins.intersection(T):
                    continue
                winner = nominated_winner(profile, T)[1]
                wdeg = degs[winner]
                for k in ks:
                    if t <= k:
                        hits[k] += _SURJ[k][t]
                        if wdeg < delta - k:
                            floor_violations.append((profile, T, k, winner))
            for k in ks:
                enumerated = Fraction(hits[k], nk[k])
                miss = 1 - Fraction(delta, n - 1)
                formula = (1 - miss**k) * Fraction(n - 1, n) ** k
                if enumerated != formula or formula != pr_top_in_nominated(n, k, delta):
                    mismatches.append((profile, k, enumerated, formula))
    elapsed = time.perf_counter() - started
    return {
        "mismatches": mismatches,
        "floor_violations": floor_violations,
        "profiles": profiles_used,
        "elapsed": elapsed,
    }


def test_c01_closed_form_membership_probability(small_single_scan):
    scan = small_single_scan
    ok = not scan["mismatches"] and scan["elapsed"] < C1_MAX_SECONDS
    _report(
        "C1",
        "closed-form membership probability",
        ok,
        f"{scan['profiles']} profiles with unique top vertex, k<=3, "
        f"{len(scan['mismatches'])} mismatches, {scan['elapsed']:.1f}s",
    )
    assert not scan["mismatches"]
    assert scan["elapsed"] < C1_MAX_SECONDS


def test_c02_conditional_winner_floor(small_single_scan):
    scan = small_single_scan
    bad = scan["floor_violations"]
    _report(
        "C2",
        "winner degree floor given top vertex nominated",
        not bad,
        f"{scan['profiles']} profiles, {len(bad)} violations",
    )
    assert not bad


def test_c03_impartiality_exhaustive():
    started = time.perf_counter()
    clean = []
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            clean.append((f"random-k:{k} single n={n}", check_impartial(MechanismSpec.random_k(k), n, SINGLE)))
    for n in (3, 4):
        for k in (1, 2):
            clean.append((f"simple-k:{k} multi n={n}", check_impartial(MechanismSpec.simple_k(k), n, MULTI)))
    plurality = named_oracle("plurality")
    broken = check_impartial(plurality, 3, SINGLE)
    elapsed = time.perf_counter() - started
    dirty = [(label, ws) for label, ws in clean if ws]
    ok = not dirty and broken and all(validate_witness(w, plurality) for w in broken)
    ok = ok and elapsed < C3_MAX_SECONDS
    _report(
        "C3",
        "exhaustive impartiality",
        ok,
        f"{len(clean)} clean domains, plurality witnesses={len(broken)}, {elapsed:.1f}s",
    )
    assert not dirty, dirty[:1]
    assert broken
    assert all(validate_witness(w, plurality) for w in broken)
    assert elapsed < C3_MAX_SECONDS



def test_c03_impartiality_one_size_further():
    """C3's sampling mechanisms on single n = 6, past the default ceiling."""
    started = time.perf_counter()
    specs = [MechanismSpec.random_k(k) for k in (1, 2, 3)] + [MechanismSpec.simple_k(k) for k in (1, 2)]
    dirty = [spec.label() for spec in specs if check_impartial(spec, 6, SINGLE, max_n=6)]
    elapsed = time.perf_counter() - started
    ok = not dirty and elapsed < C3_MAX_SECONDS
    _report("C3+", "exhaustive impartiality, single n=6", ok, f"{len(specs)} domains, dirty={dirty}, {elapsed:.1f}s")
    assert not dirty
    assert elapsed < C3_MAX_SECONDS


def test_c03_multi_impartiality_one_size_further():
    """C3's simple-k:1 on multi n = 5, past the default ceiling: 2^20 profiles."""
    started = time.perf_counter()
    witnesses = check_impartial(MechanismSpec.simple_k(1), 5, MULTI, max_n=5)
    elapsed = time.perf_counter() - started
    ok = not witnesses and elapsed < C3_MAX_SECONDS
    _report("C3+", "exhaustive impartiality, multi n=5", ok, f"witnesses={len(witnesses)}, {elapsed:.1f}s")
    assert not witnesses
    assert elapsed < C3_MAX_SECONDS

def test_c04_sqrt_scaling_with_bound():
    started = time.perf_counter()
    config = SweepConfig.from_json_dict(
        {
            "mechanisms": ["random-k:auto"],
            "generator": {"family": "bound-stress"},
            "n_values": list(C4_N_VALUES),
            "trials": C4_TRIALS,
            "master_seed": 46,
        }
    )
    rows = sweep(config)
    bound_misses = []
    for row in rows:
        r = row.report
        assert r.k == math.isqrt(r.n - 1) + 1  # ceil(sqrt(n)) for n >= 2
        assert r.delta == rks_worst_delta(r.n, r.k)
        allowed = rks_gap_lower_bound(r.n, r.k) + C4_SIGMA * r.std_err
        if r.gap > allowed:
            bound_misses.append((r.n, r.gap, allowed))
    fit = fit_scaling(rows)
    elapsed = time.perf_counter() - started
    lo, hi = C4_SLOPE_WINDOW
    slope_ok = lo <= fit.slope <= hi
    ok = not bound_misses and slope_ok and elapsed < C4_MAX_SECONDS
    _report(
        "C4",
        "sqrt-scaling sweep",
        ok,
        f"7 sizes x {C4_TRIALS} trials, bound misses={len(bound_misses)}, "
        f"slope={fit.slope:.4f} window=[{lo},{hi}], r2={fit.r2:.4f}, {elapsed:.0f}s",
    )
    assert not bound_misses
    assert elapsed < C4_MAX_SECONDS
    # Expected red: the exact expected gap on this family is
    # (delta - 1) * (1 - Pr[top nominated]), which grows like n^(1/3) at
    # k = ceil(sqrt(n)), so the measured slope sits near 0.32.  The window
    # stays pinned instead of being stretched around the measurement.
    assert slope_ok, (
        f"log-log slope {fit.slope:.4f} outside pinned window [{lo}, {hi}]"
    )


def test_c05_sublinear_guarantee_simple_sample():
    misses = []
    rows_seen = 0
    single_cfg = SweepConfig.from_json_dict(
        {
            "mechanisms": ["simple-k:auto"],
            "generator": {"family": "single-worst"},
            "n_values": list(C5_N_VALUES),
            "trials": C5_TRIALS,
            "master_seed": 47,
        }
    )
    multi_cfg = SweepConfig.from_json_dict(
        {
            "mechanisms": ["simple-k:auto"],
            "generator": {"family": "random-multi", "p": 0.05},
            "n_values": list(C5_MULTI_N_VALUES),
            "trials": C5_TRIALS,
            "master_seed": 48,
            "instances": 2,
        }
    )
    for config in (single_cfg, multi_cfg):
        for row in sweep(config):
            r = row.report
            rows_seen += 1
            allowed = sks_gap_upper_bound(r.n, r.k) + C5_SIGMA * r.std_err
            if r.gap > allowed:
                misses.append((row.generator, r.n, r.gap, allowed))
    _report(
        "C5",
        "simple-sample additive bound",
        not misses,
        f"{rows_seen} instances across two families, misses={len(misses)}",
    )
    assert not misses, misses[:3]


def test_c06_fixed_sample_floor():
    failures = []
    for n in range(3, 7):
        alpha, _ = measure_additive_gap_exhaustive(
            MechanismSpec.fixed([0]), n, SINGLE, max_n=6
        )
        if alpha != n - 2:
            failures.append((n, alpha))
        adversary = gen_fixed_sample_adversary(n, 0)
        dist = exact_distribution(MechanismSpec.fixed([0]), adversary)
        attained = adversary.delta - expected_winner_degree(dist, adversary)
        if attained != n - 2:
            failures.append((n, "generator", attained))
    _report(
        "C6",
        "hard-coded sample worst gap is n-2",
        not failures,
        f"n in 3..6, exhaustive + adversarial generator, failures={len(failures)}",
    )
    assert not failures, failures


def test_c07_constant_characterization():
    verdicts = {}
    for name, g in sorted(SAMPLE_CATALOG.items()):
        strong = all(not check_strong_sample(g, n) for n in (3, 4))
        f = sample_mechanism_oracle(g)
        impartial = all(not check_impartial(f, n, SINGLE) for n in (3, 4))
        constant = all(check_sample_constant(g, n)[0] for n in (3, 4))
        verdicts[name] = (strong, impartial, constant)
    implication_breaks = [
        name for name, (s, i, c) in verdicts.items() if s and i and not c
    ]
    failing_members = [name for name, (s, i, _) in verdicts.items() if not (s and i)]
    ok = not implication_breaks and len(failing_members) >= 2
    _report(
        "C7",
        "strong + impartial implies constant",
        ok,
        f"{len(verdicts)} catalog members, breaks={implication_breaks}, "
        f"discriminated={len(failing_members)}",
    )
    assert not implication_breaks
    assert len(failing_members) >= 2


def test_c08_refutation_driver():
    results = []
    for name in ("dictator:0", "plurality", "majority-default-ext:0"):
        oracle = named_oracle(name)
        started = time.perf_counter()
        witness = refute_two_additive(oracle)
        elapsed = time.perf_counter() - started
        valid = validate_witness(witness, oracle)
        results.append((name, witness, elapsed, valid))
    dictator_witness = results[0][1]
    dictator_gap = (
        dictator_witness.detail.get("delta", 0)
        - dictator_witness.detail.get("winner_degree", 0)
    )
    ok = (
        all(valid for _, _, _, valid in results)
        and all(elapsed < C8_MAX_SECONDS_EACH for _, _, elapsed, _ in results)
        and all(w.detail["queries"] <= C8_MAX_QUERIES for _, w, _, _ in results)
        and dictator_witness.kind == "additivity_violation"
        and dictator_gap == 3
    )
    summary = ", ".join(
        f"{name}->{w.kind.split('_')[0]}({w.detail['queries']}q,{t * 1000:.0f}ms)"
        for name, w, t, _ in results
    )
    _report("C8", "oracle refutation on four vertices", ok, summary)
    for name, witness, elapsed, valid in results:
        assert valid, name
        assert elapsed < C8_MAX_SECONDS_EACH, (name, elapsed)
        assert witness.detail["queries"] <= C8_MAX_QUERIES
    assert dictator_witness.kind == "additivity_violation"
    assert dictator_gap == 3


def test_c09_enumeration_route_equivalence():
    checked = 0
    disagreements = []
    for i in range(C9_PROFILES):
        seed = derive_seed(C9_MASTER_SEED, i)
        picker = DrawStream(seed)
        n = 2 + picker.next_below(5)
        k = 1 + picker.next_below(4)
        if i % 2 == 0:
            profile = gen_random_single(n, seed)
            specs = [MechanismSpec.random_k(k), MechanismSpec.simple_k(k)]
        else:
            profile = gen_random_multi(n, 0.4, seed)
            specs = [MechanismSpec.simple_k(k)]
        for spec in specs:
            by_sets = exact_distribution(spec, profile, method="sets")
            by_sequences = exact_distribution(spec, profile, method="sequences")
            checked += 1
            if by_sets != by_sequences:
                disagreements.append((spec.label(), profile))
    _report(
        "C9",
        "sequence and weighted-set enumerations agree",
        not disagreements,
        f"{C9_PROFILES} profiles, {checked} distributions, "
        f"{len(disagreements)} disagreements",
    )
    assert not disagreements


def test_c10_parallel_reproducibility():
    config = SweepConfig.from_json_dict(
        {
            "mechanisms": ["random-k:auto", "simple-k:2"],
            "generator": {"family": "random-single"},
            "n_values": [8, 16],
            "trials": 500,
            "master_seed": C10_MASTER_SEED,
            "instances": 2,
        }
    )
    serial = rows_to_csv(sweep(config, jobs=1))
    parallel = rows_to_csv(sweep(config, jobs=8))
    ok = serial == parallel
    _report(
        "C10",
        "worker count does not change output bytes",
        ok,
        f"{serial.count(chr(10)) - 1} rows, jobs 1 vs 8, identical={ok}",
    )
    assert serial == parallel
