"""Exhaustive checkers, the sample-function catalog, and the refutation driver.

The driver tests steer it down every branch of its decision tree with
scripted table-driven oracles, then re-validate each witness from scratch.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from impsel import exact, mechanisms
from impsel.core import MULTI, SINGLE, NominationProfile, format_profile
from impsel.exact import (
    EnumerationTooLarge,
    WinnerDistribution,
    exact_distribution,
    expected_winner_degree,
)
from impsel.mechanisms import KINDS, MechanismSpec, ModelMismatch, majority_default_winner, parse_mechanism
from impsel.verify import (
    DEFAULT_CHECK_MAX_N,
    ORACLE_NAMES,
    SAMPLE_CATALOG,
    WITNESS_KINDS,
    EmptySampleError,
    OracleNondeterministic,
    ProfileSpaceTooLarge,
    Witness,
    check_impartial,
    check_sample_constant,
    check_strong_sample,
    format_witness,
    iter_profiles,
    measure_additive_gap_exhaustive,
    named_oracle,
    profile_count,
    refute_two_additive,
    sample_mechanism_oracle,
    validate_witness,
)


def multi4(out_sets):
    return NominationProfile.multi(4, out_sets)


def deviate(profile, u, new_out):
    """``profile`` with u's out-set replaced by ``new_out``, through the checked constructor."""
    return NominationProfile(profile.n, profile.model, (*profile.out[:u], new_out, *profile.out[u + 1 :]))


def table_oracle(answers, default=0):
    """Deterministic oracle answering from a profile-keyed table."""

    def oracle(profile):
        return answers.get(profile, default)

    return oracle


def _point_mass(n, winner):
    """A deterministic answer as a distribution: ``winner`` surely, or nobody."""
    return WinnerDistribution(n, {} if winner is None else {winner: 1}, int(winner is None))


# ---------------------------------------------------------------------------
# profile enumeration


def test_profile_counts():
    assert profile_count(3, SINGLE) == 8
    assert profile_count(4, SINGLE) == 81
    assert profile_count(3, MULTI) == 64
    assert profile_count(4, MULTI) == 4096
    for n in range(1, 9):
        assert profile_count(n, SINGLE) == (n - 1) ** n
        assert profile_count(n, MULTI) == 2 ** (n * (n - 1))


def test_profile_count_is_none_past_8192_bits_at_once():
    """Only counts within 8192 bits are built: n times the bit length of a vertex's
    choice count (n - 1 single, 2^(n-1) multi), the choice count summed only that far."""
    assert (profile_count(819, SINGLE), profile_count(820, SINGLE)) == (818**819, None)
    assert (profile_count(90, MULTI), profile_count(91, MULTI)) == (2 ** (90 * 89), None)
    start = time.perf_counter()
    assert profile_count(20000, MULTI) is None
    assert profile_count(10**6, SINGLE) is None
    assert time.perf_counter() - start < 1


def test_iteration_order():
    singles = [p.single_nominees for p in iter_profiles(3, SINGLE)]
    assert singles == sorted(singles) and singles[0] == (1, 0, 0)
    multis = [p.out for p in iter_profiles(3, MULTI)]
    assert multis[0] == ((), (), ()) and multis[-1] == ((1, 2), (0, 2), (0, 1))
    # the last vertex's out-set varies fastest, smallest out-sets first
    assert [out[2] for out in multis[:4]] == [(), (0,), (1,), (0, 1)]


def test_iterators_match_counts_and_are_unique():
    for n, model in [(2, SINGLE), (3, SINGLE), (4, SINGLE), (2, MULTI), (3, MULTI)]:
        seen = list(iter_profiles(n, model))
        assert len(seen) == profile_count(n, model)
        assert len(set(seen)) == len(seen)
        assert all(p.n == n and p.model == model for p in seen)


@pytest.mark.parametrize(
    ("n", "model"), [(n, SINGLE) for n in range(2, 6)] + [(n, MULTI) for n in range(2, 5)]
)
def test_enumerated_rows_are_their_own_checked_normalisation(n, model):
    """The engines build these profiles unchecked, so each row tuple must be
    exactly what the checked constructor would store."""
    for p in iter_profiles(n, model):
        assert NominationProfile(n, model, p.out).out == p.out


def test_single_iterator_is_exhaustive():
    # every single-model profile on 3 vertices, by hand
    got = {p.out for p in iter_profiles(3, SINGLE)}
    want = {
        ((a,), (b,), (c,))
        for a in (1, 2)
        for b in (0, 2)
        for c in (0, 1)
    }
    assert got == want


def test_space_ceiling():
    with pytest.raises(ProfileSpaceTooLarge):
        check_impartial(MechanismSpec.simple_k(1), 6, SINGLE)
    with pytest.raises(ProfileSpaceTooLarge):
        check_strong_sample(SAMPLE_CATALOG["const-0"], 7, max_n=6)
    # an explicit ceiling unlocks the larger domain
    assert check_strong_sample(SAMPLE_CATALOG["const-0"], 6, max_n=6) == []


@pytest.mark.parametrize("n, model, fits", [(819, SINGLE, True), (820, SINGLE, False), (90, MULTI, True),
                                             (91, MULTI, False)])
def test_space_refusal_counts_only_within_8192_bits(n, model, fits):
    """As ``EnumerationTooLarge.required``: the count once n times the bit length
    of a vertex's choice count (n - 1 single, 2^(n-1) multi) is at most 8192, else None."""
    refusal = ProfileSpaceTooLarge(n, model, None)
    assert refusal.count == (profile_count(n, model) if fits else None)
    count = f"{refusal.count} " if fits else ""
    assert str(refusal) == (f"exhaustive check over {count}{model}-model profiles on {n} vertices "
                            f"exceeds the default ceiling; pass max_n={n} (--max-n {n}) to allow it")


@pytest.mark.parametrize("engine, n, count", [(check_impartial, 6, 5**6), (measure_additive_gap_exhaustive, 7, 6**7)])
def test_space_ceiling_message_names_the_ceiling_in_force(engine, n, count):
    with pytest.raises(ProfileSpaceTooLarge) as caught:
        engine(MechanismSpec.random_k(2), n, SINGLE)
    assert str(caught.value) == (f"exhaustive check over {count} single-model profiles on {n} vertices "
                                 f"exceeds the default ceiling; pass max_n={n} (--max-n {n}) to allow it")
    assert caught.value.count == count
    with pytest.raises(ProfileSpaceTooLarge) as caught:
        engine(MechanismSpec.random_k(2), 3, SINGLE, max_n=2)
    assert str(caught.value) == ("exhaustive check over 8 single-model profiles on 3 vertices "
                                 "exceeds the ceiling max_n=2; pass max_n=3 (--max-n 3) to allow it")
    assert caught.value.count == 8


@pytest.mark.parametrize("engine", [check_impartial, measure_additive_gap_exhaustive])
@pytest.mark.parametrize("max_n", [None, 5])
def test_unknown_model_is_value_error(engine, max_n):
    with pytest.raises(ValueError, match="^unknown model 'bogus'$"):
        engine(MechanismSpec.random_k(1), 3, "bogus", max_n=max_n)


# ---------------------------------------------------------------------------
# impartiality checking


def test_random_k_is_impartial_small():
    for n in (3, 4):
        for k in (1, 2):
            assert check_impartial(MechanismSpec.random_k(k), n, SINGLE) == []


def test_simple_k_is_impartial_on_multi():
    assert check_impartial(MechanismSpec.simple_k(1), 3, MULTI) == []


def test_plurality_is_not_impartial():
    witnesses = check_impartial(named_oracle("plurality"), 3, SINGLE)
    assert witnesses
    for w in witnesses:
        assert w.kind == "impartiality_violation"
        assert validate_witness(w, named_oracle("plurality"))


def test_callable_and_spec_subjects_agree():
    spec = MechanismSpec.simple_k(2)
    as_callable = lambda p: exact_distribution(spec, p)  # noqa: E731
    a = check_impartial(spec, 3, SINGLE)
    b = check_impartial(as_callable, 3, SINGLE)
    assert a == b == []


def test_majority_default_is_impartial_on_multi():
    oracle = named_oracle("majority-default-ext:0")
    assert check_impartial(oracle, 3, MULTI) == []


def reference_engines(subject, n, model):
    """``check_impartial`` and ``measure_additive_gap_exhaustive`` written out on
    ``exact_distribution(method="sequences")``, or an oracle's point mass.

    Deviations are visited in the engine's order: for each vertex u, every
    profile where u makes its first choice, against each later choice of u.
    """
    profiles = list(iter_profiles(n, model))

    def distribution(profile):
        if callable(subject):
            return _point_mass(n, subject(profile))
        return exact_distribution(subject, profile, method="sequences")

    dists = {profile: distribution(profile) for profile in profiles}
    witnesses = []
    for u in range(n):
        choices = list(dict.fromkeys(profile.out[u] for profile in profiles))
        for base in profiles:
            if base.out[u] != choices[0]:
                continue
            p_a = dists[base].probability(u)
            for choice in choices[1:]:
                alt = deviate(base, u, choice)
                p_b = dists[alt].probability(u)
                if p_a != p_b:
                    witnesses.append(Witness("impartiality_violation", base, alt, u, {"p_a": p_a, "p_b": p_b}))
    gaps = [(profile.delta - expected_winner_degree(dists[profile], profile), profile) for profile in profiles]
    alpha = max(gap for gap, _ in gaps)
    worst = next(profile for gap, profile in gaps if gap == alpha)
    return witnesses, alpha, worst


_ENGINE_ORACLES = ("plurality", "dictator:0", "majority-default-ext:0")
ENGINE_CASES = (
    [(f"random-k:{k}", SINGLE, n) for k in (1, 2, 3) for n in (3, 4, 5)]
    + [(f"simple-k:{k}", model, n) for k in (1, 2) for model in (MULTI, SINGLE) for n in (3, 4)]
    + [(mech, model, 3) for mech in ("fixed:0", "majority-default:0", "plurality") for model in (SINGLE, MULTI)]
    + [(name, model, n) for name in _ENGINE_ORACLES[1:] for model in (SINGLE, MULTI) for n in (3, 4)]
    + [(mech, model, 4) for mech in ("plurality", "majority-default:0") for model in (SINGLE, MULTI)]
)
# witness counts of the cases that have any: plurality is not impartial, nor is
# the majority rule (either spelling) on multi n = 4; every other case is a proof
ENGINE_WITNESS_COUNTS = {
    ("plurality", SINGLE, 3): 2,
    ("plurality", MULTI, 3): 44,
    ("plurality", SINGLE, 4): 30,
    ("plurality", MULTI, 4): 3120,
    ("majority-default-ext:0", MULTI, 4): 704,
    ("majority-default:0", MULTI, 4): 704,
}


@pytest.mark.parametrize("subject, model, n", ENGINE_CASES)
def test_engines_match_the_sequences_reference(subject, model, n):
    name = subject
    subject = named_oracle(name) if name in _ENGINE_ORACLES else parse_mechanism(name)
    want_witnesses, want_alpha, want_worst = reference_engines(subject, n, model)
    witnesses = check_impartial(subject, n, model)
    alpha, worst = measure_additive_gap_exhaustive(subject, n, model)
    assert witnesses == want_witnesses
    assert len(witnesses) == ENGINE_WITNESS_COUNTS.get((name, model, n), 0)
    assert all(type(w.detail["p_a"]) is type(w.detail["p_b"]) is Fraction for w in witnesses)
    assert (alpha, worst) == (want_alpha, want_worst)
    assert type(alpha) is Fraction


@pytest.mark.parametrize("engine, spec, n, model", [
    (measure_additive_gap_exhaustive, "majority-default:0", 5, SINGLE),
    (check_impartial, "fixed:0", 4, MULTI),
])
def test_engines_check_a_deterministic_spec_once(monkeypatch, engine, spec, n, model):
    """The model check and k are settled once per run, not once per profile."""
    calls = Counter()
    for name in ("check_model", "resolve_k"):
        def counted(*args, _name=name, _wrapped=getattr(mechanisms, name)):
            calls[_name] += 1
            return _wrapped(*args)

        for module in (mechanisms, exact):
            monkeypatch.setattr(module, name, counted)
    engine(parse_mechanism(spec), n, model)
    assert calls == {"check_model": 1, "resolve_k": 1}


@pytest.mark.parametrize("engine", [check_impartial, measure_additive_gap_exhaustive])
def test_engines_refuse_before_enumerating(engine):
    with pytest.raises(EnumerationTooLarge, match=r"^enumeration needs 9 draw sequences, budget is 8; "
                       r"raise the budget or use Monte Carlo$"):
        engine(MechanismSpec.random_k(2), 3, SINGLE, budget=8)
    with pytest.raises(ModelMismatch, match="^random_k_sample is defined for the single model, profile is multi$"):
        engine(MechanismSpec.random_k(1), 3, MULTI)


# ---------------------------------------------------------------------------
# sample functions


def test_catalog_names_are_stable():
    assert set(SAMPLE_CATALOG) == {
        "const-0",
        "const-12",
        "first-2",
        "nominee-of-0",
        "min-degree",
        "max-degree",
        "edge-hash",
    }


def test_constant_functions_pass_everything():
    for name in ("const-0", "const-12", "first-2"):
        g = SAMPLE_CATALOG[name]
        assert check_strong_sample(g, 3) == []
        constant, witness = check_sample_constant(g, 3)
        assert constant and witness is None
        f = sample_mechanism_oracle(g)
        assert check_impartial(f, 3, SINGLE) == []


def test_nominee_of_zero_is_strong_but_not_impartial():
    g = SAMPLE_CATALOG["nominee-of-0"]
    assert check_strong_sample(g, 3) == []
    constant, witness = check_sample_constant(g, 3)
    assert not constant
    assert witness.kind == "sample_not_constant"
    assert validate_witness(witness, g)
    f = sample_mechanism_oracle(g)
    violations = check_impartial(f, 3, SINGLE)
    assert violations
    assert all(validate_witness(w, f) for w in violations)


@pytest.mark.parametrize("name", ["min-degree", "max-degree", "edge-hash"])
def test_degree_dependent_samplers_are_not_strong(name):
    g = SAMPLE_CATALOG[name]
    witnesses = check_strong_sample(g, 3)
    assert witnesses
    for w in witnesses:
        assert w.kind == "strong_sample_violation"
        assert validate_witness(w, g)


def reference_strong_sample(g, n):
    """``check_strong_sample`` walked profile by profile: g asked again on every
    rewiring of every sampled vertex, each rebuilt by the checked constructor."""
    witnesses = []
    for profile in iter_profiles(n, SINGLE):
        sample = frozenset(g(profile))
        for u in sorted(sample):
            for alt in range(n):
                if alt in (u, profile.single_nominees[u]):
                    continue
                deviated = deviate(profile, u, (alt,))
                new_sample = frozenset(g(deviated))
                if new_sample != sample:
                    detail = {"sample_a": tuple(sorted(sample)), "sample_b": tuple(sorted(new_sample))}
                    witnesses.append(Witness("strong_sample_violation", profile, deviated, u, detail))
    return witnesses


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", sorted(SAMPLE_CATALOG))
def test_strong_sample_matches_the_profile_walk_and_asks_g_once_per_profile(name, n):
    g, asked = SAMPLE_CATALOG[name], []

    def counted(profile):
        asked.append(profile)
        return g(profile)

    assert check_strong_sample(counted, n) == reference_strong_sample(g, n)
    assert asked == list(iter_profiles(n, SINGLE))
    assert len(asked) == profile_count(n, SINGLE)


def cylinder_tilings(n):
    """Every strong sample function on single n-vertex profiles, each as a dict from
    profile to sample.  If g(x) = S, no member of S can move the sample by rewiring,
    so g = S on the cylinder of profiles that agree with x outside S: a strong g tiles
    the profiles by cylinders, each labelled by its free set, and every such tiling is
    strong.  The first profile left uncovered picks the cylinder that covers it, so
    each tiling comes once."""
    profiles = list(iter_profiles(n, SINGLE))
    labels = [frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]

    def extend(g):
        x = next((p for p in profiles if p not in g), None)
        if x is None:
            yield dict(g)
            return
        for label in labels:
            cylinder = [p for p in profiles if all(p.out[u] == x.out[u] for u in range(n) if u not in label)]
            if not any(p in g for p in cylinder):
                g.update(dict.fromkeys(cylinder, label))
                yield from extend(g)
                for p in cylinder:
                    del g[p]

    return extend({})


def test_every_strong_sample_function_at_n3_is_impartial_exactly_when_constant():
    """The characterization over the whole class, not the catalog: the 25 strong
    sample functions on single 3-vertex profiles all pass ``check_strong_sample``,
    and the 7 whose induced rule is impartial are the 7 constant ones."""
    tilings = list(cylinder_tilings(3))
    assert len(tilings) == len({frozenset(t.items()) for t in tilings}) == 25
    impartial, constant = set(), set()
    for i, tiling in enumerate(tilings):
        g = tiling.__getitem__
        assert check_strong_sample(g, 3) == [], i
        if not check_impartial(sample_mechanism_oracle(g), 3, SINGLE):
            impartial.add(i)
        if check_sample_constant(g, 3)[0]:
            constant.add(i)
    assert len(impartial) == 7
    assert impartial == constant


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        check_strong_sample(lambda p: frozenset(), 3)


def test_empty_sample_error_names_the_first_empty_profile_in_order():
    """g is asked on every profile before any rewiring is compared: vertex 0
    rewires profile 0 into profile 4, yet profile 1 is the one named."""
    profiles = list(iter_profiles(3, SINGLE))
    empty = {profiles[1], profiles[4]}
    with pytest.raises(EmptySampleError) as caught:
        check_strong_sample(lambda p: frozenset() if p in empty else frozenset({0}), 3)
    assert str(caught.value) == f"sample function returned an empty set on:\n{format_profile(profiles[1])}"


def test_sample_mechanism_oracle_winner_rule():
    g = SAMPLE_CATALOG["const-0"]
    f = sample_mechanism_oracle(g)
    assert f(NominationProfile.single([2, 2, 0])) == 2
    assert f(NominationProfile.single([1, 0, 0])) == 1


# ---------------------------------------------------------------------------
# named oracles


def test_named_oracle_parsing():
    assert named_oracle("plurality")(NominationProfile.single([2, 2, 0])) == 2
    # dictator:D selects D itself, whatever the profile says
    assert named_oracle("dictator:1")(NominationProfile.single([2, 2, 0])) == 1
    p = NominationProfile.multi(4, {1: [3], 2: [3]})
    assert named_oracle("majority-default-ext:0")(p) == majority_default_winner(p, 0)
    with pytest.raises(ValueError):
        named_oracle("oligarchy")
    with pytest.raises(ValueError):
        named_oracle("dictator:x")


def test_dictator_out_of_range_fails_at_call():
    f = named_oracle("dictator:9")
    with pytest.raises(ValueError):
        f(NominationProfile.single([1, 0]))


def test_oracle_names_listing():
    assert "plurality" in ORACLE_NAMES


# ---------------------------------------------------------------------------
# the refutation driver, branch by branch

EMPTY = multi4({})
# with a = 0 the trio is (1, 2, 3)
SOLO = {v: multi4({v: tuple(w for w in (1, 2, 3) if w != v)}) for v in (1, 2, 3)}


def run_and_validate(oracle, expected_kind, expected_case):
    witness = refute_two_additive(oracle)
    assert witness.kind == expected_kind
    assert witness.detail["case"] == expected_case
    assert witness.detail["queries"] <= 64
    assert validate_witness(witness, oracle)
    return witness


def test_refute_known_oracles():
    w = run_and_validate(named_oracle("dictator:0"), "additivity_violation", "held-default")
    assert w.detail["delta"] - w.detail["winner_degree"] == 3
    run_and_validate(named_oracle("plurality"), "impartiality_violation", "mutual-pair")
    run_and_validate(
        named_oracle("majority-default-ext:0"), "impartiality_violation", "held-default"
    )


def test_refute_silent_oracle():
    run_and_validate(lambda p: None, "no_winner_violation", "empty")


def test_refute_no_winner_mid_tree():
    oracle = table_oracle({SOLO[1]: None})
    run_and_validate(oracle, "no_winner_violation", "solo")


def test_refute_solo_self_crowning():
    oracle = table_oracle({SOLO[1]: 1})
    w = run_and_validate(oracle, "impartiality_violation", "solo")
    assert w.vertex == 1
    assert w.profile_a == EMPTY


def test_refute_mutual_pair_both_exits():
    base = {SOLO[1]: 2, SOLO[2]: 1, SOLO[3]: 1}
    merged = multi4({1: (2, 3), 2: (1, 3)})
    w = run_and_validate(table_oracle({**base, merged: 2}), "impartiality_violation", "mutual-pair")
    assert w.vertex == 1
    w2 = run_and_validate(table_oracle({**base, merged: 3}), "impartiality_violation", "mutual-pair")
    assert w2.vertex == 2


CYCLE = {SOLO[1]: 2, SOLO[2]: 3, SOLO[3]: 1}
PAIR = {
    1: multi4({1: (2, 3), 2: (1, 3)}),
    2: multi4({2: (1, 3), 3: (1, 2)}),
    3: multi4({3: (1, 2), 1: (2, 3)}),
}
PAIR_ANSWERS = {PAIR[1]: 2, PAIR[2]: 3, PAIR[3]: 1}
CLIQUE = multi4({1: (2, 3), 2: (1, 3), 3: (1, 2)})
FINAL = multi4({0: (1, 2, 3), 1: (2, 3), 2: (1, 3), 3: (1, 2)})


def test_refute_three_cycle_pair_exits():
    # the lone voter of pair[1] crowns itself
    w = run_and_validate(
        table_oracle({**CYCLE, PAIR[1]: 1}), "impartiality_violation", "three-cycle"
    )
    assert w.vertex == 1
    # or the pair winner lands on the third vertex entirely
    w2 = run_and_validate(
        table_oracle({**CYCLE, PAIR[1]: 3}), "impartiality_violation", "three-cycle"
    )
    assert w2.vertex == 2


def test_refute_three_cycle_clique_exit():
    oracle = table_oracle({**CYCLE, **PAIR_ANSWERS, CLIQUE: 2})
    w = run_and_validate(oracle, "impartiality_violation", "three-cycle")
    assert w.vertex == 2
    assert w.profile_b == CLIQUE


def test_refute_three_cycle_final_impartiality():
    oracle = table_oracle({**CYCLE, **PAIR_ANSWERS, CLIQUE: 0, FINAL: 1})
    w = run_and_validate(oracle, "impartiality_violation", "three-cycle")
    assert w.vertex == 0
    assert w.profile_b == FINAL


def test_refute_three_cycle_final_additivity():
    # a stubborn default that answers the cycle on solos and 0 elsewhere
    oracle = table_oracle({**CYCLE, **PAIR_ANSWERS, CLIQUE: 0, FINAL: 0})
    w = run_and_validate(oracle, "additivity_violation", "three-cycle")
    assert w.detail["delta"] == 3
    assert w.detail["winner_degree"] == 0


def test_refute_held_default_merge_exit():
    # held default: h[1] = 0; both one-sided extensions crown the other
    w_profile = multi4({1: (2, 3), 0: (2, 3)})
    wp = multi4({1: (2, 3), 0: (2, 3), 2: (3,)})
    wpp = multi4({1: (2, 3), 0: (2, 3), 3: (2,)})
    t = multi4({1: (2, 3), 0: (2, 3), 2: (3,), 3: (2,)})
    base = {SOLO[1]: 0, w_profile: 0, wp: 3, wpp: 2}
    w = run_and_validate(table_oracle({**base, t: 2}), "impartiality_violation", "held-default")
    assert w.vertex == 3
    w2 = run_and_validate(table_oracle({**base, t: 1}), "additivity_violation", "held-default")
    assert w2.detail["winner_degree"] == 0


# held default with a = 0: h[1] = 0 (every unlisted answer is 0), so cc = 1, bb = 2, dd = 3
HELD = {SOLO[1]: 0}
W = multi4({1: (2, 3), 0: (2, 3)})
WP = multi4({1: (2, 3), 0: (2, 3), 2: (3,)})
WPP = multi4({1: (2, 3), 0: (2, 3), 3: (2,)})
T = multi4({1: (2, 3), 0: (2, 3), 2: (3,), 3: (2,)})
MUTUAL = {SOLO[1]: 2, SOLO[2]: 1, SOLO[3]: 1}
MERGED = multi4({1: (2, 3), 2: (1, 3)})


def _impartiality(a, b, vertex, winner_a, winner_b, case, queries):
    detail = {"winner_a": winner_a, "winner_b": winner_b, "case": case, "queries": queries}
    return Witness("impartiality_violation", a, b, vertex, detail)


def _no_winner(profile, case, queries):
    return Witness("no_winner_violation", profile, None, None, {"case": case, "queries": queries})


# every exit of the decision tree that the branch tests above leave out;
# queries count two oracle calls per distinct profile asked
REFUTATION_EXITS = {
    "held-w-impartiality": ({**HELD, W: 1}, _impartiality(SOLO[1], W, 0, 0, 1, "held-default", 10)),
    "held-wp-impartiality": ({**HELD, WP: 2}, _impartiality(W, WP, 2, 0, 2, "held-default", 12)),
    "held-wpp-impartiality": (
        {**HELD, WP: 3, WPP: 3}, _impartiality(W, WPP, 3, 0, 3, "held-default", 14)),
    "held-wpp-additivity": (
        {**HELD, WP: 3, WPP: 1},
        Witness("additivity_violation", WPP, None, 1,
                {"delta": 3, "winner_degree": 0, "case": "held-default", "queries": 14})),
    "held-t-crowns-dd": (
        {**HELD, WP: 3, WPP: 2, T: 3}, _impartiality(WPP, T, 2, 2, 3, "held-default", 16)),
    "no-winner-w": ({**HELD, W: None}, _no_winner(W, "held-default", 10)),
    "no-winner-wp": ({**HELD, WP: None}, _no_winner(WP, "held-default", 12)),
    "no-winner-wpp": ({**HELD, WP: 3, WPP: None}, _no_winner(WPP, "held-default", 14)),
    "no-winner-t": ({**HELD, WP: 3, WPP: 2, T: None}, _no_winner(T, "held-default", 16)),
    "no-winner-merged": ({**MUTUAL, MERGED: None}, _no_winner(MERGED, "mutual-pair", 10)),
    "no-winner-pair": ({**CYCLE, PAIR[1]: None}, _no_winner(PAIR[1], "three-cycle", 10)),
    "no-winner-clique": (
        {**CYCLE, **PAIR_ANSWERS, CLIQUE: None}, _no_winner(CLIQUE, "three-cycle", 16)),
    "no-winner-final": (
        {**CYCLE, **PAIR_ANSWERS, CLIQUE: 0, FINAL: None}, _no_winner(FINAL, "three-cycle", 18)),
}


@pytest.mark.parametrize("answers, expected", REFUTATION_EXITS.values(), ids=REFUTATION_EXITS)
def test_refute_pins_every_remaining_exit(answers, expected):
    oracle = table_oracle(answers)
    witness = refute_two_additive(oracle)
    assert (witness.kind, witness.detail["case"], witness.vertex) == (
        expected.kind, expected.detail["case"], expected.vertex)
    assert (witness.profile_a, witness.profile_b) == (expected.profile_a, expected.profile_b)
    assert list(witness.detail.items()) == list(expected.detail.items())  # key order too
    assert validate_witness(witness, oracle)


class _Unscripted(Exception):
    """The driver asked a distinct profile past the end of the script."""


def scripted_oracle(script):
    """Answers each new distinct profile with the script's next entry, and the same
    answer again whenever that profile comes back."""
    answers = {}

    def oracle(profile):
        if profile not in answers:
            if len(answers) == len(script):
                raise _Unscripted
            answers[profile] = script[len(answers)]
        return answers[profile]

    return oracle


def test_refute_corners_every_oracle_on_four_vertices():
    """The driver's whole answer tree: every script of answers None, 0..3 to the
    distinct profiles in the order they are asked, extended until the driver exits.
    Each of the 1,685 leaves is a deterministic 4-vertex oracle, up to the profiles
    it is never asked, and each is cornered into a witness that re-validates."""
    leaves = Counter()
    scripts = [()]
    while scripts:
        script = scripts.pop()
        oracle = scripted_oracle(script)
        try:
            witness = refute_two_additive(oracle)
        except _Unscripted:
            scripts += [(*script, answer) for answer in (None, 0, 1, 2, 3)]
            continue
        assert witness.detail["queries"] <= 18, script
        assert validate_witness(witness, oracle), script
        leaves[witness.kind, witness.detail["case"]] += 1
    assert leaves == {
        ("additivity_violation", "held-default"): 456,
        ("additivity_violation", "three-cycle"): 8,
        ("impartiality_violation", "held-default"): 532,
        ("impartiality_violation", "three-cycle"): 120,
        ("impartiality_violation", "mutual-pair"): 96,
        ("impartiality_violation", "solo"): 52,
        ("no_winner_violation", "held-default"): 304,
        ("no_winner_violation", "solo"): 52,
        ("no_winner_violation", "three-cycle"): 40,
        ("no_winner_violation", "mutual-pair"): 24,
        ("no_winner_violation", "empty"): 1,
    }
    assert sum(leaves.values()) == 1685


def test_refute_rejects_nondeterminism():
    calls = []

    def flaky(profile):
        calls.append(profile)
        return len(calls) % 2

    with pytest.raises(OracleNondeterministic):
        refute_two_additive(flaky)


def test_refute_rejects_out_of_range_answers():
    with pytest.raises(ValueError):
        refute_two_additive(lambda p: 7)


# ---------------------------------------------------------------------------
# exhaustive gap measurement


def test_fixed_sample_worst_gap():
    for n in (3, 4, 5):
        alpha, worst = measure_additive_gap_exhaustive(MechanismSpec.fixed([0]), n, SINGLE)
        assert alpha == n - 2
        d = exact_distribution(MechanismSpec.fixed([0]), worst)
        got = worst.delta - sum(worst.in_degrees[v] * d.probability(v) for v in range(n))
        assert got == alpha


@pytest.mark.parametrize("n, model", [(3, SINGLE), (4, SINGLE), (5, SINGLE), (3, MULTI), (4, MULTI)])
def test_every_constant_sample_has_the_strong_sample_floor(n, model):
    """The deterministic floor over every constant sample S, a nonempty proper subset:
    the exhaustive worst gap of ``fixed(S)`` is n - 2 for a single-model singleton and
    n - 1 otherwise, so n - 2 is the floor and only singletons reach it.  This covers
    ``fixed``'s selection rule over every constant sample, not every selection rule."""
    for size in range(1, n):
        for sample in itertools.combinations(range(n), size):
            alpha, _ = measure_additive_gap_exhaustive(MechanismSpec.fixed(sample), n, model)
            assert alpha == (n - 2 if size == 1 and model == SINGLE else n - 1), sample


def test_majority_default_worst_gap():
    alpha, worst = measure_additive_gap_exhaustive(MechanismSpec.majority_default(0), 4, MULTI)
    assert alpha == 2
    assert worst.delta >= 2


def test_random_k_gap_is_small_at_n4():
    alpha, _ = measure_additive_gap_exhaustive(MechanismSpec.random_k(2), 4, SINGLE)
    assert 0 < float(alpha) < 3


# ---------------------------------------------------------------------------
# witness plumbing


def test_witness_kinds_are_closed():
    assert set(WITNESS_KINDS) == {
        "impartiality_violation",
        "strong_sample_violation",
        "additivity_violation",
        "no_winner_violation",
        "sample_not_constant",
    }


def test_validate_rejects_tampered_witness():
    witnesses = check_impartial(named_oracle("plurality"), 3, SINGLE)
    w = witnesses[0]
    other = (w.vertex + 1) % 3
    tampered = Witness(w.kind, w.profile_a, w.profile_b, other, dict(w.detail))
    assert not validate_witness(tampered, named_oracle("plurality"))


def test_validate_rejects_gap_of_exactly_two():
    star = NominationProfile.single([1, 0, 0, 0])
    claim = Witness("additivity_violation", star, None, 1, {})
    assert not validate_witness(claim, table_oracle({star: 1}))



TRI = NominationProfile.single([1, 2, 0])
# the last answer is n itself, one past the last vertex id
BAD_ANSWERS = [True, False, -1, "0", 1.0, (0,), lambda profile: profile.n]


def _answer_check_calls(oracle):
    """Every entry point that asks ``oracle`` about 3- or 4-vertex profiles."""
    tri_b = deviate(TRI, 0, (2,))
    return {
        "check_impartial": lambda: check_impartial(oracle, 3, SINGLE),
        "measure_additive_gap_exhaustive": lambda: measure_additive_gap_exhaustive(oracle, 3, SINGLE),
        "refute_two_additive": lambda: refute_two_additive(oracle),
        "validate impartiality": lambda: validate_witness(
            Witness("impartiality_violation", TRI, tri_b, 0), oracle),
        "validate additivity": lambda: validate_witness(Witness("additivity_violation", TRI), oracle),
        "validate no winner": lambda: validate_witness(Witness("no_winner_violation", TRI), oracle),
    }


@pytest.mark.parametrize("answer", BAD_ANSWERS, ids=lambda answer: "n" if callable(answer) else repr(answer))
def test_every_engine_rejects_an_answer_that_is_not_a_vertex_id(answer):
    oracle = answer if callable(answer) else lambda profile: answer
    for where, call in _answer_check_calls(oracle).items():
        bad = (4 if where == "refute_two_additive" else 3) if callable(answer) else answer
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == f"oracle returned {bad!r}, expected a vertex id or None", where


def test_every_engine_rejects_a_distribution_over_the_wrong_n():
    wrong = WinnerDistribution(2, {0: 1}, 0)
    for where, call in _answer_check_calls(lambda p: wrong).items():
        with pytest.raises(ValueError) as caught:
            call()
        if where == "refute_two_additive":  # the refutation driver needs one winner, not a distribution
            assert str(caught.value) == f"oracle returned {wrong!r}, expected a vertex id or None"
        else:
            assert str(caught.value) == "oracle returned a distribution over 2 vertices, expected 3", where


def _self_contradicting():
    """An oracle answering 0 and 1 by turns: any two calls in a row disagree about vertex 0."""
    answers = itertools.cycle([0, 1])
    return lambda profile: next(answers)


_TRI_B = NominationProfile.single([2, 2, 0])  # TRI with vertex 0 rewired
_TRI_C = NominationProfile.single([1, 2, 1])  # TRI with vertex 2 rewired; max-degree's sample {0} moves to {1}
_MAX_DEGREE = SAMPLE_CATALOG["max-degree"]

# each witness is refused for the one fault its id names; where the witness
# has the shape to be checked at all, the subject would confirm the rest
REFUSED_WITNESSES = {
    "impartiality-without-profile-b": (Witness("impartiality_violation", TRI, None, 0), _self_contradicting),
    "impartiality-without-vertex": (Witness("impartiality_violation", TRI, _TRI_B, None), _self_contradicting),
    "vertex-above-range": (Witness("impartiality_violation", TRI, _TRI_B, 3), _self_contradicting),
    "vertex-below-range": (Witness("impartiality_violation", TRI, _TRI_C, -1), lambda: table_oracle({_TRI_C: 2})),
    "vertex-count-differs": (
        Witness("impartiality_violation", TRI, NominationProfile.single([2, 2, 0, 2]), 0), _self_contradicting),
    "model-differs": (
        Witness("impartiality_violation", TRI, NominationProfile.multi(3, {0: (2,), 1: (2,), 2: (0,)}), 0),
        _self_contradicting),
    "equal-at-the-vertex": (Witness("impartiality_violation", TRI, TRI, 0), _self_contradicting),
    "differs-at-a-second-vertex": (
        Witness("impartiality_violation", TRI, NominationProfile.single([2, 0, 0]), 0), _self_contradicting),
    "strong-sample-without-profile-b": (Witness("strong_sample_violation", TRI, None, 2), lambda: _MAX_DEGREE),
    "strong-sample-without-vertex": (Witness("strong_sample_violation", TRI, _TRI_C, None), lambda: _MAX_DEGREE),
    "strong-sample-differs-at-a-second-vertex": (
        Witness("strong_sample_violation", TRI, NominationProfile.single([2, 2, 1]), 0), lambda: _MAX_DEGREE),
    "strong-sample-vertex-outside-the-sample": (
        Witness("strong_sample_violation", TRI, _TRI_C, 2), lambda: _MAX_DEGREE),
    "sample-not-constant-without-profile-b": (Witness("sample_not_constant", TRI), lambda: _MAX_DEGREE),
}


@pytest.mark.parametrize("witness, make_subject", REFUSED_WITNESSES.values(), ids=REFUSED_WITNESSES)
def test_validate_refuses_a_witness_of_the_wrong_shape(witness, make_subject):
    assert validate_witness(witness, make_subject()) is False


def _half_least_degree(profile):
    """A distribution-valued oracle: the least-id vertex of least in-degree
    wins with probability 1/2, nobody otherwise."""
    degs = profile.in_degrees
    return WinnerDistribution(profile.n, {degs.index(min(degs)): Fraction(1, 2)}, Fraction(1, 2))


@pytest.mark.parametrize("model, n", [(SINGLE, 4), (MULTI, 3)])
def test_validate_witness_matches_a_fraction_derivation(model, n):
    """``validate_witness`` against ``exact_distribution`` and
    ``expected_winner_degree``, on every profile and every one-vertex deviation."""
    subjects = [parse_mechanism(m) for m in ("random-k:2", "simple-k:2", "fixed:0", "majority-default:0")]
    subjects += [named_oracle("plurality"), _half_least_degree]
    profiles = list(iter_profiles(n, model))
    choices = [list(dict.fromkeys(p.out[u] for p in profiles)) for u in range(n)]
    outcomes = Counter()
    for subject in subjects:
        if isinstance(subject, MechanismSpec):
            if model not in KINDS[subject.kind].models:
                continue
            dists = {p: exact_distribution(subject, p) for p in profiles}
        else:
            dists = {p: subject(p) for p in profiles}
            dists = {p: d if isinstance(d, WinnerDistribution) else _point_mass(n, d)
                     for p, d in dists.items()}
        for p in profiles:
            got = validate_witness(Witness("additivity_violation", p), subject)
            assert got == (p.delta - expected_winner_degree(dists[p], p) > 2)
            outcomes["additivity", got] += 1
            got = validate_witness(Witness("no_winner_violation", p), subject)
            assert got == (dists[p].p_none == 1)
            outcomes["no winner", got] += 1
            for u in range(n):
                for choice in choices[u]:
                    if choice == p.out[u]:
                        continue
                    alt = deviate(p, u, choice)
                    got = validate_witness(Witness("impartiality_violation", p, alt, u), subject)
                    assert got == (dists[p].probability(u) != dists[alt].probability(u))
                    outcomes["impartiality", got] += 1
    # each witness kind is seen to hold and to fail, except where the model rules it out
    want = {(kind, got) for kind in ("additivity", "no winner", "impartiality") for got in (True, False)}
    if model == MULTI:
        want.discard(("additivity", True))  # delta <= 2 on 3 vertices
    else:
        want.discard(("no winner", True))  # a single-model pool is never empty for these subjects
    assert set(outcomes) == want


def test_format_witness_is_readable():
    witnesses = check_impartial(named_oracle("plurality"), 3, SINGLE)
    text = format_witness(witnesses[0])
    assert "impartiality_violation" in text
    assert "model single" in text
