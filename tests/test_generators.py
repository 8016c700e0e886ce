"""Profile generator families and their parameter handling."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from impsel.core import MULTI, SINGLE
from impsel.generators import (
    FAMILIES,
    PARAMS,
    GeneratorSpec,
    gen_bound_stress,
    gen_fixed_sample_adversary,
    gen_random_multi,
    gen_random_single,
    gen_single_worst,
    gen_sqrt_adversary,
)
from impsel.mechanisms import rks_worst_delta


# ---------------------------------------------------------------------------
# concentrated-degree family


def test_single_worst_small_cases():
    assert gen_single_worst(4, 2).out == ((3,), (0,), (0,), (1,))
    assert gen_single_worst(2, 1).out == ((1,), (0,))
    # delta = n - 1 degenerates to the star with a return edge
    assert gen_single_worst(5, 4).out == ((1,), (0,), (0,), (0,), (0,))


def test_single_worst_degree_pattern():
    for n, delta in [(6, 2), (9, 4), (12, 11), (30, 7)]:
        p = gen_single_worst(n, delta)
        assert p.model == SINGLE
        degs = p.in_degrees
        assert degs[0] == delta
        assert p.delta == delta
        assert all(d <= 1 for d in degs[1:])
        if delta >= 2:
            assert degs.count(delta) == 1


def test_single_worst_validation():
    with pytest.raises(ValueError):
        gen_single_worst(5, 0)
    with pytest.raises(ValueError):
        gen_single_worst(5, 5)


@given(st.integers(2, 40), st.data())
def test_single_worst_is_valid_single_model(n, data):
    delta = data.draw(st.integers(1, n - 1))
    p = gen_single_worst(n, delta)
    assert all(len(row) == 1 for row in p.out)
    assert sum(p.in_degrees) == n


# ---------------------------------------------------------------------------
# fixed-sample adversary and star


def test_fixed_sample_adversary_shape():
    # everyone nominates v; sampling {v} elects v's nominee at degree 1
    p = gen_fixed_sample_adversary(5, 0)
    assert p.in_degrees == (4, 1, 0, 0, 0)
    q = gen_fixed_sample_adversary(5, 3)
    assert q.in_degrees == (0, 0, 0, 4, 1)
    with pytest.raises(ValueError):
        gen_fixed_sample_adversary(2, 0)
    with pytest.raises(ValueError):
        gen_fixed_sample_adversary(5, 5)


# ---------------------------------------------------------------------------
# sqrt adversary


def test_sqrt_adversary_degree():
    assert gen_sqrt_adversary(16).delta == 2
    assert gen_sqrt_adversary(100).delta == 5
    assert gen_sqrt_adversary(10).delta == 2
    with pytest.raises(ValueError):
        gen_sqrt_adversary(3)


def test_sqrt_adversary_matches_ceiling_formula():
    for n in range(4, 3000):
        assert gen_sqrt_adversary(n).delta == math.ceil(math.sqrt(n) / 2), n


# ---------------------------------------------------------------------------
# bound stress


def test_bound_stress_uses_worst_delta():
    p = gen_bound_stress(100, 10)
    assert p.delta == rks_worst_delta(100, 10) == 27
    assert gen_bound_stress(2, 1).delta == 1


# ---------------------------------------------------------------------------
# seeded families


def test_random_single_deterministic():
    a = gen_random_single(20, 31337)
    assert a == gen_random_single(20, 31337)
    assert a != gen_random_single(20, 31338)
    assert a.model == SINGLE


def test_random_single_covers_choices():
    seen = set()
    for seed in range(200):
        seen.add(gen_random_single(5, seed).out[0][0])
    assert seen == {1, 2, 3, 4}


def test_random_multi_edge_probability_extremes():
    assert gen_random_multi(5, 0.0, 7).edge_count == 0
    assert gen_random_multi(5, 1.0, 7).edge_count == 20
    assert gen_random_multi(5, 0.5, 123) == gen_random_multi(5, 0.5, 123)


def test_random_multi_density_near_p():
    total = 0
    for seed in range(40):
        total += gen_random_multi(12, 0.5, seed).edge_count
    mean = total / 40
    # 40 draws of Binomial(132, 0.5); five sigma is about 4.5
    assert abs(mean - 66.0) < 6.0


# ---------------------------------------------------------------------------
# GeneratorSpec


def test_family_table_integrity():
    assert set(FAMILIES) == {
        "single-worst",
        "fixed-sample-adversary",
        "star",
        "sqrt-adversary",
        "bound-stress",
        "random-single",
        "random-multi",
    }
    for name, family in FAMILIES.items():
        assert family.model in (SINGLE, MULTI)
        assert family.required <= family.params


# one valid value for every parameter a family may take
PARAM_VALUES = {"delta": 3, "k": 2, "v": 1, "p": 0.5}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_builds_its_model(name):
    family = FAMILIES[name]
    assert set(PARAM_VALUES) == set(PARAMS)
    spec = GeneratorSpec.from_mapping(name, {key: PARAM_VALUES[key] for key in family.required})
    assert spec.needs_seed == family.seeded
    profile = spec.build(8, 3 if family.seeded else None)
    assert profile.n == 8
    assert profile.model == family.model == spec.model
    with pytest.raises(ValueError, match="requires an instance seed" if family.seeded else "no seed applies"):
        spec.build(8, None if family.seeded else 3)


def test_spec_label_round_trip():
    spec = GeneratorSpec.from_mapping("single-worst", {"delta": 3})
    assert spec.label() == "single-worst:delta=3"
    assert GeneratorSpec("sqrt-adversary").label() == "sqrt-adversary"
    again = GeneratorSpec.from_mapping("single-worst", {"delta": 3})
    assert again == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("no-such-family")
    with pytest.raises(ValueError):
        GeneratorSpec.from_mapping("single-worst", {"v": 2})
    with pytest.raises(ValueError):
        GeneratorSpec.from_mapping("random-multi")  # p is required
    with pytest.raises(ValueError):
        GeneratorSpec.from_mapping("random-multi", {"p": 1.5})
    with pytest.raises(ValueError):
        GeneratorSpec.from_mapping("single-worst", {"delta": True})


def test_spec_build_defaults():
    star = GeneratorSpec("star").build(6)
    assert star.in_degrees[0] == 5
    worst = GeneratorSpec("single-worst").build(6)
    assert worst.delta == 5
    stress = GeneratorSpec("bound-stress").build(100)
    assert stress.delta == rks_worst_delta(100, 10)


def test_spec_build_seed_rules():
    seeded = GeneratorSpec.from_mapping("random-multi", {"p": 0.25})
    assert seeded.needs_seed
    with pytest.raises(ValueError):
        seeded.build(8)
    p = seeded.build(8, instance_seed=5)
    assert p.model == MULTI
    plain = GeneratorSpec("star")
    assert not plain.needs_seed
    with pytest.raises(ValueError):
        plain.build(8, instance_seed=5)


def test_spec_model_attribute():
    assert GeneratorSpec("random-multi", (("p", 0.1),)).model == MULTI
    assert GeneratorSpec("single-worst").model == SINGLE


@given(st.integers(2, 30), st.integers(0, 2**40))
@settings(max_examples=40)
def test_random_single_always_valid(n, seed):
    p = gen_random_single(n, seed)
    assert p.n == n
    assert all(len(row) == 1 for row in p.out)


@given(st.integers(2, 12), st.floats(0, 1), st.integers(0, 2**40))
@settings(max_examples=40)
def test_random_multi_always_valid(n, p_edge, seed):
    p = gen_random_multi(n, p_edge, seed)
    assert p.n == n
    assert p.model == MULTI
    assert 0 <= p.edge_count <= n * (n - 1)
