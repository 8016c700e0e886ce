"""Profile construction, degree queries, deviations, and the file format."""

import pytest
from hypothesis import given, settings, strategies as st

from impsel.core import (
    MULTI,
    SINGLE,
    Deviation,
    ModelViolation,
    NominationProfile,
    ProfileFormatError,
    format_profile,
    load_profile,
    parse_profile,
    save_profile,
)


def single_profiles(min_n=2, max_n=7):
    """Strategy producing arbitrary single-model profiles."""
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            *[st.integers(0, n - 2).map(lambda r, u=u: r if r < u else r + 1) for u in range(n)]
        ).map(NominationProfile.single)
    )


def multi_profiles(min_n=2, max_n=5):
    def build(n):
        vertex_sets = [
            st.sets(st.integers(0, n - 1).filter(lambda v, u=u: v != u), max_size=n - 1)
            for u in range(n)
        ]
        return st.tuples(*vertex_sets).map(lambda outs: NominationProfile.multi(n, list(outs)))

    return st.integers(min_n, max_n).flatmap(build)


# ---------------------------------------------------------------------------
# construction and validation


def test_single_constructor_round_trip():
    p = NominationProfile.single([1, 2, 0])
    assert p.n == 3
    assert p.model == SINGLE
    assert p.out == ((1,), (2,), (0,))


def test_out_sets_are_sorted_and_deduped():
    p = NominationProfile(4, MULTI, [(3, 1, 3), (), (1, 0), (0,)])
    assert p.out[0] == (1, 3)
    assert p.out[2] == (0, 1)


def test_self_loop_rejected():
    with pytest.raises(ModelViolation):
        NominationProfile.single([0, 0, 1])
    with pytest.raises(ModelViolation):
        NominationProfile(3, MULTI, [(1, 0), (), ()])


def test_single_model_requires_out_degree_one():
    with pytest.raises(ModelViolation):
        NominationProfile(3, SINGLE, [(1, 2), (0,), (0,)])
    with pytest.raises(ModelViolation):
        NominationProfile(3, SINGLE, [(1,), (), (0,)])


def test_nominee_out_of_range():
    with pytest.raises(ModelViolation):
        NominationProfile.single([1, 3, 0])
    with pytest.raises(ModelViolation):
        NominationProfile(3, MULTI, [(-1,), (), ()])


def test_n_too_small_and_length_mismatch():
    with pytest.raises(ModelViolation):
        NominationProfile(1, SINGLE, [()])
    with pytest.raises(ModelViolation):
        NominationProfile(3, SINGLE, [(1,), (0,)])


def test_unknown_model_rejected():
    with pytest.raises(ModelViolation):
        NominationProfile(2, "plural", [(1,), (0,)])


def test_multi_accepts_mapping_with_abstainers():
    p = NominationProfile.multi(4, {0: [2, 1], 3: [0]})
    assert p.out == ((1, 2), (), (), (0,))


def test_from_edges_rejects_duplicates():
    with pytest.raises(ProfileFormatError):
        NominationProfile.from_edges(3, MULTI, [(0, 1), (0, 1)])


def test_equality_ignores_input_order():
    a = NominationProfile(3, MULTI, [(2, 1), (), (0,)])
    b = NominationProfile(3, MULTI, [(1, 2), (), (0,)])
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# degrees


def test_in_degrees_counts_nominations():
    p = NominationProfile.single([2, 2, 0])
    assert p.in_degrees == (1, 0, 2)
    assert p.delta == 2
    assert p.top_vertex == 2


def test_max_degree_breaks_ties_by_vertex_id():
    p = NominationProfile.single([1, 0])
    delta, argmax = p.max_degree()
    assert delta == 1
    assert argmax == (0, 1)
    assert p.top_vertex == 0


def test_edgeless_multi_profile():
    p = NominationProfile.multi(3, {})
    assert p.delta == 0
    assert p.edge_count == 0
    assert p.max_degree() == (0, (0, 1, 2))


def test_in_degree_from_subset():
    p = NominationProfile.single([2, 2, 0])
    assert p.in_degree(2) == 2
    assert p.in_degree(2, frm=[0]) == 1
    assert p.in_degree(2, frm=[0, 1]) == 2
    assert p.in_degree(0, frm=[1]) == 0


def test_in_degree_multiplicity():
    p = NominationProfile.single([2, 2, 0])
    assert p.in_degree(2, frm=[0, 0, 1]) == 3
    assert p.in_degree(2, frm={0: 3}) == 3


def test_in_degree_range_checks():
    p = NominationProfile.single([1, 0])
    with pytest.raises(ValueError):
        p.in_degree(2)
    with pytest.raises(ValueError):
        p.in_degree(0, frm=[5])


def test_edges_sorted():
    p = NominationProfile.multi(3, {2: [1, 0], 0: [2]})
    assert list(p.edges()) == [(0, 2), (2, 0), (2, 1)]
    assert p.edge_count == 3


# ---------------------------------------------------------------------------
# deviations


def test_apply_deviation_returns_new_profile():
    p = NominationProfile.single([1, 2, 0])
    q = p.apply_deviation(Deviation(0, (2,)))
    assert q.out[0] == (2,)
    assert p.out[0] == (1,)
    assert q.out[1:] == p.out[1:]


def test_deviation_normalizes_and_rejects_self_loop():
    d = Deviation(1, [3, 0, 3])
    assert d.new_out == (0, 3)
    with pytest.raises(ModelViolation):
        Deviation(1, [1])


def test_deviation_must_respect_model():
    p = NominationProfile.single([1, 2, 0])
    with pytest.raises(ModelViolation):
        p.apply_deviation(Deviation(0, ()))
    with pytest.raises(ModelViolation):
        p.apply_deviation(Deviation(0, (1, 2)))
    with pytest.raises(ValueError):
        p.apply_deviation(Deviation(7, (1,)))


@given(multi_profiles())
def test_deviation_round_trip(p):
    for u in range(p.n):
        swapped = p.apply_deviation(Deviation(u, ()))
        restored = swapped.apply_deviation(Deviation(u, p.out[u]))
        assert restored == p


# ---------------------------------------------------------------------------
# file format


def test_format_and_parse_round_trip():
    p = NominationProfile.multi(4, {0: [1, 3], 2: [0]})
    text = format_profile(p)
    assert text.endswith("\n")
    assert parse_profile(text) == p


def test_parse_skips_comments_and_blank_lines():
    text = "\n".join(
        [
            "impsel 1",
            "# a remark",
            "model single",
            "",
            "n 3",
            "0 1",
            "1 2",
            "# nominations may be interleaved with comments",
            "2 0",
        ]
    )
    p = parse_profile(text)
    assert p == NominationProfile.single([1, 2, 0])


def test_parse_rejects_bad_magic():
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile("impsel 2\nmodel single\nn 2\n0 1\n1 0\n")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize(
    "body",
    [
        "model plural\nn 2\n0 1\n1 0\n",
        "model single\nn x\n0 1\n1 0\n",
        "model single\nn 2\n0 1 junk\n1 0\n",
        "model single\nn 2\n0 1\n0 1\n1 0\n",
        "n 2\nmodel single\n0 1\n1 0\n",
    ],
)
def test_parse_rejects_malformed_input(body):
    with pytest.raises(ProfileFormatError):
        parse_profile("impsel 1\n" + body)


def test_parse_propagates_model_errors():
    # structurally fine, semantically out of range
    with pytest.raises(ModelViolation):
        parse_profile("impsel 1\nmodel single\nn 2\n0 2\n1 0\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile("impsel 1\nmodel single\nn 3\n0 1\n1 zap\n2 0\n")
    assert "line 5" in str(exc.value)


def _declares_no_vertex_count(text):
    """True unless some line of ``text`` reads as an 'n <count>' line; only the
    strategy below declares n, so every declared n stays small."""
    return all(line.split()[:1] != ["n"] for line in text.splitlines())


def _line(valid):
    """Mostly ``valid``, sometimes short arbitrary text."""
    junk = st.text(max_size=12).filter(_declares_no_vertex_count)
    return st.tuples(valid, junk, st.sampled_from(range(4))).map(lambda t: t[1] if t[2] == 3 else t[0])


_profile_texts = _line(
    st.tuples(
        _line(st.just("impsel 1")),
        _line(st.sampled_from(["model single", "model multi"])),
        _line(st.integers(-2, 64).map(lambda n: f"n {n}")),
        st.lists(_line(st.tuples(st.integers(-1, 65), st.integers(-1, 65)).map("{0[0]} {0[1]}".format))),
    ).map(lambda t: "\n".join([*t[:3], *t[3]]))
)


@given(_profile_texts)
@settings(max_examples=200)
def test_parse_fuzz_raises_only_format_or_model_errors(text):
    try:
        parse_profile(text)
    except (ProfileFormatError, ModelViolation):
        pass


def test_save_and_load(tmp_path):
    p = NominationProfile.single([3, 0, 0, 1])
    path = tmp_path / "profile.txt"
    save_profile(p, path)
    assert load_profile(path) == p


@given(single_profiles())
@settings(max_examples=60)
def test_text_round_trip_single(p):
    assert parse_profile(format_profile(p)) == p


@given(multi_profiles())
@settings(max_examples=60)
def test_text_round_trip_multi(p):
    assert parse_profile(format_profile(p)) == p


@given(multi_profiles())
def test_degree_totals_match_edge_count(p):
    assert sum(p.in_degrees) == p.edge_count


@given(multi_profiles(), st.data())
def test_degree_partition_is_additive(p, data):
    subset = data.draw(st.sets(st.integers(0, p.n - 1)))
    rest = [v for v in range(p.n) if v not in subset]
    for u in range(p.n):
        assert p.in_degree(u) == p.in_degree(u, frm=subset) + p.in_degree(u, frm=rest)
