"""Profile construction, model rules, degree queries, deviations, and the file format."""

import contextlib
import io
import json
import tracemalloc
from collections import Counter
from itertools import chain, islice

import pytest
from hypothesis import given, settings, strategies as st

from impsel import (
    MechanismSpec,
    TrialPlan,
    WinnerDistribution,
    check_impartial,
    core,
    estimate,
    exact_distribution,
    fixed_sample_winner,
    gen_random_multi,
    gen_random_single,
    gen_single_worst,
    majority_default_winner,
    parse_mechanism,
    rks_gap_lower_bound,
    sks_gap_upper_bound,
)
from impsel.core import (
    MODELS,
    MULTI,
    SINGLE,
    ModelViolation,
    NominationProfile,
    ProfileFormatError,
    _normalize_out,
    checked_int,
    format_profile,
    load_profile,
    out_degrees,
    parse_profile,
    write_profile,
)
from impsel.verify import iter_profiles, named_oracle


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
    with pytest.raises(ModelViolation, match="^vertex 0: self-loop is not allowed$"):
        NominationProfile.single([0, 0, 1])
    with pytest.raises(ModelViolation, match="^vertex 1: self-loop is not allowed$"):
        NominationProfile(3, MULTI, [(2,), (1, 0), ()])


def test_single_model_requires_out_degree_one():
    with pytest.raises(ModelViolation, match="^vertex 0: single model requires out-degree exactly 1, got 2$"):
        NominationProfile(3, SINGLE, [(1, 2), (0,), (0,)])
    with pytest.raises(ModelViolation, match="^vertex 1: single model requires out-degree exactly 1, got 0$"):
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


def test_out_degrees_per_model():
    assert MODELS == (SINGLE, MULTI)
    assert out_degrees(SINGLE, 5) == range(1, 2)
    assert out_degrees(MULTI, 5) == range(5)
    with pytest.raises(ModelViolation, match="^unknown model 'plural'$"):
        out_degrees("plural", 5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: NominationProfile.single([1.5, 0]),
        lambda: NominationProfile.single([True, 0]),
        lambda: NominationProfile.multi(3, ["12"]),
        lambda: NominationProfile.multi(3, [(1.0,)]),
        # True equals 1, so a set would quietly fold it into the int nominee
        lambda: NominationProfile(3, MULTI, [(1, True), (), ()]),
        lambda: NominationProfile(3.0, SINGLE, [(1,), (2,), (0,)]),
        # the vertex count is checked before multi pads the rows to it
        lambda: NominationProfile.multi(3.0, [(1,), (0,), (0,)]),
        lambda: NominationProfile.multi(3.0, {0: [1]}),
        lambda: NominationProfile(True, MULTI, [()]),
        lambda: NominationProfile("3", MULTI, [(), (), ()]),
    ],
)
def test_non_int_ids_are_rejected(build):
    with pytest.raises(ModelViolation, match="is not an int$"):
        build()


@pytest.mark.parametrize(
    ("value", "least", "most", "message"),
    [
        (True, 0, None, "count True is not an int"),
        (False, 0, None, "count False is not an int"),
        (1.0, 0, None, "count 1.0 is not an int"),
        ("1", 0, None, "count '1' is not an int"),
        (None, 0, None, "count None is not an int"),
        (True, 0, 5, "count True is not an int"),
        (-1, 0, None, "count must be non-negative, got -1"),
        (1, 2, None, "count must be at least 2, got 1"),
        (1, 2, 5, "count 1 out of range 2..5"),
        (6, 2, 5, "count 6 out of range 2..5"),
        (-1, 0, -1, "count -1 out of range 0..-1"),
        (0, 0, None, None),
        (10**30, 2, None, None),
        (2, 2, 5, None),
        (5, 2, 5, None),
        # no lower end: any int, however negative; still no bool or float
        (-(2**70), None, None, None),
        (1.5, None, None, "count 1.5 is not an int"),
        (True, None, None, "count True is not an int"),
    ],
)
def test_checked_int(value, least, most, message):
    if message is None:
        assert checked_int(value, "count", least, most) is value
        return
    for error in (ValueError, ModelViolation):
        with pytest.raises(error) as caught:
            checked_int(value, "count", least, most, error)
        assert type(caught.value) is error
        assert str(caught.value) == message


_TRIANGLE = NominationProfile.single([1, 2, 0])


@pytest.mark.parametrize(
    ("probe", "error", "message"),
    [
        (lambda: majority_default_winner(_TRIANGLE, True), ValueError, "default vertex True is not an int"),
        (lambda: gen_single_worst(4, True), ValueError, "in-degree target True is not an int"),
        (lambda: TrialPlan(True, 0), ValueError, "trials True is not an int"),
        (lambda: rks_gap_lower_bound(5, 2.5), ValueError, "sample size 2.5 is not an int"),
        (lambda: fixed_sample_winner(_TRIANGLE, [0.0]), ValueError, "fixed sample vertex 0.0 is not an int"),
        (lambda: gen_single_worst(4, 2.0), ValueError, "in-degree target 2.0 is not an int"),
        (lambda: check_impartial(MechanismSpec.random_k(2), 3.0, SINGLE), ValueError, "vertex count 3.0 is not an int"),
        (
            lambda: exact_distribution(MechanismSpec.random_k(2), _TRIANGLE, budget=1e7),
            ValueError,
            "budget 10000000.0 is not an int",
        ),
        # the vertex count is checked before the model
        (lambda: NominationProfile(1, "bogus", ()), ModelViolation, "vertex count must be at least 2, got 1"),
        (lambda: TrialPlan(3, 1.5), ValueError, "seed 1.5 is not an int"),
        (lambda: TrialPlan(3, True), ValueError, "seed True is not an int"),
        (lambda: gen_random_single(4, 1.5), ValueError, "seed 1.5 is not an int"),
        (lambda: gen_random_multi(4, 0.5, "1"), ValueError, "seed '1' is not an int"),
        (lambda: WinnerDistribution(2.5, {0: 1}, 0), ValueError, "vertex count 2.5 is not an int"),
    ],
    ids=[
        "majority-default-bool",
        "single-worst-bool",
        "trial-plan-bool",
        "rks-bound-float",
        "fixed-sample-float",
        "single-worst-float",
        "check-impartial-float",
        "exact-budget-float",
        "profile-n-before-model",
        "trial-plan-seed-float",
        "trial-plan-seed-bool",
        "random-single-seed-float",
        "random-multi-seed-str",
        "distribution-n-float",
    ],
)
def test_integer_inputs_are_checked_at_every_entry(probe, error, message):
    with pytest.raises(error) as caught:
        probe()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_negative_and_huge_seeds_are_masked_to_64_bits():
    assert gen_random_single(6, -1) == gen_random_single(6, 2**64 - 1)
    assert gen_random_multi(5, 0.5, 2**64 + 3) == gen_random_multi(5, 0.5, 3)
    assert TrialPlan(1, -(2**80)).master_seed == -(2**80)


@pytest.mark.parametrize(
    ("probe", "message"),
    [
        (lambda: gen_random_multi(4, "x", 1), "edge probability 'x' out of range [0, 1]"),
        (lambda: gen_random_multi(4, 1.5, 1), "edge probability 1.5 out of range [0, 1]"),
        *[(lambda k=k: sks_gap_upper_bound(4, k), f"sample size must be at least 1, got {k}")
          for k in ("x", 0.5, True, float("nan"))],
    ],
    ids=["p-str", "p-range", "sks-k-str", "sks-k-range", "sks-k-bool", "sks-k-nan"],
)
def test_real_valued_inputs_raise_value_error(probe, message):
    with pytest.raises(ValueError) as caught:
        probe()
    assert str(caught.value) == message


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


def test_plurality_breaks_ties_by_vertex_id():
    plurality = named_oracle("plurality")
    assert plurality(NominationProfile.single([1, 0])) == 0
    assert plurality(NominationProfile.single([2, 2, 0])) == 2
    assert plurality(NominationProfile.multi(4, {0: [2, 3], 1: [3], 3: [2]})) == 2
    assert plurality(NominationProfile.multi(3, {})) == 0


def test_edgeless_multi_profile():
    p = NominationProfile.multi(3, {})
    assert p.delta == 0
    assert p.edge_count == 0
    assert p.in_degrees == (0, 0, 0)


def test_edges_sorted():
    p = NominationProfile.multi(3, {2: [1, 0], 0: [2]})
    assert list(p.edges()) == [(0, 2), (2, 0), (2, 1)]
    assert p.edge_count == 3


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


def test_parse_rejects_duplicate_edge_with_its_line():
    with pytest.raises(ProfileFormatError, match="^line 6: duplicate edge 0 -> 1$"):
        parse_profile("impsel 1\nmodel multi\nn 3\n0 1\n0 2\n0 1\n")
    # a duplicate anywhere is reported before an out-of-range source
    with pytest.raises(ProfileFormatError, match="^line 6: duplicate edge 1 -> 0$"):
        parse_profile("impsel 1\nmodel multi\nn 3\n7 0\n1 0\n1 0\n")
    with pytest.raises(ModelViolation, match="^edge source 7 out of range 0..2$"):
        parse_profile("impsel 1\nmodel multi\nn 3\n1 0\n7 0\n9 0\n")


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


def _two_pass_parse(text):
    """Reference parse in two passes: every line is checked and collected into
    an edge list first, and only then are the edges' sources checked, in file
    order, while the rows are built."""
    content = ((no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1))
    lines = iter([(no, line) for no, line in content if line and not line.startswith("#")])

    def next_line(what):
        for item in lines:
            return item
        raise ProfileFormatError(f"unexpected end of input, expected {what}")

    no, magic = next_line("magic line")
    if magic != "impsel 1":
        raise ProfileFormatError(f"line {no}: expected 'impsel 1', got {magic!r}")
    no, line = next_line("model line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "model":
        raise ProfileFormatError(f"line {no}: expected 'model single|multi'")
    if parts[1] not in MODELS:
        raise ProfileFormatError(f"line {no}: unknown model {parts[1]!r}")
    model = parts[1]
    no, line = next_line("vertex count line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ProfileFormatError(f"line {no}: expected 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise ProfileFormatError(f"line {no}: vertex count {parts[1]!r} is not an integer") from None
    edges = []
    for no, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ProfileFormatError(f"line {no}: expected '<from> <to>', got {line!r}")
        try:
            edge = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ProfileFormatError(f"line {no}: edge endpoints must be integers") from None
        if edge in edges:
            raise ProfileFormatError(f"line {no}: duplicate edge {edge[0]} -> {edge[1]}")
        edges.append(edge)
    rows = [[] for _ in range(n)]
    for u, v in edges:
        if not 0 <= u < n:
            raise ModelViolation(f"edge source {u} out of range 0..{n - 1}")
        rows[u].append(v)
    return NominationProfile(n, model, tuple(map(tuple, rows)))


@st.composite
def _faulty_profile_texts(draw):
    """A valid profile's text, reordered, with a few faults that may occur
    together: duplicates, out-of-range sources and targets, junk lines, a
    dropped line and a wrong vertex count."""
    p = draw(st.one_of(single_profiles(2, 5), multi_profiles(2, 4)))
    n = p.n + draw(st.sampled_from([0, 0, 0, -1, 1, -p.n]))
    lines = list(draw(st.permutations([f"{u} {v}" for u, v in p.edges()])))
    pair = "{0[0]} {0[1]}".format
    faults = st.one_of(
        st.sampled_from(lines or ["0 1"]),
        st.tuples(st.sampled_from([-1, n, n + 3]), st.integers(-1, n)).map(pair),
        st.tuples(st.integers(-1, n), st.sampled_from([-1, n])).map(pair),
        st.sampled_from(["0 x", "1 2 3", "# note", "", "zap"]),
    )
    for fault in draw(st.lists(faults, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    if lines and draw(st.integers(0, 4)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(["impsel 1", f"model {p.model}", f"n {n}", *lines]) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except (ProfileFormatError, ModelViolation) as exc:
        return type(exc), str(exc)


@given(st.one_of(_faulty_profile_texts(), _profile_texts))
@settings(max_examples=400)
def test_parse_matches_the_two_pass_reference(text):
    assert _outcome(parse_profile, text) == _outcome(_two_pass_parse, text)


def test_save_and_load(tmp_path):
    p = NominationProfile.single([3, 0, 0, 1])
    path = tmp_path / "profile.txt"
    path.write_text(format_profile(p), encoding="utf-8")
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


# ---------------------------------------------------------------------------
# the bulk paths: canonical files and the row check

# (characters per read piece, lines per written block): the module's own, one line each, tiny
_PIECE_SIZES = [(core._PIECE, core._LINES), (1, 1), (7, 3)]


@contextlib.contextmanager
def _pieces(piece, lines):
    """Profile text read in pieces of ``piece`` characters and written in blocks of ``lines`` lines."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_PIECE", piece)
        patch.setattr(core, "_LINES", lines)
        yield


def _format_edges(n, model, edges):
    """A profile text in ``format_profile``'s shape: header, then "u v" lines."""
    return f"impsel 1\nmodel {model}\nn {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# faults on the edge set that keep the canonical shape (the edges are sorted again)
_EDGE_FAULTS = ("self-loop", "target-n", "source-n", "drop-source", "n-small", "n-large")
# faults on the text that leave the canonical shape (the line reader takes them)
_TEXT_FAULTS = ("leading-zero", "no-final-newline", "cr-in-header", "crlf", "long-token", "unsorted", "repeated")


@st.composite
def _canonical_texts(draw):
    """``format_profile(p)`` of a single or multi profile, with faults that keep
    its canonical shape and, sometimes, one that leaves it."""
    p = draw(st.one_of(single_profiles(2, 6), multi_profiles(2, 5)))
    n, edges = p.n, set(p.edges())
    for fault in draw(st.lists(st.sampled_from(_EDGE_FAULTS), max_size=3)):
        u = draw(st.integers(0, p.n - 1))
        if fault == "self-loop":
            edges.add((u, u))
        elif fault == "target-n":
            edges.add((u, draw(st.sampled_from([n, n + 1, 10**6]))))
        elif fault == "source-n":
            edges.add((draw(st.sampled_from([n, n + 2, 10**6])), u))
        elif fault == "drop-source":
            edges = {e for e in edges if e[0] != u}
        else:
            n = draw(st.sampled_from([1, max(1, n - 1)])) if fault == "n-small" else n + draw(st.integers(1, 3))
    if p.model == SINGLE and draw(st.booleans()):
        # a single file may name two targets for one source, or none
        edges = {e for e in edges if draw(st.integers(0, 5))}
    text = _format_edges(n, p.model, sorted(edges))
    lines = text.splitlines(keepends=True)
    fault = draw(st.sampled_from((None,) * 4 + _TEXT_FAULTS))
    at = draw(st.integers(3, max(3, len(lines) - 1)))
    if fault == "leading-zero" and len(lines) > 3:
        lines[at] = "0" + lines[at]
    elif fault == "no-final-newline":
        lines[-1] = lines[-1][:-1]
    elif fault == "cr-in-header":
        at = draw(st.integers(0, 2))
        lines[at] = lines[at][:-1] + "\r\n"
    elif fault == "crlf":
        lines = [line[:-1] + "\r\n" for line in lines]
    elif fault == "long-token" and len(lines) > 3:
        lines[at] = lines[at].split()[0] + " 1" + "0" * 4300 + "\n"
    elif fault == "unsorted" and len(lines) > 4:
        lines[3], lines[-1] = lines[-1], lines[3]
    elif fault == "repeated" and len(lines) > 3:
        lines.insert(at, lines[at])
    return "".join(lines)


@given(_canonical_texts(), st.sampled_from(_PIECE_SIZES))
@settings(max_examples=500)
def test_canonical_texts_match_the_two_pass_reference(text, sizes):
    with _pieces(*sizes):
        assert _outcome(parse_profile, text) == _outcome(_two_pass_parse, text)


@st.composite
def _respellings(draw):
    """A single or multi profile and its text respelled: comment and blank lines, CRLF or CR
    line ends, tabs, leading zeros, and sometimes its edge lines permuted."""
    p = draw(st.one_of(single_profiles(2, 7), multi_profiles(2, 5)))
    lines = format_profile(p).splitlines()
    edges = draw(st.permutations(lines[3:])) if draw(st.booleans()) else lines[3:]
    spaces = st.sampled_from(["", " ", "\t", " \t "])
    text = []
    for no, line in enumerate([*lines[:3], *edges]):
        text += draw(st.lists(st.sampled_from(["", "# note", "  # 1 2", "\t"]), max_size=2))
        if no:  # the magic line has one spelling, but for the spaces around it
            words = [word if word.isalpha() else "0" * draw(st.integers(0, 2)) + word for word in line.split()]
            line = draw(st.sampled_from([" ", "\t", " \t "])).join(words)
        text.append(draw(spaces) + line + draw(spaces))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    in_order = p.model == SINGLE and [int(e.split()[0]) for e in edges] == [*range(p.n)]
    return p, end.join(text) + draw(st.sampled_from(["", end])), in_order


@given(_respellings())
@settings(max_examples=300)
def test_every_respelling_parses_to_the_profile(case):
    """Any valid spelling reads as the profile; a single-model text whose sources are
    0..n-1 in order keeps the flat store, and every other text builds rows."""
    p, text, in_order = case
    for sizes in _PIECE_SIZES:
        with _pieces(*sizes):
            parsed = parse_profile(text)
        assert ("out" not in vars(parsed)) == in_order, sizes
        assert parsed == p, sizes


def _flat_if_in_order(parsed, text):
    """A single profile parsed from ``text`` keeps the flat store exactly when the text's
    edge sources are 0..n-1 in order; a multi profile always has rows."""
    if isinstance(parsed, NominationProfile):
        content = [line.split() for line in text.splitlines() if line.strip() and line.strip()[0] != "#"]
        in_order = parsed.model == SINGLE and [int(u) for u, _ in content[3:]] == [*range(parsed.n)]
        assert ("out" not in vars(parsed)) == in_order, text


def test_every_spelling_of_a_text_reads_as_the_reference():
    p = NominationProfile.multi(4, [(1, 3), (), (0, 1, 3)])
    text = format_profile(p)
    nominees = [*range(1, 12), 0]
    single = format_profile(NominationProfile.single(nominees))
    for sizes in _PIECE_SIZES:
        with _pieces(*sizes):
            assert parse_profile(text) == p
            assert "out" not in vars(parse_profile(single))
            assert parse_profile(single).single_nominees == tuple(nominees)
            # a single-model text whose sources are not 0..n-1 in order names its fault like the reference
            missing = single.replace("1 2\n", "")
            assert _outcome(parse_profile, missing) == _outcome(_two_pass_parse, missing)
            for other in (
                text.replace("\n0 1\n", "\n00 1\n"),
                text[:-1],
                text.replace("\n", "\r\n"),
                text.replace("model multi\n", "model multi\r\n"),
                text.replace("\n", "\n# note\n", 1),
                text.replace("2 3\n", "2 3\n2 3\n"),
                text.replace("0 1\n0 3\n", "0 3\n0 1\n"),
                text.replace("0 1\n", "0\t1\n"),
                text.replace("2 3\n", "2 1" + "0" * 4300 + "\n"),
                text.replace("2 3\n", "4 3\n"),
                text.replace("n 4\n", "n 04\n"),
                # faults past the first piece when pieces are small
                text.replace("2 3\n", "2 03\n"),
                text.replace("2 1\n2 3\n", "2 3\n2 1\n"),
                text.replace("2 1\n", "# note\n2 1\n"),
                single[:-1],
                single.replace("11 0\n", "11 00\n"),
                single.replace("10 11\n", "10 11\n10 11\n"),
                single.replace("9 10\n10 11\n", "10 11\n9 10\n"),
                single.replace("10 11\n", "10 11\n# note\n"),
                single.replace("11 0\n", "12 0\n"),
                single + "12 0\n",
                # a last line of one number, with no newline after it
                text + "22",
            ):
                assert _outcome(parse_profile, other) == _outcome(_two_pass_parse, other), (sizes, other)
                _flat_if_in_order(_outcome(parse_profile, other), other)


_NOMINEES = st.one_of(st.integers(-2, 7), st.booleans(), st.sampled_from([0.0, 1.0, 2.5]))
_CONTAINERS = {"list": list, "tuple": tuple, "set": set, "generator": lambda row: (v for v in row)}


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from(MODELS),
            st.lists(
                st.tuples(st.sampled_from(sorted(_CONTAINERS)), st.lists(_NOMINEES, max_size=4)), min_size=n, max_size=n
            ),
        )
    )
)
@settings(max_examples=500)
def test_constructor_matches_the_row_check_row_by_row(case):
    """``NominationProfile`` accepts and refuses exactly what ``_normalize_out``
    row by row does, with the same rows and the same message."""
    n, model, spec = case

    def rows():
        return [_CONTAINERS[kind](row) for kind, row in spec]

    def per_row():
        return tuple(_normalize_out(u, row, n, out_degrees(model, n)) for u, row in enumerate(rows()))

    def outcome(build):
        try:
            return build()
        except ModelViolation as exc:
            return str(exc)

    assert outcome(lambda: NominationProfile(n, model, rows()).out) == outcome(per_row)


@st.composite
def _one_nominee_replaced(draw):
    """A valid profile's nominee list, n = 2..6, with one entry drawn from ``_NOMINEES``."""
    nominees = [*draw(single_profiles(2, 6)).single_nominees]
    nominees[draw(st.integers(0, len(nominees) - 1))] = draw(_NOMINEES)
    return nominees


@given(st.one_of(st.lists(_NOMINEES, max_size=6), _one_nominee_replaced()))
@settings(max_examples=500)
def test_flat_single_check_matches_the_row_check(nominees):
    """``NominationProfile.single`` checks the flat nominee list and keeps it without
    the row check; it accepts and refuses exactly what the row check does, message and all."""

    def outcome(build):
        try:
            p = build()
        except ModelViolation as exc:
            return str(exc)
        return p.n, p.model, p.out

    reference = outcome(lambda: NominationProfile(len(nominees), SINGLE, tuple(zip(nominees))))
    assert outcome(lambda: NominationProfile.single(nominees)) == reference


@pytest.mark.parametrize(
    ("body", "message"),
    [("0 1\n1 1\n2 0\n", "vertex 1: self-loop is not allowed"),
     ("0 1\n1 3\n2 0\n", "vertex 1: nominee 3 out of range 0..2")],
)
def test_canonical_single_faults_match_the_two_pass_reference(body, message):
    text = f"impsel 1\nmodel single\nn 3\n{body}"  # sources in order: checked on the flat list
    assert _outcome(parse_profile, text) == _outcome(_two_pass_parse, text) == (ModelViolation, message)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("comment", ["", "# note\n"])  # a piece read in bulk, or line by line
@pytest.mark.parametrize("vertex", [2**63, 2**64, -1, -(2**63) - 1])
def test_ids_past_64_bits_or_negative_keep_their_messages(model, comment, vertex):
    """An edge id that no ``array("q")`` holds, or a negative one, is refused with the
    message of the row check or of the source check, in either model and on either path."""
    for body, message in (
        (f"0 1\n1 {vertex}\n2 0\n", f"vertex 1: nominee {vertex} out of range 0..2"),
        (f"0 1\n{vertex} 2\n2 0\n", f"edge source {vertex} out of range 0..2"),
    ):
        text = f"impsel 1\nmodel {model}\nn 3\n{comment}{body}"
        assert _outcome(parse_profile, text) == _outcome(_two_pass_parse, text) == (ModelViolation, message)


_FORMAT_CASES = [
    NominationProfile.single([1, 0]),
    NominationProfile.multi(2),
    NominationProfile.multi(2, [(1,)]),
    NominationProfile.multi(6),
    NominationProfile.multi(6, [(), (0, 5), (), (1, 2, 4)]),
    gen_random_single(1200, 3),
    gen_random_multi(40, 0.2, 3),
]


@pytest.mark.parametrize("p", _FORMAT_CASES, ids=lambda p: f"{p.model}-n{p.n}-m{p.edge_count}")
def test_format_matches_the_per_edge_reference(p):
    reference = _format_edges(p.n, p.model, p.edges())
    for sizes in _PIECE_SIZES:
        with _pieces(*sizes):
            written = io.StringIO()
            write_profile(p, written)
            assert format_profile(p) == written.getvalue() == reference, sizes


def test_text_in_pieces_keeps_memory_near_the_text_size():
    """Formatting and parsing a 150,000-vertex profile cost about one more copy of its
    text, not whole-file temporaries several times its size; so does parsing it with a
    leading comment, CRLF or CR line ends, which keeps the flat store too: at most 10
    bytes per vertex, the 8-byte nominee array and the profile around it."""
    p = gen_single_worst(150_000, 400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = format_profile(p)
        format_peak = tracemalloc.get_traced_memory()[1] - before
        parses = []
        for spelling in (text, "# c\n" + text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            parsed = parse_profile(spelling)
            parses.append((parsed, *(traced - before for traced in tracemalloc.get_traced_memory())))
    finally:
        tracemalloc.stop()
    assert format_peak <= 2.5 * len(text)
    for parsed, kept, parse_peak in parses:
        assert "out" not in vars(parsed) and parsed.single_nominees == p.single_nominees
        assert parse_peak - kept <= 1.5 * len(text)
        assert kept <= 10 * p.n


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_plain_edge_lines_are_read_in_bulk_whatever_their_line_ends(end):
    """Every piece of plain ``<from> <to>`` lines goes to one ``json.loads``, with
    CRLF or CR line ends as with ``\n``, so no spelling falls back to the line reader."""
    p = gen_random_single(3000, 5)
    loads, bulk = json.loads, []
    with _pieces(1 << 10, core._LINES), pytest.MonkeyPatch.context() as patch:
        patch.setattr(core.json, "loads", lambda s: bulk.append(len(ends := loads(s))) or ends)
        parsed = parse_profile(format_profile(p).replace("\n", end))
    assert "out" not in vars(parsed) and parsed == p
    assert len(bulk) > 1 and sum(bulk) == 2 * p.n  # every edge, in more than one piece


@given(st.one_of(single_profiles(2, 7), multi_profiles(2, 6)))
def test_format_fuzz_matches_the_per_edge_reference(p):
    assert format_profile(p) == _format_edges(p.n, p.model, p.edges())


# ---------------------------------------------------------------------------
# the flat store of the single model


@st.composite
def _single_builds(draw):
    """One single profile, n = 2..5, built from rows through the checked constructor,
    through ``single``, by ``parse_profile`` of its text and of that text commented and
    permuted, and as the unchecked rows ``verify.iter_profiles`` yields."""
    n = draw(st.integers(2, 5))
    enumerated = next(islice(iter_profiles(n, SINGLE), draw(st.integers(0, (n - 1) ** n - 1)), None))
    nominees = enumerated.single_nominees
    canonical = format_profile(NominationProfile.single(nominees))
    lines = draw(st.permutations(canonical.splitlines()[3:]))
    respelled = "\n".join(["# a comment", *canonical.splitlines()[:3], *lines])
    builds = [
        NominationProfile(n, SINGLE, tuple(zip(nominees))),
        NominationProfile.single(list(nominees)),
        parse_profile(canonical),
        parse_profile(respelled),
        enumerated,
    ]
    assert "out" not in vars(builds[2])
    _flat_if_in_order(builds[3], respelled)
    return builds


@given(_single_builds())
@settings(max_examples=200)
def test_every_build_of_a_single_profile_is_the_same_value(builds):
    reference = builds[0]
    for p in builds:
        assert [p.row(u) for u in range(p.n)] == list(reference.out)  # before any reads ``out``
        assert (p.in_degrees, p.edge_count, format_profile(p)) == (
            reference.in_degrees, reference.edge_count, format_profile(reference))
        assert p == reference and hash(p) == hash(reference)
        assert p.out == reference.out and p.single_nominees == reference.single_nominees


def _read_back(p):
    q = parse_profile(format_profile(p))
    assert "out" not in vars(q)
    return q


def test_a_single_profile_read_from_text_builds_no_rows():
    p = _read_back(gen_random_single(10_000, 11))
    reads = (p.in_degrees, p.delta, format_profile(p), p.edge_count, p.row(7))
    assert exact_distribution(parse_mechanism("majority-default:0"), p).n == p.n
    assert "out" not in vars(p)
    # the flat reads agree with what the rows give once they are built
    degrees = Counter(chain.from_iterable(p.out))
    from_rows = (tuple(map(degrees.__getitem__, range(p.n))), max(degrees.values()),
                 _format_edges(p.n, p.model, p.edges()), sum(map(len, p.out)), p.out[7])
    assert reads == from_rows


def test_random_k_reads_a_flat_profile_without_rows():
    """A Monte Carlo random-k run reads a flat profile's nominations from its nominee
    tuple, builds no rows, and reports what it reports on the same profile's rows."""
    p, spec, plan = _read_back(gen_random_single(10_000, 11)), parse_mechanism("random-k:auto"), TrialPlan(200, 3)
    report = estimate(spec, p, plan)
    assert "out" not in vars(p)
    assert report == estimate(spec, NominationProfile(p.n, SINGLE, p.out), plan)


def test_simple_k_reads_a_flat_profile_without_rows():
    """A Monte Carlo simple-k run scores a flat profile's draws from its nominee tuple,
    builds no rows, and reports what it reports on the same profile's rows."""
    p, spec, plan = _read_back(gen_random_single(10_000, 11)), parse_mechanism("simple-k:auto"), TrialPlan(20, 3)
    report = estimate(spec, p, plan)
    assert "out" not in vars(p)
    assert report == estimate(spec, NominationProfile(p.n, SINGLE, p.out), plan)


def test_majority_default_reads_one_row_of_a_flat_profile():
    """A vertex past the threshold makes the rule ask the default's nominee, not every row."""
    p = _read_back(gen_single_worst(10_000, 6_000))
    assert majority_default_winner(p, 1) == 0 and majority_default_winner(p, 0) == 0
    assert exact_distribution(parse_mechanism("majority-default:1"), p).p == {0: 1}
    assert "out" not in vars(p)
    assert p.out[1] == (0,)  # so the rule left the default's vote for 0 out
