"""Winner rules against brute-force references, over every small profile.

The references follow the definitions in the ``impsel.mechanisms``
docstring word for word and share no code with the rules under test.
Each sample is also fed alone to the bitmask kernel
``impsel.exact.winner_weights``, as a block of one profile, whose one unit of
weight must land on the same winner.  The kernel's blocks are pinned, in turn,
to the per-profile kernel it replaced, kept here as ``reference_weights``, and
so are its walks over many blocks, in any order.  Beyond the small profiles, a
hypothesis strategy plants cycles and cliques in profiles of up to 60 vertices.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from impsel.core import MULTI, SINGLE, NominationProfile
from impsel.exact import sample_space, winner_weights
from impsel.mechanisms import _counted_winner, multiset_winner, nominated_winner
from impsel.verify import iter_profiles


def least_best(scores):
    """Best-scoring key, lowest id on ties, plus whether a tie was broken."""
    best = max(scores.values())
    top = [v for v in scores if scores[v] == best]
    return min(top), len(top) > 1


def reference_nominated(profile, sample):
    """Pool W = vertices outside S nominated from S; winner has the most
    nominations from outside W, ties to the lowest id; None if W is empty."""
    out = profile.out
    s = set(sample)
    pool = {v for u in s for v in out[u] if v not in s}
    if not pool:
        return frozenset(), None, False
    from_outside = Counter(v for u, row in enumerate(out) if u not in pool for v in row)
    winner, tie = least_best({v: from_outside[v] for v in pool})
    return frozenset(pool), winner, tie


def reference_multiset(profile, counts):
    """Candidates are the unsampled vertices, scored by the sample's
    nominations with multiplicity; None when every candidate scores zero."""
    n, out = profile.n, profile.out
    scores = {
        v: sum(m for u, m in counts.items() if v in out[u]) for v in range(n) if v not in counts
    }
    if not any(scores.values()):
        return None, False
    return least_best(scores)


def single_rows(n):
    """Each vertex's single-model out-rows."""
    return [[(v,) for v in range(n) if v != u] for u in range(n)]


def multi_rows(n):
    """Each vertex's multi-model out-rows, the empty one included."""
    return [[c for r in range(n) for c in combinations([v for v in range(n) if v != u], r)] for u in range(n)]


def single_profiles(n):
    for rows in product(*single_rows(n)):
        yield NominationProfile.single([v for (v,) in rows])


def multi_profiles(n):
    for out in product(*multi_rows(n)):
        yield NominationProfile.multi(n, list(out))


def multisets(n, largest):
    for size in range(largest + 1):
        yield from (Counter(c) for c in combinations_with_replacement(range(n), size))


def kernel_winner(kind, profile, counts):
    """The kernel's winner for one sample given as vertex -> multiplicity, in
    the one shape ``sample_space`` yields for both kinds."""
    members = tuple(sorted(counts))
    levels = tuple(sum(1 << u for u in members if counts[u] > j) for j in range(max(counts.values())))
    [[(weights, none_weight)]] = winner_weights(kind, [profile.out[:-1]], profile.out[-1:], [(members, levels, 1)])
    assert sum(weights) + none_weight == 1
    return None if none_weight else weights.index(1)


def check(profile, sample_multisets, seen):
    """Both rules and the kernel against the references; ``seen`` counts the
    cases among the non-empty samples, the only ones the kernel gets."""
    for counts in sample_multisets:
        pool, winner, tie = reference_nominated(profile, counts)
        assert nominated_winner(profile, list(counts.elements())) == (pool, winner), (profile, counts)
        if counts:
            assert kernel_winner("random_k_sample", profile, counts) == winner, (profile, counts)
            seen["pool tie" if tie else "pool none" if winner is None else "pool"] += 1
        winner, tie = reference_multiset(profile, counts)
        assert multiset_winner(profile, list(counts.elements())) == winner, (profile, counts)
        if counts:
            assert kernel_winner("simple_k_sample", profile, counts) == winner, (profile, counts)
            seen["score tie" if tie else "score none" if winner is None else "score"] += 1


def test_every_single_profile_up_to_four_vertices():
    seen = Counter()
    for n in (2, 3, 4):
        subsets = [Counter(c) for r in range(n + 1) for c in combinations(range(n), r)]
        for profile in single_profiles(n):
            check(profile, subsets + list(multisets(n, 3)), seen)
    assert set(seen) == {"pool", "pool tie", "pool none", "score", "score tie", "score none"}


def test_the_nomination_rule_reads_flat_and_row_profiles_alike():
    """``nominated_winner`` reads nominations through ``NominationProfile.nominee_set``,
    for the pool, and ``NominationProfile.nominees_of`` with ``within``, for the pool's
    nominations inside it: a flat profile's nominee tuple, or the rows of any other.  It
    reads ``sample`` twice, for the nominations and for the trim, so it takes any
    collection of draws but not a one-shot iterator.  On every single profile up to four
    vertices and every multi profile on three, and every sample, as a list with every
    draw repeated, as the sorted tuple ``exact._by_sequences`` passes and as the frozenset
    ``verify.sample_mechanism_oracle`` passes, the flat build (single only), the checked
    constructor and ``verify.iter_profiles``' unchecked rows give one pool and one
    winner, and each read equals its list form: the set read ``set(nominees_of(S))``,
    the filtered read ``nominees_of(S)`` kept in order where in W, for every W."""
    cases = [(n, SINGLE) for n in (2, 3, 4)] + [(3, MULTI)]
    for n, model in cases:
        subsets = [[*c] for r in range(n + 1) for c in combinations(range(n), r)]
        samples = subsets + [[*counts.elements()] for counts in multisets(n, 3)]
        for enumerated in iter_profiles(n, model):
            checked = NominationProfile(n, model, enumerated.out)
            profiles = [enumerated, checked]
            if model == SINGLE:
                flat = NominationProfile.single([v for (v,) in enumerated.out])
                profiles.append(flat)
            for sample in samples:
                pool, winner, _ = reference_nominated(checked, sample)
                for form in (sample + sample[::-1], tuple(sorted(sample)), frozenset(sample)):
                    for profile in profiles:
                        assert nominated_winner(profile, form) == (pool, winner), (profile, form)
                        listed = profile.nominees_of(form)
                        assert profile.nominee_set(form) == set(listed), (profile, form)
                        for within in map(set, subsets):
                            kept = [v for v in listed if v in within]
                            assert profile.nominees_of(form, within) == kept, (profile, form, within)
            if model == SINGLE:
                assert "out" not in vars(flat)


def test_the_score_rule_reads_flat_and_row_profiles_alike():
    """``multiset_winner`` reads nominations through ``NominationProfile.nominees_of``
    too: on every single profile up to four vertices and every multiset of at most
    three draws, in either order, the flat build, the checked constructor and
    ``verify.iter_profiles``' unchecked rows give one winner, and the flat build
    builds no rows."""
    for n in (2, 3, 4):
        samples = [[*counts.elements()] for counts in multisets(n, 3)]
        for enumerated in iter_profiles(n, SINGLE):
            flat = NominationProfile.single([v for (v,) in enumerated.out])
            checked = NominationProfile(n, SINGLE, enumerated.out)
            for draws in samples:
                winner, _ = reference_multiset(checked, Counter(draws))
                for profile in (flat, enumerated, checked):
                    assert multiset_winner(profile, draws) == winner, (profile, draws)
                    assert multiset_winner(profile, draws[::-1]) == winner, (profile, draws)
            assert "out" not in vars(flat)


def test_every_multi_profile_on_three_vertices():
    seen = Counter()
    profiles = list(multi_profiles(3))
    assert len(profiles) == 4**3
    assert any(p.edge_count == 0 for p in profiles)
    for profile in profiles:
        check(profile, multisets(3, 3), seen)
    assert set(seen) == {"pool", "pool tie", "pool none", "score", "score tie", "score none"}


@st.composite
def planted_samples(draw):
    """A single or multi profile on 5..60 vertices and up to 2n draws.  A group of
    undrawn vertices is planted as a cycle, or under the multi model a clique, and
    drawn vertices may aim their nominations into it, so the pool nominates itself
    and the group's members tie.  A multi vertex outside the group may abstain.
    Returns the model, the rows and the draws."""
    n = draw(st.integers(5, 60))
    model = draw(st.sampled_from([SINGLE, MULTI]))
    draws = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    group = [v for v in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=10)) if v not in draws]
    clique = model == MULTI and draw(st.booleans())
    others = st.integers(0, n - 2)
    rows = []
    for u in range(n):
        size = 1 if model == SINGLE else draw(st.integers(0, 4))
        picks = {j + (j >= u) for j in draw(st.lists(others, min_size=size, max_size=size))}
        if u in group and len(group) > 1:
            at = group.index(u)
            picks = set(group) - {u} if clique else {group[(at + 1) % len(group)]}
        elif u in draws and group and draw(st.booleans()):
            picks = {group[draw(st.integers(0, len(group) - 1))]}
        rows.append(tuple(sorted(picks)))
    return model, rows, draws


def build(model, rows):
    """A fresh profile, flat under the single model so no rows are built for the rules."""
    if model == SINGLE:
        return NominationProfile.single([v for (v,) in rows])
    return NominationProfile.multi(len(rows), rows)


@given(planted_samples())
@settings(max_examples=300, deadline=None)
def test_both_rules_match_the_references_on_planted_profiles_up_to_sixty_vertices(case):
    """Beyond the exhaustive small cases: vertex ids up to 59, so the order in
    which the rule walks its pool set is not ascending, and draws in order and reversed."""
    model, rows, draws = case
    reference = NominationProfile(len(rows), model, tuple(rows))
    pool, winner, _ = reference_nominated(reference, draws)
    best, _ = reference_multiset(reference, Counter(draws))
    for sample in (draws, draws[::-1]):
        profile = build(model, rows)
        assert nominated_winner(profile, sample) == (pool, winner)
        assert multiset_winner(profile, sample) == best
        assert _counted_winner(profile, sample) == best


@pytest.mark.parametrize("n", [255, 256, 257])
def test_the_score_rule_on_either_side_of_the_byte_lane_limit(n):
    """``multiset_winner`` sums byte lanes only on at most 256 vertices and fewer than
    256 draws, where no score passes the 255 a byte holds.  At n = 255, 256 and 257, with
    255 and 256 draws, it gives ``reference_multiset``'s winner on flat single profiles,
    their checked twins and multi profiles, one of which abstains everywhere.  On both
    stars every draw of a leaf nominates the undrawn centre 0, which then scores the
    number of draws and wins.  The flat profiles build no rows."""
    rng = random.Random(n)
    star = [(1,)] + [(0,)] * (n - 1)
    cases = [
        (SINGLE, star, True),
        (SINGLE, [((u + rng.randrange(1, n)) % n,) for u in range(n)], False),
        (MULTI, [()] * n, False),
        (MULTI, star[:1] + [(0, *rng.sample([v for v in range(1, n) if v != u], 3)) for u in range(1, n)], True),
        (MULTI, [[v for v in range(n) if v != u and rng.random() < 0.05] for u in range(n)], False),
    ]
    flats = []
    for k in (255, 256):
        leaves = [rng.randrange(1, n) for _ in range(k)]
        anywhere = [rng.randrange(n) for _ in range(k)]
        for model, rows, is_star in cases:
            reference, profile = NominationProfile(n, model, tuple(rows)), build(model, rows)
            flats += [profile] if model == SINGLE else []
            for draws in (leaves, anywhere):
                winner, _ = reference_multiset(reference, Counter(draws))
                if is_star and draws is leaves:
                    assert winner == 0
                for rule_input in (reference, profile):
                    assert multiset_winner(rule_input, draws) == winner, (n, k, model, rows[:3], draws)
    assert not [profile for profile in flats if "out" in vars(profile)]


def passes_in_order(case):
    """What the rules meet on one case, walked in the order they walk it: the pool
    in the order of the set of the draws' nominations, trimmed by the draws in place,
    and the counted nominations in draw order."""
    model, rows, draws = case
    reference = NominationProfile(len(rows), model, tuple(rows))
    out, degs = reference.out, reference.in_degrees
    expected, winner, _ = reference_nominated(reference, draws)
    pool = set(v for u in draws for v in out[u])
    pool.difference_update(draws)
    assert pool == expected
    met = set()
    if any(v in pool for u in pool for v in out[u]):
        met.add("pool nominates itself")
    top = -1
    for v in pool:
        if degs[v] < top:
            met.add("in-degree below the best")
        top = max(top, degs[v] - sum(v in out[u] for u in pool))
    tied = [v for v in pool if degs[v] - sum(v in out[u] for u in pool) == top]
    if len(tied) > 1 and tied[0] != winner:
        met.add("pool tie to a later id")
    score = Counter(v for u in draws for v in out[u] if v not in draws)
    tied = [v for v in score if score[v] == max(score.values())]
    if len(tied) > 1 and tied[0] != min(tied):
        met.add("score tie to a later id")
    return met


def test_the_planted_samples_reach_every_case_of_both_rules():
    """The strategy above reaches a pool that nominates itself, a candidate
    passed over on its in-degree, and ties that the walk meets highest id first;
    with no shrinking, as any example will do."""
    quick = settings(max_examples=2000, database=None, phases=[Phase.generate])
    cases = ("pool nominates itself", "in-degree below the best", "pool tie to a later id", "score tie to a later id")
    for case in cases:
        find(planted_samples(), lambda c: case in passes_in_order(c), settings=quick)


@pytest.mark.parametrize("kind", ["random_k_sample", "simple_k_sample"])
def test_sample_space_weights_count_draw_sequences(kind):
    """Every multiset of draws once, weighted by the draw sequences that give
    it, for both kinds; summed over what the kind's winner reads (random-k:
    the set of draws), the weights still count the sequences that give it."""
    reads = frozenset if kind == "random_k_sample" else tuple
    for n in (2, 3, 4):
        for k in (1, 2, 3, 4):
            sequences = list(product(range(n), repeat=k))
            got = Counter()
            for members, levels, weight in sample_space(n, k):
                assert members == tuple(sorted(set(members)))
                assert levels[0] == sum(1 << u for u in members)
                key = tuple(sorted(u for u in members for level in levels if level >> u & 1))
                assert key not in got
                got[key] = weight
            assert got == Counter(tuple(sorted(seq)) for seq in sequences), (n, k)
            by_read = Counter()
            for key, weight in got.items():
                by_read[reads(key)] += weight
            assert by_read == Counter(reads(sorted(seq)) for seq in sequences), (n, k)


def reference_weights(kind, rows, samples):
    """The kernel as it was before it took blocks: every mask built and every
    sample scored afresh for one profile, ``rows[u]`` u's out-row."""
    n = len(rows)
    out_mask = [0] * n
    in_mask = [0] * n
    for u, row in enumerate(rows):
        for v in row:
            out_mask[u] |= 1 << v
            in_mask[v] |= 1 << u
    degree = [mask.bit_count() for mask in in_mask]
    rks = kind == "random_k_sample"
    weights = [0] * n
    none_weight = 0
    for members, levels, weight in samples:
        pool = 0
        for u in members:
            pool |= out_mask[u]
        pool = (pool | levels[0]) ^ levels[0]
        if not pool:
            none_weight += weight
            continue
        if not pool & (pool - 1):
            weights[pool.bit_length() - 1] += weight
            continue
        best = -1
        rest = pool
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            if rks:
                score = degree[v] - (in_mask[v] & pool).bit_count()
            else:
                score = 0
                for level in levels:
                    score += (in_mask[v] & level).bit_count()
            if score >= best:
                best, winner = score, v
        weights[winner] += weight
    return weights, none_weight


def block_paths(kind, fixed_rows, last_choices, samples):
    """Which of the kernel's block paths each sample takes, read off the rows.
    Under random-k plus-one, "lifted" marks a block where some choice's nominee
    ties the best from one below with a lower id, so it wins."""
    last = len(fixed_rows)
    for members, _, _ in samples:
        pool = {v for u in members if u != last for v in fixed_rows[u]} - set(members)
        if last in members:
            yield "last drawn"
        elif len(pool) < 2:
            yield "common empty or lone pool"
        elif kind == "simple_k_sample":
            yield "simple-k lone nominator" if len(members) == 1 else "simple-k undrawn"
        elif last in pool:
            yield "random-k last in pool"
        else:
            outside = Counter(v for u, row in enumerate(fixed_rows) if u not in pool for v in row)
            best = max(outside[v] for v in pool)
            first = min(v for v in pool if outside[v] == best)
            lifted = any(v in pool and outside[v] == best - 1 and v < first for row in last_choices for v in row)
            yield "random-k plus-one, lifted" if lifted else "random-k plus-one"


@pytest.mark.parametrize("kind", ["random_k_sample", "simple_k_sample"])
def test_block_kernel_matches_the_per_profile_kernel(kind):
    """Every block of single n <= 5 and multi n <= 4, k = 1..3, and for random-k
    of single n = 6, k = 2, the first n at which a lifted nominee wins: the block
    kernel gives each choice of the last vertex the per-profile kernel's integers."""
    domains = [(single_rows, n, k) for n in range(2, 6) for k in (1, 2, 3)]
    domains += [(multi_rows, n, k) for n in range(2, 5) for k in (1, 2, 3)]
    if kind == "random_k_sample":
        domains.append((single_rows, 6, 2))
    seen = Counter()
    for rows_of, n, k in domains:
        *fixed_choices, last = rows_of(n)
        samples = list(sample_space(n, k))
        for fixed in product(*fixed_choices):
            [got] = winner_weights(kind, [fixed], last, samples)
            assert got == [reference_weights(kind, (*fixed, row), samples) for row in last], (n, k, fixed)
            seen.update(block_paths(kind, fixed, last, samples))
    common = {"last drawn", "common empty or lone pool"}
    if kind == "simple_k_sample":
        assert set(seen) == common | {"simple-k lone nominator", "simple-k undrawn"}
    else:
        assert set(seen) == common | {"random-k last in pool", "random-k plus-one", "random-k plus-one, lifted"}


@pytest.mark.parametrize("kind", ["random_k_sample", "simple_k_sample"])
def test_one_walk_gives_every_block_its_integers_in_any_order(kind):
    """One walk over every block of single n <= 5 and multi n <= 4, k = 1..3, in
    reverse product order, in a seeded shuffled order, and with one block given
    twice in a row: each block gets the per-profile kernel's integers whatever
    block came before it, so updating only the rows that changed leaves no stale mask."""
    domains = [(single_rows, n, k) for n in range(2, 6) for k in (1, 2, 3)]
    domains += [(multi_rows, n, k) for n in range(2, 5) for k in (1, 2, 3)]
    for rows_of, n, k in domains:
        *fixed_choices, last = rows_of(n)
        samples = list(sample_space(n, k))
        blocks = list(product(*fixed_choices))
        expected = {fixed: [reference_weights(kind, (*fixed, row), samples) for row in last] for fixed in blocks}
        middle = len(blocks) // 2
        shuffled = random.Random(10 * n + k).sample(blocks, len(blocks))
        for order in (blocks[::-1], shuffled, blocks[: middle + 1] + blocks[middle:]):
            assert list(winner_weights(kind, order, last, samples)) == [expected[fixed] for fixed in order], (n, k)
