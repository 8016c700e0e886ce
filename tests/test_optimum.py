"""The best deterministic impartial mechanism, exactly: on the single model at n = 3..5,
and on the multi model at n = 3.

A deterministic impartial mechanism is a table of 0/1 entries x_u(others): u wins
exactly when its entry at the other vertices' rows is 1.  u's own row cannot
move that entry, so every table is impartial by construction, and asking whether
some mechanism keeps every gap delta - deg(winner) at or below t is plain 0/1
feasibility: at most one winner per profile, and wherever delta > t a winner
whose in-degree reaches delta - t (no winner counts 0).  Unit propagation, and
branching on the unmet winner clause with the fewest open entries, decide it.

The single-model optima are 1, 2 and 2 at n = 3, 4 and 5, over every deterministic
impartial mechanism that may select no one.  ``fixed:0`` attains n - 2, so it is optimal
at n = 3 and 4; at n = 5 the optimum is below n - 2 = 3, the floor of every constant
sample (``test_every_constant_sample_has_the_strong_sample_floor``).  On the multi model,
where a row is any subset of the others, the optimum at n = 3 is 2 = n - 1: selecting no
one attains it, and no mechanism keeps every gap at 1.
"""

import itertools

import pytest

from impsel.core import MULTI, SINGLE
from impsel.verify import check_impartial, measure_additive_gap_exhaustive

OPTIMA = {3: 1, 4: 2, 5: 2}
MULTI_OPTIMA = {3: 2}
CASES = [pytest.param(SINGLE, n, t, id=f"{n}-{t}") for n, t in OPTIMA.items()] + [
    pytest.param(MULTI, n, t, id=f"multi-{n}-{t}") for n, t in MULTI_OPTIMA.items()
]


def rows_of(model, n, u):
    """The rows ``model`` allows vertex u of an n-vertex profile, as sorted tuples."""
    others = [v for v in range(n) if v != u]
    sizes = [1] if model == SINGLE else range(n)
    return [row for size in sizes for row in itertools.combinations(others, size)]


def winner_table(n, t, model=SINGLE):
    """The (u, others' rows) keys at which u wins, for a deterministic impartial
    mechanism on n-vertex ``model`` profiles whose every gap is at most t; None if no
    such mechanism exists."""
    entry = {}
    profiles = []  # each profile's n entries, and its winner clause when delta > t
    for rows in itertools.product(*[rows_of(model, n, u) for u in range(n)]):
        degree = [sum(v in row for row in rows) for v in range(n)]
        ids = [entry.setdefault((u, rows[:u] + rows[u + 1 :]), len(entry)) for u in range(n)]
        need = max(degree) - t
        profiles.append((ids, [x for x, d in zip(ids, degree) if d >= need] if need > 0 else None))
    holds = [[] for _ in entry]
    for i, (ids, _) in enumerate(profiles):
        for x in ids:
            holds[x].append(i)
    value = [None] * len(entry)
    trail = []

    def settle(x, wins):
        """Set entry x and every entry unit propagation forces; False on a conflict."""
        queue = [(x, wins)]
        while queue:
            x, wins = queue.pop()
            if value[x] is not None:
                if value[x] != wins:
                    return False
                continue
            value[x] = wins
            trail.append(x)
            for i in holds[x]:
                ids, clause = profiles[i]
                if wins:
                    queue.extend((y, False) for y in ids if y != x)
                elif clause is not None and not any(value[y] for y in clause):
                    unset = [y for y in clause if value[y] is None]
                    if not unset:
                        return False
                    if len(unset) == 1:
                        queue.append((unset[0], True))
        return True

    def solve():
        unmet = [
            [y for y in clause if value[y] is None]
            for _, clause in profiles
            if clause is not None and not any(value[y] for y in clause)
        ]
        if not unmet:
            return True
        for y in min(unmet, key=len):
            mark = len(trail)
            if settle(y, True) and solve():
                return True
            while len(trail) > mark:
                value[trail.pop()] = None
            if not settle(y, False):
                return False
        return False

    return {key for key, x in entry.items() if value[x]} if solve() else None


@pytest.mark.parametrize("model, n, optimum", CASES)
def test_no_deterministic_impartial_mechanism_keeps_every_gap_below_the_optimum(model, n, optimum):
    assert winner_table(n, optimum - 1, model) is None


@pytest.mark.parametrize("model, n, optimum", CASES)
def test_a_mechanism_at_the_optimum_is_impartial_and_attains_it(model, n, optimum):
    """The table the search finds, asked as a callable subject by the exhaustive
    engines: no impartiality witness, and its exact worst gap is the optimum."""
    table = winner_table(n, optimum, model)

    def mechanism(profile):
        rows = profile.out
        winners = [u for u in range(n) if (u, rows[:u] + rows[u + 1 :]) in table]
        assert len(winners) <= 1, (rows, winners)
        return winners[0] if winners else None

    assert check_impartial(mechanism, n, model) == []
    assert measure_additive_gap_exhaustive(mechanism, n, model)[0] == optimum
