"""The best deterministic impartial mechanism on the single model, exactly, at n = 3..5.

A deterministic impartial mechanism is a table of 0/1 entries x_u(others): u wins
exactly when its entry at the other vertices' nominees is 1.  u's own row cannot
move that entry, so every table is impartial by construction, and asking whether
some mechanism keeps every gap delta - deg(winner) at or below t is plain 0/1
feasibility: at most one winner per profile, and wherever delta > t a winner
whose in-degree reaches delta - t (no winner counts 0).  Unit propagation, and
branching on the unmet winner clause with the fewest open entries, decide it.

The optima are 1, 2 and 2 at n = 3, 4 and 5, over every deterministic impartial
mechanism that may select no one.  ``fixed:0`` attains n - 2, so it is optimal at
n = 3 and 4; at n = 5 the optimum is below n - 2 = 3, the floor of every constant
sample (``test_every_constant_sample_has_the_strong_sample_floor``).
"""

import itertools

import pytest

from impsel.core import SINGLE
from impsel.verify import check_impartial, measure_additive_gap_exhaustive

OPTIMA = {3: 1, 4: 2, 5: 2}


def winner_table(n, t):
    """The (u, others' nominees) keys at which u wins, for a deterministic impartial
    mechanism on single n-vertex profiles whose every gap is at most t; None if no
    such mechanism exists."""
    entry = {}
    profiles = []  # each profile's n entries, and its winner clause when delta > t
    for nominees in itertools.product(*[[v for v in range(n) if v != u] for u in range(n)]):
        degree = [nominees.count(v) for v in range(n)]
        ids = [entry.setdefault((u, nominees[:u] + nominees[u + 1 :]), len(entry)) for u in range(n)]
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


@pytest.mark.parametrize("n, optimum", OPTIMA.items())
def test_no_deterministic_impartial_mechanism_keeps_every_gap_below_the_optimum(n, optimum):
    assert winner_table(n, optimum - 1) is None


@pytest.mark.parametrize("n, optimum", OPTIMA.items())
def test_a_mechanism_at_the_optimum_is_impartial_and_attains_it(n, optimum):
    """The table the search finds, asked as a callable subject by the exhaustive
    engines: no impartiality witness, and its exact worst gap is the optimum."""
    table = winner_table(n, optimum)

    def mechanism(profile):
        nominees = tuple(v for (v,) in profile.out)
        winners = [u for u in range(n) if (u, nominees[:u] + nominees[u + 1 :]) in table]
        assert len(winners) <= 1, (nominees, winners)
        return winners[0] if winners else None

    assert check_impartial(mechanism, n, SINGLE) == []
    assert measure_additive_gap_exhaustive(mechanism, n, SINGLE)[0] == optimum
