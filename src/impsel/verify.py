"""Exhaustive verification: impartiality, strong-sample checks, refutation.

Three engines share this module.

* ``check_impartial`` iterates every profile on a small vertex set and
  every unilateral deviation, comparing the deviating vertex's own winning
  probability before and after, exactly.  An empty witness list is a proof
  over that domain, not a statistical claim.  It asks each profile once,
  into one table, and finds deviations by stride.  Every engine asks its
  subject through ``_subject_weights``, in blocks of profiles that differ only
  in the last vertex's row: one ``exact.winner_weights`` walk per search for a
  randomized spec, over n^k, else a 0/1 winner at scale 1 per profile (a
  deterministic spec, or an oracle); rationals only for what is returned.

* ``check_strong_sample`` / ``check_sample_constant`` test sample
  functions g: a strong g is one no sample member can alter, and the
  shipped catalog exercises the fact that strong plus impartial forces g
  to be constant.  The strong-sample check also asks g once per profile.
  Every engine opens with ``_space``, owner of ceiling, choices and strides.

* ``refute_two_additive`` replays a case analysis against any total
  deterministic mechanism oracle on 4 vertices, cornering it into an
  impartiality violation, a profile where the winner's in-degree trails
  the maximum by 3, or no winner.  It asks at most 9 distinct profiles.

Witnesses carry the concrete profiles involved and re-validate
independently via ``validate_witness``.  ``detail`` holds ``p_a``/``p_b``
(check_impartial), ``sample_a``/``sample_b`` (the sample checks), or, from
the refutation driver, ``winner_a``/``winner_b`` or ``delta``/
``winner_degree`` plus the tree's ``case`` and ``queries``: oracle calls
so far, two for each distinct profile.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .core import (
    MULTI,
    SINGLE,
    NominationProfile,
    checked_int,
    format_profile,
    out_degrees,
)
from .exact import (
    DEFAULT_SEQUENCE_BUDGET,
    WinnerDistribution,
    checked_sample_size,
    sample_space,
    winner_weights,
)
from .mechanisms import KINDS, MechanismSpec, majority_default_winner, nominated_winner

__all__ = [
    "WITNESS_KINDS",
    "Witness",
    "ProfileSpaceTooLarge",
    "EmptySampleError",
    "OracleNondeterministic",
    "iter_profiles",
    "profile_count",
    "check_impartial",
    "check_strong_sample",
    "check_sample_constant",
    "sample_mechanism_oracle",
    "SAMPLE_CATALOG",
    "named_oracle",
    "ORACLE_NAMES",
    "refute_two_additive",
    "measure_additive_gap_exhaustive",
    "validate_witness",
    "format_witness",
]

WITNESS_KINDS = (
    "impartiality_violation",
    "strong_sample_violation",
    "additivity_violation",
    "no_winner_violation",
    "sample_not_constant",
)

#: Largest n the exhaustive engines accept by default, per model.
DEFAULT_CHECK_MAX_N = {SINGLE: 5, MULTI: 4}
DEFAULT_MEASURE_MAX_N = {SINGLE: 6, MULTI: 4}


class ProfileSpaceTooLarge(ValueError):
    """Exhaustive iteration over this profile space was refused.

    ``count`` is the number of profiles that would have to be visited, the
    ``profile_count``; where that is None the message leaves it out.  Pass a
    larger ``max_n`` (``--max-n`` on the command line) to override the ceiling.
    """

    def __init__(self, n: int, model: str, max_n: int | None):
        self.count = profile_count(n, model)
        count = "" if self.count is None else f"{self.count} "
        ceiling = "the default ceiling" if max_n is None else f"the ceiling max_n={max_n}"
        super().__init__(
            f"exhaustive check over {count}{model}-model profiles on {n} vertices "
            f"exceeds {ceiling}; pass max_n={n} (--max-n {n}) to allow it"
        )


class EmptySampleError(ValueError):
    """A sample function returned an empty set, which no check tolerates."""


class OracleNondeterministic(ValueError):
    """A supposedly deterministic oracle answered the same profile twice differently."""


@dataclass(frozen=True, eq=True)
class Witness:
    """A concrete, re-checkable counterexample.

    ``profile_b`` is set for pairwise kinds; for impartiality violations it
    equals ``profile_a`` after a deviation by ``vertex``, whose own winning
    probability differs between the two.  ``detail`` records the values
    involved (probabilities, degrees, case labels).
    """

    kind: str
    profile_a: NominationProfile
    profile_b: NominationProfile | None = None
    vertex: int | None = None
    detail: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")


def _choices(n: int, model: str) -> list[list[tuple[int, ...]]]:
    """Every out-set ``model`` allows each vertex u, smallest out-sets first."""
    others = [[v for v in range(n) if v != u] for u in range(n)]
    return [[c for r in out_degrees(model, n) for c in itertools.combinations(own, r)] for own in others]


def iter_profiles(n: int, model: str) -> Iterator[NominationProfile]:
    """All n-vertex profiles of ``model``.

    Single profiles come in lexicographic nominee order, multi profiles
    smallest out-sets first.
    """
    return (NominationProfile._trusted(n, model, rows) for rows in itertools.product(*_choices(n, model)))


def profile_count(n: int, model: str) -> int | None:
    """Number of n-vertex profiles of ``model``: each vertex picks an allowed out-set.
    As ``EnumerationTooLarge.required``, None once n times the bit length of a vertex's
    choice count passes 8192 (about 2,466 digits)."""
    base = 0  # a vertex's choice count, summed only while the count can fit
    for r in out_degrees(model, n):
        base += math.comb(n - 1, r)
        if n * base.bit_length() > 8192:
            return None
    return base**n


def _space(
    n: int, model: str, max_n: int | None, defaults: dict
) -> tuple[list, list[int], Callable[[int], NominationProfile]]:
    """The space an exhaustive engine walks, once n is within ``max_n``, else ``defaults[model]``:
    each vertex's choices, the strides S_u, and the checked profile at index i of ``iter_profiles``
    order.  u's choice in profile i is ``i // S_u % c_u``, S_u the product of the choice counts c
    after u, so u's rewirings of i lie S_u apart."""
    out_degrees(model, 2)  # core owns the models: ModelViolation names an unknown one
    checked_int(n, "vertex count", 2)
    ceiling = checked_int(max_n, "max_n") if max_n is not None else defaults[model]
    if n > ceiling:
        raise ProfileSpaceTooLarge(n, model, max_n)
    choices = _choices(n, model)
    strides = [math.prod(map(len, choices[u + 1 :])) for u in range(n)]

    def profile(i: int) -> NominationProfile:
        return NominationProfile(n, model, [own[i // s % len(own)] for own, s in zip(choices, strides)])

    return choices, strides, profile


def _winner(answer, n: int) -> int | None:
    """An oracle's answer, checked to be a vertex id below n or None."""
    if answer is not None and (not isinstance(answer, int) or isinstance(answer, bool) or not 0 <= answer < n):
        raise ValueError(f"oracle returned {answer!r}, expected a vertex id or None")
    return answer


def _subject_weights(subject, n: int, model: str, budget: int) -> tuple[Callable, int]:
    """``subject`` as a function from blocks, each the out-rows of vertices 0..n-2, and
    the last vertex's choices, to one list per block of one weights list per choice,
    v winning with probability ``weights[v] / scale``: verify's one evaluator.  A spec
    is checked against model and budget once: k draws give one kernel walk's integers
    over n^k, and zero draws ask the kind's winner rule with no draws.
    """
    if isinstance(subject, MechanismSpec):
        k = checked_sample_size(subject, n, model, budget)
        if k:
            kind, samples = subject.kind, tuple(sample_space(n, k))
            return (lambda blocks, last: ([w for w, _ in b] for b in winner_weights(kind, blocks, last, samples))), n**k
        spec, winner_of = subject, KINDS[subject.kind].winner
        subject = lambda profile: winner_of(spec, profile, ())  # noqa: E731

    def answer_weights(answer) -> list:
        if isinstance(answer, WinnerDistribution):
            if answer.n != n:
                raise ValueError(f"oracle returned a distribution over {answer.n} vertices, expected {n}")
            return [answer.probability(v) for v in range(n)]
        winner = _winner(answer, n)
        return [int(v == winner) for v in range(n)]

    trusted = NominationProfile._trusted
    ask = lambda fixed, last: [answer_weights(subject(trusted(n, model, (*fixed, row)))) for row in last]  # noqa: E731
    return (lambda blocks, last: (ask(fixed, last) for fixed in blocks)), 1


def check_impartial(
    subject,
    n: int,
    model: str,
    *,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
    max_n: int | None = None,
) -> list[Witness]:
    """All impartiality violations of ``subject`` on n-vertex profiles.

    For every profile and every vertex u, u's winning probability must not
    move when u alone rewires.  Each deviation class is compared against
    its first member, so a violating pair shares everything except u's
    out-set.  Empty result = impartial on this whole domain.

    Every profile's weights are asked once, in one walk over the blocks in
    ``iter_profiles`` order, into one flat table: ``table[i * n + u]`` is u's
    weight in profile i.  u's deviations from a base i where u makes its first
    choice are i + j*S_u, the strides of ``_space``.
    """
    choices, strides, profile = _space(n, model, max_n, DEFAULT_CHECK_MAX_N)
    weights_of, scale = _subject_weights(subject, n, model, budget)
    *fixed_choices, last = choices
    blocks = weights_of(itertools.product(*fixed_choices), last)
    table = list(itertools.chain.from_iterable(itertools.chain.from_iterable(blocks)))
    witnesses: list[Witness] = []
    for u, (own, stride) in enumerate(zip(choices, strides)):
        block = stride * len(own)
        for start in range(0, len(table) // n, block):
            for base in range(start, start + stride):
                base_w = table[base * n + u]
                for alt in range(base + stride, start + block, stride):
                    alt_w = table[alt * n + u]
                    if alt_w != base_w:
                        detail = {"p_a": Fraction(base_w, scale), "p_b": Fraction(alt_w, scale)}
                        witnesses.append(Witness("impartiality_violation", profile(base), profile(alt), u, detail))
    return witnesses


def _sample_of(g, profile: NominationProfile) -> frozenset[int]:
    sample = frozenset(g(profile))
    if not sample:
        raise EmptySampleError(f"sample function returned an empty set on:\n{format_profile(profile)}")
    for v in sample:
        checked_int(v, "sample vertex", 0, profile.n - 1)
    return sample


def check_strong_sample(
    g, n: int, *, max_n: int | None = None
) -> list[Witness]:
    """Violations of the rule that no sample member can change the sample.

    For each single-model profile and each u in g(x), every rewiring of u
    must leave g unchanged.  g is asked once per profile, in ``iter_profiles``
    order; u's rewirings of profile i lie ``S_u`` apart, from the one where u
    makes its first choice.  Witnesses come by profile, then u, then choice.
    """
    choices, strides, profile = _space(n, SINGLE, max_n, DEFAULT_CHECK_MAX_N)
    shared: dict[frozenset[int], frozenset[int]] = {}  # equal samples share one object
    samples = [shared.setdefault(s, s) for s in map(_sample_of, itertools.repeat(g), iter_profiles(n, SINGLE))]
    witnesses: list[Witness] = []
    for i, sample in enumerate(samples):
        for u in sorted(sample):
            stride, count = strides[u], len(choices[u])
            first = i - i // stride % count * stride
            for alt in range(first, first + count * stride, stride):
                if samples[alt] != sample:
                    detail = {"sample_a": tuple(sorted(sample)), "sample_b": tuple(sorted(samples[alt]))}
                    witnesses.append(Witness("strong_sample_violation", profile(i), profile(alt), u, detail))
    return witnesses


def check_sample_constant(
    g, n: int, *, max_n: int | None = None
) -> tuple[bool, Witness | None]:
    """Whether g returns the same set on every single-model profile."""
    _space(n, SINGLE, max_n, DEFAULT_MEASURE_MAX_N)
    first_profile: NominationProfile | None = None
    first_sample: frozenset[int] | None = None
    for profile in iter_profiles(n, SINGLE):
        sample = _sample_of(g, profile)
        if first_sample is None:
            first_profile, first_sample = profile, sample
        elif sample != first_sample:
            detail = {"sample_a": tuple(sorted(first_sample)), "sample_b": tuple(sorted(sample))}
            return False, Witness("sample_not_constant", first_profile, profile, None, detail)
    return True, None


def sample_mechanism_oracle(g) -> Callable[[NominationProfile], int | None]:
    """The selection rule induced by a sample function.

    The sample's nominees outside the sample compete; most nominations
    from outside the nominee pool wins, lowest id on ties.
    """

    def oracle(profile: NominationProfile) -> int | None:
        return nominated_winner(profile, _sample_of(g, profile))[1]

    return oracle


# ----- sample-function catalog -----

_HASH_MASK = (1 << 64) - 1


def _g_constant(vertices: tuple[int, ...]):
    fixed = frozenset(vertices)

    def g(profile: NominationProfile) -> frozenset[int]:
        return fixed

    return g


def _g_nominee_of_zero(profile: NominationProfile) -> frozenset[int]:
    return frozenset({profile.single_nominees[0]})


def _g_min_degree(profile: NominationProfile) -> frozenset[int]:
    degs = profile.in_degrees
    return frozenset({min(range(profile.n), key=lambda u: (degs[u], u))})


def _g_max_degree(profile: NominationProfile) -> frozenset[int]:
    degs = profile.in_degrees
    return frozenset({min(range(profile.n), key=lambda u: (-degs[u], u))})


def _g_edge_hash(profile: NominationProfile) -> frozenset[int]:
    h = 0
    for u, v in profile.edges():
        h = (h * 1000003 + u * profile.n + v + 1) & _HASH_MASK
    return frozenset({h % profile.n})


#: Candidate sample functions for the characterization harness.  The
#: constants and the id-prefix pass every check; the others are the
#: deliberately non-constant foils.
SAMPLE_CATALOG: dict[str, Callable[[NominationProfile], frozenset[int]]] = {
    "const-0": _g_constant((0,)),
    "const-12": _g_constant((1, 2)),
    "first-2": _g_constant((0, 1)),
    "nominee-of-0": _g_nominee_of_zero,
    "min-degree": _g_min_degree,
    "max-degree": _g_max_degree,
    "edge-hash": _g_edge_hash,
}


# ----- deterministic mechanism oracles -----


def named_oracle(name: str) -> Callable[[NominationProfile], int]:
    """Total deterministic oracles for the refutation driver and the CLI.

    ``dictator:D`` always selects D.  ``plurality`` selects the least-id
    vertex of maximum in-degree.  ``majority-default-ext:D`` extends the
    majority-with-default rule to arbitrary out-sets.
    """
    base, sep, arg = name.partition(":")
    if base == "plurality":
        if sep:
            raise ValueError("plurality takes no argument")
        return lambda profile: profile.in_degrees.index(profile.delta)
    vertex = {"dictator": "dictator vertex", "majority-default-ext": "default vertex"}.get(base)
    if vertex is None:
        raise ValueError(f"unknown oracle {name!r}; known: {', '.join(ORACLE_NAMES)}")
    if not sep:
        raise ValueError(f"{base} needs ':<vertex>'")
    try:
        d = checked_int(int(arg), vertex)
    except ValueError as exc:
        raise ValueError(f"bad oracle argument in {name!r}: {exc}") from None
    if base == "dictator":
        return lambda profile: checked_int(d, vertex, 0, profile.n - 1)
    return lambda profile: majority_default_winner(profile, d)


ORACLE_NAMES = ("dictator:<v>", "plurality", "majority-default-ext:<v>")


# ----- refutation driver -----


class _NoWinner(Exception):
    """The oracle named no winner; ``args[0]`` is the no_winner_violation witness."""


class _Asker:
    """The refutation driver's one owner of oracle answers.

    Asks each profile twice to catch nondeterminism, checks the answer,
    records it by profile, and ends the game with a no_winner_violation
    (raised as ``_NoWinner``) when the oracle names nobody.  Witnesses
    read their winners from that record and their ``case`` from the
    phase the driver last set.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.answers: dict[NominationProfile, int] = {}
        self.queries = 0
        self.case = "empty"

    def _witness(self, kind, a, b, vertex, **detail) -> Witness:
        return Witness(kind, a, b, vertex, {**detail, "case": self.case, "queries": self.queries})

    def __call__(self, profile: NominationProfile) -> int:
        first = self.oracle(profile)
        second = self.oracle(profile)
        self.queries += 2
        if first != second:
            raise OracleNondeterministic(
                f"oracle answered {first!r} then {second!r} on:\n{format_profile(profile)}"
            )
        if _winner(first, profile.n) is None:
            raise _NoWinner(self._witness("no_winner_violation", profile, None, None))
        self.answers[profile] = first
        return first

    def impartiality(self, a, b, vertex: int) -> Witness:
        return self._witness(
            "impartiality_violation", a, b, vertex, winner_a=self.answers[a], winner_b=self.answers[b]
        )

    def additivity(self, profile) -> Witness:
        degs, winner = profile.in_degrees, self.answers[profile]
        return self._witness(
            "additivity_violation", profile, None, winner, delta=max(degs), winner_degree=degs[winner]
        )


def refute_two_additive(oracle) -> Witness:
    """Corner a total deterministic 4-vertex oracle out of being 2-additive.

    Plays a fixed decision tree of at most 9 distinct profiles.  At
    every step the oracle either contradicts impartiality across a single
    deviation (impartiality_violation), reaches a profile whose winner
    trails the maximum in-degree by 3 (additivity_violation), or declines
    to answer (no_winner_violation).  There is no fourth exit.
    """
    asker = _Asker(oracle)
    try:
        return _corner(asker)
    except _NoWinner as stop:
        return stop.args[0]


def _corner(ask: _Asker) -> Witness:
    """The decision tree: branch conditions only; ``ask`` builds every witness."""
    n = 4

    def multi(out_sets: dict) -> NominationProfile:
        return NominationProfile.multi(n, out_sets)

    empty = multi({})
    a = ask(empty)
    trio = [v for v in range(n) if v != a]

    def others(v: int) -> tuple[int, ...]:
        return tuple(w for w in trio if w != v)

    # each trio member alone nominating the other two; the empty-profile
    # winner a must keep winning, since the lone voter cannot make itself win
    ask.case = "solo"
    solo = {v: multi({v: others(v)}) for v in trio}
    h: dict[int, int] = {}
    for v in trio:
        h[v] = ask(solo[v])
        if h[v] == v:
            return ask.impartiality(empty, solo[v], v)

    favours_default = [v for v in trio if h[v] == a]
    if favours_default:
        # the default winner a held on against some lone voter cc; force a
        # to keep winning while bb and dd stack nominations on each other
        ask.case = "held-default"
        cc = favours_default[0]
        bb, dd = (v for v in trio if v != cc)
        w = multi({cc: others(cc), a: (bb, dd)})
        if ask(w) != a:
            return ask.impartiality(solo[cc], w, a)
        one_sided = {}
        for x, y in ((bb, dd), (dd, bb)):
            one_sided[x] = multi({cc: others(cc), a: (bb, dd), x: (y,)})
            fx = ask(one_sided[x])
            if fx == x:
                return ask.impartiality(w, one_sided[x], x)
            if fx in (a, cc):
                return ask.additivity(one_sided[x])

        # both one-sided extensions crowned the other vertex; merging them
        # must crown both at once, which is impossible
        t = multi({cc: others(cc), a: (bb, dd), bb: (dd,), dd: (bb,)})
        ft = ask(t)
        if ft in (a, cc):
            return ask.additivity(t)
        return ask.impartiality(one_sided[ft], t, dd if ft == bb else bb)

    # now h maps the trio into itself with no fixed point: either two
    # members crown each other, or h cycles through all three
    mutual = [v for v in trio if h[h[v]] == v]
    if mutual:
        ask.case = "mutual-pair"
        alpha, beta = mutual
        merged = multi({alpha: others(alpha), beta: others(beta)})
        if ask(merged) == beta:
            return ask.impartiality(solo[beta], merged, alpha)
        return ask.impartiality(solo[alpha], merged, beta)

    # 3-cycle: pairing each voter with its own winner pins f on each pair
    ask.case = "three-cycle"
    pair: dict[int, NominationProfile] = {}
    for v in trio:
        pair[v] = multi({v: others(v), h[v]: others(h[v])})
        fp = ask(pair[v])
        if fp == v:
            return ask.impartiality(solo[h[v]], pair[v], v)
        if fp != h[v]:
            return ask.impartiality(solo[v], pair[v], h[v])

    clique = multi({v: others(v) for v in trio})
    fc = ask(clique)
    if fc in trio:
        # fc completed pair[h[fc]] into the clique without winning there
        return ask.impartiality(pair[h[fc]], clique, fc)

    # fc == a; a nominating everyone must leave a winning, at in-degree 0
    # against three vertices of in-degree 3
    final = multi({**{v: others(v) for v in trio}, a: tuple(trio)})
    if ask(final) != a:
        return ask.impartiality(clique, final, a)
    return ask.additivity(final)


def measure_additive_gap_exhaustive(
    subject,
    n: int,
    model: str,
    *,
    budget: int = DEFAULT_SEQUENCE_BUDGET,
    max_n: int | None = None,
) -> tuple[Fraction, NominationProfile]:
    """Exact worst additive gap of ``subject`` over every n-vertex profile.

    Returns the maximum of delta minus expected winner degree, with the
    first profile (in iteration order) that attains it.  Gaps are compared
    as numerators ``delta * scale - sum(weights[v] * deg[v])``, with the
    fixed rows' in-degrees counted once per block.
    """
    (*fixed_choices, last), _, _ = _space(n, model, max_n, DEFAULT_MEASURE_MAX_N)
    weights_of, scale = _subject_weights(subject, n, model, budget)
    best = best_rows = None
    blocks = weights_of(itertools.product(*fixed_choices), last)
    for fixed, block in zip(itertools.product(*fixed_choices), blocks):
        fixed_degree = [0] * n
        for v in itertools.chain.from_iterable(fixed):
            fixed_degree[v] += 1
        for row, weights in zip(last, block):
            degree = fixed_degree[:]
            for v in row:
                degree[v] += 1
            gap = max(degree) * scale - sum(map(mul, weights, degree))
            if best is None or gap > best:
                best, best_rows = gap, (*fixed, row)
    return Fraction(best, scale), NominationProfile(n, model, best_rows)


# ----- witness handling -----


def _differs_only_at(a: NominationProfile, b: NominationProfile, vertex: int) -> bool:
    if a.n != b.n or a.model != b.model or not 0 <= vertex < a.n:
        return False
    if a.out[vertex] == b.out[vertex]:
        return False
    return all(a.out[u] == b.out[u] for u in range(a.n) if u != vertex)


def validate_witness(
    witness: Witness, subject, *, budget: int = DEFAULT_SEQUENCE_BUDGET
) -> bool:
    """Re-derive the witnessed fact from scratch against ``subject``.

    For the sample-function kinds ``subject`` is the sample function g;
    for the others it is a MechanismSpec or mechanism oracle.
    """
    kind, a, b, vertex = witness.kind, witness.profile_a, witness.profile_b, witness.vertex
    if kind in ("impartiality_violation", "strong_sample_violation") and (
        b is None or vertex is None or not _differs_only_at(a, b, vertex)
    ):
        return False
    if kind in ("impartiality_violation", "additivity_violation", "no_winner_violation"):
        weights_of, scale = _subject_weights(subject, a.n, a.model, budget)
        [[weights]] = weights_of([a.out[:-1]], a.out[-1:])
        if kind == "impartiality_violation":
            return weights[vertex] != next(weights_of([b.out[:-1]], b.out[-1:]))[0][vertex]
        if kind == "additivity_violation":
            return (a.delta - 2) * scale > sum(map(mul, weights, a.in_degrees))
        return not any(weights)
    if kind == "sample_not_constant":
        return b is not None and _sample_of(subject, a) != _sample_of(subject, b)
    sample_a = _sample_of(subject, a)  # a strong_sample_violation
    return vertex in sample_a and _sample_of(subject, b) != sample_a


def _indent_profile(profile: NominationProfile) -> str:
    return "\n".join("    " + line for line in format_profile(profile).splitlines())


def format_witness(witness: Witness) -> str:
    parts = [f"{witness.kind}"]
    if witness.vertex is not None:
        parts.append(f"vertex={witness.vertex}")
    for key, value in sorted(witness.detail.items()):
        parts.append(f"{key}={value}")
    lines = [" ".join(parts), "  profile a:", _indent_profile(witness.profile_a)]
    if witness.profile_b is not None:
        lines.append("  profile b:")
        lines.append(_indent_profile(witness.profile_b))
    return "\n".join(lines)
