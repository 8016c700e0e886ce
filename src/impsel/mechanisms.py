"""Selection mechanisms, their guarantees, and the deterministic draw stream.

Four mechanisms are provided.

``random_k_sample``
    Draw k vertices uniformly with replacement, keep the distinct set S.
    Vertices outside S nominated by someone in S form the nominee pool W.
    The winner is the pool member with the most nominations from outside
    the pool, ties to the lowest id.  No winner when the pool is empty.
    Single model only.

``simple_k_sample``
    Draw k vertices with replacement, keep the multiset.  Every vertex not
    drawn is scored by the nominations it receives from the draws, a vertex
    drawn twice counted twice.  Winner is the best-scoring candidate, ties to
    the lowest id; no winner when every candidate scores zero.  Works for
    both models.  Up to 256 vertices and 255 draws, one sum of the drawn
    rows' ``nominee_lanes`` holds the scores; otherwise they are counted.

``fixed_sample``
    Like simple_k_sample but with a hard-coded sample set instead of draws.
    Deterministic.

``majority_default``
    A designated default vertex d wins unless some other vertex is
    nominated by at least ceil(n/2) of the vertices other than d, in which
    case the lowest such vertex wins.  Deterministic, always has a winner.
    Impartial on single profiles, where only one vertex can qualify; not on
    multi ones (``check_impartial`` finds 704 witnesses at n = 4).

Everything that differs between the kinds (CLI spelling, models, sample
size, winner rule, guarantee formula) is registered once, in :data:`KINDS`;
the rest of the package asks the table.  A kind's ``winner`` is the only
place it picks a winner: the Monte Carlo estimator, the per-sequence exact
route and verify's zero-draw subjects all call it.

All randomness flows through :class:`DrawStream`, a splitmix64 generator
written out here so results are reproducible across platforms and Python
versions; :func:`trial_draws` gives many seeded streams' draws at once.
Both compute their draws on one lane pass, ``_lane_draws``.  Nothing in
this package touches global RNG state.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
import sys
from collections import Counter
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import le
from typing import NamedTuple

from .core import MODELS, SINGLE, NominationProfile, checked_int

__all__ = [
    "DrawStream",
    "derive_seed",
    "trial_draws",
    "MechanismSpec",
    "MechanismKind",
    "KINDS",
    "ModelMismatch",
    "check_model",
    "parse_mechanism",
    "nominated_winner",
    "multiset_winner",
    "fixed_sample_winner",
    "majority_default_winner",
    "resolve_k",
    "MAX_TRIAL_DRAWS",
    "rks_gap_lower_bound",
    "rks_worst_delta",
    "sks_sample_size",
    "sks_gap_upper_bound",
    "mwd_gap_upper_bound",
    "compute_bound",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Lanes per packed int: 1024 lanes of 128 bits keep each temporary at 16 KB.
_CHUNK = 1024
#: ``trial_draws`` refuses a trial of more draws (an explicit random-k k is not clamped).
MAX_TRIAL_DRAWS = 1 << 20
#: ``memoryview.cast("Q")`` reads native-endian words.  Serialised in the
#: host's byte order, lane i's low word is word 2i on a little-endian host
#: and word 2(L-1-i)+1 on a big-endian one, so both are read by one slice.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * _MUL1) & _MASK64
    z ^= z >> 27
    z = (z * _MUL2) & _MASK64
    z ^= z >> 31
    return z


def _rejection_limit(n: int) -> int:
    """Raw values at or above this are rejected: the largest multiple of n in 2^64."""
    return (1 << 64) - ((1 << 64) % checked_int(n, "bound", 1, 1 << 64))


@functools.lru_cache(maxsize=64)
def _lanes(k: int, runs: int) -> tuple[int, int, int]:
    """Constants for ``runs`` runs of k 64-bit lanes packed 128 bits apart in one int.

    ``ones`` has a 1 at the bottom of each lane, ``masks`` the low 64 bits of
    each lane, and ``steps`` ``GOLDEN * (j + 1) mod 2^64`` in lane j of each
    run.  The 64 spare bits per lane take a full 64 x 64-bit product, so no
    lane carries into the next.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * (k * runs), "little")
    run = b"".join(((_GOLDEN * j) & _MASK64).to_bytes(16, "little") for j in range(1, k + 1))
    return ones, ones * _MASK64, int.from_bytes(run * runs, "little")


def _lane_draws(states: Sequence[int], k: int, n: int, excess: int) -> list[int] | None:
    """The first k draws below n of each state's stream, one state after another,
    or None if a raw value is rejected (at or above ``2^64 - excess``).

    Raw value j of a stream is ``mix(state + GOLDEN * (j + 1))`` with no
    dependence on earlier values, so all of them are computed at once on the
    lanes of ``_lanes(k, len(states))``.
    """
    ones, masks, steps = _lanes(k, len(states))
    z = (int.from_bytes(b"".join([s.to_bytes(16, "little") * k for s in states]), "little") + steps) & masks
    z = ((z ^ (z >> 30)) & masks) * _MUL1 & masks
    z = ((z ^ (z >> 27)) & masks) * _MUL2 & masks
    z = (z ^ (z >> 31)) & masks
    # a lane at or above the limit carries into bit 64 once excess is added
    if excess and (limited := z + ones * excess) & masks != limited:
        return None
    if power := not n & (n - 1):
        z &= ones * (n - 1)  # below a power of two (no excess), w % n is w's low bits
    words = memoryview(z.to_bytes(16 * k * len(states), sys.byteorder)).cast("Q")[_LOW_WORDS]
    return words.tolist() if power else [w % n for w in words]


class DrawStream:
    """splitmix64 stream yielding uniform draws below a bound.

    Uniformity over ``[0, n)`` uses rejection against the largest multiple
    of n that fits in 64 bits, so no modulo bias.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_raw(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_below(self, n: int) -> int:
        limit = _rejection_limit(n)
        while True:
            z = self.next_raw()
            if z < limit:
                return z % n

    def draws(self, count: int, n: int) -> list[int]:
        """``count`` draws below n, the same values and end state as that many
        ``next_below(n)`` calls.

        Up to ``_CHUNK`` draws take one lane pass.  If any lane is rejected
        (chance below count * n / 2^64) the rest of the request replays one
        draw at a time, so the bytes never depend on the batching.
        """
        checked_int(count, "draw count", 0)
        excess = (1 << 64) - _rejection_limit(n)
        out: list[int] = []
        while count > 0:
            lanes = min(count, _CHUNK)
            values = _lane_draws((self._state,), lanes, n, excess)
            if values is None:
                out.extend(self.next_below(n) for _ in range(count))
                return out
            out += values
            self._state = (self._state + _GOLDEN * lanes) & _MASK64
            count -= lanes
        return out


def derive_seed(master: int, index: int) -> int:
    """Stateless child seed: raw value ``index`` of ``DrawStream(master)``."""
    return _mix64((master + _GOLDEN * (index + 1)) & _MASK64)


def trial_draws(master: int, trials: int, k: int, n: int) -> Iterator[list[int]]:
    """``DrawStream(derive_seed(master, i)).draws(k, n)`` for each trial i below ``trials``.

    The seeds are the first ``trials`` raw values of ``DrawStream(master)``, drawn up to
    ``_CHUNK`` at a time.  A block of ``_CHUNK // k`` trials draws on one lane pass; a block
    with a rejected lane, and each trial of more than ``_CHUNK`` draws, draws through its
    own stream instead.  A k outside ``1..MAX_TRIAL_DRAWS`` is refused before any seed.
    """
    checked_int(k, "draws per trial", 1, MAX_TRIAL_DRAWS)
    excess = (1 << 64) - _rejection_limit(n)
    seeder = DrawStream(master)
    seeds = chain.from_iterable(seeder.draws(min(_CHUNK, trials - i), 1 << 64) for i in range(0, trials, _CHUNK))
    while block := list(islice(seeds, _CHUNK // k or 1)):
        values = _lane_draws(block, k, n, excess) if k <= _CHUNK else None
        if values is None:
            yield from (DrawStream(seed).draws(k, n) for seed in block)
        else:
            yield from (values[i : i + k] for i in range(0, len(values), k))


class ModelMismatch(ValueError):
    """Mechanism applied to a profile model it is not defined for."""


@dataclass(frozen=True)
class MechanismSpec:
    """Which mechanism to run, plus its parameters.

    Each kind reads the one parameter its ``KINDS`` row names; the
    constructor checks it (``fixed_set`` is stored sorted and unique) and
    rejects the other two.  ``k=None`` on the sampling mechanisms means
    "pick the default sample size for the profile at run time".
    """

    kind: str
    k: int | None = None
    fixed_set: tuple[int, ...] | None = None
    default_vertex: int | None = None

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        param = KINDS[self.kind].param
        for name, rule in _PARAMS.items():
            value = getattr(self, name)
            if name == param:
                object.__setattr__(self, name, rule.check(value))
            elif value is not None:
                raise ValueError(f"{self.kind} takes no {name}")

    @classmethod
    def random_k(cls, k: int | None = None) -> "MechanismSpec":
        return cls("random_k_sample", k=k)

    @classmethod
    def simple_k(cls, k: int | None = None) -> "MechanismSpec":
        return cls("simple_k_sample", k=k)

    @classmethod
    def fixed(cls, sample: Iterable[int]) -> "MechanismSpec":
        return cls("fixed_sample", fixed_set=sample)

    @classmethod
    def majority_default(cls, default_vertex: int) -> "MechanismSpec":
        return cls("majority_default", default_vertex=default_vertex)

    def label(self) -> str:
        """The CLI spelling; ``parse_mechanism(spec.label()) == spec``."""
        kind = KINDS[self.kind]
        return f"{kind.cli}:{_PARAMS[kind.param].text(getattr(self, kind.param))}"


def parse_mechanism(text: str) -> MechanismSpec:
    """Parse the CLI mechanism syntax.

    ``random-k:5`` ``random-k:auto`` ``simple-k:12`` ``fixed:0,3,7``
    ``majority-default:0``
    """
    name, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"mechanism {text!r} needs a ':<arg>' part")
    kind = next((key for key, entry in KINDS.items() if entry.cli == name), None)
    if kind is None:
        raise ValueError(f"unknown mechanism {name!r}")
    param = KINDS[kind].param
    try:
        return MechanismSpec(kind, **{param: _PARAMS[param].parse(arg)})
    except ValueError as exc:
        raise ValueError(f"bad mechanism argument in {text!r}: {exc}") from None


def check_model(kind: str, model: str) -> None:
    """Raise ModelMismatch unless mechanism ``kind`` is defined for ``model``."""
    models = KINDS[kind].models
    if model not in models:
        raise ModelMismatch(f"{kind} is defined for the {models[0]} model, profile is {model}")


def nominated_winner(profile: NominationProfile, sample: Collection[int]) -> tuple[set[int], int | None]:
    """Nominee pool and winner for the sample set S, ``sample``'s members, in one pass over the pool.

    W is everyone outside S nominated by a member of S: the set ``profile.nominee_set(S)``,
    trimmed of S in place, so ``sample`` is read twice and may repeat a draw but not be a
    one-shot iterator.  The winner maximizes nominations from outside W, its in-degree less
    those from inside, ``profile.nominees_of(W, W)``; lowest id on ties.  A score never
    exceeds the in-degree, so a candidate below the best so far is not looked up.
    """
    pool = profile.nominee_set(sample)
    pool.difference_update(sample)
    if not pool:
        return pool, None
    degs = profile.in_degrees
    inside = profile.nominees_of(pool, pool)
    inside = Counter(inside) if inside else {}
    winner, top = -1, -1
    for v in pool:
        sc = degs[v]
        if sc >= top:
            sc -= inside.get(v, 0)
            if sc > top or (sc == top and v < winner):
                winner, top = v, sc
    return pool, winner


def multiset_winner(profile: NominationProfile, draws: Sequence[int]) -> int | None:
    """Winner for a sample multiset given as its draws, a repeated draw counted again.

    Candidates are the vertices not drawn, scored by the draws' nominations, with
    multiplicity; lowest id on ties, None when every candidate scores zero.  On up to 256
    vertices (n^2 bytes of lanes) and 255 draws no score passes a byte, so the bytes of one
    sum of the drawn rows' ``nominee_lanes`` are the scores; otherwise they are counted.
    """
    if profile.n <= 256 and len(draws) < 256:
        scores = [*sum(map(profile.nominee_lanes.__getitem__, draws)).to_bytes(profile.n, "little")]
        for u in draws:
            scores[u] = 0
        return scores.index(top) if (top := max(scores)) else None
    return _counted_winner(profile, draws)


def _counted_winner(profile: NominationProfile, draws: Sequence[int]) -> int | None:
    """``multiset_winner`` by counting nominations; fixed samples, one per profile, would not reuse lanes."""
    drawn = set(draws)
    winner, top = None, 0
    for v, sc in Counter(profile.nominees_of(draws)).items():
        if sc >= top and v not in drawn and (sc > top or v < winner):
            winner, top = v, sc
    return winner


def fixed_sample_winner(profile: NominationProfile, fixed_set: Sequence[int]) -> int | None:
    """Winner when the sample is ``fixed_set``, each member counted once."""
    sample = sorted({checked_int(v, "fixed sample vertex", 0, profile.n - 1) for v in fixed_set})
    if len(sample) >= profile.n:
        raise ValueError("fixed sample must leave at least one candidate")
    return _counted_winner(profile, sample)


def majority_default_winner(profile: NominationProfile, default_vertex: int) -> int:
    """Winner under the majority rule with default ``default_vertex``."""
    d = checked_int(default_vertex, "default vertex", 0, profile.n - 1)
    threshold = (profile.n + 1) // 2
    degs = profile.in_degrees
    # leaving out d's vote only lowers a degree, so only vertices at or above the threshold can win
    for v in compress(range(profile.n), map(le, repeat(threshold), degs)):
        if v == d:
            continue
        deg = degs[v] - (1 if v in profile.row(d) else 0)
        if deg >= threshold:
            return v
    return d


def _ceil_isqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _clamp_k(k: int, n: int) -> int:
    return max(1, min(k, n - 1))


def resolve_k(spec: MechanismSpec, n: int) -> int:
    """Number of draws ``spec`` takes on an n-vertex profile: 0 for a deterministic kind."""
    sample_size = KINDS[spec.kind].sample_size
    return sample_size(spec.k, checked_int(n, "vertex count", 2)) if sample_size else 0


# ----- guarantee formulas -----


def rks_gap_lower_bound(n: int, k: int) -> float:
    """Guaranteed ceiling on delta - E[winner degree] for the k-draw sample rule.

    Named for the guarantee's usual phrasing as a lower bound on the
    expected winner degree: E >= delta - (2(k-1) + (n+1)/(k+1)) on every
    single-model profile.
    """
    checked_int(k, "sample size", 1, checked_int(n, "vertex count", 2) - 1)
    return 2 * (k - 1) + (n + 1) / (k + 1)


def rks_worst_delta(n: int, k: int) -> int:
    """The in-degree at which the k-draw guarantee is tightest.

    Nearest integer to (n - 1 + 2k^2)/(k + 1), clamped to the feasible
    in-degree range.
    """
    checked_int(n, "vertex count", 2)
    checked_int(k, "sample size", 1)
    target = round(Fraction(n - 1 + 2 * k * k, k + 1))
    return max(1, min(target, n - 1))


_DECIMAL60 = decimal.Context(prec=60)


def sks_sample_size(n: int) -> int:
    """Default multiset sample size: ceil((4 n^2 ln n)^(1/3)), clamped to [1, n-1].

    Evaluated as exp(ln(4 n^2 ln n) / 3) at 60 significant digits.  For
    every integer n >= 2 the value is irrational, so it is never an integer
    that rounding could push across.
    """
    checked_int(n, "vertex count", 2)
    ctx = _DECIMAL60
    value = ctx.exp(ctx.divide(ctx.ln(ctx.multiply(4 * n * n, ctx.ln(n))), 3))
    return _clamp_k(int(value.to_integral_value(rounding=decimal.ROUND_CEILING)), n)


def sks_gap_upper_bound(n: int, k: float) -> float:
    """Guaranteed ceiling on delta - E[winner degree] for the multiset sample rule."""
    checked_int(n, "vertex count", 2)
    if not isinstance(k, numbers.Real) or isinstance(k, bool) or not k >= 1:
        raise ValueError(f"sample size must be at least 1, got {k}")
    return 2 * k + n * n * math.exp(-(k**3) / (2 * n * n))


def mwd_gap_upper_bound(n: int) -> int:
    """Guaranteed ceiling on delta - winner degree for the majority-default rule."""
    return (checked_int(n, "vertex count", 2) + 1) // 2


def compute_bound(spec: MechanismSpec, n: int) -> tuple[str, float]:
    """The guarantee ``spec`` carries on n vertices: its label and its gap ceiling at ``resolve_k``."""
    bound = KINDS[spec.kind].bound
    if bound is None:
        raise ValueError(f"no closed-form guarantee for {spec.kind}")
    label, formula = bound
    return label, formula(n, resolve_k(spec, n))


# ----- the kinds -----


def _fixed_set(sample) -> tuple[int, ...]:
    if not isinstance(sample, Iterable | None):
        raise ValueError(f"fixed sample {sample!r} is not a collection of vertices")
    members = {checked_int(v, "fixed sample vertex") for v in sample or ()}
    if not members:
        raise ValueError("fixed sample must be non-empty")
    return tuple(sorted(members))


class _Param(NamedTuple):
    check: Callable[[object], object]  # returns the value to store
    parse: Callable[[str], object]  # reads the text after "<cli>:"
    text: Callable[[object], str]  # writes it back


_PARAMS: dict[str, _Param] = {
    "k": _Param(
        lambda k: None if k is None else checked_int(k, "sample size", 1),
        lambda arg: None if arg == "auto" else int(arg),
        lambda k: "auto" if k is None else str(k),
    ),
    "fixed_set": _Param(
        _fixed_set, lambda arg: tuple(int(v) for v in arg.split(",")), lambda s: ",".join(map(str, s))
    ),
    "default_vertex": _Param(lambda d: checked_int(d, "default vertex"), int, str),
}


@dataclass(frozen=True)
class MechanismKind:
    """Everything that differs between mechanism kinds.

    ``param`` names the one spec field the kind reads (a key of
    ``_PARAMS``).  ``winner(spec, profile, draws)`` is the kind's one
    evaluation rule: it picks the winner of a sequence of draws, which is
    empty for a deterministic kind.  ``sample_size(k, n)`` turns the spec's
    k (None for the default) into the number of draws; it is None for the
    deterministic kinds, which draw nothing.  ``bound`` is the guarantee
    as a ``(label, formula)`` pair, None when the kind has none:
    ``formula(n, k)`` is the ceiling on delta - E[winner degree], and the
    label, "rks_lower", "sks_lower" or "mwd_upper", is what ``impsel exact``
    prints with it.

    Entries call module functions through their globals at call time, so
    a wrapper installed on a function is seen by every kind that uses it.
    """

    cli: str
    models: tuple[str, ...]
    param: str
    winner: Callable[[MechanismSpec, NominationProfile, Sequence[int]], int | None]
    sample_size: Callable[[int | None, int], int] | None = None
    bound: tuple[str, Callable[[int, int], float]] | None = None


KINDS: dict[str, MechanismKind] = {
    "random_k_sample": MechanismKind(
        cli="random-k",
        models=(SINGLE,),
        param="k",
        winner=lambda spec, profile, draws: nominated_winner(profile, draws)[1],
        # draws are with replacement, so an explicit k may exceed n - 1
        sample_size=lambda k, n: _clamp_k(_ceil_isqrt(n), n) if k is None else k,
        bound=("rks_lower", lambda n, k: rks_gap_lower_bound(n, k)),
    ),
    "simple_k_sample": MechanismKind(
        cli="simple-k",
        models=MODELS,
        param="k",
        winner=lambda spec, profile, draws: multiset_winner(profile, draws),
        sample_size=lambda k, n: _clamp_k(sks_sample_size(n) if k is None else k, n),
        bound=("sks_lower", lambda n, k: sks_gap_upper_bound(n, k)),
    ),
    "fixed_sample": MechanismKind(
        cli="fixed",
        models=MODELS,
        param="fixed_set",
        winner=lambda spec, profile, draws: fixed_sample_winner(profile, spec.fixed_set),
    ),
    "majority_default": MechanismKind(
        cli="majority-default",
        models=MODELS,
        param="default_vertex",
        winner=lambda spec, profile, draws: majority_default_winner(profile, spec.default_vertex),
        bound=("mwd_upper", lambda n, k: float(mwd_gap_upper_bound(n))),
    ),
}
