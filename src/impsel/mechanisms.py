"""Selection mechanisms and the deterministic draw stream.

Four mechanisms are provided.

``random_k_sample``
    Draw k vertices uniformly with replacement, keep the distinct set S.
    Vertices outside S nominated by someone in S form the nominee pool W.
    The winner is the pool member with the most nominations from outside
    the pool, ties to the lowest id.  No winner when the pool is empty.
    Single model only.

``simple_k_sample``
    Draw k vertices with replacement, keep the multiset.  Every vertex not
    drawn is scored by the nominations it receives from the sample, counted
    with multiplicity.  Winner is the best-scoring candidate, ties to the
    lowest id; no winner when every candidate scores zero.  Works for both
    models.

``fixed_sample``
    Like simple_k_sample but with a hard-coded sample set instead of draws.
    Deterministic.

``majority_default``
    A designated default vertex d wins unless some other vertex is
    nominated by at least ceil(n/2) of the vertices other than d, in which
    case the lowest such vertex wins.  Deterministic, always has a winner.

All randomness flows through :class:`DrawStream`, a splitmix64 generator
written out here so results are reproducible across platforms and Python
versions.  Nothing in this package touches global RNG state.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .core import MULTI, SINGLE, NominationProfile

__all__ = [
    "DrawStream",
    "derive_seed",
    "MechanismSpec",
    "MechanismTrace",
    "ModelMismatch",
    "parse_mechanism",
    "nominated_winner",
    "multiset_winner",
    "majority_default_winner",
    "run_random_k_sample",
    "run_simple_k_sample",
    "run_fixed_sample",
    "run_majority_default",
    "run_mechanism",
    "resolve_k",
    "winner_degree",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

#: Lanes per packed int: 1024 lanes of 128 bits keep each temporary at 16 KB.
_CHUNK = 1024
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
    if not 0 < n <= 1 << 64:
        raise ValueError(f"bound must be in 1..2^64, got {n}")
    return (1 << 64) - ((1 << 64) % n)


@functools.lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int, int]:
    """Constants for ``count`` 64-bit lanes packed 128 bits apart in one int.

    ``ones`` has a 1 at the bottom of each lane, ``masks`` the low 64 bits
    of each lane, ``steps`` holds ``GOLDEN * (i + 1) mod 2^64`` in lane i,
    and ``carries`` bit 64 of each lane.  The 64 spare bits per lane take
    a full 64 x 64-bit product, so no lane carries into the next.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    steps = int.from_bytes(
        b"".join(((_GOLDEN * i) & _MASK64).to_bytes(16, "little") for i in range(1, count + 1)),
        "little",
    )
    return ones, ones * _MASK64, steps, ones << 64


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

        Raw value j of the stream is ``mix(state + GOLDEN * (j + 1))`` with no
        dependence on earlier values, so a chunk of raw values is computed at
        once on 64-bit lanes of one int.  If any lane is rejected (chance
        below count * n / 2^64) the rest of the request replays one draw at
        a time, so the bytes never depend on the batching.
        """
        # a lane at or above the limit carries into bit 64 once this is added
        excess = (1 << 64) - _rejection_limit(n)
        out: list[int] = []
        while count > 0:
            lanes = min(count, _CHUNK)
            ones, masks, steps, carries = _lanes(lanes)
            z = (self._state * ones + steps) & masks
            z = (z ^ (z >> 30)) & masks
            z = (z * _MUL1) & masks
            z = (z ^ (z >> 27)) & masks
            z = (z * _MUL2) & masks
            z = (z ^ (z >> 31)) & masks
            if excess and (z + ones * excess) & carries:
                out.extend(self.next_below(n) for _ in range(count))
                return out
            words = memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS]
            out += [w % n for w in words]
            self._state = (self._state + _GOLDEN * lanes) & _MASK64
            count -= lanes
        return out


def derive_seed(master: int, index: int) -> int:
    """Stateless child seed: trial i of a run can be computed in isolation."""
    return _mix64((master + _GOLDEN * (index + 1)) & _MASK64)


class ModelMismatch(ValueError):
    """Mechanism applied to a profile model it is not defined for."""


KINDS = ("random_k_sample", "simple_k_sample", "fixed_sample", "majority_default")


@dataclass(frozen=True)
class MechanismSpec:
    """Which mechanism to run, plus its parameters.

    Exactly the parameters relevant to ``kind`` are set; the constructors
    below enforce that.  ``k=None`` on the sampling mechanisms means "pick
    the default sample size for the profile at run time".
    """

    kind: str
    k: int | None = None
    fixed_set: tuple[int, ...] | None = None
    default_vertex: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"sample size must be at least 1, got {self.k}")

    @classmethod
    def random_k(cls, k: int | None = None) -> "MechanismSpec":
        return cls("random_k_sample", k=k)

    @classmethod
    def simple_k(cls, k: int | None = None) -> "MechanismSpec":
        return cls("simple_k_sample", k=k)

    @classmethod
    def fixed(cls, sample: Iterable[int]) -> "MechanismSpec":
        sample = tuple(sorted(set(sample)))
        if not sample:
            raise ValueError("fixed sample must be non-empty")
        return cls("fixed_sample", fixed_set=sample)

    @classmethod
    def majority_default(cls, default_vertex: int) -> "MechanismSpec":
        if default_vertex < 0:
            raise ValueError(f"default vertex must be non-negative, got {default_vertex}")
        return cls("majority_default", default_vertex=default_vertex)

    @property
    def is_randomized(self) -> bool:
        return self.kind in ("random_k_sample", "simple_k_sample")

    def label(self) -> str:
        """The CLI spelling; ``parse_mechanism(spec.label()) == spec``."""
        if self.kind == "random_k_sample":
            return f"random-k:{self.k if self.k is not None else 'auto'}"
        if self.kind == "simple_k_sample":
            return f"simple-k:{self.k if self.k is not None else 'auto'}"
        if self.kind == "fixed_sample":
            return "fixed:" + ",".join(str(v) for v in self.fixed_set)
        return f"majority-default:{self.default_vertex}"


def parse_mechanism(text: str) -> MechanismSpec:
    """Parse the CLI mechanism syntax.

    ``random-k:5`` ``random-k:auto`` ``simple-k:12`` ``fixed:0,3,7``
    ``majority-default:0``
    """
    name, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"mechanism {text!r} needs a ':<arg>' part")
    try:
        if name == "random-k":
            return MechanismSpec.random_k(None if arg == "auto" else int(arg))
        if name == "simple-k":
            return MechanismSpec.simple_k(None if arg == "auto" else int(arg))
        if name == "fixed":
            return MechanismSpec.fixed(int(v) for v in arg.split(","))
        if name == "majority-default":
            return MechanismSpec.majority_default(int(arg))
    except ValueError as exc:
        if "mechanism" in str(exc):
            raise
        raise ValueError(f"bad mechanism argument in {text!r}: {exc}") from None
    raise ValueError(f"unknown mechanism {name!r}")


@dataclass(frozen=True)
class MechanismTrace:
    """One mechanism evaluation: what was sampled and who won.

    ``sample`` is the sorted draw multiset (or the fixed set); empty for
    majority_default.  ``nominated`` is the nominee pool W; only
    random_k_sample has one, the others leave it empty.  ``winner`` is None
    when the mechanism declines to pick anyone.
    """

    sample: tuple[int, ...]
    nominated: frozenset[int]
    winner: int | None


def _check_model(profile: NominationProfile, expected: str, kind: str) -> None:
    if profile.model != expected:
        raise ModelMismatch(f"{kind} is defined for the {expected} model, profile is {profile.model}")


def nominated_winner(
    profile: NominationProfile, sample: Iterable[int]
) -> tuple[frozenset[int], int | None]:
    """Nominee pool and winner for a distinct sample set S.

    W is everyone outside S nominated by a member of S; the winner
    maximizes nominations from outside W, lowest id on ties.
    """
    s = set(sample)
    out = profile.out
    pool = {v for u in s for v in out[u] if v not in s}
    if not pool:
        return frozenset(), None
    degs = profile.in_degrees
    score = {v: degs[v] for v in pool}
    # nominations from inside the pool do not count
    for u in pool:
        for v in out[u]:
            if v in score:
                score[v] -= 1
    return frozenset(pool), _argmax(score)


def _argmax(score: dict[int, int]) -> int:
    """Highest-scoring key, lowest id on ties."""
    winner, top = -1, -1
    for v, sc in score.items():
        if sc > top or (sc == top and v < winner):
            winner, top = v, sc
    return winner


def multiset_winner(profile: NominationProfile, counts: Mapping[int, int]) -> int | None:
    """Winner for a sample multiset given as vertex -> multiplicity.

    Candidates are the vertices not in the sample; each is scored by the
    sample's nominations counted with multiplicity.  None when every
    candidate scores zero.
    """
    out = profile.out
    score: dict[int, int] = {}
    for u, mult in counts.items():
        for v in out[u]:
            if v not in counts:
                score[v] = score.get(v, 0) + mult
    return _argmax(score) if score else None


def majority_default_winner(profile: NominationProfile, default_vertex: int) -> int:
    """Winner under the majority rule with default ``default_vertex``."""
    d = default_vertex
    if not 0 <= d < profile.n:
        raise ValueError(f"default vertex {d} out of range 0..{profile.n - 1}")
    threshold = (profile.n + 1) // 2
    degs = profile.in_degrees
    for v in range(profile.n):
        if v == d:
            continue
        deg = degs[v] - (1 if v in profile.out[d] else 0)
        if deg >= threshold:
            return v
    return d


def run_random_k_sample(profile: NominationProfile, k: int, stream: DrawStream) -> MechanismTrace:
    _check_model(profile, SINGLE, "random_k_sample")
    if k < 1:
        raise ValueError(f"sample size must be at least 1, got {k}")
    draws = stream.draws(k, profile.n)
    pool, winner = nominated_winner(profile, draws)
    return MechanismTrace(tuple(sorted(draws)), pool, winner)


def run_simple_k_sample(profile: NominationProfile, k: int, stream: DrawStream) -> MechanismTrace:
    k = max(1, min(k, profile.n - 1))
    draws = stream.draws(k, profile.n)
    winner = multiset_winner(profile, Counter(draws))
    return MechanismTrace(tuple(sorted(draws)), frozenset(), winner)


def run_fixed_sample(profile: NominationProfile, fixed_set: Sequence[int]) -> MechanismTrace:
    sample = tuple(sorted(set(fixed_set)))
    for v in sample:
        if not 0 <= v < profile.n:
            raise ValueError(f"fixed sample vertex {v} out of range 0..{profile.n - 1}")
    if len(sample) >= profile.n:
        raise ValueError("fixed sample must leave at least one candidate")
    winner = multiset_winner(profile, {v: 1 for v in sample})
    return MechanismTrace(sample, frozenset(), winner)


def run_majority_default(profile: NominationProfile, default_vertex: int) -> MechanismTrace:
    return MechanismTrace((), frozenset(), majority_default_winner(profile, default_vertex))


def _ceil_isqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def resolve_k(spec: MechanismSpec, n: int) -> int:
    """Concrete sample size for a sampling mechanism on an n-vertex profile."""
    if spec.kind == "random_k_sample":
        # draws are with replacement, so an explicit k may exceed n - 1
        if spec.k is not None:
            return spec.k
        return max(1, min(_ceil_isqrt(n), n - 1))
    if spec.kind == "simple_k_sample":
        if spec.k is not None:
            k = spec.k
        else:
            from .exact import sks_sample_size  # deferred, exact imports this module

            k = sks_sample_size(n)
        return max(1, min(k, n - 1))
    raise ValueError(f"{spec.kind} has no sample size")


def run_mechanism(
    spec: MechanismSpec,
    profile: NominationProfile,
    stream: DrawStream | None = None,
) -> MechanismTrace:
    """Evaluate ``spec`` once.  Randomized kinds require a stream."""
    if spec.kind == "fixed_sample":
        return run_fixed_sample(profile, spec.fixed_set)
    if spec.kind == "majority_default":
        return run_majority_default(profile, spec.default_vertex)
    if stream is None:
        raise ValueError(f"{spec.kind} needs a DrawStream")
    k = resolve_k(spec, profile.n)
    if spec.kind == "random_k_sample":
        return run_random_k_sample(profile, k, stream)
    return run_simple_k_sample(profile, k, stream)


def winner_degree(trace: MechanismTrace, profile: NominationProfile) -> int:
    """Full in-degree of the winner; 0 when nobody won."""
    if trace.winner is None:
        return 0
    return profile.in_degrees[trace.winner]
