"""Instance families: adversarial constructions and seeded random graphs.

The adversarial families share one shape: a designated target vertex 0
collects some number of nominations while every other vertex keeps
in-degree 0 or 1.  The arrangement of the remaining edges is fixed (a
successor chain closing back through vertex 1) so that runs are
reproducible and, for delta >= 2, vertex 0 is the unique maximum.

All generators are pure functions of their arguments; the random families
take an explicit seed and never touch global RNG state.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, gt, le

from .core import MULTI, SINGLE, NominationProfile, checked_int
from .mechanisms import DrawStream, MechanismSpec, resolve_k, rks_worst_delta

__all__ = [
    "gen_single_worst",
    "gen_fixed_sample_adversary",
    "gen_sqrt_adversary",
    "gen_bound_stress",
    "gen_random_single",
    "gen_random_multi",
    "GeneratorSpec",
    "Family",
    "FAMILIES",
    "PARAMS",
]


def gen_single_worst(n: int, delta: int) -> NominationProfile:
    """Single-model profile where vertex 0 has in-degree exactly ``delta``.

    Vertices 1..delta nominate 0.  The rest form a chain
    0 -> delta+1 -> ... -> n-1 -> 1 (just 0 -> 1 when delta = n-1), so
    every other vertex has in-degree 0 or 1 and out-degree exactly 1.
    For delta >= 2 vertex 0 is the unique maximum; for delta = 1 the
    profile is a single n-cycle and every vertex ties at in-degree 1.
    """
    n = checked_int(n, "vertex count", 2)
    checked_int(delta, "in-degree target", 1, n - 1)
    nominees = array("q", [0]) * n
    if delta == n - 1:
        nominees[0] = 1
    else:
        nominees[0] = delta + 1
        nominees[delta + 1 : n - 1] = array("q", range(delta + 2, n))
        nominees[n - 1] = 1
    return NominationProfile.single(nominees)


def gen_fixed_sample_adversary(n: int, v: int) -> NominationProfile:
    """Star into ``v``: everyone nominates v, v nominates its successor.

    Against a hard-coded sample {v} the winner is v's nominee, whose
    in-degree is 1 while v sits at n-1, so the gap is n-2.
    """
    n = checked_int(n, "vertex count", 3)
    checked_int(v, "vertex", 0, n - 1)
    nominees = [v] * n
    nominees[v] = (v + 1) % n
    return NominationProfile.single(nominees)


def gen_sqrt_adversary(n: int) -> NominationProfile:
    """Worst-case shape with in-degree target ceil(sqrt(n)/2) at vertex 0.

    The square root is taken first, then halved, then rounded up; for
    integer n that equals isqrt(n-1)//2 + 1, which avoids any float
    evaluation near the boundary.
    """
    checked_int(n, "vertex count", 4)
    delta = math.isqrt(n - 1) // 2 + 1
    return gen_single_worst(n, delta)


def gen_bound_stress(n: int, k: int) -> NominationProfile:
    """Worst-case shape at the in-degree where the k-draw guarantee is tightest."""
    return gen_single_worst(n, rks_worst_delta(n, k))


def gen_random_single(n: int, seed: int) -> NominationProfile:
    """Each vertex nominates one uniformly random other vertex."""
    checked_int(n, "vertex count", 2)
    draws = DrawStream(checked_int(seed, "seed", None)).draws(n, n - 1)
    # draw r for vertex u skips u: r if r < u else r + 1
    return NominationProfile.single(array("q", map(add, draws, map(le, range(n), draws))))


def _check_probability(p) -> None:
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
        raise ValueError(f"edge probability {p!r} out of range [0, 1]")


def gen_random_multi(n: int, p: float, seed: int) -> NominationProfile:
    """Each ordered non-self pair is an edge independently with probability p."""
    checked_int(n, "vertex count", 2)
    _check_probability(p)
    stream = DrawStream(checked_int(seed, "seed", None))
    scale = 1 << 53
    cutoff = p * scale
    rows = []
    for u in range(n):
        # draw j decides the edge to the j-th vertex other than u
        draws = stream.draws(n - 1, scale)
        rows.append(tuple(compress(chain(range(u), range(u + 1, n)), map(gt, repeat(cutoff), draws))))
    return NominationProfile(n, MULTI, tuple(rows))


@dataclass(frozen=True)
class Family:
    """One instance family.  ``build(n, params, seed)`` is the only place it is
    instantiated; ``params`` are the ``PARAMS`` keys it takes, ``required`` those
    it needs, and ``seeded`` says whether it needs an instance seed."""

    model: str
    build: Callable[[int, dict, int | None], NominationProfile]
    params: frozenset[str] = frozenset()
    required: frozenset[str] = frozenset()
    seeded: bool = False


# Optional parameters resolve at build time: single-worst defaults delta to
# n-1 (the star into vertex 0), bound-stress defaults k to random-k's default
# sample size, fixed-sample-adversary and star default v to 0.
FAMILIES: dict[str, Family] = {
    "single-worst": Family(
        SINGLE, lambda n, params, seed: gen_single_worst(n, params.get("delta", n - 1)), frozenset({"delta"})
    ),
    "fixed-sample-adversary": Family(
        SINGLE, lambda n, params, seed: gen_fixed_sample_adversary(n, params.get("v", 0)), frozenset({"v"})
    ),
    "sqrt-adversary": Family(SINGLE, lambda n, params, seed: gen_sqrt_adversary(n)),
    "bound-stress": Family(
        SINGLE,
        lambda n, params, seed: gen_bound_stress(n, resolve_k(MechanismSpec.random_k(params.get("k")), n)),
        frozenset({"k"}),
    ),
    "random-single": Family(SINGLE, lambda n, params, seed: gen_random_single(n, seed), seeded=True),
    "random-multi": Family(
        MULTI,
        lambda n, params, seed: gen_random_multi(n, params["p"], seed),
        frozenset({"p"}),
        frozenset({"p"}),
        seeded=True,
    ),
}
FAMILIES["star"] = FAMILIES["fixed-sample-adversary"]

# parameter -> (type, least value, help text); p is also at most 1
PARAMS: dict[str, tuple[type, int, str]] = {
    "delta": (int, 1, "in-degree target"),
    "k": (int, 1, "sample size the instance stresses"),
    "v": (int, 0, "target vertex"),
    "p": (float, 0, "edge probability"),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A family name plus its parameters (sorted pairs: hashable, picklable), buildable at any n."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; known: {', '.join(sorted(FAMILIES))}"
            )
        family = FAMILIES[self.family]
        params = tuple(sorted((str(key), value) for key, value in self.params))
        object.__setattr__(self, "params", params)
        keys = [key for key, _ in params]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate parameter for family {self.family}")
        for key in keys:
            if key not in family.params:
                raise ValueError(
                    f"family {self.family} does not take parameter {key!r}"
                    + (f"; allowed: {', '.join(sorted(family.params))}" if family.params else "")
                )
        for key in family.required:
            if key not in keys:
                raise ValueError(f"family {self.family} requires parameter {key!r}")
        for key, value in params:
            if key != "p":
                checked_int(value, f"parameter {key}", PARAMS[key][1])
            else:
                _check_probability(value)

    @classmethod
    def from_mapping(cls, family: str, params: Mapping[str, object] = ()) -> "GeneratorSpec":
        return cls(family, tuple(dict(params).items()))

    @property
    def model(self) -> str:
        return FAMILIES[self.family].model

    @property
    def needs_seed(self) -> bool:
        return FAMILIES[self.family].seeded

    def label(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={v}" for k, v in self.params)

    def build(self, n: int, instance_seed: int | None = None) -> NominationProfile:
        """Instantiate the family at ``n``; seeded families require a seed."""
        if self.needs_seed:
            if instance_seed is None:
                raise ValueError(f"family {self.family} requires an instance seed")
        elif instance_seed is not None:
            raise ValueError(f"family {self.family} is deterministic; no seed applies")
        return FAMILIES[self.family].build(n, dict(self.params), instance_seed)
