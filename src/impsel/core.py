"""Nomination graphs and the profile file format.

The shared data model for the whole package: a directed graph on ``n``
vertices with no self-loops, where an edge ``u -> v`` records that ``u``
nominates ``v``.  Two models are supported.  In the ``single`` model every
vertex names exactly one other vertex; in the ``multi`` model a vertex may
name any subset of the others, including nobody (abstention).  A profile
where every vertex abstains is a perfectly valid multi-model profile.

This module is the one owner of those rules: ``out_degrees(model, n)``
says what each model allows, and only ``NominationProfile`` checks a row,
one row at a time (its private ``_trusted`` skips that for rows verify
enumerates, and its private ``_flat`` for a nominee array that it checks
with ``_loop_free_in_range``, as 64-bit lanes).  It also owns
``checked_int``, the check of every integer input in the package.

Profiles are immutable values: a changed graph is a new profile, built
through the same checked constructor.

Vertices are the ints ``0 .. n-1``.  Out-sets are stored sorted and deduplicated so
equal graphs compare and hash equal regardless of construction order.  A profile from
``NominationProfile.single`` keeps only its nominees, in a private ``array("q")`` of 8
bytes per vertex, and builds the rows and the ``single_nominees`` tuple on first read.
In-degrees, the edge count, ``row(u)``, ``format_profile`` and ``nominee_lanes`` (which the
simple-k rule reads on up to 256 vertices) read the array; ``nominees_of``, which both
sampling rules read, and ``nominee_set``, which the random-k rule reads with it, read the
tuple, so none of them builds rows.

Profile text is read and written in bounded pieces.  ``parse_profile`` reads the header
a line at a time, then pieces of about 256 KiB: one ``json.loads`` reads a piece of plain
``<from> <to>`` lines, whatever its line ends, and the per-line rules any other, so
every spelling of a profile parses to it, and every fault has the same message and
line.  ``format_profile`` and ``write_profile`` write blocks of at most 16,384 edge lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from array import array
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import eq, lt
from typing import TextIO

__all__ = [
    "SINGLE",
    "MULTI",
    "MODELS",
    "out_degrees",
    "checked_int",
    "PROFILE_MAGIC",
    "ModelViolation",
    "ProfileFormatError",
    "NominationProfile",
    "parse_profile",
    "format_profile",
    "write_profile",
    "load_profile",
]

SINGLE = "single"
MULTI = "multi"
#: The out-degrees each model allows a vertex of an n-vertex profile.
_OUT_DEGREES = {SINGLE: lambda n: range(1, 2), MULTI: range}
MODELS = tuple(_OUT_DEGREES)

#: First line of every profile file; the trailing integer is a format version.
PROFILE_MAGIC = "impsel 1"


class ModelViolation(ValueError):
    """A graph breaks the structural rules of its declared model.

    Raised for unknown models, self-loops, vertex ids that are not ints or
    are out of range, and out-degrees the model does not allow.
    """


class ProfileFormatError(ValueError):
    """A profile file or string is syntactically malformed."""


def out_degrees(model: str, n: int) -> range:
    """The out-degrees ``model`` allows a vertex of an n-vertex profile."""
    if model not in MODELS:
        raise ModelViolation(f"unknown model {model!r}")
    return _OUT_DEGREES[model](n)


def checked_int(
    value, what: str, least: int | None = 0, most: int | None = None, error: type[ValueError] = ValueError
) -> int:
    """``value`` if it is an int (a bool is not) in ``least..most``, else ``error``.

    ``most`` None means no upper end; ``least`` None too, any int.  The messages are
    ``<what> <v!r> is not an int``, ``<what> <v> out of range <least>..<most>`` and
    ``<what> must be at least <least>, got <v>`` (``must be non-negative`` for 0)."""
    if type(value) is not int:
        raise error(f"{what} {value!r} is not an int")
    if most is not None and not least <= value <= most:
        raise error(f"{what} {value} out of range {least}..{most}")
    if least is not None and value < least:
        raise error(f"{what} must be {f'at least {least}' if least else 'non-negative'}, got {value}")
    return value


def _normalize_out(vertex: int, nominees: Iterable[int], n: int, degrees: range) -> tuple[int, ...]:
    row = tuple(nominees)
    for v in row:
        if type(v) is not int:
            raise ModelViolation(f"vertex {vertex}: nominee {v!r} is not an int")
    out = tuple(sorted(set(row)))
    for v in out:
        if not 0 <= v < n:
            raise ModelViolation(f"vertex {vertex}: nominee {v} out of range 0..{n - 1}")
    if vertex in out:
        raise ModelViolation(f"vertex {vertex}: self-loop is not allowed")
    # a loop-free row in range fits multi's 0..n-1, so only single's {1} can fail
    if len(out) not in degrees:
        raise ModelViolation(f"vertex {vertex}: single model requires out-degree exactly 1, got {len(out)}")
    return out


@dataclass(frozen=True)
class NominationProfile:
    """An immutable nomination graph.

    ``out[u]`` is the sorted tuple of vertices nominated by ``u``.  Equality
    and hashing follow ``(n, model, out)``, so structurally equal profiles
    are interchangeable as dictionary keys.  A profile from ``single`` holds
    its nominees in a private array and builds ``out`` on first read.
    """

    n: int
    model: str
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = checked_int(self.n, "vertex count", 2, error=ModelViolation)
        degrees = out_degrees(self.model, n)
        if len(self.out) != n:
            raise ModelViolation(f"out has {len(self.out)} entries for n={n}")
        object.__setattr__(self, "out", tuple(_normalize_out(u, row, n, degrees) for u, row in enumerate(self.out)))

    # ----- constructors -----

    @classmethod
    def _trusted(cls, n: int, model: str, rows: tuple[tuple[int, ...], ...]) -> "NominationProfile":
        """A profile of rows the package generated sorted and valid itself; nothing is checked."""
        profile = object.__new__(cls)
        profile.__dict__.update(n=n, model=model, out=rows)
        return profile

    @classmethod
    def _flat(cls, nominees: array) -> "NominationProfile | None":
        """A single-model profile of a nominee array ``_loop_free_in_range`` passes, else None."""
        if not _loop_free_in_range(nominees):
            return None
        profile = object.__new__(cls)
        profile.__dict__.update(n=len(nominees), model=SINGLE, _nominees=nominees)
        return profile

    @classmethod
    def single(cls, nominees: Sequence[int]) -> "NominationProfile":
        """Build a single-model profile from the list ``nominees[u] = x_u``.

        The flat list stands in for the row check: all ints by type (as an ``array("q")``
        always is), then copied to an ``array("q")`` (an int past 64 bits fails there), in
        ``0..n-1`` and no ``nominees[u] == u``, read as 64-bit lanes, 4,096 to an int.  The
        profile keeps the copy, 8 bytes per vertex, and builds its one-element rows on first
        read.  On any fault the row check runs, to name the first bad row."""
        if type(nominees) is array and nominees.typecode == "q" or {*map(type, nominees)} <= {int}:
            with contextlib.suppress(OverflowError):  # an int past 64 bits, for the row check to name
                if profile := cls._flat(array("q", nominees)):
                    return profile
        return cls(len(nominees), SINGLE, (*zip(nominees),))

    @classmethod
    def multi(
        cls,
        n: int,
        out_sets: Mapping[int, Iterable[int]] | Sequence[Iterable[int]] = (),
    ) -> "NominationProfile":
        """Build a multi-model profile; vertices missing from ``out_sets`` abstain."""
        n = checked_int(n, "vertex count", 2, error=ModelViolation)  # before the padding needs it
        if isinstance(out_sets, Mapping):
            rows = [tuple(out_sets.get(u, ())) for u in range(n)]
        else:
            rows = [tuple(r) for r in out_sets]
            rows.extend(() for _ in range(n - len(rows)))
        return cls(n, MULTI, tuple(rows))

    # ----- queries -----

    @functools.cached_property
    def in_degrees(self) -> tuple[int, ...]:
        """In-degree of every vertex, counting all edges."""
        degs = [0] * self.n
        # a flat profile counts its nominee array as one row, so its rows stay unbuilt
        flat = self.__dict__.get("_nominees")
        for nominees in self.out if flat is None else (flat,):
            for v in nominees:
                degs[v] += 1
        return tuple(degs)

    @property
    def delta(self) -> int:
        """The maximum in-degree."""
        return max(self.in_degrees)

    @functools.cached_property
    def single_nominees(self) -> tuple[int, ...]:
        """For single-model profiles, ``single_nominees[u]`` is u's nominee."""
        if self.model != SINGLE:
            raise ModelViolation("single_nominees is defined for the single model only")
        flat = self.__dict__.get("_nominees")
        return tuple(row[0] for row in self.out) if flat is None else tuple(flat)

    def row(self, u: int) -> tuple[int, ...]:
        """``out[u]``, read from the flat nominee array while the rows are not built."""
        return self.out[u] if "out" in self.__dict__ else (self._nominees[u],)

    def nominees_of(self, vertices: Iterable[int], within: Container[int] | None = None) -> list[int]:
        """The nominees of each of ``vertices`` in turn, only those in ``within`` if given,
        from the rows if they are built, else from the ``single_nominees`` tuple, so a flat
        profile builds no rows."""
        out = self.__dict__.get("out")
        if out is None:
            nominees = self.single_nominees
            if within is None:
                return [nominees[u] for u in vertices]
            return [nominees[u] for u in vertices if nominees[u] in within]
        if within is None:
            return [v for u in vertices for v in out[u]]
        return [v for u in vertices for v in out[u] if v in within]

    def nominee_set(self, vertices: Iterable[int]) -> set[int]:
        """``set(nominees_of(vertices))``, with no list between."""
        out = self.__dict__.get("out")
        if out is None:
            nominees = self.single_nominees
            return {nominees[u] for u in vertices}
        return {v for u in vertices for v in out[u]}

    @functools.cached_property
    def nominee_lanes(self) -> list[int]:
        """``nominee_lanes[u]`` has a 1 in byte v for each nominee v of u, n^2 bytes at most;
        a list, as a list's ``__getitem__`` maps faster than a tuple's."""
        flat = self.__dict__.get("_nominees")
        return [sum([1 << 8 * v for v in row]) for row in (self.out if flat is None else zip(flat))]

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield edges in sorted ``(u, v)`` order."""
        for u, nominees in enumerate(self.out):
            for v in nominees:
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return self.n if self.model == SINGLE else sum(map(len, self.out))


#: 64-bit lanes per int that ``_loop_free_in_range`` reads at a time
_LANES = 1 << 12


@functools.cache
def _lanes() -> tuple[int, int]:
    """``ones``, a 1 at the bottom of each of ``_LANES`` 64-bit lanes, and ``index``, i in lane i."""
    ones = int.from_bytes((1).to_bytes(8, "little") * _LANES, "little")  # little-endian whatever the host
    return ones, int.from_bytes(b"".join(i.to_bytes(8, "little") for i in range(_LANES)), "little")


def _loop_free_in_range(flat: array) -> bool:
    """Whether ``flat`` holds n > 1 nominees, each in ``0..n-1`` and not its own index.
    Each ``_LANES`` entries are the 64-bit lanes of one int ``x``; a lane's top bit is set in
    ``x`` if it is negative, else in ``x + top - n*ones`` (no lane carries) if it is n or more,
    and clear in ``(d & low) + low | d`` if ``d = x ^ index`` is 0 there, a self-loop.  A
    short last block reads 0 in its missing lanes, which passes."""
    n, (ones, index) = len(flat), _lanes()
    if n < _LANES:  # lanes for the one block only
        ones, index = ones >> 64 * (_LANES - n), index & (1 << 64 * n) - 1
    top = ones << 63
    low, over = top - ones, top - n * ones
    for s in range(0, n, _LANES):
        block = flat[s : s + _LANES]
        if sys.byteorder == "big":  # entry i in lane i, as in ``index``
            block.byteswap()
        x = int.from_bytes(block, "little")
        d = x ^ (index + s * ones)
        if (x | x + over) & top or ((d & low) + low | d) & top != top:
            return False
    return n > 1


# after the dataclass, so ``out`` stays a field with no default; a profile's own ``out`` shadows it
NominationProfile.out = functools.cached_property(lambda profile: (*zip(profile._nominees),))
NominationProfile.out.__set_name__(NominationProfile, "out")


# ----- file format -----
#
#   impsel 1
#   model single
#   n 3
#   # comments and blank lines are ignored
#   0 2
#   1 2
#   2 0


_NO_DIGITS = str.maketrans("", "", "0123456789")
#: Characters per piece read and edge lines per block written (see the module docstring).
_PIECE = 1 << 18
_LINES = 1 << 14


def _read(text: str, stop: float = float("inf")) -> tuple[list, list | None, array | list] | int:
    """``(header, sources, targets)``: the header lines' last words and the edges in file
    order, ``sources`` None while each edge's source is its index, ``targets`` an
    ``array("q")`` unless a target is past 64 bits; raises at the first bad or repeated
    line.  With ``stop``, the line number of the edge of index ``stop`` instead."""
    header, sources, targets = [], None, array("q")
    lineno = start = 0
    while start < len(text):
        # one line until the header is read, then cut just after the first newline at or past _PIECE
        # characters, or after a "\r" only when no "\n" follows, so that no "\r\n" pair is split
        cut = start + (len(header) == 3 and _PIECE - 1)
        end = text.find("\n", cut) + 1 or text.find("\r", cut) + 1 or len(text)
        piece, start, ends, error = text[start:end], end, None, None
        if "\r" in piece:  # CRLF and CR line ends as "\n", which splits into the same lines
            piece = piece.replace("\r\n", "\n").replace("\r", "\n")
        # "<digits> <digits>\n" lines only are read whole, unless a line number is asked for
        whole = len(header) == 3 and stop == float("inf") and piece[-1] == "\n"
        if whole and piece.translate(_NO_DIGITS) == " \n" * piece.count("\n"):
            with contextlib.suppress(ValueError):  # an empty token, a leading zero, or an int too long for int()
                ends = json.loads("[%s]" % piece[:-1].replace(" ", ",").replace("\n", ","))
                lineno += len(ends) // 2
        if ends is None:  # any other piece, line by line
            ends = []
            for lineno, line in enumerate(piece.splitlines(), lineno + 1):
                parts = (line := line.strip()).split()
                if not line or line[0] == "#":
                    continue
                if len(header) == 3:
                    if len(parts) != 2:
                        error = f"expected '<from> <to>', got {line!r}"
                    else:
                        try:
                            ends += int(parts[0]), int(parts[1])
                        except ValueError:
                            error = "edge endpoints must be integers"
                elif not header:
                    if line != PROFILE_MAGIC:
                        error = f"expected {PROFILE_MAGIC!r}, got {line!r}"
                elif len(header) == 1:
                    if len(parts) != 2 or parts[0] != "model":
                        error = "expected 'model single|multi'"
                    elif parts[1] not in MODELS:
                        error = f"unknown model {parts[1]!r}"
                elif len(parts) != 2 or parts[0] != "n":
                    error = "expected 'n <count>'"
                else:
                    try:
                        parts[1] = int(parts[1])
                    except ValueError:
                        error = f"vertex count {parts[1]!r} is not an integer"
                if error:
                    break
                if len(header) < 3:
                    header.append(parts[-1])
                elif len(targets) + len(ends) // 2 > stop:
                    return lineno
        if sources is None and not all(map(eq, ends[::2], count(len(targets)))):
            sources = [*range(len(targets))]
        if sources is not None:
            sources += ends[::2]
        try:
            targets.extend(array("q", ends[1::2]))
        except OverflowError:  # the target stays an int, for the row check to name
            targets = [*targets, *ends[1::2]]
        # at a fault or the end, the first repeated edge wins; none while sources are implicit or edges sorted
        if (error or start == len(text)) and sources is not None:
            if not all(map(lt, zip(sources, targets), islice(zip(sources, targets), 1, None))):
                first = {}
                for i, edge in enumerate(zip(sources, targets)):
                    if first.setdefault(edge, i) != i:
                        raise ProfileFormatError(f"line {_read(text, i)}: duplicate edge {edge[0]} -> {edge[1]}")
        if error:
            raise ProfileFormatError(f"line {lineno}: {error}")
    return header, sources, targets


def parse_profile(text: str) -> NominationProfile:
    """Parse the textual profile format; see the module docstring for errors."""
    header, sources, targets = _read(text)
    if len(header) < 3:
        what = ("magic line", "model line", "vertex count line")[len(header)]
        raise ProfileFormatError(f"unexpected end of input, expected {what}")
    _, model, n = header
    if sources is None and model == SINGLE and len(targets) == n:  # sources 0..n-1 in order
        # the flat store with no second copy, else ``single``, whose row check names a fault
        return type(targets) is array and NominationProfile._flat(targets) or NominationProfile.single(targets)
    sources = sources or range(len(targets))
    # only now, so a duplicate or bad line anywhere wins over a bad source
    if sources and not 0 <= min(sources) <= max(sources) < n:
        checked_int(next(u for u in sources if not 0 <= u < n), "edge source", 0, n - 1, ModelViolation)
    rows: dict[int, list[int]] = {}  # by source
    for u, v in zip(sources, targets):
        rows.setdefault(u, []).append(v)
    if model == SINGLE and len(rows) < n:  # a vertex with no row, and n may be too large to pad to
        degrees = out_degrees(SINGLE, checked_int(n, "vertex count", 2, error=ModelViolation))
        rowless = next(u for u in count() if u not in rows)
        for u in range(rowless + 1):  # the row check, which refuses the first rowless vertex
            _normalize_out(u, rows.get(u, ()), n, degrees)
    return NominationProfile(n, model, tuple(rows.get(u, ()) for u in range(n)))


def _profile_text(profile: NominationProfile) -> Iterator[str]:
    """The text of ``profile``: its header, then blocks of at most ``_LINES`` edge lines,
    each formatted by one ``%``, edges sorted by (from, to)."""
    n, model = profile.n, profile.model
    yield f"{PROFILE_MAGIC}\nmodel {model}\nn {n}\n"
    flat = profile.__dict__.get("_nominees")
    if flat is not None:  # a flat profile's block is two slice assignments
        for s in range(0, n, _LINES):
            block = [0] * 2 * (m := min(_LINES, n - s))  # frees the previous block's ints first
            block[::2], block[1::2] = range(s, s + m), flat[s : s + m]
            yield "%d %d\n" * m % (*block,)
        return
    sources = chain.from_iterable(map(repeat, range(n), map(len, profile.out)))
    ends = chain.from_iterable(zip(sources, chain.from_iterable(profile.out)))
    while block := (*islice(ends, 2 * _LINES),):
        yield "%d %d\n" * (len(block) // 2) % block
        del block  # before the next block boxes its ints


def format_profile(profile: NominationProfile) -> str:
    """Render a profile in the textual format, edges sorted by (from, to)."""
    return "".join(_profile_text(profile))


def write_profile(profile: NominationProfile, fh: TextIO) -> None:
    """Write ``format_profile(profile)`` to the text stream ``fh``, one block at a time."""
    fh.writelines(_profile_text(profile))


def load_profile(path) -> NominationProfile:
    """Read a profile file; raises ProfileFormatError / ModelViolation."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())
