"""Monomial orders on free-monoid words.

Four order specs are provided:

- DegLex: compare by length, then letter ranks from the first position.
- InLex: compare letter ranks from the LAST position backwards; on a
  common suffix the shorter word is smaller (the empty word is minimal).
- DegInLex: compare by length, then from the last position backwards.
- Tower: the inverse tower order over a partitioned alphabet X = Y u Z.
  A word factors uniquely as u = u_0 z_1 u_1 ... z_k u_k with z_i in Z and
  u_i free of Z letters; its inverse weight is the tuple
  inwt(u) = (k, u_k, z_k, ..., u_1, z_1, u_0), and words compare by their
  inverse weights lexicographically: k as integers, factors u_i by the
  Y order (itself possibly a Tower), letters z_i by the Z ranking.
  A chain of towers is stored flat: one base order and the tuple of Z
  rankings, innermost first, and compared by one loop down that tuple.

Rankings map letter ids to rank integers; a larger rank is a larger
letter.  Every spec is an immutable value; ``compare`` returns one of the
module constants LESS, EQUAL, GREATER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .freealg import Word

LESS, EQUAL, GREATER = -1, 0, 1

# a Tower copies and overlap-checks the levels below it, so a chain costs the
# square of its length to build; the reader refuses deeper nests as it reads
_MAX_TOWER_LEVELS = 512


class ForeignLetter(ValueError):
    """Raised when a word contains a letter outside the order's alphabet."""


def ranking_of(ids: Iterable[int]) -> dict[int, int]:
    """Ranking that orders the given ids ascending in iteration order."""
    return {x: r for r, x in enumerate(ids)}


@dataclass(frozen=True)
class DegLex:
    ranking: Mapping[int, int]


@dataclass(frozen=True)
class InLex:
    ranking: Mapping[int, int]


@dataclass(frozen=True)
class DegInLex:
    ranking: Mapping[int, int]


@dataclass(frozen=True, init=False)
class Tower:
    """Tower(y_order, z_ranking), stored flat: the base order under y_order, and
    the Z rankings of y_order's levels, innermost first, then z_ranking."""

    base: DegLex | InLex | DegInLex
    z_rankings: tuple[Mapping[int, int], ...]

    def __init__(self, y_order: "OrderSpec", z_ranking: Mapping[int, int]):
        base, below = _levels(y_order)
        if len(below) >= _MAX_TOWER_LEVELS:
            raise ValueError(f"tower has more than {_MAX_TOWER_LEVELS} levels")
        z = z_ranking.keys()
        overlap = set(z & base.ranking.keys()).union(*(z & r.keys() for r in below))
        if overlap:
            raise ValueError(f"tower Y and Z letter sets overlap: {sorted(overlap)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "z_rankings", below + (z_ranking,))


OrderSpec = Union[DegLex, InLex, DegInLex, Tower]


def _levels(spec: OrderSpec) -> tuple[DegLex | InLex | DegInLex, tuple[Mapping[int, int], ...]]:
    """The base order and the Z rankings (innermost first) of any spec."""
    return (spec.base, spec.z_rankings) if isinstance(spec, Tower) else (spec, ())


@dataclass(frozen=True)
class InverseWeight:
    """The tuple (k, u_k, z_k, ..., u_1, z_1, u_0) of a word under a Tower spec.

    components holds Words at even positions and Z Letters at odd ones,
    in exactly the displayed order; components[-1] is u_0.
    """

    k: int
    components: tuple

    def reassemble(self) -> Word:
        parts = list(self.components)[::-1]  # u_0, z_1, u_1, ..., z_k, u_k
        alphabet = parts[0].alphabet
        letters: list[int] = []
        for i, piece in enumerate(parts):
            if i % 2 == 0:
                letters.extend(piece.letters)
            else:
                letters.append(alphabet.id_of(piece.name))
        return Word(alphabet, tuple(letters))


def domain(spec: OrderSpec) -> frozenset[int]:
    """The set of letter ids the spec can compare."""
    base, z_rankings = _levels(spec)
    return frozenset(base.ranking).union(*z_rankings)


def _is_monomial(spec: OrderSpec) -> bool:
    """Whether u < v implies a.u.b < a.v.b for all words a, b.

    DegLex, DegInLex and towers over them are monomial.  InLex is not once
    it has two letters (with y < x: 1 < y but x > x.y), and neither is a
    tower over it; both answer False here.
    """
    return not isinstance(_levels(spec)[0], InLex)


def _split(letters: tuple[int, ...], z_ranking: Mapping[int, int]):
    """Partition a raw word into Z letters and the Z-free factors between them."""
    zs: list[int] = []
    factors: list[tuple[int, ...]] = []
    cur: list[int] = []
    for x in letters:
        if x in z_ranking:
            zs.append(x)
            factors.append(tuple(cur))
            cur = []
        else:
            cur.append(x)
    factors.append(tuple(cur))
    return zs, factors


def compare_ids(spec: OrderSpec, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Comparison on raw letter-id tuples; membership validation is the caller's job."""
    spec, z_rankings = _levels(spec)
    # from the outermost level in: equal factors compare EQUAL, so only the
    # first differing factor pair from the right goes on to the next level
    for zrank in reversed(z_rankings):
        if zrank.keys().isdisjoint(u) and zrank.keys().isdisjoint(v):
            continue
        zu, fu = _split(u, zrank)
        zv, fv = _split(v, zrank)
        if len(zu) != len(zv):
            return LESS if len(zu) < len(zv) else GREATER
        i = len(zu)
        while i and fu[i] == fv[i]:
            ru, rv = zrank[zu[i - 1]], zrank[zv[i - 1]]
            if ru != rv:
                return LESS if ru < rv else GREATER
            i -= 1
        u, v = fu[i], fv[i]
    rank = spec.ranking
    if isinstance(spec, (DegLex, DegInLex)):
        if len(u) != len(v):
            return LESS if len(u) < len(v) else GREATER
        pairs = zip(u, v) if isinstance(spec, DegLex) else zip(reversed(u), reversed(v))
        for a, b in pairs:
            if a != b:
                return LESS if rank[a] < rank[b] else GREATER
        return EQUAL
    # InLex: from the last letter backwards; on a common suffix, shorter is smaller
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return LESS if rank[a] < rank[b] else GREATER
    if len(u) != len(v):
        return LESS if len(u) < len(v) else GREATER
    return EQUAL


def _check_domain(spec: OrderSpec, w: Word) -> None:
    dom = domain(spec)
    for x in w.letters:
        if x not in dom:
            raise ForeignLetter(f"letter {w.alphabet.letters[x].name!r} is outside the order's alphabet")


def compare(spec: OrderSpec, u: Word, v: Word) -> int:
    """Strict total order; returns LESS, EQUAL, or GREATER (EQUAL iff u = v letterwise)."""
    _check_domain(spec, u)
    _check_domain(spec, v)
    return compare_ids(spec, u.letters, v.letters)


def decompose(spec: Tower, w: Word) -> InverseWeight:
    """The inverse weight of w under a Tower spec."""
    if not isinstance(spec, Tower):
        raise TypeError("decompose requires a Tower spec")
    _check_domain(spec, w)
    zs, factors = _split(w.letters, spec.z_rankings[-1])
    alphabet = w.alphabet
    components: list = []
    for i in range(len(zs), 0, -1):
        components += [Word(alphabet, factors[i]), alphabet.letters[zs[i - 1]]]
    components.append(Word(alphabet, factors[0]))
    return InverseWeight(k=len(zs), components=tuple(components))


def is_monomial_witness(spec: OrderSpec, u: Word, v: Word, a: Word, b: Word) -> bool:
    """One probe of the monomial-order property: compare(u,v) == compare(a.u.b, a.v.b)."""
    return compare(spec, u, v) == compare(spec, a * u * b, a * v * b)
