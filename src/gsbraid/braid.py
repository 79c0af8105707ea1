"""Braid groups B_n presented on pure-braid and inverse Artin generators.

The scheme for n strands has letters s_{i,j} and s_{i,j}^-1 for
1 <= i < j <= n (the standard pure-braid generators and their inverse
partners, level j) plus the inverse Artin generators g_k^-1
(= sigma_k^-1) for 1 <= k <= n-1 (level 1, unpaired).
As a semigroup these generate B_n, since sigma_i = s_{i,i+1} . sigma_i^-1.
Letter names follow the CLI spelling: ``s{i}{j}``, ``s{i}{j}^-1``,
``g{k}^-1``.

The monomial order is the inverse tower order over the block chain
S_n < S_{n-1} < ... < S_2 < Sigma^-1, with deg-inlex on the innermost
S_n-words; within S_j the letters rank
s_{1,j}^-1 < s_{1,j} < s_{2,j}^-1 < ... < s_{j-1,j}, and
sigma_1^-1 < ... < sigma_{n-1}^-1.

``artin_markov(n)`` instantiates the seventeen relation families over all
valid indices and signs, each oriented with its left-hand side as the
order-leading word (construction fails loudly otherwise).  Braces {a, b}
are expanded literally to b^-1 a b.  An ArtinWord is a sequence of signed
integers, +k for sigma_k and -k for sigma_k^-1.

Three details of the family statements are pinned down here because they
are easy to garble and the overlap computations downstream force them:
the commuting relation for sigma_i^-1 and s_{i,i+1} keeps the SAME index
i on both sides; the cascade family reads
sigma_j^-1 . (sigma_k^-1 ... sigma_j^-1) =
(sigma_k^-1 ... sigma_j^-1) . sigma_{j-1}^-1 for k < j; and the tail of
family (4) conjugates by s_{i,j}^-1 (see the comment at its definition),
the unique choice whose expansion is irreducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .freealg import Alphabet, Letter, Word
from .oracles import ArtinWord, _check_index
from .orders import DegInLex, OrderSpec, Tower, ranking_of
from .reduction import DEFAULT_FUEL, DEFAULT_STRATEGY, Presentation, word_nf


@dataclass(frozen=True)
class BraidScheme:
    """Alphabet, order, and letter lookup tables for B_n."""

    n: int
    alphabet: Alphabet
    order: OrderSpec
    order_text: str
    s_ids: Mapping[tuple[int, int, int], int]  # (i, j, sign) -> letter id
    g_ids: Mapping[int, int]                   # k -> id of g_k^-1
    s_of: Mapping[int, tuple[int, int, int]] = field(default_factory=dict)  # id -> (i, j, sign)
    g_of: Mapping[int, int] = field(default_factory=dict)                   # id -> k

    def s(self, i: int, j: int, sign: int = 1) -> int:
        return self.s_ids[(i, j, sign)]

    def g_inv(self, k: int) -> int:
        return self.g_ids[k]

    def word(self, ids: Sequence[int]) -> Word:
        return Word(self.alphabet, tuple(ids))


@functools.lru_cache(maxsize=None)
def braid_scheme(n: int) -> BraidScheme:
    """The Artin-Burau letter scheme and inverse tower order for B_n (n >= 1)."""
    if n < 1:
        raise ValueError("strand count must be >= 1")
    letters: list[Letter] = []
    blocks: dict[int, list[int]] = {}
    s_ids: dict[tuple[int, int, int], int] = {}
    g_ids: dict[int, int] = {}
    for j in range(n, 1, -1):  # S_n block ranks lowest
        block: list[int] = []
        for i in range(1, j):
            s_ids[(i, j, -1)] = len(letters)
            block.append(len(letters))
            letters.append(Letter(f"s{i}{j}^-1", level=j, inverse=f"s{i}{j}"))
            s_ids[(i, j, 1)] = len(letters)
            block.append(len(letters))
            letters.append(Letter(f"s{i}{j}", level=j, inverse=f"s{i}{j}^-1"))
        blocks[j] = block
    sigma_block: list[int] = []
    for k in range(1, n):
        g_ids[k] = len(letters)
        sigma_block.append(len(letters))
        letters.append(Letter(f"g{k}^-1", level=1))
    alphabet = Alphabet(letters)
    order: OrderSpec = DegInLex(ranking_of(blocks.get(n, [])))
    for j in range(n - 1, 1, -1):
        order = Tower(order, ranking_of(blocks[j]))
    if n >= 2:
        order = Tower(order, ranking_of(sigma_block))
    text = "deginlex" if n < 2 else (
        "tower(deginlex(S%d)%s, sigma)" % (n, "".join(f", S{j}" for j in range(n - 1, 1, -1))))
    return BraidScheme(
        n=n, alphabet=alphabet, order=order, order_text=text, s_ids=s_ids, g_ids=g_ids,
        s_of={v: k for k, v in s_ids.items()},
        g_of={v: k for k, v in g_ids.items()},
    )


def _brace(scheme: BraidScheme, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """{a, b} = b^-1 a b on raw letter ids, expanded with no cancellation."""
    inv = scheme.alphabet.inverse
    return tuple(inv[x] for x in reversed(b)) + tuple(a) + tuple(b)


def _artin_markov_triples(n: int) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """(family label, LHS ids, RHS ids) for every relation instance of B_n."""
    sch = braid_scheme(n)
    s, g = sch.s, sch.g_inv
    out: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    signs = (1, -1)

    # (1): sigma_k^-1 commutes with s_{i,j} when k touches neither strand
    for i, j in combinations(range(1, n + 1), 2):
        for k in range(1, n):
            if k in (i - 1, i, j - 1, j):
                continue
            for d in signs:
                out.append(("1", (g(k), s(i, j, d)), (s(i, j, d), g(k))))
    # (2): sigma_i^-1 commutes with s_{i,i+1}
    for i in range(1, n):
        for d in signs:
            out.append(("2", (g(i), s(i, i + 1, d)), (s(i, i + 1, d), g(i))))
    # (3): sigma_{i-1}^-1 . s_{i,j} = s_{i-1,j} . sigma_{i-1}^-1
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            for d in signs:
                out.append(("3", (g(i - 1), s(i, j, d)), (s(i - 1, j, d), g(i - 1))))
    # (4): sigma_i^-1 . s_{i,j} = {s_{i+1,j}, s_{i,j}^-1} . sigma_i^-1, j > i+1.
    # The conjugator must be s_{i,j}^-1, not s_{i,i+1}: the two braces agree
    # as group elements (conjugating s_{i+1,j} by s_{i,i+1} equals conjugating
    # by s_{i,j}^-1, one of the standard strand-pushing identities), but only
    # this form has an irreducible tail, which interreducedness requires.
    for i in range(1, n):
        for j in range(i + 2, n + 1):
            for d in signs:
                rhs = _brace(sch, (s(i + 1, j, d),), (s(i, j, -1),)) + (g(i),)
                out.append(("4", (g(i), s(i, j, d)), rhs))
    # (5): sigma_{j-1}^-1 . s_{i,j} = s_{i,j-1} . sigma_{j-1}^-1, i < j-1
    for j in range(3, n + 1):
        for i in range(1, j - 1):
            for d in signs:
                out.append(("5", (g(j - 1), s(i, j, d)), (s(i, j - 1, d), g(j - 1))))
    # (6): sigma_j^-1 . s_{i,j} = {s_{i,j+1}, s_{j,j+1}} . sigma_j^-1, i < j <= n-1
    for j in range(2, n):
        for i in range(1, j):
            for d in signs:
                rhs = _brace(sch, (s(i, j + 1, d),), (s(j, j + 1, 1),)) + (g(j),)
                out.append(("6", (g(j), s(i, j, d)), rhs))
    # (7)-(10): s_{j,k}^{+-1} past s_{k,l} and s_{j,l}, j < k < l
    for j, k, l in combinations(range(1, n + 1), 3):
        for e in signs:
            out.append(("7", (s(j, k, -1), s(k, l, e)),
                        _brace(sch, (s(k, l, e),), (s(j, l, -1),)) + (s(j, k, -1),)))
        for e in signs:
            out.append(("8", (s(j, k, 1), s(k, l, e)),
                        _brace(sch, (s(k, l, e),), (s(j, l, 1), s(k, l, 1))) + (s(j, k, 1),)))
        for e in signs:
            out.append(("9", (s(j, k, -1), s(j, l, e)),
                        _brace(sch, (s(j, l, e),), (s(k, l, -1), s(j, l, -1))) + (s(j, k, -1),)))
        for e in signs:
            out.append(("10", (s(j, k, 1), s(j, l, e)),
                        _brace(sch, (s(j, l, e),), (s(k, l, 1),)) + (s(j, k, 1),)))
    # (11)-(12): s_{i,k}^{+-1} past s_{j,l}, i < j < k < l
    for i, j, k, l in combinations(range(1, n + 1), 4):
        for e in signs:
            out.append(("11", (s(i, k, -1), s(j, l, e)),
                        _brace(sch, (s(j, l, e),),
                               (s(k, l, 1), s(i, l, 1), s(k, l, -1), s(i, l, -1))) + (s(i, k, -1),)))
        for e in signs:
            out.append(("12", (s(i, k, 1), s(j, l, e)),
                        _brace(sch, (s(j, l, e),),
                               (s(i, l, -1), s(k, l, -1), s(i, l, 1), s(k, l, 1))) + (s(i, k, 1),)))
    # (13): nested (j < i < k < l) or disjoint (i < k < j < l) index pairs commute
    for a, b, c, m in combinations(range(1, n + 1), 4):
        for i, k, j, l in ((b, c, a, m), (a, b, c, m)):
            for d in signs:
                for e in signs:
                    out.append(("13", (s(i, k, d), s(j, l, e)), (s(j, l, e), s(i, k, d))))
    # (14): far Artin inverses commute, j < k-1
    for j in range(1, n - 1):
        for k in range(j + 2, n):
            out.append(("14", (g(j), g(k)), (g(k), g(j))))
    # (15): sigma_j^-1 . (sigma_k^-1 ... sigma_j^-1) = (sigma_k^-1 ... sigma_j^-1) . sigma_{j-1}^-1, k < j
    for j in range(2, n):
        for k in range(1, j):
            run = tuple(g(m) for m in range(k, j + 1))
            out.append(("15", (g(j),) + run, run + (g(j - 1),)))
    # (16): sigma_i^-2 = s_{i,i+1}^-1
    for i in range(1, n):
        out.append(("16", (g(i), g(i)), (s(i, i + 1, -1),)))
    # (17): free cancellation of the paired letters
    for i, j in combinations(range(1, n + 1), 2):
        out.append(("17", (s(i, j, 1), s(i, j, -1)), ()))
        out.append(("17", (s(i, j, -1), s(i, j, 1)), ()))
    return out


@functools.lru_cache(maxsize=None)
def artin_markov(n: int) -> Presentation:
    """The full instantiated relation system for B_n, n >= 2.

    Every instance is oriented with the two-sided-greater word on the
    left; Presentation.from_oriented rejects any instance where the order
    disagrees, so a wrong order or a wrong relation cannot slip through.
    """
    if n < 2:
        raise ValueError("the relation system needs n >= 2")
    sch = braid_scheme(n)
    triples = _artin_markov_triples(n)
    pairs = [(sch.word(lhs), sch.word(rhs)) for _, lhs, rhs in triples]
    families = [fam for fam, _, _ in triples]
    return Presentation.from_oriented(sch.alphabet, sch.order, pairs, families,
                                      order_text=sch.order_text)


def artin_to_s(w: ArtinWord, scheme: BraidScheme) -> Word:
    """Rewrite an Artin word over the scheme letters: sigma_i = s_{i,i+1} . sigma_i^-1."""
    ids: list[int] = []
    for x in w:
        k = _check_index(x, scheme.n)
        if x < 0:
            ids.append(scheme.g_inv(k))
        else:
            ids.append(scheme.s(k, k + 1, 1))
            ids.append(scheme.g_inv(k))
    return scheme.word(ids)


def s_to_artin(w: Word, scheme: BraidScheme) -> tuple[int, ...]:
    """Letterwise substitution by the defining Artin expressions.

    s_{i,j} becomes sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1
    ... sigma_{j-1}^-1; the inverse letter becomes the formal inverse of
    that expression; no simplification is performed.
    """
    out: list[int] = []
    for x in w.letters:
        if x in scheme.g_of:
            out.append(-scheme.g_of[x])
            continue
        i, j, sign = scheme.s_of[x]
        wrap = list(range(j - 1, i, -1))
        out.extend(wrap)
        out.extend((sign * i, sign * i))
        out.extend(-m for m in reversed(wrap))
    return tuple(out)


def braid_nf(w: ArtinWord, n: int, fuel: int = DEFAULT_FUEL,
             strategy: str = DEFAULT_STRATEGY) -> Word:
    """Normal form of an Artin word in the scheme letters; unique per group element.

    Equals word_nf of the converted word under any rewrite strategy; the
    default, the same as word_nf's, is the passage-coherent rightmost
    scheduler.  Its path length is not near-linear in general: it takes
    28,581 steps on the B_3 power (sigma_1 sigma_2^-1)^64, where leftmost
    takes 483, and exhausts the default fuel on the B_4 power
    (sigma_2 sigma_1^-1 sigma_3^-1 sigma_2)^10, where leftmost takes
    55,026; on random words neither schedule always wins.  The flat
    canonical schedule can need astronomically many steps on inputs of a
    few dozen crossings.
    """
    if n < 2:
        raise ValueError("braid normal forms need n >= 2")
    return word_nf(artin_to_s(w, braid_scheme(n)), artin_markov(n), fuel, strategy)
