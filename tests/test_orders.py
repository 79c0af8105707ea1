"""Monomial-order combinators: base orders, the tower order, inverse weights."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbraid import (
    EQUAL,
    GREATER,
    LESS,
    Alphabet,
    DegInLex,
    DegLex,
    ForeignLetter,
    InLex,
    Letter,
    Tower,
    Word,
    compare,
    decompose,
    is_monomial_witness,
    ranking_of,
)
from gsbraid.braid import braid_scheme
from gsbraid.orders import _is_monomial, compare_ids


def flat(names: str) -> Alphabet:
    return Alphabet([Letter(n) for n in names.split()])


def rand_word(rng: random.Random, ab: Alphabet, max_len: int = 6) -> Word:
    return Word(ab, tuple(rng.randrange(len(ab)) for _ in range(rng.randrange(max_len + 1))))


# -------------------------------------------------------------- base orders


def test_deglex_compares_degree_first():
    ab = flat("y x")  # ranks: y=0 < x=1
    spec = DegLex(ranking_of(range(2)))
    assert compare(spec, ab.word("x"), ab.word("y y")) == LESS
    assert compare(spec, ab.word("x y"), ab.word("y x")) == GREATER
    assert compare(spec, ab.word("y x"), ab.word("y y")) == GREATER  # lex at position 2


def test_inlex_compares_from_the_last_letter():
    ab = flat("y x")
    spec = InLex(ranking_of(range(2)))
    assert compare(spec, ab.word("y y x"), ab.word("x x y")) == GREATER
    # common suffix: the shorter word is smaller
    assert compare(spec, ab.word("x"), ab.word("y x")) == LESS
    assert compare(spec, ab.word(""), ab.word("y")) == LESS


def test_deginlex_degree_then_last_letter_backwards():
    ab = flat("y x")
    spec = DegInLex(ranking_of(range(2)))
    assert compare(spec, ab.word("x x"), ab.word("y y y")) == LESS
    assert compare(spec, ab.word("x y"), ab.word("y x")) == LESS  # last letters decide
    assert compare(spec, ab.word("y y x"), ab.word("x y x")) == LESS


def test_empty_word_is_minimal_under_every_base_order():
    ab = flat("y x")
    e = ab.word("")
    for spec in (DegLex(ranking_of(range(2))), InLex(ranking_of(range(2))),
                 DegInLex(ranking_of(range(2)))):
        for text in ("y", "x", "y x"):
            assert compare(spec, e, ab.word(text)) == LESS


# ----------------------------------------------------------- tower validity


def test_tower_rejects_overlapping_letter_sets():
    with pytest.raises(ValueError):
        Tower(DegLex(ranking_of([0, 1])), ranking_of([1, 2]))


def _chain(levels: int) -> Tower:
    """A tower of one-letter levels 1 < ... < levels over the base letter 0."""
    spec = DegLex(ranking_of([0]))
    for level in range(1, levels + 1):
        spec = Tower(spec, ranking_of([level]))
    return spec


def test_tower_depth_is_capped_at_512_levels():
    # each level copies and overlap-checks the levels below it, so the cap
    # bounds the cost of building a chain (and of reading one from a file)
    spec = _chain(512)
    assert compare_ids(spec, (512, 0), (0, 512)) == GREATER
    with pytest.raises(ValueError, match="tower has more than 512 levels"):
        Tower(spec, ranking_of([513]))


def test_a_512_level_tower_is_one_flat_value():
    spec = _chain(512)
    assert spec.base == DegLex({0: 0})
    assert spec.z_rankings == tuple({level: 0} for level in range(1, 513))
    assert spec == _chain(512) and spec != _chain(511)
    assert repr(spec).startswith("Tower(base=DegLex(ranking={0: 0}), z_rankings=({1: 0}, {2: 0}, ")
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert copy.deepcopy(spec) == spec


def test_scheme_letter_ranking_within_blocks():
    # within S_j: s_{1,j}^-1 < s_{1,j} < s_{2,j}^-1 < ... < s_{j-1,j}
    sch = braid_scheme(3)
    chain = ["s13^-1", "s13", "s23^-1", "s23"]
    for lo, hi in zip(chain, chain[1:]):
        assert compare(sch.order, sch.alphabet.word(lo), sch.alphabet.word(hi)) == LESS
    assert compare(sch.order, sch.alphabet.word("s12^-1"), sch.alphabet.word("s12")) == LESS
    assert compare(sch.order, sch.alphabet.word("g1^-1"), sch.alphabet.word("g2^-1")) == LESS


def test_scheme_block_chain_ranks_inner_blocks_lowest():
    # as single-letter words: S_3 letters < S_2 letters < sigma letters
    sch = braid_scheme(3)
    w = sch.alphabet.word
    assert compare(sch.order, w("s13"), w("s12")) == LESS
    assert compare(sch.order, w("s23"), w("s12^-1")) == LESS
    assert compare(sch.order, w("s12"), w("g1^-1")) == LESS
    assert compare(sch.order, w("s13"), w("g1^-1")) == LESS


# ----------------------------------------------------------------- compare


def test_compare_scheme_examples():
    sch = braid_scheme(3)
    w = sch.alphabet.word
    assert compare(sch.order, w("s12^-1"), w("s12")) == LESS
    # one sigma letter outweighs any sigma-free word
    assert compare(sch.order, w("s13"), w("g1^-1")) == LESS
    u = w("s13 g1^-1 s12")
    assert compare(sch.order, u, u) == EQUAL


def test_compare_is_reflexive_only_on_equal_words():
    rng = random.Random(3)
    sch = braid_scheme(3)
    for _ in range(300):
        u = rand_word(rng, sch.alphabet)
        v = rand_word(rng, sch.alphabet)
        c = compare(sch.order, u, v)
        assert (c == EQUAL) == (u == v)


def test_compare_rejects_foreign_letters():
    sch = braid_scheme(3)
    sub = DegLex(ranking_of([0, 1]))  # only the two lowest letters
    with pytest.raises(ForeignLetter):
        compare(sub, sch.word([0]), sch.word([5]))


def test_totality_antisymmetry_transitivity_randomized():
    rng = random.Random(17)
    sch = braid_scheme(3)
    spec = sch.order
    for _ in range(3000):
        u = rand_word(rng, sch.alphabet)
        v = rand_word(rng, sch.alphabet)
        w = rand_word(rng, sch.alphabet)
        cuv, cvw, cuw = (compare(spec, a, b) for a, b in ((u, v), (v, w), (u, w)))
        assert cuv in (LESS, EQUAL, GREATER)
        assert compare(spec, v, u) == -cuv
        if cuv != GREATER and cvw != GREATER:
            assert cuw != GREATER or (cuv == EQUAL and cvw == EQUAL)
        if cuv == LESS and cvw == LESS:
            assert cuw == LESS


# --------------------------------------------------------------- decompose


def test_decompose_mixed_word():
    sch = braid_scheme(3)
    w = sch.alphabet.word
    iw = decompose(sch.order, w("s13 g1^-1 s12"))
    assert iw.k == 1
    u1, z1, u0 = iw.components
    assert u1 == w("s12")
    assert z1.name == "g1^-1"
    assert u0 == w("s13")


def test_decompose_empty_word():
    sch = braid_scheme(3)
    iw = decompose(sch.order, sch.alphabet.empty_word())
    assert iw.k == 0
    assert iw.components == (sch.alphabet.empty_word(),)


def test_decompose_all_letters_in_z():
    sch = braid_scheme(3)
    w = sch.alphabet.word
    iw = decompose(sch.order, w("g2^-1 g1^-1"))
    assert iw.k == 2
    u2, z2, u1, z1, u0 = iw.components
    assert z2.name == "g1^-1" and z1.name == "g2^-1"
    assert u2 == u1 == u0 == sch.alphabet.empty_word()


def test_decompose_reassemble_round_trip():
    rng = random.Random(31)
    sch = braid_scheme(4)
    for _ in range(300):
        u = rand_word(rng, sch.alphabet, max_len=8)
        assert decompose(sch.order, u).reassemble() == u


def test_decompose_requires_tower_spec():
    ab = flat("x y")
    with pytest.raises(TypeError):
        decompose(DegLex(ranking_of(range(2))), ab.word("x"))


# ------------------------------------------------------- monomial property


def test_monomial_witness_on_equal_words():
    rng = random.Random(37)
    sch = braid_scheme(3)
    for _ in range(50):
        u = rand_word(rng, sch.alphabet)
        a = rand_word(rng, sch.alphabet)
        b = rand_word(rng, sch.alphabet)
        assert is_monomial_witness(sch.order, u, u, a, b)


def test_monomial_witness_scheme_example():
    sch = braid_scheme(3)
    w = sch.alphabet.word
    u = w("g1^-1 s12^-1")
    v = w("s12^-1 g1^-1")
    e = sch.alphabet.empty_word()
    assert compare(sch.order, u, v) == GREATER
    assert compare(sch.order, w("s13") * u, w("s13") * v) == GREATER
    assert is_monomial_witness(sch.order, u, v, e, e)
    assert is_monomial_witness(sch.order, u, v, w("s13"), e)


def test_monomial_witness_deglex_example():
    ab = flat("y x")
    spec = DegLex(ranking_of(range(2)))
    assert compare(spec, ab.word("y x"), ab.word("y y")) == GREATER
    assert is_monomial_witness(spec, ab.word("x"), ab.word("y"), ab.word("y"), ab.word(""))


def test_monomial_property_randomized():
    rng = random.Random(41)
    sch = braid_scheme(3)
    for _ in range(2000):
        u, v, a, b = (rand_word(rng, sch.alphabet, max_len=5) for _ in range(4))
        assert is_monomial_witness(sch.order, u, v, a, b)


def test_inlex_and_towers_over_it_are_not_monomial():
    ab = flat("y x")
    r = ranking_of(range(2))
    one, y, x = ab.word(""), ab.word("y"), ab.word("x")
    assert not is_monomial_witness(InLex(r), one, y, x, one)
    assert not _is_monomial(InLex(r))
    assert not _is_monomial(Tower(InLex(ranking_of([0])), ranking_of([1])))
    for spec in (DegLex(r), DegInLex(r), Tower(DegInLex(ranking_of([0])), ranking_of([1])),
                 braid_scheme(4).order):
        assert _is_monomial(spec)


# ------------------------------------------- compare_ids against the definition


def _base_key(base, w) -> tuple:
    ranks = [base.ranking[x] for x in w]
    if isinstance(base, InLex):
        return tuple(ranks[::-1])  # from the last letter; a proper suffix is smaller
    return (len(w), ranks if isinstance(base, DegLex) else ranks[::-1])


def _inverse_weight(w, z_ranking) -> list:
    """inwt(w) = [k, u_k, z_k, ..., u_1, z_1, u_0] for w = u_0 z_1 u_1 ... z_k u_k."""
    zs, factors = [], [[]]
    for x in w:
        if x in z_ranking:
            zs.append(x)
            factors.append([])
        else:
            factors[-1].append(x)
    weight = [len(zs)]
    for i in range(len(zs), 0, -1):
        weight += [factors[i], zs[i - 1]]
    return weight + [factors[0]]


def _reference(base, z_rankings, u, v) -> int:
    """The inverse tower order from its definition: inverse weights compared
    lexicographically, factors recursively by the tower of the levels below."""
    if not z_rankings:
        a, b = _base_key(base, u), _base_key(base, v)
        return (a > b) - (a < b)
    *below, z_ranking = z_rankings
    wu, wv = _inverse_weight(u, z_ranking), _inverse_weight(v, z_ranking)
    if wu[0] != wv[0]:
        return LESS if wu[0] < wv[0] else GREATER
    for i, (a, b) in enumerate(zip(wu[1:], wv[1:])):
        if i % 2 == 0:
            c = _reference(base, below, a, b)
        else:
            c = (z_ranking[a] > z_ranking[b]) - (z_ranking[a] < z_ranking[b])
        if c:
            return c
    return EQUAL


@st.composite
def _orders_and_words(draw):
    """A tower order, the base and Z rankings it is built from, and two words
    u = p.a.s and v = p.b.s (p, a, b, s random, so the pair often shares parts)."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        scheme = braid_scheme(n)
        levels = scheme.alphabet.levels
        size, ranked = len(levels), range(len(levels))
        kind, level_order, spec = DegInLex, [n, *range(n - 1, 1, -1), 1], scheme.order
    else:
        size, depth = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        levels = draw(st.lists(st.integers(0, depth), min_size=size, max_size=size))
        ranked = draw(st.permutations(range(size)))  # letters in ascending rank
        kind = draw(st.sampled_from([DegLex, InLex, DegInLex]))
        level_order, spec = range(depth + 1), None
    # the base's letters, then each Z level's, innermost first; a level may be empty
    groups = [ranking_of(x for x in ranked if levels[x] == lv) for lv in level_order]
    base, z_rankings = kind(groups[0]), groups[1:]
    if spec is None:
        spec = base
        for z_ranking in z_rankings:
            spec = Tower(spec, z_ranking)
    p, a, b, s = (tuple(draw(st.lists(st.integers(0, size - 1), max_size=5))) for _ in range(4))
    return spec, base, z_rankings, p + a + s, p + b + s


@settings(max_examples=500, deadline=None)
@given(_orders_and_words())
def test_compare_ids_follows_the_recursive_inverse_weight_definition(case):
    spec, base, z_rankings, u, v = case
    assert compare_ids(spec, u, v) == _reference(base, z_rankings, u, v)
