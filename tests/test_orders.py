"""Monomial-order combinators: base orders, the tower order, inverse weights."""

from __future__ import annotations

import random

import pytest

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


def test_tower_depth_is_capped_at_512_levels():
    # comparisons recurse once per level, so the cap keeps them off the stack limit
    spec = DegLex(ranking_of([0]))
    for level in range(1, 513):
        spec = Tower(spec, ranking_of([level]))
    assert compare_ids(spec, (512, 0), (0, 512)) == GREATER
    with pytest.raises(ValueError, match="tower has more than 512 levels"):
        Tower(spec, ranking_of([513]))


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
