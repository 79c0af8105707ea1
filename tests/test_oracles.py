"""Tests for the engine-independent equality oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbraid.oracles import (
    IndexOutOfRange,
    LaurentMatrix,
    LaurentPoly,
    Permutation,
    burau,
    perm_image,
    relator_perturb,
)


def rand_artin(rng: random.Random, n: int, max_len: int) -> tuple[int, ...]:
    gens = [s * k for k in range(1, n) for s in (1, -1)]
    return tuple(rng.choice(gens) for _ in range(rng.randrange(max_len + 1)))


# --- permutations ----------------------------------------------------------

def test_permutation_identity_and_validation():
    assert Permutation.identity(4).is_identity()
    assert str(Permutation.identity(3)) == "(1 2 3)"
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_perm_image_conventions():
    assert perm_image([], 3).is_identity()
    assert perm_image([1, 2], 3).image == (2, 3, 1)
    assert perm_image([1], 3).image == perm_image([-1], 3).image == (2, 1, 3)


def test_perm_image_of_inverse_word_is_identity():
    rng = random.Random(11)
    for _ in range(40):
        w = rand_artin(rng, 5, 12)
        inv = tuple(-x for x in reversed(w))
        assert perm_image(w + inv, 5).is_identity()


def test_perm_then_matches_concatenation():
    rng = random.Random(13)
    for _ in range(60):
        u = rand_artin(rng, 4, 8)
        v = rand_artin(rng, 4, 8)
        assert perm_image(u + v, 4).image == perm_image(u, 4).then(perm_image(v, 4)).image


def test_perm_image_validates_indices():
    for bad in ([0], [4], [-4]):
        with pytest.raises(IndexOutOfRange):
            perm_image(bad, 4)


# --- Laurent arithmetic ----------------------------------------------------

def test_laurent_poly_normalizes_and_compares_exactly():
    assert LaurentPoly({2: 0, 0: 1}) == LaurentPoly.one()
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.t() - LaurentPoly.t() == LaurentPoly.zero()
    assert LaurentPoly.t(1) * LaurentPoly.t(-1) == LaurentPoly.one()
    assert LaurentPoly({0: 1, 1: -1}) * LaurentPoly({0: 1, 1: 1}) == LaurentPoly({0: 1, 2: -1})


def test_laurent_poly_hash_agrees_with_equality():
    a = LaurentPoly({1: 2, -3: 1})
    b = LaurentPoly({-3: 1, 1: 2, 5: 0})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_laurent_poly_rendering():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly({1: -1})) == "-t"
    assert str(LaurentPoly({-1: 1})) == "t^-1"
    assert str(LaurentPoly({0: 1, 1: -1})) == "1 - t"
    assert str(LaurentPoly({2: 3})) == "3t^2"


def test_laurent_matrix_identity_is_neutral():
    rng = random.Random(17)
    m = burau(rand_artin(rng, 4, 10), 4)
    e = LaurentMatrix.identity(4)
    assert e * m == m and m * e == m
    assert m.size == 4


# --- Burau -----------------------------------------------------------------

def test_burau_generator_matrices_on_two_strands():
    one, zero, t, tinv = (LaurentPoly.one(), LaurentPoly.zero(),
                          LaurentPoly.t(), LaurentPoly.t(-1))
    assert burau([1], 2).rows == ((one - t, t), (one, zero))
    assert burau([-1], 2).rows == ((zero, one), (tinv, one - tinv))
    assert burau([1], 2, "reduced").rows == ((-t,),)


def test_burau_inverse_generators_cancel():
    for n in (2, 3, 4):
        for k in range(1, n):
            for variant in ("unreduced", "reduced"):
                assert burau([k, -k], n, variant) == burau([], n, variant)
                assert burau([-k, k], n, variant) == burau([], n, variant)


def test_burau_is_a_homomorphism():
    rng = random.Random(19)
    for _ in range(30):
        u = rand_artin(rng, 4, 8)
        v = rand_artin(rng, 4, 8)
        for variant in ("unreduced", "reduced"):
            assert (burau(u + v, 4, variant)
                    == burau(u, 4, variant) * burau(v, 4, variant))


@st.composite
def _word_pairs(draw, max_len: int = 12) -> tuple[int, list[int], list[int]]:
    """A strand count n in 2..5 and two Artin words on n strands."""
    n = draw(st.integers(2, 5))
    words = st.lists(st.sampled_from([s * k for k in range(1, n) for s in (1, -1)]),
                     max_size=max_len)
    return n, draw(words), draw(words)


def _inverse(w: list[int]) -> list[int]:
    return [-x for x in reversed(w)]


@settings(max_examples=100, deadline=None)
@given(_word_pairs())
def test_perm_image_is_a_homomorphism_property(case):
    n, u, v = case
    assert perm_image(u + v, n) == perm_image(u, n).then(perm_image(v, n))
    assert perm_image(u + _inverse(u), n).is_identity()


@settings(max_examples=40, deadline=None)
@given(_word_pairs(), st.sampled_from(["unreduced", "reduced"]))
def test_burau_is_a_homomorphism_property(case, variant):
    n, u, v = case
    assert burau(u + v, n, variant) == burau(u, n, variant) * burau(v, n, variant)
    size = n if variant == "unreduced" else n - 1
    assert burau(u + _inverse(u), n, variant) == LaurentMatrix.identity(size)


def test_burau_respects_defining_relations():
    assert burau([1, 2, 1], 3) == burau([2, 1, 2], 3)
    assert burau([1, 2, 1], 3, "reduced") == burau([2, 1, 2], 3, "reduced")
    assert burau([1, 3], 4) == burau([3, 1], 4)


def test_burau_shapes_and_validation():
    assert burau([], 5).size == 5
    assert burau([], 5, "reduced").size == 4
    with pytest.raises(ValueError):
        burau([], 3, variant="projective")
    with pytest.raises(ValueError):
        burau([], 1)
    with pytest.raises(IndexOutOfRange):
        burau([3], 3)


# --- relator perturbation ---------------------------------------------------

def test_perturbation_is_seed_deterministic():
    w = (1, 2, -3, 1, 1)
    assert relator_perturb(w, 4, seed=5) == relator_perturb(w, 4, seed=5)


def test_perturbation_changes_the_word_but_not_the_element():
    rng = random.Random(23)
    for trial in range(60):
        w = rand_artin(rng, 4, 14)
        moved = relator_perturb(w, 4, seed=trial)
        assert moved != w
        writhe = lambda word: sum(1 if x > 0 else -1 for x in word)
        assert writhe(moved) == writhe(w)  # every move preserves the writhe
        assert perm_image(moved, 4).image == perm_image(w, 4).image
        assert burau(moved, 4) == burau(w, 4)


def test_perturbation_handles_the_empty_word():
    moved = relator_perturb((), 3, seed=0)
    assert len(moved) == 2 and moved[0] == -moved[1]


def test_perturbation_reaches_multiple_move_kinds():
    w = (1, 2, 1, 3)
    outs = {relator_perturb(w, 4, seed=s) for s in range(40)}
    assert (2, 1, 2, 3) in outs          # braid move at the front
    assert any(len(o) == len(w) + 2 for o in outs)  # some insertion
    assert (1, 2, 3, 1) in outs          # far swap of the last two letters


def test_perturbation_validates_input():
    with pytest.raises(ValueError):
        relator_perturb((1,), 1, seed=0)
    with pytest.raises(IndexOutOfRange):
        relator_perturb((7,), 4, seed=0)
