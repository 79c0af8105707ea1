"""Tests for the braid letter scheme, relation system, and normal forms."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from gsbraid.braid import (
    artin_markov,
    artin_to_s,
    braid_nf,
    braid_scheme,
    s_to_artin,
)
from gsbraid.freealg import Word
from gsbraid.gsb import verify_gsb, verify_minimal
from gsbraid.oracles import IndexOutOfRange, burau, perm_image, relator_perturb
from gsbraid.reduction import FuelExhausted, word_nf

SCH3 = braid_scheme(3)
SCH4 = braid_scheme(4)
S3 = artin_markov(3)
S4 = artin_markov(4)


def rand_artin(rng: random.Random, n: int, max_len: int) -> tuple[int, ...]:
    gens = [s * k for k in range(1, n) for s in (1, -1)]
    return tuple(rng.choice(gens) for _ in range(rng.randrange(max_len + 1)))


def _tail(S, i: int) -> Word:
    lead = S.lead(i)
    (t,) = [t for t in S.relations[i].terms if t != lead.letters]
    return Word(S.alphabet, t)


# --- scheme ---------------------------------------------------------------

def test_scheme_rejects_zero_strands():
    with pytest.raises(ValueError):
        braid_scheme(0)


def test_scheme_one_strand_is_empty():
    sch = braid_scheme(1)
    assert len(sch.alphabet) == 0
    assert sch.order_text == "deginlex"


def test_scheme_letter_counts():
    for n in (2, 3, 4, 5):
        assert len(braid_scheme(n).alphabet) == n * n - 1


def test_scheme_letter_names_levels_and_pairing():
    ab = SCH3.alphabet
    sid = SCH3.s(1, 3, 1)
    assert ab[sid].name == "s13" and ab[sid].level == 3
    assert ab.inverse[sid] == SCH3.s(1, 3, -1)
    assert ab[SCH3.s(2, 3, -1)].name == "s23^-1"
    gid = SCH3.g_inv(2)
    assert ab[gid].name == "g2^-1" and ab[gid].level == 1
    assert ab.inverse[gid] is None


def test_scheme_lookup_tables_are_inverse_maps():
    for n in (2, 3, 4):
        sch = braid_scheme(n)
        assert all(sch.s_of[v] == k for k, v in sch.s_ids.items())
        assert all(sch.g_of[v] == k for k, v in sch.g_ids.items())


# --- relation system ------------------------------------------------------

def test_relation_census_small_strand_counts():
    assert dict(Counter(S3.families)) == {
        "2": 4, "3": 2, "4": 2, "5": 2, "6": 2, "7": 2, "8": 2, "9": 2,
        "10": 2, "15": 1, "16": 2, "17": 6}
    assert len(S3.relations) == 29
    assert dict(Counter(S4.families)) == {
        "1": 6, "2": 6, "3": 6, "4": 6, "5": 6, "6": 6, "7": 8, "8": 8,
        "9": 8, "10": 8, "11": 2, "12": 2, "13": 8, "14": 1, "15": 3,
        "16": 3, "17": 12}
    assert len(S4.relations) == 99
    assert dict(Counter(artin_markov(2).families)) == {"2": 2, "16": 1, "17": 2}


def test_three_letter_families_already_appear_on_three_strands():
    # the families rewriting s_{j,k}^{+-1} past s_{k,l}/s_{j,l} need only
    # three strand indices, so they are present from n = 3 on
    present = set(S3.families)
    assert {"7", "8", "9", "10"} <= present
    assert {"1", "11", "12", "13", "14"}.isdisjoint(present)


def test_relation_system_is_binomial_and_needs_two_strands():
    assert S3.binomial and S4.binomial
    with pytest.raises(ValueError):
        artin_markov(1)


def test_five_strand_system_constructs_oriented():
    # construction itself asserts every left side is the order-leading word
    S5 = artin_markov(5)
    assert len(S5.relations) == sum(Counter(S5.families).values())
    assert S5.binomial


def test_every_relation_holds_under_independent_oracles():
    # expand both sides of every relation instance to Artin words and
    # compare their images under representations that never touch the
    # rewriting engine; the reduced Burau image is faithful on 3 strands
    for i in range(len(S3.relations)):
        lhs, rhs = s_to_artin(S3.lead(i), SCH3), s_to_artin(_tail(S3, i), SCH3)
        assert perm_image(lhs, 3).image == perm_image(rhs, 3).image
        assert burau(lhs, 3, "reduced") == burau(rhs, 3, "reduced")
    for i in range(len(S4.relations)):
        lhs, rhs = s_to_artin(S4.lead(i), SCH4), s_to_artin(_tail(S4, i), SCH4)
        assert perm_image(lhs, 4).image == perm_image(rhs, 4).image
        assert burau(lhs, 4) == burau(rhs, 4)


def test_every_relation_reaches_a_common_normal_form():
    for S, sch, n in ((S3, SCH3, 3), (S4, SCH4, 4)):
        for i in range(len(S.relations)):
            lhs = braid_nf(s_to_artin(S.lead(i), sch), n)
            rhs = braid_nf(s_to_artin(_tail(S, i), sch), n)
            assert lhs == rhs, (n, S.families[i])


# --- word conversion ------------------------------------------------------

def test_positive_artin_generator_splits_into_pair():
    assert artin_to_s([1], SCH3) == SCH3.alphabet.word("s12 g1^-1")
    assert artin_to_s([-2], SCH3) == SCH3.alphabet.word("g2^-1")
    assert artin_to_s([], SCH3) == SCH3.alphabet.empty_word()


def test_artin_conversion_validates_indices():
    for bad in ([0], [3], [-3]):
        with pytest.raises(IndexOutOfRange):
            artin_to_s(bad, SCH3)


def test_scheme_letters_expand_to_conjugated_squares():
    w = SCH3.alphabet.word
    assert s_to_artin(w("s12"), SCH3) == (1, 1)
    assert s_to_artin(w("s13"), SCH3) == (2, 1, 1, -2)
    assert s_to_artin(w("s13^-1"), SCH3) == (2, -1, -1, -2)
    assert s_to_artin(w("g2^-1"), SCH3) == (-2,)
    assert s_to_artin(w(""), SCH3) == ()


def test_expansion_round_trip_preserves_the_element():
    rng = random.Random(331)
    for _ in range(60):
        w = rand_artin(rng, 4, 10)
        back = s_to_artin(artin_to_s(w, SCH4), SCH4)
        assert burau(back, 4) == burau(w, 4)


# --- normal forms ---------------------------------------------------------

def test_braid_nf_base_cases():
    assert braid_nf([], 3) == SCH3.alphabet.empty_word()
    assert braid_nf([1, -1], 3) == SCH3.alphabet.empty_word()
    assert braid_nf([-2, 2], 3) == SCH3.alphabet.empty_word()
    assert braid_nf([1, 1], 3) == SCH3.alphabet.word("s12")
    assert braid_nf([-1, -1], 3) == SCH3.alphabet.word("s12^-1")
    with pytest.raises(ValueError):
        braid_nf([1], 1)


def test_braid_nf_equates_defining_artin_relations():
    assert braid_nf([1, 2, 1], 3) == braid_nf([2, 1, 2], 3)
    assert braid_nf([-1, -2, -1], 3) == braid_nf([-2, -1, -2], 3)
    assert braid_nf([1, 3], 4) == braid_nf([3, 1], 4)
    assert braid_nf([-1, 3], 4) == braid_nf([3, -1], 4)


def test_full_twist_is_central_on_three_strands():
    delta2 = [1, 2, 1, 1, 2, 1]
    for w in ([1], [-2], [1, -2, 1], [2, 2, -1]):
        assert braid_nf(delta2 + w, 3) == braid_nf(w + delta2, 3)


def test_braid_nf_is_irreducible():
    rng = random.Random(337)
    for _ in range(50):
        w = rand_artin(rng, 4, 20)
        nf = braid_nf(w, 4)
        assert word_nf(nf, S4, strategy="rightmost") == nf


def test_braid_nf_preserves_permutation_and_burau_images():
    rng = random.Random(347)
    for _ in range(80):
        w = rand_artin(rng, 4, 16)
        back = s_to_artin(braid_nf(w, 4), SCH4)
        assert perm_image(back, 4).image == perm_image(w, 4).image
        assert burau(back, 4) == burau(w, 4)


@pytest.mark.parametrize("strategy", ["rightmost", "leftmost"])
def test_fuel_exhaustion_returns_a_partial_word_of_the_same_braid(strategy):
    w = (2, -1, -3, 2) * 10
    with pytest.raises(FuelExhausted) as exc:
        braid_nf(w, 4, fuel=2000, strategy=strategy)
    assert exc.value.fuel_used == 2000
    partial = s_to_artin(exc.value.partial, SCH4)
    assert perm_image(partial, 4) == perm_image(w, 4)
    assert burau(partial, 4) == burau(w, 4)


def test_braid_nf_invariant_under_relator_perturbation():
    rng = random.Random(349)
    for trial in range(50):
        w = rand_artin(rng, 4, 20)
        moved = relator_perturb(w, 4, seed=trial)
        assert braid_nf(moved, 4) == braid_nf(w, 4)


def test_normal_forms_separate_exactly_like_burau_on_three_strands():
    # all 341 Artin words of length <= 4: equal normal form must coincide
    # with equal Burau image (faithfulness of the reduced quotient on
    # three strands makes this an if-and-only-if)
    words = [()]
    gens = (1, -1, 2, -2)
    for length in range(1, 5):
        words.extend(itertools.product(gens, repeat=length))
    assert len(words) == 341
    by_nf: dict = {}
    for w in words:
        by_nf.setdefault(braid_nf(w, 3), []).append(w)
    assert len(by_nf) == 115
    image_of = {}
    for nf, ws in by_nf.items():
        images = {(burau(w, 3), burau(w, 3, "reduced")) for w in ws}
        assert len(images) == 1  # same class, same invariants
        image_of[nf] = next(iter(images))
    assert len(set(image_of.values())) == 115  # distinct classes separate


def test_embedding_into_more_strands_preserves_equality():
    rng = random.Random(353)
    for _ in range(50):
        u = rand_artin(rng, 3, 6)
        v = rand_artin(rng, 3, 6)
        same3 = braid_nf(u, 3) == braid_nf(v, 3)
        same4 = braid_nf(u, 4) == braid_nf(v, 4)
        assert same3 == same4


# --- basis facts ----------------------------------------------------------

def test_four_strand_basis_verifies_clean_and_minimal():
    report = verify_gsb(S4)
    assert report.ok
    assert report.pairs_checked == 99 * 99
    assert verify_minimal(S4).ok
