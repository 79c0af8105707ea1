"""Leading terms, single-step and full reduction, and the word fast path."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gsbraid import (
    Alphabet,
    AlphabetMismatch,
    DegLex,
    ForeignLetter,
    FuelExhausted,
    Letter,
    NotBinomial,
    OrientationError,
    Polynomial,
    Presentation,
    Word,
    ZeroPolynomial,
    leading,
    normal_form,
    ranking_of,
    reduce_once,
    verify_minimal,
    word_nf,
)
from gsbraid.braid import artin_markov, artin_to_s, braid_nf, braid_scheme

S3 = artin_markov(3)
SCH3 = braid_scheme(3)
W3 = SCH3.alphabet.word

STRATEGIES = ("canonical", "leftmost", "rightmost")


def rand_word(rng: random.Random, n: int, max_len: int) -> Word:
    sch = braid_scheme(n)
    return Word(sch.alphabet,
                tuple(rng.randrange(len(sch.alphabet)) for _ in range(rng.randrange(max_len + 1))))


def from_words(*texts: str) -> Polynomial:
    """Alternating-sign combination of scheme words: w0 - w1 + w2 - ..."""
    p = Polynomial.zero(SCH3.alphabet)
    for i, t in enumerate(texts):
        p = p + Polynomial.from_word(W3(t), 1 if i % 2 == 0 else -1)
    return p


# ------------------------------------------------------------------ leading


def test_leading_of_commutation_relation():
    p = from_words("g1^-1 s12^-1", "s12^-1 g1^-1")
    lead, coeff = leading(p, SCH3.order)
    assert lead == W3("g1^-1 s12^-1")
    assert coeff == 1


def test_leading_single_term():
    ab = Alphabet([Letter("x")])
    p = Polynomial.from_word(ab.word("x x"))
    lead, coeff = leading(p, DegLex(ranking_of([0])))
    assert lead == ab.word("x x") and coeff == 1


def test_leading_degree_dominates_constant():
    ab = Alphabet([Letter("x")])
    p = Polynomial.from_word(ab.word("x")) - Polynomial.from_word(ab.empty_word(), 2)
    lead, coeff = leading(p, DegLex(ranking_of([0])))
    assert lead == ab.word("x") and coeff == 1


def test_leading_of_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        leading(Polynomial.zero(SCH3.alphabet), SCH3.order)


# ------------------------------------------------------------- presentation


def test_presentation_normalizes_to_monic():
    ab = Alphabet([Letter("y"), Letter("x")])
    spec = DegLex(ranking_of(range(2)))
    p = (Polynomial.from_word(ab.word("x x"), 3)
         - Polynomial.from_word(ab.word("y"), 6))
    S = Presentation(ab, spec, [p])
    assert S.relations[0].coefficient(ab.word("x x")) == 1
    assert S.relations[0].coefficient(ab.word("y")) == -2
    assert S.lead(0) == ab.word("x x")


def test_presentation_rejects_zero_relation():
    with pytest.raises(ZeroPolynomial):
        Presentation(SCH3.alphabet, SCH3.order, [Polynomial.zero(SCH3.alphabet)])


def test_from_oriented_rejects_flipped_sides():
    with pytest.raises(OrientationError) as exc:
        Presentation.from_oriented(SCH3.alphabet, SCH3.order,
                                   [(W3("s12^-1"), W3("s12"))])
    assert exc.value.index == 0
    with pytest.raises(OrientationError) as exc:
        Presentation.from_oriented(SCH3.alphabet, SCH3.order,
                                   [(W3("s12 s12"), W3("s12")), (W3("s12"), W3("s12"))])
    assert exc.value.index == 1


def test_presentation_rejects_letters_outside_the_order():
    ab = Alphabet([Letter("y"), Letter("x"), Letter("z")])
    spec = DegLex(ranking_of([0, 1]))
    def poly(text):
        return Polynomial.from_word(ab.word(text))
    for relation in (poly("x z") - poly("y"), poly("z") - poly("y")):
        with pytest.raises(ForeignLetter, match="letter 'z' is outside"):
            Presentation(ab, spec, [relation])
    with pytest.raises(ForeignLetter):
        Presentation.from_oriented(ab, spec, [(ab.word("x z"), ab.word("y"))])


def test_default_family_labels_are_positions():
    ab = Alphabet([Letter("y"), Letter("x")])
    spec = DegLex(ranking_of(range(2)))
    S = Presentation.from_oriented(ab, spec, [(ab.word("x x"), ab.word("y")),
                                              (ab.word("x y"), ab.word("y"))])
    assert S.families == ("1", "2")
    assert S.binomial


def test_presentation_equality_ignores_display_metadata():
    ab = Alphabet([Letter("y"), Letter("x")])
    spec = DegLex(ranking_of(range(2)))
    pair = [(ab.word("x x"), ab.word("y"))]
    a = Presentation.from_oriented(ab, spec, pair, families=["f"], order_text="deglex")
    b = Presentation.from_oriented(ab, spec, pair)
    assert a == b


# -------------------------------------------------------------- reduce_once


def test_reduce_once_squared_inverse_generator():
    p = Polynomial.from_word(W3("g1^-1 g1^-1"))
    out = reduce_once(p, S3, check_descent=True)
    assert out is not None
    q, step = out
    assert q == Polynomial.from_word(W3("s12^-1"))
    assert S3.lead(step.relation) == W3("g1^-1 g1^-1")
    assert step.position == 0


def test_reduce_once_cancelling_pair_gives_the_constant():
    p = Polynomial.from_word(W3("s12 s12^-1"))
    out = reduce_once(p, S3, check_descent=True)
    assert out is not None
    q, _ = out
    assert q == Polynomial.from_word(SCH3.alphabet.empty_word())


def test_reduce_once_irreducible_letter():
    assert reduce_once(Polynomial.from_word(W3("s13")), S3) is None


def test_reduce_once_picks_the_order_greatest_reducible_term():
    p = from_words("g1^-1 g1^-1", "s12 s12^-1")  # first term is order-greater
    out = reduce_once(p, S3)
    assert out is not None
    _, step = out
    assert S3.lead(step.relation) == W3("g1^-1 g1^-1")


# -------------------------------------------------------------- normal_form


def test_normal_form_of_generator_times_inverse():
    # s23 g2^-1 g2^-1 -> s23 s23^-1 -> 1
    p = Polynomial.from_word(W3("s23 g2^-1 g2^-1"))
    nf, trace = normal_form(p, S3)
    assert nf == Polynomial.from_word(SCH3.alphabet.empty_word())
    assert trace.result == nf
    assert len(trace.steps) == trace.fuel_used == 2


def test_normal_form_pushes_inverse_generator_past_s13():
    p = Polynomial.from_word(W3("g1^-1 s13"))
    nf, _ = normal_form(p, S3)
    assert nf == Polynomial.from_word(W3("s13 s23 s13^-1 g1^-1"))


def test_normal_form_of_zero():
    nf, trace = normal_form(Polynomial.zero(SCH3.alphabet), S3)
    assert nf.is_zero()
    assert trace.steps == [] and trace.fuel_used == 0


# The polynomial path mirrors the canonical schedule, whose rewrite paths
# (and intermediate words) grow exponentially with input length on the
# braid systems.  Exhaustive scans put the worst case over all n=3 words of
# length <= 4 at 2390 steps, while length 5 already exceeds 20000; random
# polynomial inputs therefore stay at length <= 4 with a hard fuel lid.
_POLY_FUEL = 100_000


def test_normal_form_is_idempotent_randomized():
    rng = random.Random(43)
    for _ in range(60):
        p = (Polynomial.from_word(rand_word(rng, 3, 4))
             - Polynomial.from_word(rand_word(rng, 3, 4)))
        nf, _ = normal_form(p, S3, fuel=_POLY_FUEL)
        again, trace = normal_form(nf, S3, fuel=_POLY_FUEL)
        assert again == nf and trace.steps == []


def test_normal_form_result_is_irreducible():
    rng = random.Random(47)
    for _ in range(60):
        nf, _ = normal_form(Polynomial.from_word(rand_word(rng, 3, 4)), S3, fuel=_POLY_FUEL)
        assert reduce_once(nf, S3) is None


def test_strict_descent_holds_along_reductions():
    rng = random.Random(53)
    for _ in range(40):
        p = (Polynomial.from_word(rand_word(rng, 3, 4))
             + Polynomial.from_word(rand_word(rng, 3, 4), Fraction(1, 2)))
        normal_form(p, S3, fuel=_POLY_FUEL, check_descent=True)  # raises on violation


def test_replay_reproduces_the_result():
    rng = random.Random(59)
    for _ in range(60):
        p = (Polynomial.from_word(rand_word(rng, 3, 4))
             - Polynomial.from_word(rand_word(rng, 3, 4), 3))
        nf, trace = normal_form(p, S3, fuel=_POLY_FUEL)
        assert trace.replay(p, S3) == nf


def test_normal_form_fuel_exhaustion_carries_partial_trace():
    p = Polynomial.from_word(W3("g1^-1 s13 s13 s13"))
    with pytest.raises(FuelExhausted) as exc:
        normal_form(p, S3, fuel=2)
    assert exc.value.fuel_used == 2
    assert exc.value.trace is not None
    assert len(exc.value.trace.steps) == 2
    # the partial trace still replays to its own recorded result
    assert exc.value.trace.replay(p, S3) == exc.value.trace.result


# ------------------------------------------------------------------ word_nf


def test_word_nf_triple_inverse_generator():
    for strat in STRATEGIES:
        assert word_nf(W3("g1^-1 g1^-1 g1^-1"), S3, strategy=strat) == W3("s12^-1 g1^-1")


def test_word_nf_empty_word():
    for strat in STRATEGIES:
        assert word_nf(SCH3.alphabet.empty_word(), S3, strategy=strat) == SCH3.alphabet.empty_word()


def test_word_nf_cancelling_pair():
    for strat in STRATEGIES:
        assert word_nf(W3("s12^-1 s12"), S3, strategy=strat) == SCH3.alphabet.empty_word()


def test_word_nf_matches_polynomial_normal_form():
    # short words only: the canonical schedule that normal_form mirrors has
    # exponentially long paths on longer inputs
    rng = random.Random(61)
    for _ in range(80):
        w = rand_word(rng, 3, 4)
        nf_poly, _ = normal_form(Polynomial.from_word(w), S3, fuel=_POLY_FUEL)
        (term,) = nf_poly.monomials()
        for strat in STRATEGIES:
            assert word_nf(w, S3, strategy=strat, fuel=_POLY_FUEL) == term[0]


def test_word_nf_strategies_agree_on_verified_bases():
    rng = random.Random(67)
    for n, trials, max_len in ((3, 500, 16), (4, 500, 14)):
        S = artin_markov(n)
        for _ in range(trials):
            w = rand_word(rng, n, max_len)
            left = word_nf(w, S, strategy="leftmost")
            right = word_nf(w, S, strategy="rightmost")
            assert left == right


def test_word_nf_canonical_agrees_on_short_words():
    # canonical paths explode fast with word length (worst case over all
    # length-3 words here is already ~6300 steps), hence the small cap
    rng = random.Random(71)
    S4 = artin_markov(4)
    for _ in range(100):
        w = rand_word(rng, 4, 3)
        nf = word_nf(w, S4, strategy="canonical", fuel=_POLY_FUEL)
        assert nf == word_nf(w, S4, strategy="rightmost")


def test_word_nf_rejects_non_binomial_presentations():
    ab = Alphabet([Letter("x")])
    spec = DegLex(ranking_of([0]))
    tri = (Polynomial.from_word(ab.word("x x"))
           - Polynomial.from_word(ab.word("x"))
           - Polynomial.from_word(ab.empty_word()))
    S = Presentation(ab, spec, [tri])
    assert not S.binomial
    with pytest.raises(NotBinomial):
        word_nf(ab.word("x x"), S)


def test_words_and_polynomials_from_another_alphabet_are_rejected():
    # B4 letter ids read in the B3 alphabet would name B3 letters
    w4 = braid_scheme(4).alphabet.word("s14 s14 s24")
    p4 = Polynomial.from_word(w4)
    for call in (lambda: word_nf(w4, S3), lambda: reduce_once(p4, S3),
                 lambda: normal_form(p4, S3),
                 lambda: Presentation(SCH3.alphabet, SCH3.order,
                                      [p4 - Polynomial.from_word(w4[:1])])):
        with pytest.raises(AlphabetMismatch):
            call()
    # an equal alphabet that is another object is the same alphabet
    twin = Word(Alphabet(SCH3.alphabet.letters), W3("g1^-1 g1^-1 s12").letters)
    assert word_nf(twin, S3) == word_nf(W3("g1^-1 g1^-1 s12"), S3)
    assert normal_form(Polynomial.from_word(twin), S3)[0] == normal_form(
        Polynomial.from_word(W3("g1^-1 g1^-1 s12")), S3)[0]


def test_negative_fuel_is_rejected():
    w = W3("g1^-1 s13")
    with pytest.raises(ValueError, match="fuel"):
        normal_form(Polynomial.from_word(w), S3, fuel=-1)
    for strat in STRATEGIES:
        with pytest.raises(ValueError, match="fuel"):
            word_nf(w, S3, fuel=-5, strategy=strat)
        with pytest.raises(ValueError, match="fuel"):
            braid_nf((1, 2), 3, fuel=-1, strategy=strat)
    # fuel 0 stays valid: an irreducible word needs no step
    assert word_nf(W3("s13"), S3, fuel=0) == W3("s13")


def test_word_nf_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        word_nf(W3("s12"), S3, strategy="sideways")


def test_word_nf_fuel_exhaustion_reports_partial_word():
    w = W3("g1^-1 s13 s13")
    with pytest.raises(FuelExhausted) as exc:
        word_nf(w, S3, fuel=1)
    assert exc.value.partial is not None
    assert isinstance(exc.value.partial, Word)
    # the partial word is the input with one rewrite applied
    nf_full = word_nf(w, S3)
    assert word_nf(exc.value.partial, S3) == nf_full


def test_word_nf_on_artin_image():
    w = artin_to_s((2, -2), SCH3)
    assert w == W3("s23 g2^-1 g2^-1")
    assert word_nf(w, S3) == SCH3.alphabet.empty_word()


# ------------------------------------------------------- schedule step counts

# The exact rewrite steps of each schedule, pinned by the fuel boundary:
# braid_nf fails with one step less and finishes with exactly this many.
# A change to any schedule's site choice moves these counts.
SCHEDULE_STEPS = [
    (3, (1, -2) * 64, "rightmost", 28581),
    (3, (1, -2) * 64, "leftmost", 483),
    (3, (1, 2, 1), "canonical", 20),
    (3, (-1, -2, -1, 2), "canonical", 6),
    (3, (-2, 1, 2, -1), "canonical", 22),
    (3, (1, -2, 1, -2), "canonical", 18),
    (4, (1, 2, 3), "canonical", 100),
    (4, (2, 1, 3, 2), "canonical", 437),
    (4, (2, 1, 3, 2), "rightmost", 28),
    (4, (2, 1, 3, 2), "leftmost", 52),
]


@pytest.mark.parametrize("n, word, strategy, steps", SCHEDULE_STEPS)
def test_schedule_step_count_by_fuel_boundary(n, word, strategy, steps):
    with pytest.raises(FuelExhausted):
        braid_nf(word, n, fuel=steps - 1, strategy=strategy)
    braid_nf(word, n, fuel=steps, strategy=strategy)


# ------------------------------------------------------------- site finding


def _first_site(word: tuple, leads: list, skip: int = -1):
    """Reference finder on letter tuples: lowest relation index, then leftmost position."""
    for idx, lhs in enumerate(leads):
        if idx == skip:
            continue
        for p in range(len(word) - len(lhs) + 1):
            if word[p:p + len(lhs)] == lhs:
                return idx, p
    return None


def _non_binomial(with_constant: bool) -> Presentation:
    """Trinomial, monomial and binomial relations; optionally the constant 1,
    whose leading word is empty and so occurs at position 0 of every word."""
    ab = Alphabet([Letter("z"), Letter("y"), Letter("x")])

    def P(text: str, c=1) -> Polynomial:
        return Polynomial.from_word(ab.word(text), c)

    rels = [P("x y x") - P("y") - P(""), P("y y") - P("x", 2), P("z x z"),
            P("x z") + P("z y")]
    if with_constant:
        rels.append(P("", 3))
    return Presentation(ab, DegLex(ranking_of(range(3))), rels)


SITE_PRESENTATIONS = (_non_binomial(True), _non_binomial(False), S3)


def _leads(S: Presentation) -> list:
    return [S.lead(i).letters for i in range(len(S.relations))]


def test_site_finder_matches_tuple_reference():
    rng = random.Random(79)
    for S in SITE_PRESENTATIONS:
        leads = _leads(S)
        hits = 0
        for _ in range(400):
            word = tuple(rng.randrange(len(S.alphabet)) for _ in range(rng.randrange(9)))
            out = reduce_once(Polynomial.from_word(Word(S.alphabet, word)), S)
            expected = _first_site(word, leads)
            if expected is None:
                assert out is None, word
                continue
            hits += 1
            assert out is not None, word
            assert (out[1].relation, out[1].position) == expected, word
        assert hits > 0


def test_empty_leading_word_matches_at_position_zero():
    S = _non_binomial(True)
    last = len(S.relations) - 1
    assert S.lead(last).letters == ()
    out = reduce_once(Polynomial.from_word(S.alphabet.word("z z")), S)
    assert out is not None and (out[1].relation, out[1].position) == (last, 0)


def test_minimality_scan_matches_tuple_reference():
    for S in SITE_PRESENTATIONS:
        leads = _leads(S)
        containments = []
        for i, li in enumerate(leads):
            for j, lj in enumerate(leads):
                site = _first_site(li, [lj]) if i != j else None
                if site is not None:
                    containments.append((i, j, site[1]))
        reducible = []
        for i, rel in enumerate(S.relations):
            for t in rel.terms:
                site = _first_site(t, leads, skip=i) if t != leads[i] else None
                if site is not None:
                    reducible.append((i, Word(S.alphabet, t), site[0]))
        report = verify_minimal(S)
        assert report.containments == tuple(containments)
        assert report.reducible_tails == tuple(reducible)
        assert report.ok == (not containments and not reducible)
