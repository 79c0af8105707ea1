"""The word engine's site search and the overlap index behind verify_gsb and
verify_minimal, each checked against the simple path it replaced.

``_ScanEngine`` is the first-letter scanner that the trie replaced: the
rules grouped by first letter and tried with ``str.startswith`` in index
order, and a global pick that rescans the whole word.  Both engines must
emit the same rewrites, in the same order, and stop with the same partial
word when the fuel runs out.  The overlap index must yield, row by row,
the ambiguities that ``enumerate_ambiguities`` finds over every ordered
pair, in the same order, and the minimality report that ``str.find`` over
every ordered pair of leads gives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbraid import gsb
from gsbraid.braid import artin_markov, artin_to_s, braid_scheme
from gsbraid.freealg import Alphabet, Letter, Polynomial, Word
from gsbraid.gsb import (MinimalityReport, VerificationReport, enumerate_ambiguities,
                         verify_gsb, verify_minimal)
from gsbraid.orders import DegInLex, DegLex, InLex, ranking_of
from gsbraid.reduction import (DEFAULT_FUEL, FuelExhausted, Presentation,
                               _encode, _WordEngine)


class _ScanEngine:
    """The first-letter scanner, kept as the reference for _WordEngine."""

    def __init__(self, rules):
        self.max_lhs = max((len(lhs) for lhs, _ in rules), default=1)
        self.trig: dict = {}
        for idx, (lhs, rhs) in enumerate(rules):
            self.trig.setdefault(lhs[0], []).append((idx, lhs, rhs, len(rhs) < len(lhs)))

    def _pick_region(self, s: str, lo: int, hi: int) -> Optional[tuple]:
        other = None
        for p in range(max(lo, 0), min(hi, len(s) - 1) + 1):
            for idx, lhs, rhs, shrinking in self.trig.get(s[p], ()):
                if s.startswith(lhs, p):
                    if shrinking:
                        return idx, p, lhs, rhs
                    other = (idx, p, lhs, rhs)
                    break
        return other

    def _pick_global(self, s: str) -> Optional[tuple]:
        for p in range(len(s) - 1, -1, -1):
            for idx, lhs, rhs, _ in self.trig.get(s[p], ()):
                if s.startswith(lhs, p):
                    return idx, p, lhs, rhs
        return None

    def run(self, s: str, fuel: int, used: int = 0, emit=None) -> tuple[str, int]:
        lo = None
        hi = 0
        while True:
            hit = self._pick_region(s, lo, hi) if lo is not None else None
            if hit is None:
                hit = self._pick_global(s)
                if hit is None:
                    return s, used
            if used >= fuel:
                raise FuelExhausted(used, partial=s)
            idx, p, lhs, rhs = hit
            if emit is not None:
                emit.append((idx, p, s[:p], s[p + len(lhs):]))
            s = s[:p] + rhs + s[p + len(lhs):]
            used += 1
            lo = p - self.max_lhs
            hi = p + len(rhs)

    run_prefix = _WordEngine.run_prefix  # the fold itself is unchanged


def _toy() -> Presentation:
    """Deglex over c > b > a.  At a position reading "b a b" the rules 0, 2
    and 4 all match; rules 5 and 6 are shadowed by lower-index prefixes."""
    ab = Alphabet([Letter("a"), Letter("b"), Letter("c")])
    rules = [("b a b", "a"), ("c", "b"), ("b a", "a b"), ("a c a", "c"),
             ("b", "a"), ("c c", ""), ("a c a b", "b"), ("a a c", "c")]
    return Presentation.from_oriented(ab, DegLex(ranking_of(range(3))),
                                      [(ab.word(u), ab.word(v)) for u, v in rules])


def _scanner(S: Presentation) -> _ScanEngine:
    """The reference scanner over the encoded rules of S."""
    return _ScanEngine(list(zip(S._lead_s, map(_encode, S._tails))))


PRESENTATIONS = [artin_markov(3), artin_markov(4), artin_markov(5), _toy()]
REFERENCES = [_scanner(S) for S in PRESENTATIONS]


def _outcome(engine, method: str, s: str, fuel: int):
    emit: list = []
    try:
        out = getattr(engine, method)(s, fuel, 0, emit)
    except FuelExhausted as e:
        out = ("fuel", e.fuel_used, e.partial)
    return out, emit


def test_toy_presentation_has_several_rules_at_one_position():
    S = _toy()
    starts = [i for i, lhs in enumerate(S._lead_s) if _encode((1, 0, 1)).startswith(lhs)]
    assert starts == [0, 2, 4]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(PRESENTATIONS) - 1), st.data(),
       st.one_of(st.integers(0, 30), st.just(5000)),
       st.sampled_from(["run", "run_prefix"]))
def test_trie_engine_emits_what_the_scanner_emits(k, data, fuel, method):
    S = PRESENTATIONS[k]
    word = data.draw(st.lists(st.integers(0, len(S.alphabet) - 1), max_size=12))
    s = _encode(word)
    assert _outcome(S._engine(), method, s, fuel) == _outcome(REFERENCES[k], method, s, fuel)


@pytest.mark.parametrize("n, artin, power", [(3, (1, -2), 16), (4, (2, -1, -3, 2), 4)])
@pytest.mark.parametrize("method", ["run", "run_prefix"])
def test_trie_engine_matches_scanner_on_long_words(n, artin, power, method):
    # words long enough that the clean suffix and the region scan both matter
    S = artin_markov(n)
    s = _encode(artin_to_s(artin * power, braid_scheme(n)).letters)
    ref = _scanner(S)
    for fuel in (0, 1, 17, 250, DEFAULT_FUEL):
        assert _outcome(S._engine(), method, s, fuel) == _outcome(ref, method, s, fuel)


def _all_pairs_report(S: Presentation) -> VerificationReport:
    """verify_gsb's report from the loop over every ordered pair."""
    m = len(S.relations)
    ambiguities = 0
    matrix: dict = {}
    failures = []
    for i in range(m):
        for j in range(m):
            for amb in enumerate_ambiguities(S.lead(i), S.lead(j), i, j):
                ambiguities += 1
                key = (S.families[i], S.families[j])
                matrix[key] = matrix.get(key, 0) + 1
                failure = gsb._check(S, amb, DEFAULT_FUEL)
                if failure is not None:
                    failures.append(failure)
    return VerificationReport(m * m, ambiguities, tuple(failures), matrix, S.order)


def _without(S: Presentation, index: int) -> Presentation:
    keep = [i for i in range(len(S.relations)) if i != index]
    return Presentation(S.alphabet, S.order, [S.relations[i] for i in keep],
                        [S.families[i] for i in keep], order_text=S.order_text)


@pytest.mark.parametrize("S, ok", [(artin_markov(n), True) for n in range(2, 6)]
                         + [(_without(artin_markov(4), 40), False)],
                         ids=["n2", "n3", "n4", "n5", "n4-without-40"])
def test_overlap_index_keeps_the_all_pairs_report(S, ok):
    report = verify_gsb(S)
    assert report == _all_pairs_report(S)
    assert report.ambiguities_checked > 0 and report.ok == ok


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=4), st.sampled_from("xyz")),
                min_size=1, max_size=7),
       st.data())
def test_overlap_index_yields_every_pair_in_enumeration_order(rules, data):
    # two letters and short leads: repeated leads, a lead inside another,
    # self-overlapping leads and one-letter leads are all common
    ab = Alphabet([Letter("a"), Letter("b")])
    S = Presentation.from_oriented(ab, DegLex(ranking_of(range(2))),
                                   [(ab.word(" ".join(lead)), ab.empty_word()) for lead, _ in rules],
                                   [fam for _, fam in rules])
    m = len(S.relations)
    fams = st.sampled_from(sorted(set(S.families)))
    scope = data.draw(st.lists(st.tuples(fams, fams), max_size=5))
    for scopes in (None, gsb._scope_set(scope, S.families)):
        rows = dict(gsb._rows(S, scopes))
        pairs = [(i, j) for i in range(m) for j in range(m)
                 if scopes is None or (S.families[i], S.families[j]) in scopes]
        assert sum(map(len, rows.values())) == len(pairs)
        for i in range(m):
            expected = [(j, amb) for ii, j in pairs if ii == i
                        for amb in enumerate_ambiguities(S.lead(i), S.lead(j), i, j)]
            found = [(j, amb) for j, amb, _ in gsb._check_row(S, i, rows[i], 0)] if i in rows else []
            assert found == expected


def _pairwise_minimality(S: Presentation) -> MinimalityReport:
    """verify_minimal's report from str.find over every ordered pair of leads:
    a containment at the first position, a reducible tail by the lowest index
    other than the relation's own."""
    leads = S._lead_s
    containments = [(i, j, li.find(lj)) for i, li in enumerate(leads)
                    for j, lj in enumerate(leads) if i != j and li.find(lj) >= 0]
    reducible = []
    for i, rel in enumerate(S.relations):
        for t in rel.terms:
            if t != S._lead[i]:
                s = _encode(t)
                js = [j for j, lj in enumerate(leads) if j != i and s.find(lj) >= 0]
                if js:
                    reducible.append((i, Word(S.alphabet, t), js[0]))
    return MinimalityReport(not containments and not reducible,
                            tuple(containments), tuple(reducible))


@st.composite
def _any_presentation(draw) -> Presentation:
    """Up to six relations over 1-3 letters with 1-3 terms of length 0-4 and
    assorted coefficients: constants (empty leads), repeated leads, a lead
    inside another, non-monic and 3-term relations are all common.  Under
    InLex a tail can be longer than its lead, and even contain it."""
    k = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, k - 1), max_size=4).map(tuple)
    terms = st.dictionaries(words, st.sampled_from([1, -1, 2, -3]), min_size=1, max_size=3)
    ab = Alphabet([Letter(x) for x in "abc"[:k]])
    order = draw(st.sampled_from([DegLex, DegInLex, InLex]))(ranking_of(range(k)))
    return Presentation(ab, order,
                        [Polynomial(ab, {w: Fraction(c) for w, c in rel.items()})
                         for rel in draw(st.lists(terms, min_size=1, max_size=6))])


@settings(max_examples=300, deadline=None)
@given(_any_presentation())
def test_overlap_index_gives_the_pairwise_minimality_report(S):
    assert verify_minimal(S) == _pairwise_minimality(S)
