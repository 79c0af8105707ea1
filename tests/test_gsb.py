"""Tests for composition enumeration, triviality, verification, completion."""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbraid import gsb, reduction
from gsbraid.braid import artin_markov, artin_to_s, braid_scheme
from gsbraid.freealg import Alphabet, Letter, Polynomial, Word
from gsbraid.gsb import (
    Ambiguity,
    Diverged,
    InconsistentAmbiguity,
    check_trivial,
    complete,
    composition,
    enumerate_ambiguities,
    enumerate_irr,
    verify_gsb,
    verify_minimal,
)
from gsbraid.orders import GREATER, DegInLex, DegLex, InLex, Tower, compare, ranking_of
from gsbraid.reduction import DEFAULT_FUEL, FuelExhausted, Presentation, normal_form

S3 = artin_markov(3)
SCH3 = braid_scheme(3)
W3 = SCH3.alphabet.word


def _toy(names: str):
    """Alphabet from space-separated names, deglex with rank = listed position."""
    ab = Alphabet([Letter(x) for x in names.split()])
    return ab, DegLex(ranking_of(range(len(ab))))


def _binomial(ab, order, *pairs):
    rels = [Polynomial.from_word(ab.word(u)) - Polynomial.from_word(ab.word(v))
            for u, v in pairs]
    return Presentation(ab, order, rels)


# --- enumerate_ambiguities ------------------------------------------------

def test_ambiguities_intersections_come_first_overlap_ascending():
    ab, _ = _toy("a")
    w = ab.word("a a a")
    ambs = enumerate_ambiguities(w, w, 0, 1)
    # overlaps of length 1 and 2, then the inclusion at position 0
    assert [x.kind for x in ambs] == ["intersection", "intersection", "inclusion"]
    assert [len(x.w) for x in ambs] == [5, 4, 3]


def test_ambiguities_degenerate_self_inclusion_is_dropped():
    ab, _ = _toy("a")
    w = ab.word("a a a")
    ambs = enumerate_ambiguities(w, w, 2, 2)
    assert [x.kind for x in ambs] == ["intersection", "intersection"]


def test_ambiguities_inclusions_position_ascending_with_factors():
    ab, _ = _toy("a b")
    f = ab.word("a b a b a")
    g = ab.word("a b a")
    ambs = enumerate_ambiguities(f, g, 0, 1)
    assert [x.kind for x in ambs] == ["intersection", "inclusion", "inclusion"]
    inter, inc0, inc2 = ambs
    assert (inter.a, inter.b, inter.w) == (ab.word("a b a b"), ab.word("b a"),
                                           ab.word("a b a b a b a"))
    assert (inc0.a, inc0.b) == (ab.empty_word(), ab.word("b a"))
    assert (inc2.a, inc2.b) == (ab.word("a b"), ab.empty_word())
    assert inc0.w == inc2.w == f


def test_ambiguities_require_nonempty_words():
    ab, _ = _toy("a")
    with pytest.raises(ValueError):
        enumerate_ambiguities(ab.empty_word(), ab.word("a"))


def test_no_ambiguities_between_disjoint_words():
    ab, _ = _toy("a b")
    assert enumerate_ambiguities(ab.word("a a"), ab.word("b b"), 0, 1) == []


# --- composition ----------------------------------------------------------

def test_intersection_composition_value():
    ab, order = _toy("a b")
    S = _binomial(ab, order, ("b a", "a"), ("a b", "b"))
    (amb,) = enumerate_ambiguities(S.lead(0), S.lead(1), 0, 1)
    comp = composition(S.relations[0], S.relations[1], amb, order)
    # (ba - a).b - b.(ab - b) = bb - ab
    expected = (Polynomial.from_word(ab.word("b b"))
                - Polynomial.from_word(ab.word("a b")))
    assert comp == expected


def test_inclusion_composition_value():
    ab, order = _toy("a b")
    S = _binomial(ab, order, ("a b a", "b"), ("b", "a"))
    ambs = enumerate_ambiguities(S.lead(0), S.lead(1), 0, 1)
    (inc,) = [x for x in ambs if x.kind == "inclusion"]
    comp = composition(S.relations[0], S.relations[1], inc, order)
    # (aba - b) - a.(b - a).a = aaa - b
    expected = (Polynomial.from_word(ab.word("a a a"))
                - Polynomial.from_word(ab.word("b")))
    assert comp == expected


def test_composition_rejects_inconsistent_factorization():
    ab, order = _toy("a b")
    S = _binomial(ab, order, ("a a", "b"))
    bogus = Ambiguity("intersection", 0, 0, ab.word("a"), ab.word("a"), ab.word("a a b"))
    with pytest.raises(InconsistentAmbiguity):
        composition(S.relations[0], S.relations[0], bogus, order)


def test_composition_rejects_unknown_kind():
    ab, order = _toy("a b")
    S = _binomial(ab, order, ("a a", "b"))
    bogus = Ambiguity("overlap", 0, 0, ab.word("a"), ab.word("a"), ab.word("a a a"))
    with pytest.raises(InconsistentAmbiguity):
        composition(S.relations[0], S.relations[0], bogus, order)


def test_braid_composition_concrete_value():
    # the far-commutation lead g1^-1 g3^-1 meets the square lead g3^-1 g3^-1
    S = artin_markov(4)
    w4 = braid_scheme(4).alphabet.word
    i = next(k for k in range(len(S.relations)) if S.families[k] == "14")
    j = next(k for k in range(len(S.relations))
             if S.families[k] == "16" and S.lead(k) == w4("g3^-1 g3^-1"))
    (amb,) = enumerate_ambiguities(S.lead(i), S.lead(j), i, j)
    assert amb.kind == "intersection" and amb.w == w4("g1^-1 g3^-1 g3^-1")
    comp = composition(S.relations[i], S.relations[j], amb, S.order)
    expected = (Polynomial.from_word(w4("g1^-1 s34^-1"))
                - Polynomial.from_word(w4("g3^-1 g1^-1 g3^-1")))
    assert comp == expected
    ok, trace = check_trivial(S.relations[i], S.relations[j], amb, S)
    assert ok and trace.result.is_zero()
    assert trace.replay(comp, S).is_zero()


# --- check_trivial --------------------------------------------------------

def test_check_trivial_zero_composition_short_circuits():
    ab, order = _toy("a b")
    rel = (Polynomial.from_word(ab.word("a a"))
           - Polynomial.from_word(ab.word("b")))
    S = Presentation(ab, order, [rel, rel])
    inc = Ambiguity("inclusion", 0, 1, ab.empty_word(), ab.empty_word(), ab.word("a a"))
    ok, trace = check_trivial(S.relations[0], S.relations[1], inc, S)
    assert ok and trace.steps == [] and trace.fuel_used == 0


def test_check_trivial_nontrivial_remainder_on_polynomial_path():
    # non-unit coefficients force the polynomial path even in a binomial system
    ab, order = _toy("y x")
    rel = (Polynomial.from_word(ab.word("x x"))
           - Polynomial.from_word(ab.word("y y"), 2))
    S = Presentation(ab, order, [rel])
    (amb,) = enumerate_ambiguities(S.lead(0), S.lead(0), 0, 0)
    ok, trace = check_trivial(S.relations[0], S.relations[0], amb, S)
    assert not ok
    expected = (Polynomial.from_word(ab.word("x y y"), 2)
                - Polynomial.from_word(ab.word("y y x"), 2))
    assert trace.result == expected


def test_check_trivial_fuel_exhaustion_carries_partial_word():
    S = artin_markov(4)
    i = next(k for k in range(len(S.relations)) if S.families[k] == "14")
    j = next(k for k in range(len(S.relations))
             if S.families[k] == "16" and S.lead(k)[0] == S.lead(i)[1])
    (amb,) = enumerate_ambiguities(S.lead(i), S.lead(j), i, j)
    with pytest.raises(FuelExhausted) as exc:
        check_trivial(S.relations[i], S.relations[j], amb, S, fuel=1)
    assert exc.value.trace is None
    assert isinstance(exc.value.partial, Word)


# --- verify_gsb -----------------------------------------------------------

def test_verification_clean_on_three_strands():
    report = verify_gsb(S3)
    assert report.ok
    assert report.pairs_checked == len(S3.relations) ** 2 == 841
    assert report.ambiguities_checked == 73
    assert report.failures == ()
    assert sum(report.family_matrix.values()) == 73
    assert report.family_matrix[("16", "16")] == 2
    assert report.family_matrix[("17", "17")] == 6
    assert ("1", "1") not in report.family_matrix


def test_verification_report_is_worker_count_independent():
    seq = verify_gsb(S3)
    par = verify_gsb(S3, jobs=2)
    assert (par.pairs_checked, par.ambiguities_checked) == (841, 73)
    assert par.failures == seq.failures == ()
    assert par.family_matrix == seq.family_matrix


def test_verification_scope_restricts_pairs():
    report = verify_gsb(S3, scope=("16", "2"))
    assert report.ok
    assert report.pairs_checked == 8          # two squares x four commutations
    assert report.ambiguities_checked == 4    # g_i^-1 g_i^-1 s_{i,i+1}^{+-1}
    assert report.family_matrix == {("16", "2"): 4}


def test_verification_scope_accepts_iterables_of_pairs():
    report = verify_gsb(S3, scope=[("16", "2"), ("16", "17")])
    assert report.ok
    assert report.pairs_checked == 8 + 12
    assert report.ambiguities_checked == 4    # squares never meet cancellations


def test_verification_scope_rejects_unknown_families():
    with pytest.raises(ValueError, match="'99'"):
        verify_gsb(S3, scope=("99", "99"))
    with pytest.raises(ValueError, match="'1'"):
        verify_gsb(S3, scope=[("16", "2"), ("2", "1")])  # family 1 needs four strands
    # a family pair that exists but never overlaps is a valid, empty scope
    report = verify_gsb(S3, scope=("2", "2"))
    assert (report.pairs_checked, report.ambiguities_checked) == (16, 0) and report.ok


def test_verification_scope_rejects_entries_that_are_not_label_pairs():
    for scope in ([("16",)], [("16", "2", "17")], [("16", 2)], [["16", "2"]], "16,2"):
        with pytest.raises(ValueError, match="label pairs"):
            verify_gsb(S3, scope=scope)


def _with_constant():
    """The deglex presentation {x x - x, 2}: relation 1 is a nonzero constant."""
    ab, order = _toy("x")
    return Presentation(ab, order, [Polynomial.from_word(ab.word("x x"))
                                    - Polynomial.from_word(ab.word("x")),
                                    Polynomial.from_word(ab.empty_word(), 2)])


def test_empty_leading_word_is_rejected_before_checking():
    S = _with_constant()
    for run in (verify_gsb, complete):
        with pytest.raises(ValueError, match="relation 1 has an empty leading word"):
            run(S)


def test_negative_fuel_is_rejected():
    for run in (verify_gsb, complete):
        with pytest.raises(ValueError, match="fuel"):
            run(S3, fuel=-1)
    assert verify_gsb(S3, fuel=0).ambiguities_checked == 73  # fuel 0 stays valid
    ab, order = _toy("x")
    trinomial = Presentation(ab, order, [Polynomial.from_word(ab.word("x x"))
                                         - Polynomial.from_word(ab.word("x"))
                                         - Polynomial.from_word(ab.empty_word())])
    for S in (S3, trinomial):
        assert S.binomial == (S is S3)
        i, amb = next((i, amb) for i in range(len(S))
                      for amb in enumerate_ambiguities(S.lead(i), S.lead(i), i, i))
        f = S.relations[i]
        with pytest.raises(ValueError, match="fuel"):
            check_trivial(f, f, amb, S, fuel=-1)
        try:
            check_trivial(f, f, amb, S, fuel=0)
        except FuelExhausted as e:
            assert e.fuel_used == 0


def test_negative_bounds_are_rejected():
    with pytest.raises(ValueError, match="max_len"):
        enumerate_irr(S3, -3)
    with pytest.raises(ValueError, match="max_new"):
        complete(S3, max_new=-1)
    # bound 0 stays valid
    assert enumerate_irr(S3, 0) == [W3("")]
    ab, order = _toy("x")
    S = _binomial(ab, order, ("x x", "x"))
    assert complete(S, max_new=0) == (S, [])


def test_verification_rejects_fewer_than_one_job():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            verify_gsb(S3, jobs=jobs)


def test_verification_jobs_are_capped_by_cpus_and_rows(monkeypatch):
    started = []

    class SerialPool:
        """Records the requested worker count and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(gsb, "_WORKER_STATE", {})
    monkeypatch.setattr(gsb.os, "cpu_count", lambda: 4)
    serial = verify_gsb(S3).to_json_dict()
    assert verify_gsb(S3, jobs=10**6).to_json_dict() == serial
    assert started == [4]
    # two relations of family 16 have pairs in this scope: two rows
    scoped = verify_gsb(S3, scope=("16", "2"), jobs=3)
    assert started == [4, 2] and scoped.ambiguities_checked == 4
    monkeypatch.setattr(gsb.os, "cpu_count", lambda: None)
    assert verify_gsb(S3, jobs=8).to_json_dict() == serial
    assert started == [4, 2]  # an unknown CPU count runs serially


def _flat_tower(levels: int) -> Presentation:
    """Two relations x_k x0 = x0 x_k over a tower of one-letter levels
    x1 < ... < x<levels> above the base letter x0."""
    ab = Alphabet([Letter(f"x{i}") for i in range(levels + 1)])
    order = DegLex(ranking_of([0]))
    for level in range(1, levels + 1):
        order = Tower(order, ranking_of([level]))
    pairs = [(Word(ab, (k, 0)), Word(ab, (0, k))) for k in (levels - 1, levels)]
    return Presentation.from_oriented(ab, order, pairs)


def test_verification_under_the_spawn_start_method(monkeypatch):
    # spawn (the default on macOS and Windows, and on Linux from Python
    # 3.14) pickles the presentation into every worker
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=spawn))
    monkeypatch.setattr(gsb.os, "cpu_count", lambda: 2)
    # the last two have failures, which the workers build and send back
    for S, fuel, ok in ((artin_markov(4), DEFAULT_FUEL, True), (_flat_tower(450), DEFAULT_FUEL, True),
                        (_without_family(S3, "2"), DEFAULT_FUEL, False), (S3, 1, False)):
        serial = verify_gsb(S, fuel)
        assert verify_gsb(S, fuel, jobs=2) == serial and serial.ok == ok


def test_importing_the_package_leaves_multiprocessing_unloaded():
    # the process pool is imported by the verify_gsb call that uses it
    code = "import sys, gsbraid, gsbraid.cli; sys.exit('multiprocessing' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(Path(gsb.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0


# x . y = x . y . y is oriented under inlex (y < x), but the inclusion of
# y = 1 in it gives the branch word x, which inlex puts above w = x y
NOT_BELOW_W = (("y", ""), ("x y", "x y y"))


def test_verification_raises_where_check_trivial_does():
    ab, _ = _toy("y x")
    S = _binomial(ab, InLex(ranking_of(range(2))), *NOT_BELOW_W)
    (amb,) = enumerate_ambiguities(S.lead(1), S.lead(0), 1, 0)
    with pytest.raises(InconsistentAmbiguity, match="x is not below w = x y"):
        check_trivial(S.relations[1], S.relations[0], amb, S)
    with pytest.raises(InconsistentAmbiguity, match="x is not below w = x y"):
        verify_gsb(S)


_ORDERS = [DegLex(ranking_of(range(3))), InLex(ranking_of(range(3))),
           DegInLex(ranking_of(range(3))),
           Tower(InLex(ranking_of(range(2))), ranking_of([2])),
           Tower(DegInLex(ranking_of(range(2))), ranking_of([2]))]


def _descent_error(check) -> Optional[str]:
    try:
        check()
    except InconsistentAmbiguity as e:
        return str(e)
    except FuelExhausted:
        pass
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ORDERS),
       st.lists(st.tuples(st.lists(st.sampled_from("abc"), max_size=3),
                          st.lists(st.sampled_from("abc"), max_size=3)), min_size=1, max_size=4))
def test_binomial_verdict_raises_exactly_when_check_trivial_does(order, pairs):
    ab, _ = _toy("a b c")
    oriented = []
    for u, v in pairs:
        u, v = ab.word(u), ab.word(v)
        c = compare(order, u, v)
        if c:
            oriented.append((u, v) if c == GREATER else (v, u))
    S = Presentation.from_oriented(ab, order, oriented)
    # fuel 50: inlex is not well-founded, so rewriting need not stop
    for i in range(len(S)):
        for j in range(len(S)):
            for amb in enumerate_ambiguities(S.lead(i), S.lead(j), i, j):
                f, g = S.relations[i], S.relations[j]
                error = _descent_error(lambda: check_trivial(f, g, amb, S, 50))
                assert error == _descent_error(lambda: gsb._check(S, amb, 50))
                if error is not None:
                    continue
                failure = gsb._check(S, amb, 50)
                try:
                    trivial, trace = check_trivial(f, g, amb, S, 50)
                except FuelExhausted:
                    assert failure.reason == "fuel"
                    continue
                assert (failure is None) == trivial
                if not trivial:
                    assert failure.reason == "nontrivial" and failure.remainder == trace.result


def _without_family(S: Presentation, family: str) -> Presentation:
    keep = [i for i in range(len(S.relations)) if S.families[i] != family]
    return Presentation(S.alphabet, S.order, [S.relations[i] for i in keep],
                        [S.families[i] for i in keep], order_text=S.order_text)


def test_verification_flags_missing_commutation_family():
    crippled = _without_family(S3, "2")
    report = verify_gsb(crippled)
    assert not report.ok
    assert all(f.reason == "nontrivial" and not f.remainder.is_zero()
               for f in report.failures)
    fams = crippled.families
    expected = (Polynomial.from_word(W3("g1^-1 s12^-1"))
                - Polynomial.from_word(W3("s12^-1 g1^-1")))
    assert any(fams[f.ambiguity.left_rel] == fams[f.ambiguity.right_rel] == "16"
               and f.remainder == expected
               for f in report.failures)
    text = report.summary()
    assert "failures: %d" % len(report.failures) in text and "[nontrivial]" in text
    blob = report.to_json_dict()
    assert blob["pairs_checked"] == len(crippled) ** 2
    assert len(blob["failures"]) == len(report.failures)
    assert all(set(e) == {"kind", "left", "right", "w", "remainder"}
               for e in blob["failures"])


def _count_rewrites(monkeypatch) -> list:
    """Patch the word engine so that each call of its rewrite loop is logged."""
    calls: list = []
    run = reduction._WordEngine.run

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return run(self, *args, **kwargs)

    monkeypatch.setattr(reduction._WordEngine, "run", counted)
    return calls


def test_fuel_failure_evidence_rewrites_nothing(monkeypatch):
    # a fuel verdict's evidence is the composition unreduced: rewriting it
    # again would only spend the same fuel a second time
    amb = next(amb for i, js in gsb._rows(S3, None) for _, amb, failure
               in gsb._check_row(S3, i, js, 1) if failure and failure.reason == "fuel")
    calls = _count_rewrites(monkeypatch)
    with pytest.raises(FuelExhausted):
        gsb._branch_check(S3, amb, *gsb._branch_words(S3, amb), 1)
    verdict_calls = list(calls)
    calls.clear()
    failure = gsb._check(S3, amb, 1)
    assert calls == verdict_calls  # the engine runs for the verdict only
    assert failure.reason == "fuel"
    f, g = S3.relations[amb.left_rel], S3.relations[amb.right_rel]
    assert failure.remainder == failure.trace.result == composition(f, g, amb, S3.order)
    assert failure.trace.steps == [] and failure.trace.fuel_used == 1


def _b4_with_power(k: int) -> Presentation:
    """artin_markov(4) plus W = 1, W the s-spelling of (σ2 σ1⁻¹ σ3⁻¹ σ2)^k."""
    S = artin_markov(4)
    W = artin_to_s((2, -1, -3, 2) * k, braid_scheme(4))
    rel = Polynomial.from_word(W) - Polynomial.from_word(S.alphabet.empty_word())
    return Presentation(S.alphabet, S.order, list(S.relations) + [rel],
                        list(S.families) + ["W"], order_text=S.order_text)


def test_power_relation_fuel_failures_report_the_unreduced_composition(monkeypatch):
    S = _b4_with_power(10)
    traced: list = []
    branch_check = gsb._branch_check

    def logged(*args, trace=False):
        traced.append(trace)
        return branch_check(*args, trace=trace)

    monkeypatch.setattr(gsb, "_branch_check", logged)
    report = verify_gsb(S, fuel=2000)
    assert report.ambiguities_checked == 477 and len(report.failures) == 50
    # one untraced check per ambiguity: no fuel failure is rewritten for evidence
    assert traced == [False] * 477
    for f in report.failures:
        amb = f.ambiguity
        assert f.reason == "fuel"
        assert f.remainder == composition(S.relations[amb.left_rel], S.relations[amb.right_rel],
                                          amb, S.order)
        assert f.trace.steps == [] and f.trace.fuel_used == 2000


def test_non_binomial_failures_are_reduced_once(monkeypatch):
    # deglex {x x - y - x, x y x - y y}: every composition is nontrivial
    ab, order = _toy("y x")
    def poly(*texts):
        return sum((Polynomial.from_word(ab.word(t), c) for t, c in texts),
                   Polynomial.zero(ab))
    S = Presentation(ab, order, [poly(("x x", 1), ("y", -1), ("x", -1)),
                                 poly(("x y x", 1), ("y y", -1))])
    calls: list = []
    reduce = gsb.normal_form

    def counted(*args):
        calls.append(args[0])
        return reduce(*args)

    monkeypatch.setattr(gsb, "normal_form", counted)
    for fuel, reasons in ((0, ["nontrivial", "fuel", "fuel", "nontrivial"]),
                          (DEFAULT_FUEL, ["nontrivial"] * 4)):
        calls.clear()
        report = verify_gsb(S, fuel)
        assert [f.reason for f in report.failures] == reasons
        assert len(calls) == 4  # one reduction per failure: verdict and evidence
        for f in report.failures:
            amb = f.ambiguity
            comp = composition(S.relations[amb.left_rel], S.relations[amb.right_rel],
                               amb, S.order)
            assert f.trace.replay(comp, S) == f.remainder == f.trace.result


# --- verify_minimal -------------------------------------------------------

def test_braid_bases_are_interreduced():
    assert verify_minimal(S3) == verify_minimal(S3)  # deterministic
    assert verify_minimal(S3).ok
    assert verify_minimal(artin_markov(4)).ok


def test_minimality_detects_lead_containment():
    ab, order = _toy("a b")
    S = _binomial(ab, order, ("b a b", "a"), ("a b", "a"))
    report = verify_minimal(S)
    assert not report.ok
    assert report.containments == ((0, 1, 1),)
    assert report.reducible_tails == ()


def test_minimality_detects_reducible_tail():
    ab, order = _toy("y x")
    S = _binomial(ab, order, ("x x", "y y"), ("y y", "x"))
    report = verify_minimal(S)
    assert not report.ok
    assert report.containments == ()
    assert report.reducible_tails == ((0, ab.word("y y"), 1),)


# --- complete -------------------------------------------------------------

def test_completion_closes_single_overlap_system():
    ab, order = _toy("b a")  # b < a, so abb leads bba
    S = _binomial(ab, order, ("a b a", "b"))
    done, log = complete(S)
    assert len(log) == 1 and len(done.relations) == 2
    event = log[0]
    assert (event.left_rel, event.right_rel, event.index) == (0, 0, 1)
    assert event.ambiguity.w == ab.word("a b a b a")
    expected = (Polynomial.from_word(ab.word("a b b"))
                - Polynomial.from_word(ab.word("b b a")))
    assert event.added == expected
    assert done.families == ("1", "c1")
    assert verify_gsb(done).ok


def test_completion_is_a_no_op_on_a_closed_system():
    done, log = complete(artin_markov(2))
    assert log == [] and done == artin_markov(2)


def test_completion_divergence_reports_partial_progress():
    ab, order = _toy("y x")
    S = _binomial(ab, order, ("x x", "x y"))
    with pytest.raises(Diverged) as exc:
        complete(S, max_new=5)
    assert len(exc.value.log) == 5
    assert len(exc.value.partial.relations) == 6
    # every adjoined relation is monic and genuinely new
    leads = {exc.value.partial.lead(i) for i in range(6)}
    assert len(leads) == 6


def test_completion_stops_at_a_constant():
    # the inclusion of x in x x gives (x x - x) - (x - 2) x = x, which reduces to 2
    ab, order = _toy("x")
    x = Polynomial.from_word(ab.word("x"))
    S = Presentation(ab, order, [x.right_mul(ab.word("x")) - x,
                                 x - Polynomial.from_word(ab.empty_word(), 2)])
    done, log = complete(S)
    one = Polynomial.from_word(ab.empty_word())
    assert [(ev.index, ev.added) for ev in log] == [(2, one)]
    assert done.relations[2] == one and done.families[2] == "c1"
    assert normal_form(x, done)[0].is_zero()


# --- enumerate_irr --------------------------------------------------------

def test_irreducible_words_under_a_constant_relation():
    S = _with_constant()
    assert enumerate_irr(S, 3) == []
    assert normal_form(Polynomial.from_word(S.alphabet.word("x")), S)[0].is_zero()


def test_irreducible_words_up_to_length_one():
    words = enumerate_irr(S3, 1)
    assert [str(w) for w in words] == [
        "1", "s13^-1", "s13", "s23^-1", "s23", "s12^-1", "s12", "g1^-1", "g2^-1"]


def test_irreducible_word_count_up_to_length_two():
    # 28 of the 64 two-letter words are leading words of relations
    assert len(enumerate_irr(S3, 2)) == 9 + (64 - 28)


def test_irreducible_enumeration_refuses_more_words_than_the_limit(monkeypatch):
    assert gsb.IRR_LIMIT == 10**6
    count = len(enumerate_irr(S3, 2))
    monkeypatch.setattr(gsb, "IRR_LIMIT", count)
    assert len(enumerate_irr(S3, 2)) == count
    monkeypatch.setattr(gsb, "IRR_LIMIT", count - 1)
    with pytest.raises(ValueError, match=f"more than {count - 1} irreducible words"):
        enumerate_irr(S3, 2)
    # refused as soon as the count passes the limit, long before length 40
    monkeypatch.setattr(gsb, "IRR_LIMIT", 100)
    with pytest.raises(ValueError, match="more than 100 irreducible words up to length 40"):
        enumerate_irr(S3, 40)


def test_irreducible_enumeration_stops_when_frontier_empties():
    ab, order = _toy("x")
    S = _binomial(ab, order, ("x x", "x"))
    words = enumerate_irr(S, 10)
    assert [str(w) for w in words] == ["1", "x"]
