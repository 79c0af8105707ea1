"""Tests for the command-line front end and the presentation file format."""

from __future__ import annotations

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsbraid import cli, gsb
from gsbraid.braid import artin_markov, braid_scheme
from gsbraid.cli import ParseError, dump_presentation, main, parse_presentation
from gsbraid.freealg import Alphabet, Letter, Polynomial
from gsbraid.orders import DegInLex, DegLex, InLex, Tower, compare, ranking_of
from gsbraid.reduction import OrientationError, Presentation

TOY = """\
# squaring collapses to the small letter
letters: a > b
order: deglex
a . a = b
"""

DIVERGING = """\
letters: x > y
order: deglex
x . x = x . y
"""

LONG_LEAD = """\
letters: a > b
order: deglex
b . b . b = a
"""


# x = z makes both inclusions nontrivial: x y = 1 against z y, and y x = 1
# against y z; the overlaps x y x and y x y of the cancellations are trivial
TWO_INCLUSIONS = """\
letters: x > y > z
order: deglex
x.y = 1
y.x = 1
x = z
"""


def _write(tmp_path, text):
    path = tmp_path / "system.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- parsing and dumping ----------------------------------------------------

def test_parse_toy_presentation(tmp_path):
    S = parse_presentation(TOY)
    assert [let.name for let in S.alphabet.letters] == ["b", "a"]  # ascending
    assert len(S.relations) == 1
    assert str(S.lead(0)) == "a a"


def test_parse_errors_carry_line_numbers():
    cases = [
        ("", 1, "missing letters"),
        ("letters: a > b\nletters: a > b", 2, "duplicate letters"),
        ("letters: a > > b", 1, "empty name"),
        ("letters: a > a\norder: deglex", 1, "duplicate letter"),
        ("letters: a > b\ninv(a, c)", 1, "undeclared letter 'c'"),
        ("letters: a > b\norder: deglex\norder: deglex", 3, "duplicate order"),
        ("letters: a > b", 1, "missing order"),
        ("letters: a > b\norder: deglex\nwhat is this", 3, "cannot parse clause"),
        ("letters: a > b\norder: deglex\na . c = b", 3, "undeclared letter 'c'"),
        ("letters: a > b\norder: deglex\na . 1 = b", 3, "'1' cannot appear"),
        ("letters: a > b\norder: deglex\n= b", 3, "malformed relation"),
        ("letters: a > b\norder: waffle\na . a = b", 2, "unknown order"),
        ("letters: a > b\norder: deglex(Q7)\na . a = b", 2, "unknown letter group"),
        ("letters: a > b\norder: deglex extra\na . a = b", 2, "trailing tokens"),
        ("letters: a > b\norder: deglex!\na . a = b", 2, "trailing tokens"),
        ("letters: a > b\norder: tower(deglex, 3)\na . a = b", 2, "unknown letter group '3'"),
        ("letters: a > b\norder: tower(deglex)\na . a = b", 2, "at least one letter group"),
        ("letters: a > b\norder: deglex(sigma)\na . a = b", 2, "is empty"),
        ("letters: a > b\ninv(a, b); inv(a, a)\norder: deglex", 2, "conflicting inverse"),
        ("letters: x > y\nlevel(x)=1\norder: tower(deglex(all), sigma)", 3, "sets overlap"),
        ("letters: x\norder: " + "tower(" * max(1200, sys.getrecursionlimit() + 1) + "deglex",
         2, "nested too deeply"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.line == line, text
        assert fragment in str(exc.value), text


def test_order_text_argument_replaces_the_file_order():
    # x = y . y leads only under inlex; the file's deglex is never consulted
    text = "letters: x > y; order: deglex; x = y . y"
    with pytest.raises(OrientationError):
        parse_presentation(text)
    S = parse_presentation(text, order="inlex")
    assert (S.order, S.order_text) == (InLex(ranking_of([0, 1])), "inlex")
    assert parse_presentation("letters: x > y; x . x = y", order="deglex").order_text == "deglex"
    # an error in the replacing text has no file line to name
    with pytest.raises(ValueError, match="unknown order 'waffle'") as exc:
        parse_presentation(TOY, order="waffle")
    assert not isinstance(exc.value, ParseError)


def test_parse_accepts_semicolons_comments_and_constants():
    S = parse_presentation(
        "letters: a > b  # greatest first\n"
        "inv(a, b); order: deglex\n"
        "a . b = 1\n")
    assert S.alphabet.inverse == (1, 0)
    assert str(S.lead(0)) == "a b"


def test_dump_parse_round_trip_on_braid_system():
    for n in (2, 3):
        S = artin_markov(n)
        again = parse_presentation(dump_presentation(S))
        assert again == S


def test_dump_header_clauses():
    S = artin_markov(2)
    text = dump_presentation(S, title="five relations")
    assert text.startswith("# five relations\n")
    assert "inv(s12^-1, s12)" in text
    assert "level(s12^-1)=2" in text
    assert "order: tower(deginlex(S2), sigma)" in text
    assert text.count("=") - text.count("level(") == 5  # one '=' per relation


def test_order_text_of_braid_schemes_matches_their_own():
    for n in range(1, 9):
        scheme = braid_scheme(n)
        assert cli._format_order(scheme.order, scheme.alphabet) == scheme.order_text


def test_order_text_of_a_tower_over_a_two_level_base():
    ab = Alphabet([Letter("a"), Letter("b", level=2), Letter("c", level=1)])
    order = Tower(DegLex(ranking_of([0, 1])), ranking_of([2]))
    S = Presentation.from_oriented(ab, order, [(ab.word("c a"), ab.word("a c"))])
    text = dump_presentation(S)
    assert "order: tower(deglex, sigma)\n" in text
    assert parse_presentation(text) == S


def test_order_text_refuses_what_the_grammar_cannot_spell():
    ab = Alphabet([Letter("a"), Letter("b"), Letter("c", level=1)])
    unspellable = [
        DegLex({0: 1, 1: 0, 2: 2}),                             # not ascending by id
        Tower(DegLex(ranking_of([0, 2])), ranking_of([1])),    # no group is {b}
        DegLex(ranking_of([0])),                                # b and c are left out
    ]
    for order in unspellable:
        with pytest.raises(ValueError):
            cli._format_order(order, ab)


_BASES = [DegLex, InLex, DegInLex]


@st.composite
def _hand_built(draw) -> Presentation:
    """A binomial presentation built in code, with an order the grammar spells:
    towers over whole levels, innermost first, and a base over the rest."""
    size = draw(st.integers(1, 5))
    levels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    names = [f"x{i}" for i in range(size)]
    inverse = [None] * size
    if size >= 2 and draw(st.booleans()):
        inverse[0], inverse[1] = names[1], names[0]
    ab = Alphabet([Letter(nm, level=lv, inverse=inv)
                   for nm, lv, inv in zip(names, levels, inverse)])
    tower = draw(st.lists(st.sampled_from(sorted(set(levels))), unique=True))
    in_tower = [i for i in range(size) if levels[i] in tower]
    order = draw(st.sampled_from(_BASES))(ranking_of(i for i in range(size) if i not in in_tower))
    for lv in tower:
        order = Tower(order, ranking_of(i for i in range(size) if levels[i] == lv))
    words = st.lists(st.sampled_from(names), max_size=4).map(ab.word)
    pairs = []
    for u, v in draw(st.lists(st.tuples(words, words), max_size=5)):
        c = compare(order, u, v)
        if c:
            pairs.append((u, v) if c > 0 else (v, u))
    return Presentation.from_oriented(ab, order, pairs)


@settings(max_examples=200, deadline=None)
@given(_hand_built())
def test_dump_parse_round_trip_on_hand_built_presentations(S):
    assert S.order_text is None
    assert parse_presentation(dump_presentation(S)) == S


def test_dump_requires_binomial():
    from gsbraid.freealg import Alphabet, Letter, Polynomial
    from gsbraid.orders import DegLex, ranking_of
    from gsbraid.reduction import NotBinomial, Presentation

    ab = Alphabet([Letter("x")])
    tri = (Polynomial.from_word(ab.word("x x"))
           - Polynomial.from_word(ab.word("x"))
           - Polynomial.from_word(ab.empty_word()))
    S = Presentation(ab, DegLex(ranking_of([0])), [tri])
    with pytest.raises(NotBinomial):
        dump_presentation(S)


# --- verify-gsb --------------------------------------------------------------

def test_verify_braid_system_text_report(capsys):
    assert main(["verify-gsb", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "pairs checked: 841" in out
    assert "ambiguities checked: 73" in out
    assert "failures: 0" in out


def test_verify_json_is_jobs_independent(capsys):
    assert main(["verify-gsb", "--n", "3", "--json", "--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-gsb", "--n", "3", "--json", "--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    blob = json.loads(first)
    assert blob["pairs_checked"] == 841
    assert blob["ambiguities_checked"] == 73
    assert blob["failures"] == []
    assert blob["family_matrix"]["16,16"] == 2


def test_verify_scope_filters_pairs(capsys):
    assert main(["verify-gsb", "--n", "3", "--scope", "16,2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pairs_checked"] == 8
    assert blob["family_matrix"] == {"16,2": 4}


def test_verify_all_fuel_failures_exit_three(capsys):
    assert main(["verify-gsb", "--n", "2", "--fuel", "1"]) == 3
    out = capsys.readouterr().out
    assert "[fuel]" in out


def test_verify_bad_scope_is_a_usage_error(capsys):
    assert main(["verify-gsb", "--n", "2", "--scope", "16"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rejects_unknown_scope_families(capsys):
    for command in ("verify-gsb", "compositions"):
        assert main([command, "--n", "3", "--scope", "99,99", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown family '99'" in captured.err


def test_verify_rejects_fewer_than_one_job(capsys):
    assert main(["verify-gsb", "--n", "2", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_negative_fuel_is_a_usage_error(capsys):
    for argv in (["verify-gsb", "--n", "2"], ["compositions", "--n", "2"],
                 ["complete", "--n", "2"], ["nf", "--n", "3", "--word", "g1"]):
        assert main(argv + ["--fuel", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--fuel" in captured.err


def test_empty_leading_word_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the file format cannot state a nonzero constant: '1' never leads
    path = _write(tmp_path, "letters: x\norder: deglex\n1 = x\n")
    for cmd in ("verify-gsb", "compositions", "complete"):
        assert main([cmd, "--presentation", path]) == 2
    assert "not order-leading" in capsys.readouterr().err
    # a constant relation built in the library: {x x - x, 2}
    S = parse_presentation("letters: x\norder: deglex\nx . x = x\n")
    const = Presentation(S.alphabet, S.order, list(S.relations)
                         + [Polynomial.from_word(S.alphabet.empty_word(), 2)])
    monkeypatch.setattr(cli, "parse_presentation", lambda text, order=None: const)
    for cmd in ("verify-gsb", "compositions", "complete"):
        assert main([cmd, "--presentation", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "relation 1 has an empty leading word" in captured.err


def test_composition_not_below_w_is_a_usage_error(tmp_path, capsys):
    # inlex is not monomial: the branch word x of the inclusion of y = 1 in
    # x . y = x . y . y lies above w = x y
    path = _write(tmp_path, "letters: x > y; order: inlex; y = 1; x . y = x . y . y\n")
    for cmd in ("verify-gsb", "compositions"):
        assert main([cmd, "--presentation", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: composition leading word x is not below w = x y\n"


def test_verify_and_compositions_agree_under_low_fuel(tmp_path, capsys):
    # at w = x y x both branch words are x, a zero composition, even though
    # rewriting x itself would need fuel
    path = _write(tmp_path, TWO_INCLUSIONS)
    assert main(["verify-gsb", "--presentation", path, "--fuel", "0", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert main(["compositions", "--presentation", path, "--fuel", "0", "--json"]) == 1
    listing = json.loads(capsys.readouterr().out)
    failed = [(f["left"], f["right"], f["w"]) for f in report["failures"]]
    nontrivial = [(i["left"], i["right"], i["w"]) for i in listing["instances"]
                  if not i["trivial"]]
    assert failed == nontrivial == [(0, 2, "x y"), (1, 2, "y x")]
    assert all(f["remainder"] != "0" for f in report["failures"])


# --- nf ----------------------------------------------------------------------

def test_nf_of_artin_square(capsys):
    assert main(["nf", "--n", "3", "--word", "g1 g1"]) == 0
    assert capsys.readouterr().out.strip() == "s12"


def test_nf_accepts_scheme_letters_and_json(capsys):
    assert main(["nf", "--n", "3", "--word", "s12^-1 s12", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"input": "s12^-1 s12", "normal_form": "1"}


def test_nf_strategies_agree_via_cli(capsys):
    results = []
    for strategy in ("canonical", "leftmost", "rightmost"):
        assert main(["nf", "--n", "3", "--word", "g2 g1 g1", "--strategy", strategy]) == 0
        results.append(capsys.readouterr().out)
    assert len(set(results)) == 1


def test_nf_on_presentation_file(tmp_path, capsys):
    path = _write(tmp_path, TOY)
    assert main(["nf", "--presentation", path, "--word", "a a a a"]) == 0
    assert capsys.readouterr().out.strip() == "b b"


def test_nf_rejects_unknown_letters(tmp_path, capsys):
    path = _write(tmp_path, TOY)
    assert main(["nf", "--presentation", path, "--word", "a c"]) == 2
    assert "undeclared letter" in capsys.readouterr().err
    assert main(["nf", "--n", "3", "--word", "g5"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["nf", "--n", "3", "--word", "zork"]) == 2
    assert "cannot read token" in capsys.readouterr().err


def test_nf_fuel_exhaustion_exits_three(capsys):
    assert main(["nf", "--n", "3", "--word", "g1 g1 g1", "--fuel", "1"]) == 3
    assert "error:" in capsys.readouterr().err


# --- compositions ------------------------------------------------------------

def test_compositions_scoped_listing(capsys):
    assert main(["compositions", "--n", "3", "--scope", "16,16", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["scope"] == "16,16"
    assert blob["ambiguities_checked"] == 2
    assert all(inst["trivial"] and inst["remainder"] == "0"
               for inst in blob["instances"])
    assert {inst["w"] for inst in blob["instances"]} == {
        "g1^-1 g1^-1 g1^-1", "g2^-1 g2^-1 g2^-1"}


def test_compositions_text_summary(capsys):
    assert main(["compositions", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "nontrivial: 0" in out
    assert "NONTRIVIAL" not in out


def test_compositions_fuel_exhaustion(capsys):
    assert main(["compositions", "--n", "3", "--scope", "15,15", "--fuel", "1",
                 "--json"]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert [inst["remainder"] for inst in blob["instances"]] == ["(fuel exhausted)"]


def test_compositions_text_labels_fuel_failures(capsys):
    assert main(["compositions", "--n", "3", "--scope", "15,15", "--fuel", "1"]) == 3
    out = capsys.readouterr().out
    assert "NONTRIVIAL" not in out
    assert out.splitlines() == [
        "(15,15) intersection w = g2^-1 g1^-1 g2^-1 g1^-1 g2^-1 -> FUEL EXHAUSTED",
        "ambiguities checked: 1, nontrivial: 0"]


# --- complete ----------------------------------------------------------------

def test_complete_reports_closure(capsys):
    assert main(["complete", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "converged: 5 relations, 0 added" in out


def test_complete_divergence(tmp_path, capsys):
    path = _write(tmp_path, DIVERGING)
    assert main(["complete", "--presentation", path, "--max-new", "4", "--json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["converged"] is False
    assert len(blob["added"]) == 4
    assert blob["relations"] == 5


# --- irr ---------------------------------------------------------------------

def test_irr_listing(capsys):
    assert main(["irr", "--n", "3", "--max-len", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1" and len(lines) == 9


def test_irr_json(capsys):
    assert main(["irr", "--n", "3", "--max-len", "2", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["count"] == len(blob["words"]) == 45


def test_irr_over_the_word_limit_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(gsb, "IRR_LIMIT", 100)
    assert main(["irr", "--n", "3", "--max-len", "13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than 100 irreducible words up to length 13\n"


# --- dump-presentation ---------------------------------------------------------

def test_dump_braid_system_round_trips_via_cli(capsys):
    assert main(["dump-presentation", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "# braid relation system, n = 3"
    assert parse_presentation(text) == artin_markov(3)


def test_dump_json_lists_relations(capsys):
    assert main(["dump-presentation", "--n", "3", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["relations"]) == 29
    assert blob["order"] == "tower(deginlex(S3), S2, sigma)"
    assert {"lhs", "family"} == set(blob["relations"][0])


# --- order override and usage errors ------------------------------------------

def test_order_override_revalidates_orientation(tmp_path, capsys):
    # under deglex the cube leads by length; under inlex the single letter
    # wins, so keeping the declared sides would flip the rewrite direction
    path = _write(tmp_path, LONG_LEAD)
    assert main(["nf", "--presentation", path, "--word", "b b b b"]) == 0
    assert capsys.readouterr().out.strip() == "b a"  # rightmost occurrence rewrites
    assert main(["nf", "--presentation", path, "--order", "inlex",
                 "--word", "b a"]) == 2
    assert "not order-leading" in capsys.readouterr().err
    # x = y . y leads only under inlex, which replaces deglex before the check
    path = _write(tmp_path, "letters: x > y; order: deglex; x = y . y\n")
    assert main(["nf", "--presentation", path, "--order", "inlex", "--word", "x x"]) == 0
    assert capsys.readouterr().out == "y y y y\n"


def test_order_override_success_is_visible_in_dump(tmp_path, capsys):
    path = _write(tmp_path, TOY)
    assert main(["dump-presentation", "--presentation", path,
                 "--order", "deginlex"]) == 0
    assert "order: deginlex" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["nf", "--n", "3"]) == 2                      # missing --word
    assert main(["verify-gsb"]) == 2                          # missing source
    assert main(["verify-gsb", "--n", "2",
                 "--presentation", "x"]) == 2                 # mutually exclusive
    assert main(["verify-gsb", "--n", "1"]) == 2
    capsys.readouterr()
    assert main(["verify-gsb", "--presentation", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_options_a_subcommand_does_not_read_are_usage_errors(capsys):
    assert main(["irr", "--n", "2", "--max-len", "1", "--jobs", "2"]) == 2
    assert main(["nf", "--n", "2", "--word", "g1", "--scope", "16,16"]) == 2
    assert main(["dump-presentation", "--n", "2", "--fuel", "5"]) == 2
    assert main(["compositions", "--n", "2", "--jobs", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_out_of_range_options_exit_two_with_nothing_on_stdout(capsys):
    for argv in (["verify-gsb", "--n", "1"],
                 ["verify-gsb", "--n", "2", "--fuel", "-1"],
                 ["verify-gsb", "--n", "2", "--jobs", "0"],
                 ["irr", "--n", "3", "--max-len", "-1"],
                 ["complete", "--n", "2", "--max-new", "-3"],
                 ["verify-gsb", "--n", "3", "--order", "nonsense((("]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err, argv


def test_malformed_orders_and_letters_in_files_exit_two(tmp_path, capsys):
    cases = [
        ("letters: x > y\nlevel(x)=1\norder: tower(deglex(all), sigma)\nx . y = y . x\n",
         "error: line 3: tower Y and Z letter sets overlap"),
        ("letters: x > y > z\nlevel(x)=1; level(y)=1\norder: deglex(sigma)\nx . z = y\n",
         "error: relation 0: letter 'z' is outside the order's alphabet"),
    ]
    for text, message in cases:
        path = _write(tmp_path, text)
        assert main(["dump-presentation", "--presentation", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
    (tmp_path / "bytes.txt").write_bytes(b"letters: a > b\norder: deglex\na . a = \xff\n")
    assert main(["dump-presentation", "--presentation", str(tmp_path / "bytes.txt")]) == 2
    assert "can't decode" in capsys.readouterr().err


def _flat_tower(levels: int) -> str:
    """A tower of one-letter levels x1 < ... < x<levels> over the base letter x0."""
    return (f"letters: {' > '.join(f'x{i}' for i in range(levels, -1, -1))}\n"
            + "; ".join(f"level(x{i})={i}" for i in range(1, levels + 1)) + "\n"
            + f"order: tower(deglex, {', '.join(f'S{i}' for i in range(1, levels + 1))})\n"
            + f"x{levels} . x0 = x0 . x{levels}\n")


def test_a_tower_of_512_levels_runs(tmp_path, capsys):
    assert main(["verify-gsb", "--presentation", _write(tmp_path, _flat_tower(512))]) == 0
    assert "failures: 0" in capsys.readouterr().out


def test_presentations_over_deep_towers_compare_equal():
    for levels in (400, 512):
        text = _flat_tower(levels)
        assert parse_presentation(text) == parse_presentation(text)


@pytest.mark.parametrize("levels", [513, 987, 5000])
def test_towers_of_more_than_512_levels_exit_two(tmp_path, capsys, levels):
    # every level copies the levels below it, so the cap bounds a tower's cost
    assert main(["verify-gsb", "--presentation", _write(tmp_path, _flat_tower(levels))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: tower has more than 512 levels\n"


def test_a_20000_level_tower_file_is_refused_quickly(tmp_path, capsys):
    path = _write(tmp_path, _flat_tower(20000))
    start = time.perf_counter()
    assert main(["dump-presentation", "--presentation", path]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: tower has more than 512 levels\n"
    assert elapsed < 5  # the file is read in one linear pass


def _nest(flat: str, sizes: list[int]) -> str:
    """The tower text ``tower(BASE, G1, ..., Gk)`` spelled as nested towers
    holding sizes[0], sizes[1], ... of its groups, innermost first."""
    base, *groups = flat[len("tower("):-1].split(", ")
    assert sum(sizes) == len(groups)
    text = base
    for size in sizes:
        text = f"tower({text}, {', '.join(groups[:size])})"
        groups = groups[size:]
    return text


def test_nested_and_flat_braid_orders_are_equal():
    for n in range(2, 9):
        scheme = braid_scheme(n)
        flat = scheme.order_text
        nested = _nest(flat, [1] * flat.count(","))
        assert nested.startswith("tower(tower(") or n == 2
        for text in (flat, nested):
            assert cli._parse_order_text(text, scheme.alphabet) == scheme.order


@settings(max_examples=200, deadline=None)
@given(_hand_built(), st.data())
def test_nested_and_flat_tower_spellings_parse_to_equal_orders(S, data):
    flat = cli._format_order(S.order, S.alphabet)
    assert cli._parse_order_text(flat, S.alphabet) == S.order
    if flat.startswith("tower("):
        cuts = data.draw(st.lists(st.booleans(), min_size=flat.count(",") - 1,
                                  max_size=flat.count(",") - 1))
        sizes = [1]
        for cut in cuts:
            if cut:
                sizes.append(1)
            else:
                sizes[-1] += 1
        assert cli._parse_order_text(_nest(flat, sizes), S.alphabet) == S.order


def test_towers_nested_more_than_512_deep_exit_two(tmp_path, capsys):
    for levels in (512, 513):
        flat = _flat_tower(levels)
        order_line = flat.splitlines()[2]
        nested = flat.replace(order_line, "order: " + _nest(order_line[len("order: "):],
                                                            [1] * levels))
        if levels == 512:
            assert parse_presentation(flat).order == parse_presentation(nested).order
            continue
        assert main(["dump-presentation", "--presentation", _write(tmp_path, nested)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: order spec is nested too deeply\n"


# --- malformed files ------------------------------------------------------------

TOWER = """\
letters: x > y > z
level(x)=1; level(y)=1
order: tower(deglex, sigma)
x . z = z . x
y . y = z
"""

_VALID = [TOY, DIVERGING, LONG_LEAD, TWO_INCLUSIONS, TOWER, dump_presentation(artin_markov(2))]

_BAD_ORDERS = [
    "tower(deglex(all), sigma)",                  # a tower group overlaps its base
    "tower(deglex, sigma, sigma)",
    "deglex(sigma)",                              # leaves letters outside the order
    "deglex(S7)",                                 # an empty group
    "tower(" * 1200 + "deglex" + ", sigma)" * 1200,
    "tower(" * 1200 + "deglex",
    "tower(deglex)", "((", "",
]

_BAD_CLAUSES = [
    "letters: a > a", "letters: x > > y", "inv(x, x)", "inv(x, q)", "level(x) = -1",
    "x . q = x", "1 = 1", "x . 1 = x", "= x", "x =", "x . x . x = x . x",
]


@st.composite
def _malformed_file(draw) -> bytes:
    clauses = [c for line in draw(st.sampled_from(_VALID)).splitlines()
               for c in line.split(";") if c.strip()]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(clauses) - 1)) if clauses else 0
        edit = draw(st.sampled_from(["drop", "duplicate", "insert", "order"]))
        if edit == "drop" and clauses:
            del clauses[k]
        elif edit == "duplicate" and clauses:
            clauses.insert(k, clauses[k])
        elif edit == "order":
            order = "order: " + draw(st.sampled_from(_BAD_ORDERS))
            clauses = [order if c.startswith("order:") else c for c in clauses]
        else:
            clauses.insert(k, draw(st.sampled_from(_BAD_CLAUSES)))
    data = "\n".join(clauses).encode("utf-8")
    if draw(st.booleans()):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + data[k:]
    return data


_COMMAND_LINES = [["dump-presentation"], ["dump-presentation", "--json"],
                  ["verify-gsb", "--fuel", "2000"], ["compositions", "--fuel", "2000"],
                  ["complete", "--max-new", "3", "--fuel", "2000"], ["irr", "--max-len", "2"],
                  ["nf", "--word", "x y x", "--fuel", "2000"]]


@settings(max_examples=300, deadline=None)
@given(_malformed_file(), st.sampled_from(_COMMAND_LINES))
def test_malformed_files_exit_with_a_documented_code(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command[:1] + ["--presentation", str(path)] + command[1:])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
