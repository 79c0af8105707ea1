"""Command-line front end.

Subcommands: verify-gsb, nf, compositions, complete, irr,
dump-presentation.  A presentation comes either from --n (the braid
system for n strands) or from --presentation FILE; the two are mutually
exclusive.  --order goes with --presentation only: it replaces the file's
order before any relation is checked for orientation.  --n must be at
least 2, --jobs at least 1, and --fuel, --max-len and --max-new at least 0.

Presentation file grammar (clauses separated by newlines or ';', comments
start with '#'):

    letters: a > b > c          ranked declaration, greatest first
    inv(a, b)                   a and b are inverse partners
    level(a) = 2                block level (0 if omitted)
    order: deglex               order spec, see below
    LHS = RHS                   one relation per clause; '.' concatenates
                                letters and '1' is the empty word

Order specs:  deglex | inlex | deginlex, optionally with a letter group
in parentheses, or tower(SPEC, GROUP, ...).  A group is ``sigma`` or
``S<k>`` or ``L<k>`` (the letters of level 1 resp. level k) or ``all``;
a base spec without a group covers every letter not claimed by an
enclosing tower.  Tower groups are listed innermost first, so the braid
scheme order reads ``tower(deginlex(S3), S2, sigma)``.  A nested tower is
the flat list of its groups: ``tower(tower(X, A), B)`` is
``tower(X, A, B)``.  Towers nest at most 512 deep, and a tower has at
most 512 levels.

Exit codes: 0 success; 1 verification failure (a nontrivial composition,
or completion diverged); 2 parse or usage error (every input error: a
malformed option, file or word, or input the library rejects, such as a
relation that is not order-leading or has an empty leading word); 3 fuel
exhausted (every reported failure ran out of fuel, or nf/complete hit the
fuel bound).

JSON reports (--json) are schema-stable and byte-identical for every
--jobs setting.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from .braid import artin_markov, artin_to_s, braid_scheme
from .freealg import Alphabet, Letter, Word
from .gsb import (Diverged, _check_row, _require_nonempty_leads, _rows,
                  _scope_set, complete, enumerate_irr, verify_gsb)
from .orders import _MAX_TOWER_LEVELS, _levels, DegInLex, DegLex, InLex, OrderSpec, Tower, ranking_of
from .reduction import (_STRATEGIES, DEFAULT_FUEL, DEFAULT_STRATEGY, FuelExhausted,
                        NotBinomial, Presentation, format_polynomial, word_nf)


class ParseError(ValueError):
    """A presentation-text error, carrying the 1-based source line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


_INV_RE = re.compile(r"^inv\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)$")
_LEVEL_RE = re.compile(r"^level\(\s*([^\s,()]+)\s*\)\s*=\s*(-?\d+)$")
_BASE_ORDERS = {"deglex": DegLex, "inlex": InLex, "deginlex": DegInLex}


def _parse_order_text(text: str, alphabet: Alphabet) -> OrderSpec:
    """The order spec that text names over alphabet; ValueError if it names
    none.  One pass: the ``tower(`` prefixes, the base, then the groups of
    each tower innermost first, so a nest reads as its flat group list."""
    tokens = re.findall(r"[A-Za-z_]\w*|\S", text)
    pos = 0

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"order spec ended unexpectedly in {text!r}")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in order spec")
        pos += 1
        return tok

    depth = 0
    head = take().lower()
    while head == "tower":
        depth += 1
        if depth > _MAX_TOWER_LEVELS:
            raise ValueError("order spec is nested too deeply")
        take("(")
        head = take().lower()
    if head not in _BASE_ORDERS:
        raise ValueError(f"unknown order {head!r}")
    base_group = None
    if tokens[pos:pos + 1] == ["("]:
        take("(")
        base_group = take()
        take(")")
    towers: list[list[str]] = []  # the group names of each tower, innermost first
    for _ in range(depth):
        groups = []
        while tokens[pos:pos + 1] == [","]:
            take(",")
            groups.append(take())
        take(")")
        if not groups:
            raise ValueError("tower needs at least one letter group")
        towers.append(groups)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in order spec {text!r}")

    everything = list(range(len(alphabet)))
    by_level: dict[int, list[int]] = {}
    for i, level in enumerate(alphabet.levels):
        by_level.setdefault(level, []).append(i)

    def group_ids(name: str) -> list[int]:
        low = name.lower()
        if low == "all":
            return everything
        if low == "sigma":
            level = 1
        elif low[0] in "sl" and low[1:].isdigit():
            level = int(low[1:])
        else:
            raise ValueError(f"unknown letter group {name!r}")
        if level not in by_level:
            raise ValueError(f"letter group {name!r} is empty")
        return by_level[level]

    # outermost tower first: of several bad groups, the outermost is reported
    resolved = [[group_ids(name) for name in groups] for groups in reversed(towers)]
    if base_group is None:
        # a group is one shared list: take each distinct one once
        taken = set().union(*{id(ids): ids for groups in resolved for ids in groups}.values())
        ids = [i for i in everything if i not in taken]
    else:
        ids = group_ids(base_group)
    spec = _BASE_ORDERS[head](ranking_of(ids))
    for groups in reversed(resolved):
        for ids in groups:
            spec = Tower(spec, ranking_of(ids))
    return spec


def parse_presentation(text: str, order: Optional[str] = None) -> Presentation:
    """Parse the presentation file grammar; see the module docstring.

    An order text given as ``order`` replaces the file's order clause, before
    any relation is checked for orientation.
    """
    letters_decl: Optional[list[str]] = None
    letters_line = 0
    inverses: dict[str, str] = {}
    levels: dict[str, int] = {}
    order_clause: Optional[tuple[int, str]] = None
    relation_clauses: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for clause in body.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("letters:"):
                if letters_decl is not None:
                    raise ParseError(lineno, "duplicate letters declaration")
                names = [p.strip() for p in clause[len("letters:"):].split(">")]
                if any(not p for p in names):
                    raise ParseError(lineno, "empty name in letters declaration")
                letters_decl, letters_line = names, lineno
                continue
            if clause.startswith("order:"):
                if order_clause is not None:
                    raise ParseError(lineno, "duplicate order declaration")
                order_clause = (lineno, clause[len("order:"):].strip())
                continue
            m = _INV_RE.match(clause)
            if m:
                a, b = m.group(1), m.group(2)
                if inverses.setdefault(a, b) != b or inverses.setdefault(b, a) != a:
                    raise ParseError(lineno, f"conflicting inverse pairing for {a!r}/{b!r}")
                continue
            m = _LEVEL_RE.match(clause)
            if m:
                levels[m.group(1)] = int(m.group(2))
                continue
            if "=" in clause:
                relation_clauses.append((lineno, clause))
                continue
            raise ParseError(lineno, f"cannot parse clause {clause!r}")

    if letters_decl is None:
        raise ParseError(1, "missing letters declaration")
    declared = set(letters_decl)
    if len(declared) != len(letters_decl):
        raise ParseError(letters_line, "duplicate letter in letters declaration")
    for name in list(inverses) + list(levels):
        if name not in declared:
            raise ParseError(letters_line, f"undeclared letter {name!r} in header")
    ascending = list(reversed(letters_decl))
    alphabet = Alphabet([
        Letter(name, level=levels.get(name, 0), inverse=inverses.get(name))
        for name in ascending
    ])
    if order is not None:
        spec = _parse_order_text(order, alphabet)
    elif order_clause is None:
        raise ParseError(letters_line, "missing order declaration")
    else:
        order_line, order = order_clause
        try:
            spec = _parse_order_text(order, alphabet)
        except ValueError as e:
            raise ParseError(order_line, str(e)) from None

    def parse_word(tok: str, lineno: int) -> Word:
        tok = tok.strip()
        if tok == "1":
            return alphabet.empty_word()
        names = [p.strip() for p in tok.split(".")]
        for nm in names:
            if nm == "1":
                raise ParseError(lineno, "'1' cannot appear inside a product")
            if nm not in alphabet:
                raise ParseError(lineno, f"undeclared letter {nm!r}")
        return alphabet.word(names)

    pairs: list[tuple[Word, Word]] = []
    for lineno, clause in relation_clauses:
        left, _, right = clause.partition("=")
        if not left.strip() or not right.strip():
            raise ParseError(lineno, f"malformed relation {clause!r}")
        pairs.append((parse_word(left, lineno), parse_word(right, lineno)))

    return Presentation.from_oriented(alphabet, spec, pairs, order_text=order)


def dump_presentation(S: Presentation, title: Optional[str] = None) -> str:
    """Render a binomial presentation in the parseable file format."""
    if not S.binomial:
        raise NotBinomial("only binomial presentations have a textual dump")
    lines: list[str] = []
    if title:
        lines.append(f"# {title}")
    names = [let.name for let in S.alphabet.letters]
    lines.append("letters: " + " > ".join(reversed(names)))
    seen = set()
    inv_clauses = []
    for i, let in enumerate(S.alphabet.letters):
        if let.inverse is not None and i not in seen:
            j = S.alphabet.inverse[i]
            seen.update((i, j))
            inv_clauses.append(f"inv({let.name}, {let.inverse})")
    if inv_clauses:
        lines.append("; ".join(inv_clauses))
    level_clauses = [f"level({let.name})={let.level}" for let in S.alphabet.letters if let.level]
    if level_clauses:
        lines.append("; ".join(level_clauses))
    order_text = S.order_text or _format_order(S.order, S.alphabet)
    lines.append(f"order: {order_text}")
    for i in range(len(S.relations)):
        lhs = " . ".join(S.lead(i).names()) or "1"
        rhs = " . ".join(Word(S.alphabet, S._tails[i]).names()) or "1"
        lines.append(f"{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def _format_order(spec: OrderSpec, alphabet: Alphabet) -> str:
    """The order-spec text that parses back to spec; ValueError if the
    grammar cannot spell it.  A base covering exactly the letters that no
    enclosing tower claims prints without a group, unless a tower encloses
    it and one level names it (as braid_scheme writes it)."""
    def ascending(ranking) -> list[int]:
        ids = sorted(ranking)
        if dict(ranking) != ranking_of(ids):
            raise ValueError("order text can only rank letters ascending by id")
        return ids

    def level_group(ids: list[int]) -> Optional[str]:
        levels = {alphabet.levels[i] for i in ids}
        if len(levels) != 1:
            return None
        lv = levels.pop()
        if lv < 0 or ids != [i for i, x in enumerate(alphabet.levels) if x == lv]:
            return None
        return "sigma" if lv == 1 else f"S{lv}"

    everything = list(range(len(alphabet)))
    groups: list[str] = []
    taken: set[int] = set()
    base, z_rankings = _levels(spec)
    for z_ranking in reversed(z_rankings):  # outermost first, as errors are reported
        ids = ascending(z_ranking)
        group = level_group(ids) or ("all" if ids == everything else None)
        if group is None:
            raise ValueError(f"no letter group names the tower letters {ids}")
        groups.append(group)
        taken.update(ids)
    text = {cls: name for name, cls in _BASE_ORDERS.items()}[type(base)]
    ids = ascending(base.ranking)
    group = level_group(ids)
    unclaimed = ids == [i for i in everything if i not in taken]
    if group is None and not unclaimed:
        raise ValueError(f"no letter group names the base order's letters {ids}")
    if group is not None and (groups or not unclaimed):
        text = f"{text}({group})"
    return f"tower({text}, {', '.join(reversed(groups))})" if groups else text


def _json_out(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_presentation(args) -> tuple[Presentation, Optional[int]]:
    if args.n is None:
        with open(args.presentation, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read(), args.order), None
    if args.order is not None:
        raise ValueError("--order goes with --presentation only")
    return artin_markov(args.n), args.n


def _cmd_verify(args) -> int:
    S, _ = _load_presentation(args)
    report = verify_gsb(S, fuel=args.fuel, scope=args.scope, jobs=args.jobs)
    if args.json:
        _json_out(report.to_json_dict())
    else:
        print(report.summary())
    if report.ok:
        return 0
    return 3 if all(f.reason == "fuel" for f in report.failures) else 1


def _parse_cli_word(text: str, S: Presentation, n: Optional[int]) -> Word:
    tokens = text.split()
    if n is None:
        for tok in tokens:
            if tok not in S.alphabet:
                raise ValueError(f"undeclared letter {tok!r} in --word")
        return S.alphabet.word(tokens)
    scheme = braid_scheme(n)
    ids: list[int] = []
    for tok in tokens:
        if tok in scheme.alphabet:
            ids.append(scheme.alphabet.id_of(tok))
        elif re.fullmatch(r"g\d+", tok):
            k = int(tok[1:])
            if not 1 <= k <= n - 1:
                raise ValueError(f"generator {tok!r} out of range for n={n}")
            ids.extend(artin_to_s((k,), scheme).letters)
        else:
            raise ValueError(f"cannot read token {tok!r} as a letter for n={n}")
    return Word(scheme.alphabet, tuple(ids))


def _cmd_nf(args) -> int:
    S, n = _load_presentation(args)
    word = _parse_cli_word(args.word, S, n)
    result = word_nf(word, S, fuel=args.fuel, strategy=args.strategy)
    if args.json:
        _json_out({"input": args.word, "normal_form": str(result)})
    else:
        print(result)
    return 0


def _cmd_compositions(args) -> int:
    S, _ = _load_presentation(args)
    _require_nonempty_leads(S)
    scope, fams = args.scope, S.families
    instances, reasons = [], []
    for i, js in _rows(S, _scope_set(scope, fams)):
        for j, amb, failure in _check_row(S, i, js, args.fuel):
            reasons.append(failure.reason if failure else None)
            if failure is None:
                remainder = "0"
            elif failure.reason == "fuel" and S.binomial:
                remainder = "(fuel exhausted)"  # the word path keeps no partial remainder
            else:
                remainder = format_polynomial(failure.remainder, S.order)
            instances.append({
                "families": f"{fams[i]},{fams[j]}",
                "kind": amb.kind,
                "left": i,
                "right": j,
                "w": str(amb.w),
                "trivial": failure is None,
                "remainder": remainder,
            })
    if args.json:
        _json_out({"scope": f"{scope[0]},{scope[1]}" if scope else "all",
                   "ambiguities_checked": len(instances),
                   "instances": instances})
    else:
        for inst in instances:
            status = "trivial" if inst["trivial"] else f"NONTRIVIAL: {inst['remainder']}"
            print(f"({inst['families']}) {inst['kind']} w = {inst['w']} -> {status}")
        print(f"ambiguities checked: {len(instances)}, nontrivial: {reasons.count('nontrivial')}")
    return 1 if "nontrivial" in reasons else 3 if "fuel" in reasons else 0


def _cmd_complete(args) -> int:
    S, _ = _load_presentation(args)
    try:
        result, log = complete(S, max_new=args.max_new, fuel=args.fuel)
        converged = True
    except Diverged as e:
        result, log = e.partial, e.log
        converged = False
    if args.json:
        _json_out({
            "converged": converged,
            "added": [{"index": ev.index,
                       "relation": format_polynomial(ev.added, S.order),
                       "from_pair": [ev.left_rel, ev.right_rel],
                       "w": str(ev.ambiguity.w)} for ev in log],
            "relations": len(result.relations),
        })
    else:
        for ev in log:
            print(f"added [{ev.index}] {format_polynomial(ev.added, S.order)}"
                  f"  (from pair {ev.left_rel},{ev.right_rel} at w = {ev.ambiguity.w})")
        print(f"{'converged' if converged else 'DIVERGED'}: "
              f"{len(result.relations)} relations, {len(log)} added")
    return 0 if converged else 1


def _cmd_irr(args) -> int:
    S, _ = _load_presentation(args)
    words = enumerate_irr(S, args.max_len)
    if args.json:
        _json_out({"max_len": args.max_len, "count": len(words),
                   "words": [str(w) for w in words]})
    else:
        for w in words:
            print(w)
    return 0


def _cmd_dump(args) -> int:
    S, n = _load_presentation(args)
    title = f"braid relation system, n = {n}" if n is not None else "presentation"
    if args.json:
        _json_out({
            "title": title,
            "letters": [let.name for let in reversed(S.alphabet.letters)],
            "order": S.order_text or _format_order(S.order, S.alphabet),
            "relations": [{"lhs": str(S.lead(i)), "family": S.families[i]}
                          for i in range(len(S.relations))],
        })
    else:
        sys.stdout.write(dump_presentation(S, title))
    return 0


def _at_least(low: int):
    """An argparse type: an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _family_pair(text: str) -> tuple[str, str]:
    """An argparse type: the --scope text 'FAM,FAM' as a label pair."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"must be 'FAM,FAM', got {text!r}")
    return (parts[0], parts[1])


# every option a subcommand can read besides its presentation source
_OPTIONS = {
    "--order": dict(help="order spec, overrides the file's order"),
    "--fuel": dict(type=_at_least(0), default=DEFAULT_FUEL, help="reduction step budget"),
    "--jobs": dict(type=_at_least(1), default=1, help="parallel worker count"),
    "--scope": dict(type=_family_pair, help="family pair filter 'iFAM,jFAM'"),
    "--json": dict(action="store_true", help="machine-readable report"),
    "--word": dict(required=True, help="whitespace-separated letters"),
    "--strategy": dict(default=DEFAULT_STRATEGY, choices=tuple(_STRATEGIES),
                       help="rewriting schedule; no schedule is fastest on every "
                            "word, and canonical can need exponentially many steps"),
    "--max-len": dict(type=_at_least(0), required=True),
    "--max-new": dict(type=_at_least(0), default=100, help="completion addition budget"),
}

# subcommand: (handler, help, the options it reads, in --help order)
_COMMANDS = {
    "verify-gsb": (_cmd_verify, "check all compositions",
                   ("--order", "--fuel", "--jobs", "--scope", "--json")),
    "nf": (_cmd_nf, "normal form of a word",
           ("--order", "--fuel", "--json", "--word", "--strategy")),
    "compositions": (_cmd_compositions, "list compositions, optionally scoped",
                     ("--order", "--fuel", "--scope", "--json")),
    "complete": (_cmd_complete, "Shirshov completion",
                 ("--order", "--fuel", "--json", "--max-new")),
    "irr": (_cmd_irr, "irreducible words up to a length", ("--order", "--json", "--max-len")),
    "dump-presentation": (_cmd_dump, "print the presentation file", ("--order", "--json")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsbraid",
        description="Groebner-Shirshov basis verification and braid normal forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--n", type=_at_least(2), help="strand count; use the braid system")
        src.add_argument("--presentation", help="presentation file")
        for flag in reads:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FuelExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
