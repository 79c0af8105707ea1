"""Composition enumeration, triviality checking, basis verification, completion.

A pair of relations f, g with leading words f̄, ḡ meets in two ways:

- intersection: a proper suffix of f̄ equals a proper prefix of ḡ, giving
  w = f̄.b = a.ḡ with |w| < |f̄| + |ḡ| and composition (f,g)_w = f.b - a.g;
- inclusion: ḡ occurs inside f̄, giving w = f̄ = a.ḡ.b and composition
  (f,g)_w = f - a.g.b.

The case where ḡ is a full suffix of f̄ satisfies both definitions with
the same composition polynomial; it is classified as an inclusion at the
trailing position.  Self-pairs are enumerated, except the degenerate
full-length self-inclusion (zero polynomial).

A composition is trivial when it reduces to zero; since every reduction
step rewrites below w, a zero normal form witnesses the required
expansion sum(alpha_i a_i s_i b_i) with a_i s̄_i b_i < w.  verify_gsb
checks every ambiguity of every ordered relation pair with one check,
_check: None for a trivial composition, else the failure with its
evidence.  The ambiguities come from an overlap index over the leading
words, not from a walk over the pairs.  Workers send back only failures;
the report does not depend on their number.  On binomial presentations
the check rewrites the two branch words on the word fast path and compares
their normal forms; its trace concatenates both rewrite sequences and
replays soundly on the composition polynomial (steps on cancelled terms
are no-ops).
"""

from __future__ import annotations

import functools
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterator, Optional, Sequence

from .freealg import Polynomial, Word
from .orders import GREATER, LESS, OrderSpec, compare_ids
from .reduction import (DEFAULT_FUEL, FuelExhausted, Presentation,
                        ReductionStep, ReductionTrace, _check_fuel, _decode,
                        _encode, format_polynomial, leading, normal_form)


class InconsistentAmbiguity(ValueError):
    """Raised when an ambiguity does not factor against the leading words."""


class EmptyLeadingWord(ValueError):
    """Raised on a relation whose leading word is empty (a nonzero constant)."""


class Diverged(RuntimeError):
    """Raised when completion hits max_new; carries the partial basis and log."""

    def __init__(self, partial: Presentation, log: list["CompletionEvent"]):
        super().__init__(f"completion did not converge within {len(log)} added relations")
        self.partial = partial
        self.log = log


@dataclass(frozen=True)
class Ambiguity:
    """One overlap of two leading words: w = f̄.b = a.ḡ or w = f̄ = a.ḡ.b."""

    kind: str  # "intersection" or "inclusion"
    left_rel: int
    right_rel: int
    a: Word
    b: Word
    w: Word


@dataclass(frozen=True)
class VerificationFailure:
    """A nontrivial (or fuel-starved) composition with its evidence."""

    ambiguity: Ambiguity
    remainder: Polynomial
    trace: ReductionTrace
    reason: str = "nontrivial"  # or "fuel"


@dataclass
class VerificationReport:
    pairs_checked: int
    ambiguities_checked: int
    failures: tuple[VerificationFailure, ...]
    family_matrix: dict[tuple[str, str], int]
    order: OrderSpec = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "ambiguities_checked": self.ambiguities_checked,
            "failures": [
                {
                    "kind": f.ambiguity.kind,
                    "left": f.ambiguity.left_rel,
                    "right": f.ambiguity.right_rel,
                    "w": str(f.ambiguity.w),
                    "remainder": format_polynomial(f.remainder, self.order),
                }
                for f in self.failures
            ],
            "family_matrix": {f"{i},{j}": c for (i, j), c in sorted(self.family_matrix.items())},
        }

    def summary(self) -> str:
        lines = [
            f"pairs checked: {self.pairs_checked}",
            f"ambiguities checked: {self.ambiguities_checked}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            lines.append(f"  [{f.reason}] ({f.ambiguity.left_rel},{f.ambiguity.right_rel})"
                         f" {f.ambiguity.kind} w = {f.ambiguity.w}:"
                         f" {format_polynomial(f.remainder, self.order)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MinimalityReport:
    ok: bool
    containments: tuple[tuple[int, int, int], ...]   # lead of rel j inside lead of rel i at pos
    reducible_tails: tuple[tuple[int, Word, int], ...]  # tail of rel i reducible by rel j


@dataclass(frozen=True)
class CompletionEvent:
    left_rel: int
    right_rel: int
    ambiguity: Ambiguity
    added: Polynomial
    index: int


def enumerate_ambiguities(fbar: Word, gbar: Word, left_rel: int = 0, right_rel: int = 0) -> list[Ambiguity]:
    """All compositions of the ordered pair: intersections first (overlap
    length ascending), then inclusions (position ascending)."""
    f, g = fbar.letters, gbar.letters
    if not f or not g:
        raise ValueError("leading words must be nonempty")
    out: list[Ambiguity] = []
    for t in range(1, min(len(f), len(g))):
        if f[len(f) - t:] == g[:t]:
            b = gbar[t:]
            out.append(Ambiguity("intersection", left_rel, right_rel,
                                 fbar[:len(f) - t], b, fbar * b))
    if len(g) <= len(f):
        for p in range(len(f) - len(g) + 1):
            if f[p:p + len(g)] == g:
                if left_rel == right_rel and len(g) == len(f):
                    continue  # degenerate self-inclusion: zero composition
                out.append(Ambiguity("inclusion", left_rel, right_rel,
                                     fbar[:p], fbar[p + len(g):], fbar))
    return out


def composition(f: Polynomial, g: Polynomial, amb: Ambiguity, order: OrderSpec) -> Polynomial:
    """(f,g)_w: f.b - a.g for intersections, f - a.g.b for inclusions."""
    fbar, _ = leading(f, order)
    gbar, _ = leading(g, order)
    a, b, w = amb.a, amb.b, amb.w
    if amb.kind == "intersection":
        if w != fbar * b or w != a * gbar:
            raise InconsistentAmbiguity(f"w = {w} does not factor as f̄.b = a.ḡ")
        return f.right_mul(b) - g.left_mul(a)
    if amb.kind == "inclusion":
        if w != fbar or w != a * gbar * b:
            raise InconsistentAmbiguity(f"w = {w} does not factor as f̄ = a.ḡ.b")
        return f - g.left_mul(a).right_mul(b)
    raise InconsistentAmbiguity(f"unknown ambiguity kind {amb.kind!r}")


def check_trivial(f: Polynomial, g: Polynomial, amb: Ambiguity, S: Presentation,
                  fuel: int = DEFAULT_FUEL) -> tuple[bool, ReductionTrace]:
    """Whether (f,g)_w reduces to zero modulo S; the trace is the evidence.

    f and g are relations of S, and ``fuel`` is at least 0.  When S and the
    composition are binomial, this is _branch_check on the composition's +1
    and -1 terms; otherwise the composition is reduced on the polynomial path.
    """
    _check_fuel(fuel)
    comp = composition(f, g, amb, S.order)
    if comp.is_zero():
        return True, ReductionTrace([], comp, 0)
    if S.binomial and sorted(comp.terms.values()) == [Fraction(-1), Fraction(1)]:
        u, v = sorted(comp.terms, key=comp.terms.get, reverse=True)  # +1 term, -1 term
        return _branch_check(S, amb, u, v, fuel, trace=True)
    _require_below_w(S, leading(comp, S.order)[0].letters, amb)
    nf, trace = normal_form(comp, S, fuel)
    return nf.is_zero(), trace


def _require_below_w(S: Presentation, lead: tuple[int, ...], amb: Ambiguity) -> None:
    """The leading word of a composition must lie below its ambiguity's w."""
    if compare_ids(S.order, lead, amb.w.letters) != LESS:
        raise InconsistentAmbiguity(f"composition leading word {Word(S.alphabet, lead)}"
                                    f" is not below w = {amb.w}")


def _branch_words(S: Presentation, amb: Ambiguity) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The branch words (u, v) of amb's composition u - v, from the stored tails."""
    tails, a, b = S._tails, amb.a.letters, amb.b.letters
    if amb.kind == "intersection":
        return a + tails[amb.right_rel], tails[amb.left_rel] + b
    return a + tails[amb.right_rel] + b, tails[amb.left_rel]


def _branch_check(S: Presentation, amb: Ambiguity, u: tuple[int, ...], v: tuple[int, ...],
                  fuel: int, trace: bool = False) -> tuple[bool, Optional[ReductionTrace]]:
    """The one check of a binomial composition u - v at amb: whether its
    branch words u, v, rewritten in that order under one fuel budget, meet.

    Identical words are a zero composition.  The larger word is checked to
    lie below w only under a non-monomial order (InLex at the base); under
    a monomial order it always does.  ``trace`` adds both rewrite sequences
    as one ReductionTrace, which replays on u - v.
    """
    if u == v:
        return True, ReductionTrace([], Polynomial.zero(S.alphabet), 0) if trace else None
    if not S._monomial:
        _require_below_w(S, u if compare_ids(S.order, u, v) == GREATER else v, amb)
    emit: Optional[list] = [] if trace else None
    eng = S._engine()
    try:
        su, used = eng.run(_encode(u), fuel, 0, emit)
        sv, used = eng.run(_encode(v), fuel, used, emit)
    except FuelExhausted as e:
        raise FuelExhausted(e.fuel_used, partial=Word(S.alphabet, _decode(e.partial))) from None
    if not trace:
        return su == sv, None
    steps = [ReductionStep(idx, p, Word(S.alphabet, _decode(a)), Word(S.alphabet, _decode(b)))
             for idx, p, a, b in emit]
    result = (Polynomial.from_word(Word(S.alphabet, _decode(su)))
              - Polynomial.from_word(Word(S.alphabet, _decode(sv))))
    return su == sv, ReductionTrace(steps, result, used)


def _require_nonempty_leads(S: Presentation) -> None:
    """Ambiguities are defined between nonempty leading words only."""
    for k, lead in enumerate(S._lead):
        if not lead:
            raise EmptyLeadingWord(f"relation {k} has an empty leading word (a nonzero constant)")


def _is_label_pair(x) -> bool:
    return isinstance(x, tuple) and len(x) == 2 and all(isinstance(y, str) for y in x)


def _scope_set(scope, families: Sequence[str]) -> Optional[set[tuple[str, str]]]:
    if scope is None:
        return None
    scopes = [scope] if _is_label_pair(scope) else list(scope)
    for pair in scopes:
        if not _is_label_pair(pair):
            raise ValueError(f"scope entries must be (family, family) label pairs, got {pair!r}")
    scopes = set(scopes)
    unknown = {x for pair in scopes for x in pair} - set(families)
    if unknown:
        raise ValueError("scope names unknown family "
                         + ", ".join(sorted(map(repr, unknown))))
    return scopes


def _rows(S: Presentation, scopes: Optional[set[tuple[str, str]]]
          ) -> list[tuple[int, Collection[int]]]:
    """Each relation i that has ordered pairs (i, j) in scope, with those j."""
    m = len(S.relations)
    if scopes is None:
        return [(i, range(m)) for i in range(m)]
    members: dict[str, list[int]] = {}
    for j, fam in enumerate(S.families):
        members.setdefault(fam, []).append(j)
    partners: dict[str, set[int]] = {}
    for left, right in scopes:
        partners.setdefault(left, set()).update(members[right])
    return [(i, partners[fam]) for i, fam in enumerate(S.families) if fam in partners]


def _check(S: Presentation, amb: Ambiguity, fuel: int) -> Optional[VerificationFailure]:
    """None when amb's composition is trivial, else the failure with its evidence.

    On a binomial presentation the verdict is _branch_check on _branch_words;
    a nontrivial composition is rewritten once more with a trace, and a fuel
    failure is reported unreduced.  Otherwise one check_trivial call gives
    both the verdict and the evidence (on fuel exhaustion, the trace it raised).
    """
    f, g = S.relations[amb.left_rel], S.relations[amb.right_rel]
    try:
        if not S.binomial:
            ok, trace = check_trivial(f, g, amb, S, fuel)
        elif _branch_check(S, amb, *_branch_words(S, amb), fuel)[0]:
            return None
        else:  # nontrivial: the evidence is one more rewrite, traced
            ok, trace = _branch_check(S, amb, *_branch_words(S, amb), fuel, trace=True)
    except FuelExhausted as e:
        trace = ReductionTrace([], composition(f, g, amb, S.order), fuel) if S.binomial else e.trace
        return VerificationFailure(amb, trace.result, trace, "fuel")
    return None if ok else VerificationFailure(amb, trace.result, trace)


def _lead_factors(S: Presentation, s: str) -> list[tuple[int, int]]:
    """(position, j) for each occurrence of lead j in the encoded word s, by
    position, then length, then j, from S's overlap index.  An empty lead
    occurs at every position, first at 0, as str.find("") has it."""
    whole, n = S._overlap_index()[1], len(s)
    return [(p, j) for p in range(n + 1) for q in range(p, n + 1) for j in whole.get(s[p:q], ())]


def _check_row(S: Presentation, i: int, js: Collection[int], fuel: int
               ) -> Iterator[tuple[int, Ambiguity, Optional[VerificationFailure]]]:
    """Check every ambiguity of the ordered pairs (i, j), j in js, in
    enumeration order: j ascending, then intersections by overlap length,
    then inclusions by position.  Yields (j, ambiguity, _check's failure or None).

    The partners come from S's overlap index, not from a walk over js: lead
    j meets lead i in an intersection where a proper suffix of lead i is a
    proper prefix of lead j, and in an inclusion where lead j is a factor
    of lead i (_lead_factors).  Leading words must be nonempty (see
    _require_nonempty_leads).
    """
    prefixes = S._overlap_index()[0]
    f = S._lead_s[i]
    n = len(f)
    hits = [(j, 0, t) for t in range(1, n) for j in prefixes.get(f[n - t:], ()) if j in js]
    hits += [(j, 1, p) for p, j in _lead_factors(S, f) if j in js and j != i]
    hits.sort()
    A, li = S.alphabet, S._lead[i]
    for j, inclusion, k in hits:
        if inclusion:  # lead j at position k
            amb = Ambiguity("inclusion", i, j, Word(A, li[:k]),
                            Word(A, li[k + len(S._lead[j]):]), Word(A, li))
        else:  # the last k letters of lead i begin lead j
            b = S._lead[j][k:]
            amb = Ambiguity("intersection", i, j, Word(A, li[:n - k]), Word(A, b), Word(A, li + b))
        yield j, amb, _check(S, amb, fuel)


_WORKER_STATE: dict = {}


def _init_worker(S: Presentation, fuel: int) -> None:
    _WORKER_STATE.update(S=S, fuel=fuel)


def _row_task(row: tuple[int, Collection[int]]) -> list[tuple[int, Optional[VerificationFailure]]]:
    """(j, failure) per check of the row: a trivial check crosses back as (j, None)."""
    return [(j, failure) for j, _, failure in
            _check_row(_WORKER_STATE["S"], *row, _WORKER_STATE["fuel"])]


def verify_gsb(S: Presentation, fuel: int = DEFAULT_FUEL,
               scope=None, jobs: int = 1) -> VerificationReport:
    """Check triviality of every composition of every ordered relation pair.

    scope, when given, is one (family_i, family_j) label pair or an
    iterable of such pairs; only matching ordered pairs are checked, and
    an entry that is not such a pair, or a label that is not a family of
    S, raises ValueError.  ``fuel`` (at least 0) bounds each composition
    check; fuel exhaustion is recorded as a failure with reason "fuel" and
    never aborts the run.  ``jobs`` must be at least 1; it is capped by the
    CPU count and by the number of relations with pairs in scope.  The
    report does not depend on ``jobs``.  A relation with an empty leading
    word (a nonzero constant) raises EmptyLeadingWord, a ValueError.
    """
    _require_nonempty_leads(S)
    _check_fuel(fuel)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    rows = _rows(S, _scope_set(scope, S.families))
    jobs = min(jobs, os.cpu_count() or 1, len(rows))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only when used
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(S, fuel)) as pool:
            chunk = max(1, len(rows) // (jobs * 8))
            done = list(pool.map(_row_task, rows, chunksize=chunk))
        checks = ((i, j, failure) for (i, _), row in zip(rows, done) for j, failure in row)
    else:
        checks = ((i, j, failure) for i, js in rows for j, _, failure in _check_row(S, i, js, fuel))

    fams = S.families
    ambiguities = 0
    matrix: dict[tuple[str, str], int] = {}
    failures: list[VerificationFailure] = []
    for i, j, failure in checks:
        ambiguities += 1
        key = (fams[i], fams[j])
        matrix[key] = matrix.get(key, 0) + 1
        if failure is not None:
            failures.append(failure)
    return VerificationReport(pairs_checked=sum(len(js) for _, js in rows),
                              ambiguities_checked=ambiguities,
                              failures=tuple(failures), family_matrix=matrix, order=S.order)


def verify_minimal(S: Presentation) -> MinimalityReport:
    """Interreducedness: no lead contains another lead; all tails irreducible.
    Both are read off one factor scan per word (_lead_factors)."""
    containments: list[tuple[int, int, int]] = []
    reducible: list[tuple[int, Word, int]] = []
    for i, rel in enumerate(S.relations):
        # read backwards, so that each lead j keeps its first position
        first = {j: p for p, j in reversed(_lead_factors(S, S._lead_s[i])) if j != i}
        containments += [(i, j, p) for j, p in sorted(first.items())]
        for t in rel.terms:
            if t != S._lead[i]:
                js = [j for _, j in _lead_factors(S, _encode(t)) if j != i]
                if js:
                    reducible.append((i, Word(S.alphabet, t), min(js)))
    return MinimalityReport(ok=not containments and not reducible,
                            containments=tuple(containments),
                            reducible_tails=tuple(reducible))


def complete(S: Presentation, max_new: int = 100, fuel: int = DEFAULT_FUEL
             ) -> tuple[Presentation, list[CompletionEvent]]:
    """Shirshov completion: adjoin normal forms of nontrivial compositions.

    New relations are appended in normal form with respect to the current
    system (so their leading words are fresh) and labeled c1, c2, ...;
    earlier relations are never rewritten.  Raises Diverged when more than
    max_new additions would be needed.  When a composition reduces to a
    nonzero constant, the relation 1 is appended and completion stops: every
    word then reduces to 0.  ``max_new`` must be at least 0.  ``fuel`` (at
    least 0) bounds each reduction; a relation of S with an empty leading
    word (a nonzero constant) raises EmptyLeadingWord, a ValueError.
    """
    _require_nonempty_leads(S)
    _check_fuel(fuel)
    if max_new < 0:
        raise ValueError(f"max_new must be at least 0, got {max_new}")
    cur = S
    log: list[CompletionEvent] = []
    queue: deque[tuple[int, int]] = deque(
        (i, j) for i in range(len(S.relations)) for j in range(len(S.relations)))
    while queue:
        i, j = queue.popleft()
        for amb in enumerate_ambiguities(cur.lead(i), cur.lead(j), i, j):
            comp = composition(cur.relations[i], cur.relations[j], amb, cur.order)
            if comp.is_zero():
                continue
            nf, _ = normal_form(comp, cur, fuel)
            if nf.is_zero():
                continue
            if len(log) >= max_new:
                raise Diverged(cur, log)
            _, c = leading(nf, cur.order)
            added = nf.scale(Fraction(1) / c)
            new_index = len(cur.relations)
            cur = Presentation(cur.alphabet, cur.order,
                               list(cur.relations) + [added],
                               list(cur.families) + [f"c{len(log) + 1}"],
                               order_text=cur.order_text)
            log.append(CompletionEvent(i, j, amb, added, new_index))
            if not cur._lead[new_index]:
                # the constant 1: every word now reduces to 0, so every
                # remaining composition is trivial
                return cur, log
            for k in range(new_index):
                queue.append((k, new_index))
                queue.append((new_index, k))
            queue.append((new_index, new_index))
    return cur, log


IRR_LIMIT = 10**6  # the most words enumerate_irr holds (B_3: 50,448 at max_len 8)


def enumerate_irr(S: Presentation, max_len: int) -> list[Word]:
    """All words of length <= max_len avoiding every leading word, order-ascending.

    ``max_len`` must be at least 0.  An empty leading word (a nonzero
    constant) occurs in every word, so then there are none.  More than
    IRR_LIMIT words raise ValueError as soon as they are found."""
    if max_len < 0:
        raise ValueError(f"max_len must be at least 0, got {max_len}")
    lead_set = set(S._lead)
    if () in lead_set:
        return []
    max_lead = max(map(len, lead_set), default=0)
    alphabet_size = len(S.alphabet)
    words: list[tuple[int, ...]] = [()]
    start = 0  # words[start:] are the words of the longest length so far
    for _ in range(max_len):
        end = len(words)
        for k in range(start, end):
            w = words[k]
            for x in range(alphabet_size):
                w2 = w + (x,)
                n2 = len(w2)
                # w is already clean, so any new occurrence ends at the last letter
                for ln in range(1, min(n2, max_lead) + 1):
                    if w2[n2 - ln:] in lead_set:
                        break
                else:
                    words.append(w2)
            if len(words) > IRR_LIMIT:
                raise ValueError(f"more than {IRR_LIMIT:,} irreducible words up to length {max_len}")
        if len(words) == end:
            break
        start = end
    key = functools.cmp_to_key(lambda a, b: compare_ids(S.order, a, b))
    return [Word(S.alphabet, t) for t in sorted(words, key=key)]
