"""Reduction of polynomials and words modulo an oriented presentation.

A Presentation fixes an alphabet, a monomial order, and an ordered list of
monic relations; each relation's leading word is isolated at construction
time.  Reduction replaces an occurrence of a leading word s̄ inside a term
a.s̄.b by the correspondingly framed tail, i.e. p -> p - c.a.s.b where c is
the term's coefficient.  The deterministic tie-break is: among reducible
term words pick the order-greatest, then the lowest relation index, then
the leftmost position.

For presentations whose relations are all binomial (u - v, coefficients
1 and -1; the constant 1 counts as the empty word) there is a word-level
fast path, ``word_nf``, that rewrites plain words.  Internally words are
encoded as strings of one character per letter id so that substring search
runs at C speed.

``word_nf`` offers three site-selection strategies (``rightmost`` is the
default).  All three return the same word whenever the relation set is
closed under composition (the result is then the unique irreducible
representative); they differ only in which site they rewrite next, and the
path lengths can differ enormously:

* ``canonical`` mirrors ``reduce_once`` on a one-term polynomial exactly:
  lowest relation index first, then leftmost occurrence.  Simple and
  reproducible, but on relation systems that shuttle letters across each
  other (such as the braid presentations in this package) it interleaves
  independent rewriting passages and the path length can blow up
  exponentially in the input length.
* ``rightmost`` works at the rightmost reducible site, with a locality
  window: after each rewrite it keeps working inside the region the
  rewrite disturbed, applying length-decreasing rules leftmost-first and
  other rules rightmost-first, and only looks for the rightmost site of
  the whole word when the region is quiet.  This tracks each rewriting
  passage to completion before starting the next.
* ``leftmost`` is a left-to-right prefix fold: letters are appended one at
  a time onto an already-irreducible prefix, which is renormalised after
  each append.  Work therefore always happens at the left frontier of the
  unread input.

Neither passage-coherent schedule is near-linear in general, and neither
wins on every word (``bench/seed_results.json``): on the B_3 power
(sigma_1 sigma_2^-1)^64 rightmost takes 28,581 steps against leftmost's
483; on the B_4 power (sigma_2 sigma_1^-1 sigma_3^-1 sigma_2)^10 rightmost
exhausts the default fuel of 10^6 steps where leftmost takes 55,026; and
on random words either one can be the faster.

All three run through the one rewrite loop of ``_WordEngine.run`` and
differ only in the site they pick.  The passage-coherent schedules find
sites with a trie over the encoded leading words, built once per
presentation; ``canonical`` uses ``_find_site``, a ``str.find`` over the
leading words in index order, as ``reduce_once`` does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .freealg import _MINUS_ONE, _ONE, Alphabet, Polynomial, Word, _join_terms, _same_alphabet
from .orders import GREATER, LESS, ForeignLetter, OrderSpec, _is_monomial, compare_ids, domain


class ZeroPolynomial(ValueError):
    """Raised when asking for the leading term of the zero polynomial."""


class NotBinomial(ValueError):
    """Raised by the word-rewriting fast path on a non-binomial presentation."""


class OrientationError(ValueError):
    """Raised when a declared left-hand side is not the order-leading word."""

    def __init__(self, index: int, detail: str = ""):
        super().__init__(f"relation {index}: declared LHS is not order-leading{detail}")
        self.index = index


class FuelExhausted(RuntimeError):
    """Raised when a reduction does not reach a fixpoint within its fuel.

    ``trace`` carries the steps taken so far (polynomial path); ``partial``
    carries the word reached so far (word path).
    """

    def __init__(self, fuel_used: int, trace: Optional["ReductionTrace"] = None,
                 partial: Optional[Word] = None):
        super().__init__(f"reduction did not finish within {fuel_used} steps")
        self.fuel_used = fuel_used
        self.trace = trace
        self.partial = partial


DEFAULT_FUEL = 10**6


def _check_fuel(fuel: int) -> None:
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")


@dataclass(frozen=True)
class ReductionStep:
    """One rewrite: the term a.s̄.b of relation ``relation`` at ``position`` = |a|."""

    relation: int
    position: int
    left: Word
    right: Word


@dataclass
class ReductionTrace:
    """Evidence object: replaying ``steps`` from the input reproduces ``result``."""

    steps: list[ReductionStep]
    result: Polynomial
    fuel_used: int

    def replay(self, p: Polynomial, S: "Presentation") -> Polynomial:
        """Re-run the steps on p.  A step whose target term has cancelled out
        of p replays as a no-op (its effective coefficient is zero)."""
        for st in self.steps:
            rel = S.relations[st.relation]
            w = st.left.letters + S.lead(st.relation).letters + st.right.letters
            c = p.terms.get(w)
            if c:
                p = p - rel.left_mul(st.left).right_mul(st.right).scale(c)
        return p


def leading(p: Polynomial, order: OrderSpec) -> tuple[Word, Fraction]:
    """The order-maximal term word of p and its coefficient."""
    if not p.terms:
        raise ZeroPolynomial("the zero polynomial has no leading word")
    best: Optional[tuple[int, ...]] = None
    for t in p.terms:
        if best is None or compare_ids(order, t, best) == GREATER:
            best = t
    return Word(p.alphabet, best), p.terms[best]


def _encode(letters: Sequence[int]) -> str:
    return "".join(map(chr, letters))


def _decode(s: str) -> tuple[int, ...]:
    return tuple(map(ord, s))


class Presentation:
    """An alphabet, an order, and an ordered list of monic oriented relations.

    Every relation must be over ``alphabet`` (``AlphabetMismatch``
    otherwise), and every letter of it one the order compares
    (``ForeignLetter`` otherwise).  ``families`` carries one label per
    relation (used for scoped verification reports); labels default to the
    1-based relation position.
    Equality compares alphabet, order, and relations; families and the
    optional ``order_text`` annotation are display metadata.
    """

    __slots__ = ("alphabet", "order", "relations", "families", "order_text",
                 "_lead", "_lead_s", "_tails", "_word_eng", "_overlaps", "_monomial")

    def __init__(self, alphabet: Alphabet, order: OrderSpec,
                 relations: Iterable[Polynomial], families: Optional[Sequence[str]] = None,
                 order_text: Optional[str] = None):
        self.alphabet = alphabet
        self.order = order
        rels: list[Polynomial] = []
        leads: list[tuple[int, ...]] = []
        ranked = domain(order)
        for i, p in enumerate(relations):
            _same_alphabet(p, self)
            if not p.terms:
                raise ZeroPolynomial(f"relation {i} is the zero polynomial")
            stray = {x for t in p.terms for x in t} - ranked
            if stray:
                name = p.alphabet.letters[min(stray)].name
                raise ForeignLetter(f"relation {i}: letter {name!r} is outside the order's alphabet")
            lead, c = leading(p, order)
            if c != 1:
                p = p.scale(Fraction(1, 1) / c)
            rels.append(p)
            leads.append(lead.letters)
        self.relations: tuple[Polynomial, ...] = tuple(rels)
        if families is None:
            families = [str(i + 1) for i in range(len(rels))]
        families = tuple(str(f) for f in families)
        if len(families) != len(rels):
            raise ValueError("families must align with relations")
        self.families: tuple[str, ...] = families
        self.order_text = order_text
        self._monomial = _is_monomial(order)
        self._lead = tuple(leads)
        self._lead_s = tuple(map(_encode, leads))
        # tails exist iff every relation is binomial with coefficients 1, -1
        rests = [[t for t in p.terms if t != lead] for p, lead in zip(rels, leads)]
        binomial = all(len(r) == 1 and p.terms[r[0]] == -1 for p, r in zip(rels, rests))
        self._tails = tuple(r[0] for r in rests) if binomial else None
        self._word_eng: Optional[_WordEngine] = None
        self._overlaps: Optional[tuple[dict[str, list[int]], dict[str, list[int]]]] = None

    @classmethod
    def from_oriented(cls, alphabet: Alphabet, order: OrderSpec,
                      pairs: Iterable[tuple[Word, Word]], families: Optional[Sequence[str]] = None,
                      order_text: Optional[str] = None) -> "Presentation":
        """Build from (LHS, RHS) word pairs; each LHS must be strictly order-leading."""
        pairs = list(pairs)
        polys = []
        for i, (lhs, rhs) in enumerate(pairs):
            if lhs.letters == rhs.letters:
                raise OrientationError(i, f" ({lhs} vs {rhs})")
            _same_alphabet(lhs, rhs)
            polys.append(Polynomial(lhs.alphabet, {lhs.letters: _ONE, rhs.letters: _MINUS_ONE}))
        S = cls(alphabet, order, polys, families, order_text)
        for i, (lhs, rhs) in enumerate(pairs):
            if S._lead[i] != lhs.letters:
                raise OrientationError(i, f" ({lhs} vs {rhs})")
        return S

    @property
    def binomial(self) -> bool:
        return self._tails is not None

    def _engine(self) -> "_WordEngine":
        """The cached word-rewriting scheduler; requires a binomial presentation."""
        if not self.binomial:
            raise NotBinomial("presentation has a relation that is not of the form u - v")
        if self._word_eng is None:
            self._word_eng = _WordEngine(self._lead_s, tuple(map(_encode, self._tails)))
        return self._word_eng

    def _overlap_index(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """The cached overlap index over the encoded leading words: each proper
        prefix of a lead to the relations whose lead starts with it, and each
        whole lead to its relations, both in ascending index order."""
        if self._overlaps is None:
            prefixes: dict[str, list[int]] = {}
            whole: dict[str, list[int]] = {}
            for j, lead in enumerate(self._lead_s):
                for t in range(1, len(lead)):
                    prefixes.setdefault(lead[:t], []).append(j)
                whole.setdefault(lead, []).append(j)
            self._overlaps = prefixes, whole
        return self._overlaps

    def lead(self, i: int) -> Word:
        return Word(self.alphabet, self._lead[i])

    def __len__(self) -> int:
        return len(self.relations)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Presentation)
                and self.alphabet == other.alphabet
                and self.order == other.order
                and self.relations == other.relations)

    def __repr__(self) -> str:
        return f"Presentation({len(self.relations)} relations over {len(self.alphabet)} letters)"

    def __getstate__(self):
        return (self.alphabet, self.order, self.relations, self.families, self.order_text)

    def __setstate__(self, state):
        self.__init__(*state)


def _find_site(s: str, leads: Sequence[str]) -> Optional[tuple[int, int]]:
    """Lowest relation index, then leftmost position, of an occurrence of one
    of the encoded leading words ``leads`` in s: the canonical site."""
    for idx, lhs in enumerate(leads):
        p = s.find(lhs)
        if p >= 0:
            return idx, p
    return None


def reduce_once(p: Polynomial, S: Presentation,
                check_descent: bool = False) -> Optional[tuple[Polynomial, ReductionStep]]:
    """One deterministic elimination step, or None if p is supported on Irr(S);
    p must be over the alphabet of S (``AlphabetMismatch`` otherwise)."""
    _same_alphabet(p, S)
    best: Optional[tuple[int, ...]] = None
    site: Optional[tuple[int, int]] = None
    for t in p.terms:
        s = _find_site(_encode(t), S._lead_s)
        if s is None:
            continue
        if best is None or compare_ids(S.order, t, best) == GREATER:
            best, site = t, s
    if best is None:
        return None
    idx, pos = site
    lhs = S._lead[idx]
    a, b = best[:pos], best[pos + len(lhs):]
    c = p.terms[best]
    terms = dict(p.terms)
    for t, ct in S.relations[idx].terms.items():
        nt = a + t + b
        if check_descent and t != lhs and compare_ids(S.order, nt, best) != LESS:
            raise AssertionError(f"descent violated: {Word(p.alphabet, nt)} not < {Word(p.alphabet, best)}")
        nc = terms.get(nt, Fraction(0)) - c * ct
        if nc:
            terms[nt] = nc
        else:
            terms.pop(nt, None)
    step = ReductionStep(idx, pos, Word(p.alphabet, a), Word(p.alphabet, b))
    return Polynomial(p.alphabet, terms), step


def normal_form(p: Polynomial, S: Presentation, fuel: int = DEFAULT_FUEL,
                check_descent: bool = False) -> tuple[Polynomial, ReductionTrace]:
    """Iterate reduce_once to a fixpoint; the result is supported on Irr(S).

    ``fuel`` (at least 0) bounds the number of steps."""
    _check_fuel(fuel)
    steps: list[ReductionStep] = []
    used = 0
    cur = p
    while True:
        r = reduce_once(cur, S, check_descent)
        if r is None:
            return cur, ReductionTrace(steps, cur, used)
        if used >= fuel:
            raise FuelExhausted(used, trace=ReductionTrace(steps, cur, used))
        cur, step = r
        steps.append(step)
        used += 1


# An emitted rewrite: (rule index, position, text left of the site, text right of it).
_Emit = list  # list[tuple[int, int, str, str]]


class _WordEngine:
    """Word rewriting over encoded binomial rules: one loop, two site policies.

    ``run(..., canonical=True)`` is the flat canonical schedule: the lowest
    rule index, then the leftmost position, found by ``_find_site``.
    Otherwise the scheduler is passage-coherent: it keeps an *active
    region* around the last rewrite (the rewritten span padded by the
    longest left-hand side).  Inside the region, length-decreasing rules
    are applied leftmost-first (they close off cancellations as soon as
    they appear) and the remaining rules rightmost-first (they continue the
    passage of a letter travelling through the word).  Only when the region
    has no reducible site does the engine look for the rightmost site of
    the whole word.  This keeps each rewriting passage coherent instead of
    interleaving passages, which is what makes flat schedules blow up on
    shuttle-style relation systems.

    Sites are found with a trie over the left-hand sides, built once per
    presentation.  A node is a dict from letter to child; under the key
    ``""`` it holds the lowest-index rule whose left-hand side ends on the
    path to it.  A node without children is replaced by that rule itself, a
    tuple ``(index, lhs, rhs, shrinking)``.  Walking from position p as far
    as the trie goes thus yields the lowest-index rule whose left-hand side
    starts at p, in at most ``max_lhs`` dict lookups.  Nothing is pruned: a
    subtree could be dropped only below a left-hand side that is a proper
    prefix of another, and no interreduced system has one.

    ``run`` also keeps a clean suffix: no left-hand side starts at or after
    ``clean``.  Whether one starts at q depends only on the text from q on,
    and a rewrite left of q only shifts that text, so the bound survives
    each rewrite; both scans stop at it.

    Both scans are written out in ``run``'s one loop, over plain integer
    bounds: first the region ascending (the first length-decreasing match,
    else the last match), then the word below ``clean`` descending (the
    first match found).
    """

    __slots__ = ("trie", "max_lhs", "leads", "rules")

    def __init__(self, leads: Sequence[str], tails: Sequence[str]):
        """Rule i rewrites the encoded word leads[i] to tails[i]."""
        self.max_lhs = max(map(len, leads), default=1)
        self.leads = leads
        self.rules = tuple((idx, lhs, rhs, len(rhs) < len(lhs))
                           for idx, (lhs, rhs) in enumerate(zip(leads, tails)))
        root: dict = {}
        for rule in self.rules:
            node = root
            for ch in rule[1]:
                node = node.setdefault(ch, {})
            node.setdefault("", rule)

        def build(node: dict, best: Optional[tuple]) -> object:
            """The compiled node, given the best rule on the path above it."""
            own = node.pop("", None)
            if own is not None and (best is None or own[0] < best[0]):
                best = own
            if not node:
                return best
            out = {ch: build(child, best) for ch, child in node.items()}
            if best is not None:
                out[""] = best
            return out

        self.trie = build(root, None) or {}

    def run(self, s: str, fuel: int, used: int = 0,
            emit: Optional[_Emit] = None, canonical: bool = False) -> tuple[str, int]:
        """Rewrite to a fixpoint; returns (irreducible word, total steps used)."""
        trie, max_lhs = self.trie, self.max_lhs
        lo = hi = 0  # the region: positions lo .. hi - 1
        clean = len(s)  # no left-hand side starts at or after this position
        while True:
            n = len(s)
            rule = None
            if canonical:
                site = _find_site(s, self.leads)
                if site is not None:
                    rule, p = self.rules[site[0]], site[1]
            else:
                # the region ascending: the first length-decreasing match,
                # else the last match
                for q0 in range(lo, hi):
                    node = trie.get(s[q0])
                    q = q0 + 1
                    while node.__class__ is dict:
                        node = (q < n and node.get(s[q])) or node.get("")
                        q += 1
                    if node is not None:
                        rule, p = node, q0
                        if node[3]:
                            break
                if rule is None:
                    # the word below clean, descending: the rightmost match
                    for q0 in range(clean - 1, -1, -1):
                        node = trie.get(s[q0])
                        q = q0 + 1
                        while node.__class__ is dict:
                            node = (q < n and node.get(s[q])) or node.get("")
                            q += 1
                        if node is not None:
                            rule, p = node, q0
                            clean = q0 + 1
                            break
            if rule is None:
                return s, used
            if used >= fuel:
                raise FuelExhausted(used, partial=s)
            idx, lhs, rhs, _ = rule
            end = p + len(lhs)
            if emit is not None:
                emit.append((idx, p, s[:p], s[end:]))
            s = s[:p] + rhs + s[end:]
            used += 1
            if end > clean:
                clean = end
            clean += len(rhs) - len(lhs)
            lo = p - max_lhs if p > max_lhs else 0
            hi = p + len(rhs) + 1
            if hi > clean:
                hi = clean

    def run_prefix(self, s: str, fuel: int, used: int = 0,
                   emit: Optional[_Emit] = None) -> tuple[str, int]:
        """Left-to-right fold: renormalise after appending each input letter."""
        acc = ""
        for i, ch in enumerate(s):
            try:
                acc, used = self.run(acc + ch, fuel, used, emit)
            except FuelExhausted as e:
                raise FuelExhausted(e.fuel_used, partial=e.partial + s[i + 1:]) from None
        return acc, used


# The schedules by name: (engine, encoded word, fuel) -> (word, steps used).
_STRATEGIES = {
    "canonical": functools.partial(_WordEngine.run, canonical=True),
    "leftmost": _WordEngine.run_prefix,
    "rightmost": _WordEngine.run,
}
DEFAULT_STRATEGY = "rightmost"


def word_nf(w: Word, S: Presentation, fuel: int = DEFAULT_FUEL,
            strategy: str = DEFAULT_STRATEGY) -> Word:
    """Normal form of a single word by pure string rewriting.

    Equals the unique term word of normal_form on the one-term polynomial w.
    Requires every relation of S to be binomial u - v.  ``strategy`` picks
    the rewrite schedule, ``rightmost`` by default (see the module
    docstring); all schedules agree on the result when the relation set is
    closed under composition.  ``fuel`` (at least 0) bounds the number of
    rewrite steps.  w must be over the alphabet of S (``AlphabetMismatch``
    otherwise).
    """
    _check_fuel(fuel)
    _same_alphabet(w, S)
    eng = S._engine()
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {tuple(_STRATEGIES)}")
    try:
        s, _ = _STRATEGIES[strategy](eng, _encode(w.letters), fuel)
    except FuelExhausted as e:
        raise FuelExhausted(e.fuel_used, partial=Word(S.alphabet, _decode(e.partial))) from None
    return Word(S.alphabet, _decode(s))


def format_polynomial(p: Polynomial, order: OrderSpec) -> str:
    """Deterministic display with terms sorted descending under the order."""
    key = functools.cmp_to_key(lambda a, b: compare_ids(order, a, b))
    return _join_terms(p, sorted(p.terms, key=key, reverse=True))
