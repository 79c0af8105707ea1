"""Exact arithmetic on words and polynomials of a free associative algebra.

An Alphabet is an immutable ranked set of letters; the rank of a letter is
its index in the ascending letter tuple, so letter ids double as ranks.
A Word is an immutable sequence of letter ids over one alphabet; the empty
word is the monoid identity and prints as ``1``.  A Polynomial is a finite
map from words to nonzero rational coefficients.

Letters may carry an inverse partner (used for group words) and an integer
``level`` tagging which block of a leveled alphabet they belong to (0 for
flat alphabets).  Inversion of a whole word is reversal plus letterwise
partner substitution; a brace {a, b} expands literally to b^-1 . a . b with
no cancellation.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union


class AlphabetMismatch(ValueError):
    """Raised when an operation mixes words from different alphabets."""


class NonInvertibleLetter(ValueError):
    """Raised when inverting a word containing an unpaired letter."""

    def __init__(self, position: int, name: str):
        super().__init__(f"letter {name!r} at position {position} has no inverse partner")
        self.position = position
        self.name = name


@dataclass(frozen=True)
class Letter:
    """One alphabet symbol.

    name: display form, also used by parsers.
    level: block tag for leveled alphabets (0 if the alphabet is flat).
    inverse: name of the inverse partner, or None for unpaired letters.
    """

    name: str
    level: int = 0
    inverse: Optional[str] = None


class Alphabet:
    """An immutable tuple of letters ranked in ascending order.

    The id of a letter is its index in ``letters``; smaller id means
    smaller letter under every ranking derived from this alphabet.
    """

    __slots__ = ("letters", "_ids", "inverse", "levels")

    def __init__(self, letters: Iterable[Letter]):
        self.letters: tuple[Letter, ...] = tuple(letters)
        ids: dict[str, int] = {}
        for i, let in enumerate(self.letters):
            if let.name in ids:
                raise ValueError(f"duplicate letter name {let.name!r}")
            ids[let.name] = i
        self._ids = ids
        partners = []
        for let in self.letters:
            if let.inverse is None:
                partners.append(None)
                continue
            if let.inverse not in ids:
                raise ValueError(f"inverse partner {let.inverse!r} of {let.name!r} is not a letter")
            partners.append(ids[let.inverse])
        for i, p in enumerate(partners):
            # pairing must be an involution
            if p is not None and partners[p] != i:
                raise ValueError(f"inverse pairing of {self.letters[i].name!r} is not an involution")
        self.inverse: tuple[Optional[int], ...] = tuple(partners)
        self.levels: tuple[int, ...] = tuple(let.level for let in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, letter_id: int) -> Letter:
        return self.letters[letter_id]

    def id_of(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError(f"undeclared letter {name!r}")
        return self._ids[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def word(self, text: Union[str, Iterable[str]] = ()) -> Word:
        """Build a word from whitespace-separated letter names (or an iterable of names)."""
        names = text.split() if isinstance(text, str) else list(text)
        return Word(self, tuple(self._ids[n] if n in self._ids else self.id_of(n) for n in names))

    def empty_word(self) -> Word:
        return Word(self, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({len(self.letters)} letters)"


def _same_alphabet(u, v) -> None:
    """u and v (words, polynomials or presentations) share one alphabet;
    the identity test comes first, so a shared object costs one comparison."""
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise AlphabetMismatch(f"{type(u).__name__} and {type(v).__name__} come from different alphabets")


class Word:
    """An immutable word: a tuple of letter ids over a fixed alphabet."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...] = ()):
        self.alphabet = alphabet
        self.letters = letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __mul__(self, other: Word) -> Word:
        _same_alphabet(self, other)
        return Word(self.alphabet, self.letters + other.letters)

    def names(self) -> tuple[str, ...]:
        return tuple(self.alphabet.letters[i].name for i in self.letters)

    def __str__(self) -> str:
        return " ".join(self.names()) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash(self.letters)


def concat(u: Word, v: Word) -> Word:
    """Free-monoid multiplication: the letters of u followed by the letters of v."""
    return u * v


def invert_word(w: Word) -> Word:
    """Reverse w and replace each letter by its inverse partner.

    Raises NonInvertibleLetter at the leftmost unpaired letter.
    """
    inv = w.alphabet.inverse
    for pos, x in enumerate(w.letters):
        if inv[x] is None:
            raise NonInvertibleLetter(pos, w.alphabet.letters[x].name)
    return Word(w.alphabet, tuple(inv[x] for x in reversed(w.letters)))


def expand_brace(a: Word, b: Word) -> Word:
    """The brace {a, b} = b^-1 . a . b, expanded literally with no cancellation.

    Adjacent inverse pairs are kept; cancellation is the reduction engine's
    job, so that every rewrite is by an explicit relation.
    """
    _same_alphabet(a, b)
    return invert_word(b) * a * b


_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class Polynomial:
    """A finite Q-linear combination of words.

    ``terms`` maps raw letter-id tuples to nonzero Fractions.  The empty
    tuple is the constant term (the word 1).
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: dict[tuple[int, ...], Fraction]):
        self.alphabet = alphabet
        self.terms = terms

    @classmethod
    def zero(cls, alphabet: Alphabet) -> Polynomial:
        return cls(alphabet, {})

    @classmethod
    def from_word(cls, w: Word, coeff: Union[int, Fraction] = 1) -> Polynomial:
        c = Fraction(coeff)
        return cls(w.alphabet, {w.letters: c} if c else {})

    @classmethod
    def from_pairs(cls, alphabet: Alphabet, pairs: Iterable[tuple[Word, Union[int, Fraction]]]) -> Polynomial:
        terms: dict[tuple[int, ...], Fraction] = {}
        for w, c in pairs:
            if w.alphabet != alphabet:
                raise AlphabetMismatch("term word from a different alphabet")
            nc = terms.get(w.letters, _ZERO) + Fraction(c)
            if nc:
                terms[w.letters] = nc
            else:
                terms.pop(w.letters, None)
        return cls(alphabet, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, w: Word) -> Fraction:
        return self.terms.get(w.letters, _ZERO)

    def monomials(self) -> list[tuple[Word, Fraction]]:
        return [(Word(self.alphabet, t), c) for t, c in self.terms.items()]

    def _merge(self, other: Polynomial, sign: int) -> Polynomial:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("polynomials over different alphabets")
        terms = dict(self.terms)
        for t, c in other.terms.items():
            nc = terms.get(t, _ZERO) + sign * c
            if nc:
                terms[t] = nc
            else:
                terms.pop(t, None)
        return Polynomial(self.alphabet, terms)

    def __add__(self, other: Polynomial) -> Polynomial:
        return self._merge(other, 1)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self._merge(other, -1)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.alphabet, {t: -c for t, c in self.terms.items()})

    def scale(self, c: Union[int, Fraction]) -> Polynomial:
        c = Fraction(c)
        if not c:
            return Polynomial.zero(self.alphabet)
        return Polynomial(self.alphabet, {t: c * ct for t, ct in self.terms.items()})

    def left_mul(self, w: Word) -> Polynomial:
        """The product w . self (monomial on the left)."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word from a different alphabet")
        pre = w.letters
        return Polynomial(self.alphabet, {pre + t: c for t, c in self.terms.items()})

    def right_mul(self, w: Word) -> Polynomial:
        """The product self . w (monomial on the right)."""
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word from a different alphabet")
        suf = w.letters
        return Polynomial(self.alphabet, {t + suf: c for t, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __str__(self) -> str:
        # deterministic without an order spec: longest words first, then by id tuple
        return _join_terms(self, sorted(self.terms, key=lambda t: (-len(t), t)))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"


def _join_terms(p: Polynomial, keys: Iterable[tuple[int, ...]]) -> str:
    """Signed display of the terms of p in the order of ``keys``; "0" if there are none."""
    parts: list[str] = []
    for t in keys:
        c = p.terms[t]
        word = " ".join(p.alphabet.letters[i].name for i in t) if t else "1"
        mag = abs(c)
        body = word if mag == 1 else f"{mag} {word}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"
