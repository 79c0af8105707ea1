"""Groebner-Shirshov bases for free associative algebras, with a braid-group layer.

The package verifies mechanically that a relation system for the braid
group B_n -- written on the pure-braid generators s_{i,j} together with
the inverse Artin generators -- is a minimal Groebner-Shirshov basis
under an inverse tower order, and computes normal forms of braid words
in those generators.  Independent oracles (symmetric-group
projection, Burau matrices) cross-check the engine.
"""

from .freealg import (AlphabetMismatch, Alphabet, Letter, NonInvertibleLetter,
                      Polynomial, Word, concat, expand_brace, invert_word)
from .orders import (DegInLex, DegLex, EQUAL, ForeignLetter, GREATER, InLex,
                     InverseWeight, LESS, OrderSpec, Tower, compare, decompose,
                     is_monomial_witness, ranking_of)
from .reduction import (DEFAULT_FUEL, FuelExhausted, NotBinomial,
                        OrientationError, Presentation, ReductionStep,
                        ReductionTrace, ZeroPolynomial, format_polynomial,
                        leading, normal_form, reduce_once, word_nf)
from .gsb import (Ambiguity, CompletionEvent, Diverged, EmptyLeadingWord,
                  InconsistentAmbiguity,
                  MinimalityReport, VerificationFailure, VerificationReport,
                  check_trivial, complete, composition, enumerate_ambiguities,
                  enumerate_irr, verify_gsb, verify_minimal)
from .braid import (ArtinWord, BraidScheme, artin_markov, artin_to_s,
                    braid_nf, braid_scheme, s_to_artin)
from .oracles import (IndexOutOfRange, LaurentMatrix, LaurentPoly, Permutation,
                      burau, perm_image, relator_perturb)

__all__ = [
    "AlphabetMismatch", "Alphabet", "Letter", "NonInvertibleLetter",
    "Polynomial", "Word", "concat", "expand_brace", "invert_word",
    "DegInLex", "DegLex", "EQUAL", "ForeignLetter", "GREATER", "InLex",
    "InverseWeight", "LESS", "OrderSpec", "Tower", "compare", "decompose",
    "is_monomial_witness", "ranking_of",
    "DEFAULT_FUEL", "FuelExhausted", "NotBinomial", "OrientationError",
    "Presentation", "ReductionStep", "ReductionTrace", "ZeroPolynomial",
    "format_polynomial", "leading", "normal_form", "reduce_once", "word_nf",
    "Ambiguity", "CompletionEvent", "Diverged", "EmptyLeadingWord",
    "InconsistentAmbiguity",
    "MinimalityReport", "VerificationFailure", "VerificationReport",
    "check_trivial", "complete", "composition", "enumerate_ambiguities",
    "enumerate_irr", "verify_gsb", "verify_minimal",
    "ArtinWord", "BraidScheme", "artin_markov", "artin_to_s",
    "braid_nf", "braid_scheme", "s_to_artin",
    "IndexOutOfRange", "LaurentMatrix", "LaurentPoly", "Permutation",
    "burau", "perm_image", "relator_perturb",
]

__version__ = "0.1.0"
