"""Correctness checks, run outside the timed region.

A normal form must have the same permutation image and the same
unreduced Burau matrix as the Artin word it came from, both computed on
``s_to_artin(nf)``.  The Burau side multiplies cached images of the
single scheme letters: ``s_to_artin`` substitutes letter by letter and
``burau`` is a homomorphism, so the product equals
``burau(s_to_artin(nf), n)`` at about a quarter of the cost.
"""

from __future__ import annotations

import functools
import time

from gsbraid import braid_scheme, burau, perm_image, s_to_artin
from gsbraid.oracles import LaurentMatrix

VERIFY_EXPECTED = {"pairs_checked": 292_681, "ambiguities_checked": 5_082, "failures": []}


@functools.lru_cache(maxsize=None)
def _letter_images(n: int) -> dict[int, LaurentMatrix]:
    sch = braid_scheme(n)
    return {x: burau(s_to_artin(sch.word((x,)), sch), n) for x in range(len(sch.alphabet))}


def nf_burau(nf, n: int) -> LaurentMatrix:
    """burau(s_to_artin(nf), n), as a product of per-letter images."""
    images = _letter_images(n)
    acc = LaurentMatrix.identity(n)
    for x in nf.letters:
        acc = acc * images[x]
    return acc


class OracleCheck:
    """Checks each distinct (n, word, normal form) once and times the oracles."""

    def __init__(self):
        self.problems: list[str] = []
        self.burau_s: list[float] = []
        self.perm_s: list[float] = []
        self._seen: set[tuple] = set()

    def check(self, n: int, word: tuple[int, ...], nf) -> None:
        key = (n, word, nf.letters)
        if key in self._seen:
            return
        self._seen.add(key)
        t0 = time.perf_counter()
        perm_ok = perm_image(s_to_artin(nf, braid_scheme(n)), n) == perm_image(word, n)
        t1 = time.perf_counter()
        burau_ok = nf_burau(nf, n) == burau(word, n)
        t2 = time.perf_counter()
        self.perm_s.append(t1 - t0)
        self.burau_s.append(t2 - t1)
        if not perm_ok:
            self.problems.append(f"B{n} word {word}: permutation image of the normal form differs")
        if not burau_ok:
            self.problems.append(f"B{n} word {word}: Burau image of the normal form differs")


def check_verify_report(report: dict) -> list[str]:
    """Differences between a ``verify-gsb --n 6 --json`` report and the known answer."""
    return [f"{key}: expected {want!r}, got {report.get(key)!r}"
            for key, want in VERIFY_EXPECTED.items() if report.get(key) != want]
