"""Words in the pyramid (C) and diamond (D) operators, and the change of
basis between flag vectors and CD-coordinates.

A word is a plain string over "CD", applied right-to-left to the point,
so "CD" is the pyramid over the diamond of a point.  C contributes one
to the degree and D two; the flag vectors of all degree-d words form a
basis of the span of dimension-d polytope flag vectors, with the word
count following the Fibonacci-style recurrence c_d = c_{d-1} + c_{d-2}.

The prism operator I is not a letter here: it expands via
I(Cw) = CCw + Dw, I(Dw) = D I(w), I(pt) = C(pt).

CD-coordinates are read off the Bayer-Billera sparse entries of a flag
vector (dimension sets in 0..d-2 with no two consecutive; Bayer and
Billera, Invent. Math. 79, 1985): the word flag vectors restricted to
them form a square integer matrix, whose integer inverse is computed
once per degree.  That its determinant is +1 or -1 is checked by
computation for every d <= 12 = MAX_BASIS_DEGREE, not proved here.  The
cap is a resource cap: the cost of building the degree-d word flag
vectors about quadruples per degree.  `LinearSolver` checks the
determinant again at every degree, and the remaining entries of the
flag vector are checked against the solution.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FaceCountLimitError, NotInCDSpanError
from .flagvec import (
    FlagVector,
    d_flag,
    dim_subsets,
    linear_combine,
    point_flag,
    pyramid_flag,
)
from .linalg import LinearSolver

MAX_BASIS_DEGREE = 12


def check_basis_degree(d: int):
    """Refuse a change of basis above MAX_BASIS_DEGREE, before any work."""
    if d > MAX_BASIS_DEGREE:
        raise FaceCountLimitError(
            f"degree {d} is over the change-of-basis limit {MAX_BASIS_DEGREE}"
        )


def check_word(w: str):
    if any(ch not in "CD" for ch in w):
        raise ValueError(f"not a CD-word: {w!r}")


def word_degree(w: str) -> int:
    check_word(w)
    return w.count("C") + 2 * w.count("D")


@lru_cache(maxsize=None)
def cd_words(degree: int) -> tuple[str, ...]:
    """All CD-words of a degree, lexicographic with C before D."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return ("",)
    out = ["C" + w for w in cd_words(degree - 1)]
    if degree >= 2:
        out += ["D" + w for w in cd_words(degree - 2)]
    return tuple(out)


@lru_cache(maxsize=None)
def word_flag(w: str) -> FlagVector:
    """Flag vector of a word applied to the point (virtual once D appears)."""
    check_word(w)
    if w == "":
        return point_flag()
    rest = word_flag(w[1:])
    return pyramid_flag(rest) if w[0] == "C" else d_flag(rest)


class CDVector:
    """An exact linear combination of equal-degree CD-words."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=()):
        clean = {}
        for w, c in dict(coeffs).items():
            if word_degree(w) != degree:
                raise ValueError(f"word {w!r} has degree {word_degree(w)}, not {degree}")
            if c:
                clean[w] = c
        self.degree = degree
        self.coeffs = clean

    def items(self):
        return sorted(self.coeffs.items())

    def get(self, w: str):
        return self.coeffs.get(w, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            acc[w] = acc.get(w, 0) + c
        return CDVector(self.degree, acc)

    def scaled(self, c) -> "CDVector":
        return CDVector(self.degree, {w: c * v for w, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + other.scaled(-1)

    def prefixed(self, letter: str) -> "CDVector":
        step = {"C": 1, "D": 2}[letter]
        return CDVector(
            self.degree + step, {letter + w: c for w, c in self.coeffs.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, CDVector)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return f"CDVector({self.degree}, 0)"
        body = " + ".join(
            (f"{c}*" if c != 1 else "") + (w if w else "pt") for w, c in self.items()
        )
        return f"CDVector({self.degree}, {body})"


def word_vector(w: str) -> CDVector:
    return CDVector(word_degree(w), {w: 1})


@lru_cache(maxsize=None)
def _expand_I_word(w: str) -> tuple[tuple[str, int], ...]:
    check_word(w)
    if w == "":
        return (("C", 1),)
    if w[0] == "C":
        return (("CC" + w[1:], 1), ("D" + w[1:], 1))
    return tuple(("D" + u, c) for u, c in _expand_I_word(w[1:]))


def expand_I(v: CDVector) -> CDVector:
    """The CD-expansion of the prism operator applied to v; degree rises by one."""
    acc = CDVector(v.degree + 1)
    for w, c in v.coeffs.items():
        acc = acc + CDVector(v.degree + 1, dict(_expand_I_word(w))).scaled(c)
    return acc


def eliminate_I(letters: str) -> CDVector:
    """Rewrite a word over C, D, I (applied to the point) into pure CD-words."""
    v = CDVector(0, {"": 1})
    for ch in reversed(letters):
        if ch in "CD":
            v = v.prefixed(ch)
        elif ch == "I":
            v = expand_I(v)
        else:
            raise ValueError(f"unknown operator letter {ch!r}")
    return v


def cd_flag(v: CDVector) -> FlagVector:
    """Flag vector of a CD combination."""
    if v.is_zero():
        return FlagVector(v.degree, {})
    return linear_combine((c, word_flag(w)) for w, c in v.coeffs.items())


def sparse_sets(d: int) -> list[tuple[int, ...]]:
    """The Bayer-Billera sparse sets: subsets of 0..d-2, no two consecutive.

    There is one per degree-d word; the word flag vectors restricted to
    these entries form a unimodular matrix for every d <= 12 (checked).
    """
    return [
        S
        for S in dim_subsets(d)
        if (not S or S[-1] <= d - 2) and all(b - a > 1 for a, b in zip(S, S[1:]))
    ]


def basis_matrix(d: int, cols=None) -> list[list[int]]:
    """Rows: flag vectors of the degree-d words; columns: dimension sets.

    The columns are all dimension sets unless `cols` names a subset.
    """
    if cols is None:
        cols = dim_subsets(d)
    return [[word_flag(w).get(S) for S in cols] for w in cd_words(d)]


@lru_cache(maxsize=None)
def _basis_solver(d: int):
    check_basis_degree(d)
    cols = sparse_sets(d)
    rows = basis_matrix(d, cols)
    # the unknowns are the word coefficients, so solve against the transpose
    return cols, LinearSolver([list(col) for col in zip(*rows)])


def to_cd_basis(f: FlagVector) -> CDVector:
    """Exact CD-coordinates of a flag vector; error when none exist."""
    if f.dim < 0:
        raise ValueError("CD-coordinates need dimension >= 0")
    cols, solver = _basis_solver(f.dim)
    x = solver.solve([f.get(S) for S in cols])
    v = CDVector(f.dim, dict(zip(cd_words(f.dim), x)))
    # the sparse entries fix the coordinates; every other entry must agree
    if cd_flag(v) != f:
        raise NotInCDSpanError(f"flag vector of dim {f.dim} is not a CD combination")
    return v
