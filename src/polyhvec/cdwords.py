"""Words in the pyramid (C) and diamond (D) operators, and the change of
basis between flag vectors and CD-coordinates.

A word is a plain string over "CD", applied right-to-left to the point,
so "CD" is the pyramid over the diamond of a point.  C contributes one
to the degree and D two; the flag vectors of all degree-d words form a
basis of the span of dimension-d polytope flag vectors, with the word
count following the Fibonacci-style recurrence c_d = c_{d-1} + c_{d-2}.

The prism operator I is not a letter here: it expands via
I(Cw) = CCw + Dw, I(Dw) = D I(w), I(pt) = C(pt).

The change of basis goes through the cd-index (Bayer and Klapper,
Discrete Comput. Geom. 6, 1991).  The ab-word of a dimension set S of a
dimension-d flag vector has b at position i iff i is in S; the ab-index
is the sum of the flag h-numbers times their ab-words, and with c = a + b
and d = ab + ba it is a polynomial in c and d.  With c of degree one and
d of degree two, the degree-d monomials are the degree-d words in lower
case (`cd_monomials`), as many as the Bayer-Billera sparse sets (Bayer
and Billera, Invent. Math. 79, 1985).

* Operators (`pyramid_cd`, `prism_cd`, `diamond_cd`, `dual_cd`): the
  derivations of Ehrenborg and Readdy (J. Algebraic Combin. 8, 1998).
  The pyramid maps Psi to c Psi + G(Psi), G the derivation with G(c) = d
  and G(d) = dc; the prism maps Psi to Psi c + D'(Psi), D' the derivation
  with D'(c) = 2d and D'(d) = cd + dc; D is the prism of the pyramid
  minus the pyramid of the pyramid; the dual reverses every monomial
  (Stanley, Math. Z. 216, 1994).  `word_cd` folds the pyramid and the
  diamond over a word, with no flag vector built: CCC folds to
  c^3 + 2cd + 2dc, and D to d.
* Split (`cd_index`), only where a flag vector comes in (a product's
  base, `to_cd_basis`): inclusion-exclusion turns all 2^d flag entries
  into the dense ab-index.  Write Psi = cX + dY with X of degree d - 1
  and Y of degree d - 2.  After a leading a the ab-index reads X + bY,
  after a leading b it reads X + aY; so the words starting ab and bb fix
  Y, the words starting aa and bb fix X, and the words starting ba must
  give Y once more.  So each level reads all its entries and passes
  exactly when they are the ab-index of cX + dY, with X and Y forced.
  By induction on the degree, recursing on X and Y returns the cd-index
  when one exists, and it is unique; otherwise the split raises
  `NotInCDSpanError` at the first level that disagrees.
* Solve (`cd_coordinates`), the only code that turns a cd-index into
  CD-coordinates; an expression's cd-index goes there with no split.
  P_d, whose rows are the cd-indices of the degree-d words, has an
  integer inverse.  Its determinant is +1 or -1 by computation, not by
  proof: `LinearSolver` checks it at every degree it is built for
  (`_basis_solver`).

MAX_BASIS_DEGREE = 12 is a resource cap: at d = 12 the fold takes about
0.8 s and inverting P_12 about 5 s (one 2-vCPU machine, in-process).
`word_flag`, `cd_flag` and `basis_matrix` stay as the flag-operator
oracle.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

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


def cd_flag(v: CDVector) -> FlagVector:
    """Flag vector of a CD combination."""
    if v.is_zero():
        return FlagVector(v.degree, {})
    return linear_combine((c, word_flag(w)) for w, c in v.coeffs.items())


def basis_matrix(d: int) -> list[list[int]]:
    """Rows: flag vectors of the degree-d words; columns: all dimension sets."""
    return [[word_flag(w).get(S) for S in dim_subsets(d)] for w in cd_words(d)]


# ---------------------------------------------------------------------------
# the cd-index


@lru_cache(maxsize=None)
def cd_monomials(d: int) -> tuple[str, ...]:
    """The cd-monomials of degree d: the degree-d words in lower case, in order."""
    return tuple(w.lower() for w in cd_words(d))


# images of the letters under the derivations G (pyramid) and D' (prism)
_PYRAMID_RULE = {"c": (("d", 1),), "d": (("dc", 1),)}
_PRISM_RULE = {"c": (("d", 2),), "d": (("cd", 1), ("dc", 1))}


def _operator(psi: dict, rule: dict, left: str, right: str) -> dict:
    """left.psi.right plus the derivation with letter images `rule` of psi."""
    out: dict[str, int] = {}
    for m, k in psi.items():
        out[left + m + right] = out.get(left + m + right, 0) + k
        for i, letter in enumerate(m):
            for image, n in rule[letter]:
                key = m[:i] + image + m[i + 1 :]
                out[key] = out.get(key, 0) + n * k
    return {m: k for m, k in out.items() if k}


def pyramid_cd(psi) -> dict:
    """cd-index of the pyramid: c psi + G(psi)."""
    return _operator(psi, _PYRAMID_RULE, "c", "")


def prism_cd(psi) -> dict:
    """cd-index of the prism: psi c + D'(psi)."""
    return _operator(psi, _PRISM_RULE, "", "c")


def diamond_cd(psi) -> dict:
    """cd-index of the diamond: prism of the pyramid minus pyramid of the pyramid."""
    cone = pyramid_cd(psi)
    out = prism_cd(cone)
    for m, k in pyramid_cd(cone).items():
        out[m] = out.get(m, 0) - k
    return {m: k for m, k in out.items() if k}


def dual_cd(psi) -> dict:
    """cd-index of the dual: every monomial reversed."""
    return {m[::-1]: k for m, k in psi.items()}


@lru_cache(maxsize=None)
def word_cd(w: str) -> MappingProxyType:
    """cd-index of a word applied to the point, as a read-only monomial map."""
    check_word(w)
    if w == "":
        return MappingProxyType({"": 1})
    step = pyramid_cd if w[0] == "C" else diamond_cd
    return MappingProxyType(step(word_cd(w[1:])))


def _split(ab: list[int], n: int) -> dict[str, int]:
    """The cd-polynomial cX + dY whose dense degree-n ab-index is `ab`.

    aa r is X(a r), bb r is X(b r), ab r - bb r is Y(r) and so is ba r - aa r.
    """
    if not any(ab):
        return {}
    if n == 0:
        return {"": ab[0]}
    if n == 1:
        if ab[0] != ab[1]:
            raise NotInCDSpanError("flag vector is not a CD combination")
        return {"c": ab[0]}
    quarter = range(1 << (n - 2))
    # masks 4r, 4r+1, 4r+2, 4r+3 start with aa, ba, ab, bb
    y = [ab[4 * r + 2] - ab[4 * r + 3] for r in quarter]
    if any(ab[4 * r + 1] - ab[4 * r] != y[r] for r in quarter):
        raise NotInCDSpanError("flag vector is not a CD combination")
    x = [ab[2 * m + (m & 1)] for m in range(1 << (n - 1))]  # from aa and bb
    psi = {"c" + m: k for m, k in _split(x, n - 1).items()}
    psi.update(("d" + m, k) for m, k in _split(y, n - 2).items())
    return psi


def cd_index(f: FlagVector) -> dict[str, int]:
    """The cd-index of f, split from all 2^d entries; NotInCDSpanError if none."""
    return _split(_subset_sums(list(f.values), f.dim, -1), f.dim)


def _ab_coefficients(psi, n: int) -> list[int]:
    """Dense ab-index of a degree-n cd-polynomial, indexed by b-position mask."""
    if not psi:
        return [0] * (1 << n)
    if n < 2:
        return [psi.get("c" * n, 0)] * (1 << n)
    x = _ab_coefficients({m[1:]: k for m, k in psi.items() if m[0] == "c"}, n - 1)
    y = _ab_coefficients({m[1:]: k for m, k in psi.items() if m[0] == "d"}, n - 2)
    out = [x[mask >> 1] for mask in range(1 << n)]
    for mask in range(1 << n):
        if (mask & 3) in (1, 2):
            out[mask] += y[mask >> 2]
    return out


def _subset_sums(entries: list[int], d: int, sign: int) -> list[int]:
    """In place, flag h-numbers to f-numbers (sign 1) or back (sign -1)."""
    for i in range(d):
        for mask in range(1 << d):
            if mask >> i & 1:
                entries[mask] += sign * entries[mask ^ (1 << i)]
    return entries


def cd_index_flag(psi, d: int) -> FlagVector:
    """Flag vector of a degree-d cd-polynomial: its ab-index, then subset sums."""
    return FlagVector.from_values(d, _subset_sums(_ab_coefficients(psi, d), d, 1))


@lru_cache(maxsize=None)
def _basis_solver(d: int) -> LinearSolver:
    check_basis_degree(d)
    # P_d: one row per degree-d word, its cd-index; the unknowns are the word
    # coefficients, so solve against the transpose
    rows = [[word_cd(w).get(m, 0) for m in cd_monomials(d)] for w in cd_words(d)]
    return LinearSolver([list(col) for col in zip(*rows)])


def cd_coordinates(psi, d: int) -> CDVector:
    """CD-coordinates of a degree-d cd-polynomial: the one solve against P_d."""
    x = _basis_solver(d).solve([psi.get(m, 0) for m in cd_monomials(d)])
    return CDVector(d, dict(zip(cd_words(d), x)))


def to_cd_basis(f: FlagVector) -> CDVector:
    """Exact CD-coordinates of a flag vector; error when none exist."""
    if f.dim < 0:
        raise ValueError("CD-coordinates need dimension >= 0")
    check_basis_degree(f.dim)
    return cd_coordinates(cd_index(f), f.dim)
