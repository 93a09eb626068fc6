"""Words in the pyramid (C) and diamond (D) operators, and the change of
basis between flag vectors and CD-coordinates.

A word is a plain string over "CD", applied right-to-left to the point,
so "CD" is the pyramid over the diamond of a point.  C contributes one
to the degree and D two; the flag vectors of all degree-d words form a
basis of the span of dimension-d polytope flag vectors, with the word
count following the Fibonacci-style recurrence c_d = c_{d-1} + c_{d-2}.

The prism operator I is not a letter here: it expands via
I(Cw) = CCw + Dw, I(Dw) = D I(w), I(pt) = C(pt) (`oracle.expand_I`).

The change of basis goes through the cd-index (Bayer and Klapper,
Discrete Comput. Geom. 6, 1991), a polynomial in noncommuting c and d,
with c of degree one and d of degree two.  The degree-d monomials are the
degree-d words in lower case (`cd_monomials`), as many as the
Bayer-Billera sparse sets (Bayer and Billera, Invent. Math. 79, 1985).
Write s_i = 1 when i is in the dimension set S and 0 otherwise.  The flag
entry at S is the cd-index read one letter at a time: a c at position i
weighs 1 + s_i, and a d at positions i, i + 1 weighs s_i + s_(i+1)
(c = a + b and d = ab + ba, with a read as 1 and b as s_i).  So for
Psi = cX + dY, F(Psi)[S] = (1 + s_0) F(X)[S >> 1] + (s_0 + s_1) F(Y)[S >> 2],
and `cd_index_flag` expands by that recursion.  It, the split and the
solve all run on coefficient lists in `cd_monomials` order, where the
monomials that start with c come first: a degree-d list is cX then dY,
split by one slice at len(cd_words(d - 1)).

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
  base, `oracle.to_cd_basis`): the same recursion backwards.  With X of degree
  d - 1 and Y of degree d - 2, the masks 4r, 4r+1, 4r+2 give
  X(2r) = f(4r), Y(r) = f(4r+1) - 2 f(4r) and X(2r+1) = f(4r+2) - Y(r),
  and the mask 4r+3 must read f(4r+3) = 2 f(4r+2); at degree 1,
  f(1) = 2 f(0).  So each level reads every entry, either to define X
  and Y or to check it.  By induction on the degree, recursing on X and
  Y returns the cd-index when one exists, and it is unique; otherwise the
  split raises `NotInCDSpanError` at the first level that disagrees.
* Solve (`cd_coordinates`), the only code that turns a cd-index into
  CD-coordinates; an expression's cd-index goes there with no split.
  The cd-index of a word Cw is the pyramid of that of w, and that of Dw
  the diamond of that of w; so a degree-d Psi = sum x_w Psi(w) is
  pyramid(alpha) + diamond(beta), where alpha = sum x_(Cw) Psi(w) has
  degree d - 1 and beta = sum x_(Dw) Psi(w) degree d - 2.  One square
  system M_d gives (alpha, beta), and the solve recurses on them under
  the prefixes C and D, down to degree 0.  M_d is factored once per
  degree with its pivots down the diagonal (`_letter_factor`), and every
  pivot must be 1 or -1.  That certifies the basis: P_d, whose rows are
  the cd-indices of the degree-d words, has det P_d = det M_d *
  det P_(d-1) * det P_(d-2), so unit pivots at every degree make every
  P_d unimodular by induction, and no P_d is ever built.

MAX_BASIS_DEGREE = 12 is a resource cap, kept until one work budget
bounds the whole call.  The factors of M_2 .. M_12 take about 0.04 s,
the factor of each further degree about twice the last, and a solve at
d = 12 about 0.002 s once they exist (one 2-vCPU machine, in-process).
`table`, `basis` and `hvector.flag_from_h` fold `word_cd` and expand
the result; `word_flag`, `cd_flag`, `basis_matrix` and `to_cd_basis`,
which fold or undo the flag operators, stay in `oracle` as their oracle.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .errors import FaceCountLimitError, NotInCDSpanError
from .flagvec import FlagVector

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

    def combine(self, value_of, zero):
        """Linear extension: `zero` plus value_of(w).scaled(c) per term c w."""
        for w, c in self.coeffs.items():
            zero = zero + value_of(w).scaled(c)
        return zero

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


def _coefficients(psi, d: int) -> list[int]:
    """psi's coefficients in `cd_monomials(d)` order; ValueError on any other key."""
    monomials = cd_monomials(d)
    stray = psi.keys() - set(monomials)
    if stray:
        raise ValueError(f"not cd-monomials of degree {d}: {sorted(map(repr, stray))}")
    return [psi.get(m, 0) for m in monomials]


def _expand(v: list[int], n: int) -> list[int]:
    """Flag entries by bitmask of the degree-n coefficient list v, letter by letter."""
    if not any(v):
        return [0] * (1 << n)
    if n < 2:
        return [v[0], 2 * v[0]] if n else v
    k = len(cd_words(n - 1))  # the monomials that start with c come first
    x, y = _expand(v[:k], n - 1), _expand(v[k:], n - 2)
    out, pairs = [], iter(x)
    # masks 4r, 4r+1, 4r+2, 4r+3: s_0 s_1 = 00, 10, 01, 11
    for x0, x1, t in zip(pairs, pairs, y):
        out += (x0, 2 * x0 + t, x1 + t, 2 * (x1 + t))
    return out


def cd_index_flag(psi, d: int) -> FlagVector:
    """Flag vector of a degree-d cd-polynomial, read one letter at a time."""
    return FlagVector.from_values(d, _expand(_coefficients(psi, d), d))


def _split(f, n: int) -> list[int]:
    """The coefficient list of the cd-polynomial whose degree-n flag entries are f."""
    if not any(f):
        return [0] * len(cd_words(n))
    if n < 2:
        if n and f[1] != 2 * f[0]:
            raise NotInCDSpanError("flag vector is not a CD combination")
        return [f[0]]
    x, y = [], []
    quads = iter(f)  # masks 4r, 4r+1, 4r+2, 4r+3
    for f0, f1, f2, f3 in zip(quads, quads, quads, quads):
        if f3 != 2 * f2:
            raise NotInCDSpanError("flag vector is not a CD combination")
        t = f1 - 2 * f0
        y.append(t)
        x += (f0, f2 - t)
    return _split(x, n - 1) + _split(y, n - 2)


def cd_index(f: FlagVector) -> dict[str, int]:
    """The cd-index of f, split from all 2^d entries; NotInCDSpanError if none."""
    if f.dim < 0:
        raise ValueError("a cd-index needs dimension >= 0")
    return {m: k for m, k in zip(cd_monomials(f.dim), _split(f.values, f.dim)) if k}


def _unit_lu(rows: list[dict[int, int]]) -> tuple:
    """LU factors of a square integer matrix, pivoting down its diagonal.

    `rows` holds each row as {column: entry} and is consumed.  Step j is
    (pivot, the multipliers (i, l) that clear column j below row j, the
    entries of row j right of the pivot).  Raises ValueError unless every
    pivot is 1 or -1, so the factors, and every solve, stay integral.
    """
    steps = []
    for j, prow in enumerate(rows):
        p = prow.pop(j, 0)
        if p not in (1, -1):
            raise ValueError(f"pivot {p} in column {j} is not a unit")
        below = []
        for i in range(j + 1, len(rows)):
            row = rows[i]
            a = row.pop(j, 0)
            if a:
                for k, v in prow.items():
                    row[k] = row.get(k, 0) - a * p * v
                below.append((i, a * p))
        steps.append((p, tuple(below), tuple((k, v) for k, v in prow.items() if v)))
    return tuple(steps)


def _lu_solve(steps: tuple, v: list[int]) -> list[int]:
    """Overwrite v with the solution x of A x = v, A factored by `_unit_lu`."""
    for j, (_, below, _) in enumerate(steps):
        if v[j]:
            for i, l in below:
                v[i] -= l * v[j]
    for j in reversed(range(len(v))):
        p, _, right = steps[j]
        v[j] = p * (v[j] - sum(u * v[k] for k, u in right))
    return v


@lru_cache(maxsize=None)
def _letter_factor(d: int) -> tuple:
    """The unit-pivot factors of M_d, for d >= 2.

    The columns of M_d are the pyramids of the degree-(d-1) monomials, then
    the diamonds of the degree-(d-2) monomials, so M_d (alpha, beta) is
    pyramid(alpha) + diamond(beta).  Column j pivots on row j of
    `cd_monomials(d)`: the pyramid of m on row cm, the diamond of m on dm.
    """
    index = {m: i for i, m in enumerate(cd_monomials(d))}
    images = [pyramid_cd({m: 1}) for m in cd_monomials(d - 1)]
    images += [diamond_cd({m: 1}) for m in cd_monomials(d - 2)]
    rows = [{} for _ in images]
    for j, image in enumerate(images):
        for m, k in image.items():
            rows[index[m]][j] = k
    return _unit_lu(rows)


def _coordinates(v: list[int], d: int) -> list[int]:
    """Word coefficients of a degree-d cd-polynomial, in `cd_words(d)` order.

    v holds its coefficients in `cd_monomials(d)` order and is overwritten.
    """
    if d < 2 or not any(v):
        return v  # P_0 and P_1 are the 1 x 1 identity
    _lu_solve(_letter_factor(d), v)
    # v is now alpha, the words after a C, then beta, the words after a D
    n = len(cd_words(d - 1))
    return _coordinates(v[:n], d - 1) + _coordinates(v[n:], d - 2)


def cd_coordinates(psi, d: int) -> CDVector:
    """CD-coordinates of a degree-d cd-polynomial, solved one letter at a time."""
    check_basis_degree(d)
    x = _coordinates(_coefficients(psi, d), d)
    return CDVector(d, dict(zip(cd_words(d), x)))


def __getattr__(name):  # oracle names for the tracer; leave with ROADMAP item 1b
    if name in ("word_flag", "to_cd_basis", "cd_flag"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
