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
and `cd_index_flag` expands by that recursion.  A degree-d cd-polynomial
is the tuple of its coefficients in `cd_monomials` order, where the
monomials that start with c come first: a degree-d tuple is cX then dY,
split by one slice at len(cd_words(d - 1)).  The operators, the
expansion, the split and the solve all run on it.  CD-coordinates take
the same form in the same order, read in upper case: the tuple of word
coefficients in `cd_words(d)` order, with the degree passed beside it.
`word_vector` gives a word's unit tuple, and `combine` extends a value on
words linearly to a tuple; each refuses a tuple of the wrong length.

* Operators (`pyramid_cd`, `prism_cd`, `diamond_cd`, `dual_cd`): the
  derivations of Ehrenborg and Readdy (J. Algebraic Combin. 8, 1998),
  pyramid(Psi) = c Psi + G(Psi) with G(c) = d, G(d) = dc, and
  prism(Psi) = Psi c + D'(Psi) with D'(c) = 2d, D'(d) = cd + dc.  Read at
  the first letter of Psi = cA + dB, they recurse on the blocks A and B:
      pyramid(Psi) = c[pyramid(A) + dB] + d[A + pyramid(B)],
      prism(Psi) = c[prism(A) + dB] + d[2A + cB + prism(B)].
  D is the prism of the pyramid minus the pyramid of the pyramid; the
  dual reverses every monomial (Stanley, Math. Z. 216, 1994), one
  permutation of the tuple per degree.  `word_cd` folds the pyramid and
  the diamond over a word, with no flag vector built: CCC folds to
  c^3 + 2cd + 2dc, the tuple (1, 2, 2), and D to d, the tuple (0, 1).
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
bounds the whole call; `check_basis_degree` guards the solve and the
peel (`hvector.cd_from_h`).  The factors of M_2 .. M_12 take about
0.04 s, the factor of each further degree about twice the last, and a
solve at d = 12 about 0.002 s once they exist (one 2-vCPU machine,
in-process).
`table`, `basis` and `hvector.flag_from_h` fold `word_cd` and expand
the result; `word_flag`, `cd_flag`, `basis_matrix` and `to_cd_basis`,
which fold or undo the flag operators, stay in `oracle` as their oracle.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

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
    if w.strip("CD"):  # a letter other than C and D
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


def word_vector(w: str) -> tuple:
    """The CD-coordinates of a word: its unit tuple in `cd_words` order."""
    words = cd_words(word_degree(w))
    x = [0] * len(words)
    x[words.index(w)] = 1
    return tuple(x)


def combine(x, d: int, value_of, zero):
    """Linear extension from words: `zero` plus value_of(w).scaled(c) for each
    coefficient c of the degree-d CD-coordinates x, in `cd_words(d)` order."""
    _check_length(x, d)
    for w, c in zip(cd_words(d), x):
        if c:
            zero = zero + value_of(w).scaled(c)
    return zero


# ---------------------------------------------------------------------------
# the cd-index


@lru_cache(maxsize=None)
def cd_monomials(d: int) -> tuple[str, ...]:
    """The cd-monomials of degree d: the degree-d words in lower case, in order."""
    return tuple(w.lower() for w in cd_words(d))


def pyramid_cd(v, n: int) -> tuple:
    """cd-index of the pyramid over the degree-n v:
    pyramid(cA + dB) = c[pyramid(A) + dB] + d[A + pyramid(B)]."""
    if not any(v):
        return (0,) * len(cd_words(n + 1))
    if n < 2:
        return v * (n + 1)  # the pyramid of 1 is c, of c is cc + d
    k = len(cd_words(n - 1))
    a, b = v[:k], v[k:]
    p = pyramid_cd(a, n - 1)
    return p[:k] + tuple(map(add, p[k:], b)) + tuple(map(add, a, pyramid_cd(b, n - 2)))


def prism_cd(v, n: int) -> tuple:
    """cd-index of the prism over the degree-n v:
    prism(cA + dB) = c[prism(A) + dB] + d[2A + cB + prism(B)]."""
    if not any(v):
        return (0,) * len(cd_words(n + 1))
    if n < 2:
        return v + (2 * v[0],) * n  # the prism of 1 is c, of c is cc + 2d
    k = len(cd_words(n - 1))
    a, b = v[:k], v[k:]
    p = prism_cd(a, n - 1)
    cb = b + (0,) * (k - len(b))  # cB has no monomials that start with d
    d_part = map(add, map(add, a, a), map(add, cb, prism_cd(b, n - 2)))
    return p[:k] + tuple(map(add, p[k:], b)) + tuple(d_part)


def diamond_cd(v, n: int) -> tuple:
    """cd-index of the diamond: prism of the pyramid minus pyramid of the pyramid."""
    cone = pyramid_cd(v, n)
    return tuple(map(sub, prism_cd(cone, n + 1), pyramid_cd(cone, n + 1)))


@lru_cache(maxsize=None)
def _reversal(n: int) -> tuple[int, ...]:
    """For each degree-n monomial, the position of its reverse."""
    at = {m: i for i, m in enumerate(cd_monomials(n))}
    return tuple(at[m[::-1]] for m in cd_monomials(n))


def dual_cd(v, n: int) -> tuple:
    """cd-index of the dual: every monomial reversed."""
    return tuple(map(v.__getitem__, _reversal(n)))


@lru_cache(maxsize=None)
def word_cd(w: str) -> tuple:
    """cd-index of a word applied to the point."""
    check_word(w)
    if w == "":
        return (1,)
    rest = w[1:]
    step = pyramid_cd if w[0] == "C" else diamond_cd
    return step(word_cd(rest), len(rest) + rest.count("D"))


def _check_length(v, d: int):
    """ValueError unless v holds one coefficient per degree-d monomial."""
    if len(v) != len(cd_words(d)):
        raise ValueError(f"{len(v)} coefficients, not {len(cd_words(d))} of degree {d}")


def _expand(v, n: int) -> list[int]:
    """Flag entries by bitmask of the degree-n coefficients v, letter by letter."""
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
    _check_length(psi, d)
    return FlagVector.from_values(d, _expand(psi, d))


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


def cd_index(f: FlagVector) -> tuple:
    """The cd-index of f, split from all 2^d entries; NotInCDSpanError if none."""
    if f.dim < 0:
        raise ValueError("a cd-index needs dimension >= 0")
    return tuple(_split(f.values, f.dim))


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
    images = [pyramid_cd(word_vector(w), d - 1) for w in cd_words(d - 1)]
    images += [diamond_cd(word_vector(w), d - 2) for w in cd_words(d - 2)]
    rows = [{} for _ in images]
    for j, image in enumerate(images):
        for i, k in enumerate(image):
            if k:
                rows[i][j] = k
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


def cd_coordinates(psi, d: int) -> tuple:
    """CD-coordinates of a degree-d cd-polynomial, solved one letter at a time."""
    check_basis_degree(d)
    _check_length(psi, d)
    return tuple(_coordinates(list(psi), d))
