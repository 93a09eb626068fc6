"""The complete keyed h-vector and its companions.

The h-value of a polytope is a keyed polynomial: a sum of palindromic
homogeneous polynomials weighted by key symbols, with component degree
plus key degree equal to the dimension throughout.  It is defined by a
mutual recursion with a g-value on CD-words:

    h(pt) = 1            g(pt) = y
    h(Cv) = g(v) + x h(v)     g(Cv) = y g(v)
    h(Dv) = xy h(v)

and, the step that makes the invariant complete, g on a diamond is read
off the angle-basis decomposition of h: each angle(i, j) w_k term of
h(v) contributes (xy)^(i+1) y^(j+1) w_k plus the fresh symbol w_k' with
k' = k.primed(i, j).  Dropping the fresh symbols (key-free
recursion g(Dv) = xy g(v)) gives the classical toric h-vector, which
this module also implements independently as a cross-check.

Values extend to arbitrary polytopes linearly through CD-coordinates of
the flag vector (the face-sum route, h of a chain-counted lattice and
`h_matrix`, the oracles, are in `oracle`), and the flag vector can be
recovered exactly, in every dimension, by a peel.  A word reads
D^i C^j B_1 ... B_r with blocks B_k = C D^(a_k+1) C^(b_k);
`word_coordinate` pairs it with the coordinate angle(i, j) w_K,
K = ((a_1..a_r), (b_1..b_r)), a bijection from the degree-d words onto
the coordinates of dimension d.  Rank a key by (degree, length).  Then
h(w) = angle(i, j) w_K + terms whose keys have lower rank, so taking the
words by descending rank of their keys, the remaining value at a word's
own coordinate is its coefficient.

Proof, by induction along the recursion: every key of h(w) has degree
<= deg K and length <= len K, and the terms of length len K are exactly
angle(i, j) w_K; for w not starting with D, the same holds for g(w) with
y^(j+1) in place of angle(i, j).  The empty word has h = 1, g = y.
* h(Dv) = xy h(v) keeps the keys and raises i.
* If v does not start with D, Cv has v's key and j + 1: g(Cv) = y g(v),
  and h(Cv) = g(v) + x h(v) has x angle(0, j) + y^(j+1) = angle(0, j+1).
* CDv has i = j = 0 and deg K = dim CDv, which bounds every key degree.
  g(Dv) is made of terms with h(v)'s keys, shorter than K, and the
  constants w_k' for the angle terms of h(v); of those only the one from
  angle(i(v), j(v)) w_K(v) has length len K, and it is 1 w_K.  Both
  g(CDv) = y g(Dv) and h(CDv) = g(Dv) + x^2 y h(v) follow.
"""

from __future__ import annotations

from functools import lru_cache

from .cdwords import (
    CDVector,
    cd_index_flag,
    cd_words,
    check_basis_degree,
    check_word,
    word_cd,
)
from .errors import NotPalindromicError
from .flagvec import FlagVector
from .hpoly import (
    EMPTY_KEY,
    HPoly,
    Key,
    KeyedPoly,
    ONE,
    X,
    XY,
    Y,
    monomial,
    palindromic_decompose,
    zero_poly,
)


# ---------------------------------------------------------------------------
# the g/h recursion on words


@lru_cache(maxsize=None)
def h_of_word(w: str) -> KeyedPoly:
    check_word(w)
    if w == "":
        return KeyedPoly(0, {EMPTY_KEY: ONE})
    rest = w[1:]
    if w[0] == "D":
        value = h_of_word(rest).mul_poly(XY)
    else:
        value = g_of_word(rest) + h_of_word(rest).mul_poly(X)
    if not value.is_palindromic():
        raise NotPalindromicError(f"h({w}) came out non-palindromic: {value}")
    return value


@lru_cache(maxsize=None)
def g_of_word(w: str) -> KeyedPoly:
    check_word(w)
    if w == "":
        return KeyedPoly(1, {EMPTY_KEY: Y})  # g of the point
    rest = w[1:]
    if w[0] == "C":
        return g_of_word(rest).mul_poly(Y)
    h = h_of_word(rest)
    acc: dict[Key, HPoly] = {}

    def add(key, poly):
        cur = acc.get(key)
        acc[key] = poly if cur is None else cur + poly

    for key, poly in h.terms.items():
        for i, j, lam in palindromic_decompose(poly):
            if lam == 0:
                continue
            add(key, monomial(i + 1, i + j + 2, lam))  # (xy)^(i+1) y^(j+1)
            add(key.primed(i, j), HPoly([lam]))
    return KeyedPoly(h.dim + 3, acc)


@lru_cache(maxsize=None)
def toric_h_of_word(w: str) -> HPoly:
    """The toric h-vector of a word, by the key-free recursion."""
    check_word(w)
    if w == "":
        return ONE
    rest = w[1:]
    if w[0] == "D":
        return toric_h_of_word(rest) * XY
    return toric_g_of_word(rest) + toric_h_of_word(rest) * X


@lru_cache(maxsize=None)
def toric_g_of_word(w: str) -> HPoly:
    check_word(w)
    if w == "":
        return Y
    rest = w[1:]
    return toric_g_of_word(rest) * (Y if w[0] == "C" else XY)


def h_of_cdvector(v: CDVector) -> KeyedPoly:
    return v.combine(h_of_word, KeyedPoly(v.degree, {}))


def g_of_cdvector(v: CDVector) -> KeyedPoly:
    return v.combine(g_of_word, KeyedPoly(v.degree + 1, {}))


def toric_of_cdvector(v: CDVector) -> HPoly:
    return v.combine(toric_h_of_word, zero_poly(v.degree))


# ---------------------------------------------------------------------------
# the coordinate basis and completeness


def word_coordinate(w: str) -> tuple[int, int, Key]:
    """The (i, j, key) coordinate paired with a CD-word.

    w reads D^i C^j B_1 ... B_r with blocks B_k = C D^(a_k+1) C^(b_k) and
    pairs with (i, j, Key((a_1..a_r), (b_1..b_r))).
    """
    check_word(w)
    i = len(w) - len(w.lstrip("D"))
    head, *blocks = w[i:].split("CD")  # C^j, then D^(a_k) C^(b_k) per block
    ds = tuple(b.count("D") for b in blocks)
    return i, len(head), Key(ds, tuple(b.count("C") for b in blocks))


@lru_cache(maxsize=None)
def coordinate_basis(dim: int) -> tuple[tuple[int, int, Key], ...]:
    """Canonical (i, j, key) coordinates for keyed h-values of one dimension.

    The images of the degree-dim words under `word_coordinate`, ordered by
    key degree, then key, then i.
    """
    coords = map(word_coordinate, cd_words(dim))
    return tuple(sorted(coords, key=lambda c: (c[2].sort_key(), c[0])))


def h_coordinates(kp: KeyedPoly) -> list:
    """The coordinate vector of a keyed polynomial in the (i, j, key) basis."""
    coords = coordinate_basis(kp.dim)
    position = {(i, key): n for n, (i, j, key) in enumerate(coords)}
    vec = [0] * len(coords)
    for key, poly in kp.terms.items():
        for i, j, lam in palindromic_decompose(poly):
            if lam == 0:
                continue
            pos = position.get((i, key))
            if pos is None:
                raise ValueError(f"no coordinate for ({i},{j},{key}) at dim {kp.dim}")
            vec[pos] = lam
    return vec


@lru_cache(maxsize=None)
def _peel_order(d: int) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
    """The degree-d words by descending key rank, (degree, length), each with
    the index of its own coordinate and its h-row."""
    at = {c: n for n, c in enumerate(coordinate_basis(d))}
    coords = [(word_coordinate(w), w) for w in cd_words(d)]
    coords.sort(key=lambda x: (x[0][2].degree, len(x[0][2].ds)), reverse=True)
    return tuple((w, at[c], tuple(h_coordinates(h_of_word(w)))) for c, w in coords)


def cd_from_h(kp: KeyedPoly) -> CDVector:
    """Exact CD-coordinates of an h-value, peeled word by word.

    Words go by descending key rank; each one's coefficient is the value
    left at its own coordinate, and its h-row is subtracted.
    """
    if kp.dim < 0:
        raise ValueError("flag recovery needs dimension >= 0")
    check_basis_degree(kp.dim)  # before the peel, which an over-cap value pays for
    rest = h_coordinates(kp)  # rejects non-palindromic and ill-keyed input
    coeffs = {}
    for w, at, row in _peel_order(kp.dim):
        c = rest[at]
        if c:
            coeffs[w] = c
            for n, v in enumerate(row):
                rest[n] -= c * v
    if any(rest):  # only if the rows were not triangular in this order
        raise ValueError(f"the peel of a dim-{kp.dim} h-value left a remainder")
    return CDVector(kp.dim, coeffs)


def flag_from_h(kp: KeyedPoly) -> FlagVector:
    """Recover the flag vector from an h-value, exactly.

    The peeled CD-coordinates' word cd-indices, summed and expanded.
    """
    psi = [0] * len(cd_words(kp.dim))
    for w, c in cd_from_h(kp).coeffs.items():
        psi = [p + c * k for p, k in zip(psi, word_cd(w))]
    return cd_index_flag(psi, kp.dim)
