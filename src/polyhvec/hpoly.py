"""Homogeneous bivariate polynomials, keys, and keyed polynomials.

Coefficient lists read from the pure-y end: ``[a, b, c]`` stands for
a*y^2 + b*x*y + c*x^2, so ``coeffs[m]`` is the coefficient of x^m y^(n-m)
in a degree-n polynomial.  All coefficients are exact integers.

The palindromic polynomials of degree n (those fixed by swapping x and y)
have the basis angle(i, j) = (xy)^i * (x^j + x^(j-1) y + ... + y^j) with
2i + j = n; ``palindromic_decompose`` recovers the unique coordinates in
that basis by peeling coefficients off the outside in.
"""

from __future__ import annotations

import math

from .errors import NotPalindromicError


class HPoly:
    """A homogeneous polynomial in x and y, stored as its coefficient list."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a homogeneous polynomial needs at least one coefficient")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == self.coeffs[::-1]

    def bracket(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __eq__(self, other):
        return isinstance(other, HPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"HPoly({list(self.coeffs)})"

    def __str__(self):
        return self.bracket()

    def _require_same_degree(self, other):
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree} (not homogeneous)"
            )

    def __add__(self, other):
        self._require_same_degree(other)
        return HPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._require_same_degree(other)
        return HPoly(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return HPoly(-a for a in self.coeffs)

    def scaled(self, c):
        return HPoly(c * a for a in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        out = [0] * (self.degree + other.degree + 1)
        for m, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                out[m + k] += a * b
        return HPoly(out)


def zero_poly(degree: int) -> HPoly:
    return HPoly([0] * (degree + 1))


def monomial(xpow: int, ypow: int, coeff=1) -> HPoly:
    """coeff * x^xpow * y^ypow as a degree-(xpow+ypow) polynomial."""
    coeffs = [0] * (xpow + ypow + 1)
    coeffs[xpow] = coeff
    return HPoly(coeffs)


ONE = HPoly([1])
X = monomial(1, 0)
Y = monomial(0, 1)
XY = monomial(1, 1)


def angle(i: int, j: int) -> HPoly:
    """(xy)^i * (x^j + x^(j-1)y + ... + y^j); degree 2i + j."""
    if i < 0 or j < 0:
        raise ValueError("angle indices must be nonnegative")
    return HPoly([0] * i + [1] * (j + 1) + [0] * i)


def x_minus_y_power(k: int) -> HPoly:
    """(x - y)^k, expanded."""
    return HPoly([math.comb(k, m) * (-1) ** (k - m) for m in range(k + 1)])


def palindromic_decompose(p: HPoly) -> list[tuple[int, int, int]]:
    """Coordinates of a palindromic polynomial in the angle(i, j) basis.

    Returns [(i, j, lam)] for i = 0 .. degree//2 with j = degree - 2i,
    zero coefficients included.  The expansion is found by peeling: the
    outermost remaining coefficient at position i is exactly lam_i, since
    every angle(i', j') with i' > i vanishes there.
    """
    if not p.is_palindromic():
        raise NotPalindromicError(f"{p.bracket()} is not palindromic")
    n = p.degree
    work = list(p.coeffs)
    out = []
    for i in range(n // 2 + 1):
        j = n - 2 * i
        lam = work[i]
        out.append((i, j, lam))
        if lam:
            for m in range(i, i + j + 1):
                work[m] -= lam
    assert not any(work), "palindromic peel left a remainder"
    return out


class Key:
    """A key ((d_1..d_r), (c_1..c_r)) indexing one symbol of a keyed polynomial.

    The degree is 2*sum(ds) + sum(cs) + 3r.  The empty key has degree 0 and
    its symbol is the constant 1.  Immutable; equals only a `Key`.
    """

    __slots__ = ("ds", "cs")

    def __init__(self, ds: tuple[int, ...], cs: tuple[int, ...]):
        if len(ds) != len(cs):
            raise ValueError("key lists must have equal length")
        if any(d < 0 for d in ds) or any(c < 0 for c in cs):
            raise ValueError("key entries must be nonnegative")
        object.__setattr__(self, "ds", ds)
        object.__setattr__(self, "cs", cs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a Key is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is Key and (self.ds, self.cs) == (other.ds, other.cs)

    def __hash__(self):
        return hash((self.ds, self.cs))

    def __repr__(self):
        return f"Key(ds={self.ds!r}, cs={self.cs!r})"

    @property
    def degree(self) -> int:
        return 2 * sum(self.ds) + sum(self.cs) + 3 * len(self.ds)

    def primed(self, i: int, j: int) -> "Key":
        """Prepend i to the d-list and j to the c-list; degree grows by 2i + j + 3."""
        return Key((i,) + self.ds, (j,) + self.cs)

    def sort_key(self):
        return (self.degree, self.ds, self.cs)

    def __str__(self):
        if not self.ds:
            return "e"
        # digits run together, except comma-separated once any entry needs
        # more than one digit (the compact form would be ambiguous)
        sep = "," if any(v >= 10 for v in self.ds + self.cs) else ""
        return sep.join(map(str, self.ds)) + ";" + sep.join(map(str, self.cs))


EMPTY_KEY = Key((), ())


class KeyedPoly:
    """A finite sum sum_k p_k * w_k of homogeneous polynomials weighted by keys.

    Every term satisfies p_k.degree + k.degree == dim; zero components are
    normalised away.  Equality is exact.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        clean = {}
        for key, poly in dict(terms).items():
            if poly.is_zero():
                continue
            if key.degree + poly.degree != dim:
                raise ValueError(
                    f"term {key}: degree {poly.degree} + key degree {key.degree}"
                    f" != dim {dim}"
                )
            clean[key] = poly
        self.dim = dim
        self.terms = clean

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def component(self, key: Key) -> HPoly:
        """The polynomial attached to key (zero of the right degree if absent)."""
        got = self.terms.get(key)
        if got is not None:
            return got
        if key.degree > self.dim:
            raise ValueError(f"key degree {key.degree} exceeds dim {self.dim}")
        return zero_poly(self.dim - key.degree)

    def is_palindromic(self) -> bool:
        return all(p.is_palindromic() for p in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._require_same_dim(other)
        acc = dict(self.terms)
        for key, poly in other.terms.items():
            cur = acc.get(key)
            acc[key] = poly if cur is None else cur + poly
        return KeyedPoly(self.dim, acc)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return KeyedPoly(self.dim, {k: p.scaled(c) for k, p in self.terms.items()})

    def mul_poly(self, p: HPoly) -> "KeyedPoly":
        """Multiply every component by a key-free polynomial."""
        return KeyedPoly(
            self.dim + p.degree, {k: q * p for k, q in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, KeyedPoly):
            return NotImplemented
        # products are only defined when one factor carries the empty key alone
        if set(self.terms) <= {EMPTY_KEY}:
            factor = self.terms.get(EMPTY_KEY, zero_poly(self.dim))
            return other.mul_poly(factor)
        if set(other.terms) <= {EMPTY_KEY}:
            factor = other.terms.get(EMPTY_KEY, zero_poly(other.dim))
            return self.mul_poly(factor)
        raise ValueError("product needs a factor supported on the empty key only")

    def __eq__(self, other):
        return (
            isinstance(other, KeyedPoly)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        return f"KeyedPoly({self.dim}, {{{', '.join(f'{k}: {p}' for k, p in self.items())}}})"

    def __str__(self):
        if not self.terms:
            return "0"
        return "  ".join(f"{key}: {poly.bracket()}" for key, poly in self.items())
