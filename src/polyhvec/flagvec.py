"""Flag vectors, and the flag vector of a product.

A flag vector of dimension d records, for each set S of dimensions in
0..d-1, how many chains of nonempty proper faces have dimension set
exactly S.  Entries are exact integers, stored densely: one tuple of
2^d values indexed by bitmask (bit i set iff i is in S, see
`sets_by_mask`).  Vectors may be *virtual* (for example the
two-dimensional value of the diamond operator on a point has an
empty-chain count of zero); no polytopality is assumed anywhere.
`product_flag`, the flag vector of a product from its factors', is
bilinear; it is the one operator the CLI runs on flag vectors.  The
pyramid, prism, diamond and dual operators on flag vectors are oracles,
in `oracle`.

As a lookup convenience, `get` accepts the extended convention: a query
set may mention -1 (the empty face) and d (the body itself), and both
are deleted before the lookup, because every chain of proper faces
extends uniquely by those two.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add


def dim_subsets(d: int):
    """All dimension sets for a dimension-d flag vector, shortest first."""
    out = []
    for r in range(max(d, 0) + 1):
        out.extend(itertools.combinations(range(d), r))
    return out


@lru_cache(maxsize=None)
def sets_by_mask(d: int) -> tuple[tuple[int, ...], ...]:
    """The dimension sets of a dimension-d flag vector, indexed by bitmask."""
    return tuple(
        tuple(i for i in range(d) if mask >> i & 1) for mask in range(1 << max(d, 0))
    )


class FlagVector:
    """`dim` and the 2^max(dim, 0) entries, a tuple `values` by bitmask.

    Built from a mapping of strictly increasing tuples (absent sets are
    zero), with every key checked, or by `from_values` from the tuple.
    """

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, entries=()):
        if dim < -1:
            raise ValueError(f"dimension must be >= -1, got {dim}")
        values = [0] * (1 << max(dim, 0))
        for dims, value in dict(entries).items():
            key = tuple(dims)
            if any(key[t + 1] <= key[t] for t in range(len(key) - 1)):
                raise ValueError(f"dimension set {key} is not strictly increasing")
            if key and (key[0] < 0 or key[-1] >= dim):
                raise ValueError(f"dimension set {key} out of range for dim {dim}")
            values[sum(1 << t for t in key)] = value
        self.dim, self.values = dim, tuple(values)

    @classmethod
    def from_values(cls, dim: int, values) -> "FlagVector":
        """The flag vector with these values; only their number is checked."""
        f = cls.__new__(cls)
        f.dim, f.values = dim, tuple(values)
        if dim < -1 or len(f.values) != 1 << max(dim, 0):
            raise ValueError(f"{len(f.values)} values do not fit dimension {dim}")
        return f

    @property
    def entries(self) -> dict:
        """The nonzero entries, keyed by sorted tuples (a new dict per call)."""
        return {S: v for S, v in zip(sets_by_mask(self.dim), self.values) if v}

    def get(self, dims) -> int:
        """Lookup ignoring -1 and dim; a set not strictly increasing reads 0."""
        d, mask, late = self.dim, 0, 0
        for t in dims:
            if 0 <= t < d:
                late |= mask >> t  # an earlier element at or above t
                mask |= 1 << t
            elif t != -1 and t != d:
                raise ValueError(f"dimension {t} outside -1..{d}")
        return 0 if late else self.values[mask]

    def items(self):
        """Nonzero (dimension set, value) pairs, shortest sets first."""
        return sorted(self.entries.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def scaled(self, c) -> "FlagVector":
        return FlagVector.from_values(self.dim, [c * v for v in self.values])

    def __add__(self, other):
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {other.dim} vs {self.dim}")
        return FlagVector.from_values(self.dim, map(add, self.values, other.values))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __eq__(self, other):
        return (
            isinstance(other, FlagVector)
            and self.dim == other.dim
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.dim, self.values))

    def __repr__(self):
        body = ", ".join(f"{set(S) if S else '{}'}: {v}" for S, v in self.items())
        return f"FlagVector(dim={self.dim}, {{{body}}})"


def empty_flag() -> FlagVector:
    """The flag vector of the empty polytope: one empty chain."""
    return FlagVector(-1, {(): 1})


def point_flag() -> FlagVector:
    return FlagVector(0, {(): 1})


def product_flag(f: FlagVector, g: FlagVector) -> FlagVector:
    """Flag vector of P x Q from f = flag(P) and g = flag(Q), of dims p and q.

    The nonempty faces of P x Q are the products F x G of nonempty faces,
    of dimension dim F + dim G.  A chain F_1 x G_1 < ... < F_k x G_k of
    proper faces with dimensions s_1 < ... < s_k is therefore a pair of
    multichains F_1 <= ... <= F_k in P and G_1 <= ... <= G_k in Q whose
    dimension sequences a and b are nondecreasing with a_i + b_i = s_i.
    Faces of equal dimension in a multichain are equal, so the distinct
    F_i form a chain of P with dimension set set(a), closed by P itself
    when p is in it; for fixed a and b there are f(set(a) - {p}) *
    g(set(b) - {q}) such chains.  f_{PxQ}(S) sums that over all pairs of
    sequences with sums S.

    A dynamic program over s = 0..p+q-1 runs the sum.  It groups the pairs
    of sequences by their dimension sets (A, B) = (set(a), set(b)) and
    keeps per group how many pairs give each set of sums so far.  Only
    max(A) and max(B) bound the next step, and the weight f * g is taken
    once, at the end.
    """
    p, q = f.dim, g.dim
    if p < 0 or q < 0:
        raise ValueError("the product of the empty polytope is undefined")
    groups = {(0, 0): {0: 1}}  # (A, B) -> {S: pairs of sequences}
    for s in range(p + q):
        bit = 1 << s
        # a step adds to groups with more elements, which come first, so
        # no count gains s twice
        order = sorted(groups, key=lambda AB: -AB[0].bit_count() - AB[1].bit_count())
        for A, B in order:
            counts = groups[(A, B)]
            last_a = max(A.bit_length() - 1, 0)
            last_b = max(B.bit_length() - 1, 0)
            for a in range(max(last_a, s - q), min(p, s - last_b) + 1):
                key = (A | 1 << a, B | 1 << (s - a))
                grown = groups.get(key)
                if grown is None:
                    groups[key] = {S | bit: n for S, n in counts.items()}
                    continue
                for S, n in counts.items():
                    grown[S | bit] = grown.get(S | bit, 0) + n
    below_p, below_q = (1 << p) - 1, (1 << q) - 1
    total = [0] * (1 << (p + q))
    for (A, B), counts in groups.items():
        weight = f.values[A & below_p] * g.values[B & below_q]
        if weight:
            for S, n in counts.items():
                total[S] += weight * n
    return FlagVector.from_values(p + q, total)
