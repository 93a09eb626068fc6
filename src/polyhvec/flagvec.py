"""Flag vectors and the linear operators acting on them.

A flag vector of dimension d records, for each set S of dimensions in
0..d-1, how many chains of nonempty proper faces have dimension set
exactly S.  Entries are exact integers, stored densely: one tuple of
2^d values indexed by bitmask (bit i set iff i is in S, see
`sets_by_mask`).  The operators below are linear maps and happily
produce *virtual* vectors (for example the two-dimensional value of the
diamond operator on a point has an empty-chain count of zero); no
polytopality is assumed anywhere.  `product_flag`, the flag vector of a
product from its factors', is bilinear.

Lookups use the extended convention: a query set may mention -1 (the
empty face) and d (the body itself), and both are deleted before the
lookup, because every chain of proper faces extends uniquely by those
two.  This makes the chain-splice formulas for the pyramid and prism
operators uniform.  On bitmasks the deletion is a shift and a mask.  The
formulas themselves are cross-checked against lattice chain counting in
the test suite, which is the source of truth for them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def dim_subsets(d: int):
    """All dimension sets for a dimension-d flag vector, shortest first."""
    out = []
    for r in range(max(d, 0) + 1):
        out.extend(itertools.combinations(range(d), r))
    return out


def subset_masks(d: int):
    """The bitmask of each set of `dim_subsets(d)`, in that order, lazily."""
    bits = [1 << t for t in range(d)]
    return itertools.chain.from_iterable(
        map(sum, itertools.combinations(bits, r)) for r in range(max(d, 0) + 1)
    )


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

    def is_zero(self) -> bool:
        return not any(self.values)

    def scaled(self, c) -> "FlagVector":
        return FlagVector.from_values(self.dim, [c * v for v in self.values])

    def __add__(self, other):
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other):
        return linear_combine([(1, self), (-1, other)])

    def __rmul__(self, c):
        if not isinstance(c, int):
            return NotImplemented
        return self.scaled(c)

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


def linear_combine(terms) -> FlagVector:
    """Entrywise combination sum(c * f) of equal-dimension flag vectors."""
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    dim = terms[0][1].dim
    acc = [0] * (1 << max(dim, 0))
    for c, f in terms:
        if f.dim != dim:
            raise ValueError(f"dimension mismatch: {f.dim} vs {dim}")
        if c:
            acc = [a + c * v for a, v in zip(acc, f.values)]
    return FlagVector.from_values(dim, acc)


def _splices(f: tuple[int, ...] | list[int], d: int, prism: bool) -> list[int]:
    """Sum f over the cuts of each set S, made by clearing the lowest bit."""
    body, twice = (1 << max(d, 0)) - 1, 2 if prism else 1
    out = []
    for S in range(1 << (d + 1)):
        total, rest = (0 if prism and S & 1 else f[S >> 1]), S
        while rest:
            rest &= rest - 1
            total += twice * f[(S ^ rest | rest >> 1) & body]
        out.append(total)
    return out


def pyramid_flag(f: FlagVector) -> FlagVector:
    """Flag vector of the pyramid over f; raises the dimension by one.

    Every chain of proper faces of the pyramid splits at some point into a
    chain of base faces (the base itself allowed) followed by a chain of
    apex-joins over faces (the bare apex allowed).  Lowering the join
    dimensions by one turns both pieces into one chain in the base, where
    the two pieces may share their splice face; the extended lookup then
    counts each case with a single entry.

    On bitmasks, a cut of S leaves `lower` (the bits below it) and `upper`
    (the rest), and the spliced set is (lower | upper >> 1) & body, with
    body = 2^d - 1: the shift lowers the joins and drops the bare apex
    (-1), the mask drops the base (d), and as every lowered join lies at
    or above the top of `lower`, the union merges exactly a shared face.
    """
    return FlagVector.from_values(f.dim + 1, _splices(f.values, f.dim, False))


def prism_flag(f: FlagVector) -> FlagVector:
    """Flag vector of the prism (product with a segment) over f.

    Chains split into faces sitting over one endpoint followed by faces
    swept along the whole segment.  The swept part has no empty face, so
    splits whose swept chain would start at dimension zero contribute
    nothing, and a nonempty endpoint part carries a factor two for the
    choice of endpoint.

    The spliced set of a cut is the pyramid's, (lower | upper >> 1) & body.
    Only cut 0 can start the swept chain at dimension zero, so it is
    skipped when bit 0 of S is set, and every later cut, with `lower`
    nonempty, counts twice.
    """
    if f.dim < 0:
        raise ValueError("prism of the empty polytope is undefined")
    return FlagVector.from_values(f.dim + 1, _splices(f.values, f.dim, True))


def d_flag(f: FlagVector) -> FlagVector:
    """Prism-of-pyramid minus pyramid-of-pyramid; raises the dimension by two."""
    cone, d = _splices(f.values, f.dim, False), f.dim + 1
    both = zip(_splices(cone, d, True), _splices(cone, d, False))
    return FlagVector.from_values(d + 1, [a - b for a, b in both])


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


def dual_flag(f: FlagVector) -> FlagVector:
    """Reverse every dimension set: S goes to {d-1-s for s in S}, a bit reversal."""
    if f.dim < 0:
        raise ValueError("duality needs dimension >= 0")
    d = f.dim
    reverse = [0] * (1 << d)
    for mask in range(1, 1 << d):
        reverse[mask] = reverse[mask >> 1] >> 1 | (mask & 1) << (d - 1)
    return FlagVector.from_values(d, [f.values[r] for r in reverse])


class GradedFlagVector:
    """A finite family of flag vectors indexed by grade, with dim == grade."""

    __slots__ = ("components",)

    def __init__(self, components=()):
        clean = {}
        for grade, f in dict(components).items():
            if f.dim != grade:
                raise ValueError(f"component at grade {grade} has dim {f.dim}")
            if not f.is_zero():
                clean[grade] = f
        self.components = clean

    def items(self):
        return sorted(self.components.items())

    def grades(self):
        return sorted(self.components)

    def component(self, grade: int) -> FlagVector:
        return self.components.get(grade, FlagVector(grade, {}))

    def __add__(self, other):
        acc = dict(self.components)
        for grade, f in other.components.items():
            cur = acc.get(grade)
            acc[grade] = f if cur is None else cur + f
        return GradedFlagVector(acc)

    def scaled(self, c) -> "GradedFlagVector":
        return GradedFlagVector({g: f.scaled(c) for g, f in self.components.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedFlagVector)
            and self.components == other.components
        )

    def __repr__(self):
        body = ", ".join(f"{g}: {f!r}" for g, f in self.items())
        return f"GradedFlagVector({{{body}}})"


def c_on_graded(graded: GradedFlagVector) -> GradedFlagVector:
    """Apply the pyramid operator componentwise, shifting every grade up by one."""
    return GradedFlagVector(
        {g + 1: pyramid_flag(f) for g, f in graded.components.items()}
    )
