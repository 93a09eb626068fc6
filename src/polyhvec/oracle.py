"""The oracles: face lattices, chain counting, the flag operators, word
flags and the face-sum route.

Every fast path keeps a slow, independent route that the tests and
`polyhvec verify` compare it against; they all live here, and only
`verify`, the tests and the benchmark's tracer import this module, so
`flag`, `hvec`, `toric`, `table` and `basis` never compile or load it.
When it loads, the table at its end (`_TRACED`) binds the tracer's 13
names onto the fast-path modules they left, with no second copy.
The flag operators run on `flagvec`'s bitmask tuples, each cut of a
chain splice a few list-slice additions (see `pyramid_flag`); word flags
fold them over CD-words, and `CDVector.combine` extends those linearly
(`cd_flag`), as it does the prism's expansion (`expand_I`).  A face
lattice numbers its faces level by level, from the empty face (0) to
the body (the last), holds one relation, `covers_up`, checked in full
when it is built, and never changes; `_LATTICE_STEPS` holds the lattice
of each step of `lattice._NODES` but D.  One chain DP per lattice,
cached on it, gives every face's link flag vector packed in one int,
fixed-width fields that never carry; `interval_lattice`, which rebuilds
a link as a lattice, is its oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import accumulate, groupby, product
from operator import add

from . import cdwords, flagvec, hvector, lattice
from .cdwords import CDVector, cd_coordinates, cd_index, cd_words, check_word
from .flagvec import FlagVector, dim_subsets, point_flag
from .hpoly import EMPTY_KEY, HPoly, KeyedPoly, monomial, x_minus_y_power, zero_poly
from .hvector import g_of_cdvector, h_coordinates, h_of_cdvector, h_of_word
from .hvector import toric_of_cdvector
from .lattice import _C, _DUAL, _I, Expr, _runs, check_face_count, is_buildable
from .lattice import Bipyr, Cone, Crosspoly, Cube, Dual, Prism, Prod, Pt, Simplex


# ---------------------------------------------------------------------------
# flag operators


def _splices(f: tuple[int, ...] | list[int], d: int, prism: bool) -> list[int]:
    """Sum f over the cuts of each set S, one slice of sets at a time."""
    if d < 0:
        return list(f)
    n = 1 << d
    out = [0] * (2 * n)
    out[::2] = f  # the empty lower part: f[S >> 1], or 0 for a prism's odd S
    if not prism:
        out[1::2] = f
    src = [2 * v for v in f] if prism else f
    for t in range(d):  # the cut at bit t: S = lo | w | hi << (t + 1)
        w = 1 << t
        if 2 * t <= d:  # few lo: stride over hi, even and odd hi apart
            for a in range(w, 2 * w):  # a = lo | w
                part = src[a :: 2 * w]
                out[a :: 4 * w] = map(add, out[a :: 4 * w], part)
                b = a + 2 * w
                out[b :: 4 * w] = map(add, out[b :: 4 * w], part)
        else:  # few hi: one block of w sets each
            for hi in range(n >> t):
                a, b = hi << (t + 1) | w, (hi | 1) << t
                out[a : a + w] = map(add, out[a : a + w], src[b : b + w])
    out[n:] = map(add, out[n:], src)  # the full cut, t = d
    return out


def pyramid_flag(f: FlagVector) -> FlagVector:
    """Flag vector of the pyramid over f; raises the dimension by one.

    Every chain of proper faces of the pyramid splits at some point into a
    chain of base faces (the base itself allowed) followed by a chain of
    apex-joins over faces (the bare apex allowed).  Lowering the join
    dimensions by one turns both pieces into one chain in the base, where
    the two pieces may share their splice face; the extended lookup then
    counts each case with a single entry.

    On bitmasks, the cut of S = lo | 1<<t | hi<<(t+1) at bit t < d keeps
    lo | 1<<t in the base and lowers the joins hi << (t+1) by one, so it
    reads lo | (hi|1) << t: the base's top face t and the lowest lowered
    join merge when hi is odd.  The cut below every bit reads S >> 1 (the
    bare apex, -1, drops out) and the cut at bit d reads S - 2^d (the
    base, d, drops out).  As hi = 2j and 2j + 1 read the same entry, each
    t is either, per lo, two runs of sets of stride 2^(t+2) from one run of
    f of stride 2^(t+1), or, per hi, one block of 2^t sets from one block
    of f; `_splices` takes the shorter loop, 2^t values of lo against
    2^(d-t) of hi, so small t strides and large t takes contiguous blocks.
    """
    return FlagVector.from_values(f.dim + 1, _splices(f.values, f.dim, False))


def prism_flag(f: FlagVector) -> FlagVector:
    """Flag vector of the prism (product with a segment) over f.

    Chains split into faces sitting over one endpoint followed by faces
    swept along the whole segment.  The swept part has no empty face, so
    splits whose swept chain would start at dimension zero contribute
    nothing, and a nonempty endpoint part carries a factor two for the
    choice of endpoint.

    The spliced set of a cut is the pyramid's.  Only the cut below every
    bit can start the swept chain at dimension zero, so it reads 0 for odd
    S and f[S >> 1] for even S; every cut at a bit leaves a nonempty lower
    part and counts twice, so those run the pyramid's blocks on 2f.
    """
    if f.dim < 0:
        raise ValueError("prism of the empty polytope is undefined")
    return FlagVector.from_values(f.dim + 1, _splices(f.values, f.dim, True))


def d_flag(f: FlagVector) -> FlagVector:
    """Prism-of-pyramid minus pyramid-of-pyramid; raises the dimension by two."""
    cone, d = _splices(f.values, f.dim, False), f.dim + 1
    both = zip(_splices(cone, d, True), _splices(cone, d, False))
    return FlagVector.from_values(d + 1, [a - b for a, b in both])


def dual_flag(f: FlagVector) -> FlagVector:
    """Reverse every dimension set: S goes to {d-1-s for s in S}, a bit reversal."""
    if f.dim < 0:
        raise ValueError("duality needs dimension >= 0")
    d = f.dim
    reverse = [0] * (1 << d)
    for mask in range(1, 1 << d):
        reverse[mask] = reverse[mask >> 1] >> 1 | (mask & 1) << (d - 1)
    return FlagVector.from_values(d, [f.values[r] for r in reverse])


# ---------------------------------------------------------------------------
# word flags and the change of basis from a flag vector


@lru_cache(maxsize=None)
def word_flag(w: str) -> FlagVector:
    """Flag vector of a word applied to the point (virtual once D appears)."""
    check_word(w)
    if w == "":
        return point_flag()
    rest = word_flag(w[1:])
    return pyramid_flag(rest) if w[0] == "C" else d_flag(rest)


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
    d = v.degree + 1
    return v.combine(lambda w: CDVector(d, dict(_expand_I_word(w))), CDVector(d))


def cd_flag(v: CDVector) -> FlagVector:
    """Flag vector of a CD combination."""
    return v.combine(word_flag, FlagVector(v.degree, {}))


def basis_matrix(d: int) -> list[list[int]]:
    """Rows: flag vectors of the degree-d words; columns: all dimension sets."""
    return [[word_flag(w).get(S) for S in dim_subsets(d)] for w in cd_words(d)]


def to_cd_basis(f: FlagVector) -> CDVector:
    """Exact CD-coordinates of a flag vector; error when none exist."""
    return cd_coordinates(cd_index(f), f.dim)


# ---------------------------------------------------------------------------
# face lattices


class FaceLattice:
    """Hasse diagram of a polytope, graded from the empty face to the body.

    Faces are numbered level by level: face 0 is the empty face, the last
    face is the body, and the faces of dimension k are the index range
    `levels[k + 1]`.  The one relation stored is `covers_up`.  The
    constructor refuses no faces, any other numbering, a cover list too
    many or too few, and any cover not the int index of a face a rank up.
    """

    def __init__(self, dims, covers_up):
        self.dims = dims = tuple(dims)
        self.covers_up = covers = tuple(map(tuple, covers_up))
        if not dims:
            raise ValueError("the face list is empty: no empty face, no body")
        keys, sizes = zip(*[(k, len(list(g))) for k, g in groupby(dims)])
        if keys != tuple(range(-1, len(keys) - 1)) or {sizes[0], sizes[-1]} != {1}:
            raise ValueError("faces are not numbered level by level, empty to body")
        starts = [0, *accumulate(sizes)]
        self.levels = tuple(map(range, starts, starts[1:]))
        if len(covers) != len(dims):
            raise ValueError(f"{len(covers)} cover list(s) for {len(dims)} faces")
        for first, up, past in zip(starts, starts[1:], [*starts[2:], len(dims)]):
            for lo in range(first, up):  # a level, covered from [up, past) only
                for hi in covers[lo]:
                    if type(hi) is not int or not up <= hi < past:
                        face = type(hi) is int and 0 <= hi < len(dims)
                        why = "skips a rank" if face else "is no face"
                        raise ValueError(f"cover of face {lo} by face {hi} {why}")

    bottom = 0

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    @property
    def dim(self) -> int:
        return self.dims[-1]

    def __len__(self):
        return len(self.dims)

    def faces_of_dim(self, k: int) -> range:
        return self.levels[k + 1] if -1 <= k <= self.dim else range(0)

    @cached_property
    def downsets(self):
        """Bitmask per face of it and all below, from `covers_up` in index order."""
        down = [1 << i for i in range(len(self.dims))]
        for lo, ups in enumerate(self.covers_up):
            for hi in ups:
                down[hi] |= down[lo]
        return tuple(down)

    @cached_property
    def link_values(self):
        """Every face's link flag vector packed in one int: one upward DP.

        The link of F, of dimension e = d - dim F - 1, counts the chains
        F < H_1 < ... < H_k of proper faces by their dimensions less
        dim F + 1; the entry of set S is field rev_e(S) (S's e bits read from
        the top), `field_width` bits each.  Walking down from the body a level
        at a time, F gets per level above it a bitmask of the faces there
        over F, from its covers' masks (bit i: the level's face start + i);
        only the level just above keeps its masks.  A chain whose lowest face
        H is j levels above F is H and a chain of H's link, and the sets with
        lowest element j are H's fields from field 2^(e-1-j) on: so the mask's
        ints are summed and shifted there.  The body's and facets' int is 1.

        No field carries: an entry counts chains with one face per level in
        S, at most big^|S| <= big^d (big the largest level), and a level's
        sum of links of dimension e counts chains through that level, at most
        big^(e+1) <= big^d; `field_width` holds big^max(d, 1).  The DP calls
        no flag operator, which it checks.
        """
        d, levels, width = self.dim, self.levels, self.field_width
        values = [1] * len(self)
        above = {face: () for face in levels[d]}  # over a facet: only the body
        for k in reversed(range(-1, d - 1)):
            e = d - k - 1
            up_start = levels[k + 2].start
            level_above = {}  # per face of dim k, per dim k + 1 + j: faces over it
            for face in levels[k + 1]:
                masks = [0] * e
                for up in self.covers_up[face]:
                    masks[0] |= 1 << (up - up_start)
                    for j, m in enumerate(above[up], 1):
                        masks[j] |= m
                total = 1
                for j, m in enumerate(masks):
                    before = levels[k + j + 2].start - 1  # bit_length 1: its first face
                    block = 0
                    while m:
                        low = m & -m
                        block += values[before + low.bit_length()]
                        m ^= low
                    total += block << (width << (e - 1 - j))
                level_above[face] = masks
                values[face] = total
            above = level_above
        return tuple(values)

    @cached_property
    def field_width(self) -> int:
        """Bits per entry of `link_values`: a multiple of 8, big^max(d, 1) fits."""
        big = max(map(len, self.levels))
        return -(-(big ** max(self.dim, 1)).bit_length() // 8) * 8


_POINT_LATTICE = FaceLattice([-1, 0], [(1,), ()])  # every build starts from it


def _cone_lattice(L: FaceLattice) -> FaceLattice:
    # level k: L's faces of dim k, then the joins of L's faces of dim k - 1
    # with the apex; fewer[k + 2] counts L's faces of dim < k.  Covers share
    # one int per face: base[i] numbers L's face i here, join[i] its join
    n = len(L)
    fewer = [0, *(level.start for level in L.levels), n, n, n]
    base = [i + fewer[k + 1] for i, k in enumerate(L.dims)]
    join = [i + fewer[k + 4] for i, k in enumerate(L.dims)]
    dims, covers = [], []
    for k in range(-1, L.dim + 2):
        for i in L.faces_of_dim(k):  # covered by its own join too
            covers.append([base[j] for j in L.covers_up[i]] + [join[i]])
        for i in L.faces_of_dim(k - 1):
            covers.append([join[j] for j in L.covers_up[i]])
        dims += [k] * (len(covers) - len(dims))
    return FaceLattice(dims, covers)


def _product_lattice(A: FaceLattice, B: FaceLattice) -> FaceLattice:
    # nonempty faces are pairs of nonempty faces, level by level, over one bottom
    pairs, dims = [None], [-1]
    for k in range(A.dim + B.dim + 1):
        for a in range(max(0, k - B.dim), min(k, A.dim) + 1):
            pairs += product(A.levels[a + 1], B.levels[k - a + 1])
        dims += [k] * (len(pairs) - len(dims))
    index = dict(zip(pairs, range(len(pairs))))
    covers = [range(1, 1 + len(A.levels[1]) * len(B.levels[1]))]  # the vertices
    for i, j in pairs[1:]:  # plain loops: small comprehensions cost more
        ups = []
        for i2 in A.covers_up[i]:
            ups.append(index[i2, j])
        for j2 in B.covers_up[j]:
            ups.append(index[i, j2])
        covers.append(ups)
    return FaceLattice(dims, covers)


def _dual_lattice(L: FaceLattice) -> FaceLattice:
    # reversed numbering: the body becomes face 0, and levels stay contiguous
    last = len(L) - 1
    dims = [L.dim - 1 - k for k in reversed(L.dims)]
    covers = [[] for _ in dims]
    for lo, ups in enumerate(L.covers_up):
        me = last - lo  # one int per face, shared by its covers
        for hi in ups:
            covers[last - hi].append(me)
    return FaceLattice(dims, covers)


_SEGMENT = _cone_lattice(_POINT_LATTICE)  # the prism's factor
# the lattice of each step of `lattice._NODES` but D, keyed by the step
_LATTICE_STEPS = {
    _C: _cone_lattice,
    _I: lambda L: _product_lattice(L, _SEGMENT),
    _DUAL: _dual_lattice,
}


def _build(e: Expr) -> FaceLattice:
    base, runs = _runs(e)
    if isinstance(base, Prod):
        L = _product_lattice(_build(base.left), _build(base.right))
    else:
        L = _POINT_LATTICE
    for step, k in runs:
        for _ in range(k):
            L = _LATTICE_STEPS[step](L)
    return L


@lru_cache(maxsize=None)
def build_lattice(e: Expr) -> FaceLattice:
    if not is_buildable(e):
        raise ValueError("expressions containing D denote no polytope lattice")
    check_face_count(e)
    return _build(e)


# ---------------------------------------------------------------------------
# chain counting


@lru_cache(maxsize=None)
def _field_order(e: int) -> tuple[int, ...]:
    """Per bitmask of e bits, its field in a packed link: the bits reversed."""
    order = [0]
    for _ in range(e):
        order = [2 * f for f in order] + [2 * f + 1 for f in order]
    return tuple(order)


def _unpack(L: FaceLattice, e: int, packed: int) -> FlagVector:
    # a link of dimension e from its packed int (`FaceLattice.link_values`)
    size, order = L.field_width >> 3, _field_order(max(e, 0))
    data = packed.to_bytes(size * len(order), "little")
    return FlagVector.from_values(
        e, [int.from_bytes(data[f * size : f * size + size], "little") for f in order]
    )


def chain_count_flag(L: FaceLattice) -> FlagVector:
    """Count chains of nonempty proper faces, grouped by dimension set.

    The empty face's link, read from the lattice's chain DP.
    """
    return _unpack(L, L.dim, L.link_values[0])


def interval_lattice(L: FaceLattice, lo: int, hi: int) -> FaceLattice:
    """The closed interval [lo, hi] regraded so lo plays the empty face."""
    down = L.downsets
    if not (down[hi] >> lo) & 1:
        raise ValueError("interval endpoints are not comparable")
    base = L.dims[lo]
    members = [c for c in range(lo, hi + 1) if (down[hi] >> c) & (down[c] >> lo) & 1]
    index = {c: i for i, c in enumerate(members)}
    dims = [L.dims[c] - base - 1 for c in members]
    covers = [[index[u] for u in L.covers_up[c] if u in index] for c in members]
    return FaceLattice(dims, covers)


def link_flag(L: FaceLattice, face: int) -> FlagVector:
    """Flag vector of the link of a nonempty face (the interval up to the body).

    Read from the lattice's chain DP, with no interval rebuilt.
    """
    if not 0 < face < len(L):
        raise ValueError(f"face {face} is not a nonempty face of the lattice")
    return _unpack(L, L.dim - L.dims[face] - 1, L.link_values[face])


def total_link_vector(L: FaceLattice) -> tuple[FlagVector, ...]:
    """Sums of link flag vectors over the nonempty faces, one per link dimension.

    Entry e + 1 sums the links of dimension e, from e = -1 (the body) to
    d - 1 (the vertices): the packed ints of the lattice's chain DP, summed
    one level of faces each and unpacked once.
    """
    return tuple(
        _unpack(L, e, sum(L.link_values[lv.start : lv.stop]))
        for e, lv in enumerate(reversed(L.levels[1:]), -1)
    )


def is_eulerian(L: FaceLattice) -> bool:
    """Every interval of rank >= 1 balances even- and odd-dimensional faces.

    Cubic in the face count; meant as a construction sanity gate on small
    lattices.
    """
    down = L.downsets
    for hi, below in enumerate(down):
        for lo in range(hi):
            if (below >> lo) & 1 and sum(
                (-1) ** (L.dims[c] - L.dims[lo])
                for c in range(lo, hi + 1)
                if (below >> c) & (down[c] >> lo) & 1
            ):
                return False
    return True


@lru_cache(maxsize=None)
def flag_of_lattice(e: Expr) -> FlagVector:
    return chain_count_flag(build_lattice(e))


def sample_expressions(max_dim: int) -> list[Expr]:
    """A deterministic family of buildable expressions, a few per dimension.

    Exercises every constructor; used by the verification suites to stand
    in for "all" constructible polytopes at desk scale.
    """
    by_dim: list[list[Expr]] = [[] for _ in range(max_dim + 1)]
    if max_dim >= 0:
        by_dim[0].append(Pt())
    for n in range(1, max_dim + 1):
        by_dim[n].append(Simplex(n))
        by_dim[n].append(Cube(n))
        if n >= 2:
            by_dim[n].append(Crosspoly(n))
            by_dim[n].append(Bipyr(Simplex(n - 1)))
        if n >= 3:
            by_dim[n].append(Cone(Crosspoly(n - 1)))
            by_dim[n].append(Prism(Bipyr(Simplex(n - 2))))
            by_dim[n].append(Dual(Cone(Cube(n - 1))))
    if max_dim >= 4:
        by_dim[4].append(Cone(Prism(Cone(Cone(Pt())))))
        by_dim[4].append(Prod(Simplex(2), Simplex(2)))
    if max_dim >= 5:
        by_dim[5].append(Prod(Simplex(2), Simplex(3)))
        by_dim[5].append(Prod(Cube(2), Simplex(3)))
    if max_dim >= 6:
        by_dim[6].append(Prod(Simplex(3), Simplex(3)))
        by_dim[6].append(Prod(Cube(3), Simplex(3)))
        by_dim[6].append(Prod(Cube(2), Bipyr(Simplex(2))))
        by_dim[6].append(Prism(Prod(Simplex(2), Simplex(2))))
    return [e for group in by_dim for e in group]


# ---------------------------------------------------------------------------
# values on polytopes, and the face-sum route


def h_of_flag(f: FlagVector) -> KeyedPoly:
    return h_of_cdvector(to_cd_basis(f))


def h_of_polytope(e: Expr) -> KeyedPoly:
    """h of a buildable expression, through chain counting and CD-coordinates."""
    return h_of_flag(flag_of_lattice(e))


def toric_of_polytope(e: Expr) -> HPoly:
    return toric_of_cdvector(to_cd_basis(flag_of_lattice(e)))


def h_via_links(e: Expr) -> KeyedPoly:
    """h as the face sum of (x - y)^dim(face) times g of the face's link.

    A second route to the same value: instead of expanding the body's
    flag vector once, every link is chain-counted and every distinct link
    is expanded once, times its number of faces, so agreement with
    h_of_polytope exercises the whole lattice/link/expansion stack.  The
    body itself contributes (x - y)^d, its link being the empty polytope.
    """
    L = build_lattice(e)
    total = KeyedPoly(L.dim, {EMPTY_KEY: x_minus_y_power(L.dim)})
    links = Counter(link_flag(L, face) for face in range(1, len(L) - 1))
    for f, n in links.items():  # a link of dim k is a face's of dim d - k - 1
        g = g_of_cdvector(to_cd_basis(f)).scaled(n)
        total = total + g.mul_poly(x_minus_y_power(L.dim - f.dim - 1))
    return total


def simple_h(f: FlagVector) -> HPoly:
    """h-polynomial of a simple polytope straight from its face counts.

    sum_i f_i (x-y)^i y^(d-i), the index running over 0..d with f_d = 1
    for the body itself.  (The convention was pinned down against
    h_of_polytope on cubes; both the y-power and the inclusion of the
    body matter.)
    """
    d = f.dim
    acc = zero_poly(d)
    for i in range(d):
        acc = acc + (x_minus_y_power(i) * monomial(0, d - i)).scaled(f.get((i,)))
    return acc + x_minus_y_power(d)


def h_matrix(d: int) -> list[list[int]]:
    """h-coordinates of every degree-d word, one row per word.

    Row w holds 1 at `word_coordinate(w)` and is otherwise supported on
    coordinates whose keys rank lower (`hvector`'s docstring), so the
    matrix is a permuted unitriangular one: unimodular for every d.
    """
    words = cd_words(d)
    rows = [h_coordinates(h_of_word(w)) for w in words]
    assert all(len(r) == len(words) for r in rows), "coordinate count != word count"
    return rows


# ---------------------------------------------------------------------------
# the names the benchmark's tracer reads on the modules they left, bound
# there once this module loads; the table leaves with ROADMAP item 1b

_TRACED = {
    lattice: (
        build_lattice, chain_count_flag, interval_lattice, link_flag, total_link_vector
    ),
    flagvec: (pyramid_flag, prism_flag, d_flag, dual_flag),
    cdwords: (word_flag, to_cd_basis, cd_flag),
    hvector: (h_via_links,),
}
for module, functions in _TRACED.items():
    for fn in functions:
        setattr(module, fn.__name__, fn)
