"""Constructible polytopes: expression grammar, face lattices, chain counting.

The grammar (also the CLI input syntax) is case-sensitive and
whitespace-insensitive::

    pt | C(e) | I(e) | D(e) | B(e) | dual(e) | prod(e, e)
       | simplex(n) | cube(n) | crosspoly(n)

A word over C, I and D is sugar for nested nodes, applied right to left:
``CIC(pt)`` parses to ``C(I(C(pt)))``, the same tree.  D, the diamond,
makes the expression denote a (possibly virtual) flag vector rather than
a buildable polytope, so the arguments of prod must be D-free.  Nodes
are immutable tuples of their fields, each equal only to nodes of its
own class, defined with no class decorator: every CLI call pays for
this module's import.

Faces are integer indices numbered level by level, from the empty face
(0) to the body (the last); only the combinatorics matter.  A lattice
holds one relation, `covers_up`, checked in full when it is built (one
cover list per face, every index a face one rank up), and never changes.
One exact integer chain DP per lattice, cached on it, gives every face's
link flag vector packed in one int, fixed-width fields that never carry;
the empty face's link is the lattice's own flag vector.
`interval_lattice`, which rebuilds a link as a lattice, is its oracle.

`_NODES` spells every node but the point and a product as runs of four
steps, C, I, dual and D (B is dual, I, dual; cube(n) is C, then I n - 1
times), and `expr_dim`, `is_buildable`, `face_count_bound`, `_build` and
`eval_cd` fold the runs over the point or a product.  `eval_cd` takes a product's
flag vector from its factors' flag vectors (`flagvec.product_flag`), so
evaluation builds no lattice; lattice chain counts and the flag
operators of `flagvec` are its oracles.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, groupby, product

from .cdwords import cd_index, cd_index_flag, diamond_cd, dual_cd, prism_cd, pyramid_cd
from .errors import ExprParseError, FaceCountLimitError
from .flagvec import FlagVector, product_flag

DEFAULT_FACE_CAP = 10**6
# far above any size under the face cap, far below int()'s digit limit
MAX_NUMBER_DIGITS = 9


# ---------------------------------------------------------------------------
# expression grammar


class _ExprNode(tuple):
    """An expression node: an immutable tuple of its fields that equals only
    a node of its own class, so Cone(x) != Prism(x) and Pt() != ()."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple's own != would ignore the class
        return not self == other


def _node(name: str, fields: str) -> type:
    # a namedtuple gives the positional constructor, field names and repr
    return type(name, (_ExprNode, namedtuple(name, fields)), {"__slots__": ()})


Pt = _node("Pt", "")
Cone = _node("Cone", "body")
Prism = _node("Prism", "body")
Bipyr = _node("Bipyr", "body")
Dual = _node("Dual", "body")
Diamond = _node("Diamond", "body")
Prod = _node("Prod", "left right")
Simplex = _node("Simplex", "n")
Cube = _node("Cube", "n")
Crosspoly = _node("Crosspoly", "n")

Expr = (
    Pt | Cone | Prism | Bipyr | Dual | Diamond | Prod | Simplex | Cube | Crosspoly
)

# every node's spelling and steps are in `_NODES`, after the lattices
_WORD_RE = re.compile(r"[CDI]+\Z")
# one token per match; a character that starts no token is `bad`
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z]+)|(?P<num>\d+)|(?P<punct>[(),])|(?P<bad>\S))"
)


def parse_expr(text: str) -> Expr:
    """Parse the grammar above; every error carries its position in `text`.

    The whole text is scanned first, so an unexpected character is the
    first error.  Each unary level nests two calls and each prod one.
    """
    tokens = []  # (kind, value, pos), then the end of input
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprParseError(f"unexpected character {m[kind]!r}", pos=m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append((None, None, len(text)))
    at = 0

    def take(kind, value=None):
        nonlocal at
        tok = tokens[at]
        if tok[0] is None:
            raise ExprParseError("unexpected end of input", pos=len(text))
        if tok[0] != kind:
            raise ExprParseError(f"expected {kind}, found {tok[1]!r}", pos=tok[2])
        if value is not None and tok[1] != value:
            raise ExprParseError(f"expected {value!r}, found {tok[1]!r}", pos=tok[2])
        at += 1
        return tok

    def arg(read):  # read's result, in parentheses
        take("punct", "(")
        got = read()
        take("punct", ")")
        return got

    def number() -> int:
        tok = take("num")
        if len(tok[1]) > MAX_NUMBER_DIGITS:
            raise ExprParseError(
                f"number has more than {MAX_NUMBER_DIGITS} digits", pos=tok[2]
            )
        return int(tok[1])

    def expr() -> Expr:
        _, name, pos = take("name")
        if name == "pt":
            return Pt()
        if name == "prod":
            take("punct", "(")
            left = expr()
            take("punct", ",")
            right = expr()
            take("punct", ")")
            # a parsed product is buildable, so only the runs over it can hold
            # D: each node is walked once, by its innermost enclosing prod
            if not all(s.lattice for x in (left, right) for s, _ in _runs(x)[1]):
                raise ExprParseError(
                    "prod arguments must be buildable (no D operator)", pos=pos
                )
            return Prod(left, right)
        # a word over C, I and D is its letters nested, applied right to left
        spellings = name if _WORD_RE.match(name) else [name]
        if spellings[0] not in _BY_SPELLING:
            raise ExprParseError(f"unknown constructor {name!r}", pos=pos)
        least = _NODES[_BY_SPELLING[spellings[0]]].least
        if least is not None:  # a sized node
            n = arg(number)
            if n < least:
                raise ExprParseError(f"{name} needs n >= {least}, got {n}", pos=pos)
            return _BY_SPELLING[name](n)
        body = arg(expr)
        for spelling in reversed(spellings):
            body = _BY_SPELLING[spelling](body)
        return body

    # a frame of its own under `expr`: the frames a parse takes per level and
    # in all fix the deepest nesting that parses before the recursion limit
    def whole() -> Expr:
        e = expr()
        _, value, pos = tokens[at]
        if value is not None:
            raise ExprParseError(f"trailing input {value!r}", pos=pos)
        return e

    return whole()


def _runs(e: Expr):
    """The point or product under e, and an iterator over its runs of steps,
    innermost first; a run is a step and its count.

    A loop, not recursion, so that a word of any length is walked at once.
    """
    outer = []  # outermost first
    try:
        while True:
            outer += _UNARY_RUNS[type(e)]
            e = e.body
    except KeyError:  # not a unary node; one lookup a node keeps long words fast
        pass
    if type(e) in _NODES:  # a sized node: its runs over the point
        outer += reversed(_NODES[type(e)].runs(e.n))
        e = _POINT
    elif not isinstance(e, (Pt, Prod)):
        raise TypeError(f"not an expression: {e!r}")
    return e, reversed(outer)


def expr_dim(e: Expr) -> int:
    base, runs = _runs(e)
    d = expr_dim(base.left) + expr_dim(base.right) if isinstance(base, Prod) else 0
    return d + sum(step.dim * k for step, k in runs)


def expr_str(e: Expr) -> str:
    spellings = []
    while type(e) in _UNARY_RUNS:
        spellings.append(_NODES[type(e)].spelling)
        e = e.body
    if type(e) in _NODES:
        text = f"{_NODES[type(e)].spelling}({e.n})"
    elif isinstance(e, Prod):
        text = f"prod({expr_str(e.left)},{expr_str(e.right)})"
    elif isinstance(e, Pt):
        text = "pt"
    else:
        raise TypeError(f"not an expression: {e!r}")
    return "".join(s + "(" for s in spellings) + text + ")" * len(spellings)


def is_buildable(e: Expr) -> bool:
    """True when the expression denotes an actual polytope lattice (no D)."""
    base, runs = _runs(e)
    if not all(step.lattice for step, _ in runs):
        return False
    if isinstance(base, Prod):
        return is_buildable(base.left) and is_buildable(base.right)
    return True


def face_count(e: Expr) -> int:
    """Number of faces, including the empty face and the body.

    A count above DEFAULT_FACE_CAP comes back as DEFAULT_FACE_CAP + 1.
    """
    if not is_buildable(e):
        raise ValueError("expressions containing D denote no polytope lattice")
    return face_count_bound(e)


def face_count_bound(e: Expr) -> int:
    """Upper bound on the work an expression needs, in face-count units.

    Exact for buildable expressions; virtual ones are covered through the
    D bound.  A count above DEFAULT_FACE_CAP comes back as one more, and
    every step but dual (which keeps the count) at least doubles it, so a
    run of any length saturates within log2 of the cap.  The CLI uses it.
    """
    base, runs = _runs(e)
    n = 2
    if isinstance(base, Prod):
        left = face_count_bound(base.left)
        n = (left - 1) * (face_count_bound(base.right) - 1) + 1
    for step, k in runs:
        for _ in range(k):
            n, before = step.faces(n), n
            if n > DEFAULT_FACE_CAP:
                return DEFAULT_FACE_CAP + 1
            if n == before:
                break
    return min(n, DEFAULT_FACE_CAP + 1)


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
        nothing from `flagvec`, whose operators it checks.
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


def _prism_lattice(L: FaceLattice) -> FaceLattice:
    return _product_lattice(L, _SEGMENT)


_SEGMENT = _cone_lattice(_POINT_LATTICE)  # the prism's factor
# the four steps: dimension step, faces after from faces before (D = IC - CC
# bounded by its IC branch), step on face lattices (D has none) and cd-indices
_Step = namedtuple("_Step", "dim faces lattice cd")
_C = _Step(1, lambda n: 2 * n, _cone_lattice, pyramid_cd)
_I = _Step(1, lambda n: 3 * (n - 1) + 1, _prism_lattice, prism_cd)
_DUAL = _Step(0, lambda n: n, _dual_lattice, dual_cd)
_D = _Step(2, lambda n: 3 * (2 * n - 1) + 1, None, diamond_cd)

# every other node's spelling and runs of steps, innermost first; a sized
# node's runs over the point are a function of its n, which is at least `least`
_Node = namedtuple("_Node", "spelling runs least", defaults=(None,))
_NODES = {
    Cone: _Node("C", ((_C, 1),)),
    Prism: _Node("I", ((_I, 1),)),
    Bipyr: _Node("B", ((_DUAL, 1), (_I, 1), (_DUAL, 1))),
    Dual: _Node("dual", ((_DUAL, 1),)),
    Diamond: _Node("D", ((_D, 1),)),
    Simplex: _Node("simplex", lambda n: ((_C, n),), 0),
    Cube: _Node("cube", lambda n: ((_C, 1), (_I, n - 1)), 1),
    Crosspoly: _Node("crosspoly", lambda n: _NODES[Cube].runs(n) + ((_DUAL, 1),), 1),
}
_BY_SPELLING = {node.spelling: kind for kind, node in _NODES.items()}
# the unary nodes' runs, outermost first, for `_runs` to walk down
_UNARY_RUNS = {kind: n.runs[::-1] for kind, n in _NODES.items() if n.least is None}
_POINT = Pt()


def _build(e: Expr) -> FaceLattice:
    base, runs = _runs(e)
    if isinstance(base, Prod):
        L = _product_lattice(_build(base.left), _build(base.right))
    else:
        L = _POINT_LATTICE
    for step, k in runs:
        for _ in range(k):
            L = step.lattice(L)
    return L


@lru_cache(maxsize=None)
def build_lattice(e: Expr) -> FaceLattice:
    if face_count(e) > DEFAULT_FACE_CAP:  # also rejects D
        raise FaceCountLimitError(
            f"{expr_str(e)} has more than {DEFAULT_FACE_CAP} faces, over the cap"
        )
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


# ---------------------------------------------------------------------------
# evaluation and sample expressions


@lru_cache(maxsize=None)
def flag_of_lattice(e: Expr) -> FlagVector:
    return chain_count_flag(build_lattice(e))


def eval_cd(e: Expr) -> dict[str, int]:
    """cd-index of an expression: its runs' cd-index steps, folded.

    The base is the point or a product, whose flag vector comes from its
    factors' flag vectors and is split into its cd-index, a check of all
    2^d entries.  Virtual inputs (with D) are fine anywhere except inside
    prod.
    """
    base, runs = _runs(e)
    if isinstance(base, Prod):
        psi = cd_index(product_flag(eval_flag(base.left), eval_flag(base.right)))
    else:
        psi = {"": 1}
    for step, k in runs:
        for _ in range(k):
            psi = step.cd(psi)
    return psi


@lru_cache(maxsize=None)
def eval_flag(e: Expr) -> FlagVector:
    """Flag vector of an expression: its cd-index, expanded densely.

    No flag operator of `flagvec` is on this path; they are its oracle.
    """
    return cd_index_flag(eval_cd(e), expr_dim(e))


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
