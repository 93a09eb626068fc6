"""Constructible polytopes: expression grammar, face lattices, chain counting.

The grammar (also the CLI input syntax) is case-sensitive and
whitespace-insensitive::

    pt | C(e) | I(e) | D(e) | B(e) | dual(e) | prod(e, e)
       | simplex(n) | cube(n) | crosspoly(n)

A word over C, I and D is sugar for nested nodes, applied right to left:
``CIC(pt)`` parses to ``C(I(C(pt)))``, the same tree.  D, the diamond,
makes the expression denote a (possibly virtual) flag vector rather than
a buildable polytope, so the arguments of prod must be D-free.

Faces are integer indices; only the combinatorics matter.  Lattices
are immutable after build.  One exact integer chain DP per lattice,
cached on it, gives every face's link flag vector; the bottom face's
link is the lattice's own flag vector.  `interval_lattice`, which
rebuilds a link as a lattice, is the DP's oracle in the tests.

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
from dataclasses import dataclass
from functools import lru_cache

from .cdwords import cd_index, cd_index_flag, diamond_cd, dual_cd, prism_cd, pyramid_cd
from .errors import ExprParseError, FaceCountLimitError
from .flagvec import FlagVector, GradedFlagVector, product_flag

DEFAULT_FACE_CAP = 10**6
# far above any size under the face cap, far below int()'s digit limit
MAX_NUMBER_DIGITS = 9


# ---------------------------------------------------------------------------
# expression grammar


@dataclass(frozen=True)
class Pt:
    pass


@dataclass(frozen=True)
class Cone:
    body: "Expr"


@dataclass(frozen=True)
class Prism:
    body: "Expr"


@dataclass(frozen=True)
class Bipyr:
    body: "Expr"


@dataclass(frozen=True)
class Dual:
    body: "Expr"


@dataclass(frozen=True)
class Diamond:
    body: "Expr"


@dataclass(frozen=True)
class Prod:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Simplex:
    n: int


@dataclass(frozen=True)
class Cube:
    n: int


@dataclass(frozen=True)
class Crosspoly:
    n: int


Expr = (
    Pt | Cone | Prism | Bipyr | Dual | Diamond | Prod | Simplex | Cube | Crosspoly
)

# every node's spelling and steps are in `_NODES`, after the lattices
_WORD_RE = re.compile(r"[CDI]+\Z")
_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<num>\d+)|(?P<punct>[(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExprParseError(
                f"unexpected character {stripped[0]!r}", pos=len(text) - len(stripped)
            )
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of input", pos=len(self.text))
        if kind is not None and tok[0] != kind:
            raise ExprParseError(f"expected {kind}, found {tok[1]!r}", pos=tok[2])
        if value is not None and tok[1] != value:
            raise ExprParseError(f"expected {value!r}, found {tok[1]!r}", pos=tok[2])
        self.idx += 1
        return tok

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprParseError(f"trailing input {tok[1]!r}", pos=tok[2])
        return expr

    def expr(self) -> Expr:
        kind, name, pos = self.next("name")
        if name == "pt":
            return Pt()
        if name == "prod":
            self.next("punct", "(")
            left = self.expr()
            self.next("punct", ",")
            right = self.expr()
            self.next("punct", ")")
            if not (is_buildable(left) and is_buildable(right)):
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
            n = self.number_arg()
            if n < least:
                raise ExprParseError(f"{name} needs n >= {least}, got {n}", pos=pos)
            return _BY_SPELLING[name](n)
        body = self.one_arg()
        for spelling in reversed(spellings):
            body = _BY_SPELLING[spelling](body)
        return body

    def one_arg(self) -> Expr:
        self.next("punct", "(")
        body = self.expr()
        self.next("punct", ")")
        return body

    def number_arg(self) -> int:
        self.next("punct", "(")
        tok = self.next("num")
        if len(tok[1]) > MAX_NUMBER_DIGITS:
            raise ExprParseError(
                f"number has more than {MAX_NUMBER_DIGITS} digits", pos=tok[2]
            )
        self.next("punct", ")")
        return int(tok[1])


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


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


def face_count(e: Expr, cap: int = DEFAULT_FACE_CAP) -> int:
    """Number of faces, including the empty face and the body.

    A count above `cap` comes back as cap + 1.
    """
    if not is_buildable(e):
        raise ValueError("expressions containing D denote no polytope lattice")
    return face_count_bound(e, cap)


def face_count_bound(e: Expr, cap: int = DEFAULT_FACE_CAP) -> int:
    """Upper bound on the work an expression needs, in face-count units.

    Exact for buildable expressions; virtual ones are covered through the
    D bound.  A count above `cap` comes back as cap + 1, and every step
    but dual (which keeps the count) at least doubles it, so a run of any
    length saturates within log2(cap) steps.  The CLI's face cap uses it.
    """
    base, runs = _runs(e)
    n = 2
    if isinstance(base, Prod):
        left = face_count_bound(base.left, cap)
        n = (left - 1) * (face_count_bound(base.right, cap) - 1) + 1
    for step, k in runs:
        for _ in range(k):
            n, before = step.faces(n), n
            if n > cap:
                return cap + 1
            if n == before:
                break
    return min(n, cap + 1)


# ---------------------------------------------------------------------------
# face lattices


class FaceLattice:
    """Hasse diagram of a polytope, graded from the empty face to the body."""

    __slots__ = ("dims", "covers_up", "bottom", "top", "_cache")

    def __init__(self, dims, covers_up, bottom, top):
        self.dims = tuple(dims)
        self.covers_up = tuple(tuple(c) for c in covers_up)
        self.bottom = bottom
        self.top = top
        self._cache = {}

    @property
    def dim(self) -> int:
        return self.dims[self.top]

    def __len__(self):
        return len(self.dims)

    def faces_of_dim(self, k: int):
        return [i for i, d in enumerate(self.dims) if d == k]

    def face_counts(self) -> tuple[int, ...]:
        """Numbers of proper nonempty faces, by dimension 0..d-1."""
        counts = [0] * max(self.dim, 0)
        for i, d in enumerate(self.dims):
            if 0 <= d < self.dim:
                counts[d] += 1
        return tuple(counts)

    def covers_down(self):
        got = self._cache.get("covers_down")
        if got is None:
            got = [[] for _ in self.dims]
            for lo, ups in enumerate(self.covers_up):
                for hi in ups:
                    got[hi].append(lo)
            got = tuple(tuple(c) for c in got)
            self._cache["covers_down"] = got
        return got

    def downsets(self):
        """Bitmask per face of everything weakly below it (itself included)."""
        got = self._cache.get("downsets")
        if got is None:
            order = sorted(range(len(self.dims)), key=lambda i: self.dims[i])
            down = [0] * len(self.dims)
            covers_down = self.covers_down()
            for i in order:
                mask = 1 << i
                for c in covers_down[i]:
                    mask |= down[c]
                down[i] = mask
            got = tuple(down)
            self._cache["downsets"] = got
        return got

    def check_graded(self):
        for lo, ups in enumerate(self.covers_up):
            for hi in ups:
                if self.dims[hi] != self.dims[lo] + 1:
                    raise ValueError(
                        f"cover of face {lo} by face {hi} skips a rank"
                    )


def _point_lattice() -> FaceLattice:
    return FaceLattice([-1, 0], [(1,), ()], 0, 1)


def _cone_lattice(L: FaceLattice) -> FaceLattice:
    # faces 0..n-1 are the base faces, n + i is the join of face i with the apex
    n = len(L)
    dims = list(L.dims) + [d + 1 for d in L.dims]
    covers = [list(c) for c in L.covers_up]
    for i in range(n):
        covers[i].append(n + i)  # every face is covered by its own join
    for i, ups in enumerate(L.covers_up):
        covers.append([n + j for j in ups])
    return FaceLattice(dims, covers, L.bottom, n + L.top)


def _product_lattice(A: FaceLattice, B: FaceLattice) -> FaceLattice:
    # nonempty faces are pairs of nonempty faces; one bottom is adjoined
    a_faces = [i for i in range(len(A)) if A.dims[i] >= 0]
    b_faces = [j for j in range(len(B)) if B.dims[j] >= 0]
    index = {}
    dims = [-1]
    for i in a_faces:
        for j in b_faces:
            index[(i, j)] = len(dims)
            dims.append(A.dims[i] + B.dims[j])
    covers = [[] for _ in dims]
    for (i, j), me in index.items():
        if dims[me] == 0:
            covers[0].append(me)
        for i2 in A.covers_up[i]:
            covers[me].append(index[(i2, j)])
        for j2 in B.covers_up[j]:
            covers[me].append(index[(i, j2)])
    return FaceLattice(dims, covers, 0, index[(A.top, B.top)])


def _dual_lattice(L: FaceLattice) -> FaceLattice:
    d = L.dim
    dims = [d - 1 - k for k in L.dims]
    covers = [list(c) for c in L.covers_down()]
    return FaceLattice(dims, covers, L.top, L.bottom)


def _prism_lattice(L: FaceLattice) -> FaceLattice:
    return _product_lattice(L, _cone_lattice(_point_lattice()))  # the segment


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
        L = _point_lattice()
    for step, k in runs:
        for _ in range(k):
            L = step.lattice(L)
    return L


@lru_cache(maxsize=None)
def build_lattice(e: Expr, max_faces: int = DEFAULT_FACE_CAP) -> FaceLattice:
    if face_count(e, max_faces) > max_faces:  # also rejects D
        raise FaceCountLimitError(
            f"{expr_str(e)} has more than {max_faces} faces, over the cap"
        )
    return _build(e)


# ---------------------------------------------------------------------------
# chain counting


def _link_values(L: FaceLattice):
    """Every face's link flag vector as a tuple by bitmask: one upward DP.

    The link of F, of dimension e = d - dim F - 1, counts the chains
    F < H_1 < ... < H_k of proper faces by their dimensions less
    dim F + 1.  Walking down from the body a level at a time, F gets per
    level above it a bitmask of the faces there over F, from its covers'
    masks; only the level just above keeps its masks.  A chain whose
    lowest face H is j levels above F is H and a chain of H's link, so
    the masks with lowest bit j (the slice [1 << j :: 2 << j]) sum those
    H's tuples.  Cached in `_cache`; the body's and the facets' tuple is
    (1,), one empty chain.  Face lattices are graded, which the walk needs.
    """
    got = L._cache.get("link_values")
    if got is not None:
        return got
    d = L.dim
    levels = [L.faces_of_dim(k) for k in range(-1, d + 1)]
    pos = [0] * len(L)
    for level in levels:
        for idx, face in enumerate(level):
            pos[face] = idx
    values = [(1,)] * len(L)
    above = {face: () for face in levels[d]}  # over a facet: only the body
    for k in reversed(range(-1, d - 1)):
        e = d - k - 1
        level_above = {}  # per face of dim k, per dim k + 1 + j: faces over it
        for face in levels[k + 1]:
            masks = [0] * e
            for up in L.covers_up[face]:
                masks[0] |= 1 << pos[up]
                for j, m in enumerate(above[up], 1):
                    masks[j] |= m
            vec = [0] * (1 << e)
            vec[0] = 1
            for j, m in enumerate(masks):
                level = levels[k + j + 2]
                tails = []
                while m:
                    low = m & -m
                    tails.append(values[level[low.bit_length() - 1]])
                    m ^= low
                vec[1 << j :: 2 << j] = map(sum, zip(*tails))
            level_above[face] = masks
            values[face] = tuple(vec)
        above = level_above
    got = L._cache["link_values"] = tuple(values)
    return got


def chain_count_flag(L: FaceLattice) -> FlagVector:
    """Count chains of nonempty proper faces, grouped by dimension set.

    The bottom face's link, read from the lattice's chain DP.
    """
    return FlagVector.from_values(L.dim, _link_values(L)[L.bottom])


def interval_lattice(L: FaceLattice, lo: int, hi: int) -> FaceLattice:
    """The closed interval [lo, hi] regraded so lo plays the empty face."""
    down = L.downsets()
    if not (down[hi] >> lo) & 1:
        raise ValueError("interval endpoints are not comparable")
    base = L.dims[lo]
    members = [
        c
        for c in range(len(L))
        if ((down[hi] >> c) & 1) and ((down[c] >> lo) & 1)
    ]
    members.sort(key=lambda c: L.dims[c])
    index = {c: i for i, c in enumerate(members)}
    dims = [L.dims[c] - base - 1 for c in members]
    covers = [
        [index[u] for u in L.covers_up[c] if u in index] for c in members
    ]
    return FaceLattice(dims, covers, index[lo], index[hi])


def link_flag(L: FaceLattice, face: int) -> FlagVector:
    """Flag vector of the link of a nonempty face (the interval up to the body).

    Read from the lattice's chain DP, with no interval rebuilt.
    """
    if not 0 <= face < len(L) or face == L.bottom:
        raise ValueError(f"face {face} is not a nonempty face of the lattice")
    return FlagVector.from_values(L.dim - L.dims[face] - 1, _link_values(L)[face])


def total_link_vector(L: FaceLattice) -> GradedFlagVector:
    """Sum of link flag vectors over all nonempty faces, graded by link dimension.

    The tuples of the lattice's chain DP, summed entrywise per grade.
    """
    by_dim = {}
    for face, vec in enumerate(_link_values(L)):
        if face != L.bottom:
            by_dim.setdefault(L.dim - L.dims[face] - 1, []).append(vec)
    return GradedFlagVector(
        {e: FlagVector.from_values(e, map(sum, zip(*v))) for e, v in by_dim.items()}
    )


def is_eulerian(L: FaceLattice) -> bool:
    """Every interval of rank >= 1 balances even- and odd-dimensional faces.

    Cubic in the face count; meant as a construction sanity gate on small
    lattices.
    """
    down = L.downsets()
    n = len(L)
    for hi in range(n):
        m = down[hi]
        while m:
            low = m & -m
            lo = low.bit_length() - 1
            m ^= low
            if lo == hi:
                continue
            balance = 0
            inner = down[hi]
            while inner:
                lowc = inner & -inner
                c = lowc.bit_length() - 1
                inner ^= lowc
                if (down[c] >> lo) & 1:
                    balance += -1 if (L.dims[c] - L.dims[lo]) % 2 else 1
            if balance != 0:
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
    out = []
    for group in by_dim:
        out.extend(group)
    return out
