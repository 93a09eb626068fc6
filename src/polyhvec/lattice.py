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
are immutable after build and chain counting is exact integer dynamic
programming over the containment order.

Every unary node has a step on face lattices and one on cd-indices, and
`_build` and `eval_cd` fold the same chain of steps over the point or a
product.  `_build` builds a product's lattice from its factors' lattices;
`eval_cd` takes a product's flag vector from its factors' flag vectors
(`flagvec.product_flag`), so evaluation builds no lattice.  Lattice chain
counts and the flag operators of `flagvec` are the oracles for this
evaluation.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from .cdwords import cd_index, cd_index_flag, diamond_cd, dual_cd, prism_cd, pyramid_cd
from .errors import ExprParseError, FaceCountLimitError
from .flagvec import FlagVector, GradedFlagVector, from_dense, product_flag

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

# the unary nodes' spellings and steps are in `_UNARY`, after the lattices
_SIZED = {"simplex": Simplex, "cube": Cube, "crosspoly": Crosspoly}

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
        if name in _SIZED:
            n = self.number_arg()
            least = 0 if name == "simplex" else 1
            if n < least:
                raise ExprParseError(f"{name} needs n >= {least}, got {n}", pos=pos)
            return _SIZED[name](n)
        # a word over C, I and D is its letters nested, applied right to left
        spellings = name if _WORD_RE.match(name) else [name]
        if spellings[0] not in _UNARY_BY_NAME:
            raise ExprParseError(f"unknown constructor {name!r}", pos=pos)
        body = self.one_arg()
        for spelling in reversed(spellings):
            body = _UNARY_BY_NAME[spelling](body)
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


def _unary_chain(e: Expr):
    """The unary nodes stacked on e, outermost first, and the node under them.

    A loop, not recursion, so that a word of any length is walked at once.
    """
    chain = []
    while type(e) in _UNARY:
        chain.append(e)
        e = e.body
    if not isinstance(e, (Pt, Prod, Simplex, Cube, Crosspoly)):
        raise TypeError(f"not an expression: {e!r}")
    return chain, e


def expr_dim(e: Expr) -> int:
    chain, base = _unary_chain(e)
    if isinstance(base, Prod):
        d = expr_dim(base.left) + expr_dim(base.right)
    else:
        d = 0 if isinstance(base, Pt) else base.n
    return d + sum(_UNARY[type(node)].dim for node in chain)


def expr_str(e: Expr) -> str:
    chain, base = _unary_chain(e)
    if isinstance(base, Pt):
        text = "pt"
    elif isinstance(base, Prod):
        text = f"prod({expr_str(base.left)},{expr_str(base.right)})"
    else:
        text = f"{type(base).__name__.lower()}({base.n})"
    prefix = "".join(_UNARY[type(node)].spelling + "(" for node in chain)
    return prefix + text + ")" * len(chain)


def is_buildable(e: Expr) -> bool:
    """True when the expression denotes an actual polytope lattice (no D)."""
    chain, base = _unary_chain(e)
    if any(isinstance(node, Diamond) for node in chain):
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

    Exact for buildable expressions; virtual ones are covered through
    the D bound.  Every step is monotone, so the count saturates: a
    count above `cap` comes back as cap + 1, without computing it.  Used
    by the CLI to apply the face cap uniformly before evaluating anything.
    """
    chain, base = _unary_chain(e)
    if isinstance(base, Pt):
        n = 2
    elif isinstance(base, Prod):
        left = face_count_bound(base.left, cap)
        n = (left - 1) * (face_count_bound(base.right, cap) - 1) + 1
    elif base.n >= cap.bit_length():
        return cap + 1  # the count is at least 2**n > cap
    else:
        n = 2 ** (base.n + 1) if isinstance(base, Simplex) else 3**base.n + 1
    for node in reversed(chain):
        n = _UNARY[type(node)].faces(n)
        if n > cap:
            return cap + 1
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


# every unary node: its spelling, dimension step, faces after it from the
# faces before it, step on face lattices (D has none) and step on
# cd-indices; the bipyramid is the dual of the prism of the dual, and the
# diamond IC - CC is bounded by its prism-of-cone branch
_Unary = namedtuple("_Unary", "spelling dim faces lattice cd")
_UNARY = {
    Cone: _Unary("C", 1, lambda n: 2 * n, _cone_lattice, pyramid_cd),
    Prism: _Unary("I", 1, lambda n: 3 * (n - 1) + 1, _prism_lattice, prism_cd),
    Bipyr: _Unary(
        "B",
        1,
        lambda n: 3 * (n - 1) + 1,
        lambda L: _dual_lattice(_prism_lattice(_dual_lattice(L))),
        lambda psi: dual_cd(prism_cd(dual_cd(psi))),
    ),
    Dual: _Unary("dual", 0, lambda n: n, _dual_lattice, dual_cd),
    Diamond: _Unary("D", 2, lambda n: 3 * (2 * n - 1) + 1, None, diamond_cd),
}
_UNARY_BY_NAME = {step.spelling: node for node, step in _UNARY.items()}


def _chain(e: Expr):
    """The point or product under e, and the steps over it, innermost first.

    simplex(n) is C^n(pt), cube(n) is I^(n-1) C(pt) and crosspoly(n) is
    the dual of cube(n).
    """
    chain, base = _unary_chain(e)
    nodes = []
    if isinstance(base, Simplex):
        nodes = [Cone] * base.n
    elif isinstance(base, (Cube, Crosspoly)):
        nodes = [Cone] + [Prism] * (base.n - 1)
        if isinstance(base, Crosspoly):
            nodes.append(Dual)
    nodes += [type(node) for node in reversed(chain)]
    return (base if isinstance(base, Prod) else Pt()), [_UNARY[n] for n in nodes]


def _build(e: Expr) -> FaceLattice:
    base, steps = _chain(e)
    if isinstance(base, Prod):
        L = _product_lattice(_build(base.left), _build(base.right))
    else:
        L = _point_lattice()
    for step in steps:
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


def chain_count_flag(L: FaceLattice) -> FlagVector:
    """Count chains of nonempty proper faces, grouped by dimension set."""
    d = L.dim
    if L.top == L.bottom:
        return FlagVector(-1, {(): 1})

    levels = [L.faces_of_dim(k) for k in range(-1, d + 1)]
    pos = [0] * len(L)
    for level in levels:
        for idx, face in enumerate(level):
            pos[face] = idx

    # below[(face, t)]: bitmask over the dim-t level of faces strictly below
    covers_down = L.covers_down()
    below = {}
    order = sorted(range(len(L)), key=lambda i: L.dims[i])
    for face in order:
        k = L.dims[face]
        if k <= 0:
            continue
        mask = 0
        for c in covers_down[face]:
            mask |= 1 << pos[c]
        below[(face, k - 1)] = mask
        for t in range(0, k - 1):
            acc = 0
            for c in covers_down[face]:
                acc |= below.get((c, t), 0)
            below[(face, t)] = acc

    memo = {}

    def chains(face, mask):
        # chains with dimension-set `mask` strictly below `face`
        if mask == 0:
            return 1
        key = (face, mask)
        got = memo.get(key)
        if got is not None:
            return got
        t = mask.bit_length() - 1
        rest = mask ^ (1 << t)
        level = levels[t + 1]
        total = 0
        m = below.get((face, t), 0)
        while m:
            low = m & -m
            total += chains(level[low.bit_length() - 1], rest)
            m ^= low
        memo[key] = total
        return total

    return from_dense(d, [chains(L.top, mask) for mask in range(1 << d)])


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
    """Flag vector of the link of a nonempty face (the interval up to the body)."""
    if face == L.bottom:
        raise ValueError("the empty face has no link")
    return chain_count_flag(interval_lattice(L, face, L.top))


def total_link_vector(L: FaceLattice) -> GradedFlagVector:
    """Sum of link flag vectors over all nonempty faces, graded by link dimension."""
    comps = {}
    for face in range(len(L)):
        if face == L.bottom:
            continue
        lf = link_flag(L, face)
        cur = comps.get(lf.dim)
        comps[lf.dim] = lf if cur is None else cur + lf
    return GradedFlagVector(comps)


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
    """cd-index of an expression: its chain's cd-index steps, folded.

    The base is the point or a product, whose flag vector comes from its
    factors' flag vectors and is split into its cd-index, a check of all
    2^d entries.  Virtual inputs (with D) are fine anywhere except inside
    prod.
    """
    base, steps = _chain(e)
    if isinstance(base, Prod):
        psi = cd_index(product_flag(eval_flag(base.left), eval_flag(base.right)))
    else:
        psi = {"": 1}
    for step in steps:
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
