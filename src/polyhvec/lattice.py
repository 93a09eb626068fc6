"""Constructible polytopes: the expression grammar and evaluation.

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
this module's import, so it holds no face lattice.

`_NODES` spells every node but the point and a product as runs of four
steps, C, I, dual and D (B is dual, I, dual; cube(n) is C, then I n - 1
times), and `expr_dim`, `is_buildable`, `face_count_bound` and `eval_cd`
fold the runs over the point or a product.  `eval_cd` takes a product's
flag vector from its factors' flag vectors (`flagvec.product_flag`), so
evaluation builds no lattice.  Face lattices, their chain counts and the
flag operators are its oracles, in `oracle`, which folds the same runs
into lattices.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

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

# every node's spelling and steps are in `_NODES`, below
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
            if any(s is _D for x in (left, right) for s, _ in _runs(x)[1]):
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
    if any(step is _D for step, _ in runs):
        return False
    if isinstance(base, Prod):
        return is_buildable(base.left) and is_buildable(base.right)
    return True


def face_count_bound(e: Expr) -> int:
    """Upper bound on the work an expression needs, in face-count units.

    Exact for buildable expressions; virtual ones are covered through the
    D bound.  A count above DEFAULT_FACE_CAP comes back as one more, and
    every step but dual (which keeps the count) at least doubles it, so a
    run of any length saturates within log2 of the cap.  `check_face_count`
    checks it against the cap.
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


def check_face_count(e: Expr):
    """Refuse an expression over DEFAULT_FACE_CAP faces, before any work."""
    if face_count_bound(e) > DEFAULT_FACE_CAP:
        raise FaceCountLimitError(
            f"the input needs more than {DEFAULT_FACE_CAP} faces, over the cap"
        )


# ---------------------------------------------------------------------------
# steps, nodes and evaluation

# the four steps: dimension step, faces after from faces before (D = IC - CC
# bounded by its IC branch) and step on cd-indices, given the degree before;
# `oracle._LATTICE_STEPS` holds each step's face lattice, D's none
_Step = namedtuple("_Step", "dim faces cd")
_C = _Step(1, lambda n: 2 * n, pyramid_cd)
_I = _Step(1, lambda n: 3 * (n - 1) + 1, prism_cd)
_DUAL = _Step(0, lambda n: n, dual_cd)
_D = _Step(2, lambda n: 3 * (2 * n - 1) + 1, diamond_cd)

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


def eval_cd(e: Expr) -> tuple:
    """cd-index of an expression: its runs' cd-index steps, folded.

    The base is the point or a product, whose flag vector comes from its
    factors' flag vectors and is split into its cd-index, a check of all
    2^d entries.  Virtual inputs (with D) are fine anywhere except inside
    prod.
    """
    base, runs = _runs(e)
    if isinstance(base, Prod):
        f = product_flag(eval_flag(base.left), eval_flag(base.right))
        psi, d = cd_index(f), f.dim
    else:
        psi, d = (1,), 0
    for step, k in runs:
        for _ in range(k):
            psi = step.cd(psi, d)
            d += step.dim
    return psi


@lru_cache(maxsize=None)
def eval_flag(e: Expr) -> FlagVector:
    """Flag vector of an expression: its cd-index, expanded densely.

    No flag operator is on this path; they are its oracle.
    """
    return cd_index_flag(eval_cd(e), expr_dim(e))
