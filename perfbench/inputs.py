"""Seeded inputs for the benchmark workloads, each with its expected f-vector.

Every input is built here as a small expression tree, and its f-vector is
computed alongside by f-vector arithmetic alone: pyramid, prism, dual and
product each act on (f_empty, f_0, ..., f_{d-1}) by a closed rule, and D
is the linear combination IC - CC.  That arithmetic shares no code with
polyhvec, so it is an independent oracle for every flag output.

A workload is a fixed plan of slots.  A slot fixes the command, the
output format, the dimension and (for products) the combinatorial type of
each factor; the seed fills each slot.  On `polytopes` the seed draws a
random expression from the grammar, since per-process cost there is set by
the dimension (the degree-d change of basis).  On `products` the seed
picks one of several spellings of the slot's factor types and the factor
order: lattice size, and so the cost of a round, stays the same for every
seed, while the parser, the operator path and the face order change.
Cube and point factors are always spelled `cube(n)` and `pt`, so an input
sits on the same side of a cube- or point-factor shortcut on every seed.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple


class Node(NamedTuple):
    text: str
    dim: int
    f: tuple  # (f_empty, f_0, ..., f_{d-1}); f_empty is 0 for a virtual vector
    kind: str = ""  # "simplex", "cube" or "crosspoly" when the type is known
    buildable: bool = True  # False once D appears


# ---------------------------------------------------------------------------
# f-vector arithmetic


def _ext(f, d, i):
    # the extended convention: the empty face (-1) and the body (d) count f_empty
    return f[0] if i in (-1, d) else f[i + 1]


def _pyr(f, d):
    return (f[0],) + tuple(_ext(f, d, i) + _ext(f, d, i - 1) for i in range(d + 1))


def _prism(f, d):
    return (f[0],) + tuple(
        2 * _ext(f, d, i) + (_ext(f, d, i - 1) if i else 0) for i in range(d + 1)
    )


def _dual(f, d):
    return (f[0],) + tuple(f[d - i] for i in range(d))


def pt() -> Node:
    return Node("pt", 0, (1,), "simplex")


def C(x: Node) -> Node:
    kind = "simplex" if x.kind == "simplex" else ""
    return Node(f"C({x.text})", x.dim + 1, _pyr(x.f, x.dim), kind, x.buildable)


def I(x: Node) -> Node:  # noqa: E743 - the grammar's prism letter
    kind = "cube" if x.kind == "cube" else ""
    return Node(f"I({x.text})", x.dim + 1, _prism(x.f, x.dim), kind, x.buildable)


def B(x: Node) -> Node:
    kind = "crosspoly" if x.kind == "crosspoly" else ""
    f = _dual(_prism(_dual(x.f, x.dim), x.dim), x.dim + 1)
    return Node(f"B({x.text})", x.dim + 1, f, kind, x.buildable)


def dual(x: Node) -> Node:
    kind = {"cube": "crosspoly", "crosspoly": "cube"}.get(x.kind, x.kind)
    return Node(f"dual({x.text})", x.dim, _dual(x.f, x.dim), kind, x.buildable)


def word(letters: str, x: Node) -> Node:
    """Word application, letters over C, I, D applied right to left."""
    f, d = x.f, x.dim
    for ch in reversed(letters):
        if ch == "C":
            f, d = _pyr(f, d), d + 1
        elif ch == "I":
            f, d = _prism(f, d), d + 1
        else:
            cone = _pyr(f, d)
            f = tuple(a - b for a, b in zip(_prism(cone, d + 1), _pyr(cone, d + 1)))
            d += 2
    # C^k keeps a simplex a simplex, I^k a cube a cube
    same = {"simplex": "C", "cube": "I"}.get(x.kind) == "".join(set(letters))
    kind = x.kind if same else ""
    return Node(f"{letters}({x.text})", d, f, kind, x.buildable and "D" not in letters)


def simplex(n: int) -> Node:
    f, d = (1,), 0
    for _ in range(n):
        f, d = _pyr(f, d), d + 1
    return Node(f"simplex({n})", n, f, "simplex")


def cube(n: int) -> Node:
    f, d = _pyr((1,), 0), 1
    for _ in range(n - 1):
        f, d = _prism(f, d), d + 1
    return Node(f"cube({n})", n, f, "cube")


def crosspoly(n: int) -> Node:
    return Node(f"crosspoly({n})", n, _dual(cube(n).f, n), "crosspoly")


def prod(a: Node, b: Node) -> Node:
    # nonempty faces of a product are pairs of nonempty faces
    ga, gb = a.f[1:] + (1,), b.f[1:] + (1,)
    g = [0] * (len(ga) + len(gb) - 1)
    for i, x in enumerate(ga):
        for j, y in enumerate(gb):
            g[i + j] += x * y
    return Node(f"prod({a.text},{b.text})", a.dim + b.dim, (1,) + tuple(g[:-1]))


def closed_form(kind: str, n: int) -> tuple:
    """f-vector (f_empty, f_0, ..., f_{n-1}) of a simplex, cube or cross-polytope."""
    if kind == "simplex":
        return (1,) + tuple(comb(n + 1, i + 1) for i in range(n))
    if kind == "cube":
        return (1,) + tuple(comb(n, i) * 2 ** (n - i) for i in range(n))
    if kind == "crosspoly":
        return (1,) + tuple(2 ** (i + 1) * comb(n, i + 1) for i in range(n))
    raise ValueError(f"no closed form for {kind!r}")


# ---------------------------------------------------------------------------
# random expressions for `polytopes`


def random_expr(rng: random.Random, d: int, depth: int = 0) -> Node:
    """A random expression of dimension d: operators, C/I/D words, no prod."""
    if d == 0:
        return pt()
    kinds = ["simplex", "cube", "crosspoly"]
    if depth < 5:
        kinds += ["C", "I", "B", "word", "word", "word"]
        if depth < 4:
            kinds.append("dual")
    kind = rng.choice(kinds)
    if kind == "simplex":
        return simplex(d)
    if kind == "cube":
        return cube(d)
    if kind == "crosspoly":
        return crosspoly(d)
    if kind == "dual":
        return dual(random_expr(rng, d, depth + 2))
    if kind in ("C", "I", "B"):
        return {"C": C, "I": I, "B": B}[kind](random_expr(rng, d - 1, depth + 1))
    # a word of degree k over C, I, D (D takes two dimensions), half of
    # them applied to the point
    k = d if rng.random() < 0.5 else rng.randint(1, d)
    letters, left = "", k
    while left:
        ch = rng.choice("CID" if left >= 2 else "CI")
        letters += ch
        left -= 2 if ch == "D" else 1
    return word(letters, random_expr(rng, d - k, depth + 2))


# ---------------------------------------------------------------------------
# spellings of factor types for `products`


def _spellings(kind: str, n: int) -> list:
    if kind == "simplex":
        out = [simplex(n), word("C" * n, pt()), dual(simplex(n)), C(simplex(n - 1))]
        if n >= 2:
            out.append(word("CC", simplex(n - 2)))
        return out
    if kind == "crosspoly":
        out = [crosspoly(n), dual(cube(n)), dual(word("I" * (n - 1), C(pt())))]
        if n >= 2:
            out.append(B(crosspoly(n - 1)))
        if n >= 3:
            out.append(B(B(crosspoly(n - 2))))
        return out
    if kind == "pyrcube":  # pyramid over an (n-1)-cube
        return [
            C(cube(n - 1)),
            word("C" + "I" * (n - 2) + "C", pt()),
            dual(C(crosspoly(n - 1))),
            C(dual(crosspoly(n - 1))),
        ]
    if kind == "prismsimplex":  # prism over an (n-1)-simplex
        return [
            I(simplex(n - 1)),
            word("I" + "C" * (n - 1), pt()),
            dual(B(simplex(n - 1))),
            I(dual(simplex(n - 1))),
        ]
    if kind == "cube":
        return [cube(n)]
    if kind == "pt":
        return [pt()]
    raise ValueError(f"unknown factor type {kind!r}")


# ---------------------------------------------------------------------------
# workload plans


class Op(NamedTuple):
    """One CLI invocation and what its output is checked against."""

    argv: tuple
    node: Node | None = None  # the input, for flag/hvec/toric
    factors: tuple = ()  # indices of the factor ops, for a product
    same_as: int | None = None  # index of the JSON op for the same input


# Slots are interleaved by dimension, so that the invocations of one cost
# class are spread over the round: a shared host can run at one of two
# speeds for seconds at a time (perfbench/README.md), and op_p75_s reads a
# handful of invocations of similar cost.

# (dim, JSON command or None, text command), one input each.  A text
# flag output is checked on its own; other text is checked against the
# JSON record for the same input.
POLYTOPE_SLOTS = [
    (3, "hvec", "flag"), (7, "hvec", "flag"), (4, "hvec", "toric"),
    (8, "hvec", "toric"), (5, "hvec", "flag"), (9, "toric", "flag"),
    (6, "hvec", "toric"), (10, "hvec", "flag"),
    (3, "toric", "hvec"), (7, "toric", "hvec"), (4, "toric", "flag"),
    (8, "flag", "hvec"), (5, "toric", "hvec"), (9, None, "flag"),
    (6, "toric", "flag"), (10, None, "flag"),
    (3, "flag", "toric"), (7, "flag", "toric"), (4, "flag", "hvec"),
    (5, "flag", "toric"), (6, "flag", "hvec"),
]  # fmt: skip

# (command, format, factor A type, factor B type): one product invocation
# plus one JSON invocation per factor
PRODUCT_SLOTS = [
    ("hvec", "json", ("simplex", 3), ("simplex", 3)),
    ("flag", "text", ("simplex", 4), ("simplex", 4)),
    ("toric", "json", ("cube", 4), ("simplex", 3)),
    ("hvec", "json", ("cube", 5), ("simplex", 4)),
    ("flag", "text", ("cube", 3), ("simplex", 3)),
    ("hvec", "text", ("cube", 4), ("crosspoly", 4)),
    ("flag", "json", ("prismsimplex", 4), ("crosspoly", 3)),
    ("flag", "text", ("simplex", 5), ("prismsimplex", 4)),
    ("toric", "text", ("crosspoly", 6), ("pt", 0)),
    ("toric", "json", ("pyrcube", 4), ("simplex", 4)),
    ("hvec", "json", ("simplex", 7), ("pt", 0)),
    ("hvec", "text", ("crosspoly", 3), ("pyrcube", 3)),
]

WORKLOADS = ("words", "polytopes", "products", "verify")


def plan(workload: str, seed: int) -> list:
    """The ops of one round of a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list = []
    if workload == "words":
        ops.append(Op(("table", "--max-dim", "10", "--format", "json")))
    elif workload == "verify":
        ops.append(Op(("verify", "--max-dim", "8")))
    elif workload == "polytopes":
        for d, json_cmd, text_cmd in POLYTOPE_SLOTS:
            node = random_expr(rng, d)
            same_as = None
            if json_cmd:
                same_as = len(ops)
                ops.append(Op((json_cmd, node.text, "--format", "json"), node))
            ops.append(Op((text_cmd, node.text), node, same_as=same_as))
    elif workload == "products":
        for n, (cmd, fmt, ta, tb) in enumerate(PRODUCT_SLOTS):
            a = rng.choice(_spellings(*ta))
            b = rng.choice(_spellings(*tb))
            if rng.random() < 0.5:
                a, b = b, a
            first = len(ops)
            for m, factor in enumerate((a, b)):
                fcmd = ("hvec", "toric", "flag")[(n + m) % 3]
                ops.append(Op((fcmd, factor.text, "--format", "json"), factor))
            node = prod(a, b)
            argv = (cmd, node.text) + (("--format", "json") if fmt == "json" else ())
            ops.append(Op(argv, node, factors=(first, first + 1)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return ops


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print one round of a workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for op in plan(args.workload, args.seed):
        print(" ".join(op.argv))
