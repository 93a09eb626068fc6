"""Output checks for the benchmark's CLI invocations.

Each check tests an output against an independent computation or a
property the method must have, never against stored output:

* flag vectors satisfy the generalized Dehn-Sommerville relations of
  Bayer and Billera (the Euler relation is one of them), and their
  f-vectors match the f-vector arithmetic in `inputs.py` and the closed
  forms of simplices, cubes and cross-polytopes;
* every keyed h component is palindromic, key degree plus polynomial
  degree is the dimension, and the key-e part equals the toric h-vector,
  which polyhvec computes by a separate recursion;
* `flag_from_h` turns the h-vector back into the flag vector;
* text output agrees with the JSON record for the same input;
* products: f-vector and toric h-vector are the convolution of the
  factors' ones, read from separate invocations.

A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import re
from math import factorial

from inputs import Node, closed_form, pt, word

SUITE_COUNT = 14


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _mask(dims) -> int:
    m = 0
    for t in dims:
        m |= 1 << t
    return m


# ---------------------------------------------------------------------------
# parsing


def parse_record(stdout: str) -> dict:
    lines = stdout.splitlines()
    require(len(lines) == 1, f"expected one JSON record, got {len(lines)} lines")
    return json.loads(lines[0])


def record_flag(rec: dict) -> dict:
    """The record's flag vector as {dimension bitmask: value}; checks the layout."""
    d = rec["dim"]
    flag, last = {}, 0
    for dims, value in rec["flag"]:
        require(dims == sorted(set(dims)), f"dimension set {dims} is not increasing")
        require(all(0 <= t < d for t in dims), f"dimension set {dims} out of range")
        require(len(dims) >= last, "dimension sets are not shortest first")
        last = len(dims)
        m = _mask(dims)
        require(m not in flag, f"dimension set {dims} listed twice")
        flag[m] = value
    require(len(flag) == 2**d, f"{len(flag)} dimension sets, expected {2**d}")
    return flag


_FLAG_LINE = re.compile(r"\{([0-9,]*)\}: (-?\d+)\Z")


def parse_flag_text(stdout: str) -> dict:
    flag = {}
    for line in stdout.splitlines():
        m = _FLAG_LINE.match(line)
        require(m is not None, f"bad flag line {line!r}")
        dims = [int(t) for t in m.group(1).split(",")] if m.group(1) else []
        flag[_mask(dims)] = int(m.group(2))
    return flag


def parse_poly(text: str) -> list:
    require(text.startswith("[") and text.endswith("]"), f"bad polynomial {text!r}")
    return [int(c) for c in text[1:-1].split(",")]


def parse_hvec_text(stdout: str) -> list:
    """[[key, coeffs], ...] from the text form `e: [1,2,1]  0;0: [1]`."""
    text = stdout.strip()
    if text == "0":
        return []
    out = []
    for term in text.split("  "):
        key, _, poly = term.partition(": ")
        out.append([key, parse_poly(poly)])
    return out


def parse_key(key: str) -> tuple:
    """(ds, cs) of a key string; entries are single digits unless commas appear."""
    if key == "e":
        return (), ()
    left, sep, right = key.partition(";")
    require(sep == ";", f"bad key {key!r}")
    split = (lambda s: s.split(",")) if "," in key else list
    ds, cs = tuple(map(int, split(left))), tuple(map(int, split(right)))
    require(len(ds) == len(cs), f"key {key!r} has lists of unequal length")
    return ds, cs


def key_degree(key: str) -> int:
    ds, cs = parse_key(key)
    return 2 * sum(ds) + sum(cs) + 3 * len(ds)


# ---------------------------------------------------------------------------
# flag vectors


def check_dehn_sommerville(flag: dict, d: int):
    """For every S and gap (i, k) of S + {-1, d} with no element between:
    sum_{i<j<k} (-1)^(j-i-1) f(S+j) = (1 - (-1)^(k-i-1)) f(S)."""
    for m, value in flag.items():
        ext = [-1] + [t for t in range(d) if m >> t & 1] + [d]
        for i, k in zip(ext, ext[1:]):
            if k - i < 2:
                continue
            lhs = sum(
                (-1) ** (j - i - 1) * flag[m | 1 << j] for j in range(i + 1, k)
            )
            rhs = (1 - (-1) ** (k - i - 1)) * value
            require(lhs == rhs, f"Dehn-Sommerville fails at mask {m:b}, gap ({i},{k})")


def simplex_chain_count(d: int, m: int) -> int:
    """Chains of faces of the d-simplex with dimension set m (multinomial)."""
    parts, prev = [], -1
    for t in [t for t in range(d) if m >> t & 1] + [d]:
        parts.append(t - prev)
        prev = t
    count = factorial(d + 1)
    for p in parts:
        count //= factorial(p)
    return count


def f_vector(flag: dict, d: int) -> tuple:
    return (flag[0],) + tuple(flag[1 << i] for i in range(d))


def check_flag(flag: dict, node: Node):
    d = node.dim
    require(len(flag) == 2**d, f"{len(flag)} dimension sets, expected {2**d}")
    check_dehn_sommerville(flag, d)
    got = f_vector(flag, d)
    require(got == node.f, f"f-vector {got} != {node.f} from f-vector arithmetic")
    if node.kind:
        want = closed_form(node.kind, d)
        require(got == want, f"f-vector {got} != {node.kind} closed form {want}")
    if node.kind == "simplex":
        for m, value in flag.items():
            want = simplex_chain_count(d, m)
            require(value == want, f"simplex chain count {value} != {want} at {m:b}")


# ---------------------------------------------------------------------------
# h-vectors


def check_h(h: list, d: int, toric: list):
    keys = [key for key, _ in h]
    require(len(set(keys)) == len(keys), "a key is listed twice")
    require(len(toric) == d + 1, f"toric h-vector has {len(toric)} entries")
    key_e = [0] * (d + 1)
    for key, coeffs in h:
        require(any(coeffs), f"zero component listed at key {key}")
        require(coeffs == coeffs[::-1], f"component {key}: {coeffs} is not palindromic")
        require(
            key_degree(key) + len(coeffs) - 1 == d,
            f"component {key}: key degree + polynomial degree != {d}",
        )
        if key == "e":
            key_e = coeffs
    require(key_e == toric, f"key-e part {key_e} != toric h-vector {toric}")


def check_round_trip(h: list, flag: dict, d: int):
    # imported here: run.py loads polyhvec only to check, after the rounds
    from polyhvec.hpoly import HPoly, Key, KeyedPoly
    from polyhvec.hvector import flag_from_h

    kp = KeyedPoly(d, {Key(*parse_key(key)): HPoly(c) for key, c in h})
    back = flag_from_h(kp)
    for S, value in back.entries.items():
        require(flag.get(_mask(S)) == value, f"flag_from_h differs at {S}")
    require(
        sum(1 for v in flag.values() if v) == len(back.entries),
        "flag_from_h misses entries of the flag vector",
    )


def check_record(rec: dict, node: Node):
    """All checks on one JSON record (the same record for flag, hvec, toric)."""
    require(rec.get("input") == node.text, f"input echoed as {rec.get('input')!r}")
    require(rec.get("dim") == node.dim, f"dim {rec.get('dim')} != {node.dim}")
    flag = record_flag(rec)
    check_flag(flag, node)
    check_h(rec["h"], node.dim, rec["toric"])
    check_round_trip(rec["h"], flag, node.dim)


def check_text(cmd: str, stdout: str, rec: dict):
    """Text output of cmd agrees with the JSON record for the same input."""
    if cmd == "flag":
        got, want = parse_flag_text(stdout), record_flag(rec)
        require(got == want, "flag text differs from the JSON record")
    elif cmd == "hvec":
        require(parse_hvec_text(stdout) == rec["h"], "hvec text differs from JSON")
    else:
        require(parse_poly(stdout.strip()) == rec["toric"], "toric text differs")


# ---------------------------------------------------------------------------
# products


def convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_product(cmd: str, stdout: str, node: Node, factors: list):
    """A product's output against its factors' JSON records."""
    faces = []  # nonempty faces by dimension, the body included
    for rec in factors:
        flag = record_flag(rec)
        faces.append([flag[1 << i] for i in range(rec["dim"])] + [1])
    want_faces = convolve(*faces)
    want_toric = convolve(*(rec["toric"] for rec in factors))
    if cmd == "json":
        rec = parse_record(stdout)
        check_record(rec, node)
        flag, toric = record_flag(rec), rec["toric"]
    elif cmd == "flag":
        flag, toric = parse_flag_text(stdout), want_toric
        check_flag(flag, node)
    elif cmd == "hvec":
        check_h(parse_hvec_text(stdout), node.dim, want_toric)
        return
    else:
        flag, toric = None, parse_poly(stdout.strip())
    require(toric == want_toric, f"toric {toric} != product of factors {want_toric}")
    if flag is not None:
        got = list(f_vector(flag, node.dim)[1:]) + [1]
        require(got == want_faces, f"f-vector {got} != convolution {want_faces}")


# ---------------------------------------------------------------------------
# words and verify


def check_table(stdout: str, max_dim: int = 10):
    """`table --format json`: every CD-word once, every record checked."""
    counts = [0] * (max_dim + 1)
    seen = set()
    for line in stdout.splitlines():
        rec = json.loads(line)
        text, d = rec["input"], rec["dim"]
        w = "" if text == "pt" else text[: -len("(pt)")]
        require(re.fullmatch(r"[CD]*", w) is not None, f"bad word input {text!r}")
        require(w not in seen, f"word {w!r} listed twice")
        seen.add(w)
        require(0 <= d <= max_dim, f"record of dim {d}")
        counts[d] += 1
        node = word(w, pt()) if w else pt()
        check_record(rec, node)
    for d in range(max_dim + 1):
        want = 1 if d < 2 else counts[d - 1] + counts[d - 2]
        require(counts[d] == want, f"{counts[d]} words of degree {d}, expected {want}")


def check_verify(stdout: str):
    lines = stdout.splitlines()
    require(len(lines) == SUITE_COUNT, f"{len(lines)} suites reported")
    names = set()
    for line in lines:
        require(line.startswith("PASS "), f"suite did not pass: {line!r}")
        names.add(line[5:])
    require(len(names) == SUITE_COUNT, "a suite is reported twice")
