"""Command-line front end.

Commands: flag, hvec, toric (evaluate one expression or word), table
(all CD-words up to a dimension), basis (word flag vectors of one
degree), verify (the invariant suites).  JSON output is one record per
line with the fixed field order input/dim/flag/h/toric; all numbers are
exact integers.

Exit codes: 0 ok, 1 verify failure, 2 parse/usage error, 3 face-count
cap or change-of-basis degree limit exceeded, 4 input outside the CD span
(only a product's flag vector, split into its cd-index, can be), 141
(128 + SIGPIPE) stdout closed by its reader, as in `... | head -1`.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations
from operator import add

from .cdwords import (
    cd_coordinates,
    cd_index_flag,
    cd_words,
    check_basis_degree,
    word_cd,
    word_vector,
)
from .errors import ExprParseError, FaceCountLimitError, NotInCDSpanError
from .flagvec import dim_subsets

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_SPAN = 4
EXIT_PIPE = 141


JSON_HEAD, TEXT_HEAD = ("[[", "],"), ("{", "}: ")  # around a set's elements


def flag_heads(d: int, start: str, end: str, sizes=None) -> tuple[list, list]:
    """The heads of a dimension-d flag vector's rows in `dim_subsets` order,
    and beside them the bitmasks of their sets; only sets of `sizes`, if given."""
    bits = [1 << t for t in range(d)]
    heads, masks = [], []
    for r in sizes or range(max(d, 0) + 1):
        sets = combinations(range(d), r)
        heads += (start + ",".join(map(str, S)) + end for S in sets)
        masks += map(sum, combinations(bits, r))
    return heads, masks


def flag_rows(flag, heads, order, sep: str) -> str:
    """Each set's row, its head then its value, joined by `sep`."""
    return sep.join(map(add, heads, map(str, map(flag.values.__getitem__, order))))


def json_record(input_str: str, flag, cd, heads=None) -> str:
    """The JSON record of one input; `heads` are its flag's `flag_heads`, if kept."""
    from .hvector import h_of_cdvector, toric_of_cdvector  # only h-values load it

    rows = flag_rows(flag, *(heads or flag_heads(flag.dim, *JSON_HEAD)), "],")
    h = _dump([[str(key), list(p.coeffs)] for key, p in h_of_cdvector(cd).items()])
    toric = _dump(list(toric_of_cdvector(cd).coeffs))
    return (
        f'{{"input":{_dump(input_str)},"dim":{flag.dim},"flag":[{rows}]],'
        f'"h":{h},"toric":{toric}}}'
    )


def _dump(value) -> str:
    import json  # only the JSON paths load it

    return json.dumps(value, separators=(",", ":"))


def cmd_single(args) -> int:
    """flag, hvec or toric on one input."""
    from .lattice import check_face_count, eval_cd, eval_flag, expr_dim, parse_expr

    expr = parse_expr(args.input)
    # resource limits go before any evaluation; past the face cap the
    # expression may be too deep to walk recursively
    check_face_count(expr)
    out = sys.stdout
    if args.command == "flag" and args.format == "text":
        flag = eval_flag(expr)
        # one set size per write: past a closed pipe, the next write raises
        for r in range(max(flag.dim, 0) + 1):
            heads = flag_heads(flag.dim, *TEXT_HEAD, sizes=(r,))
            out.write(flag_rows(flag, *heads, "\n") + "\n")
        return EXIT_OK
    from .hvector import h_of_cdvector, toric_of_cdvector  # only h-values load it

    d = expr_dim(expr)
    check_basis_degree(d)  # the rest needs CD-coordinates
    psi = eval_cd(expr)
    cd = cd_coordinates(psi, d)
    if args.format == "json":
        out.write(json_record(args.input, cd_index_flag(psi, d), cd) + "\n")
    elif args.command == "hvec":
        out.write(f"{h_of_cdvector(cd)}\n")
    else:
        out.write(f"{toric_of_cdvector(cd).bracket()}\n")
    return EXIT_OK


def cmd_table(args) -> int:
    from .hvector import h_of_cdvector, toric_of_cdvector

    out = sys.stdout
    head = JSON_HEAD if args.format == "json" else TEXT_HEAD
    for degree in range(args.max_dim + 1):
        heads = flag_heads(degree, *head)  # kept for every word
        for w in cd_words(degree):
            name = f"{w}(pt)" if w else "pt"
            flag = cd_index_flag(word_cd(w), degree)
            cd = word_vector(w)
            if head is JSON_HEAD:
                out.write(json_record(name, flag, cd, heads) + "\n")
                continue
            rows = flag_rows(flag, *heads, "  ")
            out.write(
                f"input: {name}\ndim: {degree}\nflag: {rows}\nh: {h_of_cdvector(cd)}\n"
                f"toric: {toric_of_cdvector(cd).bracket()}\n\n"
            )
    return EXIT_OK


def cmd_basis(args) -> int:
    d = args.degree
    words = cd_words(d)
    heads, masks = flag_heads(d, "{", "}")
    matrix = [
        list(map(cd_index_flag(word_cd(w), d).values.__getitem__, masks)) for w in words
    ]
    if args.format == "json":
        payload = {
            "degree": d,
            "dimsets": [list(S) for S in dim_subsets(d)],
            "words": [w if w else "pt" for w in words],
            "matrix": matrix,
        }
        sys.stdout.write(_dump(payload) + "\n")
    else:
        sys.stdout.write("dimsets: " + " ".join(heads) + "\n")
        for w, row in zip(words, matrix):
            sys.stdout.write(f"{w if w else 'pt'}: " + " ".join(map(str, row)) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES  # only verify needs the suites and linalg

    failed = False
    for name, check in SUITES:
        counterexample = check(args.max_dim)
        if counterexample is None:
            sys.stdout.write(f"PASS {name}\n")
        else:
            failed = True
            sys.stdout.write(f"FAIL {name}: {counterexample}\n")
    return EXIT_VERIFY if failed else EXIT_OK


def _bounded_int(low: int, high: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
            if low <= value <= high:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer in {low}..{high}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhvec",
        description="Exact flag vectors and complete keyed h-vectors of polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    for name, what in (
        ("flag", "flag vector"),
        ("hvec", "keyed h-vector"),
        ("toric", "toric h-vector"),
    ):
        p = sub.add_parser(name, help=f"{what} of an expression or word")
        p.add_argument("input")
        add_format(p)
        p.set_defaults(run=cmd_single)

    p = sub.add_parser("table", help="records for all CD-words up to a dimension")
    p.add_argument("--max-dim", type=_bounded_int(0, 10), default=10)
    add_format(p)
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("basis", help="flag vectors of the CD-words of one degree")
    p.add_argument("degree", type=_bounded_int(0, 10))
    add_format(p)
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--max-dim", type=_bounded_int(0, 8), default=6)
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # no traceback; the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:
        print("parse error: expression nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except FaceCountLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NotInCDSpanError as exc:
        print(f"not in CD span: {exc}", file=sys.stderr)
        return EXIT_SPAN


if __name__ == "__main__":
    sys.exit(main())
