"""Command-line front end.

Commands: flag, hvec, toric (evaluate one expression or word), table
(all CD-words up to a dimension), basis (word flag vectors of one
degree), verify (the invariant suites).  JSON output is one record per
line with the fixed field order input/dim/flag/h/toric; all numbers are
exact integers.

Exit codes: 0 ok, 1 verify failure, 2 parse/usage error, 3 face-count
cap or change-of-basis degree limit exceeded, 4 input outside the CD span
(only a product's flag vector, split into its cd-index, can be).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cdwords import (
    basis_matrix,
    cd_coordinates,
    cd_index_flag,
    cd_words,
    check_basis_degree,
    word_cd,
    word_vector,
)
from .errors import ExprParseError, FaceCountLimitError, NotInCDSpanError
from .flagvec import dim_subsets, subset_masks
from .hvector import h_of_cdvector, toric_of_cdvector
from .lattice import (
    DEFAULT_FACE_CAP,
    eval_cd,
    eval_flag,
    expr_dim,
    face_count_bound,
    parse_expr,
)
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_SPAN = 4


def format_dimset(S) -> str:
    return "{" + ",".join(map(str, S)) + "}"


def flag_rows(flag):
    """(dimension set, value) of every set, in `dim_subsets` order."""
    d = flag.dim
    return zip(dim_subsets(d), map(flag.values.__getitem__, subset_masks(d)))


def full_record(input_str: str, flag, cd) -> dict:
    """The JSON record of one input, from its flag vector and CD-coordinates."""
    h = h_of_cdvector(cd)
    toric = toric_of_cdvector(cd)
    return {
        "input": input_str,
        "dim": flag.dim,
        "flag": [[list(S), v] for S, v in flag_rows(flag)],
        "h": [[str(key), list(poly.coeffs)] for key, poly in h.items()],
        "toric": list(toric.coeffs),
    }


def _dump(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def cmd_single(args) -> int:
    """flag, hvec or toric on one input."""
    expr = parse_expr(args.input)
    # resource limits go before any evaluation; past the face cap the
    # expression may be too deep to walk recursively
    if face_count_bound(expr) > DEFAULT_FACE_CAP:
        raise FaceCountLimitError(
            f"{args.input!r} needs more than {DEFAULT_FACE_CAP} faces, over the cap"
        )
    out = sys.stdout
    if args.command == "flag" and args.format == "text":
        for S, v in flag_rows(eval_flag(expr)):
            out.write(f"{format_dimset(S)}: {v}\n")
        return EXIT_OK
    d = expr_dim(expr)
    check_basis_degree(d)  # the rest needs CD-coordinates
    psi = eval_cd(expr)
    cd = cd_coordinates(psi, d)
    if args.format == "json":
        out.write(_dump(full_record(args.input, cd_index_flag(psi, d), cd)) + "\n")
    elif args.command == "hvec":
        out.write(f"{h_of_cdvector(cd)}\n")
    else:
        out.write(f"{toric_of_cdvector(cd).bracket()}\n")
    return EXIT_OK


def cmd_table(args) -> int:
    out = sys.stdout
    for degree in range(args.max_dim + 1):
        for w in cd_words(degree):
            name = f"{w}(pt)" if w else "pt"
            flag = cd_index_flag(word_cd(w), degree)
            record = full_record(name, flag, word_vector(w))
            if args.format == "json":
                out.write(_dump(record) + "\n")
            else:
                out.write(f"input: {record['input']}\n")
                out.write(f"dim: {record['dim']}\n")
                out.write(
                    "flag: "
                    + "  ".join(f"{format_dimset(S)}: {v}" for S, v in record["flag"])
                    + "\n"
                )
                out.write(
                    "h: "
                    + "  ".join(
                        f"{key}: [{','.join(map(str, coeffs))}]"
                        for key, coeffs in record["h"]
                    )
                    + "\n"
                )
                out.write(f"toric: [{','.join(map(str, record['toric']))}]\n\n")
    return EXIT_OK


def cmd_basis(args) -> int:
    d = args.degree
    words = cd_words(d)
    cols = dim_subsets(d)
    matrix = basis_matrix(d)
    if args.format == "json":
        payload = {
            "degree": d,
            "dimsets": [list(S) for S in cols],
            "words": [w if w else "pt" for w in words],
            "matrix": matrix,
        }
        sys.stdout.write(_dump(payload) + "\n")
    else:
        sys.stdout.write("dimsets: " + " ".join(format_dimset(S) for S in cols) + "\n")
        for w, row in zip(words, matrix):
            sys.stdout.write(f"{w if w else 'pt'}: " + " ".join(map(str, row)) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    failed = False
    for name, counterexample in run_all(args.max_dim):
        if counterexample is None:
            sys.stdout.write(f"PASS {name}\n")
        else:
            failed = True
            sys.stdout.write(f"FAIL {name}: {counterexample}\n")
    return EXIT_VERIFY if failed else EXIT_OK


def _bounded_int(low: int, high: int):
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}")
        return value

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
        return args.run(args)
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
