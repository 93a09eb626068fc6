import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import validate_record
from polyhvec import cdwords, cli, lattice, oracle, verify
from polyhvec.cdwords import word_vector
from polyhvec.errors import ExprParseError
from polyhvec.flagvec import FlagVector, dim_subsets, empty_flag, point_flag
from polyhvec.hvector import h_of_cdvector, toric_of_cdvector
from polyhvec.lattice import expr_str, face_count_bound, parse_expr
from polyhvec.oracle import word_flag
from test_lattice import EDITS, any_expression, apply_edits


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flag_text_segment(capsys):
    code, out, _ = run_cli(capsys, "flag", "C(pt)")
    assert code == 0
    assert out == "{}: 1\n{0}: 2\n"


def test_flag_text_cube(capsys):
    code, out, _ = run_cli(capsys, "flag", "cube(3)")
    assert code == 0
    assert "{0,1,2}: 48\n" in out


def test_flag_text_virtual_word_prints_zero_entry(capsys):
    code, out, _ = run_cli(capsys, "flag", "D(pt)")
    assert code == 0
    assert out.splitlines()[0] == "{}: 0"


def test_hvec_text_examples(capsys):
    code, out, _ = run_cli(capsys, "hvec", "CD(pt)")
    assert code == 0
    assert out == "e: [0,1,1,0]  0;0: [1]\n"

    code, out, _ = run_cli(capsys, "hvec", "pt")
    assert code == 0
    assert out == "e: [1]\n"

    code, out, _ = run_cli(capsys, "hvec", "B(simplex(3))")
    assert code == 0
    assert out == "e: [1,4,4,4,1]  0;0: [6,6]  0;1: [-4]\n"


def test_toric_text(capsys):
    code, out, _ = run_cli(capsys, "toric", "CC(pt)")
    assert code == 0
    assert out == "[1,1,1]\n"


def test_json_record_shape_and_no_floats(capsys):
    code, out, _ = run_cli(capsys, "flag", "--format", "json", "B(simplex(2))")
    assert code == 0
    record = json.loads(out)
    validate_record(record)
    assert record["dim"] == 3
    assert record["input"] == "B(simplex(2))"


def test_json_routes_agree_between_commands(capsys):
    _, out1, _ = run_cli(capsys, "flag", "--format", "json", "CDC(pt)")
    _, out2, _ = run_cli(capsys, "hvec", "--format", "json", "CDC(pt)")
    assert out1 == out2  # the record is the same whichever field is focal


def test_table_small_counts_and_content(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-dim", "2", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["input"] for r in records] == ["pt", "C(pt)", "CC(pt)", "D(pt)"]
    for r in records:
        validate_record(r)

    code, out, _ = run_cli(capsys, "table", "--max-dim", "4", "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 12
    cdc = next(r for r in records if r["input"] == "CDC(pt)")
    assert ["0;1", [1]] in cdc["h"]


def test_table_word_records_match_generic_route(capsys):
    _, table_out, _ = run_cli(capsys, "table", "--max-dim", "3", "--format", "json")
    by_input = {json.loads(line)["input"]: line for line in table_out.splitlines()}
    _, single, _ = run_cli(capsys, "hvec", "--format", "json", "CD(pt)")
    assert single.strip() == by_input["CD(pt)"]


def test_table_text_mode_contains_key_entries(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-dim", "4")
    assert code == 0
    assert "0;1: [1]" in out


def test_table_deterministic_in_process(capsys):
    _, first, _ = run_cli(capsys, "table", "--max-dim", "5", "--format", "json")
    _, second, _ = run_cli(capsys, "table", "--max-dim", "5", "--format", "json")
    assert first == second


def test_basis_rows_are_the_word_flag_vectors(capsys):
    # `basis` expands each word's cd-index; the flag operators' fold,
    # `basis_matrix`, is its oracle (and `verify basis-rank`'s matrix)
    for d in range(11):
        code, out, _ = run_cli(capsys, "basis", str(d), "--format", "json")
        assert code == 0
        assert json.loads(out)["matrix"] == oracle.basis_matrix(d), d


def test_basis_output(capsys):
    code, out, _ = run_cli(capsys, "basis", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimsets: {} {0} {1} {0,1}"
    assert lines[1] == "CC: 1 3 3 6"
    assert lines[2] == "D: 0 1 1 2"

    code, out, _ = run_cli(capsys, "basis", "0", "--format", "json")
    payload = json.loads(out)
    assert payload == {
        "degree": 0,
        "dimsets": [[]],
        "words": ["pt"],
        "matrix": [[1]],
    }


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "flag", "C(pt")
    assert code == 2
    assert "position 4" in err

    code, _, err = run_cli(capsys, "hvec", "frob(3)")
    assert code == 2


def test_prod_of_virtual_is_rejected(capsys):
    code, _, err = run_cli(capsys, "flag", "prod(D(pt),pt)")
    assert code == 2
    assert "prod" in err
    assert "position 0" in err
    code, _, err = run_cli(capsys, "hvec", "C(prod(pt,C(CD(pt))))")
    assert code == 2
    assert "position 2" in err


def test_deeply_nested_input_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "flag", "C(" * 4000 + "pt" + ")" * 4000)
    assert code == 2
    assert "nested" in err


@pytest.mark.parametrize("command", ["flag", "hvec"])
def test_products_nested_250_deep_evaluate(command):
    # each recursive fold takes one frame per level of prod, so a fresh
    # process evaluates products nested about 330 deep; 250 must pass
    text = "pt"
    for _ in range(250):
        text = f"prod({text},pt)"
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "polyhvec", command, text],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_resource_exit_code(capsys):
    code, _, err = run_cli(capsys, "flag", "cube(20)")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize(
    "text",
    [
        "cube(10000)",
        "simplex(20000)",
        "C" * 20000 + "(pt)",
        "cube(" + "9" * 5000 + ")",
        "cube(100000000)",
        "prod(cube(100000000),cube(100000000))",
    ],
    ids=["cube", "simplex", "long-word", "long-number", "slow-cube", "prod"],
)
def test_huge_arguments_fail_fast(capsys, text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "flag", text)
    assert time.perf_counter() - start < 1
    assert code in (2, 3)
    assert out == ""
    assert len(err.splitlines()) == 1
    assert len(err.encode()) < 200  # the limit, not the input, is stated


@pytest.mark.parametrize(
    "argv",
    [
        ("hvec", "simplex(13)"),
        ("toric", "CDCDCDCDCD(pt)"),
        ("flag", "simplex(18)", "--format", "json"),
    ],
    ids=["hvec", "toric", "json"],
)
def test_change_of_basis_degree_limit_fails_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "degree" in err


def test_expressions_take_no_split_round_trip(capsys, monkeypatch):
    # hvec, toric and JSON solve an expression's cd-index as it is: no flag
    # vector is split back into a cd-index; JSON still expands the cd-index
    # forward to print the flag entries
    def refuse(*_):
        raise AssertionError("a flag vector was split into its cd-index")

    for name, module in list(sys.modules.items()):
        if name == "polyhvec" or name.startswith("polyhvec."):
            for attr, value in list(vars(module).items()):
                if value is cdwords.cd_index:
                    monkeypatch.setattr(module, attr, refuse)
    for argv in (
        ("hvec", "cube(10)"),
        ("toric", "DDDDD(pt)"),
        ("hvec", "B(crosspoly(5))", "--format", "json"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err


def test_change_of_basis_builds_no_word_flags(capsys, monkeypatch):
    # evaluation and CD-coordinates run on the cd-index; the flag operators
    # and word flags are the oracle only
    def refuse(*_):
        raise AssertionError("a flag operator was called")

    names = ("pyramid_flag", "prism_flag", "d_flag", "dual_flag")
    operators = [getattr(oracle, name) for name in names]
    for name, module in list(sys.modules.items()):
        if name == "polyhvec" or name.startswith("polyhvec."):
            for attr, value in list(vars(module).items()):
                if any(value is op for op in operators):
                    monkeypatch.setattr(module, attr, refuse)
    word_flag.cache_clear()
    for argv in (
        ("hvec", "cube(10)"),
        ("toric", "DDDDD(pt)"),
        ("hvec", "prod(cube(2),simplex(3))", "--format", "json"),
        ("table", "--max-dim", "6", "--format", "json"),
        ("flag", "DDDDD(pt)"),
        ("toric", "B(crosspoly(5))", "--format", "json"),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
    assert word_flag.cache_info().misses == 0


def test_solve_folds_no_words_and_inverts_no_matrix():
    # counts, not time, so it holds on any machine: a fresh process solves
    # for CD-coordinates through the letter factors alone, with no P_d fold
    # (word_cd) and no dense inverse (LinearSolver)
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from polyhvec import cdwords, cli, linalg\n"
        "built = []\n"
        "init = linalg.LinearSolver.__init__\n"
        "def counted(self, rows):\n"
        "    built.append(len(rows))\n"
        "    init(self, rows)\n"
        "linalg.LinearSolver.__init__ = counted\n"
        "code = cli.main(['hvec', 'cube(10)', '--format', 'json'])\n"
        "folds = cdwords.word_cd.cache_info().misses\n"
        "print(code, folds, len(built), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 10
    assert proc.stderr.split() == ["0", "0", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("hvec", "prod(cube(2),simplex(3))", "--format", "json"),
        ("flag", "prod(cube(5),simplex(4))"),
        ("toric", "prod(dual(cube(6)),pt)"),
        ("hvec", "prod(prod(pt,cube(2)),simplex(2))"),
    ],
    ids=["json", "flag", "point-factor", "nested"],
)
def test_products_build_no_lattice(capsys, monkeypatch, argv):
    # a product's flag vector comes from its factors' flag vectors
    def refuse(*_):
        raise AssertionError("a product lattice was built or chain-counted")

    monkeypatch.setattr(oracle, "_product_lattice", refuse)
    monkeypatch.setattr(oracle, "chain_count_flag", refuse)
    for cached in (oracle.build_lattice, oracle.flag_of_lattice, lattice.eval_flag):
        cached.cache_clear()
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


def test_product_of_92584_faces_runs_in_seconds(capsys):
    # prod(cube(6),simplex(6)) once ran for minutes on its product lattice
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "flag", "prod(cube(6),simplex(6))")
    assert time.perf_counter() - start < 30
    assert code == 0
    entries = dict(line.split(": ") for line in out.splitlines())
    cube = [math.comb(6, i) * 2 ** (6 - i) for i in range(7)]
    simplex = [math.comb(7, i + 1) for i in range(7)]
    faces = [
        sum(cube[i] * simplex[k - i] for i in range(max(0, k - 6), min(6, k) + 1))
        for k in range(12)
    ]
    assert [int(entries["{%d}" % k]) for k in range(12)] == faces


@settings(max_examples=150, deadline=None)
@given(any_expression(), st.lists(EDITS, max_size=3))
def test_fuzzed_input_exits_with_a_documented_code(e, edits):
    text = apply_edits(expr_str(e), edits)
    try:  # small inputs keep the property fast; unparsable ones still run
        assume(face_count_bound(parse_expr(text)) <= 20_000)
    except ExprParseError:
        pass
    for command in ("flag", "hvec", "toric"):
        for fmt in ("text", "json"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main([command, text, "--format", fmt])
            assert code in (0, 2, 3, 4)


# SHA-256 of stdout, pinned from the implementation before words parsed to
# nested nodes; a refactor must leave these bytes alone
JSON_RECORD_SHA256 = {
    "cube(5)": "50e9d07a4ef5887da13c3a6b003f76a24652cb0939a56210f1c2c27fa25c8812",
    "DDC(pt)": "727897fa5df02a8e66b176205537bbf8a86b3fd25deb7bedddee46deacd5e4ae",
    "B(crosspoly(4))": (
        "292badec9944e8181b48c742cc81186a0c72bc656a9fa9adbf0038b6b8d25f62"
    ),
    "dual(CIDC(pt))": (
        "e3b795e4f02dd980c0a4719c02afc910adc013464e205851560300c9fabd9d0a"
    ),
    "prod(cube(2),simplex(3))": (
        "6361089fc50bdafb60f36a16981703b7a71fe8610efa4b57a5233abfb66755c8"
    ),
}
PINNED_STDOUT = [
    (
        ("table", "--max-dim", "6", "--format", "json"),
        "bee017275175d223d7ac718402f347977fa1b1bc1dbb1ba713ddd17dfa6755b8",
    ),
    (
        ("table", "--max-dim", "6"),
        "dfaeb8873b0cb71defed9d0cb7fe66563c68e705e7a512bf7ac2ee90b11532a7",
    ),
    (
        ("basis", "6", "--format", "json"),
        "51c2a7a9e3e825502b7d1130e581de2d4c6ec348e51f86914296952891b51238",
    ),
    (
        ("hvec", "dual(CIDC(pt))"),
        "43fc6f1d947d14920ec1a1192b33f0740f27ec0beaa32c7cd05722e2591735b2",
    ),
    (
        ("toric", "dual(CIDC(pt))"),
        "8b99cefcef535411fc73653278e92ae1190890a119757b602e65de7013f30d54",
    ),
    (
        ("flag", "dual(CIDC(pt))"),
        "3b6b701b180993bb191ffde22a6b0e2a364000d907987c2e655967b2a00f5138",
    ),
    # a d = 8 product's split and expansion, a d = 11 virtual word, a
    # degree-12 solve, and every word up to degree 9
    (
        ("flag", "prod(simplex(4),crosspoly(4))"),
        "d9db1afa1330e875d188c2f1959db7941fde7b9c8dc3fed515e783698ad3de92",
    ),
    (
        ("flag", "DDDDDC(pt)"),
        "6bd4882dd0aec07382642914e529ecb2342bffd09d5abf511d083ad43b4402ad",
    ),
    (
        ("hvec", "crosspoly(12)", "--format", "json"),
        "a0ab4762e6c76092b4ef3c102d2a4ab4595e76c455357a395c551a9113388016",
    ),
    (
        ("table", "--max-dim", "9", "--format", "json"),
        "18f147f31f20b9f5ca0196a3fc0c619ecb8e4309b62956ac821fb356fe04d562",
    ),
    # text flag rows over 13 set sizes, and text table lines to degree 8,
    # pinned before the writers went one set size at a time
    (
        ("flag", "simplex(12)"),
        "5b591ee8ca94582cf2735b8aa47d3d5ac53dadcea450d69b17848ec88a879ede",
    ),
    (
        ("table", "--max-dim", "8"),
        "5db59c04e25bb78a1ffb52b732d0e589cfd7b694b77a80f84f772bd5e4bfaf3e",
    ),
    # the benchmark's `words` round, and every degree-10 word flag, pinned
    # before the cd-index operators ran on coefficient tuples
    (
        ("table", "--max-dim", "10", "--format", "json"),
        "7fcbe4d7aa112ed4d8faa227a4138e76d65cad68963c49f0587f4db4b2bbe59a",
    ),
    (
        ("basis", "10"),
        "80a11073ca160a4c06b2cee44abfdf3fb6cb65f3a59324a196df0eb634983fdf",
    ),
] + [
    # a JSON record is the same whichever of hvec, toric and flag asks for it
    ((command, text, "--format", "json"), digest)
    for text, digest in JSON_RECORD_SHA256.items()
    for command in ("hvec", "toric", "flag")
]


def test_stdout_bytes_are_pinned(capsys):
    changed = []
    for argv, digest in PINNED_STDOUT:
        code, out, _ = run_cli(capsys, *argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv))
    assert not changed


def test_tracer_still_binds_the_package():
    # the benchmark's tracer wraps package functions by name at import
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracecli.py"), "hvec", "cube(4)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("PERFBENCH-TRACE")


def test_tracer_times_every_verify_suite():
    # `hvec` reaches no oracle function; `verify` reaches the links and
    # every suite, each of which the tracer wraps
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracecli.py"), "verify"]
        + ["--max-dim", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [name for name, _ in verify.SUITES]
    assert proc.stdout.splitlines() == [f"PASS {name}" for name in names]
    head, _, report = proc.stderr.splitlines()[-1].partition(" ")
    assert head == "PERFBENCH-TRACE"
    timed = json.loads(report)["self_s"]
    assert {f"verify.{name}" for name in names} | {"lattice.links"} <= set(timed)


def modules_cli_import_loads(names):
    """Which of `names` a fresh `import polyhvec.cli` loads."""
    # every CLI call pays its imports; this counts modules, not time, so it
    # holds on any machine
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; before = set(sys.modules); import polyhvec.cli; "
        f"print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_brings_in_no_dataclasses_or_inspect():
    assert modules_cli_import_loads({"dataclasses", "inspect"}) == "[]"


ORACLE_MODULES = {"polyhvec.oracle", "polyhvec.verify", "polyhvec.linalg"}


def modules_a_command_loads(*argv):
    """The modules a fresh `python -m polyhvec` process imports."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "polyhvec", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    return {ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")}


def test_cli_import_brings_in_no_verify_or_linalg():
    # only the verify command reads the suites and the exact elimination
    assert modules_cli_import_loads(ORACLE_MODULES) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("flag", "prod(cube(2),simplex(2))"),
        ("hvec", "B(crosspoly(4))"),
        ("toric", "DDC(pt)"),
        ("table", "--max-dim", "3"),
        ("basis", "3"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_command_loads_no_oracle(argv, fmt):
    # counts modules, not time: every module a command imports it compiles
    # too, where no bytecode is cached; text output needs no `json` either,
    # words need no grammar, and only a printed h-value needs the h modules
    loaded = modules_a_command_loads(*argv, "--format", fmt)
    assert "polyhvec.cli" in loaded
    assert sorted(loaded & ORACLE_MODULES) == []
    assert ("json" in loaded) == (fmt == "json")
    assert ("polyhvec.lattice" in loaded) == (argv[0] in ("flag", "hvec", "toric"))
    prints_h = argv[0] != "basis" and (argv[0], fmt) != ("flag", "text")
    h_modules = {"polyhvec.hvector", "polyhvec.hpoly"}
    assert loaded & h_modules == (h_modules if prints_h else set())


def spec_rows(flag):
    """(dimension set, value) of every set, in `dim_subsets` order."""
    return [(S, flag.get(S)) for S in dim_subsets(flag.dim)]


def spec_record(input_str, flag, cd):
    """The JSON record, encoded as one dict through `json.dumps`."""
    record = {
        "input": input_str,
        "dim": flag.dim,
        "flag": [[list(S), v] for S, v in spec_rows(flag)],
        "h": [[str(key), list(p.coeffs)] for key, p in h_of_cdvector(cd).items()],
        "toric": list(toric_of_cdvector(cd).coeffs),
    }
    return json.dumps(record, separators=(",", ":"))


def spec_text_rows(flag):
    return ["{" + ",".join(map(str, S)) + "}: " + str(v) for S, v in spec_rows(flag)]


@st.composite
def wide_flags(draw):
    """Flag vectors of dim -1..12 with entries of either sign, some past 2^64."""
    d = draw(st.integers(-1, 12))
    bound = draw(st.sampled_from([1, 30, 2**64, 2**200]))
    rng = draw(st.randoms(use_true_random=False))
    values = [rng.randint(-bound, bound) for _ in range(1 << max(d, 0))]
    return FlagVector.from_values(d, values)


@settings(max_examples=60, deadline=None)
@given(wide_flags(), st.text(max_size=8), st.sampled_from(["", "C", "DC", "CDDC"]))
@example(empty_flag(), "empty", "")
@example(point_flag(), "pt", "")
@example(FlagVector.from_values(12, [2**64 + 1, -(2**70)] * 2048), "C^12", "DDDDDD")
def test_flag_writers_match_the_dict_and_json_encoders(flag, text, w):
    cd = word_vector(w)
    spec = spec_record(text, flag, cd)
    assert cli.json_record(text, flag, cd) == spec
    json_heads = cli.flag_heads(flag.dim, *cli.JSON_HEAD)
    text_heads = cli.flag_heads(flag.dim, *cli.TEXT_HEAD)
    for _ in range(2):  # table keeps each degree's heads for all its words
        assert cli.json_record(text, flag, cd, json_heads) == spec
        line = cli.flag_rows(flag, *text_heads, "  ")
        assert line == "  ".join(spec_text_rows(flag))
    # text flag through the command itself, which reads `eval_flag` from lattice
    with mock.patch.object(lattice, "eval_flag", lambda _: flag):
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["flag", "pt"]) == 0
    assert out.getvalue() == "".join(row + "\n" for row in spec_text_rows(flag))


def test_span_exit_code(capsys, monkeypatch):
    # a product's flag vector is the one input the CLI splits into its
    # cd-index; one outside the span (vertices != edges in degree 2) exits 4
    monkeypatch.setattr(lattice, "product_flag", lambda *_: FlagVector(2, {(0,): 1}))
    code, out, err = run_cli(capsys, "hvec", "prod(cube(1),cube(1))")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "span" in err


def test_verify_trivial_and_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-dim", "0")
    assert code == 0
    assert "FAIL" not in out

    code, out, _ = run_cli(capsys, "verify", "--max-dim", "4")
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())


def test_verify_max_dim_8_passes_every_suite_in_order(capsys):
    # the benchmark's `verify` command, with every suite at full size
    from polyhvec.verify import SUITES

    code, out, _ = run_cli(capsys, "verify", "--max-dim", "8")
    assert code == 0
    assert len(SUITES) == 14
    assert out.splitlines() == [f"PASS {name}" for name, _ in SUITES]


def test_closed_stdout_exits_quietly_with_the_pipe_code():
    # about 1.5 MB of rows, more than a pipe buffer holds, so the writer
    # meets the closed pipe mid-run, as under `| head -1`
    root = Path(__file__).resolve().parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "polyhvec", "flag", "simplex(16)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    ) as proc:
        assert proc.stdout.readline() == b"{}: 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
    assert err == b""
    assert "141" in cli.__doc__


def test_verify_reports_corrupted_golden_value(capsys, monkeypatch):
    from polyhvec import verify
    from polyhvec.hpoly import EMPTY_KEY, KeyedPoly, angle

    wrong = KeyedPoly(4, {EMPTY_KEY: angle(0, 4)})
    monkeypatch.setitem(verify.GOLDEN_WORD_H, "CCD", wrong)
    code, out, _ = run_cli(capsys, "verify", "--max-dim", "4")
    assert code == 1
    assert any(
        line.startswith("FAIL golden-h-values") and "CCD" in line
        for line in out.splitlines()
    )


def test_verify_checks_the_evaluation_the_cli_prints(capsys, monkeypatch):
    # a dual step whose cd map is the identity: `hvec "crosspoly(4)"` then
    # prints the 4-cube's h, and only the evaluation route sees it
    broken = lattice._DUAL._replace(cd=lambda psi, n: psi)
    runs = {
        kind: tuple((broken if step is lattice._DUAL else step, k) for step, k in r)
        for kind, r in lattice._UNARY_RUNS.items()
    }
    monkeypatch.setattr(lattice, "_UNARY_RUNS", runs)
    # the oracle keys its lattice steps by step: the broken dual builds the dual
    dual_lattice = oracle._LATTICE_STEPS[lattice._DUAL]
    monkeypatch.setitem(oracle._LATTICE_STEPS, broken, dual_lattice)
    monkeypatch.setattr(lattice, "_DUAL", broken)
    lattice.eval_flag.cache_clear()
    try:
        assert run_cli(capsys, "hvec", "crosspoly(4)")[1] == "e: [1,4,6,4,1]\n"
        code, out, _ = run_cli(capsys, "verify", "--max-dim", "6")
    finally:
        lattice.eval_flag.cache_clear()
    assert code == 1
    assert (
        "FAIL oracle-equivalence: cd-index evaluation vs lattice on crosspoly(3)"
        in out.splitlines()
    )


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (("table", "--max-dim", "x"), "0..10"),
        (("basis", "y"), "0..10"),
        (("verify", "--max-dim", "1.5"), "0..8"),
    ],
)
def test_a_non_integer_bound_names_the_range(capsys, argv, bounds):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f": must be an integer in {bounds}")
    assert "parse" not in err


def test_verify_rejects_out_of_range_max_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-dim", "9"])
    assert exc.value.code == 2
    capsys.readouterr()
