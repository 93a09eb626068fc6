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

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import validate_record
from polyhvec import cdwords, cli, flagvec, lattice
from polyhvec.cdwords import word_flag
from polyhvec.errors import ExprParseError
from polyhvec.flagvec import FlagVector
from polyhvec.lattice import expr_str, face_count_bound, parse_expr
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
    # vector is split back into a cd-index, and no flag vector is turned
    # into flag h-numbers (subset sums with sign -1); JSON still expands
    # the cd-index forward (sign 1) to print the flag entries
    subset_sums = cdwords._subset_sums

    def forward_only(entries, d, sign):
        if sign != 1:
            raise AssertionError("flag entries were turned back into h-numbers")
        return subset_sums(entries, d, sign)

    def refuse(*_):
        raise AssertionError("a flag vector was split into its cd-index")

    for name, module in list(sys.modules.items()):
        if name == "polyhvec" or name.startswith("polyhvec."):
            for attr, value in list(vars(module).items()):
                if value is cdwords.cd_index:
                    monkeypatch.setattr(module, attr, refuse)
                elif value is subset_sums:
                    monkeypatch.setattr(module, attr, forward_only)
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
    operators = [getattr(flagvec, name) for name in names]
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

    monkeypatch.setattr(lattice, "_product_lattice", refuse)
    monkeypatch.setattr(lattice, "chain_count_flag", refuse)
    for cached in (lattice.build_lattice, lattice.flag_of_lattice, lattice.eval_flag):
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


def test_verify_rejects_out_of_range_max_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-dim", "9"])
    assert exc.value.code == 2
    capsys.readouterr()
