"""Fast tests of the benchmark's own parts: checks, generator, metric names.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from polyhvec import cli  # noqa: E402


def cli_out(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def record_of(cmd: str, text: str) -> dict:
    return checks.parse_record(cli_out(cmd, text, "--format", "json"))


BIPYRAMID = inputs.B(inputs.simplex(3))


@pytest.fixture(scope="module")
def record():
    return record_of("hvec", BIPYRAMID.text)


def test_record_passes(record):
    checks.check_record(record, BIPYRAMID)


def test_every_flag_entry_off_by_one_is_rejected(record):
    for n in range(len(record["flag"])):
        bad = json.loads(json.dumps(record))
        bad["flag"][n][1] += 1
        with pytest.raises(checks.CheckFailed):
            checks.check_record(bad, BIPYRAMID)


def test_non_palindromic_component_is_rejected(record):
    for n in range(len(record["h"])):
        bad = json.loads(json.dumps(record))
        bad["h"][n][1][0] += 1
        if len(bad["h"][n][1]) == 1:
            bad["h"][n][1].append(0)  # a constant is palindromic; lengthen it
        with pytest.raises(checks.CheckFailed):
            checks.check_record(bad, BIPYRAMID)


def test_key_e_part_different_from_toric_is_rejected(record):
    bad = json.loads(json.dumps(record))
    bad["toric"] = [c + 1 for c in bad["toric"]]
    with pytest.raises(checks.CheckFailed, match="toric"):
        checks.check_record(bad, BIPYRAMID)


def test_text_outputs_agree_and_corruptions_are_rejected(record):
    for cmd in ("flag", "hvec", "toric"):
        out = cli_out(cmd, BIPYRAMID.text)
        checks.check_text(cmd, out, record)
        bad = out.replace("4", "5", 1)
        with pytest.raises(checks.CheckFailed):
            checks.check_text(cmd, bad, record)


def test_flag_text_is_checked_on_its_own():
    node = inputs.cube(4)
    flag = checks.parse_flag_text(cli_out("flag", node.text))
    checks.check_flag(flag, node)
    flag[0b1010] -= 1
    with pytest.raises(checks.CheckFailed, match="Dehn-Sommerville"):
        checks.check_flag(flag, node)


def test_product_checks_use_the_factors():
    a, b = inputs.cube(2), inputs.simplex(2)
    node = inputs.prod(a, b)
    factors = [record_of("toric", x.text) for x in (a, b)]
    for cmd in ("flag", "hvec", "toric"):
        checks.check_product(cmd, cli_out(cmd, node.text), node, factors)
    out = cli_out("toric", node.text, "--format", "json")
    checks.check_product("json", out, node, factors)
    wrong = [factors[0], record_of("toric", "simplex(3)")]
    for cmd in ("flag", "toric"):
        with pytest.raises(checks.CheckFailed):
            checks.check_product(cmd, cli_out(cmd, node.text), node, wrong)


def test_table_checks():
    out = cli_out("table", "--max-dim", "5", "--format", "json")
    checks.check_table(out, max_dim=5)
    lines = out.splitlines()
    with pytest.raises(checks.CheckFailed, match="words of degree"):
        checks.check_table("\n".join(lines[:-1]), max_dim=5)
    simplex5 = next(n for n, line in enumerate(lines) if '"CCCCC(pt)"' in line)
    rec = json.loads(lines[simplex5])
    rec["flag"][-1][1] += 1  # off by one at the full chain, [0..4]
    lines[simplex5] = json.dumps(rec)
    with pytest.raises(checks.CheckFailed):
        checks.check_table("\n".join(lines), max_dim=5)


def test_verify_checks():
    names = [f"PASS suite{n}" for n in range(checks.SUITE_COUNT)]
    checks.check_verify("\n".join(names))
    with pytest.raises(checks.CheckFailed):
        checks.check_verify("\n".join(names[:-1]))
    with pytest.raises(checks.CheckFailed):
        checks.check_verify("\n".join(names[:-1] + ["FAIL suite0: x"]))


def test_simplex_chain_counts_match_the_closed_form():
    for d in range(6):
        flag = {m: checks.simplex_chain_count(d, m) for m in range(2**d)}
        assert checks.f_vector(flag, d) == inputs.closed_form("simplex", d)


# ---------------------------------------------------------------------------
# the generator


@pytest.mark.parametrize("workload", ["polytopes", "products"])
def test_plan_is_deterministic_and_follows_the_seed(workload):
    assert inputs.plan(workload, 7) == inputs.plan(workload, 7)
    assert inputs.plan(workload, 7) != inputs.plan(workload, 8)


def test_polytope_inputs_have_the_planned_dimensions():
    for seed in range(50):
        ops = inputs.plan("polytopes", seed)
        dims = sorted(op.node.dim for op in ops if op.same_as is None)
        assert dims == sorted(d for d, _, _ in inputs.POLYTOPE_SLOTS)
        assert not any("prod" in op.node.text for op in ops)


def test_product_slots_do_not_depend_on_the_seed():
    for seed in range(50):
        ops = inputs.plan("products", seed)
        products = [op for op in ops if op.factors]
        assert len(products) == len(inputs.PRODUCT_SLOTS)
        for op, (_, _, ta, tb) in zip(products, inputs.PRODUCT_SLOTS):
            factors = [ops[j].node for j in op.factors]
            assert op.node.dim == ta[1] + tb[1]
            assert all(f.buildable for f in factors)  # prod arguments are D-free
            # cube and point factors are spelled literally on every seed
            literal = [f"cube({n})" for k, n in (ta, tb) if k == "cube"]
            literal += ["pt" for k, _ in (ta, tb) if k == "pt"]
            spelled = [f.text for f in factors if f.text.startswith(("pt", "cube("))]
            assert sorted(spelled) == sorted(literal)


def test_every_spelling_has_the_flag_vector_of_its_type():
    for kind, n in {t for _, _, a, b in inputs.PRODUCT_SLOTS for t in (a, b)}:
        outputs = set()
        for node in inputs._spellings(kind, n):
            out = cli_out("flag", node.text)
            checks.check_flag(checks.parse_flag_text(out), node)
            outputs.add(out)
        assert len(outputs) == 1, (kind, n)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_later_rounds_must_repeat_the_first():
    ops = inputs.plan("verify", 0)
    passing = "\n".join(f"PASS suite{n}" for n in range(checks.SUITE_COUNT)).encode()
    first = [run.Result(0, passing, b"", 0.0, 1.0, 0)]
    same = [first[0]._replace(stdout=None)]
    changed = [first[0]._replace(stdout=b"PASS suite0")]
    crashed = [first[0]._replace(rc=1, stdout=None)]
    assert run.count_failures("verify", ops, [first, same]) == (0, 0)
    assert run.count_failures("verify", ops, [first, same, changed]) == (1, 1)
    assert run.count_failures("verify", ops, [first, crashed]) == (1, 0)
