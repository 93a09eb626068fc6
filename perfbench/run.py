"""End-to-end benchmark of the polyhvec CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {words,polytopes,products,verify} \\
        --seed N --seconds S --trace {0,1}

The benchmark runs the CLI as a user does: one fresh `python3 -m polyhvec`
process per invocation, one invocation at a time, in a closed loop from
this single benchmark process.  A round is the workload's fixed sequence of
invocations (inputs.py).  A run times SETUP_RUNS trivial invocations,
spread over the run, and repeats whole rounds while the next one is
expected to end within S seconds of measured time; it runs at least one.
Every invocation is one operation; it fails when it exits with a code
other than 0 or its output fails a check.  The first round's outputs go
through checks.py, and later rounds must repeat them byte for byte, since
output is deterministic.

--trace 0 prints the end-to-end metrics: set-up time as a median, round
and invocation times as the fastest of the run's rounds.  --trace 1
alternates an untraced and a traced round (tracecli.py) and prints the
per-layer metrics, averaged over the traced rounds, with the tracing
overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import checks
from inputs import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ARGV = ("hvec", "pt")
SETUP_RUNS = 9
OP_TIMEOUT_S = 150.0
TRACE_TAG = "PERFBENCH-TRACE "

VERIFY_SUITES = (
    "golden-h-values", "euler-relation", "oracle-equivalence", "link-identities",
    "palindromic-components", "toric-agreement", "operator-commutation",
    "prism-laws", "basis-rank", "h-unimodularity", "flag-round-trip",
    "route-independence", "product-law", "sign-check",
)  # fmt: skip

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "peak_rss_mb": "MB",
}

# tracecli span prefixes reported as <prefix>_s, and as <prefix>_calls here
LAYER_TIMES = (
    "cli.self", "lattice.parse", "lattice.build", "lattice.chain_count",
    "lattice.links", "lattice.eval", "flagvec.pyramid", "flagvec.prism",
    "flagvec.diamond", "flagvec.dual", "cdwords.word_flag", "cdwords.to_cd_basis",
    "cdwords.cd_flag", "linalg.pivot_rows", "linalg.factor", "linalg.solve",
    "linalg.det_rank", "hvector.word_recursion", "hvector.cdvector",
    "hvector.flag_from_h", "hvector.face_sum", "hpoly.decompose",
) + tuple(f"verify.{name}" for name in VERIFY_SUITES)  # fmt: skip
LAYER_CALLS = (
    "lattice.parse", "lattice.chain_count", "lattice.links", "flagvec.pyramid",
    "flagvec.prism", "flagvec.diamond", "flagvec.dual", "cdwords.to_cd_basis",
    "hpoly.decompose",
)  # fmt: skip
LAYER_COUNTS = (
    "lattice.faces_built", "lattice.dimsets_counted", "lattice.eval_misses",
    "flagvec.entries_out", "cdwords.word_flag_misses", "cdwords.word_flag_hits",
    "linalg.matrix_rows", "hvector.word_recursion_misses",
)  # fmt: skip


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({f"{name}_calls": "count" for name in LAYER_CALLS})
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(
        {
            "proc.startup_s": "s",
            "proc.exit_s": "s",
            "trace.overhead_s": "s",
            "trace.accounted_share": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# invoking the CLI


class Result(NamedTuple):
    rc: int
    stdout: bytes
    stderr: bytes
    spawn: float  # monotonic clock just before the process was started
    end: float  # monotonic clock once it was reaped
    rss_kb: int  # peak RSS from wait4: the child's, or ours at spawn if higher

    @property
    def wall(self) -> float:
        return self.end - self.spawn


def invoke(argv, traced: bool = False) -> Result:
    entry = [str(HERE / "tracecli.py")] if traced else ["-m", "polyhvec"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = _drain(proc, spawn + OP_TIMEOUT_S)
    except BaseException:
        proc.kill()  # interrupted: leave no child behind
        proc.wait()
        raise
    # wait4 rather than Popen.wait, to get this child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out, err, spawn, end, usage.ru_maxrss)


def _drain(proc, deadline: float) -> tuple:
    """Read stdout and stderr to their end; kill the child at the deadline."""
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            timeout = None if timed_out else max(deadline - time.monotonic(), 0.0)
            ready = sel.select(timeout)
            if not ready:
                proc.kill()  # a hung child fails its operation; reaped below
                timed_out = True
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


# ---------------------------------------------------------------------------
# checking outputs


def check_op(workload: str, ops: list, results: list, i: int):
    """Raise CheckFailed unless op i of a round exited 0 with correct output."""
    op, res = ops[i], results[i]
    checks.require(res.rc == 0, f"exit code {res.rc}: {res.stderr[-300:]!r}")
    out = res.stdout.decode()
    if workload == "words":
        checks.check_table(out)
    elif workload == "verify":
        checks.check_verify(out)
    elif op.factors:
        factors = [checks.parse_record(results[j].stdout.decode()) for j in op.factors]
        kind = "json" if "--format" in op.argv else op.argv[0]
        checks.check_product(kind, out, op.node, factors)
    elif op.same_as is not None:
        rec = checks.parse_record(results[op.same_as].stdout.decode())
        checks.check_text(op.argv[0], out, rec)
    elif "--format" in op.argv:
        checks.check_record(checks.parse_record(out), op.node)
    else:
        checks.check_flag(checks.parse_flag_text(out), op.node)


def check_setup(res: Result) -> bool:
    """`hvec pt`: h(pt) = 1 by definition, so the toric h-vector is [1]."""
    try:
        checks.require(res.rc == 0, f"exit code {res.rc}")
        checks.check_h(checks.parse_hvec_text(res.stdout.decode()), 0, [1])
    except (checks.CheckFailed, ValueError) as exc:
        print(f"setup invocation failed: {exc}", file=sys.stderr)
        return False
    return True


def count_failures(workload: str, ops: list, rounds: list) -> tuple:
    """(failed, wrong) over all rounds: the first in full, the rest against it.

    `failed` counts operations that exited with a code other than 0 or
    whose output failed a check; `wrong` counts those of them that exited
    0, so a wrong answer also makes the run incorrect.  In later rounds a
    stdout of None means the same bytes as in the first (see run_round).
    """
    first = rounds[0]
    verdicts = []  # per op: None, "exit" or "wrong"
    for i, op in enumerate(ops):
        verdict = None
        try:
            check_op(workload, ops, first, i)
        except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
            verdict = "wrong" if first[i].rc == 0 else "exit"
            print(f"op {' '.join(op.argv)!r} failed: {exc}", file=sys.stderr)
        verdicts.append(verdict)
    failed = wrong = 0
    for results in rounds:
        for op, ref, verdict, res in zip(ops, first, verdicts, results):
            if res is not ref and (res.rc != ref.rc or res.stdout is not None):
                print(f"op {' '.join(op.argv)!r} changed output", file=sys.stderr)
                verdict = "wrong" if res.rc == 0 else "exit"
            failed += verdict is not None
            wrong += verdict == "wrong"
    return failed, wrong


def run_round(ops: list, traced: bool = False, reference: list | None = None):
    """(wall time, results) of one round.

    Given the first round as reference, a stdout equal to the reference's
    is dropped at once (set to None): a child's peak RSS as wait4 reports
    it includes this process's own peak at the time of the spawn, so
    this process holds as little as it can while children run.
    """
    start = time.monotonic()
    results = []
    for n, op in enumerate(ops):
        res = invoke(op.argv, traced)
        if reference is not None and res.stdout == reference[n].stdout:
            res = res._replace(stdout=None)
        results.append(res)
    return time.monotonic() - start, results


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list, q: int) -> float:
    """The q-th quartile (1, 2 or 3), interpolating between samples.

    The inclusive method keeps a quartile of a handful of samples (words
    and verify run a few invocations per run) inside their range.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def end_to_end(setup: list, rounds: list) -> dict:
    """Round and invocation times are each the fastest of the run's rounds.

    A shared host can run at one of two speeds, 1.75x apart, for seconds to
    a minute at a time (perfbench/README.md); a median over a run's rounds
    follows whichever speed held most of the run, the fastest round does not.
    """
    by_op = list(zip(*(results for _, results in rounds)))
    best = [min(res.wall for res in runs) for runs in by_op]
    values = {
        "setup_s": statistics.median(res.wall for res in setup),
        "wall_s": min(wall for wall, _ in rounds),
        "op_p50_s": quantile(best, 2),
        "op_p75_s": quantile(best, 3),
        "peak_rss_mb": max(res.rss_kb for runs in by_op for res in runs) / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}


def per_layer(plain: list, traced: list) -> dict:
    totals = defaultdict(float)
    for _, results in traced:
        for res in results:
            lines = res.stderr.decode().splitlines()
            if not lines or not lines[-1].startswith(TRACE_TAG):
                continue  # the invocation crashed, and counts as failed
            report = json.loads(lines[-1][len(TRACE_TAG) :])
            for name, value in report["self_s"].items():
                totals[name + "_s"] += value
            for name, value in report["calls"].items():
                totals[name + "_calls"] += value
            for name, value in report["counts"].items():
                totals[name] += value
            totals["proc.startup_s"] += report["enter"] - res.spawn
            totals["proc.exit_s"] += res.end - report["leave"]
    n = len(traced)
    traced_wall = statistics.fmean(wall for wall, _ in traced)
    plain_wall = statistics.fmean(wall for wall, _ in plain)
    units = per_layer_units()
    values = {name: totals.get(name, 0) / n for name in units}
    accounted = values["proc.startup_s"]
    accounted += sum(values[f"{name}_s"] for name in LAYER_TIMES)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.accounted_share"] = accounted / traced_wall
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so invoke() stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "polyhvec" / "cli.py").is_file():
        print(f"no polyhvec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the flag_from_h round-trip check

    ops = plan(args.workload, args.seed)
    # set-up is timed at the start, after the first round and at the end, so
    # that its median does not rest on one stretch of the machine's speed
    probes = SETUP_RUNS // 3
    setup = [invoke(SETUP_ARGV) for _ in range(probes)]
    plain, traced = [], []
    measured = sum(res.wall for res in setup)  # checking comes after, unmeasured
    while True:
        plain.append(run_round(ops, reference=plain[0][1] if plain else None))
        step = plain[-1][0]
        if args.trace:
            traced.append(run_round(ops, traced=True, reference=plain[0][1]))
            step += traced[-1][0]
        measured += step
        if len(plain) == 1:
            setup += [invoke(SETUP_ARGV) for _ in range(probes)]
        if measured + step > args.seconds:  # the next round would not fit
            break
    setup += [invoke(SETUP_ARGV) for _ in range(SETUP_RUNS - len(setup))]

    setup_failed = sum(not check_setup(res) for res in setup)
    failed, wrong = count_failures(args.workload, ops, [r for _, r in plain + traced])
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup, plain)
    result = {
        "correct": wrong == 0,
        "attempted": SETUP_RUNS + (len(plain) + len(traced)) * len(ops),
        "failed": setup_failed + failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
