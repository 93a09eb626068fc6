"""Run the polyhvec CLI with per-layer spans and counters.

Usage: python3 perfbench/tracecli.py <polyhvec arguments...>

Stdout and the exit code are the CLI's own.  The last line on stderr is
`PERFBENCH-TRACE <json>` with the monotonic clock at entry to and exit
from `cli.main`, and per-layer self times and counts.

Wrappers go around public functions only, replacing the function under
every polyhvec module name that imported it (so `cdwords.pyramid_flag` as
well as `flagvec.pyramid_flag`), and around the entries of
`verify.SUITES`.  A wrapper's self time is its span minus the spans of
the wrapped calls nested in it, recursive calls included, so the self
times add up to the time spent in `cli.main`.  Per-call hot paths such as
`FlagVector.get` are left alone.  Cache hits and misses of `lru_cache`
functions come from `cache_info()`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from time import perf_counter

import polyhvec.cli as cli
from polyhvec import cdwords, flagvec, hpoly, hvector, lattice, linalg, verify

# metric prefix -> functions whose self time it collects
SPANS = {
    "lattice.parse": (lattice.parse_expr, lattice.face_count_bound),
    "lattice.build": (lattice.build_lattice,),
    "lattice.chain_count": (lattice.chain_count_flag,),
    "lattice.links": (
        lattice.interval_lattice,
        lattice.link_flag,
        lattice.total_link_vector,
    ),
    "lattice.eval": (lattice.eval_flag,),
    "flagvec.pyramid": (flagvec.pyramid_flag,),
    "flagvec.prism": (flagvec.prism_flag,),
    "flagvec.diamond": (flagvec.d_flag,),
    "flagvec.dual": (flagvec.dual_flag,),
    "cdwords.word_flag": (cdwords.word_flag,),
    "cdwords.to_cd_basis": (cdwords.to_cd_basis,),
    "cdwords.cd_flag": (cdwords.cd_flag,),
    "linalg.pivot_rows": (linalg.pivot_rows,),
    "linalg.det_rank": (linalg.mat_det, linalg.mat_rank),
    "hvector.word_recursion": (
        hvector.h_of_word,
        hvector.g_of_word,
        hvector.toric_h_of_word,
        hvector.toric_g_of_word,
    ),
    "hvector.cdvector": (
        hvector.h_of_cdvector,
        hvector.g_of_cdvector,
        hvector.toric_of_cdvector,
    ),
    "hvector.flag_from_h": (hvector.flag_from_h,),
    "hvector.face_sum": (hvector.h_via_links,),
    "hpoly.decompose": (hpoly.palindromic_decompose,),
}


def _entries_out(args, out):
    return "flagvec.entries_out", len(out.entries)


def _rows(args, out):
    return "linalg.matrix_rows", len(args[0])


def _faces_built(build):
    # faces are built once per distinct expression; a cache hit builds none
    seen = [build.cache_info().misses]

    def count(args, out):
        misses = build.cache_info().misses
        built = len(out) if misses != seen[0] else 0
        seen[0] = misses
        return "lattice.faces_built", built

    return count


# counts taken from a call's arguments and result
COUNTS = {
    lattice.build_lattice: _faces_built(lattice.build_lattice),
    lattice.chain_count_flag: lambda args, out: (
        "lattice.dimsets_counted",
        2 ** max(out.dim, 0),
    ),
    flagvec.pyramid_flag: _entries_out,
    flagvec.prism_flag: _entries_out,
    flagvec.d_flag: _entries_out,
    flagvec.dual_flag: _entries_out,
    linalg.pivot_rows: _rows,
    linalg.mat_det: _rows,
    linalg.mat_rank: _rows,
}


class Tracer:
    """Self time per metric; calls count entries into a metric from outside it."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = defaultdict(int)  # spans of a metric open right now
        self._child = [0.0]  # time covered by wrapped children, per open span

    def wrap(self, metric: str, fn, count=None):
        self_s, calls, counts = self.self_s, self.calls, self.counts
        is_open, child = self._open, self._child

        def wrapper(*args, **kwargs):
            if not is_open[metric]:
                calls[metric] += 1
            is_open[metric] += 1
            child.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self_s[metric] += span - child.pop()
                child[-1] += span
                is_open[metric] -= 1
            if count is not None:
                name, n = count(args, out)
                counts[name] += n
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper


def _replace_everywhere(orig, wrapper):
    for name, mod in list(sys.modules.items()):
        if name == "polyhvec" or name.startswith("polyhvec."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    for metric, fns in SPANS.items():
        for fn in fns:
            _replace_everywhere(fn, tracer.wrap(metric, fn, COUNTS.get(fn)))
    solver = linalg.LinearSolver
    solver.__init__ = tracer.wrap(
        "linalg.factor", solver.__init__, lambda args, out: _rows(args[1:], out)
    )
    solver.solve = tracer.wrap("linalg.solve", solver.solve)
    verify.SUITES[:] = [
        (name, tracer.wrap(f"verify.{name}", fn)) for name, fn in verify.SUITES
    ]


def cache_counts() -> dict:
    word_flag = SPANS["cdwords.word_flag"][0].cache_info()
    recursion = [fn.cache_info() for fn in SPANS["hvector.word_recursion"]]
    return {
        "lattice.eval_misses": SPANS["lattice.eval"][0].cache_info().misses,
        "cdwords.word_flag_hits": word_flag.hits,
        "cdwords.word_flag_misses": word_flag.misses,
        "hvector.word_recursion_misses": sum(info.misses for info in recursion),
    }


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.self", cli.main)
    enter = time.monotonic()
    try:
        rc = run(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        rc = exc.code if isinstance(exc.code, int) else 2
    leave = time.monotonic()
    sys.stdout.flush()
    report = {
        "enter": enter,
        "leave": leave,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": {**tracer.counts, **cache_counts()},
    }
    sys.stderr.write("PERFBENCH-TRACE " + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
