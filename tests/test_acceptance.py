"""Acceptance gate: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they happen (pytest captures them otherwise).  Criterion 1 is expected
to fail on exactly one of its six pinned values: the required middle
coefficient of the bipyramid value contradicts the toric-agreement
criterion below, and this suite reports that honestly instead of
patching either side.  See the repository README for the derivation.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from helpers import validate_record
from polyhvec import (
    EMPTY_KEY,
    HPoly,
    Key,
    KeyedPoly,
    angle,
    basis_matrix,
    cd_flag,
    cd_words,
    d_flag,
    dual_flag,
    expand_I,
    flag_from_h,
    g_of_word,
    h_matrix,
    h_of_cdvector,
    h_of_flag,
    h_of_polytope,
    h_of_word,
    h_via_links,
    prism_flag,
    pyramid_flag,
    toric_h_of_word,
    word_flag,
)
from polyhvec.cdwords import word_vector
from polyhvec.hpoly import X
from polyhvec.lattice import (
    Bipyr,
    Cone,
    Cube,
    Dual,
    Prism,
    Prod,
    Pt,
    Simplex,
    expr_dim,
    expr_str,
)
from polyhvec.linalg import mat_det, mat_rank
from polyhvec.oracle import (
    build_lattice,
    flag_of_lattice,
    sample_expressions,
    total_link_vector,
)
from polyhvec.verify import link_identity_family

KEY_00 = Key((0,), (0,))
KEY_01 = Key((0,), (1,))

WORD_COUNTS = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {status} {name}"
    if detail and not ok:
        line += f": {detail}"
    print(line)
    assert ok, f"{name}: {detail}"


def words_up_to(max_degree):
    for d in range(max_degree + 1):
        yield from cd_words(d)


def test_criterion_01_golden_values():
    goldens = [
        ("h(CD pt)", lambda: h_of_word("CD"),
         KeyedPoly(3, {EMPTY_KEY: angle(1, 1), KEY_00: HPoly([1])})),
        ("h(DC pt)", lambda: h_of_word("DC"),
         KeyedPoly(3, {EMPTY_KEY: angle(1, 1)})),
        ("h(CCD pt)", lambda: h_of_word("CCD"),
         KeyedPoly(4, {EMPTY_KEY: angle(1, 2), KEY_00: angle(0, 1)})),
        ("h(CDC pt)", lambda: h_of_word("CDC"),
         KeyedPoly(4, {EMPTY_KEY: angle(1, 2), KEY_01: HPoly([1])})),
        ("h(C(CD-DC) pt)", lambda: h_of_word("CCD") - h_of_word("CDC"),
         KeyedPoly(4, {KEY_00: angle(0, 1), KEY_01: HPoly([-1])})),
        ("h(bipyr(simplex(3)))", lambda: h_of_polytope(Bipyr(Simplex(3))),
         KeyedPoly(4, {EMPTY_KEY: HPoly([1, 4, 10, 4, 1]),
                       KEY_00: HPoly([6, 6]), KEY_01: HPoly([-4])})),
    ]
    failures = []
    for name, compute, expected in goldens:
        start = time.perf_counter()
        got = compute()
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"{name} took {elapsed:.2f}s")
        if got != expected:
            failures.append(f"{name} = {got}, required {expected}")
    report(1, "golden h-values", not failures, "; ".join(failures))


def test_criterion_02_sign_separation():
    hp = h_of_polytope(Bipyr(Simplex(3))).component(KEY_01)
    hq = h_of_polytope(Cone(Prism(Cone(Cone(Pt()))))).component(KEY_01)
    ok = hp == HPoly([-4]) and hq == HPoly([1]) and hp.coeffs[0] * hq.coeffs[0] < 0
    report(2, "opposite signs at key 0;1", ok, f"key 0;1 coefficients {hp} and {hq}")


def test_criterion_03_property_suite_degree_10():
    start = time.perf_counter()
    bad = None
    for w in words_up_to(10):
        h = h_of_word(w)
        for key, poly in h.terms.items():
            if not poly.is_palindromic():
                bad = f"h({w}) not palindromic at {key}"
            if key.degree + poly.degree != h.dim:
                bad = f"h({w}) degree bookkeeping at {key}"
        if h.component(EMPTY_KEY) != toric_h_of_word(w):
            bad = f"h({w}) key-e differs from the toric recursion"
        if bad:
            break
    elapsed = time.perf_counter() - start
    if bad is None and elapsed >= 60:
        bad = f"took {elapsed:.1f}s"
    report(3, "palindromic/keyed/toric over all words of degree <= 10", bad is None, bad or "")


def test_criterion_04_operator_identities_degree_8():
    bad = None
    xy_sum = HPoly([1, 1])
    for w in words_up_to(8):
        v = word_flag(w)
        if d_flag(prism_flag(v)) != prism_flag(d_flag(v)):
            bad = f"DI != ID at {w or 'pt'}"
            break
        expansion = expand_I(word_vector(w), v.dim)
        if cd_flag(expansion, v.dim + 1) != prism_flag(v):
            bad = f"prism expansion at {w or 'pt'}"
            break
        if h_of_cdvector(expansion, v.dim + 1) != h_of_word(w).mul_poly(xy_sum):
            bad = f"(x+y) law at {w or 'pt'}"
            break
        if g_of_word(w) != h_of_word("C" + w) - h_of_word(w).mul_poly(X):
            bad = f"g from h at {w or 'pt'}"
            break
    report(4, "operator identities to degree 8", bad is None, bad or "")


def test_criterion_05_basis_and_completeness():
    bad = None
    for d in range(9):
        if mat_rank(basis_matrix(d)) != WORD_COUNTS[d]:
            bad = f"rank at degree {d}"
            break
        if mat_det(h_matrix(d)) not in (1, -1):
            bad = f"determinant at degree {d}"
            break
        for w in cd_words(d):
            if flag_from_h(h_of_word(w)) != word_flag(w):
                bad = f"word round trip at {w}"
                break
        if bad:
            break
    if bad is None:
        for e in sample_expressions(6):
            f = flag_of_lattice(e)
            if flag_from_h(h_of_flag(f)) != f:
                bad = f"expression round trip at {expr_str(e)}"
                break
    report(5, "basis rank, unimodularity, completeness round trip", bad is None, bad or "")


def test_criterion_06_oracle_equivalence_dim_6():
    bad = None
    for e in sample_expressions(5):
        f = flag_of_lattice(e)
        if flag_of_lattice(Cone(e)) != pyramid_flag(f):
            bad = f"pyramid oracle at {expr_str(e)}"
            break
        if flag_of_lattice(Prism(e)) != prism_flag(f):
            bad = f"prism oracle at {expr_str(e)}"
            break
    if bad is None:
        for e in sample_expressions(6):
            f = flag_of_lattice(e)
            if flag_of_lattice(Dual(e)) != dual_flag(f):
                bad = f"dual oracle at {expr_str(e)}"
                break
            d = f.dim
            if sum((-1) ** i * f.get((i,)) for i in range(d)) != 1 - (-1) ** d:
                bad = f"Euler relation at {expr_str(e)}"
                break
    report(6, "lattice oracle equivalence and Euler relation to dim 6", bad is None, bad or "")


def test_criterion_07_link_identities():
    bad = None
    for e in link_identity_family(6):
        f = flag_of_lattice(e)
        ell = total_link_vector(build_lattice(e))
        lifted = [pyramid_flag(v) for v in ell]
        cone_side = (ell[0], *(a + b for a, b in zip(ell[1:], lifted)), lifted[-1] + f)
        if total_link_vector(build_lattice(Cone(e))) != cone_side:
            bad = f"cone link identity at {expr_str(e)}"
            break
        prism_side = (
            ell[0],
            *(a + b.scaled(2) for a, b in zip(ell[1:], lifted)),
            lifted[-1].scaled(2),
        )
        if total_link_vector(build_lattice(Prism(e))) != prism_side:
            bad = f"prism link identity at {expr_str(e)}"
            break
    report(7, "total link vector identities", bad is None, bad or "")


def test_criterion_08_route_independence_dim_5():
    bad = None
    for e in sample_expressions(5):
        if h_via_links(e) != h_of_polytope(e):
            bad = expr_str(e)
            break
    report(8, "face-sum route equals CD route to dim 5", bad is None, bad or "")


def test_criterion_09_product_law():
    bad = None
    for a in (Cube(1), Cube(2), Cube(3), Simplex(2)):
        for b in (Simplex(3), Bipyr(Simplex(2))):
            e = Prod(a, b)
            if expr_dim(e) > 6:
                continue
            if h_of_polytope(e) != h_of_polytope(a) * h_of_polytope(b):
                bad = expr_str(e)
                break
        if bad:
            break
    report(9, "product law for simple x arbitrary", bad is None, bad or "")


def test_criterion_10_table_determinism():
    cmd = [sys.executable, "-m", "polyhvec", "table", "--max-dim", "10", "--format", "json"]
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    runs = []
    times = []
    for _ in range(2):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        times.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    bad = None
    if runs[0] != runs[1]:
        bad = "outputs differ between runs"
    lines = runs[0].decode().splitlines()
    if bad is None and len(lines) != 232:
        bad = f"{len(lines)} records, wanted 232"
    if bad is None:
        for line in lines[:3] + lines[-3:]:
            validate_record(json.loads(line))
    if bad is None and max(times) >= 10:
        bad = f"slowest run took {max(times):.1f}s"
    report(10, "table of 232 records, byte-identical and under 10s", bad is None, bad or "")
