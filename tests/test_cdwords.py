import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhvec import (
    FaceCountLimitError,
    FlagVector,
    NotInCDSpanError,
    basis_matrix,
    cd_flag,
    cd_words,
    chain_count_flag,
    build_lattice,
    empty_flag,
    expand_I,
    point_flag,
    prism_flag,
    to_cd_basis,
    word_degree,
    word_flag,
    word_vector,
)
from polyhvec.cdwords import (
    MAX_BASIS_DEGREE,
    _letter_factor,
    _lu_solve,
    _unit_lu,
    cd_coordinates,
    cd_index,
    cd_index_flag,
    cd_monomials,
    combine,
    diamond_cd,
    dual_cd,
    prism_cd,
    pyramid_cd,
    word_cd,
)
from polyhvec.hpoly import KeyedPoly
from polyhvec.hvector import flag_from_h, g_of_cdvector, h_of_cdvector
from polyhvec.hvector import toric_of_cdvector
from polyhvec.lattice import Bipyr, Simplex, parse_expr
from polyhvec.linalg import LinearSolver, mat_det, mat_rank, pivot_rows

WORD_COUNTS = [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_word_enumeration():
    assert cd_words(0) == ("",)
    assert cd_words(2) == ("CC", "D")
    assert cd_words(4) == ("CCCC", "CCD", "CDC", "DCC", "DD")
    for d, count in enumerate(WORD_COUNTS):
        words = cd_words(d)
        assert len(words) == count
        assert list(words) == sorted(words)
        assert all(word_degree(w) == d for w in words)


def test_word_flag_examples():
    assert word_flag("") == point_flag()
    triangle = chain_count_flag(build_lattice(parse_expr("C(C(pt))")))
    assert word_flag("CC") == triangle
    assert word_flag("D") == FlagVector(2, {(0,): 1, (1,): 1, (0, 1): 2})
    with pytest.raises(ValueError):
        word_flag("CX")


def test_cdvector_normalisation_and_arithmetic():
    # CD-coordinates are the coefficient tuple in `cd_words` order, zeros kept
    assert cd_words(2) == ("CC", "D") and word_vector("D") == (0, 1)
    v = (0, 2)
    assert tuple(map(add, v, (1, -2))) == word_vector("CC") == (1, 0)
    # a word or a tuple of another degree is refused
    with pytest.raises(ValueError):
        word_vector("CX")
    with pytest.raises(ValueError):
        combine(v, 3, word_flag, FlagVector(3, {}))


def test_expand_I_examples():
    assert expand_I(word_vector("C"), 1) == (1, 1)  # CC + D
    assert expand_I(word_vector(""), 0) == word_vector("C")
    # the 3-cube: prism twice over a segment, CCC + 2 DC
    assert cd_words(3) == ("CCC", "CD", "DC")
    assert expand_I(expand_I(word_vector("C"), 1), 2) == (1, 0, 2)
    assert expand_I(word_vector("CC"), 2) == (1, 0, 1)


def test_expand_I_matches_prism_operator():
    for d in range(6):
        for w in cd_words(d):
            prism = expand_I(word_vector(w), d)
            assert cd_flag(prism, d + 1) == prism_flag(word_flag(w))


def test_basis_matrix_shapes_and_ranks():
    assert basis_matrix(0) == [[1]]
    m2 = basis_matrix(2)
    assert len(m2) == 2 and mat_rank(m2) == 2
    m4 = basis_matrix(4)
    assert len(m4) == 5 and mat_rank(m4) == 5
    for d in range(7):
        assert mat_rank(basis_matrix(d)) == len(cd_words(d))


def test_to_cd_basis_square():
    square = chain_count_flag(build_lattice(parse_expr("I(C(pt))")))
    assert to_cd_basis(square) == (1, 1)  # CC + D


def test_to_cd_basis_round_trip():
    for d in range(7):
        for w in cd_words(d):
            assert to_cd_basis(word_flag(w)) == word_vector(w)


def test_to_cd_basis_bipyramid_solves():
    f = chain_count_flag(build_lattice(Bipyr(Simplex(3))))
    v = to_cd_basis(f)
    assert cd_flag(v, f.dim) == f
    assert all(isinstance(c, int) for c in v)


def test_to_cd_basis_rejects_vectors_outside_span():
    # in degree 2 the span forces equal vertex and edge counts
    outside = FlagVector(2, {(0,): 1})
    with pytest.raises(NotInCDSpanError):
        to_cd_basis(outside)
    # one more at {0, 1}, which is not a sparse set; and the ab-index ba
    # alone, which only the words starting ba tell from zero
    off_sparse = word_flag("CCC") + FlagVector(3, {(0, 1): 1})
    for outside in (off_sparse, FlagVector(2, {(0,): 1, (0, 1): 1})):
        with pytest.raises(NotInCDSpanError):
            cd_index(outside)
        with pytest.raises(NotInCDSpanError):
            to_cd_basis(outside)


def test_exact_linalg_helpers():
    assert mat_det([[2, 0], [0, 3]]) == 6
    assert mat_det([[1, 2], [2, 4]]) == 0
    assert mat_det([]) == 1
    assert mat_rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert pivot_rows([[1, 0], [1, 0], [0, 1]]) == [0, 2]
    with pytest.raises(ValueError):
        pivot_rows([[1, 1], [2, 2]])
    solver = LinearSolver([[2, 1], [1, 1]])
    assert solver.solve([3, 2]) == [1, 1]
    assert solver.solve([1, 0]) == [1, -1]
    with pytest.raises(ValueError):
        LinearSolver([[1, 1], [1, 1]])
    with pytest.raises(ValueError):  # invertible, but not over the integers
        LinearSolver([[2, 0], [0, 1]])
    for ragged in ([[1, 0], [0]], [[1], [0, 1]]):
        for helper in (mat_rank, mat_det, pivot_rows, LinearSolver):
            with pytest.raises(ValueError):
                helper(ragged)


def fraction_gauss_jordan(rows):
    """Spec: reduced row echelon form over the rationals.

    Returns (reduced rows, pivot columns, the product of the pivots with
    the sign of the swaps: the determinant of a square matrix of full rank).
    """
    work = [[Fraction(v) for v in row] for row in rows]
    pivots, det = [], Fraction(1)
    for col in range(len(work[0]) if work else 0):
        k = len(pivots)
        pivot = next((i for i in range(k, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det *= work[k][col]
        work[k] = [v / work[k][col] for v in work[k]]
        for i, row in enumerate(work):
            if i != k:
                work[i] = [a - row[col] * b for a, b in zip(row, work[k])]
        pivots.append(col)
    return work, pivots, det


@st.composite
def integer_matrices(draw):
    """Small integer matrices, often rank-deficient or with zero columns."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        ncols = nrows
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        j, a = draw(st.integers(0, nrows - 1)), draw(st.integers(-2, 2))
        rows[i] = [a * x + y for x, y in zip(rows[j], rows[(j + 1) % nrows])]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for r in rows:
            r[j] = 0
    return rows


@st.composite
def unimodular_matrices(draw):
    """A signed permutation times random integer row additions."""
    n = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    rows = [[signs[i] * (perm[i] == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    additions = st.tuples(index, index, st.integers(-2, 2))
    for i, j, c in draw(st.lists(additions, max_size=6)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_matrices(), unimodular_matrices()), st.data())
def test_linalg_matches_fraction_gauss_jordan(rows, data):
    n, m = len(rows), len(rows[0])
    _, pivots, det = fraction_gauss_jordan(rows)
    rank = len(pivots)
    assert mat_rank(rows) == rank
    if m == rank:
        chosen = pivot_rows(rows)
        assert len(set(chosen)) == m
        assert len(fraction_gauss_jordan([rows[i] for i in chosen])[1]) == m
    else:
        with pytest.raises(ValueError):
            pivot_rows(rows)
    if n != m:
        with pytest.raises(ValueError):
            mat_det(rows)
        return
    assert mat_det(rows) == (det if rank == n else 0)
    if det not in (1, -1) or rank < n:
        with pytest.raises(ValueError):
            LinearSolver(rows)
        return
    b = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    x = fraction_gauss_jordan([row + [v] for row, v in zip(rows, b)])[0]
    assert LinearSolver(rows).solve(b) == [r[-1] for r in x]


def test_basis_matrices_are_unimodular():
    # det P_d = det M_d * det P_(d-1) * det P_(d-2), so unit pivots in every
    # M_d make every P_d unimodular
    assert cd_monomials(4) == ("cccc", "ccd", "cdc", "dcc", "dd")
    dets = [1, 1]
    for d in range(2, MAX_BASIS_DEGREE + 1):
        steps = _letter_factor(d)  # raises unless every pivot is +-1
        assert len(steps) == len(cd_words(d))
        det_m = math.prod(p for p, _, _ in steps)
        assert det_m in (1, -1)
        dets.append(det_m * dets[-1] * dets[-2])
    for d in range(9):
        assert mat_det(basis_cd_rows(d)) == dets[d]


def test_letter_factors_stay_sparse():
    # entries held per factor: the multipliers below the pivots (L) and the
    # entries right of them (U); each U_d holds as many as L_(d-1)
    def sizes(d):
        steps = _letter_factor(d)
        lower = sum(len(below) for _, below, _ in steps)
        upper = sum(len(right) for _, _, right in steps)
        return lower, upper

    lower, upper = sizes(12)
    assert lower <= 1164 and upper <= 655
    lower, upper = sizes(10)
    assert lower <= 365 and upper <= 201
    for d in range(3, MAX_BASIS_DEGREE + 1):
        assert sizes(d)[1] == sizes(d - 1)[0]


def test_unit_lu_refuses_other_pivots():
    with pytest.raises(ValueError):
        _unit_lu([{0: 2}, {1: 1}])  # invertible, but not over the integers
    with pytest.raises(ValueError):
        _unit_lu([{1: 1}, {0: 1}])  # unimodular, but needs a row swap
    with pytest.raises(ValueError):
        _unit_lu([{0: 1, 1: 1}, {0: 1, 1: 1}])  # singular: pivot 0 after a step
    steps = _unit_lu([{0: -1, 1: 2}, {0: 3, 1: -5}])
    assert steps == ((-1, ((1, -3),), ((1, 2),)), (1, (), ()))
    assert _lu_solve(steps, [1, 0]) == [5, 3]


@settings(max_examples=200, deadline=None)
@given(unimodular_matrices(), st.data())
def test_unit_lu_solves_when_every_leading_minor_is_a_unit(rows, data):
    n = len(rows)
    sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
    if any(mat_det([r[:k] for r in rows[:k]]) not in (1, -1) for k in range(1, n)):
        with pytest.raises(ValueError):
            _unit_lu(sparse)
        return
    b = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    assert _lu_solve(_unit_lu(sparse), list(b)) == LinearSolver(rows).solve(b)


def basis_cd_rows(d):
    """P_d: one row per degree-d word, its cd-index."""
    return [list(word_cd(w)) for w in cd_words(d)]


@lru_cache(maxsize=None)
def basis_oracle(d):
    """A dense solver for P_d transposed, whose unknowns are word coefficients."""
    return LinearSolver([list(col) for col in zip(*basis_cd_rows(d))])


@st.composite
def cd_polynomials(draw, max_degree=10):
    d = draw(st.integers(0, max_degree))
    monomials = cd_monomials(d)
    coeff = st.just(0) | st.integers(-(10**6), 10**6)
    coeffs = draw(st.lists(coeff, min_size=len(monomials), max_size=len(monomials)))
    return tuple(coeffs), d


@settings(max_examples=80, deadline=None)
@given(cd_polynomials())
def test_cd_coordinates_match_a_dense_solve(case):
    psi, d = case
    x = basis_oracle(d).solve(list(psi))
    assert cd_coordinates(psi, d) == tuple(x)


def test_solve_and_split_invert_each_word_at_degrees_11_and_12():
    # above degree 10 no dense solve runs; by linearity, every word's own
    # cd-index solving to that word shows that the solve inverts P_d
    for d in (11, 12):
        for w in cd_words(d):
            psi = word_cd(w)
            assert cd_coordinates(psi, d) == word_vector(w)
            assert cd_index(cd_index_flag(psi, d)) == psi


def test_cd_coordinates_refuse_stray_monomials():
    # a degree-2 tuple holds the coefficients of cc and d, in that order
    assert cd_coordinates((1, 0), 2) == (1, -1)  # CC - D
    # every value on a degree-2 tuple refuses one of another length
    values = [cd_coordinates, cd_index_flag, expand_I, cd_flag]
    values += [h_of_cdvector, g_of_cdvector, toric_of_cdvector]
    values.append(lambda x, d: combine(x, d, word_flag, FlagVector(d, {})))
    for psi in ((1, 0, 5), (1,), (), (1, 0, 0, 3)):
        for value in values:
            with pytest.raises(ValueError):
                value(psi, 2)
    # the expansion and the split refuse what is no degree-d cd-polynomial
    for psi, d in (((1, 0), 1), ((), -1), ((1,), -1)):
        with pytest.raises(ValueError):
            cd_index_flag(psi, d)
    with pytest.raises(ValueError):
        cd_index(empty_flag())
    with pytest.raises(FaceCountLimitError):
        cd_coordinates((), MAX_BASIS_DEGREE + 1)


def test_cd_index_and_cd_coordinates_share_one_order():
    # the i-th coefficient of a cd-index and of CD-coordinates name one word
    for d in range(15):
        words = cd_words(d)
        for i, w in enumerate(words):
            assert cd_monomials(d)[i] == w.lower()
            assert word_vector(w) == tuple(int(j == i) for j in range(len(words)))


def test_word_cd_examples():
    assert cd_monomials(3) == ("ccc", "cd", "dc")
    assert word_cd("CCC") == (1, 2, 2)
    assert cd_monomials(2) == ("cc", "d") and word_cd("D") == (0, 1)
    assert word_cd("") == (1,)
    with pytest.raises(ValueError):
        word_cd("CX")


# The reference for the operators: the derivations of Ehrenborg and Readdy
# on monomial strings, each letter of each monomial replaced by its image in
# turn.  The pyramid is c psi + G(psi), G(c) = d and G(d) = dc; the prism is
# psi c + D'(psi), D'(c) = 2d and D'(d) = cd + dc.
PYRAMID_RULE = {"c": (("d", 1),), "d": (("dc", 1),)}
PRISM_RULE = {"c": (("d", 2),), "d": (("cd", 1), ("dc", 1))}


def splice(psi, rule, left, right):
    """left.psi.right plus the derivation with letter images `rule` of psi."""
    out = Counter()
    for m, k in psi.items():
        out[left + m + right] += k
        for i, letter in enumerate(m):
            for image, n in rule[letter]:
                out[m[:i] + image + m[i + 1 :]] += n * k
    return {m: k for m, k in out.items() if k}


def reference_pyramid(psi):
    return splice(psi, PYRAMID_RULE, "c", "")


def reference_prism(psi):
    return splice(psi, PRISM_RULE, "", "c")


def reference_diamond(psi):
    cone = reference_pyramid(psi)
    out = Counter(reference_prism(cone))
    out.subtract(reference_pyramid(cone))
    return {m: k for m, k in out.items() if k}


def reference_dual(psi):
    return {m[::-1]: k for m, k in psi.items()}


def monomial_map(v, d):
    """The nonzero coefficients of a degree-d coefficient tuple, by monomial."""
    assert len(v) == len(cd_monomials(d))
    return {m: k for m, k in zip(cd_monomials(d), v) if k}


def coefficient_tuple(psi, d):
    """A monomial map's coefficients in `cd_monomials(d)` order."""
    assert psi.keys() <= set(cd_monomials(d))
    return tuple(psi.get(m, 0) for m in cd_monomials(d))


REFERENCE_OPERATORS = [
    (pyramid_cd, reference_pyramid, 1),
    (prism_cd, reference_prism, 1),
    (diamond_cd, reference_diamond, 2),
    (dual_cd, reference_dual, 0),
]


def test_recursions_match_the_monomial_derivations():
    # seeded integer cd-polynomials, sparse and dense, of degrees 0-12
    rng = random.Random(1998)
    for d in range(13):
        for density in (0.2, 1.0):
            v = tuple(
                rng.randint(-(10**6), 10**6) if rng.random() < density else 0
                for _ in cd_monomials(d)
            )
            psi = monomial_map(v, d)
            for fast, reference, step in REFERENCE_OPERATORS:
                expected = coefficient_tuple(reference(psi), d + step)
                assert fast(v, d) == expected, (fast.__name__, d)


def test_letter_factors_match_the_reference_columns():
    # M_d's columns from the recursions factor step for step as the
    # reference's do: the pyramids of the degree-(d-1) monomials, then the
    # diamonds of the degree-(d-2) monomials, each row keyed by column
    for d in range(2, 15):
        images = [reference_pyramid({m: 1}) for m in cd_monomials(d - 1)]
        images += [reference_diamond({m: 1}) for m in cd_monomials(d - 2)]
        index = {m: i for i, m in enumerate(cd_monomials(d))}
        rows = [{} for _ in images]
        for j, image in enumerate(images):
            for m, k in image.items():
                rows[index[m]][j] = k
        assert _letter_factor(d) == _unit_lu(rows), d


def test_word_cd_matches_word_flags():
    # the fold against the flag operators, on all 2^d entries; and the split
    # of each word flag gives its fold back
    for d in range(10):
        for w in cd_words(d):
            assert cd_index_flag(word_cd(w), d) == word_flag(w), w
            assert cd_index(word_flag(w)) == word_cd(w), w


def ab_route_flag(psi, n):
    """Flag entries of a degree-n cd-polynomial through its dense ab-index.

    The spec of `cd_index_flag`: the ab-index, indexed by b-position mask
    (c = a + b, d = ab + ba), then subset sums from flag h- to f-numbers.
    """

    def ab_index(psi, n):
        if not psi:
            return [0] * (1 << n)
        if n < 2:
            return [psi.get("c" * n, 0)] * (1 << n)
        x = ab_index({m[1:]: k for m, k in psi.items() if m[0] == "c"}, n - 1)
        y = ab_index({m[1:]: k for m, k in psi.items() if m[0] == "d"}, n - 2)
        out = [x[mask >> 1] for mask in range(1 << n)]
        for mask in range(1 << n):
            if (mask & 3) in (1, 2):
                out[mask] += y[mask >> 2]
        return out

    return subset_sums(ab_index(psi, n), n, 1)


def subset_sums(entries, d, sign):
    """In place, flag h-numbers to f-numbers (sign 1) or back (sign -1)."""
    for i in range(d):
        for mask in range(1 << d):
            if mask >> i & 1:
                entries[mask] += sign * entries[mask ^ (1 << i)]
    return entries


def ab_route_index(f):
    """The spec of `cd_index`: flag h-numbers, then a split of the ab-index."""

    def split(ab, n):
        # aa r is X(a r), bb r is X(b r), ab r - bb r is Y(r) and so is ba r - aa r
        if not any(ab):
            return {}
        if n == 0:
            return {"": ab[0]}
        if n == 1:
            if ab[0] != ab[1]:
                raise NotInCDSpanError("flag vector is not a CD combination")
            return {"c": ab[0]}
        quarter = range(1 << (n - 2))
        y = [ab[4 * r + 2] - ab[4 * r + 3] for r in quarter]
        if any(ab[4 * r + 1] - ab[4 * r] != y[r] for r in quarter):
            raise NotInCDSpanError("flag vector is not a CD combination")
        x = [ab[2 * m + (m & 1)] for m in range(1 << (n - 1))]
        psi = {"c" + m: k for m, k in split(x, n - 1).items()}
        psi.update(("d" + m, k) for m, k in split(y, n - 2).items())
        return psi

    return split(subset_sums(list(f.values), f.dim, -1), f.dim)


def split_or_refuse(split, f):
    try:
        return split(f)
    except NotInCDSpanError:
        return "refused"


@settings(max_examples=60, deadline=None)
@given(cd_polynomials(max_degree=12), st.data())
def test_letter_weights_match_the_ab_index_route(case, data):
    psi, d = case
    f = cd_index_flag(psi, d)
    nonzero = monomial_map(psi, d)
    assert list(f.values) == ab_route_flag(nonzero, d)
    assert monomial_map(cd_index(f), d) == ab_route_index(f) == nonzero
    assert cd_index(f) == psi
    # one entry off by one: the same cd-index, or both refuse
    values = list(f.values)
    values[data.draw(st.integers(0, len(values) - 1))] += data.draw(
        st.sampled_from((-1, 1))
    )
    g = FlagVector.from_values(d, values)

    def split(g):
        return monomial_map(cd_index(g), d)

    assert split_or_refuse(split, g) == split_or_refuse(ab_route_index, g)


def test_peel_is_triangular_with_unit_pivots():
    # expanding a monomial (c to a or b, d to ab or ba) meets its own sparse
    # word once, with c to a and d to ba, and every other word at a larger
    # mask; the monomials' own words are distinct
    for d in range(MAX_BASIS_DEGREE + 1):
        owns = set()
        for m in cd_monomials(d):
            choices, pos, own = [], 0, 0  # own: the b-positions of its word
            for letter in m:
                if letter == "c":
                    choices.append((0, 1 << pos))
                    pos += 1
                else:
                    choices.append((1 << pos, 2 << pos))
                    own |= 1 << pos
                    pos += 2
            assert pos == d
            masks = Counter(map(sum, itertools.product(*choices)))
            assert min(masks) == own and masks[own] == 1, m
            owns.add(own)
        assert len(owns) == len(cd_words(d))


def test_change_of_basis_refuses_degrees_over_the_cap():
    d = MAX_BASIS_DEGREE + 1
    with pytest.raises(FaceCountLimitError):
        to_cd_basis(FlagVector(d, {}))
    with pytest.raises(FaceCountLimitError):
        flag_from_h(KeyedPoly(d, {}))


@st.composite
def cd_vectors(draw, d=None):
    if d is None:
        d = draw(st.integers(0, 7))
    n = len(cd_words(d))
    coeffs = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    return tuple(coeffs), d


def linear(a, u, b, v):
    """a u + b v, for tuples or for values with `scaled` and `+`."""
    if isinstance(u, tuple):
        return tuple(a * p + b * q for p, q in zip(u, v))
    return u.scaled(a) + v.scaled(b)


@settings(max_examples=60, deadline=None)
@given(cd_vectors())
def test_change_of_basis_round_trips(case):
    v, d = case
    f = cd_flag(v, d)
    assert to_cd_basis(f) == v
    assert flag_from_h(h_of_cdvector(v, d)) == f


@settings(max_examples=60, deadline=None)
@given(cd_vectors(), st.data(), st.integers(-50, 50), st.integers(-50, 50))
def test_change_of_basis_is_linear(case, data, a, b):
    u, d = case
    v, _ = data.draw(cd_vectors(d))
    f = linear(a, cd_flag(u, d), b, cd_flag(v, d))
    assert to_cd_basis(f) == linear(a, u, b, v)
    # every value extended from words is linear
    for value in (cd_flag, h_of_cdvector, g_of_cdvector, toric_of_cdvector, expand_I):
        combo = linear(a, value(u, d), b, value(v, d))
        assert value(linear(a, u, b, v), d) == combo, value.__name__
