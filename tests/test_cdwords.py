import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhvec import (
    CDVector,
    FaceCountLimitError,
    FlagVector,
    NotInCDSpanError,
    basis_matrix,
    cd_flag,
    cd_words,
    chain_count_flag,
    build_lattice,
    expand_I,
    linear_combine,
    point_flag,
    prism_flag,
    to_cd_basis,
    word_degree,
    word_flag,
    word_vector,
)
from polyhvec.cdwords import (
    MAX_BASIS_DEGREE,
    _basis_solver,
    cd_index,
    cd_index_flag,
    cd_monomials,
    word_cd,
)
from polyhvec.hpoly import KeyedPoly
from polyhvec.hvector import flag_from_h, h_of_cdvector
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
    v = CDVector(2, {"CC": 0, "D": 2})
    assert v.coeffs == {"D": 2}
    w = v + CDVector(2, {"D": -2, "CC": 1})
    assert w == word_vector("CC")
    with pytest.raises(ValueError):
        CDVector(2, {"C": 1})
    with pytest.raises(ValueError):
        v + CDVector(3, {"CCC": 1})


def test_expand_I_examples():
    assert expand_I(word_vector("C")) == CDVector(2, {"CC": 1, "D": 1})
    assert expand_I(word_vector("")) == word_vector("C")
    # the 3-cube: prism twice over a segment
    assert expand_I(expand_I(word_vector("C"))) == CDVector(3, {"CCC": 1, "DC": 2})
    assert expand_I(word_vector("CC")).prefixed("C") == CDVector(
        4, {"CCCC": 1, "CDC": 1}
    )


def test_expand_I_matches_prism_operator():
    for d in range(6):
        for w in cd_words(d):
            assert cd_flag(expand_I(word_vector(w))) == prism_flag(word_flag(w))


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
    assert to_cd_basis(square) == CDVector(2, {"CC": 1, "D": 1})


def test_to_cd_basis_round_trip():
    for d in range(7):
        for w in cd_words(d):
            assert to_cd_basis(word_flag(w)) == word_vector(w)


def test_to_cd_basis_bipyramid_solves():
    f = chain_count_flag(build_lattice(Bipyr(Simplex(3))))
    v = to_cd_basis(f)
    assert cd_flag(v) == f
    assert all(isinstance(c, int) for c in v.coeffs.values())


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
    assert cd_monomials(4) == ("cccc", "ccd", "cdc", "dcc", "dd")
    for d in range(11):
        _basis_solver(d)  # raises unless P_d has det +-1


def test_word_cd_examples():
    assert word_cd("CCC") == {"ccc": 1, "cd": 2, "dc": 2}
    assert word_cd("D") == {"d": 1}
    assert word_cd("") == {"": 1}
    with pytest.raises(ValueError):
        word_cd("CX")


def test_word_cd_matches_word_flags():
    # the fold against the flag operators, on all 2^d entries; and the peel
    # of each word flag gives its fold back
    for d in range(10):
        for w in cd_words(d):
            assert cd_index_flag(word_cd(w), d) == word_flag(w), w
            assert cd_index(word_flag(w)) == word_cd(w), w


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
    return CDVector(d, dict(zip(cd_words(d), coeffs)))


@settings(max_examples=60, deadline=None)
@given(cd_vectors())
def test_change_of_basis_round_trips(v):
    f = cd_flag(v)
    assert to_cd_basis(f) == v
    assert flag_from_h(h_of_cdvector(v)) == f


@settings(max_examples=60, deadline=None)
@given(cd_vectors(), st.data(), st.integers(-50, 50), st.integers(-50, 50))
def test_change_of_basis_is_linear(u, data, a, b):
    v = data.draw(cd_vectors(u.degree))
    f = linear_combine([(a, cd_flag(u)), (b, cd_flag(v))])
    assert to_cd_basis(f) == u.scaled(a) + v.scaled(b)
    h = h_of_cdvector(u).scaled(a) + h_of_cdvector(v).scaled(b)
    assert h_of_cdvector(u.scaled(a) + v.scaled(b)) == h
