import random

import pytest

from polyhvec import (
    FlagVector,
    GradedFlagVector,
    c_on_graded,
    d_flag,
    dual_flag,
    empty_flag,
    linear_combine,
    point_flag,
    prism_flag,
    pyramid_flag,
)

SEGMENT = pyramid_flag(point_flag())
TRIANGLE = pyramid_flag(SEGMENT)
SQUARE = prism_flag(SEGMENT)


def test_constructor_normalises_zeros():
    f = FlagVector(2, {(0,): 0, (1,): 3})
    assert f.entries == {(1,): 3}
    assert not f.is_zero()
    assert FlagVector(2, {}).is_zero()


def test_constructor_rejects_bad_dimsets():
    with pytest.raises(ValueError):
        FlagVector(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        FlagVector(2, {(2,): 1})
    with pytest.raises(ValueError):
        FlagVector(2, {(-1,): 1})
    with pytest.raises(ValueError):
        FlagVector(-2, {})


def test_extended_get_deletes_boundary_dims():
    assert SEGMENT.get((0,)) == 2
    assert SEGMENT.get((0, 1)) == 2  # the body's dimension is ignored
    assert point_flag().get((-1,)) == 1  # the empty face is ignored
    assert SEGMENT.get(()) == 1


def test_extended_get_rejects_out_of_range():
    with pytest.raises(ValueError):
        SEGMENT.get((2,))
    with pytest.raises(ValueError):
        SEGMENT.get((-2,))


def test_linear_combine_square_minus_triangle():
    diff = linear_combine([(1, SQUARE), (-1, TRIANGLE)])
    assert diff == FlagVector(2, {(0,): 1, (1,): 1, (0, 1): 2})
    assert diff.get(()) == 0


def test_linear_combine_trivia():
    assert linear_combine([(0, SQUARE)]) == FlagVector(2, {})
    assert linear_combine([(2, point_flag())]) == FlagVector(0, {(): 2})
    with pytest.raises(ValueError):
        linear_combine([(1, SQUARE), (1, point_flag())])
    with pytest.raises(ValueError):
        linear_combine([])


def test_pyramid_examples():
    assert SEGMENT == FlagVector(1, {(): 1, (0,): 2})
    assert TRIANGLE == FlagVector(2, {(): 1, (0,): 3, (1,): 3, (0, 1): 6})
    assert pyramid_flag(empty_flag()) == point_flag()


def test_prism_examples():
    assert prism_flag(point_flag()) == SEGMENT
    assert SQUARE == FlagVector(2, {(): 1, (0,): 4, (1,): 4, (0, 1): 8})
    expected = FlagVector(
        3,
        {
            (): 1,
            (0,): 6,
            (1,): 9,
            (2,): 5,
            (0, 1): 18,
            (0, 2): 18,
            (1, 2): 18,
            (0, 1, 2): 36,
        },
    )
    assert prism_flag(TRIANGLE) == expected


def test_prism_rejects_empty_polytope():
    with pytest.raises(ValueError):
        prism_flag(empty_flag())


def test_d_on_point_and_empty():
    assert d_flag(point_flag()) == FlagVector(2, {(0,): 1, (1,): 1, (0, 1): 2})
    assert d_flag(empty_flag()) == FlagVector(1, {})


def test_dual_examples():
    cube3 = prism_flag(SQUARE)
    oct3 = dual_flag(cube3)
    assert oct3 == FlagVector(
        3,
        {
            (): 1,
            (0,): 6,
            (1,): 12,
            (2,): 8,
            (0, 1): 24,
            (0, 2): 24,
            (1, 2): 24,
            (0, 1, 2): 48,
        },
    )
    assert dual_flag(oct3) == cube3
    simplex3 = pyramid_flag(TRIANGLE)
    assert dual_flag(simplex3) == simplex3
    assert oct3.get((0,)) == cube3.get((2,))
    with pytest.raises(ValueError):
        dual_flag(empty_flag())


def test_operators_are_linear():
    rng = random.Random(20240201)
    pool = [SEGMENT, d_flag(empty_flag()), prism_flag(point_flag())]
    ops = [pyramid_flag, prism_flag, d_flag, dual_flag]
    for _ in range(25):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        f, g = rng.choice(pool), rng.choice(pool)
        combo = linear_combine([(a, f), (b, g)])
        for op in ops:
            lhs = op(combo)
            rhs = linear_combine([(a, op(f)), (b, op(g))])
            assert lhs == rhs, op.__name__


def test_graded_vectors_and_c_shift():
    ell_pt = GradedFlagVector({-1: empty_flag()})
    assert c_on_graded(ell_pt) == GradedFlagVector({0: point_flag()})
    assert c_on_graded(GradedFlagVector({})) == GradedFlagVector({})

    ell_seg = GradedFlagVector({-1: empty_flag(), 0: point_flag().scaled(2)})
    shifted = c_on_graded(ell_seg)
    assert shifted == GradedFlagVector({0: point_flag(), 1: SEGMENT.scaled(2)})

    total = ell_seg + shifted.scaled(2)
    assert total.component(1) == SEGMENT.scaled(4)
    assert total.grades() == [-1, 0, 1]


def test_graded_vector_rejects_grade_mismatch():
    with pytest.raises(ValueError):
        GradedFlagVector({1: point_flag()})
