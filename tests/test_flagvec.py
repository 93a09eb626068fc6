import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhvec import (
    FlagVector,
    d_flag,
    dim_subsets,
    dual_flag,
    empty_flag,
    point_flag,
    prism_flag,
    pyramid_flag,
)
from polyhvec.cli import flag_chunks, flag_heads
from polyhvec.flagvec import sets_by_mask

SEGMENT = pyramid_flag(point_flag())
TRIANGLE = pyramid_flag(SEGMENT)
SQUARE = prism_flag(SEGMENT)


def test_constructor_normalises_zeros():
    f = FlagVector(2, {(0,): 0, (1,): 3})
    assert f.entries == {(1,): 3}


def test_constructor_rejects_bad_dimsets():
    with pytest.raises(ValueError):
        FlagVector(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        FlagVector(2, {(2,): 1})
    with pytest.raises(ValueError):
        FlagVector(2, {(-1,): 1})
    with pytest.raises(ValueError):
        FlagVector(-2, {})
    with pytest.raises(ValueError):
        FlagVector.from_values(-2, [1])


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


def test_flag_difference_square_minus_triangle():
    diff = SQUARE - TRIANGLE
    assert diff == FlagVector(2, {(0,): 1, (1,): 1, (0, 1): 2})
    assert diff.get(()) == 0


def test_flag_sum_trivia():
    assert SQUARE.scaled(0) == FlagVector(2, {})
    assert point_flag().scaled(2) == FlagVector(0, {(): 2})
    with pytest.raises(ValueError):
        SQUARE + point_flag()


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


def random_flag(rng, d):
    return FlagVector(d, {S: rng.randint(-5, 5) for S in dim_subsets(d)})


def test_operators_are_linear():
    # dims 0-6 and D outputs up to dim 6, so the cut loops run many cuts
    rng = random.Random(20240201)
    pool = [SEGMENT, d_flag(empty_flag()), prism_flag(point_flag())]
    pool += [random_flag(rng, d) for d in range(7) for _ in range(2)]
    pool += [d_flag(f) for f in pool if f.dim <= 4]
    ops = [pyramid_flag, prism_flag, d_flag, dual_flag]
    for _ in range(40):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        f = rng.choice(pool)
        g = rng.choice([h for h in pool if h.dim == f.dim])
        combo = f.scaled(a) + g.scaled(b)
        for op in ops:
            lhs = op(combo)
            rhs = op(f).scaled(a) + op(g).scaled(b)
            assert lhs == rhs, op.__name__


def _splice(lower, upper):
    # lower comes from base faces, upper from lifted faces with dimensions
    # already lowered by one; the two may share exactly their boundary value
    if lower and upper and lower[-1] == upper[0]:
        return lower + upper[1:]
    return lower + upper


def splice_pyramid(f):
    """The pyramid's chain-splice sum written out on tuple keys."""
    d = f.dim
    entries = {}
    for S in dim_subsets(d + 1):
        total = 0
        for cut in range(len(S) + 1):
            lower = S[:cut]
            upper = tuple(t - 1 for t in S[cut:])
            total += f.get(_splice(lower, upper))
        entries[S] = total
    return FlagVector(d + 1, entries)


def splice_prism(f):
    """The prism's chain-splice sum written out on tuple keys."""
    d = f.dim
    entries = {}
    for S in dim_subsets(d + 1):
        total = 0
        for cut in range(len(S) + 1):
            upper_src = S[cut:]
            if upper_src and upper_src[0] == 0:
                continue
            lower = S[:cut]
            upper = tuple(t - 1 for t in upper_src)
            count = f.get(_splice(lower, upper))
            total += 2 * count if lower else count
        entries[S] = total
    return FlagVector(d + 1, entries)


@st.composite
def flag_entries(draw):
    """A dim -1..8 and integer entries keyed by its dimension sets, sparse or dense."""
    d = draw(st.integers(-1, 8))
    sets, values = dim_subsets(d), st.integers(-30, 30)
    if draw(st.booleans()):
        return d, draw(st.dictionaries(st.sampled_from(sets), values))
    dense = st.lists(values, min_size=len(sets), max_size=len(sets))
    return d, dict(zip(sets, draw(dense)))


def integer_flags():
    """Random integer flag vectors of dim -1..8, sparse or dense."""
    return flag_entries().map(lambda entries: FlagVector(*entries))


@settings(max_examples=80, deadline=None)
@given(integer_flags())
def test_operators_match_the_splice_formulas(f):
    assert pyramid_flag(f) == splice_pyramid(f)
    cone = splice_pyramid(f)
    assert d_flag(f) == splice_prism(cone) - splice_pyramid(cone)
    if f.dim >= 0:
        assert prism_flag(f) == splice_prism(f)


@pytest.mark.parametrize("d", [9, 10, 11])
def test_slice_kernel_matches_the_splice_formulas_beyond_the_drawn_range(d):
    # every stride and block choice of the kernel at the largest dims that
    # `verify` reaches, on entries no machine word holds
    rng = random.Random(d)
    values = tuple(
        rng.choice((-1, 1)) * rng.randrange(2**64, 2**72) for _ in range(1 << d)
    )
    f = FlagVector.from_values(d, values)
    assert pyramid_flag(f) == splice_pyramid(f)
    assert prism_flag(f) == splice_prism(f)
    if d == 9:
        cone = splice_pyramid(f)
        assert d_flag(f) == splice_prism(cone) - splice_pyramid(cone)
    assert f.values is values  # the input keeps its own, unchanged tuple


def lookup_spec(entries, d, dims):
    """The extended lookup written on a dict keyed by sorted tuples."""
    if any(t < -1 or t > d for t in dims):
        raise ValueError(dims)
    return entries.get(tuple(t for t in dims if 0 <= t < d), 0)


@settings(max_examples=80, deadline=None)
@given(flag_entries(), st.data())
def test_mapping_and_value_constructors_agree(drawn, data):
    d, entries = drawn
    nonzero = {S: v for S, v in entries.items() if v}
    built = FlagVector(d, entries)
    dense = FlagVector.from_values(d, [entries.get(S, 0) for S in sets_by_mask(d)])
    assert built == dense
    assert built.entries == dense.entries == nonzero
    in_order = [(S, nonzero[S]) for S in dim_subsets(d) if S in nonzero]
    assert built.items() == dense.items() == in_order
    # the writers' order: `dim_subsets`, one set size at a time, each set's
    # head beside its own value
    levels = [[S for S in dim_subsets(d) if len(S) == r] for r in range(max(d, 0) + 1)]
    written = flag_chunks(dense, flag_heads(d, "<", ">"), ";")
    rows = [[f"<{','.join(map(str, S))}>{dense.get(S)}" for S in L] for L in levels]
    assert list(written) == list(map(";".join, rows))
    assert hash(built) == hash(dense)
    assert repr(built) == repr(dense)
    # unsorted and repeated elements too, and -1 and d anywhere
    query = st.lists(st.integers(-1, d), max_size=max(d, 0) + 3)
    for dims in data.draw(st.lists(query, max_size=20)):
        for q in (dims, sorted(set(dims))):
            assert dense.get(q) == lookup_spec(entries, d, q), q
    for dims in ([-2], [d + 1], [0, d + 1], [d + 1, 0, 0]):
        with pytest.raises(ValueError):
            dense.get(dims)
    for wrong in (dense.values[:-1], dense.values + (0,)):
        with pytest.raises(ValueError):
            FlagVector.from_values(d, wrong)
