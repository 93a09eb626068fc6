import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyhvec import (
    ExprParseError,
    FaceCountLimitError,
    FlagVector,
    build_lattice,
    chain_count_flag,
    d_flag,
    dual_flag,
    empty_flag,
    eval_flag,
    expr_dim,
    expr_str,
    is_eulerian,
    link_flag,
    parse_expr,
    point_flag,
    prism_flag,
    product_flag,
    pyramid_flag,
    sample_expressions,
    total_link_vector,
)
from polyhvec.cdwords import cd_index
from polyhvec.flagvec import GradedFlagVector, c_on_graded
from polyhvec.lattice import (
    Bipyr,
    Cone,
    Crosspoly,
    Cube,
    Diamond,
    Dual,
    Prism,
    Prod,
    Pt,
    Simplex,
    eval_cd,
    face_count,
    flag_of_lattice,
    is_buildable,
)


def test_parse_basic_forms():
    assert parse_expr("pt") == Pt()
    assert parse_expr("C(pt)") == Cone(Pt())
    assert parse_expr("I(C(pt))") == Prism(Cone(Pt()))
    assert parse_expr("B(simplex(3))") == Bipyr(Simplex(3))
    assert parse_expr("dual(cube(3))") == Dual(Cube(3))
    assert parse_expr("prod(simplex(2), cube(2))") == Prod(Simplex(2), Cube(2))
    assert parse_expr("simplex(0)") == Simplex(0)


def test_parse_word_shorthand():
    # a word is sugar for nested nodes, applied right to left
    assert parse_expr("CIC(pt)") == parse_expr("C(I(C(pt)))")
    assert parse_expr("CIC(pt)") == Cone(Prism(Cone(Pt())))
    assert parse_expr("CD(pt)") == Cone(Diamond(Pt()))
    assert parse_expr("D(pt)") == Diamond(Pt())


def test_parse_is_whitespace_insensitive():
    assert parse_expr(" prod( simplex( 2 ) ,cube(2) ) ") == Prod(
        Simplex(2), Cube(2)
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ExprParseError) as err:
        parse_expr("C(pt")
    assert err.value.pos == 4
    with pytest.raises(ExprParseError) as err:
        parse_expr("frob(pt)")
    assert err.value.pos == 0
    with pytest.raises(ExprParseError):
        parse_expr("pt pt")
    with pytest.raises(ExprParseError):
        parse_expr("cube(0)")
    with pytest.raises(ExprParseError):
        parse_expr("crosspoly(0)")
    with pytest.raises(ExprParseError):
        parse_expr("Pt")  # case sensitive
    with pytest.raises(ExprParseError):
        parse_expr("simplex(x)")
    with pytest.raises(ExprParseError):
        parse_expr("")


def test_expr_str_round_trips():
    for e in sample_expressions(5):
        assert parse_expr(expr_str(e)) == e


def test_expr_dim():
    assert expr_dim(parse_expr("pt")) == 0
    assert expr_dim(parse_expr("B(simplex(3))")) == 4
    assert expr_dim(parse_expr("CD(pt)")) == 3
    assert expr_dim(parse_expr("prod(cube(2),simplex(3))")) == 5


def test_point_and_segment_lattices():
    L = build_lattice(Pt())
    assert len(L) == 2
    seg = build_lattice(Cone(Pt()))
    assert len(seg) == 4
    assert seg.face_counts() == (2,)


def test_bipyramid_face_counts():
    L = build_lattice(Bipyr(Simplex(3)))
    counts = L.face_counts()
    assert counts == (6, 14, 16, 8)
    assert 6 - 14 + 16 - 8 == 0


def test_face_count_prediction_matches_build():
    for e in sample_expressions(4):
        assert face_count(e) == len(build_lattice(e))


def test_face_cap_rejects_huge_builds():
    with pytest.raises(FaceCountLimitError):
        build_lattice(Cube(20))
    with pytest.raises(ValueError):
        face_count(Diamond(Pt()))


def test_chain_count_examples():
    assert chain_count_flag(build_lattice(Cone(Pt()))) == FlagVector(
        1, {(): 1, (0,): 2}
    )
    cube3 = chain_count_flag(build_lattice(Cube(3)))
    assert cube3.get((0, 1, 2)) == 48
    # the cube is simple: complete chains = 2 * vertex-edge chains
    assert cube3.get((0, 1, 2)) == 2 * cube3.get((0, 1))
    bp = chain_count_flag(build_lattice(Bipyr(Simplex(3))))
    assert [bp.get((i,)) for i in range(4)] == [6, 14, 16, 8]


def test_lattices_are_graded_and_eulerian_small():
    for e in sample_expressions(3):
        L = build_lattice(e)
        L.check_graded()
        assert is_eulerian(L), expr_str(e)


def test_euler_relation_dim_up_to_4():
    for e in sample_expressions(4):
        f = chain_count_flag(build_lattice(e))
        d = f.dim
        assert sum((-1) ** i * f.get((i,)) for i in range(d)) == 1 - (-1) ** d


def test_operator_oracle_small_dims():
    for e in sample_expressions(3):
        f = chain_count_flag(build_lattice(e))
        assert chain_count_flag(build_lattice(Cone(e))) == pyramid_flag(f)
        assert chain_count_flag(build_lattice(Prism(e))) == prism_flag(f)
        assert chain_count_flag(build_lattice(Dual(e))) == dual_flag(f)


def test_eval_flag_agrees_with_chain_counting():
    for e in sample_expressions(4):
        assert eval_flag(e) == chain_count_flag(build_lattice(e))


def test_link_examples():
    seg = build_lattice(Cone(Pt()))
    vertex = seg.faces_of_dim(0)[0]
    assert link_flag(seg, vertex) == point_flag()
    assert link_flag(seg, seg.top) == empty_flag()
    with pytest.raises(ValueError):
        link_flag(seg, seg.bottom)

    cube3 = build_lattice(Cube(3))
    vertex = cube3.faces_of_dim(0)[0]
    triangle = chain_count_flag(build_lattice(Simplex(2)))
    assert link_flag(cube3, vertex) == triangle


def test_total_link_vector_examples():
    assert total_link_vector(build_lattice(Pt())) == GradedFlagVector(
        {-1: empty_flag()}
    )
    seg_links = total_link_vector(build_lattice(Cone(Pt())))
    assert seg_links == GradedFlagVector(
        {-1: empty_flag(), 0: point_flag().scaled(2)}
    )
    tri_links = total_link_vector(build_lattice(Simplex(2)))
    segment = chain_count_flag(build_lattice(Cone(Pt())))
    assert tri_links == GradedFlagVector(
        {-1: empty_flag(), 0: point_flag().scaled(3), 1: segment.scaled(3)}
    )


def test_link_identities_small_dims():
    for e in sample_expressions(3):
        f = chain_count_flag(build_lattice(e))
        ell = total_link_vector(build_lattice(e))
        cone_side = ell + c_on_graded(ell) + GradedFlagVector({f.dim: f})
        assert total_link_vector(build_lattice(Cone(e))) == cone_side
        prism_side = ell + c_on_graded(ell).scaled(2)
        assert total_link_vector(build_lattice(Prism(e))) == prism_side


# ---------------------------------------------------------------------------
# randomized oracles


@st.composite
def expressions(draw, dim, virtual=True, depth=0):
    """A random expression of one dimension over every node; D only if virtual."""
    kinds = ["simplex"]
    if dim == 0:
        kinds.append("pt")
    else:
        kinds += ["cube", "crosspoly", "C", "I", "B", "prod"]
    if dim >= 2 and virtual:
        kinds.append("D")
    if depth < 3:
        kinds.append("dual")
    kind = draw(st.sampled_from(kinds))
    if kind == "pt":
        return Pt()
    if kind in ("simplex", "cube", "crosspoly"):
        return {"simplex": Simplex, "cube": Cube, "crosspoly": Crosspoly}[kind](dim)
    if kind == "dual":
        return Dual(draw(expressions(dim, virtual, depth + 1)))
    if kind == "prod":
        left = draw(st.integers(0, dim))
        return Prod(
            draw(expressions(left, False, depth + 1)),
            draw(expressions(dim - left, False, depth + 1)),
        )
    if kind == "D":
        return Diamond(draw(expressions(dim - 2, virtual, depth + 1)))
    node = {"C": Cone, "I": Prism, "B": Bipyr}[kind]
    return node(draw(expressions(dim - 1, virtual, depth + 1)))


def any_expression(virtual=True):
    return st.integers(0, 5).flatmap(lambda d: expressions(d, virtual))


@settings(max_examples=200, deadline=None)
@given(any_expression())
def test_random_expressions_round_trip(e):
    assert parse_expr(expr_str(e)) == e


@settings(max_examples=60, deadline=None)
@given(any_expression(virtual=False))
def test_random_operator_values_match_chain_counting(e):
    assert is_buildable(e)
    assert eval_flag(e) == flag_of_lattice(e)


FLAG_OPERATORS = {
    Cone: pyramid_flag,
    Prism: prism_flag,
    Bipyr: lambda f: dual_flag(prism_flag(dual_flag(f))),
    Dual: dual_flag,
    Diamond: d_flag,
}


def operator_flag(e):
    """Flag vector of e by the flag operators, with products chain-counted."""
    if type(e) in FLAG_OPERATORS:
        return FLAG_OPERATORS[type(e)](operator_flag(e.body))
    if isinstance(e, Prod):
        return flag_of_lattice(e)
    f = point_flag()
    if isinstance(e, Pt):
        return f
    if isinstance(e, Simplex):
        for _ in range(e.n):
            f = pyramid_flag(f)
        return f
    f = pyramid_flag(f)  # a cube or a cross-polytope
    for _ in range(e.n - 1):
        f = prism_flag(f)
    return dual_flag(f) if isinstance(e, Crosspoly) else f


@settings(max_examples=100, deadline=None)
@given(any_expression())
def test_cd_index_evaluation_matches_flag_operators(e):
    # the cd-index steps against the flag operators, D included
    assert eval_flag(e) == operator_flag(e)
    assert cd_index(eval_flag(e)) == eval_cd(e)


@st.composite
def factor_pairs(draw, max_dim=6):
    """Two buildable expressions, nested products included, of total dim <= max_dim."""
    p = draw(st.integers(0, max_dim))
    q = draw(st.integers(0, max_dim - p))
    return draw(expressions(p, virtual=False)), draw(expressions(q, virtual=False))


@settings(max_examples=60, deadline=None)
@given(factor_pairs())
def test_product_flag_matches_product_lattices(pair):
    a, b = pair
    got = product_flag(flag_of_lattice(a), flag_of_lattice(b))
    assert got == flag_of_lattice(Prod(a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(expressions), st.integers(0, 4).flatmap(expressions))
def test_product_flag_identities(a, b):
    # the product is bilinear, so the identities hold for virtual vectors too
    f, g = eval_flag(a), eval_flag(b)
    assert product_flag(f, g) == product_flag(g, f)
    assert product_flag(f, point_flag()) == f == product_flag(point_flag(), f)
    assert product_flag(f, eval_flag(Cube(1))) == eval_flag(Prism(a))


@settings(max_examples=100, deadline=None)
@given(
    st.text("CID", min_size=1, max_size=6), st.integers(0, 2).flatmap(expressions)
)
def test_word_spelling_is_its_nested_spelling(letters, body):
    inner = expr_str(body)
    nested = "".join(f"{letter}(" for letter in letters) + inner + ")" * len(letters)
    assert parse_expr(f"{letters}({inner})") == parse_expr(nested)


GRAMMAR_PIECES = [
    "pt", "C", "I", "D", "B", "CD", "IC", "dual", "prod", "simplex", "cube",
    "crosspoly", "(", ")", ",", " ", "0", "2", "x", "@",
]  # fmt: skip
EDITS = st.tuples(st.integers(0, 80), st.integers(0, 4), st.sampled_from(GRAMMAR_PIECES))


def apply_edits(text, edits):
    """Grammar text with a few pieces cut out or pasted in."""
    for pos, cut, piece in edits:
        text = text[:pos] + piece + text[pos + cut :]
    return text


@settings(max_examples=300, deadline=None)
@given(any_expression(), st.lists(EDITS, max_size=3))
def test_edited_text_parses_or_fails_cleanly(e, edits):
    text = apply_edits(expr_str(e), edits)
    try:
        got = parse_expr(text)
    except ExprParseError:
        return
    assert parse_expr(expr_str(got)) == got
