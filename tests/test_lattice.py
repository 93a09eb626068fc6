from collections import Counter
from functools import cached_property

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
from polyhvec import lattice, oracle, verify
from polyhvec.cdwords import cd_index
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
    face_count_bound,
    is_buildable,
)
from polyhvec.oracle import FaceLattice, flag_of_lattice, interval_lattice


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


NO_D = "prod arguments must be buildable (no D operator)"


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("C(p@t)", "unexpected character '@'", 3),
        ("C(3) @", "unexpected character '@'", 5),  # the scan goes first
        (" \tC(pt", "unexpected end of input", 6),
        ("prod(D(pt),pt", "unexpected end of input", 13),  # before the D check
        ("C(3)", "expected name, found '3'", 2),
        ("simplex()", "expected num, found ')'", 8),
        ("C pt", "expected punct, found 'pt'", 2),
        ("prod(pt)", "expected ',', found ')'", 7),
        ("C)pt(", "expected '(', found ')'", 1),
        ("C(pt))", "trailing input ')'", 5),
        ("IC(frob(pt))", "unknown constructor 'frob'", 3),
        ("CIx(pt)", "unknown constructor 'CIx'", 0),
        ("cube(1234567890)", "number has more than 9 digits", 5),
        ("crosspoly(0)", "crosspoly needs n >= 1, got 0", 0),
        ("prod(pt, prod(D(pt), pt))", NO_D, 9),  # the innermost offending prod
        ("prod(D(pt),pt) x", NO_D, 0),  # checked at its ")", before the rest
    ],
)
def test_every_parse_error_has_its_message_and_position(text, message, pos):
    with pytest.raises(ExprParseError) as err:
        parse_expr(text)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_nested_products_parse_in_linear_time(monkeypatch):
    # each prod walks only the runs over its arguments, not their subtrees
    calls = []
    runs = lattice._runs
    monkeypatch.setattr(lattice, "_runs", lambda e: calls.append(e) or runs(e))
    text = "pt"
    for _ in range(200):
        text = f"prod({text},pt)"
    e = parse_expr(text)
    assert len(calls) <= 2 * 200 + 10
    assert isinstance(e, Prod) and expr_dim(e) == 0
    bad = "prod(D(pt),pt)"
    for _ in range(3):
        bad = f"prod(pt,{bad})"
    with pytest.raises(ExprParseError, match="must be buildable") as err:
        parse_expr(bad)
    assert err.value.pos == 3 * len("prod(pt,")  # the innermost offending prod


def test_nodes_equal_only_nodes_of_their_own_class():
    assert Cone(Simplex(1)) != Prism(Simplex(1))
    assert not Cone(Simplex(1)) == Prism(Simplex(1))
    assert Simplex(3) != Cube(3) and Cube(3) != Crosspoly(3)
    assert Bipyr(Pt()) != Dual(Pt()) and Dual(Pt()) != Diamond(Pt())
    assert Cone(Pt()) != (Pt(),) and (Pt(),) != Cone(Pt())
    assert Prod(Pt(), Pt()) != (Pt(), Pt())
    assert Pt() != () and () != Pt() and Pt() == Pt()
    assert Prod(Cube(2), Cone(Pt())) == Prod(Cube(2), Cone(Pt()))
    assert hash(Prod(Cube(2), Cone(Pt()))) == hash(Prod(Cube(2), Cone(Pt())))
    assert len({Cone(Pt()), Prism(Pt()), Cone(Pt())}) == 2


def test_equal_hashes_do_not_alias_cached_values():
    # Cone(x) and Prism(x) may hash alike; the caches must tell them apart
    for _ in range(2):
        assert eval_flag(Cone(Simplex(1))).values == (1, 3, 3, 6)
        assert eval_flag(Prism(Simplex(1))).values == (1, 4, 4, 8)


def test_nodes_are_immutable():
    e = Prod(Cone(Pt()), Cube(2))
    for node, field in ((e, "left"), (e, "right"), (e.left, "body"), (e.right, "n")):
        with pytest.raises(AttributeError):
            setattr(node, field, Pt())
    with pytest.raises(AttributeError):
        Pt().body = Pt()
    assert e == Prod(Cone(Pt()), Cube(2))


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
    assert len(seg.faces_of_dim(0)) == 2
    # the prism's factor, built as the cone over the point
    assert oracle._SEGMENT.dims == (-1, 0, 0, 1)
    assert oracle._SEGMENT.covers_up == ((1, 2), (3,), (3,), ())


def test_bipyramid_face_counts():
    L = build_lattice(Bipyr(Simplex(3)))
    counts = tuple(len(L.faces_of_dim(k)) for k in range(L.dim))
    assert counts == (6, 14, 16, 8)
    assert 6 - 14 + 16 - 8 == 0


def test_face_count_prediction_matches_build():
    for e in sample_expressions(4):
        assert face_count_bound(e) == len(build_lattice(e))


def test_sized_nodes_count_by_their_closed_forms():
    # the step-by-step counts against the closed forms they replaced
    for n in range(1, 13):
        assert face_count_bound(Simplex(n)) == 2 ** (n + 1)
        assert face_count_bound(Cube(n)) == 3**n + 1
        assert face_count_bound(Crosspoly(n)) == 3**n + 1


def test_nine_digit_sizes_are_counted_at_once():
    # a run of 999999998 prisms saturates the count within a few steps
    for text, dim in (
        ("cube(999999999)", 999999999),
        ("simplex(999999999)", 999999999),
        ("crosspoly(999999999)", 999999999),
        ("B(cube(999999999))", 1000000000),
        ("prod(cube(999999999),pt)", 999999999),
    ):
        e = parse_expr(text)
        assert face_count_bound(e) == 10**6 + 1, text
        assert expr_dim(e) == dim, text


def test_face_cap_rejects_huge_builds():
    with pytest.raises(FaceCountLimitError):
        build_lattice(Cube(20))
    with pytest.raises(ValueError):
        build_lattice(Diamond(Pt()))


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
    square = build_lattice(Cube(2))  # the link of the body: a one-face lattice
    assert link_flag(square, square.top) == empty_flag()


def test_lattices_are_graded_and_eulerian_small():
    for e in sample_expressions(3):
        L = build_lattice(e)
        assert is_eulerian(L), expr_str(e)


def test_a_lattice_with_an_unbalanced_interval_is_not_eulerian():
    # three vertices under one edge: 1 - 3 + 1 faces from the empty face up
    assert not is_eulerian(
        FaceLattice([-1, 0, 0, 0, 1], [(1, 2, 3), (4,), (4,), (4,), ()])
    )


def test_a_rank_skipping_cover_is_refused():
    square = build_lattice(Cube(2))
    covers = [list(ups) for ups in square.covers_up]
    covers[0].append(square.faces_of_dim(1)[0])  # the empty face under an edge
    with pytest.raises(ValueError, match="skips a rank"):
        FaceLattice(square.dims, covers)
    # a cover list missing or extra, a negative index (which would alias a face
    # counted from the end) and an index past the end
    for dims, covers, match in (
        ([-1, 0], [(1,)], "1 cover list"),
        ([-1, 0], [(1,), (), ()], "3 cover list"),
        ([-1, 0, 0, 1], [(1, 2), (3,), (-1,), ()], "face 2 by face -1 is no face"),
        ([-1, 0], [(5,), ()], "face 0 by face 5 is no face"),
        ([-1, 0], [(1.5,), ()], "face 0 by face 1.5 is no face"),
    ):
        with pytest.raises(ValueError, match=match):
            FaceLattice(dims, covers)


def test_faces_out_of_level_order_are_refused():
    # a face below the empty face, two empty faces, two bodies, a level late
    for dims in ([0, -1], [-1, -1, 0], [-1, 0, 0], [-1, 1, 0, 2]):
        with pytest.raises(ValueError, match="level by level"):
            FaceLattice(dims, [()] * len(dims))
    with pytest.raises(ValueError, match="face list is empty"):
        FaceLattice([], [])


def test_every_builder_numbers_faces_level_by_level():
    lattices = [build_lattice(e) for e in sample_expressions(5)]
    lattices += [build_lattice(Dual(e)) for e in sample_expressions(5)]
    for e in (Cube(3), Bipyr(Simplex(3))):
        L = build_lattice(e)
        lattices += [interval_lattice(L, face, L.top) for face in range(len(L))]
    for L in lattices:
        assert all(a <= b for a, b in zip(L.dims, L.dims[1:]))
        assert L.dims[0] == -1
        assert [i for i, k in enumerate(L.dims) if k == L.dim] == [len(L) - 1]
        for k in range(-1, L.dim + 1):
            run = [i for i, j in enumerate(L.dims) if j == k]
            assert list(L.faces_of_dim(k)) == run == list(range(run[0], run[-1] + 1))
        # downsets against a search up covers_up from every face
        reach = []
        for start in range(len(L)):
            reached, todo = {start}, [start]
            while todo:
                new = set(L.covers_up[todo.pop()]) - reached
                reached |= new
                todo += new
            reach.append(reached)
        for i, mask in enumerate(L.downsets):
            assert mask == sum(1 << c for c in range(len(L)) if i in reach[c])


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


def test_cached_flag_vectors_do_not_change_through_aliases():
    # both caches hand every caller the same vector; the operators must
    # leave its values alone
    for e in (Cube(3), Dual(Cone(Cube(2))), Prod(Simplex(2), Cube(2))):
        for cached in (eval_flag, flag_of_lattice):
            f = cached(e)
            cd_index(f)
            product_flag(f, f)
            dual_flag(f)
            f.scaled(2) + f.scaled(-1)
            assert cached(e) is f
            assert f == cached.__wrapped__(e)


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


def test_link_flag_rejects_faces_out_of_range():
    L = build_lattice(Cube(2))
    for face in (-1, len(L), L.bottom):
        with pytest.raises(ValueError):
            link_flag(L, face)


def brute_link_flag(L, face):
    """Every chain face < H_1 < ... < H_k of proper faces, enumerated one by one."""
    above = {}

    def strictly_above(lo):
        if lo not in above:
            found = set()
            for up in L.covers_up[lo]:
                found |= {up} | strictly_above(up)
            above[lo] = found
        return above[lo]

    base = L.dims[face] + 1
    tally = Counter()

    def walk(lo, dims):
        tally[dims] += 1
        for up in strictly_above(lo) - {L.top}:
            walk(up, dims + (L.dims[up] - base,))

    walk(face, ())
    return FlagVector(L.dim - base, tally)


def test_link_flags_match_brute_force_chain_enumeration():
    for e in sample_expressions(4) + [Prod(Simplex(2), Cube(2))]:
        L = build_lattice(e)
        assert chain_count_flag(L) == brute_link_flag(L, L.bottom), expr_str(e)
        for face in range(len(L)):
            if face != L.bottom:
                spec = brute_link_flag(L, face)
                assert link_flag(L, face) == spec, (expr_str(e), face)
                interval = interval_lattice(L, face, L.top)
                assert chain_count_flag(interval) == spec, (expr_str(e), face)


def test_packed_chain_counts_match_the_evaluation_route():
    # the widest fields the suite meets: cube(8)'s largest level, 1,792
    # faces, to the 8th power needs 87 bits
    assert build_lattice(Cube(8)).field_width == 88
    for e in (Cube(8), Simplex(8), Crosspoly(7), Prod(Simplex(4), Cube(3))):
        assert chain_count_flag(build_lattice(e)) == eval_flag(e), expr_str(e)


def test_packed_links_match_their_interval_lattices():
    for e in (Cube(6), Bipyr(Simplex(5))):
        L = build_lattice(e)
        for face in range(1, len(L)):
            spec = chain_count_flag(interval_lattice(L, face, L.top))
            assert link_flag(L, face) == spec, (expr_str(e), face)


def test_links_rebuild_no_interval_lattice(monkeypatch):
    # every link is read from the lattice's one upward chain DP
    def refuse(*_):
        raise AssertionError("an interval lattice was rebuilt")

    monkeypatch.setattr(oracle, "interval_lattice", refuse)
    assert verify.check_link_identities(6) is None
    ell = total_link_vector(build_lattice(Cube(5)))
    # the cube is simple: each of its 32 vertex links is a 4-simplex
    assert ell[5] == chain_count_flag(build_lattice(Simplex(4))).scaled(32)
    assert oracle.h_via_links(Cube(4)) == oracle.h_of_polytope(Cube(4))


def test_link_identities_catch_a_broken_chain_dp(monkeypatch):
    # euler-relation and oracle-equivalence read only the bottom face's
    # int, so a wrong vertex link shows only in the summed links
    honest = FaceLattice.link_values.func

    def broken(L):
        values = list(honest(L))
        if L.dim >= 2:
            for v in L.faces_of_dim(0):
                values[v] += 1  # field 0: the vertex's empty chain
        return tuple(values)

    wrong = cached_property(broken)
    wrong.__set_name__(FaceLattice, "link_values")
    caches = (oracle.build_lattice, oracle.flag_of_lattice)
    for cached in caches:
        cached.cache_clear()
    monkeypatch.setattr(FaceLattice, "link_values", wrong)
    try:
        found = verify.check_link_identities(6)
    finally:
        for cached in caches:
            cached.cache_clear()
    assert found == "link vector of the cone over simplex(1)"


def test_total_link_vector_is_the_flag_vector_resliced():
    # a chain whose lowest face has dimension k is that face and a chain of
    # its link, of dimension d - 1 - k, so entry d - k is the slice of sets
    # whose lowest element is k
    for e in sample_expressions(6):
        L = build_lattice(e)
        d, f = L.dim, chain_count_flag(L)
        if d < 0:
            continue
        ell = total_link_vector(L)
        assert len(ell) == d + 1
        assert ell[0] == empty_flag()
        for k in range(d):
            assert ell[d - k].values == f.values[1 << k :: 2 << k], (e, k)


def test_total_link_vector_examples():
    assert total_link_vector(build_lattice(Pt())) == (empty_flag(),)
    seg_links = total_link_vector(build_lattice(Cone(Pt())))
    assert seg_links == (empty_flag(), point_flag().scaled(2))
    tri_links = total_link_vector(build_lattice(Simplex(2)))
    segment = chain_count_flag(build_lattice(Cone(Pt())))
    assert tri_links == (empty_flag(), point_flag().scaled(3), segment.scaled(3))


def test_link_identities_small_dims():
    for e in sample_expressions(3):
        f = chain_count_flag(build_lattice(e))
        ell = total_link_vector(build_lattice(e))
        lifted = [pyramid_flag(v) for v in ell]
        cone_side = (ell[0], *(a + b for a, b in zip(ell[1:], lifted)), lifted[-1] + f)
        assert total_link_vector(build_lattice(Cone(e))) == cone_side
        twice = [v.scaled(2) for v in lifted]
        prism_side = (ell[0], *(a + b for a, b in zip(ell[1:], twice)), twice[-1])
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
    assert face_count_bound(e) == len(build_lattice(e))
    assert expr_dim(e) == build_lattice(e).dim


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
