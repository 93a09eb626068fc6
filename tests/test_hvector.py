import random
from fractions import Fraction

import pytest

from polyhvec import (
    CDVector,
    EMPTY_KEY,
    FaceCountLimitError,
    HPoly,
    Key,
    KeyedPoly,
    angle,
    cd_from_h,
    cd_words,
    coordinate_basis,
    flag_from_h,
    g_of_word,
    h_coordinates,
    h_matrix,
    h_of_cdvector,
    h_of_flag,
    h_of_polytope,
    h_of_word,
    h_via_links,
    simple_h,
    to_cd_basis,
    toric_h_of_word,
    toric_of_polytope,
    word_coordinate,
    word_flag,
)
from polyhvec.hpoly import ONE, X, XY, Y, monomial, palindromic_decompose
from polyhvec import hvector, oracle
from polyhvec.hvector import g_of_cdvector
from polyhvec.lattice import (
    Bipyr,
    Cone,
    Cube,
    Prism,
    Prod,
    Pt,
    Simplex,
    parse_expr,
)
from polyhvec.linalg import mat_det
from polyhvec.oracle import flag_of_lattice, sample_expressions
from polyhvec.verify import (
    GOLDEN_BIPYRAMID,
    GOLDEN_CONE_DIFFERENCE,
    GOLDEN_PRISM_CONE,
    GOLDEN_WORD_H,
    KEY_01,
)

WORD_COUNTS = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_h_of_point_and_small_words():
    assert h_of_word("") == KeyedPoly(0, {EMPTY_KEY: ONE})
    assert h_of_word("C") == KeyedPoly(1, {EMPTY_KEY: HPoly([1, 1])})
    assert h_of_word("D") == KeyedPoly(2, {EMPTY_KEY: XY})
    for w, expected in GOLDEN_WORD_H.items():
        assert h_of_word(w) == expected


def test_g_examples():
    assert g_of_word("") == KeyedPoly(1, {EMPTY_KEY: Y})
    # diamond over the point: one angle term plus one fresh key
    assert g_of_word("D") == KeyedPoly(
        3, {EMPTY_KEY: monomial(1, 2), Key((0,), (0,)): ONE}
    )
    assert g_of_word("DC") == KeyedPoly(
        4, {EMPTY_KEY: monomial(1, 3), Key((0,), (1,)): ONE}
    )
    assert g_of_word("C") == KeyedPoly(2, {EMPTY_KEY: monomial(0, 2)})


def test_cone_difference_value():
    combo = h_of_word("CCD") - h_of_word("CDC")
    assert combo == GOLDEN_CONE_DIFFERENCE
    # same value through explicit linearity over a CD combination
    v = CDVector(4, {"CCD": 1, "CDC": -1})
    assert h_of_cdvector(v) == GOLDEN_CONE_DIFFERENCE


def test_toric_examples():
    assert toric_h_of_word("CC") == HPoly([1, 1, 1])
    assert toric_h_of_word("CD") == angle(1, 1)
    assert toric_h_of_word("DD") == HPoly([0, 0, 1, 0, 0])
    assert toric_h_of_word("") == ONE


def test_toric_is_key_e_component():
    for d in range(8):
        for w in cd_words(d):
            assert h_of_word(w).component(EMPTY_KEY) == toric_h_of_word(w)


def test_h_of_cube_is_power_of_x_plus_y():
    got = h_of_polytope(Cube(3))
    assert got == KeyedPoly(3, {EMPTY_KEY: HPoly([1, 3, 3, 1])})
    assert h_of_polytope(Cube(4)).component(EMPTY_KEY) == HPoly([1, 4, 6, 4, 1])


def test_h_of_prism_cone_four_polytope():
    assert h_of_polytope(Cone(Prism(Cone(Cone(Pt()))))) == GOLDEN_PRISM_CONE


def test_h_of_bipyramid_forced_by_linearity():
    # CD-expansion of the bipyramid over the 3-simplex: no DD term
    f = flag_of_lattice(Bipyr(Simplex(3)))
    assert to_cd_basis(f) == CDVector(
        4, {"CCCC": 1, "CCD": 6, "CDC": -4, "DCC": 1}
    )
    # hence h = h(CCCC) + 6 h(CCD) - 4 h(CDC) + h(DCC)
    assert h_of_polytope(Bipyr(Simplex(3))) == GOLDEN_BIPYRAMID
    assert toric_of_polytope(Bipyr(Simplex(3))) == HPoly([1, 4, 4, 4, 1])


def test_sign_of_deepest_key_coefficients():
    hp = h_of_polytope(Bipyr(Simplex(3))).component(KEY_01)
    hq = h_of_polytope(Cone(Prism(Cone(Cone(Pt()))))).component(KEY_01)
    assert hp == HPoly([-4])
    assert hq == HPoly([1])
    assert hp.coeffs[0] * hq.coeffs[0] < 0


def test_h_via_links_examples():
    assert h_via_links(Pt()) == KeyedPoly(0, {EMPTY_KEY: ONE})
    assert h_via_links(Cone(Pt())) == KeyedPoly(1, {EMPTY_KEY: X + Y})
    assert h_via_links(Bipyr(Simplex(3))) == h_of_polytope(Bipyr(Simplex(3)))


def test_face_sum_expands_each_distinct_link_once(monkeypatch):
    # the work of the face-sum route, as a count: a k-face of cube(5) has a
    # (4 - k)-simplex for its link, so 242 proper faces have 5 distinct links
    calls = []
    real = oracle.to_cd_basis

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(oracle, "to_cd_basis", counted)
    for e, expanded in ((Cube(5), 5), (Bipyr(Simplex(4)), 8)):
        calls.clear()
        h = h_via_links(e)
        assert len(calls) == expanded, e
        assert h == h_of_polytope(e)


def test_route_independence_small_dims():
    for e in sample_expressions(4):
        assert h_via_links(e) == h_of_polytope(e)


def test_h_coordinates_examples():
    vec = h_coordinates(h_of_word("DD"))
    coords = coordinate_basis(4)
    nonzero = {coords[i]: v for i, v in enumerate(vec) if v}
    assert nonzero == {(2, 0, EMPTY_KEY): 1}

    vec = h_coordinates(h_of_word("CD"))
    coords = coordinate_basis(3)
    nonzero = {coords[i]: v for i, v in enumerate(vec) if v}
    assert nonzero == {(1, 1, EMPTY_KEY): 1, (0, 0, Key((0,), (0,))): 1}

    vec = h_coordinates(h_of_word(""))
    assert vec == [1]


def test_coordinate_basis_counts_match_words():
    for d in range(11):
        assert len(coordinate_basis(d)) == WORD_COUNTS[d], d


def test_coordinate_basis_dim4_order():
    assert coordinate_basis(4) == (
        (0, 4, EMPTY_KEY),
        (1, 2, EMPTY_KEY),
        (2, 0, EMPTY_KEY),
        (0, 1, Key((0,), (0,))),
        (0, 0, Key((0,), (1,))),
    )


def test_keys_of_degree():
    # the keys of coordinate_basis(6), in sort_key order, by degree
    keys = list(dict.fromkeys(key for _, _, key in coordinate_basis(6)))
    assert keys == sorted(keys, key=Key.sort_key)
    of_degree = {m: [k for k in keys if k.degree == m] for m in range(7)}
    assert of_degree[0] == [EMPTY_KEY]
    assert of_degree[1] == []
    assert of_degree[3] == [Key((0,), (0,))]
    assert set(of_degree[6]) == {
        Key((0,), (3,)),
        Key((1,), (1,)),
        Key((0, 0), (0, 0)),
    }


def test_word_coordinate_examples_and_inverse():
    assert word_coordinate("") == (0, 0, EMPTY_KEY)
    assert word_coordinate("DDCC") == (2, 2, EMPTY_KEY)
    assert word_coordinate("CDD") == (0, 0, Key((1,), (0,)))
    assert word_coordinate("CCDC") == (0, 1, Key((0,), (1,)))
    assert word_coordinate("DCCDDCCDC") == (1, 1, Key((1, 0), (1, 1)))
    # D^i C^j B_1 ... B_r with B_k = C D^(a_k+1) C^(b_k) gives the word back
    for d in range(13):
        for w in cd_words(d):
            i, j, key = word_coordinate(w)
            blocks = "".join(
                "C" + "D" * (a + 1) + "C" * b for a, b in zip(key.ds, key.cs)
            )
            assert "D" * i + "C" * j + blocks == w


def test_h_matrix_small():
    assert h_matrix(0) == [[1]]
    m3 = h_matrix(3)
    assert len(m3) == 3 and len(m3[0]) == 3
    assert mat_det(m3) in (1, -1)
    m4 = h_matrix(4)
    assert len(m4) == 5
    assert mat_det(m4) in (1, -1)


def test_h_matrix_is_permuted_unitriangular():
    # h(w) has 1 at w's own coordinate, and every other coordinate it meets
    # has a key of lower (degree, length) rank: the order the peel takes
    def rank(key):
        return key.degree, len(key.ds)

    for d in range(15):
        coords = coordinate_basis(d)
        for w, row in zip(cd_words(d), h_matrix(d)):
            own = word_coordinate(w)
            assert row[coords.index(own)] == 1, w
            for c, v in zip(coords, row):
                assert not v or c == own or rank(c[2]) < rank(own[2]), (w, c)


def test_peel_round_trips_to_degree_12():
    rng = random.Random(1729)
    for d in range(13):
        words = cd_words(d)
        for _ in range(3):
            v = CDVector(d, {w: rng.randint(-99, 99) for w in words})
            assert cd_from_h(h_of_cdvector(v)) == v


def test_flag_from_h_raises_on_a_leftover(monkeypatch):
    # a row with an entry at a coordinate peeled before it leaves a remainder
    for w in cd_words(3):
        h_of_word(w)  # fill the cache, so the patch reaches no recursion
    real = hvector.h_of_word
    extra = KeyedPoly(3, {Key((0,), (0,)): ONE})
    monkeypatch.setattr(
        hvector, "h_of_word", lambda w: real(w) + extra if w == "DC" else real(w)
    )
    hvector._peel_order.cache_clear()  # its h-rows then come from the patch
    try:
        with pytest.raises(ValueError, match="remainder"):
            flag_from_h(real("DC"))
    finally:
        hvector._peel_order.cache_clear()


def test_flag_from_h_round_trips():
    for d in range(7):
        for w in cd_words(d):
            assert flag_from_h(h_of_word(w)) == word_flag(w)
    for e in sample_expressions(4):
        f = flag_of_lattice(e)
        assert flag_from_h(h_of_flag(f)) == f


def test_flag_from_h_of_golden_bipyramid_value():
    assert flag_from_h(GOLDEN_BIPYRAMID) == flag_of_lattice(Bipyr(Simplex(3)))


def test_flag_from_h_rejects_garbage():
    from polyhvec.errors import NotPalindromicError

    with pytest.raises(NotPalindromicError):
        flag_from_h(KeyedPoly(1, {EMPTY_KEY: X}))


def test_flag_from_h_refuses_an_over_cap_value_before_the_peel(monkeypatch):
    value = h_of_word("C" * 13)

    def refuse(_):
        raise AssertionError("an over-cap h-value was peeled")

    monkeypatch.setattr(hvector, "_peel_order", refuse)
    for recover in (cd_from_h, flag_from_h):
        with pytest.raises(FaceCountLimitError):
            recover(value)


def test_prism_law_on_polytopes():
    xy_sum = HPoly([1, 1])
    for e in sample_expressions(4):
        assert h_of_polytope(Prism(e)) == h_of_polytope(e).mul_poly(xy_sum)


def test_g_from_h_to_degree_9():
    for d in range(10):
        for w in cd_words(d):
            assert g_of_word(w) == h_of_word("C" + w) - h_of_word(w).mul_poly(X)


def test_cc_law():
    # decomposition of h(CC w) is that of h(C w) with every j bumped
    for d in range(8):
        for w in cd_words(d):
            base = h_of_word("C" + w)
            bumped = {}
            for key, poly in base.terms.items():
                for i, j, lam in palindromic_decompose(poly):
                    if lam:
                        cur = bumped.get(key)
                        term = angle(i, j + 1).scaled(lam)
                        bumped[key] = term if cur is None else cur + term
            assert h_of_word("CC" + w) == KeyedPoly(base.dim + 1, bumped)


def test_cd_law():
    # each angle(i, j) w_k term of h(w) turns into angle(i+1, j+1) w_k + w_k'
    for d in range(8):
        for w in cd_words(d):
            base = h_of_word(w)
            acc = {}

            def add(key, poly):
                cur = acc.get(key)
                acc[key] = poly if cur is None else cur + poly

            for key, poly in base.terms.items():
                for i, j, lam in palindromic_decompose(poly):
                    if lam:
                        add(key, angle(i + 1, j + 1).scaled(lam))
                        add(key.primed(i, j), HPoly([lam]))
            assert h_of_word("CD" + w) == KeyedPoly(base.dim + 3, acc)


def test_g_of_cdvector_matches_links_route():
    v = CDVector(2, {"CC": 1, "D": 1})  # the square
    assert g_of_cdvector(v) == g_of_word("CC") + g_of_word("D")


def test_product_law_small():
    for a in (Cube(1), Simplex(2)):
        for b in (Simplex(3), Bipyr(Simplex(2))):
            got = h_of_polytope(Prod(a, b))
            assert got == h_of_polytope(a) * h_of_polytope(b)


def test_simple_polytope_formula_on_simple_polytopes():
    simple = [Cube(n) for n in range(1, 5)]
    simple += [Prism(Simplex(2)), Prod(Simplex(2), Simplex(2)), Simplex(3)]
    for e in simple:
        f = flag_of_lattice(e)
        assert KeyedPoly(f.dim, {EMPTY_KEY: simple_h(f)}) == h_of_polytope(e)


def test_h_of_flag_accepts_virtual_input():
    # h of the bare diamond flag vector equals h of the word D
    assert h_of_flag(word_flag("D")) == h_of_word("D")


def test_exact_arithmetic_stays_integral():
    f = flag_of_lattice(parse_expr("prod(cube(2),simplex(2))"))
    v = to_cd_basis(f)
    assert all(not isinstance(c, Fraction) for c in v.coeffs.values())


def test_round_trips_on_random_combinations():
    import random

    from polyhvec import cd_flag

    rng = random.Random(90125)
    for degree in range(3, 7):
        words = cd_words(degree)
        for _ in range(10):
            v = CDVector(
                degree, {w: rng.randint(-9, 9) for w in rng.sample(words, 3)}
            )
            f = cd_flag(v)
            assert to_cd_basis(f) == v
            h = h_of_cdvector(v)
            assert h_of_flag(f) == h
            assert flag_from_h(h) == f
