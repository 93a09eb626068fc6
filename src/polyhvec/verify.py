"""Named verification suites behind the ``verify`` CLI command.

Each suite walks a finite family (CD-words up to a degree, or the
deterministic sample of buildable expressions) and returns the first
counterexample as a string, or None when everything holds.  Word-level
suites scale with --max-dim; lattice-backed suites stay capped at the
desk-scale dimensions (6, or 5 where links are involved) regardless,
since face counts grow too fast beyond that for a smoke run.
"""

from __future__ import annotations

from operator import add

from .cdwords import cd_words, word_degree, word_vector
from .flagvec import product_flag
from .hpoly import EMPTY_KEY, HPoly, Key, KeyedPoly, ONE, X, angle
from .hvector import flag_from_h, g_of_word, h_of_cdvector, h_of_word, toric_h_of_word
from .lattice import Bipyr, Cone, Cube, Dual, Expr, Prism, Prod, Pt, Simplex
from .lattice import eval_flag, expr_dim, expr_str
from .linalg import mat_det, mat_rank
from .oracle import basis_matrix, build_lattice, cd_flag, d_flag, dual_flag, expand_I
from .oracle import flag_of_lattice, h_matrix, h_of_flag, h_of_polytope, h_via_links
from .oracle import prism_flag, pyramid_flag, sample_expressions, to_cd_basis
from .oracle import total_link_vector, word_flag

LATTICE_DIM_CAP = 6
LINK_DIM_CAP = 5

KEY_00 = Key((0,), (0,))
KEY_01 = Key((0,), (1,))

# pinned h-values of small words and two four-dimensional polytopes
GOLDEN_WORD_H = {
    "": KeyedPoly(0, {EMPTY_KEY: ONE}),
    "DC": KeyedPoly(3, {EMPTY_KEY: angle(1, 1)}),
    "CD": KeyedPoly(3, {EMPTY_KEY: angle(1, 1), KEY_00: ONE}),
    "CCD": KeyedPoly(4, {EMPTY_KEY: angle(1, 2), KEY_00: angle(0, 1)}),
    "CDC": KeyedPoly(4, {EMPTY_KEY: angle(1, 2), KEY_01: ONE}),
}
# h of the bipyramid over the 3-simplex.  The CD-expansion of its flag
# vector is CCCC + 6 CCD - 4 CDC + DCC (no DD term), which forces the
# key-e part [1,4,4,4,1] by linearity from the word values above.
GOLDEN_BIPYRAMID = KeyedPoly(
    4,
    {
        EMPTY_KEY: HPoly([1, 4, 4, 4, 1]),
        KEY_00: HPoly([6, 6]),
        KEY_01: HPoly([-4]),
    },
)
GOLDEN_PRISM_CONE = KeyedPoly(4, {EMPTY_KEY: HPoly([1, 2, 2, 2, 1]), KEY_01: ONE})
GOLDEN_CONE_DIFFERENCE = KeyedPoly(4, {KEY_00: angle(0, 1), KEY_01: HPoly([-1])})

BIPYRAMID_OVER_3SIMPLEX: Expr = Bipyr(Simplex(3))
PRISM_CONE_4: Expr = Cone(Prism(Cone(Cone(Pt()))))


def _words_up_to(max_degree: int):
    for d in range(max_degree + 1):
        yield from cd_words(d)


def check_golden(max_dim: int):
    for w, expected in GOLDEN_WORD_H.items():
        if expected.dim > max_dim:
            continue
        got = h_of_word(w)
        if got != expected:
            return f"h({w or 'pt'}) = {got}, pinned value {expected}"
    if max_dim >= 4:
        combo = h_of_word("CCD") - h_of_word("CDC")
        if combo != GOLDEN_CONE_DIFFERENCE:
            return f"h(CCD) - h(CDC) = {combo}, pinned {GOLDEN_CONE_DIFFERENCE}"
        got = h_of_polytope(BIPYRAMID_OVER_3SIMPLEX)
        if got != GOLDEN_BIPYRAMID:
            return f"h(bipyramid over 3-simplex) = {got}, pinned {GOLDEN_BIPYRAMID}"
        got = h_of_polytope(PRISM_CONE_4)
        if got != GOLDEN_PRISM_CONE:
            return f"h(C(I(C(C(pt))))) = {got}, pinned {GOLDEN_PRISM_CONE}"
    return None


def check_euler(max_dim: int):
    for e in sample_expressions(min(max_dim, LATTICE_DIM_CAP)):
        f = flag_of_lattice(e)
        d = f.dim
        total = sum((-1) ** i * f.get((i,)) for i in range(d))
        if total != 1 - (-1) ** d:
            return f"{expr_str(e)}: alternating face sum {total}"
    return None


def check_oracle(max_dim: int):
    cap = min(max_dim, LATTICE_DIM_CAP)
    for e in sample_expressions(cap - 1):
        f = flag_of_lattice(e)
        if flag_of_lattice(Cone(e)) != pyramid_flag(f):
            return f"pyramid vs lattice cone on {expr_str(e)}"
        if flag_of_lattice(Prism(e)) != prism_flag(f):
            return f"prism vs lattice product on {expr_str(e)}"
    for e in sample_expressions(cap):
        if eval_flag(e) != flag_of_lattice(e):
            return f"cd-index evaluation vs lattice on {expr_str(e)}"
        if flag_of_lattice(Dual(e)) != dual_flag(flag_of_lattice(e)):
            return f"duality vs lattice reversal on {expr_str(e)}"
        if isinstance(e, Prod):
            f = product_flag(flag_of_lattice(e.left), flag_of_lattice(e.right))
            if f != flag_of_lattice(e):
                return f"product of factor flags vs product lattice on {expr_str(e)}"
    return None


def link_identity_family(max_dim: int) -> list[Expr]:
    """Bases whose cone and prism stay within the lattice cap."""
    return sample_expressions(min(max_dim - 1, LATTICE_DIM_CAP - 1))


def check_link_identities(max_dim: int):
    cap = min(max_dim, LATTICE_DIM_CAP)
    for e in link_identity_family(cap):
        f = flag_of_lattice(e)
        ell = total_link_vector(build_lattice(e))
        lifted = [pyramid_flag(v) for v in ell]  # one link dimension up
        cone_side = (ell[0], *map(add, ell[1:], lifted), lifted[-1] + f)
        if total_link_vector(build_lattice(Cone(e))) != cone_side:
            return f"link vector of the cone over {expr_str(e)}"
        twice = [v.scaled(2) for v in lifted]
        prism_side = (ell[0], *map(add, ell[1:], twice), twice[-1])
        if total_link_vector(build_lattice(Prism(e))) != prism_side:
            return f"link vector of the prism over {expr_str(e)}"
    return None


def check_palindromic(max_dim: int):
    for w in _words_up_to(max_dim):
        h = h_of_word(w)
        for key, poly in h.terms.items():
            if not poly.is_palindromic():
                return f"h({w}) component {key} = {poly.bracket()}"
            if key.degree + poly.degree != h.dim:
                return f"h({w}) degree bookkeeping fails at key {key}"
    return None


def check_toric_agreement(max_dim: int):
    for w in _words_up_to(max_dim):
        he = h_of_word(w).component(EMPTY_KEY)
        toric = toric_h_of_word(w)
        if he != toric:
            return f"{w or 'pt'}: {he.bracket()} != toric {toric.bracket()}"
    return None


def check_commutation(max_dim: int):
    for w in _words_up_to(max_dim):
        v = word_flag(w)
        if d_flag(prism_flag(v)) != prism_flag(d_flag(v)):
            return f"DI != ID on word {w or 'pt'}"
    return None


def check_prism_laws(max_dim: int):
    xy_sum = HPoly([1, 1])
    for w in _words_up_to(max_dim):
        n = word_degree(w)
        expansion = expand_I(word_vector(w), n)
        if prism_flag(word_flag(w)) != cd_flag(expansion, n + 1):
            return f"flag expansion of I({w or 'pt'})"
        if h_of_cdvector(expansion, n + 1) != h_of_word(w).mul_poly(xy_sum):
            return f"h(I({w or 'pt'})) != (x+y) h({w or 'pt'})"
        if g_of_word(w) != h_of_word("C" + w) - h_of_word(w).mul_poly(X):
            return f"g({w or 'pt'}) != h(C{w}) - x h({w})"
    return None


def check_basis_rank(max_dim: int):
    for d in range(max_dim + 1):
        words = cd_words(d)
        rank = mat_rank(basis_matrix(d))
        if rank != len(words):
            return f"degree {d}: rank {rank}, {len(words)} words"
    return None


def check_unimodular(max_dim: int):
    for d in range(max_dim + 1):
        det = mat_det(h_matrix(d))
        if det not in (1, -1):
            return f"degree {d}: det {det}"
    return None


def check_round_trip(max_dim: int):
    for w in _words_up_to(max_dim):
        v = to_cd_basis(word_flag(w))
        if v != word_vector(w):
            return f"CD-coordinates of word {w or 'pt'}: {v!r}"
        if flag_from_h(h_of_word(w)) != word_flag(w):
            return f"flag recovery of word {w or 'pt'}"
    for e in sample_expressions(min(max_dim, LATTICE_DIM_CAP)):
        f = flag_of_lattice(e)
        if flag_from_h(h_of_flag(f)) != f:
            return f"flag recovery of {expr_str(e)}"
    return None


def check_route_independence(max_dim: int):
    for e in sample_expressions(min(max_dim, LINK_DIM_CAP)):
        if h_via_links(e) != h_of_polytope(e):
            return f"face-sum route disagrees on {expr_str(e)}"
    return None


PRODUCT_SIMPLE = [Cube(1), Cube(2), Cube(3), Simplex(2)]
PRODUCT_OTHER = [Simplex(3), Bipyr(Simplex(2))]


def check_product_law(max_dim: int):
    for a in PRODUCT_SIMPLE:
        for b in PRODUCT_OTHER:
            product = Prod(a, b)
            if expr_dim(product) > max_dim:
                continue
            got = h_of_polytope(product)
            expected = h_of_polytope(a) * h_of_polytope(b)
            if got != expected:
                return f"{expr_str(product)}: {got} != {expected}"
    return None


def check_sign(max_dim: int):
    if max_dim < 4:
        return None
    hp = h_of_polytope(BIPYRAMID_OVER_3SIMPLEX).component(KEY_01)
    hq = h_of_polytope(PRISM_CONE_4).component(KEY_01)
    if hp != HPoly([-4]):
        return f"bipyramid coefficient at key 0;1 is {hp.bracket()}, expected [-4]"
    if hq != HPoly([1]):
        return f"C(I(C(C(pt)))) coefficient at key 0;1 is {hq.bracket()}, expected [1]"
    if hp.coeffs[0] * hq.coeffs[0] >= 0:
        return f"sign product {hp.coeffs[0] * hq.coeffs[0]} is not negative"
    return None


SUITES = [
    ("golden-h-values", check_golden),
    ("euler-relation", check_euler),
    ("oracle-equivalence", check_oracle),
    ("link-identities", check_link_identities),
    ("palindromic-components", check_palindromic),
    ("toric-agreement", check_toric_agreement),
    ("operator-commutation", check_commutation),
    ("prism-laws", check_prism_laws),
    ("basis-rank", check_basis_rank),
    ("h-unimodularity", check_unimodular),
    ("flag-round-trip", check_round_trip),
    ("route-independence", check_route_independence),
    ("product-law", check_product_law),
    ("sign-check", check_sign),
]
