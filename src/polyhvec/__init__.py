"""Exact flag vectors and complete keyed h-vectors for convex polytopes.

The package computes, in exact integer arithmetic:

* flag vectors of polytopes built from a small constructor grammar
  (point, pyramid, prism, bipyramid, dual, product, simplices, cubes,
  cross-polytopes), from their cd-index or by lattice chain counting,
  and the total link vector: per link dimension, the sum of the faces'
  link flag vectors;
* the linear pyramid/prism/diamond/duality operators on cd-indices and,
  as their oracle, on flag vectors;
* the CD-word basis and the exact change of basis both ways;
* the complete keyed h-vector (palindromic, with key symbols) and the
  classical toric h-vector, with the face-link sum as an independent
  second route.
"""

from .errors import (
    ExprParseError,
    FaceCountLimitError,
    NotInCDSpanError,
    NotPalindromicError,
)
from .flagvec import (
    FlagVector,
    d_flag,
    dim_subsets,
    dual_flag,
    empty_flag,
    linear_combine,
    point_flag,
    prism_flag,
    product_flag,
    pyramid_flag,
)
from .hpoly import (
    EMPTY_KEY,
    HPoly,
    Key,
    KeyedPoly,
    angle,
    palindromic_decompose,
    x_minus_y_power,
)
from .lattice import (
    FaceLattice,
    build_lattice,
    chain_count_flag,
    eval_flag,
    expr_dim,
    expr_str,
    is_eulerian,
    link_flag,
    parse_expr,
    sample_expressions,
    total_link_vector,
)
from .cdwords import (
    CDVector,
    basis_matrix,
    cd_flag,
    cd_words,
    expand_I,
    to_cd_basis,
    word_degree,
    word_flag,
    word_vector,
)
from .hvector import (
    cd_from_h,
    coordinate_basis,
    flag_from_h,
    g_of_cdvector,
    g_of_word,
    h_coordinates,
    h_matrix,
    h_of_cdvector,
    h_of_flag,
    h_of_polytope,
    h_of_word,
    h_via_links,
    simple_h,
    toric_h_of_word,
    toric_of_cdvector,
    toric_of_polytope,
    word_coordinate,
)

__version__ = "0.1.0"
