"""Exact flag vectors and complete keyed h-vectors for convex polytopes.

The package computes, in exact integer arithmetic:

* flag vectors of polytopes built from a small constructor grammar
  (point, pyramid, prism, bipyramid, dual, product, simplices, cubes,
  cross-polytopes), from their cd-index or by lattice chain counting,
  and the total link vector: per link dimension, the sum of the faces'
  link flag vectors;
* the linear pyramid/prism/diamond/duality operators on cd-indices and,
  as their oracle, on flag vectors;
* the CD-word basis and the exact change of basis both ways, with
  CD-coordinates as the tuple of word coefficients in `cd_words` order;
* the complete keyed h-vector (palindromic, with key symbols) and the
  classical toric h-vector, with the face-link sum as an independent
  second route.

Each public name below is imported from its module on first use, so
`python -m polyhvec` compiles and loads only what its command needs.
"""

from importlib import import_module

# each module, and the public names read from it
_EXPORTS = {
    "errors": "ExprParseError FaceCountLimitError NotInCDSpanError NotPalindromicError",
    "flagvec": "FlagVector dim_subsets empty_flag point_flag product_flag",
    "hpoly": "EMPTY_KEY HPoly Key KeyedPoly angle palindromic_decompose x_minus_y_power",
    "lattice": "eval_flag expr_dim expr_str parse_expr",
    "cdwords": "cd_words word_degree word_vector",
    "hvector": "cd_from_h coordinate_basis flag_from_h g_of_cdvector g_of_word "
    "h_coordinates h_of_cdvector h_of_word toric_h_of_word toric_of_cdvector "
    "word_coordinate",
    "oracle": "FaceLattice build_lattice chain_count_flag is_eulerian link_flag "
    "sample_expressions total_link_vector d_flag dual_flag prism_flag pyramid_flag "
    "basis_matrix cd_flag expand_I to_cd_basis word_flag h_matrix h_of_flag "
    "h_of_polytope h_via_links simple_h toric_of_polytope",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value
