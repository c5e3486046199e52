"""Frames and Parseval frames over binary vector spaces Z_2^n.

Bit-packed GF(2) linear algebra, frame and Parseval verification, dual
construction, unitary and switching equivalence with canonical Grammian
keys, complement duality, and exhaustive switching-class catalogs.
"""

from .gf2 import (BinMatrix, BinVector, dot, inverse, is_unitary, mat_mul,
                  mat_vec, rank, select_basis)
from .frames import (Frame, FrameOperators, compute_dual, format_frame,
                     frame_operators, grammian, is_frame, is_parseval,
                     parse_frame, parseval_identity_holds, shift_matrix,
                     verify_reconstruction, weight_two_family)
from .equivalence import (CanonicalKey, DimensionTooSmallError,
                          NotParsevalError, RepeatsPresentError,
                          ShapeMismatchError, canonical_key, complement,
                          is_trivially_redundant, switching_equivalent,
                          unitary_equivalent)
from .enumeration import (CatalogRow, SearchConfig, SwitchingClass, catalog,
                          catalog_lines, classify, enumerate_parseval,
                          write_catalog)

__version__ = "0.1.0"

__all__ = [
    "BinMatrix", "BinVector", "dot", "inverse", "is_unitary", "mat_mul",
    "mat_vec", "rank", "select_basis",
    "Frame", "FrameOperators", "compute_dual", "format_frame",
    "frame_operators", "grammian", "is_frame", "is_parseval", "parse_frame",
    "parseval_identity_holds", "shift_matrix",
    "verify_reconstruction", "weight_two_family",
    "CanonicalKey", "DimensionTooSmallError", "NotParsevalError",
    "RepeatsPresentError", "ShapeMismatchError", "canonical_key",
    "complement", "is_trivially_redundant", "switching_equivalent",
    "unitary_equivalent",
    "CatalogRow", "SearchConfig", "SwitchingClass", "catalog",
    "catalog_lines", "classify", "enumerate_parseval", "write_catalog",
]
