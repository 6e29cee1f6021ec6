"""Symbolic matrix-expression language (the substrate of the reproduction).

Everything LINVIEW manipulates — programs, deltas, triggers — is built
from these expression trees.  See :mod:`repro.expr.ast` for the node
types and MATLAB-style operator sugar.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Add": "ast",
    "DimSum": "shapes",
    "Expr": "ast",
    "HStack": "ast",
    "Identity": "ast",
    "Inverse": "ast",
    "MatMul": "ast",
    "MatrixSymbol": "ast",
    "NamedDim": "shapes",
    "ScalarMul": "ast",
    "Shape": "shapes",
    "ShapeError": "shapes",
    "Transpose": "ast",
    "VStack": "ast",
    "ZeroMatrix": "ast",
    "add": "ast",
    "canonicalize": "structural",
    "contains_inverse": "visitors",
    "count_nodes": "visitors",
    "depth": "visitors",
    "dim_add": "shapes",
    "dims_equal": "shapes",
    "hstack": "ast",
    "inverse": "ast",
    "matmul": "ast",
    "matrix_symbols": "visitors",
    "neg": "ast",
    "references": "visitors",
    "scalar_mul": "ast",
    "simplify": "simplify",
    "structural_equal": "structural",
    "structural_fingerprint": "structural",
    "structural_key": "structural",
    "sub": "ast",
    "substitute": "visitors",
    "substitute_symbol": "visitors",
    "to_string": "printer",
    "to_tree": "printer",
    "transform": "visitors",
    "transpose": "ast",
    "vstack": "ast",
    "walk": "visitors",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

# The one export named like its submodule: a lazy ``simplify`` would be
# replaced by the module as soon as anything imports ``.simplify``
# (see :mod:`repro._lazy`), so it is bound eagerly.
from .simplify import simplify  # noqa: E402
