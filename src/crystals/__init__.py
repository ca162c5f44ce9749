"""Crystal graphs on shifted tableaux.

Tableau models, raising/lowering operators (including the queer operator pair),
the tableau crystal graphs, local axiom checkers, and symmetric-function
expansions built from highest weights.
"""

from __future__ import annotations

from . import young  # no other module imports it; loaded so that crystals.young always is
from .axioms import (
    Verdict,
    Violation,
    check_01_components,
    check_02_components,
    check_queer_regular,
    check_stembridge,
)
from .config import Config
from .errors import (
    ClosureBudgetExceeded,
    ColumnViolation,
    CrystalError,
    CycleDetected,
    DiagonalMarkViolation,
    DimensionMismatch,
    DuplicateMarkInRow,
    IndexOutOfRange,
    MultipleSources,
    ParseError,
    RowViolation,
    ShapeMismatch,
    StringTruncated,
    ValueOutOfRange,
)
from .graph import (
    CrystalGraph,
    TensorView,
    Vertex,
    character,
    components,
    export_dot,
    export_json,
    highest_weights,
    import_json,
    isomorphic,
    string_length_maps,
    tensor_graphs,
)
from .models import (
    QueerTableauCrystal,
    queer_graph,
    queer_standard_graph,
    shifted_graph,
    standard_graph,
    young_graph,
)
from .poly import SparsePolynomial
from .queer import queer_highest_weights
from .shifted import enumerate_yamanouchi
from .symfunc import (
    is_staircase,
    product_expand,
    render_expansion,
    schur,
    schur_p,
    schur_p_to_schur,
    staircase_check,
)
from .tableaux import (
    Entry,
    ShiftedTableau,
    YoungTableau,
    enumerate_ssht,
    enumerate_ssyt,
    parse_shifted,
    parse_young,
    render_tableau,
    validate_shifted,
    validate_young,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ClosureBudgetExceeded",
    "ColumnViolation",
    "Config",
    "CrystalError",
    "CrystalGraph",
    "CycleDetected",
    "DiagonalMarkViolation",
    "DimensionMismatch",
    "DuplicateMarkInRow",
    "Entry",
    "IndexOutOfRange",
    "MultipleSources",
    "ParseError",
    "QueerTableauCrystal",
    "RowViolation",
    "ShapeMismatch",
    "ShiftedTableau",
    "SparsePolynomial",
    "StringTruncated",
    "TensorView",
    "ValueOutOfRange",
    "Verdict",
    "Vertex",
    "Violation",
    "YoungTableau",
    "character",
    "check_01_components",
    "check_02_components",
    "check_queer_regular",
    "check_stembridge",
    "components",
    "enumerate_ssht",
    "enumerate_ssyt",
    "enumerate_yamanouchi",
    "export_dot",
    "export_json",
    "highest_weights",
    "import_json",
    "is_staircase",
    "isomorphic",
    "parse_shifted",
    "parse_young",
    "product_expand",
    "queer_graph",
    "queer_highest_weights",
    "queer_standard_graph",
    "render_expansion",
    "render_tableau",
    "schur",
    "schur_p",
    "schur_p_to_schur",
    "shifted_graph",
    "staircase_check",
    "standard_graph",
    "string_length_maps",
    "tensor_graphs",
    "validate_shifted",
    "validate_young",
    "weight",
    "young_graph",
]
