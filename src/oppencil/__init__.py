"""Spectral pencil and weighted-space index toolkit for elliptic operators on R^n."""

__version__ = "0.1.0"

from .operator_ast import (  # noqa: F401
    check_ellipticity,
    check_symbol_class,
    formal_adjoint,
    is_formally_self_adjoint,
    is_homogeneous_cc,
    parse_operator,
    principal_part,
    serialize_operator,
)
from .pencil import assemble_pencil  # noqa: F401
from .spectrum import (  # noqa: F401
    jordan_chains,
    power_solutions,
    solve_pencil_eigenvalues,
    strip_spectrum,
)
from .index_ledger import (  # noqa: F401
    Anchor,
    adjoint_res_check,
    build_ledger,
    cc_index,
    pn,
    pn_mu_nu,
)
from .model_solver import (  # noqa: F401
    line_difference_expansion,
    mode_pencil,
    solve_on_line,
    verify_coefficient_formula,
)
from .weighted_norms import (  # noqa: F401
    Expr,
    weighted_cl_norm,
    weighted_holder_seminorm,
    weighted_sobolev_norm,
)
