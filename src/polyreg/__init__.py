"""Single-valued polylogarithms, polylogarithmic chain complexes, and the
explicit regulator maps into differential forms, with verification suites."""

from .exact import beta, beta_kp, bernoulli, verify_proposition, verify_row_identities
from .funcfield import (
    PoleError,
    RationalFunction,
    Valuation,
    one_minus,
    parse_function,
)
from .polylog import (
    ConvergenceError,
    pi_projection,
    sv_polylog,
    sv_polylog_check_symmetries,
)
from .polycomplex import (
    ChainElement,
    bracket,
    bracket_tensor,
    delta,
    parse_element,
    pure_wedge,
    residue,
    residue_chain_check,
    residue_twisted,
)
from .forms import (
    Form,
    GenericityError,
    alpha,
    diarg,
    dlog,
    evaluate,
    evaluate_many,
    exterior_derivative,
    format_form,
    log_abs,
    parse_form,
    sv_pq,
    sv_scalar,
    weighted_alternation,
)
from .regulator import (
    RegulatorConfig,
    chain_check,
    chain_suite,
    golden_formula_tests,
    holomorphic_part,
    loop_residue_check,
    r_map,
    top_check,
)

__version__ = "0.1.0"
