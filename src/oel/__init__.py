"""Deformed-logarithm kernel, relative operator entropies on symmetric
positive-definite matrices, and a fuzzing harness that certifies the
inequality chains connecting them with machine-checkable slack."""

from .chains import (
    ChainVerdict,
    DEFAULT_TOL,
    am_gm_refinement,
    check_minmax_power,
    check_minmax_square,
    derived_logconvexity_check,
    geom_interpolation_chain,
    geomconvex_chain,
    jensen_exponential_bounds,
    jensen_refinement,
    logconvex_chain,
    tsallis_scalar_chain,
    two_function_gate,
    young_ratio_chain,
    young_refinement_chain,
)
from .entropy import (
    LoewnerVerdict,
    OperatorChainVerdict,
    check_ordering_S_Tp_Sp,
    check_refined_ST,
    check_roe_bounds,
    check_troe_linear_bound,
    check_tsallis_relation,
    check_two_function_operator,
    check_zou_chain,
    generalized_entropy,
    relative_entropy,
    tsallis_entropy,
)
from .errors import DomainError, NumericError
from .funcs import REGISTRY, FunctionSpec
from .harness import CHAINS, FuzzReport, GeneratorConfig, fuzz_all, fuzz_chain, write_report
from .linalg import EigenDecomposition, load_matrix
from .scalar import (
    deformed_log,
    eta,
    phi,
    ratio_sequences,
    theta,
    weighted_means,
    young_ratio_bounds,
)

__version__ = "0.1.0"
