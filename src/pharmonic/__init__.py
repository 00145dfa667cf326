"""Eigenfunctions and proper p-harmonic functions on rotation-group
quotients, with exact symbolic and jet-based numerical verification."""

from .expressions import (
    Const,
    Entry,
    Log,
    Pow,
    Product,
    ProjectorForm,
    Sum,
    block_columns,
    dual_matrix,
    evaluate,
    flag_forms,
    flag_sum_expr,
    p_harmonic_expr,
    projector_form,
    rank_one_from_isotropic,
    rank_one_from_vector,
    validate_eigen_matrix,
)
from .group import (
    curve_jets,
    m_basis,
    minkowski_form,
    sample_block_diagonal,
    sample_so,
    sample_so_mn,
    so_basis,
    validate_group_point,
)
from .jets import (
    BranchCutError,
    JetError,
    JetScalar,
    LaplacianJet,
    NonFiniteError,
    ShapeMismatch,
    ipow,
    jexp,
    jlog,
    jpow,
    reciprocal,
    variable,
)
from .operators import (
    SamplingExhausted,
    check_eigenfamily,
    check_eigenfunction,
    check_invariance,
    conditioned_sample,
    gradient_product,
    iterated_laplacian,
    laplacian,
    laplacian_jet,
    non_descent_witness,
)
from .reports import ARTIFACT_VERSION, REPORT_SCHEMA, VerificationReport
from .symcalc import (
    EigenParams,
    GaussianRational,
    SymExpr,
    p_harmonic_combination,
    verify_p_harmonic,
)

__version__ = ARTIFACT_VERSION
