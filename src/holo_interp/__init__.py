"""Interpolation-set certification and construction on constant-curvature
Kaehler model spaces, with a reproducing-kernel minimal-norm solver."""

from .errors import (
    ConditioningError,
    DomainError,
    NumericalGuardError,
    QuadratureError,
    SizeGuardError,
    SpaceMismatchError,
)
from .geometry import (
    ModelSpace,
    ball_volume_bound,
    complex_hessian_fd,
    distance,
    flat_space,
    hessian_comparison_factor,
    hyperbolic_ball,
    ricci_eigen,
)
from .pointset import PointSet, count_in_ball, seip_density, separation, sup_density
from .weights import (
    HermitianWeight,
    bergman_weight,
    curvature_eigen_min,
    fock_weight,
    normal_frame_exponent,
)
from .certificates import (
    CertificateReport,
    bos_certificate,
    theorem1_certificate,
    theorem2_certificate,
)
from .construction import (
    AuxiliaryWeight,
    GluedExtension,
    auxiliary_curvature_check,
    cutoff,
    dbar_energy,
    evaluate_extension,
    glued_extension,
)
from .rkhs import (
    GramDiagnostic,
    KernelSpace,
    bergman_kernel,
    feasibility_sweep,
    fock_kernel,
    min_norm_interpolant,
)

__version__ = "0.1.0"
