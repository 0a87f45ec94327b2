from .base import (
    GradSample,
    JointPoint,
    OracleReport,
    Problem,
    ProblemConstants,
    check_oracle,
    fd_rel_err,
    require_fd_step,
    require_phi,
)
from .quadratic import (
    make_bilinear,
    make_ncpl_quadratic,
    make_scsc_quadratic,
    random_ncpl_instance,
    random_scsc_instance,
    sym_pinv,
)
from .regression import load_dataset, make_robust_regression, save_dataset
from .wgan import make_gaussian_wgan

__all__ = [
    "GradSample",
    "JointPoint",
    "OracleReport",
    "Problem",
    "ProblemConstants",
    "check_oracle",
    "fd_rel_err",
    "require_fd_step",
    "require_phi",
    "make_bilinear",
    "make_ncpl_quadratic",
    "make_scsc_quadratic",
    "random_ncpl_instance",
    "random_scsc_instance",
    "sym_pinv",
    "load_dataset",
    "make_robust_regression",
    "save_dataset",
    "make_gaussian_wgan",
]
