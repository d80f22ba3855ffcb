"""Exact and empirical divisibility densities of Hecke eigenvalues of Ikeda
lifts, with the supporting eigenform q-expansion and matrix-counting
machinery."""

from .density import (
    DensityReport,
    GammaRoots,
    LiftParams,
    PartitionStat,
    delta_F_generic,
    delta_uv_generic,
    g_u_root_count,
    gamma_roots,
    partitions_stat,
    sum_Ngu,
)
from .errors import CapacityError
from .experiment import ScanResult, grh_error_scale, lambda_F_exact, lambda_F_mod, scan_pi_F, scan_pi_f
from .matcount import (
    TraceDetCount,
    ZProfile,
    count_trace_det,
    count_trace_det_brute,
    z_bound_check,
    z_profile,
)
from .modring import ExactRational, PrimePower, mult_order, val_ell
from .primes import prime_count, primes_in
from .series import SeriesModQ, eigenform_coeffs, eisenstein, eta_cubed_exponents, new_series, series_mul, series_mul_naive
from .tower import (
    TowerReport,
    degree_A,
    generic_image_size,
    generic_L_degree,
    r_lm,
    tower_index,
    tower_report,
)

__version__ = "0.1.0"
