"""Breakdown-safe incomplete Cholesky preconditioning in simulated low
precision, used inside Krylov-based iterative refinement to solve sparse SPD
systems to double-precision accuracy."""

from .precision import FpFormat, get_format, safe_scale_check
from .sparse import (SparseSpd, ScalingVector, SqueezeReport, MatrixFormatError,
                     read_matrix_market, l2_scale, squeeze, matvec_f64,
                     inf_norm_matrix, inf_norm_vector)
from .symbolic import FillPattern, ic_pattern
from .factor import (Breakdown, FactorStats, IcFactor, FactorizationError,
                     ShiftRestartError, default_tau, ic_attempt, shifted_ic)
from .trisolve import (OverflowSignal, forward_solve, backward_solve,
                       apply_preconditioner)
from .krylov import KrylovOutcome, pcg, gmres
from .refine import (DELTA_DEFAULT, DELTA_KRYLOV_DEFAULT, SolveReport,
                     backward_error, ic_lu_ir, ic_krylov_ir)

__version__ = "0.1.0"
