"""Solver and planner for the probabilistic SAGA / minibatch-SAGA interpolation.

At every step the solver takes a tau-minibatch variance-reduced step with
probability q and a single-sample step otherwise; q = 0 recovers SAGA,
(q, tau) = (1, n) recovers gradient descent.  The complexity module turns a
smoothness profile into stepsizes and total-complexity coefficients in
closed form, and the planner searches the closed-form candidate set for the
(q*, tau*) pair with the smallest expected gradient-evaluation count.
"""

__version__ = "0.1.0"

from .complexity import (
    FullBatchInterpolation,
    InterpolationConfig,
    MethodConstants,
    expected_smoothness,
    full_batch_interpolation,
    sketch_residual,
    stepsize,
    theta,
    total_complexity,
)
from .data_io import (
    RunManifest,
    TrajectorySeries,
    emit_svg_plot,
    parse_libsvm,
    read_results_csv,
    synth_gaussian,
    synth_uniform,
    write_libsvm,
    write_results_csv,
)
from .exceptions import (
    ConvergenceError,
    EnumerationLimitError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NotStronglyConvexError,
    ParseError,
    SagdError,
)
from .numerics import SeededRng, sample_subset, solve_spd, symmetric_eigen
from .planner import (
    Plan,
    PlanCandidate,
    branch_roots,
    optimal_minibatch_tau,
    optimal_plan,
    q_intersections,
    tau_window,
)
from .problem import (
    Dataset,
    LossSpec,
    SmoothnessProfile,
    exact_solution,
    full_grad,
    normalize_rows,
    smoothness_profile,
)
from .solver import (
    GradientTable,
    RunResult,
    SolverConfig,
    SolverState,
    TrajectoryPoint,
    init_table,
    lyapunov,
    run,
    sagd_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
