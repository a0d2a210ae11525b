"""Forward and inverse spectral problems for quadratic differential pencils.

The pencil is -y'' + (2 lam q1(x) + q0(x)) y = lam^2 y on (0, pi) with
Dirichlet ends, complex-valued potentials, and arbitrary eigenvalue
multiplicities; q0 may be as rough as the distributional derivative of an
L2 function (represented by its antiderivative sigma).
"""

from .errors import (
    ContourTouchesPoleError,
    DegenerateSeriesError,
    DuplicateIndexError,
    GridMismatchError,
    IndexMismatchError,
    NegativeDeltaError,
    NonFiniteInputError,
    NumericalError,
    OrderTooHighError,
    PoleTooCloseError,
    QPencilError,
    RootNotConvergedError,
    SignConflictError,
    SingularSystemError,
    ValidationError,
    WindingAmbiguousError,
)
from .experiments import (
    REFERENCE_DELTAS,
    ExperimentRow,
    SplitExperimentConfig,
    compute_d_metrics,
    compute_split_delta_metric,
    expected_weyl,
    make_split_data,
    roundtrip_check,
    run_table,
    solve_contour_equation,
    write_recovered_csv,
)
from .forward import (
    PotentialPair,
    ShootingResult,
    coefficients_from_weights,
    find_eigenvalues,
    integrate,
    weight_numbers,
    weights_from_coefficients,
    weyl_residues,
    winding_number,
)
from .inverse import (
    EpsilonFields,
    MainEquationSystem,
    RecoveredPotentials,
    assemble_system,
    compute_epsilons,
    default_grid,
    recover_q0_antiderivative,
    recover_q1,
    recover_theta,
    run_reconstruction,
    run_reconstructions,
    solve_main,
)
from .model import (
    BackgroundProblem,
    NumericBackground,
    ZeroBackground,
)
from .spectral_data import (
    Diagnostics,
    SpectralDataSet,
    SpectralEntry,
    compute_diagnostics,
    eta_weight,
    truncate_hybrid,
    validate_splitting_conditions,
)

__version__ = "0.1.0"
