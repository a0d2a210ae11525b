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
)
from .forward import (
    PotentialPair,
    ShootingResult,
    find_eigenvalues,
    integrate,
    weight_numbers,
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
    run_reconstruction,
    run_reconstructions,
    solve_main,
)
from .model import (
    BackgroundProblem,
    ZeroBackground,
)
from .spectral_data import (
    SpectralDataSet,
    SpectralEntry,
    truncate_hybrid,
)

__version__ = "0.1.0"
