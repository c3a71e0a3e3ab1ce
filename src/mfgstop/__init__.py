"""Finite-difference solvers and verifiers for mean-field games of
optimal stopping, built around the mixed-solution equilibrium concept:
players may randomize their exit, so the density carries a killing rate
on the contact set instead of vanishing there.
"""

from .grid import (
    Grid,
    TimeGrid,
    ScalarField,
    FieldTrajectory,
    NodeMask,
    build_grid,
    build_timegrid,
    elliptic_matrix,
    inner,
    classify_nodes,
    write_field_csv,
    read_field_csv,
    write_trajectory_csv,
    read_trajectory_csv,
)
from .obstacle import (
    ObstacleConvergenceError,
    solve_obstacle_stationary,
)
from .density import (
    KillingData,
    FaceVelocities,
    solve_density_on_set,
    solve_density_parabolic,
)
from .costs import CostOperator, PotentialOperator
from .stationary import (
    PenalizedTriple,
    MixedSolutionReport,
    CoupledNonConvergence,
    penalized_coupled_solve,
    default_eps_schedule,
    monotone_iteration_solve,
    variational_minimize,
    verify_mixed,
    uniqueness_probe,
)
from .evolutive import (
    ObstacleOperator,
    EvolutiveMixedReport,
    verify_mixed_evolutive,
)
from .control import (
    Hamiltonian,
    ControlMixedReport,
    verify_cosmfg,
    face_drift,
    control_objective,
)
from . import scenarios

__version__ = "0.1.0"
