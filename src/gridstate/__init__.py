"""Synchronous steady states of multi-machine AC power system models.

Library + CLI for a nonlinear electromechanical grid model in the
stationary alpha-beta frame: machine and network dynamics, constructive
steady-state computation (network solve plus closed-form machine recovery),
fixed-step simulation, and numeric certification of the rotating-invariance
conditions the steady state rests on.
"""

from .errors import (GridStateError, InfeasibleSteadyStateError,
                     LoadDomainError, SchemaError, SolverError, UsageError,
                     ValidationError)
from .frame import wrap_angle
from .loads import Load, equivariance_defect
from .machine import MachineParams, validate_params
from .network import NetworkParams, Topology
from .simulate import (DriftMetrics, SimConfig, Trajectory, drift_metrics,
                       reference_trajectory, rk4_step, simulate)
from .steady_state import (FullSteadyState, MachineRecovery, NetworkSolution,
                           NewtonOptions, OperatingSpec, VerificationReport,
                           assemble_steady_state, compute_steady_state,
                           recover_machine, solve_network,
                           verify_steady_state)
from .system import (PowerSystem, StateLayout, assemble, invariance_defect,
                     residual, steady_field, tolerance_scale, total_energy,
                     vector_field)

__version__ = "0.1.0"
