"""Synchronous steady states of multi-machine AC power system models.

Library + CLI for a nonlinear electromechanical grid model in the
stationary alpha-beta frame: machine and network dynamics, constructive
steady-state computation (network solve plus closed-form machine recovery),
fixed-step simulation, and numeric certification of the rotating-invariance
conditions the steady state rests on.

The package top level holds only the error classes and ``wrap_angle``;
everything else is imported from its module, for example
``gridstate.steady_state.compute_steady_state``.
"""

from .errors import (GridStateError, InfeasibleSteadyStateError,
                     LoadDomainError, SchemaError, SolverError, UsageError,
                     ValidationError)
from .frame import wrap_angle

__version__ = "0.1.0"
