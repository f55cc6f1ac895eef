"""Deterministic fault injection over the virtual-time simulator.

``FaultPlan`` declares *what* goes wrong and *when*; ``FaultInjector``
executes a plan against a simulated runtime through the substrates'
interception hooks.  Same seed, same plan → same run: every chaos
scenario is a reproducible distributed-systems test.
"""

from .injector import FaultInjector, FaultStats
from .plan import (
    CHANNELS,
    INTENSITIES,
    KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    MessageFaultProfile,
    random_plan,
    staged_plan,
)

__all__ = [
    "CHANNELS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultStats",
    "INTENSITIES",
    "KINDS",
    "MessageFaultProfile",
    "random_plan",
    "staged_plan",
]
