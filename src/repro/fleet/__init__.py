"""Vectorised fleet simulation: N devices, one NumPy axis.

Public surface::

    spec = FleetSpec([DeviceSpec(policy, trace, profile), ...])
    sim = spec.build()
    results = sim.run()          # List[DischargeResult], scalar-identical

The scalar engine (:func:`repro.sim.discharge.run_discharge_cycle`)
remains the reference oracle: a fleet of one produces bit-for-bit the
same :class:`~repro.sim.discharge.DischargeResult` (enforced by
``tests/test_fleet_vs_scalar``).  Devices the batch path cannot model
exactly raise :class:`UnsupportedDeviceError` at build time; use
:func:`supports_policy` to route them to the scalar engine instead,
and :func:`unsupported_reason` to say why.
"""

from .capman import VectorCapmanDriver
from .policies import (VECTOR_DRIVERS, is_vectorisable,
                       register_vector_driver)
from .simulator import FleetSimulator
from .spec import (DeviceSpec, FleetSpec, UnsupportedDeviceError,
                   supports_policy, unsupported_reason)
from .state import FleetState

__all__ = [
    "DeviceSpec",
    "FleetSpec",
    "FleetSimulator",
    "FleetState",
    "UnsupportedDeviceError",
    "VectorCapmanDriver",
    "VECTOR_DRIVERS",
    "is_vectorisable",
    "register_vector_driver",
    "supports_policy",
    "unsupported_reason",
]
