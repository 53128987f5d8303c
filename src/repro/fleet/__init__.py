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
:func:`unsupported_reason` (None when the batch path can run the
policy, else why not) to route them to the scalar engine instead.
"""

from .capman import VectorCapmanDriver
from .policies import VECTOR_DRIVERS, register_vector_driver
from .simulator import FleetSimulator
from .spec import (DeviceSpec, FleetSpec, UnsupportedDeviceError,
                   unsupported_reason)
from .state import FleetState

__all__ = [
    "DeviceSpec",
    "FleetSpec",
    "FleetSimulator",
    "FleetState",
    "UnsupportedDeviceError",
    "VectorCapmanDriver",
    "VECTOR_DRIVERS",
    "register_vector_driver",
    "unsupported_reason",
]
