"""Thermal substrate: RC network, TEC model, hot-spot control."""

from .hotspot import HOT_SPOT_THRESHOLD_C, ThermostatController
from .rc_network import ThermalNetwork, ThermalNode, phone_thermal_network
from .tec import TECModel, TECUnit

__all__ = [
    "HOT_SPOT_THRESHOLD_C",
    "ThermostatController",
    "ThermalNetwork",
    "ThermalNode",
    "phone_thermal_network",
    "TECModel",
    "TECUnit",
]
