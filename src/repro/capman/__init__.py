"""CAPMAN framework: controller, profiler, actuator, calibration,
and the evaluation baselines."""

from .actuator import CapmanActuator
from .baselines import DualPolicy, HeuristicPolicy, OraclePolicy, PracticePolicy
from .calibration import CalibrationPoint, RuntimeCalibrator
from .controller import CapmanPolicy
from .profiler import BatteryCostModel, PowerProfiler, device_key_of

__all__ = [
    "CapmanActuator",
    "DualPolicy",
    "HeuristicPolicy",
    "OraclePolicy",
    "PracticePolicy",
    "CalibrationPoint",
    "RuntimeCalibrator",
    "CapmanPolicy",
    "BatteryCostModel",
    "PowerProfiler",
    "device_key_of",
]
