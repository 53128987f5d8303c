"""Simulation engine: control stepping, metrics, discharge cycles,
multi-day discharge/charge/aging runs, and the scenario-sweep engine
that drives the evaluation grids (one in-process path: a vectorised
fleet batch first, then one serial loop on the scalar engine for the
cells it rejects)."""

from .daily import DayRecord, MultiDayResult, run_days
from .discharge import (
    DischargeResult,
    PolicyContext,
    SchedulingPolicy,
    run_discharge_cycle,
)
from .engine import ControlStep, iter_control_steps
from .metrics import MetricsRecorder, TimeSeries
from .sweep import (
    CellFailure,
    ScenarioCell,
    ScenarioRunner,
    SimStats,
    SweepCache,
    SweepResult,
    SweepSpec,
)
from .executors import LocalProcessExecutor

__all__ = [
    "DayRecord",
    "MultiDayResult",
    "run_days",
    "DischargeResult",
    "PolicyContext",
    "SchedulingPolicy",
    "run_discharge_cycle",
    "ControlStep",
    "iter_control_steps",
    "MetricsRecorder",
    "TimeSeries",
    "CellFailure",
    "ScenarioCell",
    "ScenarioRunner",
    "SimStats",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "LocalProcessExecutor",
]
