"""Struct-of-arrays state for a batch of simulated phones.

One :class:`FleetState` holds every mutable quantity of ``N`` devices
as NumPy arrays -- the device axis is the last array axis.  The layout
mirrors the scalar object graph field for field:

========================  ============================================
Array group               Scalar twin
========================  ============================================
``avail/bound``           :class:`repro.battery.cell.Cell` KiBaM wells
``vtrans``                the cell's RC transient branch voltage
``throughput``            the cell's cumulative throughput counter
``cell_temp_c``           ``Cell.temperature_c`` (shared by both cells)
``active_big`` et al.     :class:`repro.battery.switch.BatterySwitch`
``supercap_v``            :class:`repro.battery.supercap.Supercapacitor`
``tec_on`` et al.         :class:`repro.thermal.tec.TECUnit`
``thermo_on``             the harness :class:`ThermostatController`
``node_temps``            the 4-node RC thermal network temperatures
``clock_s``               ``Phone.clock_s``
accounting arrays         the local variables of ``run_discharge_cycle``
========================  ============================================

The four per-cell groups are ``(2, N)`` arrays: row :data:`BIG_SLOT`
is the BIG cell, row :data:`LITTLE_SLOT` the LITTLE cell, so one
kernel call advances both cells and the active cell's values are one
gather ``arr[slot, rows]``.  ``avail_b``, ``bound_l`` and the other
``<group>_<b|l>`` names are read-only views of one row.  Every other
field is ``(N,)``.  All floats are float64 so every element carries
exactly the bits the scalar Python float would.

No two fields may share a buffer: the simulator's exact fallback
writes single rows in place, and a write through one field must never
show through another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = ["FleetState", "BIG_SLOT", "LITTLE_SLOT"]

#: Row of a ``(2, N)`` per-cell array holding the BIG cell.
BIG_SLOT = 0
#: Row of a ``(2, N)`` per-cell array holding the LITTLE cell.
LITTLE_SLOT = 1


def _f(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def _b(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


def _i(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.int64)


def _cell_view(group: str, slot: int) -> property:
    def get(self) -> np.ndarray:
        view = getattr(self, group)[slot]
        view.flags.writeable = False
        return view
    return property(get, doc=f"Read-only view of ``{group}[{slot}]``.")


@dataclass
class FleetState:
    """All mutable per-device state, last NumPy axis = one device."""

    n: int

    # --- KiBaM cells, (2, N): BIG row then LITTLE row -------------------
    avail: np.ndarray = None
    bound: np.ndarray = None
    vtrans: np.ndarray = None
    throughput: np.ndarray = None
    #: Battery-bay temperature propagated to both cells (degC).
    cell_temp_c: np.ndarray = None

    # --- Battery switch -----------------------------------------------
    active_big: np.ndarray = None
    last_switch_s: np.ndarray = None
    switch_events: np.ndarray = None
    sw_energy_spent_j: np.ndarray = None
    sw_heat_pending_j: np.ndarray = None
    sw_energy_pending_j: np.ndarray = None

    # --- Supercapacitor (LITTLE rail filter) --------------------------
    supercap_v: np.ndarray = None

    # --- TEC + thermostat ---------------------------------------------
    tec_on: np.ndarray = None
    tec_on_time_s: np.ndarray = None
    tec_energy_j: np.ndarray = None
    thermo_on: np.ndarray = None

    # --- Thermal network node temperatures (cpu, battery, surface,
    # ambient), one (N,) column per node --------------------------------
    node_temps: List[np.ndarray] = field(default_factory=list)

    # --- Device clock --------------------------------------------------
    clock_s: np.ndarray = None

    # --- Harness accounting (run_discharge_cycle locals) ---------------
    alive: np.ndarray = None
    energy_j: np.ndarray = None
    big_time_s: np.ndarray = None
    little_time_s: np.ndarray = None
    hot_time_s: np.ndarray = None
    max_temp_c: np.ndarray = None
    brownouts: np.ndarray = None
    steps_run: np.ndarray = None
    service_time_s: np.ndarray = None

    avail_b = _cell_view("avail", BIG_SLOT)
    avail_l = _cell_view("avail", LITTLE_SLOT)
    bound_b = _cell_view("bound", BIG_SLOT)
    bound_l = _cell_view("bound", LITTLE_SLOT)
    vtrans_b = _cell_view("vtrans", BIG_SLOT)
    vtrans_l = _cell_view("vtrans", LITTLE_SLOT)
    throughput_b = _cell_view("throughput", BIG_SLOT)
    throughput_l = _cell_view("throughput", LITTLE_SLOT)

    def __post_init__(self) -> None:
        n = self.n
        for name in ("avail", "bound", "vtrans", "throughput"):
            if getattr(self, name) is None:
                setattr(self, name, _f(2, n))
        for name in (
            "cell_temp_c", "last_switch_s", "sw_energy_spent_j",
            "sw_heat_pending_j", "sw_energy_pending_j", "supercap_v",
            "tec_on_time_s", "tec_energy_j", "clock_s", "energy_j",
            "big_time_s", "little_time_s", "hot_time_s", "max_temp_c",
            "service_time_s",
        ):
            if getattr(self, name) is None:
                setattr(self, name, _f(n))
        for name in ("active_big", "tec_on", "thermo_on", "alive"):
            if getattr(self, name) is None:
                setattr(self, name, _b(n))
        for name in ("switch_events", "brownouts", "steps_run"):
            if getattr(self, name) is None:
                setattr(self, name, _i(n))
        if not self.node_temps:
            self.node_temps = [_f(n) for _ in range(4)]
