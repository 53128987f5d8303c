"""Supercapacitor output filter for the LITTLE battery rail.

The prototype (paper Figure 10) installs a supercapacitor to boost and
filter the LITTLE battery's spiky output so CAPMAN sees a reliable
supply.  We model it as an energy buffer with equivalent series
resistance: demand spikes are served from the capacitor, which the
battery then refills at a bounded rate, turning sharp load edges into
smoothed battery current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from ..durability.state import pack_state, unpack_state
from . import kinetics

__all__ = ["Supercapacitor"]


@dataclass
class Supercapacitor:
    """An ideal-plus-ESR supercapacitor buffer.

    Parameters
    ----------
    capacitance_f:
        Capacitance in farads.
    rated_voltage:
        Maximum (and initial) voltage.
    esr_ohm:
        Equivalent series resistance, dissipated as heat on throughput.
    refill_power_w:
        Maximum power the battery may use to recharge the capacitor.
    """

    capacitance_f: float = 5.0
    rated_voltage: float = 4.2
    esr_ohm: float = 0.02
    refill_power_w: float = 1.5

    _voltage: float = field(init=False, repr=False)
    #: :func:`~repro.battery.kinetics.supercap_energies`, fixed by the
    #: parameters above.
    _energies: Tuple[float, float] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0 or self.rated_voltage <= 0:
            raise ValueError("capacitance and rated voltage must be positive")
        self._voltage = self.rated_voltage
        self._energies = kinetics.supercap_energies(self.capacitance_f,
                                                    self.rated_voltage)

    @property
    def voltage(self) -> float:
        """Present capacitor voltage (V)."""
        return self._voltage

    @property
    def stored_energy_j(self) -> float:
        """Energy currently stored (J)."""
        return 0.5 * self.capacitance_f * self._voltage ** 2

    @property
    def headroom_j(self) -> float:
        """Energy needed to refill to rated voltage (J)."""
        full = 0.5 * self.capacitance_f * self.rated_voltage ** 2
        return max(0.0, full - self.stored_energy_j)

    def smooth(self, demand_w: float, dt: float) -> "SmoothedDraw":
        """Filter a demand step through the buffer.

        Returns how much power the *battery* must supply this step: the
        part of the demand above the refill budget is served from the
        capacitor when it has energy, and the battery additionally
        refills the capacitor with leftover budget.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if demand_w < 0:
            raise ValueError("demand must be non-negative")
        battery_w, from_cap_j, heat_j, self._voltage = kinetics.supercap_smooth(
            demand_w, dt, self._voltage,
            self.capacitance_f, self.rated_voltage, self.esr_ohm,
            self._refill_rate_w(), self._energies)
        return SmoothedDraw(battery_power_w=battery_w, capacitor_energy_j=from_cap_j,
                            heat_j=heat_j)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """Mutable runtime state (the stored voltage)."""
        return pack_state(self, self._STATE_VERSION, {"voltage": self._voltage})

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._voltage = payload["voltage"]

    # ------------------------------------------------------------------
    def _min_energy_j(self) -> float:
        """Keep the rail above half voltage so the regulator holds."""
        v_min = 0.5 * self.rated_voltage
        return 0.5 * self.capacitance_f * v_min ** 2

    def _refill_rate_w(self) -> float:
        return self.refill_power_w

    def _set_energy(self, energy_j: float) -> None:
        energy_j = max(0.0, energy_j)
        self._voltage = math.sqrt(2.0 * energy_j / self.capacitance_f)
        self._voltage = min(self._voltage, self.rated_voltage)


@dataclass(frozen=True)
class SmoothedDraw:
    """Result of filtering one timestep of demand through the buffer."""

    #: Power the battery must deliver this step (W).
    battery_power_w: float
    #: Energy served from the capacitor (J).
    capacitor_energy_j: float
    #: ESR heat dissipated (J).
    heat_j: float
