"""Electrochemical cell model: KiBaM wells + OCV curve + RC transient.

This is the simulated stand-in for the physical 2500 mAh cells of the
paper's testbed (see DESIGN.md, substitution table).  Three effects the
paper's argument rests on are modelled explicitly:

* **Rate-capacity effect** -- drawing hard strands charge in the bound
  well of the Kinetic Battery Model (KiBaM), so a high-energy-density
  ("big") cell delivers less of its charge under bursty loads.
* **Recovery effect** -- during idle periods the bound well refills the
  available well, so service time depends on demand *shape*, not only
  on total energy (paper Figure 2).
* **V-edge** -- a first-order RC branch makes the terminal voltage drop
  sharply on a load step and then settle at a lower plateau (paper
  Figure 3); the areas between the curves are the power-saving
  opportunity CAPMAN chases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..durability.state import pack_state, unpack_state
from . import kinetics
from .chemistry import Chemistry

__all__ = ["Cell", "DrawResult"]

#: Seconds per hour, used for mAh <-> Coulomb-ish conversions.
_HOUR = 3600.0


@dataclass
class DrawResult:
    """Outcome of drawing power from a cell for one timestep."""

    #: Energy actually delivered to the load over the step (J).
    energy_j: float
    #: Average current over the step (A).
    current_a: float
    #: Terminal voltage at the end of the step (V).
    voltage_v: float
    #: Heat dissipated inside the cell over the step (J).
    heat_j: float
    #: True if the cell could not meet the full demand.
    shortfall: bool


@dataclass
class Cell:
    """A single battery cell of a given chemistry.

    Parameters
    ----------
    chemistry:
        The :class:`~repro.battery.chemistry.Chemistry` describing the
        cell's ratings-derived physics.
    capacity_mah:
        Rated capacity at gentle discharge.
    soc:
        Initial state of charge in [0, 1].
    temperature_c:
        Cell temperature; raises internal resistance when hot.
    """

    chemistry: Chemistry
    capacity_mah: float = 2500.0
    soc: float = 1.0
    temperature_c: float = 25.0

    # Internal state (charge bookkeeping in ampere-seconds, A*s).
    _available: float = field(init=False, repr=False)
    _bound: float = field(init=False, repr=False)
    #: Voltage across the RC transient branch (V).
    _v_transient: float = field(init=False, default=0.0, repr=False)
    #: Total charge delivered over the cell's life (A*s), for wear.
    _throughput: float = field(init=False, default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_mah <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError("soc must lie in [0, 1]")
        total = self.capacity_amp_s * self.soc
        c = self.chemistry.kibam_c
        self._available = total * c
        self._bound = total * (1.0 - c)
        self._v_transient = 0.0
        self._throughput = 0.0

    # ------------------------------------------------------------------
    # Static properties
    # ------------------------------------------------------------------
    @property
    def capacity_amp_s(self) -> float:
        """Rated charge in ampere-seconds."""
        return self.capacity_mah / 1000.0 * _HOUR

    @property
    def max_current(self) -> float:
        """Continuous current limit from the chemistry's C-rate (A)."""
        return self.chemistry.max_c_rate * self.capacity_mah / 1000.0

    @property
    def charge_amp_s(self) -> float:
        """Remaining charge, both wells (A*s)."""
        return self._available + self._bound

    @property
    def available_amp_s(self) -> float:
        """Charge immediately deliverable from the available well (A*s)."""
        return self._available

    @property
    def state_of_charge(self) -> float:
        """Remaining fraction of rated charge in [0, 1]."""
        return kinetics.state_of_charge(
            self._available, self._bound, self.capacity_amp_s)

    @property
    def depleted(self) -> bool:
        """True once the available well is exhausted.

        Charge may remain stranded in the bound well -- that is the
        rate-capacity effect; given rest it migrates back and the cell
        revives (recovery effect).
        """
        return self._available <= 1e-9

    # ------------------------------------------------------------------
    # Electrical behaviour
    # ------------------------------------------------------------------
    def open_circuit_voltage(self) -> float:
        """OCV as a function of state of charge.

        A generic Li-ion shape: a mild linear slope across the plateau,
        an exponential knee near empty, and a rise near full.  Scaled
        into the chemistry's [cutoff, full] voltage window.
        """
        chem = self.chemistry
        return kinetics.ocv(
            self.state_of_charge, chem.cutoff_voltage, chem.full_voltage)

    def internal_resistance(self) -> float:
        """Ohmic resistance, temperature- and SoC-corrected (ohm)."""
        chem = self.chemistry
        return kinetics.internal_resistance(
            self.state_of_charge, self.temperature_c,
            chem.internal_resistance, chem.resistance_temp_coeff)

    def terminal_voltage(self, current_a: float = 0.0) -> float:
        """Terminal voltage under a given instantaneous current (V)."""
        return (
            self.open_circuit_voltage()
            - current_a * self.internal_resistance()
            - self._v_transient
        )

    def current_for_power(self, power_w: float) -> float:
        """Solve ``I * V(I) = P`` for the discharge current (A).

        ``V(I) = OCV - I*R - v_transient`` makes this a quadratic in I;
        the smaller root is the stable operating point.  If the demand
        exceeds the cell's maximum power point the current is clamped at
        the maximum-power current ``(OCV - vt) / (2R)``.
        """
        veff = self.open_circuit_voltage() - self._v_transient
        return kinetics.current_for_power(
            power_w, veff, self.internal_resistance())

    def max_power_w(self) -> float:
        """Largest power the cell can source right now (W)."""
        veff = self.open_circuit_voltage() - self._v_transient
        return kinetics.max_power(
            veff, self.internal_resistance(), self.max_current)

    # ------------------------------------------------------------------
    # Charge management
    # ------------------------------------------------------------------
    def drain_to(self, fraction: float) -> None:
        """Set the remaining charge to ``fraction`` of rated capacity.

        Both KiBaM wells are scaled by the same factor, preserving the
        available/bound split (a cell that "arrives empty" for charging
        keeps its diffusion state shape).  Only draining is allowed --
        use a charger to add charge.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        current = self.charge_amp_s
        target = self.capacity_amp_s * fraction
        if target > current + 1e-9:
            raise ValueError(
                f"drain_to({fraction}) would add charge "
                f"(cell holds {current / self.capacity_amp_s:.3f})"
            )
        scale = target / current if current > 0 else 0.0
        self._available *= scale
        self._bound *= scale

    # ------------------------------------------------------------------
    # Time evolution
    # ------------------------------------------------------------------
    def rest(self, dt: float) -> None:
        """Let the cell idle for ``dt`` seconds (recovery effect)."""
        if dt < 0 or not math.isfinite(dt):
            raise ValueError("dt must be non-negative and finite")
        self._step_wells(0.0, dt)
        self._step_transient(0.0, dt)

    def draw_power(self, power_w: float, dt: float) -> DrawResult:
        """Draw ``power_w`` watts for ``dt`` seconds.

        Returns the energy actually delivered; if the available well
        runs dry mid-step the delivery is pro-rated and ``shortfall``
        is set.
        """
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        if power_w < 0 or not math.isfinite(power_w):
            raise ValueError("power must be non-negative and finite")
        if power_w == 0.0:
            self.rest(dt)
            return DrawResult(0.0, 0.0, self.terminal_voltage(), 0.0, False)
        if self.depleted:
            self.rest(dt)
            return DrawResult(0.0, 0.0, self.terminal_voltage(), 0.0, True)

        veff_pre = self.open_circuit_voltage() - self._v_transient
        r_pre = self.internal_resistance()
        current = self.current_for_power(power_w)
        shortfall = False
        if current > self.max_current:
            current = self.max_current
            shortfall = True
        # Power actually reaching the load at this current; equals the
        # demand unless the current was clamped.
        delivered_w = min(power_w, max(0.0, current * (veff_pre - current * r_pre)))
        if delivered_w < power_w * (1.0 - 1e-9):
            shortfall = True

        # Side-reaction losses: the wells lose charge faster than the
        # load receives it (chemistry-dependent coulombic efficiency),
        # and overpotential losses grow quadratically once the draw
        # outruns what the bound well can replenish -- the D1 waste of
        # the paper's V-edge analysis.
        eta = self.chemistry.coulombic_efficiency * (1.0 - self._rate_loss(current))
        drawn = current / eta

        served_dt = dt
        if drawn * dt > self._available:
            served_dt = self._available / drawn
            shortfall = True

        self._step_wells(drawn, served_dt)
        if served_dt < dt:
            self._step_wells(0.0, dt - served_dt)
        self._step_transient(current, served_dt)
        if served_dt < dt:
            self._step_transient(0.0, dt - served_dt)
        self._throughput += current * served_dt

        voltage = self.terminal_voltage(current if served_dt == dt else 0.0)
        if voltage < self.chemistry.cutoff_voltage:
            shortfall = True
        ohmic = current * current * self.internal_resistance() * served_dt
        # Side-reaction charge ends up as heat at roughly the rail voltage.
        parasitic = (drawn - current) * max(voltage, 0.0) * served_dt
        heat = ohmic + parasitic
        energy = delivered_w * served_dt
        return DrawResult(energy, current, voltage, heat, shortfall)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def sustainable_current(self) -> float:
        """Current the bound well can replenish right now (A).

        ``k * y2 / (1 - c)``: declines as the cell empties, so late in
        a cycle even moderate draws become strained.
        """
        return kinetics.sustainable_current(
            self._bound, self.chemistry.kibam_c, self.chemistry.kibam_k)

    def _rate_loss(self, current_a: float) -> float:
        """Extra loss fraction from drawing beyond the sustainable rate."""
        return kinetics.rate_loss(
            current_a, self.sustainable_current(),
            self.chemistry.rate_loss_coeff)

    def _step_wells(self, current_a: float, dt: float) -> None:
        """Integrate the KiBaM two-well ODEs over ``dt``.

        dy1/dt = -I + k (h2 - h1),   dy2/dt = -k (h2 - h1)
        with well heads h1 = y1/c, h2 = y2/(1-c).  Explicit Euler with
        substeps bounded by the diffusion time constant; charge is
        conserved exactly (d(y1+y2)/dt = -I).
        """
        if dt <= 0:
            return
        c = self.chemistry.kibam_c
        k = self.chemistry.kibam_k
        steps = kinetics.well_substeps(dt, c, k)
        self._available, self._bound = kinetics.step_wells(
            self._available, self._bound, current_a, dt / steps, steps, c, k)

    def _step_transient(self, current_a: float, dt: float) -> None:
        """Relax the RC transient branch toward ``I * R1``."""
        r1, tau = self.chemistry.effective_transient()
        if tau <= 0:
            self._v_transient = current_a * r1
            return
        self._v_transient = kinetics.step_transient(
            self._v_transient, current_a, r1, kinetics.transient_alpha(dt, tau))

    def clone(self) -> "Cell":
        """Deep copy of the cell, preserving internal state."""
        other = Cell(self.chemistry, self.capacity_mah, 1.0, self.temperature_c)
        other._available = self._available
        other._bound = self._bound
        other._v_transient = self._v_transient
        other._throughput = self._throughput
        other.soc = self.soc
        return other

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    _STATE_VERSION = 1

    def state_dict(self) -> dict:
        """All mutable runtime state (KiBaM wells, transient, wear)."""
        return pack_state(self, self._STATE_VERSION, {
            "available": self._available,
            "bound": self._bound,
            "v_transient": self._v_transient,
            "throughput": self._throughput,
            "soc": self.soc,
            "temperature_c": self.temperature_c,
            "capacity_mah": self.capacity_mah,
        })

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` in place."""
        payload = unpack_state(self, state, self._STATE_VERSION)
        self._available = payload["available"]
        self._bound = payload["bound"]
        self._v_transient = payload["v_transient"]
        self._throughput = payload["throughput"]
        self.soc = payload["soc"]
        self.temperature_c = payload["temperature_c"]
        self.capacity_mah = payload["capacity_mah"]
