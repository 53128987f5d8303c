"""Elementwise battery physics kernels shared by scalar and fleet paths.

Every per-step formula of the KiBaM cell model (OCV shape, resistance
correction, the quadratic power->current solve, rate loss, the two-well
Euler integration, the RC transient relaxation) and the supercapacitor
filter lives here as a *pure elementwise function*: the same code runs
on Python floats (the scalar :class:`~repro.battery.cell.Cell` path)
and on NumPy arrays (the ``repro.fleet`` batch path).

This is the load-bearing trick behind the fleet's bit-for-bit contract
(DESIGN.md section 11).  Sharing one implementation makes the two paths
equal *by construction*: an IEEE-754 add/mul/div/sqrt on a float and on
a float64 array element produce identical bits, so the only way the
paths could diverge is by writing the maths twice.  Three conventions
keep that watertight:

* ``exp`` is always :func:`numpy.exp` -- ``math.exp`` and NumPy's
  vectorised exp disagree in the last ulp on this libm for ~1% of
  inputs, while ``np.exp`` is bitwise self-consistent across scalar,
  size-1 and size-N calls (verified by ``tests/test_physics_kernels``).
* Python's ``min(a, b)`` / ``max(a, b)`` are mirrored by
  :func:`pymin` / :func:`pymax`, which reproduce the builtins' exact
  first-argument-wins tie behaviour (including signed zeros) via a
  single comparison, so branchy scalar code and masked array code
  select identical values.
* ``x ** n`` is spelled out as repeated multiplication: libm ``pow``
  and NumPy's power kernels are not bitwise-identical on all inputs,
  while ``x * x`` is one correctly-rounded operation everywhere.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .chemistry import RATE_LOSS_CAP

__all__ = [
    "Number",
    "where",
    "pymax",
    "pymin",
    "sqrt",
    "exp",
    "state_of_charge",
    "ocv",
    "internal_resistance",
    "current_for_power",
    "max_power",
    "sustainable_current",
    "rate_loss",
    "well_substeps",
    "well_substep_cap",
    "well_substeps_capped",
    "step_wells",
    "transient_alpha",
    "step_transient",
    "supercap_energies",
    "supercap_smooth",
]

#: A kernel operand: a Python float or a float64 NumPy array.
Number = Union[float, np.ndarray]


# ----------------------------------------------------------------------
# Dispatch helpers
# ----------------------------------------------------------------------
def where(cond, a: Number, b: Number) -> Number:
    """``a`` where ``cond`` else ``b``; ternary on scalars, masked on arrays."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def pymax(a: Number, b: Number) -> Number:
    """Exact elementwise mirror of Python's ``max(a, b)``.

    ``max(a, b)`` returns ``b`` only when ``b > a`` -- ties (including
    ``+0.0`` vs ``-0.0``) keep the first argument.  One comparison
    reproduces that on floats and arrays alike.
    """
    return where(a < b, b, a)


def pymin(a: Number, b: Number) -> Number:
    """Exact elementwise mirror of Python's ``min(a, b)`` (ties keep ``a``)."""
    return where(b < a, b, a)


def sqrt(x: Number) -> Number:
    """IEEE square root; ``math.sqrt`` and ``np.sqrt`` agree bitwise."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)


def exp(x: Number) -> Number:
    """``np.exp`` for every caller (see module docstring).

    Scalar results are converted back to Python ``float`` (a lossless,
    bit-preserving cast) so NumPy scalar types never leak into the
    object-graph scalar path.
    """
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return float(np.exp(x))


# ----------------------------------------------------------------------
# Cell electrical behaviour
# ----------------------------------------------------------------------
def state_of_charge(available: Number, bound: Number, capacity_amp_s: Number) -> Number:
    """Remaining charge fraction, clamped to [0, 1]."""
    s = (available + bound) / capacity_amp_s
    return pymax(0.0, pymin(1.0, s))


def ocv(soc: Number, cutoff_v: Number, full_v: Number) -> Number:
    """Open-circuit voltage from state of charge (generic Li-ion shape)."""
    s = soc
    s2 = s * s
    shape = 0.18 + 0.72 * s + 0.10 * (s2 * s2) - 0.18 * exp(-24.0 * s)
    shape = pymax(0.0, pymin(1.0, shape))
    return cutoff_v + (full_v - cutoff_v) * shape


def internal_resistance(
    soc: Number, temp_c: Number, r0: Number, temp_coeff: Number
) -> Number:
    """Ohmic resistance with temperature and empty-cell corrections (ohm)."""
    r = r0 * (1.0 + temp_coeff * (temp_c - 25.0))
    e = 1.0 - soc
    r = r * (1.0 + 0.8 * (e * e))
    return pymax(r, 1e-4)


def current_for_power(power_w: Number, veff: Number, r: Number) -> Number:
    """Solve ``I * (veff - I r) = P``; MPP current when P is unreachable."""
    disc = veff * veff - 4.0 * r * power_w
    i_mpp = veff / (2.0 * r)
    root = (veff - sqrt(pymax(disc, 0.0))) / (2.0 * r)
    i = where(disc < 0.0, i_mpp, root)
    return where(power_w <= 0.0, 0.0, i)


def max_power(veff: Number, r: Number, max_current: Number) -> Number:
    """Largest deliverable power at the current-limited operating point (W)."""
    i_mpp = veff / (2.0 * r)
    i = pymin(i_mpp, max_current)
    return i * (veff - i * r)


def sustainable_current(bound: Number, c: Number, k: Number) -> Number:
    """KiBaM replenishment current ``k * y2 / (1 - c)`` (A)."""
    return k * bound / (1.0 - c)


def rate_loss(current: Number, i_sus: Number, coeff: Number) -> Number:
    """Extra loss fraction for draws beyond the sustainable rate."""
    strained = i_sus <= 1e-12
    ratio = current / where(strained, 1.0, i_sus)
    extra = coeff * (ratio * ratio)
    loss = pymin(RATE_LOSS_CAP, extra)
    loss = where(strained, RATE_LOSS_CAP, loss)
    return where(current <= 0.0, 0.0, loss)


# ----------------------------------------------------------------------
# KiBaM well integration
# ----------------------------------------------------------------------
def well_substeps(dt: float, c: float, k: float) -> int:
    """Explicit-Euler substep count keeping the well ODEs stable."""
    k_eff = k * (1.0 / c + 1.0 / (1.0 - c))
    max_sub = 0.2 / k_eff if k_eff > 0 else dt
    steps = max(1, int(math.ceil(dt / max(max_sub, 1e-6))))
    return min(steps, 10_000)


def well_substep_cap(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The dt-independent part of :func:`well_substeps`, per element.

    Each element's longest stable substep ``0.2 / k_eff``, floored at
    1 us; ``inf`` where ``k_eff <= 0`` (the scalar form's ``max_sub =
    dt`` gives those one substep, and so does ``dt / inf``).
    """
    k_eff = k * (1.0 / c + 1.0 / (1.0 - c))
    positive = k_eff > 0
    max_sub = np.where(positive, 0.2 / np.where(positive, k_eff, 1.0),
                       np.inf)
    return np.maximum(max_sub, 1e-6)


def well_substeps_capped(dt: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Substep counts from a :func:`well_substep_cap` array."""
    steps = np.ceil(dt / cap)
    return np.minimum(np.maximum(steps, 1), 10_000).astype(np.int64)


def step_wells(
    y1: Number, y2: Number, current: Number, h: Number,
    steps: Union[int, np.ndarray], c: Number, k: Number,
) -> Tuple[Number, Number]:
    """``steps`` Euler substeps of length ``h`` of the two-well ODEs.

    Callers supply ``h = dt / steps`` with ``steps`` from
    :func:`well_substeps`.  On arrays, ``steps`` may be a per-row count
    array (``h``/``c``/``k`` per row too): every row runs its own count
    and is frozen once past it, so it ends bitwise where its count
    alone would leave it; a count of 0 leaves a row's wells untouched
    up to the final ``max(0.0, y2)``.  The freeze costs ops only from
    the smallest count on, so rows that share one count pay nothing.
    """
    counts = steps if isinstance(steps, np.ndarray) else None
    frozen_from = steps
    if counts is not None:
        steps = int(counts.max(initial=0))
        frozen_from = int(counts.min(initial=0))
    for s in range(steps):
        flow = k * (y2 / (1.0 - c) - y1 / c)
        n1 = y1 + h * (-current + flow)
        n2 = y2 + h * (-flow)
        n1 = where(n1 < 0.0, 0.0, n1)
        if s >= frozen_from:
            live = counts > s
            n1 = np.where(live, n1, y1)
            n2 = np.where(live, n2, y2)
        y1, y2 = n1, n2
    return y1, pymax(0.0, y2)


# ----------------------------------------------------------------------
# RC transient branch
# ----------------------------------------------------------------------
_ALPHA_CACHE: Dict[Tuple[float, float], float] = {}


def transient_alpha(dt: float, tau: float) -> float:
    """Memoised ``exp(-dt / tau)`` decay factor (scalar hot path).

    Computed with ``np.exp`` so the cached scalar equals the batch
    path's per-element value bitwise; memoised because a discharge
    cycle reuses a handful of (dt, tau) pairs millions of times.
    """
    key = (dt, tau)
    alpha = _ALPHA_CACHE.get(key)
    if alpha is None:
        alpha = float(np.exp(-dt / tau))
        if len(_ALPHA_CACHE) < 65536:
            _ALPHA_CACHE[key] = alpha
    return alpha


def step_transient(v_transient: Number, current: Number, r1: Number,
                   alpha: Number) -> Number:
    """Relax the RC branch toward ``I * R1`` with decay factor ``alpha``."""
    target = current * r1
    return target + (v_transient - target) * alpha


# ----------------------------------------------------------------------
# Supercapacitor filter
# ----------------------------------------------------------------------
def supercap_energies(capacitance_f: Number, rated_voltage: Number
                      ) -> Tuple[Number, Number]:
    """``(full_j, floor_j)``: a capacitor's energy at rated voltage and
    at the rail floor (half of rated)."""
    full = 0.5 * capacitance_f * (rated_voltage * rated_voltage)
    v_min = 0.5 * rated_voltage
    return full, 0.5 * capacitance_f * (v_min * v_min)


def supercap_smooth(
    demand_w: Number, dt: Number, voltage: Number,
    capacitance_f: Number, rated_voltage: Number, esr_ohm: Number,
    refill_power_w: Number,
    energies: Optional[Tuple[Number, Number]] = None,
) -> Tuple[Number, Number, Number, Number]:
    """One step of the LITTLE-rail supercap filter.

    Returns ``(battery_power_w, capacitor_energy_j, heat_j,
    new_voltage)`` -- the functional form of
    :meth:`repro.battery.supercap.Supercapacitor.smooth`, which
    delegates here so the scalar object and the fleet arrays run the
    same arithmetic.  ``energies`` is :func:`supercap_energies` of the
    capacitor, which both callers compute once; it is derived here
    when omitted.
    """
    stored = 0.5 * capacitance_f * (voltage * voltage)
    full, floor = (supercap_energies(capacitance_f, rated_voltage)
                   if energies is None else energies)
    headroom = pymax(0.0, full - stored)

    burst = demand_w > refill_power_w

    # Burst branch: serve the surplus above the refill budget from the
    # capacitor, down to the rail floor, with ESR heat billed to it.
    surplus_w = demand_w - refill_power_w
    want_j = surplus_w * dt
    usable_j = pymax(0.0, stored - floor)
    from_cap_j = pymin(want_j, usable_j)
    drew = where(burst, from_cap_j > 0.0, False)
    i = from_cap_j / dt / pymax(voltage, 0.5)
    draw_heat_j = i * i * esr_ohm * dt
    drained = pymax(floor, stored - from_cap_j - draw_heat_j)
    v_burst = pymin(sqrt(2.0 * pymax(0.0, drained) / capacitance_f),
                    rated_voltage)
    battery_burst = demand_w - from_cap_j / dt

    # Refill branch: spend leftover budget recharging toward rated.
    refill_w = pymin(refill_power_w - demand_w, refill_power_w)
    refilling = where(burst, False, (refill_w > 0.0) & (headroom > 0.0))
    add_j = pymin(refill_w * dt, headroom)
    v_refill = pymin(sqrt(2.0 * pymax(0.0, stored + add_j) / capacitance_f),
                     rated_voltage)
    battery_refill = demand_w + add_j / dt

    battery_w = where(burst, battery_burst,
                      where(refilling, battery_refill, demand_w))
    cap_j = where(burst, from_cap_j, 0.0)
    heat_j = where(drew, draw_heat_j, 0.0)
    new_v = where(drew, v_burst, where(refilling, v_refill, voltage))
    return battery_w, cap_j, heat_j, new_v
