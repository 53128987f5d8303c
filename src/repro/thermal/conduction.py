"""Explicit-Euler conduction kernel shared by scalar and fleet paths.

The per-substep arithmetic of :class:`~repro.thermal.rc_network.
ThermalNetwork.step` lives here as a pure function over *columns*: a
column is either a Python float (one device, the scalar object path) or
an ``(N,)`` float64 array (one value per fleet row).  Both callers run
the identical sequence of IEEE-754 operations in identical link order,
which is what makes the fleet's batch-of-1 output bit-for-bit equal to
the scalar network (see ``repro.battery.kinetics`` for the full
rationale and DESIGN.md section 11 for the testing contract).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["substep_count", "stable_substep", "euler_conduction"]


def substep_count(dt: float, sub: float) -> int:
    """Number of Euler substeps for a step of ``dt`` at stability ``sub``."""
    steps = max(1, int(math.ceil(dt / sub)))
    return min(steps, 100_000)


def stable_substep(
    capacities: Dict[str, float], links: Sequence[Tuple[str, str, float]]
) -> float:
    """A timestep comfortably below the network's fastest RC constant.

    ``capacities`` maps node name to heat capacity (J/K, ``inf`` for
    boundaries); ``links`` are ``(a, b, conductance)`` triples.
    """
    fastest = math.inf
    total_g: Dict[str, float] = {name: 0.0 for name in capacities}
    for a, b, g in links:
        total_g[a] += g
        total_g[b] += g
    for name, cap in capacities.items():
        if math.isinf(cap) or total_g[name] == 0.0:
            continue
        fastest = min(fastest, cap / total_g[name])
    if math.isinf(fastest):
        return 1.0
    return max(fastest * 0.25, 1e-3)


def euler_conduction(
    temps: List,
    injections: Sequence,
    links: Sequence[Tuple[int, int, float]],
    active: Sequence[Tuple[int, float]],
    steps: Union[int, np.ndarray],
    h,
) -> List:
    """Advance node temperatures by ``steps`` Euler substeps of ``h``.

    Parameters
    ----------
    temps:
        One column per node, mutated functionally (a new list is
        returned; the input list is not modified).
    injections:
        Per-node heat injections (W), one column per node, constant
        over the step.
    links:
        ``(index_a, index_b, conductance)`` in insertion order.
    active:
        ``(index, heat_capacity)`` for non-boundary nodes.
    steps, h:
        Substep count and length.  When the columns are arrays, ``h``
        may be per row, and so may ``steps``: each row then runs its
        own count and is frozen once past it, ending bitwise where its
        count alone would leave it (a count of 0 leaves the row
        untouched).  The freeze costs ops only from the smallest count
        on, so rows that share one count pay nothing for it.
    """
    temps = list(temps)
    counts = steps if isinstance(steps, np.ndarray) else None
    frozen_from = steps
    if counts is not None:
        steps = int(counts.max(initial=0))
        frozen_from = int(counts.min(initial=0))
    for s in range(steps):
        flows = list(injections)
        for ia, ib, g in links:
            q = g * (temps[ia] - temps[ib])
            flows[ia] = flows[ia] - q
            flows[ib] = flows[ib] + q
        live = counts > s if s >= frozen_from else None
        for i, cap in active:
            new = temps[i] + h * flows[i] / cap
            temps[i] = new if live is None else np.where(live, new, temps[i])
    return temps
