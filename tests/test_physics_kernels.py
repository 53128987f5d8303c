"""Unit tests for the shared physics kernels (satellite of the fleet PR).

The fleet's bit-for-bit contract rests on two pillars, each pinned
here:

1. **Invocation-shape invariance.**  Every kernel produces identical
   bits whether called with Python floats or with ``(N,)`` float64
   arrays -- the scalar object graph and the fleet batch literally
   share the arithmetic.
2. **Delegation.**  The scalar classes (:class:`Cell`,
   :class:`Supercapacitor`, :class:`ThermalNetwork`) actually route
   through these kernels, so there is exactly one copy of the maths.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.battery import kinetics as K
from repro.battery.cell import Cell
from repro.battery.chemistry import pick_big_little
from repro.battery.supercap import Supercapacitor
from repro.thermal.conduction import (euler_conduction, stable_substep,
                                      substep_count)
from repro.thermal.rc_network import phone_thermal_network

RNG = np.random.default_rng(20260808)


def bits(x: float) -> int:
    return np.float64(x).view(np.uint64).item()


def assert_scalar_matches_array(fn, columns, n=64):
    """``fn`` elementwise over arrays == ``fn`` per scalar, bitwise."""
    arrays = [np.asarray(col, dtype=np.float64) for col in columns]
    batched = fn(*arrays)
    if not isinstance(batched, tuple):
        batched = (batched,)
    for i in range(len(arrays[0])):
        scalar = fn(*(float(col[i]) for col in arrays))
        if not isinstance(scalar, tuple):
            scalar = (scalar,)
        for out_s, out_a in zip(scalar, batched):
            assert bits(out_s) == bits(float(out_a[i])), (
                f"row {i}: scalar {out_s!r} != array {out_a[i]!r}")


# ----------------------------------------------------------------------
# Dispatch helpers
# ----------------------------------------------------------------------
def test_np_exp_is_invocation_shape_invariant():
    """The fleet's exp convention: one np.exp element == scalar np.exp."""
    xs = np.concatenate([RNG.uniform(-30.0, 5.0, 512), [0.0, -0.0, -24.0]])
    vec = np.exp(xs)
    for i, x in enumerate(xs):
        assert bits(float(np.exp(float(x)))) == bits(float(vec[i]))


def test_pymax_pymin_match_python_builtins_including_signed_zero():
    pairs = [(-0.0, 0.0), (0.0, -0.0), (1.0, 1.0), (2.0, 3.0), (3.0, 2.0),
             (-1.5, -1.5)]
    for a, b in pairs:
        assert bits(K.pymax(a, b)) == bits(max(a, b))
        assert bits(K.pymin(a, b)) == bits(min(a, b))
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    vmax, vmin = K.pymax(a, b), K.pymin(a, b)
    for i, (x, y) in enumerate(pairs):
        assert bits(float(vmax[i])) == bits(max(x, y))
        assert bits(float(vmin[i])) == bits(min(x, y))


def test_sqrt_scalar_and_array_agree():
    xs = RNG.uniform(0.0, 50.0, 256)
    vec = np.sqrt(xs)
    for i, x in enumerate(xs):
        assert bits(math.sqrt(float(x))) == bits(float(vec[i]))


# ----------------------------------------------------------------------
# Electrical kernels: scalar call == array call, bitwise
# ----------------------------------------------------------------------
def test_state_of_charge_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.state_of_charge,
        [RNG.uniform(0.0, 900.0, n), RNG.uniform(0.0, 900.0, n),
         RNG.uniform(100.0, 2000.0, n)])


def test_ocv_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.ocv, [RNG.uniform(0.0, 1.0, n), np.full(n, 2.5), np.full(n, 3.65)])


def test_internal_resistance_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.internal_resistance,
        [RNG.uniform(0.0, 1.0, n), RNG.uniform(-5.0, 60.0, n),
         RNG.uniform(0.01, 0.3, n), np.full(n, 0.006)])


def test_current_for_power_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.current_for_power,
        [RNG.uniform(-0.5, 12.0, n), RNG.uniform(2.0, 4.2, n),
         RNG.uniform(0.02, 0.4, n)])


def test_max_power_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.max_power,
        [RNG.uniform(2.0, 4.2, n), RNG.uniform(0.02, 0.4, n),
         RNG.uniform(0.5, 8.0, n)])


def test_rate_loss_shape_invariant():
    n = 128
    i_sus = RNG.uniform(0.0, 2.0, n)
    i_sus[:8] = 0.0  # strained branch
    assert_scalar_matches_array(
        K.rate_loss,
        [RNG.uniform(-0.1, 3.0, n), i_sus, RNG.uniform(0.0, 0.4, n)])


def test_step_transient_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.step_transient,
        [RNG.uniform(-0.05, 0.2, n), RNG.uniform(0.0, 3.0, n),
         RNG.uniform(0.01, 0.2, n), RNG.uniform(0.1, 0.999, n)])


def test_supercap_smooth_shape_invariant():
    n = 128
    assert_scalar_matches_array(
        K.supercap_smooth,
        [RNG.uniform(0.0, 6.0, n), np.full(n, 2.0),
         RNG.uniform(1.0, 4.2, n), np.full(n, 5.0), np.full(n, 4.2),
         np.full(n, 0.02), np.full(n, 1.5)])


def test_step_wells_shape_invariant():
    n = 64
    y1 = RNG.uniform(0.0, 500.0, n)
    y2 = RNG.uniform(0.0, 800.0, n)
    cur = RNG.uniform(0.0, 3.0, n)
    h = np.full(n, 0.5)
    c = np.full(n, 0.5)
    k = np.full(n, 0.002)
    a1, a2 = K.step_wells(y1, y2, cur, h, 4, c, k)
    for i in range(n):
        s1, s2 = K.step_wells(float(y1[i]), float(y2[i]), float(cur[i]),
                              0.5, 4, 0.5, 0.002)
        assert bits(s1) == bits(float(a1[i]))
        assert bits(s2) == bits(float(a2[i]))


def test_transient_alpha_is_np_exp_and_memoised():
    assert bits(K.transient_alpha(2.0, 37.0)) \
        == bits(float(np.exp(np.float64(-2.0 / 37.0))))
    assert K.transient_alpha(2.0, 37.0) is K.transient_alpha(2.0, 37.0) \
        or K.transient_alpha(2.0, 37.0) == K.transient_alpha(2.0, 37.0)


# ----------------------------------------------------------------------
# Conduction kernel
# ----------------------------------------------------------------------
def test_substep_count_matches_array_formula():
    sub = 13.3
    for dt in (0.1, 1.0, 2.0, 13.3, 40.0, 1e7):
        vec = int(np.minimum(np.maximum(np.ceil(np.float64(dt) / sub), 1.0),
                             100_000.0))
        assert substep_count(dt, sub) == vec


def test_euler_conduction_float_vs_array_columns():
    links = [(0, 2, 0.023), (0, 1, 0.008), (1, 2, 0.05), (2, 3, 0.35)]
    active = [(0, 12.0), (1, 60.0), (2, 90.0)]
    n = 32
    temps = [RNG.uniform(20.0, 60.0, n) for _ in range(4)]
    inj = [RNG.uniform(-1.0, 3.0, n) for _ in range(3)] + [0.0]
    out = euler_conduction([t.copy() for t in temps], inj, links, active,
                           3, np.full(n, 0.7))
    for i in range(n):
        scalar = euler_conduction(
            [float(t[i]) for t in temps],
            [float(c[i]) if isinstance(c, np.ndarray) else c for c in inj],
            links, active, 3, 0.7)
        for node in range(4):
            assert bits(scalar[node]) == bits(float(out[node][i]))


def test_stable_substep_matches_network():
    net = phone_thermal_network()
    names, links, active, sub = net.compiled_topology()
    caps = {"cpu": 12.0, "battery": 60.0, "surface": 90.0,
            "ambient": math.inf}
    raw_links = [("cpu", "surface", 0.023), ("cpu", "battery", 0.008),
                 ("battery", "surface", 0.05), ("surface", "ambient", 0.35)]
    assert sub == stable_substep(caps, raw_links)
    assert names == ["cpu", "battery", "surface", "ambient"]


# ----------------------------------------------------------------------
# Delegation: the scalar objects route through the kernels
# ----------------------------------------------------------------------
def test_cell_observations_delegate_to_kernels():
    big_chem, _ = pick_big_little()
    cell = Cell(big_chem, capacity_mah=120.0)
    cell.draw_power(1.2, 5.0)  # perturb state off the initial point
    soc = cell.state_of_charge
    assert bits(soc) == bits(K.state_of_charge(
        cell._available, cell._bound, cell.capacity_amp_s))
    assert bits(cell.open_circuit_voltage()) == bits(K.ocv(
        soc, big_chem.cutoff_voltage, big_chem.full_voltage))
    assert bits(cell.internal_resistance()) == bits(K.internal_resistance(
        soc, cell.temperature_c, big_chem.internal_resistance,
        big_chem.resistance_temp_coeff))
    veff = cell.open_circuit_voltage() - cell._v_transient
    assert bits(cell.max_power_w()) == bits(K.max_power(
        veff, cell.internal_resistance(), cell.max_current))
    assert bits(cell.sustainable_current()) == bits(K.sustainable_current(
        cell._bound, big_chem.kibam_c, big_chem.kibam_k))


def test_supercap_smooth_delegates_to_kernel():
    cap = Supercapacitor()
    v0 = cap.voltage
    expect = K.supercap_smooth(4.0, 2.0, v0, cap.capacitance_f,
                               cap.rated_voltage, cap.esr_ohm,
                               cap.refill_power_w)
    got = cap.smooth(4.0, 2.0)
    assert bits(got.battery_power_w) == bits(expect[0])
    assert bits(got.capacitor_energy_j) == bits(expect[1])
    assert bits(got.heat_j) == bits(expect[2])
    assert bits(cap.voltage) == bits(expect[3])


def test_thermal_network_step_matches_conduction_kernel():
    net = phone_thermal_network()
    names, links, active, sub = net.compiled_topology()
    pre = [net.temperature(name) for name in names]
    inj = {"cpu": 1.5, "battery": 0.2, "surface": 0.4}
    steps = substep_count(2.0, sub)
    expect = euler_conduction(pre, [inj.get(name, 0.0) for name in names],
                              links, active, steps, 2.0 / steps)
    net.step(2.0, inj)
    for i, name in enumerate(names):
        assert bits(net.temperature(name)) == bits(expect[i])


def test_well_integration_conserves_charge_without_draw():
    y1, y2 = K.step_wells(100.0, 300.0, 0.0, 0.5, 200, 0.4, 0.01)
    assert y1 + y2 == pytest.approx(400.0, rel=1e-9)
    assert y1 > 100.0  # recovery effect: bound charge migrates back
