import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from fractaldyn import core
from fractaldyn.core import DomainError, GridSpec
from fractaldyn.fji import IterParams
from fractaldyn.flows import (LimitCycle, Linear, NumericRK4, PeriodicForced,
                              flow_apply, flow_inverse, fmi_flow_julia,
                              ode_residual, trajectory_sweep)


def sample_points(n=100, seed=1, rmin=0.0, rmax=2.0):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(rmin, rmax, n)
    phi = rng.uniform(-np.pi, np.pi, n)
    return rho * np.exp(1j * phi)


def test_linear_contraction_value():
    assert flow_apply(Linear(-1), 1 + 0j, 1.0) == pytest.approx(math.exp(-1))


def test_limit_cycle_invariant_circle():
    lc = LimitCycle()
    for t in (0.3, 1.0, -0.6, 2.0):
        for phi in (0.0, 1.1, -2.3):
            z = 2.0 * complex(math.cos(phi), math.sin(phi))
            w = flow_apply(lc, z, t)
            assert abs(abs(w) - 2.0) <= 1e-9
            # angle advances by exactly t
            expected = phi + t
            assert math.cos(expected) * abs(w) == pytest.approx(w.real, abs=1e-9)


def test_periodic_forced_identity_at_t0():
    pf = PeriodicForced(0.01)
    for z in (0j, 1 + 1j, -0.3 + 0.7j):
        assert flow_apply(pf, z, 0.0) == z


def test_flow_apply_t0_is_exact_identity_for_all_kinds():
    zs = sample_points(20, seed=3)
    for flow in (Linear(-1), LimitCycle(), PeriodicForced(0.01),
                 NumericRK4(Linear(-1), 1e-3)):
        for evaluate in (flow_apply, flow_inverse):
            out = evaluate(flow, zs, 0.0)
            assert np.array_equal(out, zs) and out is not zs
            assert evaluate(flow, complex(zs[1]), 0.0) == complex(zs[1])
            for t in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    evaluate(flow, zs, t)


def test_group_property_autonomous():
    zs = sample_points(50, seed=5, rmin=0.1, rmax=1.9)
    for flow in (Linear(-0.8 + 0.3j), LimitCycle()):
        for s, t in [(0.2, 0.5), (0.7, -0.4), (-0.3, -0.2)]:
            a = flow_apply(flow, flow_apply(flow, zs, s), t)
            b = flow_apply(flow, zs, s + t)
            assert np.max(np.abs(a - b)) <= 1e-9


def test_round_trip_closed_forms():
    zs = sample_points(100, seed=7, rmin=0.05, rmax=1.95)
    ts = np.linspace(-1, 1, 9)
    for flow in (Linear(-1), Linear(0.4 - 1.1j), LimitCycle(), PeriodicForced(0.01)):
        for t in ts:
            w = flow_apply(flow, zs, float(t))
            back = flow_inverse(flow, w, float(t))
            assert np.nanmax(np.abs(back - zs)) <= 1e-9


def test_periodic_forced_round_trip_at_full_period():
    pf = PeriodicForced(0.01)
    zs = sample_points(100, seed=11)
    t = 2 * math.pi
    back = flow_inverse(pf, flow_apply(pf, zs, t), t)
    assert np.max(np.abs(back - zs)) <= 1e-9


def test_periodic_forced_inverse_is_not_backward_map_off_period():
    # solution-map inverse equals the time-(-t) map only at multiples of 2*pi
    pf = PeriodicForced(0.01)
    z = 0.4 + 0.2j
    t = math.pi / 2
    w = flow_apply(pf, z, t)
    assert abs(flow_inverse(pf, w, t) - z) <= 1e-12
    assert abs(flow_apply(pf, w, -t) - z) > 1e-3


def test_limit_cycle_backward_blowup_raises():
    with pytest.raises(DomainError):
        flow_apply(LimitCycle(), 3 + 0j, -1.0)
    out = flow_apply(LimitCycle(), np.array([3 + 0j]), -1.0)
    assert np.isnan(out[0])


def test_limit_cycle_origin_is_equilibrium():
    for t in (-2.0, -0.5, 0.3, 1.7):
        assert flow_apply(LimitCycle(), 0j, t) == 0j


def test_limit_cycle_attracts_to_radius_two():
    lc = LimitCycle()
    for rho0 in (0.5, 1.0, 3.0):
        gaps = [abs(abs(flow_apply(lc, rho0 + 0j, t)) - 2.0)
                for t in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("flow,z,t,tol", [
    (Linear(-1), 1 + 0j, 0.5, 1e-8),
    (PeriodicForced(0.01), 1 + 1j, 1.0, 1e-6),
    (LimitCycle(), 2 + 0j, 0.0, 1e-6),
])
def test_ode_residual_named_cases(flow, z, t, tol):
    assert ode_residual(flow, z, t, 1e-5) <= tol


def test_ode_residual_sampled_all_kinds():
    zs = sample_points(100, seed=13, rmin=0.1, rmax=1.8)
    for flow in (Linear(-0.5 + 1j), LimitCycle(), PeriodicForced(0.01)):
        for z in zs[:25]:
            assert ode_residual(flow, complex(z), 0.4, 1e-5) <= 1e-6


def test_rk4_matches_closed_form_and_order():
    zs = sample_points(100, seed=42, rmin=0.3, rmax=1.5)
    flow = LimitCycle()
    t = 1.0
    exact = flow_apply(flow, zs, t)
    errs = []
    for dt in (0.02, 0.01):
        approx = flow_apply(NumericRK4(flow, dt), zs, t)
        errs.append(np.max(np.abs(approx - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0  # fourth order: ~16x per halving
    # absolute accuracy at the default step
    fine = flow_apply(NumericRK4(flow, 1e-3), zs, t)
    assert np.max(np.abs(fine - exact)) <= 1e-10


def test_rk4_round_trip():
    zs = sample_points(50, seed=19, rmin=0.2, rmax=1.8)
    for base in (Linear(-1), LimitCycle(), PeriodicForced(0.01)):
        rk = NumericRK4(base, 1e-3)
        for t in (0.3, 1.0):
            back = flow_inverse(rk, flow_apply(rk, zs, t), t)
            assert np.max(np.abs(back - zs)) <= 1e-6


def test_rk4_validation():
    with pytest.raises(ValueError):
        NumericRK4(Linear(-1), 0.0)
    with pytest.raises(ValueError):
        NumericRK4(NumericRK4(Linear(-1), 1e-3), 1e-3)


def test_fmi_flow_julia_t0_equals_render(basilica_512):
    field = fmi_flow_julia(basilica_512.grid, -1 + 0j, Linear(1), 0.0,
                           IterParams(400, 2.0))
    assert np.array_equal(field.status, basilica_512.status)
    assert np.array_equal(field.escape_iter, basilica_512.escape_iter)
    assert np.array_equal(field.last_magnitude, basilica_512.last_magnitude)


def test_expansion_flow_rescales_mask(basilica_512):
    from fractaldyn.analysis import compare_masks
    grid_e = basilica_512.grid.affine_image(math.e, 0)
    field = fmi_flow_julia(grid_e, -1 + 0j, Linear(1), 1.0, IterParams(400, 2.0))
    cmp = compare_masks(field, basilica_512)
    assert cmp.jaccard >= 0.9


def test_trajectory_sweep_single_zero_time(basilica_512):
    frames = list(trajectory_sweep(basilica_512.grid, -1 + 0j, LimitCycle(), [0.0],
                                   IterParams(400, 2.0)))
    assert len(frames) == 1
    assert np.array_equal(frames[0].status, basilica_512.status)


def test_trajectory_sweep_rejects_nonfinite_t():
    grid = GridSpec(0j, 2.0, 2.0, 8, 8)
    with pytest.raises(ValueError):
        list(trajectory_sweep(grid, 0j, Linear(-1), [0.0, math.inf]))


def test_flow_inverse_marks_blowup_pixels_invalid():
    # the pullback runs backward in time; limit-cycle trajectories outside
    # radius 2 blow up backward, so those pixels go Invalid
    grid = GridSpec(0j, 6.0, 6.0, 33, 33)
    field = fmi_flow_julia(grid, 0j, LimitCycle(), 0.8, IterParams(50, 2.0))
    assert field.invalid_mask().sum() > 0


def _rk4_inverse_peak(px):
    """tracemalloc peak of one RK4 flow_inverse over a px x px window,
    less its output."""
    z = GridSpec(0j, 3.0, 3.0, px, px).points()
    tracemalloc.start()
    try:
        out = flow_inverse(NumericRK4(LimitCycle(), 0.1), z, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == z.shape and np.isfinite(out).all()
    return peak - out.nbytes


def test_rk4_memory_does_not_grow_with_the_frame():
    assert _rk4_inverse_peak(1024) <= 2 * _rk4_inverse_peak(256)


def _complex_rk4(base, dt, z, t0, t1):
    """The RK4 loop NumericRK4._integrate ran before it stepped real and
    imaginary parts, frozen as its oracle: one complex state, every cell
    stepped every step, and each kind's g stated on complex z."""
    if isinstance(base, Linear):
        g = lambda t, z: base.lam * z  # noqa: E731
    elif isinstance(base, LimitCycle):
        g = lambda t, z: 1j * z + z * (4.0 - (z.real * z.real + z.imag * z.imag))  # noqa: E731
    else:
        g = lambda t, z: base.a * z + complex(math.cos(t), math.sin(t))  # noqa: E731
    n = max(1, math.ceil(abs(t1 - t0) / dt))
    h = (t1 - t0) / n
    t = t0
    with np.errstate(all="ignore"):
        for _ in range(n):
            k1 = g(t, z)
            k2 = g(t + h / 2, z + (h / 2) * k1)
            k3 = g(t + h / 2, z + (h / 2) * k2)
            k4 = g(t + h, z + h * k3)
            z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
    return z


def _rk4_seeds():
    """17,000 seeds out to |z| = 3.7, where LimitCycle's backward orbits
    blow up at different steps, with zeros of either sign and non-finite
    and huge seeds. As complex values they exceed 256 KiB, the size from
    which numpy computes an operation on a temporary in place, so the
    oracle meets that path as the complex loop did on a full tile."""
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
               complex(-math.inf, 1), complex(1, math.inf), 1e300j, 1e300 + 0j,
               2 + 0j, -2j, 3.7 + 0j]
    return np.concatenate([special, sample_points(17000 - len(special), seed=23, rmax=3.7)])


def _assert_same_values(got, want):
    # Equal as floats, so +0 == -0. A seed whose imaginary part is -0, at
    # the origin, keeps it backward here: y + (h/6)*0 with h < 0 is
    # -0 + -0. The complex loop's product (h/6)*S also adds 0*Re(S) = +0
    # to that part, so it reads +0. No output depends on that sign: the
    # renders only add, subtract, multiply and compare these values (the
    # orbit kernel, the escape test, pixel lookup), and none of those
    # turns a zero's sign into a nonzero difference.
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[finite], want[finite])


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 30])
@pytest.mark.parametrize("base", [Linear(-1), Linear(-0.8 + 0.3j), LimitCycle(),
                                  PeriodicForced(0.01), PeriodicForced(-3)], ids=repr)
def test_rk4_has_the_values_of_the_complex_loop(base, steps):
    t = 0.5
    rk = NumericRK4(base, t / (steps - 0.5))
    assert rk._steps(t) == steps
    z = _rk4_seeds()
    for evaluate, span in ((flow_apply, (0.0, t)), (flow_inverse, (t, 0.0))):
        want = _complex_rk4(base, rk.dt, z, *span)
        _assert_same_values(evaluate(rk, z, t), want)
        if isinstance(base, LimitCycle) and evaluate is flow_inverse and steps == 30:
            # cells leave the floats at different steps
            assert 0.05 < np.mean(~np.isfinite(want)) < 0.95


def test_rk4_stops_stepping_a_tile_whose_cells_all_leave_the_floats():
    # 64-cell tiles; every seed of the first one blows up backward in time
    z = np.concatenate([3.0 * np.exp(1j * np.linspace(-3.0, 3.0, 64)), _rk4_seeds()[:200]])
    base = LimitCycle()
    rk = NumericRK4(base, 0.5 / 29.5)
    sizes = []
    rhs = LimitCycle._rhs_xy

    def counted(self, t, x, y):
        sizes.append(x.size)
        return rhs(self, t, x, y)

    with mock.patch.object(core, "_TILE_CELLS", 64), \
            mock.patch.object(LimitCycle, "_rhs_xy", counted):
        got = flow_inverse(rk, z, 0.5)
    _assert_same_values(got, _complex_rk4(base, rk.dt, z, 0.5, 0.0))
    assert not np.isfinite(got[:64]).any()
    # 30 steps end on a check, so every non-finite cell reads NaN + NaN i
    dead = ~np.isfinite(got)
    assert np.isnan(got.real[dead]).all() and np.isnan(got.imag[dead]).all()
    first = sizes[:4 * 30]
    assert first[:12] == [64] * 12 and first[-1] == 0
    assert sum(first) < 4 * 30 * 64 // 2


def test_closed_forms_past_the_float_range_of_exp():
    # LimitCycle: exp(8t) overflows for t > 88.7; the run takes an equal
    # form, which meets the rounded radius 2 on either side of t = 88.7
    z = np.array([0j, 0.5 + 0.5j, 1.0 + 0j, -1.9j, 2.0 + 0j, 3.0 + 0j])
    for t in (88.0, 89.0, 100.0, 1000.0):
        w = flow_apply(LimitCycle(), z, t)
        assert w[0] == 0 and np.allclose(np.abs(w[1:]), 2.0, rtol=0, atol=1e-15)
        assert np.array_equal(flow_inverse(LimitCycle(), z, -t), w)
    assert abs(flow_inverse(LimitCycle(), 1j, -89.0)) == pytest.approx(2.0)
    # PeriodicForced: exp(-a*t) overflows, and so would the true value
    pf = PeriodicForced(-1000.0)
    assert np.isnan(flow_inverse(pf, z, 1.0)).all()
    assert np.isfinite(flow_apply(pf, z, 1.0)).all()
    with pytest.raises(DomainError):
        flow_inverse(pf, 0.5j, 1.0)
    with pytest.raises(DomainError):
        flow_apply(PeriodicForced(1.0), 0.5j, 710.0)
