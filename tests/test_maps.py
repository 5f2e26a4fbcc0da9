import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import qmc

from fractaldyn import core
from fractaldyn.core import DomainError, GridSpec
from fractaldyn.flows import (FLOW_KINDS, LimitCycle, Linear, NumericRK4, PeriodicForced,
                              flow_apply, flow_inverse)
from fractaldyn.maps import (MAP_KINDS, Affine, ArccosReciprocal, ArcsinRoot5,
                             FlowMap, Identity, InsufficientSamples,
                             QuadraticParam, ReciprocalSqrt, _halton, _reciprocal,
                             estimate_bilipschitz, eval_forward, eval_inverse)


def halton_points(n, center=0j, half=1.5, seed_dim=2):
    pts = qmc.Halton(d=seed_dim, scramble=False).random(n)
    return (center.real - half + 2 * half * pts[:, 0]) + \
        1j * (center.imag - half + 2 * half * pts[:, 1])


def test_registry_names():
    assert set(MAP_KINDS) == {"identity", "affine", "arccos_reciprocal",
                              "arcsin_root5", "reciprocal_sqrt",
                              "quadratic_param", "flow"}


def test_arccos_reciprocal_at_one():
    assert eval_forward(ArccosReciprocal(), 1 + 0j) == pytest.approx(math.pi / 2)


def test_arccos_reciprocal_inverse_of_forward_example():
    assert eval_inverse(ArccosReciprocal(), math.pi / 2 + 0j) == pytest.approx(1.0)


def test_arcsin_root5_fixes_zero():
    assert eval_forward(ArcsinRoot5(), 0j) == 0j


def test_affine_forward_example():
    assert eval_forward(Affine(2, 1), 1j) == 1 + 2j


def test_reciprocal_sqrt_inverse_at_zero():
    assert eval_inverse(ReciprocalSqrt(), 0j) == 1 + 0j


def test_quadratic_inverse_at_shift():
    m = QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j)
    assert eval_inverse(m, m.shift) == 0j


def test_affine_requires_nonzero_scale():
    with pytest.raises(ValueError):
        Affine(0, 1)


def test_pole_exclusions_raise_domain_error():
    with pytest.raises(DomainError):
        eval_forward(ArccosReciprocal(), 0j)
    with pytest.raises(DomainError):
        eval_inverse(ArccosReciprocal(), math.pi + 0j)  # cos = -1
    with pytest.raises(DomainError):
        eval_forward(ReciprocalSqrt(), 0j)
    with pytest.raises(DomainError):
        eval_inverse(ReciprocalSqrt(), 1j)  # w^2 = -1


def test_array_path_marks_nan_instead_of_raising():
    z = np.array([1 + 0j, 0j, 2 + 1j])
    out = eval_forward(ArccosReciprocal(), z)
    assert np.isnan(out[1]) and np.isfinite(out[0]) and np.isfinite(out[2])


# Points where each array call is undefined, by (kind, function); flows
# run to t = 1, where the limit cycle's backward solution from |z| = 3 has
# already blown up.
POLES = {
    ("arccos_reciprocal", "eval_forward"): [0, 1e-10],
    ("arccos_reciprocal", "eval_inverse"): [math.pi, -math.pi],
    ("reciprocal_sqrt", "eval_forward"): [0, 1e-10j],
    ("reciprocal_sqrt", "eval_inverse"): [1j, -1j],
    ("flow", "eval_inverse"): [3],
    ("limit_cycle", "flow_inverse"): [3],
    ("numeric_rk4", "flow_inverse"): [3],
}


def array_calls():
    for m in (Identity(), Affine(2, 1), ArccosReciprocal(), ArcsinRoot5(), ReciprocalSqrt(),
              QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j), FlowMap(LimitCycle(), 1.0)):
        for fn in (eval_forward, eval_inverse):
            yield pytest.param(lambda z, m=m, fn=fn: fn(m, z), POLES.get((m.kind, fn.__name__), []),
                               id=f"{m.kind}-{fn.__name__}")
    for flow in (Linear(-1), LimitCycle(), PeriodicForced(0.01), NumericRK4(LimitCycle(), 1e-2)):
        for fn in (flow_apply, flow_inverse):
            yield pytest.param(lambda z, flow=flow, fn=fn: fn(flow, z, 1.0),
                               POLES.get((flow.kind, fn.__name__), []),
                               id=f"{flow.kind}-{fn.__name__}")


@pytest.mark.parametrize("call,poles", list(array_calls()))
def test_array_evaluation_never_warns(call, poles):
    nans = [complex(math.nan, 0), complex(0, math.nan)]
    z = np.array(poles + [0, 1e300, 1e300j, -1e300 - 1e300j] + nans, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = call(z)
    assert not np.isfinite(out[:len(poles)]).any()
    assert not np.isfinite(out[-len(nans):]).any()


def test_reciprocal_pole_exclusion_edge():
    out = _reciprocal(np.array([1e-9, -1e-9j, 2e-9, -2e-9j]))
    assert np.isnan(out[:2]).all()
    assert np.isfinite(out[2:]).all()


@pytest.mark.parametrize("m,tol", [(Identity(), 1e-9), (Affine(2, 1), 1e-9),
                                   (Affine(-0.3 + 1.2j, 0.5j), 1e-9)])
def test_round_trip_exact_kinds(m, tol):
    zs = halton_points(10000)
    back = eval_inverse(m, eval_forward(m, zs))
    assert np.max(np.abs(back - zs)) <= tol


def test_round_trip_arccos_reciprocal():
    zs = halton_points(10000)
    zs = zs[np.abs(zs) > 1e-3]
    back = eval_inverse(ArccosReciprocal(), eval_forward(ArccosReciprocal(), zs))
    assert np.nanmax(np.abs(back - zs)) <= 1e-6


def test_round_trip_arcsin_root5():
    zs = halton_points(10000)
    back = eval_inverse(ArcsinRoot5(), eval_forward(ArcsinRoot5(), zs))
    assert np.nanmax(np.abs(back - zs)) <= 1e-6


def test_round_trip_reciprocal_sqrt():
    zs = halton_points(10000)
    zs = zs[np.abs(zs) > 1e-3]
    back = eval_inverse(ReciprocalSqrt(), eval_forward(ReciprocalSqrt(), zs))
    assert np.nanmax(np.abs(back - zs)) <= 1e-6


def test_round_trip_quadratic_right_half_plane():
    m = QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j)
    zs = halton_points(10000, center=1.5 + 0j, half=1.2)
    zs = zs[zs.real > 1e-3]
    back = eval_inverse(m, eval_forward(m, zs))
    assert np.max(np.abs(back - zs)) <= 1e-6


def test_round_trip_flow_map():
    m = FlowMap(Linear(-0.7 + 0.4j), t=0.8)
    zs = halton_points(10000)
    back = eval_inverse(m, eval_forward(m, zs))
    assert np.max(np.abs(back - zs)) <= 1e-9


# Round-trip properties away from the pole exclusions, the principal
# square root's cut (quadratic_param) and limit_cycle's blow-up. Per kind:
# a strategy for (spec, z) or (flow, t, z), and the tolerance on
# |inverse(forward(z)) - z| at that point. Coordinates below 1e-12 (other
# than 0) are left out: subnormal inputs lose the precision any tolerance
# relative to |z| assumes.
coords = st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-12)
anywhere = st.builds(complex, coords, coords)
off_pole = anywhere.filter(lambda z: abs(z) >= 1e-3) | st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)),
    st.floats(-8.0, -3.0).map(lambda e: 10.0 ** e), st.floats(0.0, 2 * math.pi))
small = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def limit_cycle_clear(case):
    """Backward time past rho = 2 blows up where 4/rho^2 + e^(8t) - 1 reaches
    0; keep that radicand above 1% of its terms."""
    _, t, z = case
    terms = 4.0 / abs(z) ** 2 + math.exp(8.0 * t) + 1.0
    return terms - 2.0 >= 0.01 * terms


FLOW_ROUND_TRIPS = {
    "linear": (st.tuples(st.builds(Linear, small), st.floats(-1.0, 1.0), anywhere),
               lambda f, t, z: 1e-13 * abs(z)),
    "limit_cycle": (st.tuples(st.just(LimitCycle()), st.floats(-1.0, 1.0),
                              anywhere.filter(lambda z: abs(z) >= 0.05)).filter(limit_cycle_clear),
                    lambda f, t, z: 1e-13 * abs(z) * (1 + abs(z) ** 2) * math.exp(8 * abs(t))),
    "periodic_forced": (st.tuples(st.builds(PeriodicForced, st.floats(-2.0, 2.0)),
                                  st.floats(-3.0, 3.0), anywhere),
                        lambda f, t, z: 1e-13 * (1 + abs(z)) * math.exp(abs(f.a * t))),
}
assert set(FLOW_ROUND_TRIPS) == set(FLOW_KINDS) - {"numeric_rk4"}


def rel(m, z):
    return 1e-12 * abs(z) * (1 + abs(z))


MAP_ROUND_TRIPS = {
    "identity": (st.tuples(st.just(Identity()), anywhere), lambda m, z: 0.0),
    "affine": (st.tuples(st.builds(Affine, small.filter(lambda a: abs(a) >= 0.1), small),
                         anywhere), lambda m, z: 1e-13 * (1 + abs(z) + abs(m.b / m.a))),
    "arccos_reciprocal": (st.tuples(st.just(ArccosReciprocal()), off_pole), rel),
    "arcsin_root5": (st.tuples(st.just(ArcsinRoot5()), anywhere), rel),
    "reciprocal_sqrt": (st.tuples(st.just(ReciprocalSqrt()), off_pole), rel),
    "quadratic_param": (st.tuples(st.builds(QuadraticParam, st.floats(-2.0, 2.0), small, small),
                                  st.builds(complex, st.floats(1e-3, 3.0), coords)),
                        lambda m, z: 1e-13 * (abs(z) + abs(m.shift) / abs(z))),
    "flow": (st.one_of(*(cases.map(lambda c: (FlowMap(c[0], c[1]), c[2]))
                         for cases, _ in FLOW_ROUND_TRIPS.values())),
             lambda m, z: FLOW_ROUND_TRIPS[m.flow.kind][1](m.flow, m.t, z)),
}
assert set(MAP_ROUND_TRIPS) == set(MAP_KINDS)


@pytest.mark.parametrize("kind", list(MAP_ROUND_TRIPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_map_round_trip_property(kind, data):
    cases, tol = MAP_ROUND_TRIPS[kind]
    m, z = data.draw(cases)
    assert abs(eval_inverse(m, eval_forward(m, z)) - z) <= tol(m, z)


@pytest.mark.parametrize("kind", list(FLOW_ROUND_TRIPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closed_form_flow_round_trip_property(kind, data):
    cases, tol = FLOW_ROUND_TRIPS[kind]
    flow, t, z = data.draw(cases)
    assert abs(flow_inverse(flow, flow_apply(flow, z, t), t) - z) <= tol(flow, t, z)


def test_affine_ratio_constant():
    m = Affine(-1.5 + 2j, 0.3)
    u = halton_points(500)
    v = u[::-1]
    keep = np.abs(u - v) > 1e-9
    ratios = np.abs(eval_forward(m, u[keep]) - eval_forward(m, v[keep])) / np.abs(u[keep] - v[keep])
    assert np.max(np.abs(ratios - abs(m.a))) <= 1e-12


@pytest.mark.parametrize("n", [100, 4096, 20000, 100003])
def test_halton_points_equal_scipy_unscrambled_halton_bytewise(n):
    ref = np.ascontiguousarray(qmc.Halton(d=4, scramble=False).random(n))
    pts = _halton(n)
    assert pts.shape == ref.shape and pts.dtype == ref.dtype
    assert pts.tobytes() == ref.tobytes()


def test_bilipschitz_identity():
    region = GridSpec(0j, 3.0, 3.0, 8, 8)
    l1, l2 = estimate_bilipschitz(Identity(), region, 1000)
    assert abs(l1 - 1.0) <= 1e-12 and abs(l2 - 1.0) <= 1e-12


def test_bilipschitz_affine():
    region = GridSpec(0j, 3.0, 3.0, 8, 8)
    l1, l2 = estimate_bilipschitz(Affine(2, 1), region, 1000)
    assert abs(l1 - 2.0) <= 1e-12 and abs(l2 - 2.0) <= 1e-12


def test_bilipschitz_bracket_holds_on_fresh_sample():
    region = GridSpec(0.2 - 0.1j, 2.0, 2.0, 8, 8)
    for m in (Identity(), Affine(0.7 - 0.2j, 1j)):
        l1, l2 = estimate_bilipschitz(m, region, 5000)
        rng = np.random.default_rng(17)
        u = (0.2 + rng.uniform(-1, 1, 20000)) + 1j * (-0.1 + rng.uniform(-1, 1, 20000))
        v = (0.2 + rng.uniform(-1, 1, 20000)) + 1j * (-0.1 + rng.uniform(-1, 1, 20000))
        r = np.abs(eval_forward(m, u) - eval_forward(m, v)) / np.abs(u - v)
        assert r.min() >= l1 - 1e-12 and r.max() <= l2 + 1e-12


def test_bilipschitz_quadratic_l2_near_dense_oracle():
    m = QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j)
    region = GridSpec(m.shift, 2.0, 2.0, 8, 8)
    _, l2 = estimate_bilipschitz(m, region, 200000)
    rng = np.random.default_rng(7)
    u = (m.shift.real + rng.uniform(-1, 1, 10 ** 6)) + \
        1j * (m.shift.imag + rng.uniform(-1, 1, 10 ** 6))
    v = (m.shift.real + rng.uniform(-1, 1, 10 ** 6)) + \
        1j * (m.shift.imag + rng.uniform(-1, 1, 10 ** 6))
    sep = np.abs(u - v)
    ok = sep > 1e-12
    dense_max = (np.abs(eval_forward(m, u[ok]) - eval_forward(m, v[ok])) / sep[ok]).max()
    assert abs(l2 - dense_max) / dense_max <= 0.10


def test_bilipschitz_l1_le_l2():
    region = GridSpec(2 + 0j, 1.0, 1.0, 8, 8)
    l1, l2 = estimate_bilipschitz(ArccosReciprocal(), region, 2000)
    assert 0 < l1 <= l2


def test_bilipschitz_requires_min_pairs():
    region = GridSpec(0j, 1.0, 1.0, 8, 8)
    with pytest.raises(ValueError):
        estimate_bilipschitz(Identity(), region, 99)


def test_bilipschitz_insufficient_samples():
    # window entirely inside the pole exclusion: every pair is invalid
    region = GridSpec(0j, 1e-10, 1e-10, 8, 8)
    with pytest.raises(InsufficientSamples):
        estimate_bilipschitz(ArccosReciprocal(), region, 500)


def test_scalar_requires_finite_input():
    with pytest.raises(ValueError):
        eval_forward(Identity(), complex(np.nan, 0))


def tiled_calls(t):
    """(name, evaluated call, the array function it runs) for every map
    kind's forward and inverse and every flow kind's apply and inverse at
    time t."""
    rk4 = NumericRK4(LimitCycle(), 0.05)
    maps = [Identity(), Affine(-0.3 + 1.2j, 0.5j), ArccosReciprocal(), ArcsinRoot5(),
            ReciprocalSqrt(), QuadraticParam(0.6, 0.02 - 0.02j, -0.175 - 0.655j), FlowMap(rk4, t)]
    flows = [Linear(-0.8 + 0.3j), LimitCycle(), PeriodicForced(0.01), rk4]
    assert {m.kind for m in maps} == set(MAP_KINDS) and {f.kind for f in flows} == set(FLOW_KINDS)
    for m in maps:
        yield f"{m.kind}-forward", lambda z, m=m: eval_forward(m, z), m._forward_array
        yield f"{m.kind}-inverse", lambda z, m=m: eval_inverse(m, z), m._inverse_array
    for f in flows:
        yield (f"{f.kind}-apply", lambda z, f=f: flow_apply(f, z, t),
               lambda z, f=f: f._apply_array(z, t))
        yield (f"{f.kind}-inverse", lambda z, f=f: flow_inverse(f, z, t),
               lambda z, f=f: f._inverse_array(z, t))


@settings(max_examples=25, deadline=None)
@given(z=arrays(np.complex128, st.integers(1, 150),
                elements=st.complex_numbers(max_magnitude=3.0) | st.sampled_from(
                    [0j, 1e-10, math.pi, 1j, -1j, 3 + 0j, complex(math.nan, 0), 1e300j])),
       t=st.floats(-0.6, 0.6).filter(lambda t: t != 0.0),
       tile=st.integers(1, 300))
def test_evaluate_is_independent_of_the_tile_size(z, t, tile):
    for name, call, fn in tiled_calls(t):
        # one untiled call; a flow map's inner evaluate gets one tile too
        with np.errstate(all="ignore"), mock.patch.object(core, "_TILE_CELLS", z.size):
            want = fn(z)
        for size in (1, 97, tile, z.size, 10 ** 6):
            with mock.patch.object(core, "_TILE_CELLS", size):
                got = call(z)
            assert got.dtype == np.complex128 and got.shape == z.shape, (name, size)
            assert got.tobytes() == want.tobytes(), (name, size)
