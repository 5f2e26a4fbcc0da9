"""Time-t solution maps of plane ODEs dz/dt = g(t, z).

Three closed-form families are provided, plus a fixed-step RK4
approximation of any of them:

* Linear(lam):       g = lam*z,           A_t z = z*exp(lam*t)
* LimitCycle:        g = i*z + z*(4-|z|^2); in polar coordinates
                     rho(t) = 2*exp(4t) / sqrt(4/rho0^2 + exp(8t) - 1),
                     phi(t) = phi0 + t. The circle rho = 2 is invariant
                     and attracting; backward time blows up in finite
                     time when rho0 > 2.
* PeriodicForced(a): g = a*z + exp(i*t). Non-autonomous, so the solution
                     map has no group property; ``inverse`` here undoes
                     the time-t map (state at time t back to time 0) and
                     coincides with the time-(-t) map only at t = 2*pi*n.

Scalar calls raise DomainError where a map is undefined; array calls
mark those entries NaN so rendering loops can flag them Invalid, as where
PeriodicForced's exp(+-a*t) overflows (LimitCycle takes an equal form
there). Arrays go through core.evaluate a tile at a time, so RK4 stages
hold a tile. Each kind states g once, on real and imaginary parts
(_rhs_xy); RK4 steps those and stops stepping cells gone non-finite.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import GridSpec, RasterField, evaluate
from .fji import IterParams, _render, classify_grid  # perfbench patches classify_grid here


class FlowSpec:
    """Base for flow kinds: g on real and imaginary parts (_rhs_xy), and the array paths."""

    kind: str = ""

    def rhs(self, t: float, z):
        u, v = self._rhs_xy(t, z.real, z.imag)
        return u + 1j * v

    def _apply_array(self, z: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def _inverse_array(self, z: np.ndarray, t: float) -> np.ndarray:
        # An autonomous flow has the group property: A_t^{-1} = A_{-t}.
        return self._apply_array(z, -t)


def _at_time(fn, t: float):
    """fn(., t) as a one-argument array map. At t = 0 every kind is the
    exact identity, so no arithmetic runs there (evaluate copies it out)."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return lambda z: z
    return lambda z: fn(z, float(t))


def flow_apply(flow: FlowSpec, z, t: float):
    """A_t z. Accepts a scalar (raises DomainError when undefined) or an
    ndarray (undefined entries become NaN); a non-finite t raises
    ValueError."""
    return evaluate(_at_time(flow._apply_array, t), z, f"{flow.kind} flow at t={t}")


def flow_inverse(flow: FlowSpec, z, t: float):
    """Inverse of A_t (time-t state back to time 0)."""
    return evaluate(_at_time(flow._inverse_array, t), z, f"{flow.kind} inverse flow at t={t}")


def _exp_or_nan(x: float) -> float:
    """math.exp(x), or NaN where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.nan


@dataclass(frozen=True)
class Linear(FlowSpec):
    lam: complex = field(metadata={"key": "lambda"})
    kind: str = field(default="linear", init=False, repr=False)

    def _rhs_xy(self, t, x, y):
        z = np.array(x, np.complex128)
        z.imag = y  # named: numpy fuses lam*z (FMA), and forms lam*(temporary) as temporary*lam
        w = self.lam * z
        return w.real, w.imag

    def _apply_array(self, z, t):
        return z * np.exp(complex(self.lam) * t)


@dataclass(frozen=True)
class LimitCycle(FlowSpec):
    kind: str = field(default="limit_cycle", init=False, repr=False)

    def _rhs_xy(self, t, x, y):
        s = 4.0 - (x * x + y * y)
        u = x * s - y
        s *= y  # v = y*s + x in s's buffer: one temporary fewer per stage
        s += x
        return u, s

    def _apply_array(self, z, t):
        rho0 = np.abs(z)
        phi0 = np.angle(z)
        try:
            radicand = 4.0 / (rho0 * rho0) + math.exp(8.0 * t) - 1.0
            # rho0 = 0 gives radicand = inf and rho = 0: the equilibrium.
            rho = np.where(radicand > 0.0,
                           2.0 * math.exp(4.0 * t) / np.sqrt(np.abs(radicand)),
                           np.nan)
        except OverflowError:
            # exp(8t) overflows (t > 88.7, where no orbit blows up). An equal
            # form is rho = 2 / sqrt(1 + (2 exp(-4t) / rho0)^2 - exp(-8t)), and
            # exp(-8t) < 2^-1022 is below the rounding of the rest.
            rho = np.where(rho0 == 0.0, 0.0, 2.0 / np.hypot(1.0, 2.0 * math.exp(-4.0 * t) / rho0))
        return rho * np.exp(1j * (phi0 + t))


@dataclass(frozen=True)
class PeriodicForced(FlowSpec):
    a: float
    kind: str = field(default="periodic_forced", init=False, repr=False)

    @property
    def k(self) -> complex:
        return (self.a + 1j) / (1.0 + self.a * self.a)

    def _rhs_xy(self, t, x, y):
        return self.a * x + math.cos(t), self.a * y + math.sin(t)

    def _apply_array(self, z, t):
        k = self.k
        return (z + k) * _exp_or_nan(self.a * t) - k * complex(math.cos(t), math.sin(t))

    def _inverse_array(self, z, t):
        k = self.k
        return (z + k * complex(math.cos(t), math.sin(t))) * _exp_or_nan(-self.a * t) - k


@dataclass(frozen=True)
class NumericRK4(FlowSpec):
    """Fixed-step RK4 of a closed-form kind's g on real and imaginary parts,
    which stops stepping cells gone non-finite. It takes ceil(|t|/dt) uniform
    steps (_steps) landing exactly on t, so halving dt halves every step."""

    base: FlowSpec
    dt: float = 1e-3
    kind: str = field(default="numeric_rk4", init=False, repr=False)
    _CHECK_STEPS = 3  # steps between finiteness checks (a constant, not a field)

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if isinstance(self.base, NumericRK4):
            raise ValueError("base must be a closed-form flow kind")

    def _rhs_xy(self, t, x, y):
        return self.base._rhs_xy(t, x, y)

    def _steps(self, t: float) -> int:
        """Steps over a span of length |t|, at least one; OverflowError
        where |t|/dt leaves the float range."""
        return max(1, math.ceil(abs(t) / self.dt))

    def _integrate(self, z, t0: float, t1: float):
        """RK4 from t0 to t1 on the parts x, y of the 1-D array z. Its finite
        values are the complex loop's: there every product is a real times a
        complex value, or i*z, which numpy forms componentwise (Linear's lam*z
        stays complex); only a zero's sign may differ, which changes no nonzero
        + - * result. Non-finite is absorbing, as each step adds (h/6)*S, so
        every _CHECK_STEPS steps the cells found non-finite stop and read NaN."""
        n = self._steps(t1 - t0)
        h = (t1 - t0) / n
        g = self.base._rhs_xy
        x, y = z.real.copy(), z.imag.copy()
        live = np.arange(z.size)
        out = np.full(z.size, complex(math.nan, math.nan))
        t = t0
        for i in range(1, n + 1):
            k1x, k1y = g(t, x, y)
            k2x, k2y = g(t + h / 2, x + (h / 2) * k1x, y + (h / 2) * k1y)
            k3x, k3y = g(t + h / 2, x + (h / 2) * k2x, y + (h / 2) * k2y)
            k4x, k4y = g(t + h, x + h * k3x, y + h * k3y)
            x = x + (h / 6) * (k1x + 2 * k2x + 2 * k3x + k4x)
            y = y + (h / 6) * (k1y + 2 * k2y + 2 * k3y + k4y)
            t += h
            if i % self._CHECK_STEPS == 0:
                ok = np.isfinite(x) & np.isfinite(y)
                live, x, y = live[ok], x[ok], y[ok]
        out.real[live], out.imag[live] = x, y
        return out

    def _apply_array(self, z, t):
        return self._integrate(z, 0.0, t)

    def _inverse_array(self, z, t):
        return self._integrate(z, t, 0.0)


FLOW_KINDS = {
    "linear": Linear,
    "limit_cycle": LimitCycle,
    "periodic_forced": PeriodicForced,
    "numeric_rk4": NumericRK4,
}


def ode_residual(flow: FlowSpec, z: complex, t: float, h: float) -> float:
    """|central-difference d/dt A_t z - g(t, A_t z)|.

    Zero (to O(h^2)) exactly when the flow map solves its own equation.
    """
    if not (h > 0):
        raise ValueError("h must be positive")
    w_plus = flow_apply(flow, z, t + h)
    w_minus = flow_apply(flow, z, t - h)
    w = flow_apply(flow, z, t)
    deriv = (w_plus - w_minus) / (2.0 * h)
    return abs(deriv - flow.rhs(t, w))


def fmi_flow_julia(grid: GridSpec, c: complex, flow: FlowSpec, t: float,
                   params: IterParams = IterParams()) -> RasterField:
    """Raster of the time-t flow image of the filled Julia set: each pixel
    is pulled back through the inverse flow map and classified by plain
    escape-time iteration. At t = 0 this is exactly the Julia render."""
    return _render(grid, params, lambda w: flow_inverse(flow, w, t), c)


def trajectory_sweep(grid: GridSpec, c: complex, flow: FlowSpec, t_values,
                     params: IterParams = IterParams()) -> Iterator[RasterField]:
    """Flow-image rasters at each time in t_values, in order, drawn one at a
    time; a non-finite time raises ValueError when its frame is reached."""
    return (fmi_flow_julia(grid, c, flow, float(t), params) for t in t_values)
