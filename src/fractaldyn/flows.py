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
mark those entries NaN so rendering loops can flag them Invalid. Arrays
go through core.evaluate a tile at a time, so RK4 stages hold a tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GridSpec, RasterField, evaluate
from .fji import IterParams, _render, classify_grid  # perfbench patches classify_grid here


class FlowSpec:
    """Base for flow kinds; subclasses implement the vectorized paths."""

    kind: str = ""

    def rhs(self, t: float, z):
        raise NotImplementedError

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


@dataclass(frozen=True)
class Linear(FlowSpec):
    lam: complex = field(metadata={"key": "lambda"})
    kind: str = field(default="linear", init=False, repr=False)

    def rhs(self, t, z):
        return self.lam * z

    def _apply_array(self, z, t):
        return z * np.exp(complex(self.lam) * t)


@dataclass(frozen=True)
class LimitCycle(FlowSpec):
    kind: str = field(default="limit_cycle", init=False, repr=False)

    def rhs(self, t, z):
        return 1j * z + z * (4.0 - (z.real * z.real + z.imag * z.imag))

    def _apply_array(self, z, t):
        rho0 = np.abs(z)
        phi0 = np.angle(z)
        radicand = 4.0 / (rho0 * rho0) + math.exp(8.0 * t) - 1.0
        # rho0 = 0 gives radicand = inf and rho = 0: the equilibrium.
        rho = np.where(radicand > 0.0,
                       2.0 * math.exp(4.0 * t) / np.sqrt(np.abs(radicand)),
                       np.nan)
        return rho * np.exp(1j * (phi0 + t))


@dataclass(frozen=True)
class PeriodicForced(FlowSpec):
    a: float
    kind: str = field(default="periodic_forced", init=False, repr=False)

    @property
    def k(self) -> complex:
        return (self.a + 1j) / (1.0 + self.a * self.a)

    def rhs(self, t, z):
        return self.a * z + complex(math.cos(t), math.sin(t))

    def _apply_array(self, z, t):
        k = self.k
        return (z + k) * math.exp(self.a * t) - k * complex(math.cos(t), math.sin(t))

    def _inverse_array(self, z, t):
        k = self.k
        return (z + k * complex(math.cos(t), math.sin(t))) * math.exp(-self.a * t) - k


@dataclass(frozen=True)
class NumericRK4(FlowSpec):
    """Fixed-step RK4 integration of one of the closed-form kinds' right-
    hand sides. The step count is ceil(|t|/dt) (_steps) with a uniform step
    landing exactly on t, so halving dt halves every step."""

    base: FlowSpec
    dt: float = 1e-3
    kind: str = field(default="numeric_rk4", init=False, repr=False)

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if isinstance(self.base, NumericRK4):
            raise ValueError("base must be a closed-form flow kind")

    def rhs(self, t, z):
        return self.base.rhs(t, z)

    def _steps(self, t: float) -> int:
        """Steps over a span of length |t|, at least one; OverflowError
        where |t|/dt leaves the float range."""
        return max(1, math.ceil(abs(t) / self.dt))

    def _integrate(self, z, t0: float, t1: float):
        n = self._steps(t1 - t0)
        h = (t1 - t0) / n
        g = self.base.rhs
        t = t0
        for _ in range(n):
            k1 = g(t, z)
            k2 = g(t + h / 2, z + (h / 2) * k1)
            k3 = g(t + h / 2, z + (h / 2) * k2)
            k4 = g(t + h, z + h * k3)
            z = z + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return z

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
                     params: IterParams = IterParams()) -> list[RasterField]:
    """Flow-image rasters at each time in t_values, in order. A non-finite
    time raises ValueError when its frame is reached."""
    return [fmi_flow_julia(grid, c, flow, float(t), params) for t in t_values]
