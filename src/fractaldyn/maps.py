"""Catalogue of invertible complex maps with closed-form inverses.

Every multivalued operation takes its principal branch: log has imaginary
part in (-pi, pi], w**(1/n) = exp(log(w)/n), and arccos/arcsin are the
numpy principal branches. Poles are excluded with a 1e-9 neighborhood
(branch points are not); scalar evaluation raises DomainError there,
array evaluation returns NaN entries, and callers render those pixels
Invalid.

Forward / inverse pairs:

    identity            z                     w
    affine              a*z + b               (w - b) / a
    arccos_reciprocal   arccos(1/z - 1)       1 / (1 + cos w)
    arcsin_root5        arcsin(z)**(1/5)      sin(w**5)
    reciprocal_sqrt     (1/z - 1)**(1/2)      1 / (w**2 + 1)
    quadratic_param     z**2 + (a*c + b)      principal sqrt(w - (a*c + b))
    flow                A_t z                 inverse of A_t

quadratic_param is not globally one-to-one; its principal-sqrt inverse
makes inverse(forward(z)) = z hold on the right half-plane only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import GridSpec, evaluate, require_finite
from .flows import FlowSpec, flow_apply, flow_inverse

POLE_EXCLUSION = 1e-9
MIN_SEPARATION = 1e-12
_ROUNDING = 2.0 ** -30  # relative allowance for rounding in the _lipschitz bounds and their discs


class InsufficientSamples(RuntimeError):
    """Too few valid point pairs to estimate stretch bounds."""


class MapSpec:
    """Base for the registered map kinds."""

    kind: str = ""

    def _forward_array(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverse_array(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # _lipschitz(z, rho): an upper bound L on |f'| over the disc of radius
    # rho > 0 around each z, widened for rounding: every point of the disc
    # whose image under _forward_array, as numpy computes it, is not NaN has
    # that image within L * rho of the computed image of z; inf where no
    # bound is known. None for a map without such a bound anywhere, whose
    # forward splat then evaluates every sample.
    _lipschitz = None


def eval_forward(m: MapSpec, z):
    """f(z). Scalars raise DomainError outside the domain; ndarrays mark
    those entries NaN."""
    return evaluate(m._forward_array, z, f"{m.kind} forward")


def eval_inverse(m: MapSpec, w):
    """f^{-1}(w), with the same scalar/array conventions as eval_forward."""
    return evaluate(m._inverse_array, w, f"{m.kind} inverse")


def _principal_root(w: np.ndarray, n: int) -> np.ndarray:
    zero = w == 0
    out = np.exp(np.log(np.where(zero, 1.0, w)) / n)
    out[zero] = 0.0
    return out


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1/x, or NaN where x lies within POLE_EXCLUSION of the pole at 0."""
    return np.where(np.abs(x) <= POLE_EXCLUSION, np.nan, 1.0 / x)


@dataclass(frozen=True)
class Identity(MapSpec):
    kind: str = field(default="identity", init=False, repr=False)

    def _forward_array(self, z):
        return z

    def _inverse_array(self, w):
        return w


@dataclass(frozen=True)
class Affine(MapSpec):
    a: complex
    b: complex = 0j
    kind: str = field(default="affine", init=False, repr=False)

    def __post_init__(self):
        require_finite(self.a, "a")
        require_finite(self.b, "b")
        if self.a == 0:
            raise ValueError("affine scale a must be nonzero")

    def _forward_array(self, z):
        return self.a * z + self.b

    def _inverse_array(self, w):
        return (w - self.b) / self.a


@dataclass(frozen=True)
class ArccosReciprocal(MapSpec):
    """arccos(1/z - 1); pole at z = 0, inverse pole where cos w = -1."""

    kind: str = field(default="arccos_reciprocal", init=False, repr=False)

    def _forward_array(self, z):
        return np.arccos(_reciprocal(z) - 1.0)

    def _inverse_array(self, w):
        return _reciprocal(1.0 + np.cos(w))

    def _lipschitz(self, z, rho):
        """|f'(p)| = 1/(|p| sqrt|1 - 2p|), bounded over the disc around z.

        f'(p) = 1/(p^2 sqrt(1 - x^2)) with x = 1/p - 1, and 1 - x^2 =
        (2p - 1)/p^2. f is analytic off its pole and cut, real p <= 1/2
        (x on arccos's cuts x <= -1 or x >= 1). Let r = |z|, t = |1 - 2z|
        and h = rho + 2**-30 (1 + r + rho)^2. Where r > h, t > 2h and
        |im z| > h or re z > 1/2 + h, the disc of radius h misses the pole
        and the cut and every p in it has |p| >= r - h and |1 - 2p| >=
        t - 2h, so L0 = 1/((r - h) sqrt(t - 2h)) bounds |f'| there and, the
        disc being convex, |f(p) - f(z)| <= L0 |p - z|. Elsewhere L = inf.

        Rounding. The computed x of a sample p is within a few ulp of
        2/|p| + 1 of x(p). Between the two, every point is x(q) for some q
        within a few ulp of (1 + |p|)^2 of p, so inside the disc of radius
        h, where |dw/dx| = |q| / sqrt|2q - 1| = |q|^2 |f'(q)| <= (r + h)^2
        L0. np.arccos is within a few ulp of |w| <= pi + cosh v <= 6 + 1/|p|
        of the exact arccos of the computed x. So each computed image is
        within E = a few ulp of 6 + 1/(r - h) + (1 + r + h)^2 L0 of the
        exact one (a sample within 1e-9 of the pole is NaN and marks
        nothing), and two computed images within 2E + L0 rho of each other.
        Adding 2**-30 (6 + 1/(r - h) + (1 + r + h)^2 L0) / rho to L0 covers
        2E, and the few ulp L0 rounds by, some ten thousand times over.
        """
        with np.errstate(all="ignore"):
            r = np.abs(z)
            h = rho + _ROUNDING * (1.0 + r + rho) ** 2
            near = r - h
            gap = np.hypot(1.0 - 2.0 * z.real, 2.0 * z.imag) - 2.0 * h
            clear = (near > 0) & (gap > 0) & ((np.abs(z.imag) > h) | (z.real > 0.5 + h))
            lip = 1.0 / (near * np.sqrt(gap))
            lip += _ROUNDING * (6.0 + 1.0 / near + (1.0 + r + h) ** 2 * lip) / rho
            return np.where(clear, lip, np.inf)


@dataclass(frozen=True)
class ArcsinRoot5(MapSpec):
    """(arcsin z)^(1/5) with the principal fifth root."""

    kind: str = field(default="arcsin_root5", init=False, repr=False)

    def _forward_array(self, z):
        return _principal_root(np.arcsin(z), 5)

    def _inverse_array(self, w):
        return np.sin(w ** 5)


@dataclass(frozen=True)
class ReciprocalSqrt(MapSpec):
    """(1/z - 1)^(1/2); pole at z = 0, inverse pole where w^2 = -1."""

    kind: str = field(default="reciprocal_sqrt", init=False, repr=False)

    def _forward_array(self, z):
        return np.sqrt(_reciprocal(z) - 1.0)

    def _inverse_array(self, w):
        return _reciprocal(w * w + 1.0)


@dataclass(frozen=True)
class QuadraticParam(MapSpec):
    """z^2 + (a*c + b) with real coefficient a; inverse takes the principal
    square root, so round trips hold on the right half-plane."""

    a: float
    b: complex
    c: complex
    kind: str = field(default="quadratic_param", init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("a must be finite")
        require_finite(self.b, "b")
        require_finite(self.c, "c")

    @property
    def shift(self) -> complex:
        return self.a * self.c + self.b

    def _forward_array(self, z):
        return z * z + self.shift

    def _inverse_array(self, w):
        return np.sqrt(w - self.shift)


@dataclass(frozen=True)
class FlowMap(MapSpec):
    """A flow's time-t solution map used as a fractal mapping function."""

    flow: FlowSpec
    t: float
    kind: str = field(default="flow", init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")

    def _forward_array(self, z):
        return flow_apply(self.flow, z, self.t)

    def _inverse_array(self, w):
        return flow_inverse(self.flow, w, self.t)


MAP_KINDS = {
    "identity": Identity,
    "affine": Affine,
    "arccos_reciprocal": ArccosReciprocal,
    "arcsin_root5": ArcsinRoot5,
    "reciprocal_sqrt": ReciprocalSqrt,
    "quadratic_param": QuadraticParam,
    "flow": FlowMap,
}


def _halton(n: int) -> np.ndarray:
    """The first n points of the unscrambled 4-D Halton sequence (J. H.
    Halton, Numer. Math. 2, 1960) as an (n, 4) array: column b is the
    radical inverse of 0..n-1 in base 2, 3, 5, 7, each index's digits
    mirrored about the radix point. Digits are added least significant
    first, at a weight divided by the base after each, as scipy.stats.qmc
    does, so the points equal its Halton(d=4, scramble=False) bit for bit
    (a spent index adds only +0.0)."""
    pts = np.zeros((n, 4))
    for col, base in enumerate((2, 3, 5, 7)):
        q, weight = np.arange(n), 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            pts[:, col] += digit * weight
            weight /= base
    return pts


def estimate_bilipschitz(m: MapSpec, region: GridSpec, n_pairs: int) -> tuple[float, float]:
    """Empirical stretch bounds (l1, l2) of f over a window.

    Draws n_pairs quasi-random (Halton) pairs (u, v) in the window, discards pairs where
    either endpoint leaves f's domain or |u - v| <= MIN_SEPARATION, and
    returns the min and max of |f(u) - f(v)| / |u - v|. Fewer than 10
    surviving pairs raises InsufficientSamples.
    """
    if n_pairs < 100:
        raise ValueError("n_pairs must be >= 100")
    pts = _halton(n_pairs)
    re0 = region.center.real - region.width / 2
    im0 = region.center.imag - region.height / 2
    u = (re0 + pts[:, 0] * region.width) + 1j * (im0 + pts[:, 1] * region.height)
    v = (re0 + pts[:, 2] * region.width) + 1j * (im0 + pts[:, 3] * region.height)

    fu = eval_forward(m, u)
    fv = eval_forward(m, v)
    sep = np.abs(u - v)
    with np.errstate(invalid="ignore"):
        good = np.isfinite(fu) & np.isfinite(fv) & (sep > MIN_SEPARATION)
    if int(good.sum()) < 10:
        raise InsufficientSamples(
            f"only {int(good.sum())} valid pairs of {n_pairs} for {m.kind}")
    ratios = np.abs(fu[good] - fv[good]) / sep[good]
    return float(ratios.min()), float(ratios.max())
