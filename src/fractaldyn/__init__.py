"""Escape-time fractals as states of discrete and continuous dynamics.

The package renders filled Julia and Mandelbrot sets, their images under
a catalogue of invertible complex maps (evaluated by pulling every pixel
back through the closed-form inverse), and their evolution under ODE
flow maps; and it verifies the constructions numerically with an
independent forward-image rasterizer, empirical stretch bounds,
box-counting dimension, and mask-comparison metrics.
"""

from .core import (DomainError, GridSpec, OrbitResult, OrbitStatus, RasterField)
from .fji import (IterParams, classify_orbit, extract_boundary, render_julia,
                  render_mandelbrot)
from .maps import (Affine, ArccosReciprocal, ArcsinRoot5, FlowMap, Identity,
                   InsufficientSamples, MAP_KINDS, MapSpec, QuadraticParam,
                   ReciprocalSqrt, estimate_bilipschitz, eval_forward, eval_inverse)
from .flows import (FLOW_KINDS, FlowSpec, LimitCycle, Linear, NumericRK4,
                    PeriodicForced, flow_apply, flow_inverse, fmi_flow_julia,
                    ode_residual, trajectory_sweep)
from .fmi import discrete_trajectory, fmi_julia, fmi_mandelbrot, forward_image
from .analysis import (DimensionEstimate, EmptyMaskError, InsufficientScalesError,
                       MaskComparison, MasksUndefinedError, ZenoDiagram,
                       box_counting_dimension, compare_masks, rasterize_zeno,
                       zeno_states)
from .config import ConfigError, SceneConfig, parse_config, serialize_config
from .imaging import PaletteRule, get_palette, write_image, write_metadata

__version__ = "0.1.0"

__all__ = [
    "Affine", "ArccosReciprocal", "ArcsinRoot5", "ConfigError",
    "DimensionEstimate", "DomainError", "EmptyMaskError",
    "FLOW_KINDS", "FlowMap", "FlowSpec", "GridSpec", "Identity",
    "InsufficientSamples", "InsufficientScalesError", "IterParams",
    "LimitCycle", "Linear", "MAP_KINDS", "MapSpec", "MaskComparison",
    "MasksUndefinedError", "NumericRK4", "OrbitResult", "OrbitStatus",
    "PaletteRule", "PeriodicForced", "QuadraticParam", "RasterField",
    "ReciprocalSqrt", "SceneConfig", "ZenoDiagram", "box_counting_dimension",
    "classify_orbit", "compare_masks", "discrete_trajectory",
    "estimate_bilipschitz", "eval_forward", "eval_inverse", "extract_boundary",
    "flow_apply", "flow_inverse", "fmi_flow_julia", "fmi_julia",
    "fmi_mandelbrot", "forward_image", "get_palette", "ode_residual",
    "parse_config", "rasterize_zeno", "render_julia", "render_mandelbrot",
    "serialize_config", "trajectory_sweep", "write_image", "write_metadata",
    "zeno_states",
]
