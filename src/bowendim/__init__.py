"""Numerics for the dimension of radial Julia sets of a cylinder map family.

The library enumerates inverse branches of the maps
f(z) = ell*z + c - (ell-1)*log(c) - e^z on the cylinder C/2*pi*i*Z, applies
the weighted transfer operator, estimates topological pressure, solves the
pressure equation P(t*) = 0 for the Hausdorff dimension of the radial Julia
set, and sweeps the parameter disk with smoothness diagnostics.
"""

from . import defaults, errors
from .cylinder import (CylinderPoint, MapParams, OrbitClass, OrbitTag,
                       PeriodicPoint, canonical, classify_orbit,
                       classify_window, cylinder_distance, derivative,
                       evaluate, orbit_derivative, param_derivative)
from .preimages import (Branch, PreimageSet, TailBound, fixed_points,
                        inverse_branch, preimage_arrays, preimages,
                        tail_weight_bound)
from .transfer import (AtomicMeasure, FunctionSamples, PressureEstimate,
                       WeightedValue, apply_transfer,
                       best_ratio_estimate, conformal_atoms,
                       default_base_point, eigenfunction_iterate,
                       periodic_points, pressure_ratio, transfer_level_sums,
                       zeta_pressure)
from .dimension import DimensionRecord, bowen_dimension, pressure
from .sweep import (ContinuationTrack, ExpansionEstimate, GridSpec, SweepGrid,
                    continue_periodic, expansion_constants,
                    smoothness_diagnostic, sweep_dimension)

__all__ = [
    "defaults", "errors",
    "CylinderPoint", "MapParams", "OrbitClass", "OrbitTag", "PeriodicPoint",
    "canonical", "classify_orbit", "classify_window", "cylinder_distance",
    "derivative", "evaluate", "orbit_derivative", "param_derivative",
    "Branch", "PreimageSet", "TailBound", "fixed_points", "inverse_branch",
    "preimage_arrays", "preimages", "tail_weight_bound",
    "AtomicMeasure", "FunctionSamples", "PressureEstimate", "WeightedValue",
    "apply_transfer", "best_ratio_estimate",
    "conformal_atoms", "default_base_point", "eigenfunction_iterate",
    "periodic_points", "pressure_ratio", "transfer_level_sums",
    "zeta_pressure",
    "DimensionRecord", "bowen_dimension", "pressure",
    "ContinuationTrack", "ExpansionEstimate", "GridSpec", "SweepGrid",
    "continue_periodic", "expansion_constants", "smoothness_diagnostic",
    "sweep_dimension",
]

__version__ = "0.1.0"
