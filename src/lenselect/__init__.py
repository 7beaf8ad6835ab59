"""Spectral selectors, Maslov-type indices and conjugation-invariant norms
for contact isotopies of lens spaces generated by weight-compatible unitary
paths."""

from .lens import LensSpace, LensSpaceError, new_lens, round_to_period
from .maslov import evaluate_step, maslov_index, maslov_shifted, subdivide
from .norms import (
    geodesic_report,
    greedy_embedded_decomposition,
    norm_report,
    nu,
    nu_star,
    selector_lower_bounds,
)
from .paths import (
    UnitaryPath,
    action_spectrum,
    append_segment,
    conjugate_path,
    identity_path,
    inverse_path,
    is_embedded,
    product_path,
    random_path,
    reeb_path,
    reeb_shift,
    translated_points,
)
from .quadratic import InvariantQuadraticForm, cayley_gf, direct_sum, index, sharp
from .selectors import selector, selector_range, time_function
from .verify import verify_suite

__version__ = "0.1.0"

__all__ = [
    "LensSpace",
    "LensSpaceError",
    "new_lens",
    "round_to_period",
    "InvariantQuadraticForm",
    "cayley_gf",
    "direct_sum",
    "index",
    "sharp",
    "UnitaryPath",
    "identity_path",
    "reeb_path",
    "reeb_shift",
    "inverse_path",
    "product_path",
    "conjugate_path",
    "append_segment",
    "random_path",
    "action_spectrum",
    "translated_points",
    "is_embedded",
    "maslov_index",
    "maslov_shifted",
    "evaluate_step",
    "subdivide",
    "selector",
    "selector_range",
    "time_function",
    "nu",
    "nu_star",
    "norm_report",
    "greedy_embedded_decomposition",
    "selector_lower_bounds",
    "geodesic_report",
    "verify_suite",
    "__version__",
]
