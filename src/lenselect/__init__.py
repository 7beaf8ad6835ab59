"""Spectral selectors, Maslov-type indices and conjugation-invariant norms
for contact isotopies of lens spaces generated by weight-compatible unitary
paths."""

import os

# One BLAS thread unless the caller says otherwise; it must be set before
# numpy loads OpenBLAS.  The eigenproblems here are small (form dimension
# D <= 1616 on the bench corpora) and each CLI job is its own short process.
# OpenBLAS's idle helper thread spins for about 0.1 s after numpy's import and
# after each threaded call: about 0.12 CPU-s per job.  On a 2 vCPU VM
# (OpenBLAS 0.3.31) eigvalsh of a Maslov form takes 16 ms on 2 threads and
# 0.4 ms on 1 at D = 104; the second thread pays only from D ~ 700
# (D = 1656: 0.30 s on 2 threads, 0.45 s on 1).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
