"""Spectral selectors, Maslov-type indices and conjugation-invariant norms
for contact isotopies of lens spaces generated by weight-compatible unitary
paths.

Submodules load on first use, so a CLI job compiles and runs only the
modules its task calls: a `selectors` job never runs `norms` or `verify`,
and a `geodesic` job runs neither numpy nor `paths`.
Each public name below is read from its submodule on first access.
"""

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

import importlib.util
import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_PUBLIC = {
    **dict.fromkeys(("LensSpace", "LensSpaceError", "new_lens"), "lens"),
    **dict.fromkeys(("InvariantQuadraticForm", "cayley_gf", "direct_sum", "index",
                     "sharp"), "quadratic"),
    **dict.fromkeys(("UnitaryPath", "identity_path", "reeb_path", "reeb_shift",
                     "inverse_path", "product_path", "conjugate_path", "append_segment",
                     "random_path", "action_spectrum", "translated_points",
                     "is_embedded"), "paths"),
    **dict.fromkeys(("maslov_index", "maslov_shifted", "subdivide"), "maslov"),
    "evaluate_step": "torus",
    **dict.fromkeys(("selector", "selector_range", "time_function"), "selectors"),
    **dict.fromkeys(("nu", "nu_star", "norm_report", "greedy_embedded_decomposition",
                     "selector_lower_bounds"), "norms"),
    "geodesic_report": "geodesic",
    "verify_suite": "verify",
}

__all__ = [*_PUBLIC, "__version__"]


def _register_lazily(name):
    """importlib's lazy-import recipe: the module is in `sys.modules` and is
    a package attribute, and its code runs on first attribute access.  `cli`
    is left out: runpy warns when `python -m lenselect.cli` finds it already
    in `sys.modules`."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("tolerances", "lens", "quadratic", "torus", "paths", "maslov", "selectors",
              "geodesic", "norms", "jobs", "verify"):
    _register_lazily(_name)
del _name


def __getattr__(name):
    if name in _PUBLIC:
        return getattr(globals()[_PUBLIC[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
