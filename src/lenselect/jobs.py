"""Job parsing and report assembly for the CLI.

A job is one JSON document: a lens, an optional path (reeb / explicit
piecewise-Hermitian segments / seeded random), a task, and optional tolerance
overrides.  Complex matrices are encoded as nested arrays of [re, im] pairs.
Reports are plain JSON dicts, deterministic given (job, seed): exact lattice
values are serialized as {num, den, approx} fractions of 2 pi and no wall
clock data is included.
"""

import json
import math

import numpy as np

from . import maslov, norms, quadratic, selectors, verify
from .lens import LensSpaceError, new_lens
from .paths import DEFAULT_EMBED_GRID, PathError, UnitaryPath, random_path, reeb_path

TASKS = ("maslov", "selectors", "spectrum", "norms", "geodesic", "verify")


class JobError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class Job:
    def __init__(self, lens, path_spec, task, params, tolerances):
        self.lens = lens
        self.path_spec = path_spec
        self.task = task
        self.params = params
        self.tolerances = tolerances


def _require(cond, field, message):
    if not cond:
        raise JobError(field, message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    """A finite JSON number (bools are not numbers here)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _parse_complex_matrix(data, field):
    _require(isinstance(data, list) and data, field, "expected a non-empty matrix")
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError):
        raise JobError(field, "expected nested arrays of [re, im] pairs") from None
    _require(
        arr.ndim == 3 and arr.shape[0] == arr.shape[1] and arr.shape[2] == 2,
        field,
        f"expected shape (n, n, 2) of [re, im] pairs, got {arr.shape}",
    )
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_complex_matrix(M):
    return np.stack([M.real, M.imag], axis=-1).tolist()


def parse_job(document):
    """Validate a JSON job document (bytes, str, or already-parsed dict)."""
    if isinstance(document, (bytes, str)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise JobError("$", f"malformed JSON: {e}") from None
    _require(isinstance(document, dict), "$", "job must be a JSON object")

    lens_spec = document.get("lens")
    _require(isinstance(lens_spec, dict), "lens", "missing lens object")
    k = lens_spec.get("k")
    weights = lens_spec.get("weights")
    _require(isinstance(k, int), "lens.k", "k must be an integer")
    _require(
        isinstance(weights, list) and all(isinstance(w, int) for w in weights),
        "lens.weights",
        "weights must be a list of integers",
    )
    try:
        lens = new_lens(k, weights)
    except LensSpaceError as e:
        # point at the offending weight when there is one
        msg = str(e)
        field = "lens.weights"
        for j, w in enumerate(weights):
            if f"weights[{j}]" in msg:
                field = f"lens.weights[{j}]"
                break
        raise JobError(field if "weights" in msg else "lens.k", msg) from None

    path_spec = document.get("path")
    if path_spec is not None:
        _require(isinstance(path_spec, dict) and len(path_spec) == 1, "path",
                 "path must be an object with exactly one of reeb / "
                 "piecewise_hermitian / random")
        kind = next(iter(path_spec))
        _require(kind in ("reeb", "piecewise_hermitian", "random"), "path",
                 f"unknown path kind {kind!r}")
        if kind == "reeb":
            _require(_is_number(path_spec["reeb"]),
                     "path.reeb", "expected a finite number")
        elif kind == "piecewise_hermitian":
            spec = path_spec["piecewise_hermitian"]
            segs = spec.get("segments") if isinstance(spec, dict) else None
            _require(isinstance(segs, list) and segs,
                     "path.piecewise_hermitian.segments",
                     "expected a non-empty segment list")
            for i, seg in enumerate(segs):
                fld = f"path.piecewise_hermitian.segments[{i}]"
                _require(isinstance(seg, dict), fld, "expected an object")
                A = _parse_complex_matrix(seg.get("generator"), fld + ".generator")
                _require(A.shape == (lens.n, lens.n), fld + ".generator",
                         f"expected a {lens.n}x{lens.n} matrix")
                asym = float(np.linalg.norm(A - A.conj().T, 2))
                _require(asym <= 1e-10 * max(1.0, np.linalg.norm(A, 2)),
                         fld + ".generator",
                         f"not Hermitian (max asymmetry {asym:.3e})")
                g = lens.deck()
                comm = float(np.linalg.norm(A @ g - g @ A, 2))
                _require(comm <= 1e-10 * max(1.0, np.linalg.norm(A, 2)),
                         fld + ".generator",
                         f"does not commute with the deck action "
                         f"(residual {comm:.3e})")
                d = seg.get("duration", 1.0)
                _require(_is_number(d) and d > 0,
                         fld + ".duration", "duration must be positive")
        else:
            spec = path_spec["random"]
            _require(isinstance(spec, dict), "path.random", "expected an object")
            seed = spec.get("seed", 0)
            _require(_is_int(seed) and 0 <= seed < 2**64,
                     "path.random.seed", "seed must be a 64-bit integer")
            segments = spec.get("segments", 2)
            _require(_is_int(segments) and segments >= 1,
                     "path.random.segments", "segments must be an integer >= 1")
            bound = spec.get("norm_bound", 2.0)
            _require(_is_number(bound) and bound > 0,
                     "path.random.norm_bound", "norm_bound must be a finite number > 0")

    task_spec = document.get("task")
    task, params = None, {}
    if task_spec is not None:
        _require(isinstance(task_spec, dict) and len(task_spec) == 1, "task",
                 f"task must be an object with exactly one of {TASKS}")
        task = next(iter(task_spec))
        _require(task in TASKS, "task", f"unknown task {task!r}")
        params = task_spec[task]
        _require(isinstance(params, dict), f"task.{task}", "expected an object")

    tolerances = document.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances", "expected an object")
    return Job(lens, path_spec, task, dict(params), dict(tolerances))


def build_path(job):
    spec = job.path_spec
    if spec is None:
        raise JobError("path", "this task requires a path")
    kind = next(iter(spec))
    if kind == "reeb":
        return reeb_path(job.lens, float(spec["reeb"]))
    if kind == "piecewise_hermitian":
        segs = [
            (_parse_complex_matrix(s["generator"], "generator"),
             float(s.get("duration", 1.0)))
            for s in spec["piecewise_hermitian"]["segments"]
        ]
        try:
            return UnitaryPath(job.lens, segs)
        except PathError as e:
            raise JobError("path.piecewise_hermitian", str(e)) from None
    spec = spec["random"]
    rng = np.random.default_rng(spec.get("seed", 0))
    return random_path(
        job.lens,
        rng,
        segments=spec.get("segments", 2),
        norm_bound=float(spec.get("norm_bound", 2.0)),
    )


def _selector_params(params, lens):
    """(j_lo, j_hi, window_base) of a selectors task, after the CLI merge."""
    j_lo = params.get("j_lo", -2 * lens.n + 1)
    j_hi = params.get("j_hi", 0)
    base = params.get("window_base", 0.0)
    _require(_is_int(j_lo), "task.selectors.j_lo", "j_lo must be an integer")
    _require(_is_int(j_hi), "task.selectors.j_hi", "j_hi must be an integer")
    _require(_is_number(base), "task.selectors.window_base",
             "window_base must be a finite number")
    _require(j_lo <= j_hi, "task.selectors", f"need j_lo <= j_hi, got {j_lo} > {j_hi}")
    return j_lo, j_hi, float(base)


def _geodesic_params(params, lens):
    """(T, grid) of a geodesic task, after the CLI merge; T's cost is capped."""
    T = params.get("T")
    grid = params.get("grid", DEFAULT_EMBED_GRID)
    _require(_is_number(T) and T >= 0, "task.geodesic.T",
             "T must be a finite number >= 0")
    cap = norms.MAX_GEODESIC_ORBITS
    # k T overflows to inf for T near the largest float
    _require(math.isfinite(lens.k * T) and norms.orbit_count(lens, T) <= cap,
             "task.geodesic.T",
             f"T = {T!r} needs more than {cap} embedded pieces "
             f"(floor(kT/2pi) + 1 with k = {lens.k})")
    _require(_is_int(grid) and grid >= 1, "task.geodesic.grid",
             "grid must be an integer >= 1")
    return float(T), grid


def _null_tol(tolerances):
    """The index null cut, from the job file or --tol-null."""
    tol = tolerances.get("null", quadratic.DEFAULT_NULL_TOL)
    _require(_is_number(tol) and tol >= 0, "tolerances.null",
             "null must be a finite number >= 0")
    return float(tol)


def _echo(job):
    out = {
        "lens": {"k": job.lens.k, "weights": list(job.lens.weights)},
        "task": job.task,
        "params": job.params,
    }
    if job.path_spec is not None:
        out["path"] = job.path_spec
    if job.tolerances:
        out["tolerances"] = job.tolerances
    return out


def run_job(job, overrides=None):
    """Dispatch a parsed job; returns the report as a JSON-ready dict."""
    params = dict(job.params)
    if overrides:
        params.update({k: v for k, v in overrides.items() if v is not None})
    task = job.task
    if task is None:
        raise JobError("task", "no task given (on the CLI the subcommand sets it)")
    lens = job.lens
    tol = _null_tol(job.tolerances)
    report = {"job": _echo(job), "results": {}, "provenance": []}
    res = report["results"]
    report["tolerances"] = {
        "null": tol,
        "phase_cluster": 1e-9,
        "period_snap": 1e-9,
    }
    res["reeb_period"] = {
        "num": lens.reeb_numerator,
        "den": lens.k,
        "approx": lens.reeb_period,
    }
    if lens.degenerate:
        report["provenance"].append(
            "n = 1 is the quotient circle; values computed but geometrically degenerate"
        )

    if task == "maslov":
        p = build_path(job)
        try:
            res["mu"] = maslov.maslov_index(p, tol=tol)
        except maslov.BasedFamilyCheckError as e:
            if "null" not in job.tolerances:
                raise  # the default cut is part of the construction
            raise JobError("tolerances.null",
                           f"null = {tol!r} breaks the self-check ({e})") from None
        res["subdivision_intervals"] = len(maslov.subdivide(p)) - 1
        report["provenance"].append(
            "mu = ind(F_0) - ind(F_1) over a based family of generating functions; "
            "ind(F_0) = 2nN asserted as a self-check"
        )
    elif task == "selectors":
        j_lo, j_hi, base = _selector_params(params, lens)
        p = build_path(job)
        rep = selectors.selector_range(p, j_lo, j_hi, window_base=base)
        res["selectors"] = {str(j): rep.values[j] for j in range(j_lo, j_hi + 1)}
        res["c_plus"] = rep.c_plus
        res["c_minus"] = rep.c_minus
        res["step"] = {
            "window_base": base,
            "points": rep.step.points.tolist(),
            "multiplicities": rep.step.multiplicities.tolist(),
            "values": rep.step.values.tolist(),
        }
        report["provenance"].append(
            "c_j = min{T : mu(reeb_shift(path, T)) <= -j}; values snap to "
            "endpoint eigenphases (spectrality)"
        )
    elif task == "spectrum":
        p = build_path(job)
        from .paths import action_spectrum

        sw = action_spectrum(p)
        res["sphere"] = {
            "phases": sw.phases_sphere.tolist(),
            "multiplicities": sw.mult_sphere.tolist(),
        }
        res["lens"] = {
            "phases": sw.phases_lens.tolist(),
            "multiplicities": sw.mult_lens.tolist(),
        }
        report["provenance"].append(
            "sphere phases: eigenphases of the endpoint; lens phases: union "
            "over deck powers m of eigenphases of g^-m U_1"
        )
    elif task == "norms":
        p = build_path(job)
        rep = norms.norm_report(p, decompose=bool(params.get("decompose", False)))
        res.update(rep.as_dict())
        report["provenance"].append(
            "nu = max(ceil(c_+), -floor(c_-)) in exact T_w-lattice arithmetic; "
            "nu* minimized over Reeb-period shifts of the lift"
        )
    elif task == "geodesic":
        T, grid = _geodesic_params(params, lens)
        rep = norms.geodesic_report(lens, T, grid=grid)
        res.update(rep.as_dict())
        report["provenance"].append(
            "equal weights: greedy embedded count = selector lower bound = "
            "floor(kT/2pi) + 1; general weights: only the two bounds"
        )
    elif task == "verify":
        suite = params.get("suite", "thm1")
        trials = int(params.get("trials", 25))
        seed = int(params.get("seed", 0))
        out = verify.verify_suite(suite, trials=trials, seed=seed)
        res.update(out)
        report["provenance"].append(
            "each check names the property it exercises; failures list "
            "worst-case margins"
        )
    return report


def render_table(report):
    """Aligned plain-text rendering of a report (for stderr)."""
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            lines.append((prefix, value))

    walk("", report.get("results", {}))
    width = max((len(k) for k, _ in lines), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in lines)


def serialize(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
