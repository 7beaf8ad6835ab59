"""Job parsing and report assembly for the CLI.

A job is one JSON document: a lens, an optional path (reeb / explicit
piecewise-Hermitian segments / seeded random) and a task with its parameters.
Tolerances are fixed: every report lists them under `tolerances`, and a job
that tries to set one exits 2 on that field.  Complex matrices are encoded as
nested arrays of [re, im] pairs.  Reports are plain JSON dicts, deterministic
given (job, seed): exact lattice values are serialized as {num, den, approx}
fractions of 2 pi and no wall clock data is included.

`parse_job` is the one place that refuses a job, and it reports the first
failing check, in this order: the JSON shape; the lens; the task keys; the
tolerances; the task's values (CLI flags over the job file's) and the caps
that read only them and the lens (`spectrum` k n, `maslov` k', `geodesic`
snap window); that the task has a path; the path (its segment count,
MAX_SEGMENTS, before its data); the path's price (det-lift roundoff,
`maslov` form dimension, `norms` decomposition pieces).  Each JSON object's
keys are checked before its values, and an unknown key (a misspelt
"segments", say) exits 2 on its field.  The lens and the path are validated
once, by the types that own them: `new_lens` (k an integer from 2 to 2**53,
the weights) and `UnitaryPath` (shape, finiteness, Hermitian and
deck-commuting generators, positive durations, finite phase travel; a Reeb
path T I is valid for every finite T, and a real-diagonal path is kept as a
`torus.TorusPath` only where UnitaryPath would accept it).  Their errors say
which input is at fault, and `parse_job` prefixes the JSON path, so every
input error leaves the CLI as exit 2 naming the field.  `run_job` only
computes; it refuses only a job without a task.

numpy and `paths` load only where a UnitaryPath is built or read.  Generator
entries are decoded in pure Python, each a finite JSON number.  A Reeb path
`{"reeb": T}` is kept as its time T, and a `piecewise_hermitian` path whose
every generator is real diagonal (every off-diagonal entry and imaginary
part exactly 0) as its `torus.TorusPath`: each is priced in arithmetic
(`Job.spans`, which also gives a `maslov` job's subdivision) and its
UnitaryPath built on the first read of `Job.path`.  A `norms` job reads only
T (lattice arithmetic, in `geodesic`) or the TorusPath's record (float
arithmetic on the diagonals), and a `selectors` or `norms` job on any other
path the UnitaryPath's, so neither runs `maslov` or `quadratic`.  A `maslov`
job on a Reeb or real-diagonal path counts its based family line by line on
the TorusPath (T I for a Reeb path), and reads `Job.path` only where that
count leaves a family to the reference.  So a `geodesic` job without a
path, a `norms` or `maslov` job on a Reeb or real-diagonal path (but for
that fallback), and every input error found before a UnitaryPath is built
run without numpy; `task.verify.suite` is checked against VERIFY_SUITES, so
a `task.verify.*` error does not run `verify`.
"""

import json
import math
import sys

from . import geodesic, maslov, norms, paths, selectors, torus, verify
from .lens import TWO_PI, LensSpaceError, _is_int, new_lens
from .tolerances import DET_LIFT_TOL, NULL_TOL, PERIOD_SNAP_TOL, PHASE_CLUSTER_TOL

# Each task and the parameters it reads.
TASK_PARAMS = {
    "maslov": (),
    "selectors": ("j_lo", "j_hi", "window_base"),
    "spectrum": (),
    "norms": ("decompose",),
    "geodesic": ("T",),
    "verify": ("suite", "trials", "seed"),
}

# The verify suites, in the order an unknown suite's error lists them;
# `verify.SUITES` maps each to its function.
VERIFY_SUITES = ("thm1", "maslov_props", "norms", "geodesic", "quadratic_core", "references")

# Cost caps, checked before any work starts.
#
# Most selectors (j_hi - j_lo + 1) a `selectors` job lists; cost and output
# grow linearly: 1e5 on Reeb paths over L_3(1,1) and L_3(1^8) took 0.94 s end
# to end (0.22 s for one) and 3.4 MB of JSON on a 2-vCPU Xeon VM.
MAX_SELECTORS = 100_000

# Most lens-level phases (k n) a `spectrum` job lists.  `action_spectrum`
# clusters them in a Python loop: at k n = 1e5 the job took 0.25 s to
# compute and 0.28 s to serialize 3.8 MB of JSON (n = 3, one thread of a
# 2 vCPU VM), and both grow linearly.
MAX_LENS_PHASES = 100_000

# Most trials a verify job runs.  Cost grows linearly in them; thm1, the
# slowest suite, takes about 15 ms a trial (1.5 s at 100 trials; maslov_props
# 1.1 s, norms 0.9 s, on a 2-vCPU x86 VM), so a job at the cap stays below
# about 20 s.
MAX_VERIFY_TRIALS = 1000

# Largest real form dimension D = (2N - 1) * 2n the `maslov` job accepts.
# `index_at` costs O(N n^3), but its dense fallback costs O(D^3) in two
# eigvalsh calls on the complex Hermitian matrix of size D/2, and the cap
# bounds that.  On one BLAS thread (2 vCPU, OpenBLAS 0.3.31), on Reeb paths
# over L_3(1,1,1,1), the two dense counts took 0.23 s at D = 1528, 0.48 s at
# D = 2040 and 3.0 s at D = 4072, and `maslov_index` 12, 14 and 27 ms; the
# bench corpora reach D = 1616.
MAX_FORM_DIM = 2048

# With exact cuts the greedy decomposition costs about 0.5-0.75 ms per piece,
# one is_embedded certificate each (Reeb paths with 1000 pieces, k in
# {2, 3, 7}, n in {2, 3, 8}, on a 2-vCPU x86 VM), so this cap bounds a
# `norms` decomposition below a second: one priced (`_max_pieces`) above it
# is refused.
MAX_PIECES = 1000

# Most segments a path may have, the count MAX_PIECES refuses for a
# decomposition; checked before a random path is drawn or a matrix decoded.
# Cost grows linearly in them: a `selectors` job on a random path over
# L_3(1,1) took 0.37 s at 10**3 segments, 1.8 s at 10**4 and 19 s (167 MB)
# at 10**5, and on an explicit 10**4-segment document 1.8 s (2-vCPU x86 VM).
MAX_SEGMENTS = 1000


class JobError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class Job:
    def __init__(self, lens, path_spec, task, params, args, reeb=None, torus=None, path=None,
                 build=None):
        self.lens = lens
        self.path_spec = path_spec  # as given, for the report echo
        self.reeb = reeb  # the time T of a Reeb path, a float
        self.torus = torus  # a real-diagonal path as its torus.TorusPath
        self._path = path  # the UnitaryPath, once built
        self._build = build  # the function that builds it on first read
        self.task = task
        self.params = params  # the job file's, for the report echo
        self.args = args  # the task's validated values, CLI flags over params

    @property
    def spans(self):
        """`UnitaryPath.spans`, in arithmetic with no path built on a Reeb
        path T I (one segment of duration 1, [(|T|, n |T|)]) and on a torus
        path."""
        if self.reeb is not None:
            return [(abs(self.reeb), self.lens.n * abs(self.reeb))]
        return (self.torus or self.path).spans

    @property
    def path(self):
        """The validated UnitaryPath, or None.  A Reeb or torus path is
        built on first read, so a job that reads only its numbers builds
        none."""
        if self._path is None and self._build is not None:
            self._path = self._build()
        return self._path


def _require(cond, field, message):
    if not cond:
        raise JobError(field, message)


def _known_keys(obj, field, owner, reads):
    """Refuse the first key of obj (at field) not in reads, if obj is a dict."""
    for key in obj if isinstance(obj, dict) else ():
        _require(key in reads, f"{field}.{key}" if field else str(key),
                 f"unknown key; {owner} reads {', '.join(reads)}")


def _lens_value(read):
    """read(), with its LensSpaceError reported at the field under `lens`."""
    try:
        return read()
    except LensSpaceError as e:
        raise JobError(f"lens.{e.field}", str(e)) from None


def _is_number(x):
    """A finite JSON number: bools are not numbers here, and neither is an
    integer too large for a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _nested_shape(data):
    """The shape numpy reads off nested lists, or None when they are
    ragged; found level by level, so deep nesting costs no recursion."""
    shape, level = [], [data]
    while level and all(isinstance(x, list) for x in level):
        sizes = {len(x) for x in level}
        if len(sizes) > 1:
            return None
        shape.append(sizes.pop())
        level = [y for x in level for y in x]
    return None if any(isinstance(x, list) for x in level) else tuple(shape)


def _parse_complex_matrix(data, field):
    """A generator's entries, decoded in pure Python: an n x n matrix of
    [re, im] pairs of finite numbers, as nested lists of floats."""
    _require(isinstance(data, list) and data, field, "expected a non-empty matrix")
    shape = _nested_shape(data)
    _require(shape is not None, field, "expected nested arrays of [re, im] pairs")
    _require(len(shape) == 3 and shape[0] == shape[1] and shape[2] == 2, field,
             f"expected shape (n, n, 2) of [re, im] pairs, got {shape}")
    _require(all(_is_number(x) for row in data for pair in row for x in pair), field,
             "expected finite numbers in the [re, im] pairs")
    return [[[float(re), float(im)] for re, im in row] for row in data]


def _real_diagonals(n, matrices):
    """The diagonals of these decoded generators, or None unless each is
    n x n with every off-diagonal entry and every imaginary part exactly 0."""
    if any(len(M) != n for M in matrices):
        return None
    for M in matrices:
        for i, row in enumerate(M):
            for j, (re, im) in enumerate(row):
                if im != 0 or (re != 0 and i != j):
                    return None
    return [[M[j][j][0] for j in range(n)] for M in matrices]


def _unitary_path(lens, segments):
    """The UnitaryPath of decoded (generator, duration) segments."""
    import numpy as np

    def build():
        arrays = [np.array(A, dtype=float) for A, _ in segments]
        return paths.UnitaryPath(lens, [(arr[..., 0] + 1j * arr[..., 1], d)
                                        for arr, (_, d) in zip(arrays, segments)])

    return _path_value("piecewise_hermitian", build)


def _path_value(kind, build):
    """build(), with its PathError reported at the field under `path.<kind>`
    (for a piecewise_hermitian path, the offending segment's entry).  Only a
    raised error reads `paths.PathError`, so checks made before build() stop
    without running `paths`."""
    try:
        return build()
    except paths.PathError as e:
        field = f"path.{kind}"
        if kind == "piecewise_hermitian" and e.segment is not None:
            field += f".segments[{e.segment}].{e.part}"
        raise JobError(field, str(e)) from None


def _parse_path(lens, path_spec):
    """The validated path of a job's `path` object, as keyword arguments of
    its `Job`.  A Reeb path's time T (a float) and the `torus.TorusPath` of
    a path whose generators are all real diagonal are kept as numbers, with
    the function that builds their UnitaryPath on the first read of
    `Job.path`; any other path is built at once.

    The JSON shape is checked here, and the generator entries are decoded
    without numpy; the path's own validity (generator shape, Hermitian,
    deck action, durations, finite phase travel) is checked once, by
    `UnitaryPath`, and its PathError is reported at the JSON path of the
    offending segment: a real-diagonal path is kept as a TorusPath only
    where UnitaryPath would accept it (`TorusPath.of`).  A Reeb path T I is
    valid for every finite T.
    """
    _require(isinstance(path_spec, dict) and len(path_spec) == 1, "path",
             "path must be an object with exactly one of reeb / "
             "piecewise_hermitian / random")
    kind = next(iter(path_spec))
    _require(kind in ("reeb", "piecewise_hermitian", "random"), "path",
             f"unknown path kind {kind!r}")
    spec = path_spec[kind]
    if kind == "reeb":
        _require(_is_number(spec), "path.reeb", "expected a finite number")
        T = float(spec)
        return {"reeb": T, "build": lambda: paths.reeb_path(lens, T)}
    if kind == "piecewise_hermitian":
        _known_keys(spec, "path.piecewise_hermitian", "piecewise_hermitian", ("segments",))
        segs = spec.get("segments") if isinstance(spec, dict) else None
        _require(isinstance(segs, list) and 1 <= len(segs) <= MAX_SEGMENTS,
                 "path.piecewise_hermitian.segments",
                 f"expected a list of 1 to {MAX_SEGMENTS} segments")
        segments = []
        for i, seg in enumerate(segs):
            fld = f"path.piecewise_hermitian.segments[{i}]"
            _require(isinstance(seg, dict), fld, "expected an object")
            _known_keys(seg, fld, "a segment", ("generator", "duration"))
            A = _parse_complex_matrix(seg.get("generator"), fld + ".generator")
            d = seg.get("duration", 1.0)
            _require(_is_number(d), fld + ".duration",
                     "duration must be a finite number")
            segments.append((A, d))
        diagonals = _real_diagonals(lens.n, [A for A, _ in segments])
        if diagonals is not None:
            path = torus.TorusPath.of(lens, diagonals, [d for _, d in segments])
            if path is not None:
                return {"torus": path, "build": lambda: _unitary_path(lens, segments)}
        return {"path": _unitary_path(lens, segments)}
    _require(isinstance(spec, dict), "path.random", "expected an object")
    _known_keys(spec, "path.random", "random", ("seed", "segments", "norm_bound"))
    seed = spec.get("seed", 0)
    _require(_is_int(seed) and 0 <= seed < 2**64,
             "path.random.seed", "seed must be a 64-bit integer")
    segments = spec.get("segments", 2)
    _require(_is_int(segments) and 1 <= segments <= MAX_SEGMENTS, "path.random.segments",
             f"segments must be an integer from 1 to {MAX_SEGMENTS}")
    bound = spec.get("norm_bound", 2.0)
    _require(_is_number(bound) and bound > 0,
             "path.random.norm_bound", "norm_bound must be a finite number > 0")
    import numpy as np

    return {"path": _path_value(kind, lambda: paths.random_path(
        lens, np.random.default_rng(seed), segments=segments, norm_bound=float(bound)))}


def _task_args(task, values, lens):
    """The validated values of the task's parameters `values` (the job
    file's, CLI flags over them), then the task's caps that read only them
    and the lens."""
    if task == "selectors":
        j_lo = values.get("j_lo", -2 * lens.n + 1)
        j_hi = values.get("j_hi", 0)
        base = values.get("window_base", 0.0)
        _require(_is_int(j_lo), "task.selectors.j_lo", "j_lo must be an integer")
        _require(_is_int(j_hi), "task.selectors.j_hi", "j_hi must be an integer")
        _require(_is_number(base), "task.selectors.window_base",
                 "window_base must be a finite number")
        for name, j in (("j_lo", j_lo), ("j_hi", j_hi)):
            _require(abs(j) <= 2**53, f"task.selectors.{name}",
                     f"|{name}| must be at most 2**53, the integers a float holds exactly")
        _require(j_lo <= j_hi, "task.selectors", f"need j_lo <= j_hi, got {j_lo} > {j_hi}")
        _require(j_hi - j_lo < MAX_SELECTORS, "task.selectors",
                 f"j_lo..j_hi lists {j_hi - j_lo + 1} selectors, more than {MAX_SELECTORS}")
        return {"j_lo": j_lo, "j_hi": j_hi, "window_base": float(base)}
    if task == "norms":
        decompose = values.get("decompose", False)
        _require(isinstance(decompose, bool), "task.norms.decompose",
                 "decompose must be true or false")
        return {"decompose": decompose}
    if task == "geodesic":
        T = values.get("T")
        _require(_is_number(T) and T >= 0, "task.geodesic.T",
                 "T must be a finite number >= 0")
        T = float(T)  # an integer T near the largest float: k T is then inf, not an error
        refusal = geodesic.snap_window_refusal(lens, T)
        _require(refusal is None, "task.geodesic.T", refusal)
        return {"T": T}
    if task == "verify":
        suite = values.get("suite", "thm1")
        trials = values.get("trials", 25)
        seed = values.get("seed", 0)
        _require(isinstance(suite, str) and suite in VERIFY_SUITES, "task.verify.suite",
                 f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)}")
        _require(_is_int(trials) and 1 <= trials <= MAX_VERIFY_TRIALS, "task.verify.trials",
                 f"trials must be an integer from 1 to {MAX_VERIFY_TRIALS}")
        _require(_is_int(seed) and seed >= 0, "task.verify.seed",
                 "seed must be an integer >= 0")
        return {"suite": suite, "trials": trials, "seed": seed}
    if task == "spectrum":
        _require(lens.k * lens.n <= MAX_LENS_PHASES, "lens.k",
                 f"the lens-level spectrum lists k n = {lens.k * lens.n} phases, "
                 f"more than {MAX_LENS_PHASES}")
    if task == "maslov":
        _lens_value(lambda: lens.k_prime)  # refused up front when trial division cannot find it
    return {}


def _det_lift_roundoff(n, spans, window_base=0.0):
    """First-order bound on the float64 roundoff in the det lift
    L = sum_i tr(A_i) d_i of a path over C^n with these `Job.spans`, plus
    that of the window terms of W when the step function is evaluated from
    window_base.  See DET_LIFT_TOL; inf when the diagonal sizes overflow."""
    u = sys.float_info.epsilon / 2
    size = sum(s for _, s in spans)
    return (n + len(spans) - 1) * u * size + n * u * abs(window_base)


def _max_pieces(k, spans):
    """floor(k sum_i ||A_i|| d_i / 2 pi) + S + 1 (inf on overflow) bounds the
    pieces of `norms.greedy_embedded_decomposition` over the S segments of
    these `Job.spans`: each cut ends at a node or uses up 2 pi / k of the
    fastest eigenline's travel."""
    travel = k * sum(t for t, _ in spans) / TWO_PI
    return math.floor(travel) + len(spans) + 1 if math.isfinite(travel) else math.inf


def _price_path(job):
    """Refuse a path on which the task would cost more than its cap, or on
    which the det-lift closed form (`selectors`, `norms`) could round off
    past DET_LIFT_TOL, also through the selectors' window base."""
    task, args, lens = job.task, job.args, job.lens
    if task == "maslov":
        N = torus.subdivision_count(job.spans)
        D = (2 * N - 1) * 2 * lens.n
        size = f"{D} (N = {N} intervals)" if D < 10**9 else f"about 1e{int(math.log10(D))}"
        _require(D <= MAX_FORM_DIM, "path",
                 f"the Maslov form needs dimension {size}, more than {MAX_FORM_DIM}")
    if task in ("selectors", "norms"):
        spans, window_base = job.spans, args.get("window_base", 0.0)
        err = _det_lift_roundoff(lens.n, spans)
        _require(err <= DET_LIFT_TOL, "path",
                 f"the det-lift sum tr(A) d has roundoff up to {err:.3g}, "
                 f"more than {DET_LIFT_TOL:g}")
        err = _det_lift_roundoff(lens.n, spans, window_base)
        _require(err <= DET_LIFT_TOL, "task.selectors.window_base",
                 f"window_base = {window_base!r} puts the det-lift roundoff bound "
                 f"at {err:.3g}, more than {DET_LIFT_TOL:g}")
    if args.get("decompose"):
        pieces = _max_pieces(lens.k, job.spans)
        _require(pieces <= MAX_PIECES, "path",
                 f"the embedded decomposition may need up to {pieces} pieces, "
                 f"more than {MAX_PIECES}")


def parse_job(document, task=None, flags=None):
    """Validate a JSON job document (bytes, str, or already-parsed dict).
    `task` runs in place of the document's task, whose parameters are then
    dropped; `flags` override the parameters of the run, not of the echo."""
    if isinstance(document, (bytes, str)):
        try:  # ValueError also covers an integer past Python's 4300 digits
            document = json.loads(document)
        except (ValueError, RecursionError) as e:
            raise JobError("$", f"malformed JSON: {e}") from None
    _require(isinstance(document, dict), "$", "job must be a JSON object")
    _known_keys(document, None, "a job", ("lens", "path", "task", "tolerances"))

    lens_spec = document.get("lens")
    _require(isinstance(lens_spec, dict), "lens", "missing lens object")
    _known_keys(lens_spec, "lens", "lens", ("k", "weights"))
    lens = _lens_value(lambda: new_lens(lens_spec.get("k"), lens_spec.get("weights")))

    task_spec = document.get("task")
    file_task, params = None, {}
    if task_spec is not None:
        _require(isinstance(task_spec, dict) and len(task_spec) == 1, "task",
                 f"task must be an object with exactly one of {tuple(TASK_PARAMS)}")
        file_task = next(iter(task_spec))
        _require(file_task in TASK_PARAMS, "task", f"unknown task {file_task!r}")
        params = task_spec[file_task]
        _require(isinstance(params, dict), f"task.{file_task}", "expected an object")
    task, flags = task or file_task, flags or {}
    for owner, keys in ((file_task, params), (task, flags)):
        reads = TASK_PARAMS.get(owner, ())
        for key in keys:
            _require(key in reads, f"task.{owner}.{key}",
                     f"unknown parameter; {owner} reads {', '.join(reads) or 'no parameters'}")
    if task != file_task:
        params = {}  # params belong to the file's own task

    tolerances = document.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances", "expected an object")
    if tolerances:
        raise JobError(f"tolerances.{next(iter(tolerances))}",
                       "tolerances are fixed; every report lists them under tolerances")

    args = _task_args(task, {**params, **flags}, lens)
    path_spec = document.get("path")  # last: only decoding a matrix loads numpy
    _require(path_spec is not None or task in (None, "geodesic", "verify"), "path",
             "this task requires a path")
    path = {} if path_spec is None else _parse_path(lens, path_spec)
    job = Job(lens, path_spec, task, dict(params), args, **path)
    if path:
        _price_path(job)
    return job


def _echo(job):
    out = {
        "lens": {"k": job.lens.k, "weights": list(job.lens.weights)},
        "task": job.task,
        "params": job.params,
    }
    if job.path_spec is not None:
        out["path"] = job.path_spec
    return out


def run_job(job):
    """Compute the report of a job `parse_job` accepted, as a JSON-ready
    dict.  It refuses only a job without a task."""
    task, lens, args = job.task, job.lens, job.args
    if task is None:
        raise JobError("task", "no task given (on the CLI the subcommand sets it)")
    report = {"job": _echo(job), "results": {}, "provenance": []}
    res = report["results"]
    report["tolerances"] = {
        "null": NULL_TOL,
        "phase_cluster": PHASE_CLUSTER_TOL,
        "period_snap": PERIOD_SNAP_TOL,
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
        # a path of diagonal unitaries counts its based family line by line,
        # in torus; the numpy reference counts every other path, and every
        # family the line count leaves open
        line_path = (job.torus if job.reeb is None
                     else torus.TorusPath.of(lens, [[job.reeb] * lens.n], [1.0]))
        mu = None if line_path is None else line_path.maslov_index()
        res["subdivision_intervals"] = torus.subdivision_count(job.spans)
        res["mu"] = maslov.maslov_index(job.path) if mu is None else mu
        report["provenance"].append(
            "mu = ind(F_0) - ind(F_1) over a based family of generating functions; "
            "ind(F_0) = 2nN asserted as a self-check"
        )
    elif task == "selectors":
        rep = selectors.selector_range(job.path, **args)
        res["selectors"] = {str(j): rep.values[j] for j in range(args["j_lo"], args["j_hi"] + 1)}
        res["c_plus"] = rep.c_plus
        res["c_minus"] = rep.c_minus
        res["step"] = {
            "window_base": args["window_base"],
            "points": rep.step.points,
            "multiplicities": rep.step.multiplicities,
            "values": rep.step.values,
        }
        report["provenance"].append(
            "c_j = min{T : mu(reeb_shift(path, T)) <= -j}; values snap to "
            "endpoint eigenphases (spectrality)"
        )
    elif task == "spectrum":
        sw = paths.action_spectrum(job.path)
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
        # a Reeb path in lattice arithmetic; any other from its record, a
        # torus path from its diagonals: neither builds a UnitaryPath
        if job.reeb is not None:
            rep = geodesic.reeb_norm_report(lens, job.reeb, **args)
        else:
            rep = norms.norm_report(job.torus or job.path, **args)
        res.update(rep.as_dict())
        report["provenance"].append(
            "nu = max(ceil(c_+), -floor(c_-)) in exact T_w-lattice arithmetic; "
            "nu* minimized over Reeb-period shifts of the lift"
        )
    elif task == "geodesic":
        rep = geodesic.geodesic_report(lens, args["T"])
        res.update(rep.as_dict())
        report["provenance"].append(
            "equal weights: greedy embedded count = selector lower bound = "
            "floor(kT/2pi) + 1; general weights: only the two bounds"
        )
    elif task == "verify":
        res.update(verify.verify_suite(**args))
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
