"""Seeded job corpora for the three benchmark workloads.

A job is a plain dict:

    name         stable within a workload (template index + what it runs)
    argv         CLI arguments after `python -m lenselect.cli`; the string
                 "{job}" stands for the job file, "-" means the file is fed
                 on stdin
    stdin        whether the document goes to stdin
    document     the job file's text, or None (verify suites take no file)
    expect       {"exit": code, "field": JSON field path the error message
                 must name (exit 2 only), "checks": [check, ...]}
    known_defect None, or the reason the job fails at the seed commit
    cls          cost class, used only to spread each class evenly over a pass

Every value is drawn from numpy Generators seeded with (seed, workload), so
the same seed gives byte-identical corpus files.  The program sees only the
files written by `write`.

Checks are small tuples evaluated by `expect.py` on the parsed report:

    ("eq", field, value)            exact equality
    ("approx", field, value, atol)  |x - value| <= atol
    ("le", field_a, field_b)        report[a] <= report[b]
    ("same", field_a, field_b)      report[a] == report[b]
    ("nondecreasing", field)        dict keyed by integer strings
    ("spectral", field, points)     every value is a point + 2 pi * integer
    ("periodic", field, n2)         c_{j + 2n} = c_j + 2 pi where both exist
    ("sum", field, value)           sum of a list
    ("stderr", text)                stderr contains text
"""

import hashlib
import json
import math
import zlib

import numpy as np

TWO_PI = 2.0 * math.pi

WORKLOADS = ("spectral_heavy", "embed_greedy", "cli_mix")

DEFAULT_SEED = 0

# Mean phase travel of lenselect's random_path per unit of norm_bound: each
# generator is scaled by uniform(0.3, 1.0) and durations sum to 1.
TRAVEL_PER_NORM_BOUND = 0.65


def _rng(seed, tag):
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _lens_doc(k, weights):
    return {"k": k, "weights": list(weights)}


def _classes(k, weights):
    groups = {}
    for j, w in enumerate(weights):
        groups.setdefault(w % k, []).append(j)
    return list(groups.values())


def _encode(M):
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _hermitian(rng, k, weights, norm):
    """Random Hermitian generator commuting with the deck action, ||A|| = norm."""
    n = len(weights)
    A = np.zeros((n, n), dtype=complex)
    for idx in _classes(k, weights):
        m = len(idx)
        X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        A[np.ix_(idx, idx)] = (X + X.conj().T) / 2.0
    return A * (norm / np.linalg.norm(A, 2))


def _endpoint(segments):
    U = np.eye(segments[0][0].shape[0], dtype=complex)
    for A, d in segments:
        lam, V = np.linalg.eigh(A)
        U = (V * np.exp(1j * lam * d)) @ V.conj().T @ U
    return U


def _det_lift_mu(segments):
    """Closed-form Maslov index of a piecewise path, or None near a wall.

    mu = 2 (n + W) with W = (sum_i tr(A_i) d_i - sum_j theta_j) / 2 pi and
    the endpoint eigenphases theta_j taken in (0, 2 pi]: the lift of arg det
    fixes the class in the universal cover.
    """
    n = segments[0][0].shape[0]
    theta = np.mod(np.angle(np.linalg.eigvals(_endpoint(segments))), TWO_PI)
    if np.any(np.minimum(theta, TWO_PI - theta) < 1e-6):
        return None
    theta = np.where(theta == 0.0, TWO_PI, theta)
    lift = sum(float(np.trace(A).real) * d for A, d in segments)
    W = (lift - float(theta.sum())) / TWO_PI
    if abs(W - round(W)) > 1e-6:
        return None
    return 2 * (n + round(W))


def _explicit_path(rng, k, weights, travel, durations):
    """Piecewise path with total phase travel `travel` over the given durations.

    Every generator has operator norm `travel` and the durations sum to 1, so
    for fixed durations the subdivision count N, and with it the job's cost,
    does not depend on the seed.  Redraws the generators until the
    closed-form Maslov index is well away from a wall.
    """
    while True:
        segs = [(_hermitian(rng, k, weights, travel), float(di)) for di in durations]
        mu = _det_lift_mu(segs)
        if mu is not None:
            doc = {"piecewise_hermitian": {"segments": [
                {"generator": _encode(A), "duration": di} for A, di in segs
            ]}}
            return doc, mu


def _orbit_count(k, T):
    """floor(k T / 2 pi) + 1; callers keep k T / 2 pi away from integers."""
    return math.floor(k * T / TWO_PI) + 1


def _away_from_lattice(rng, lo, hi, step):
    """Uniform draw in [lo, hi] at least 1e-3 (relative) from multiples of step."""
    while True:
        T = float(rng.uniform(lo, hi))
        q = T / step
        if abs(q - round(q)) > 1e-3:
            return T


def _job(name, cls, argv, document=None, stdin=False, exit=0, field=None,
         checks=(), known_defect=None):
    """document: a dict to serialize, raw text (malformed input), or None."""
    return {
        "name": name,
        "cls": cls,
        "argv": list(argv),
        "stdin": stdin,
        "document": document if document is None or isinstance(document, str)
        else json.dumps(document, sort_keys=True),
        "expect": {"exit": exit, "field": field, "checks": [list(c) for c in checks]},
        "known_defect": known_defect,
    }


def _doc(k, weights, path, task, params=None):
    doc = {"lens": _lens_doc(k, weights), "task": {task: params or {}}}
    if path is not None:
        doc["path"] = path
    return doc


def _lens_tag(k, weights):
    w = list(weights)
    if len(set(w)) == 1 and len(w) > 2:
        return f"L{k}_{w[0]}x{len(w)}"
    return f"L{k}_" + "".join(str(x) for x in w)


# --- spectral_heavy ------------------------------------------------------

SPECTRAL_LENSES = {
    "L3": (3, (1, 1)),
    "L5a": (5, (1, 2, 3)),
    "L5b": (5, (1, 1, 1, 1)),
    "L4": (4, (1, 1, 3, 3)),
    "L7": (7, (1,) * 8),
}

# (lens, task, norm bound, variant, cost class).  Variants: "" default,
# "flags" --j-lo/--j-hi on the CLI, "window" window_base in the job,
# "range" j_lo/j_hi in the job, "random" lenselect's own seeded random_path.
SPECTRAL_TEMPLATES = [
    ("L3", "maslov", 40, "", "light"),
    ("L3", "maslov", 120, "", "medium"),
    ("L3", "selectors", 40, "", "light"),
    ("L3", "selectors", 80, "flags", "light"),
    ("L3", "selectors", 40, "window", "light"),
    ("L3", "selectors", 40, "random", "light"),
    ("L3", "norms", 80, "", "light"),
    ("L3", "norms", 40, "random", "light"),
    ("L3", "maslov", 80, "random", "light"),
    ("L3", "maslov", 40, "random", "light"),
    ("L5a", "maslov", 40, "", "light"),
    ("L5a", "maslov", 120, "", "medium"),
    ("L5a", "selectors", 40, "window", "light"),
    ("L5a", "selectors", 80, "", "light"),
    ("L5a", "selectors", 120, "range", "medium"),
    ("L5a", "selectors", 40, "random", "light"),
    ("L5a", "selectors", 40, "flags", "light"),
    ("L5a", "norms", 40, "", "light"),
    ("L5a", "norms", 120, "", "medium"),
    ("L5a", "maslov", 80, "random", "light"),
    ("L5b", "maslov", 40, "", "light"),
    ("L5b", "maslov", 80, "", "medium"),
    ("L5b", "maslov", 40, "random", "light"),
    ("L5b", "selectors", 40, "", "light"),
    ("L5b", "selectors", 40, "flags", "light"),
    ("L5b", "norms", 40, "", "light"),
    ("L4", "maslov", 40, "", "light"),
    ("L4", "maslov", 80, "", "medium"),
    ("L4", "maslov", 120, "", "heavy"),
    ("L4", "selectors", 40, "window", "light"),
    ("L4", "selectors", 80, "", "medium"),
    ("L4", "norms", 40, "", "light"),
    ("L7", "maslov", 40, "", "light"),
    ("L7", "maslov", 80, "", "medium"),
    ("L7", "maslov", 120, "", "heavy"),
    ("L7", "selectors", 40, "", "heavy"),
    ("L7", "norms", 40, "", "heavy"),
    ("L3", "selectors", 80, "window", "light"),
    ("L5a", "norms", 80, "", "light"),
    ("L4", "selectors", 40, "flags", "light"),
    ("L5b", "selectors", 40, "window", "light"),
    ("L4", "norms", 40, "random", "light"),
]


def _selector_checks(n2, j_range=None):
    checks = [
        ("nondecreasing", "results.selectors"),
        ("spectral", "results.selectors", "results.step.points"),
        ("spectral", "results.c_plus", "results.step.points"),
        ("le", "results.c_minus", "results.c_plus"),
    ]
    if j_range is None or (j_range[0] <= 0 <= j_range[1]):
        checks.append(("same", "results.selectors.0", "results.c_plus"))
    if j_range is not None and j_range[1] - j_range[0] >= n2:
        checks.append(("periodic", "results.selectors", n2))
    return checks


NORM_CHECKS = [
    ("le", "results.nu.approx", "results.nu_prime.approx"),
    ("le", "results.nu_star.approx", "results.nu.approx"),
    ("eq", "results.dis_upper", None),
]


def _spectral_heavy(seed):
    rng = _rng(seed, "spectral_heavy")
    jobs = []
    for i, (lt, task, nb, variant, cls) in enumerate(SPECTRAL_TEMPLATES):
        k, w = SPECTRAL_LENSES[lt]
        n2 = 2 * len(w)
        segments = 2 + i % 3
        name = f"{i:02d}-{task}-{_lens_tag(k, w)}-nb{nb}" + (f"-{variant}" if variant else "")
        if variant == "random":
            path = {"random": {"seed": int(rng.integers(0, 2**31)),
                               "segments": segments, "norm_bound": float(nb)}}
            mu = None
        else:
            durations = _rng(i, "durations").dirichlet(np.ones(segments))
            path, mu = _explicit_path(rng, k, w, TRAVEL_PER_NORM_BOUND * nb, durations)
        argv, params, checks = [task, "{job}"], {}, []
        if task == "maslov":
            if mu is not None:
                checks.append(("eq", "results.mu", mu))
        elif task == "selectors":
            j_range = None
            if variant in ("flags", "range"):
                lo = -n2 - int(rng.integers(0, 3))
                j_range = (lo, lo + n2 + int(rng.integers(0, 3)))
                if variant == "flags":
                    argv += ["--j-lo", str(j_range[0]), "--j-hi", str(j_range[1])]
                else:
                    params = {"j_lo": j_range[0], "j_hi": j_range[1]}
            elif variant == "window":
                params = {"window_base": round(float(rng.uniform(-TWO_PI, TWO_PI)), 6)}
            checks = _selector_checks(n2, j_range)
        else:
            checks = list(NORM_CHECKS)
        jobs.append(_job(name, cls, argv, _doc(k, w, path, task, params), checks=checks))
    return jobs


# --- embed_greedy --------------------------------------------------------

EQUAL_LENSES = [(k, (1,) * n) for k in (2, 3, 5, 7) for n in (2, 3, 4)]
GENERAL_LENSES = [(4, (1, 3)), (5, (1, 2, 3))]

# Reeb-time bands for the geodesic jobs; the cost is about linear in k T.
GEODESIC_BANDS = [(0.1, 1.0), (2.0, 6.0), (8.0, 14.0), (14.0, 22.0), (26.0, 38.0)]

def _band_class(b):
    return "heavy" if b == 4 else "medium" if b >= 2 else "light"


KNOWN_DEFECT_DECOMPOSE = (
    "ROADMAP item 4: greedy decomposition of a path with a stationary "
    "eigenline raises RuntimeError instead of reporting dis_upper: null"
)


def _diagonal_path(rng, n, segments, lo, hi, zero_line=False):
    """Explicit commuting path: diagonal generators with entries in [lo, hi].

    zero_line pins one eigenline at 0 on every segment (semidefinite
    generators), which the greedy decomposition cannot certify at the seed.
    """
    segs = []
    line = int(rng.integers(0, n))
    for d in rng.dirichlet(np.ones(segments)):
        diag = rng.uniform(lo, hi, size=n)
        if zero_line:
            diag[line] = 0.0
        segs.append({"generator": _encode(np.diag(diag).astype(complex)),
                     "duration": float(d)})
    return {"piecewise_hermitian": {"segments": segs}}


def _embed_greedy(seed):
    rng = _rng(seed, "embed_greedy")
    jobs = []

    def add(name, cls, argv, doc=None, **kw):
        jobs.append(_job(f"{len(jobs):02d}-{name}", cls, argv, doc, **kw))

    # equal weights: bands rotate over the lenses; two lenses in three get a
    # second band
    for i, (k, w) in enumerate(EQUAL_LENSES):
        for b in (i % 5, (i + 2) % 5)[: 1 + (i % 3 != 2)]:
            lo, hi = GEODESIC_BANDS[b]
            T = _away_from_lattice(rng, lo, hi, TWO_PI / k)
            count = _orbit_count(k, T)
            if b % 2:  # half the jobs pass T on the command line instead
                argv, doc = ["geodesic", "{job}", "-T", repr(T)], _doc(k, w, None, "geodesic", {})
            else:
                argv, doc = ["geodesic", "{job}"], _doc(k, w, None, "geodesic", {"T": T})
            add(f"geodesic-{_lens_tag(k, w)}-band{b}", _band_class(b), argv, doc,
                checks=[("eq", "results.verdict", "certified"),
                        ("eq", "results.upper", count),
                        ("eq", "results.lower", count),
                        ("eq", "results.greedy_count", count)])

    # general weights: only the two bounds; the orbit count is the upper one
    for k, w in GENERAL_LENSES:
        for b in (1, 2, 4):
            lo, hi = GEODESIC_BANDS[b]
            T = _away_from_lattice(rng, lo, hi, TWO_PI / k)
            add(f"geodesic-{_lens_tag(k, w)}-band{b}", _band_class(b), ["geodesic", "{job}"],
                _doc(k, w, None, "geodesic", {"T": T}),
                checks=[("eq", "results.verdict", "gap"),
                        ("eq", "results.upper", _orbit_count(k, T)),
                        ("le", "results.lower", "results.greedy_count"),
                        ("le", "results.lower", "results.upper")])

    # norms with decompose on Reeb paths
    for k, w, lo, hi in [(3, (1, 1), 10.0, 30.0), (2, (1, 1, 1), 20.0, 40.0),
                         (5, (1, 2, 3), 10.0, 30.0), (4, (1, 3), 20.0, 40.0),
                         (7, (1, 1), 5.0, 15.0), (3, (1, 1, 1, 1), 5.0, 15.0)]:
        T = _away_from_lattice(rng, lo, hi, TWO_PI / k)
        checks = [("le", "results.dis_lower", "results.dis_upper"),
                  ("le", "results.osc_lower", "results.osc_upper")]
        if len(set(w)) == 1:
            count = _orbit_count(k, T)
            checks += [("eq", "results.dis_lower", count),
                       ("eq", "results.dis_upper", count)]
        add(f"norms-decompose-reeb-{_lens_tag(k, w)}", "medium", ["norms", "{job}"],
            _doc(k, w, {"reeb": T}, "norms", {"decompose": True}), checks=checks)

    # norms with decompose on explicit diagonal (commuting) paths
    for k, w, scales in [(5, (1, 2, 3), (6.0, 18.0)), (4, (1, 3), (6.0, 18.0)),
                         (7, (1, 2, 3, 4), (6.0, 18.0)), (5, (1, 2), (18.0,))]:
        for scale in scales:
            path = _diagonal_path(rng, len(w), int(rng.integers(2, 5)), 0.2 * scale, scale)
            add(f"norms-decompose-diag-{_lens_tag(k, w)}-s{int(scale)}", "medium",
                ["norms", "{job}"], _doc(k, w, path, "norms", {"decompose": True}),
                checks=[("le", "results.dis_lower", "results.dis_upper"),
                        ("le", "results.osc_lower", "results.osc_upper")])

    # known defects: semidefinite generators (ROADMAP item 4)
    for k, w in [(5, (1, 2, 3)), (4, (1, 3)), (7, (1, 2, 3, 4))]:
        path = _diagonal_path(rng, len(w), 2, 1.0, 6.0, zero_line=True)
        add(f"norms-decompose-semidefinite-{_lens_tag(k, w)}", "light",
            ["norms", "{job}"], _doc(k, w, path, "norms", {"decompose": True}),
            checks=[("eq", "results.dis_upper", None)],
            known_defect=KNOWN_DEFECT_DECOMPOSE)
    return jobs


# --- cli_mix -------------------------------------------------------------

KNOWN_DEFECT_VALIDATION = (
    "ROADMAP item 4: a task parameter is not validated, so the job exits 1 "
    "with a traceback instead of exit 2 naming the field"
)

VERIFY_SUITES = [("quadratic_core", 2), ("maslov_props", 1), ("norms", 1),
                 ("geodesic", 1), ("thm1", 1)]


def _cli_mix(seed):
    rng = _rng(seed, "cli_mix")
    jobs = []

    def add(name, argv, doc=None, cls="light", **kw):
        jobs.append(_job(f"{len(jobs):02d}-{name}", cls, argv, doc, **kw))

    def identity(n):
        return {"piecewise_hermitian": {"segments": [
            {"generator": _encode(np.zeros((n, n), dtype=complex)), "duration": 1.0}]}}

    def spectrum_reeb_table(k, w, tag, T):
        add(f"spectrum-reeb-{tag}-table", ["spectrum", "{job}", "--table"],
            _doc(k, w, {"reeb": T}, "spectrum"),
            checks=[("sum", "results.sphere.multiplicities", len(w)),
                    ("sum", "results.lens.multiplicities", len(w) * k),
                    ("stderr", "sphere.phases")])

    def norms_identity(k, w, tag, T):
        add(f"norms-identity-{tag}", ["norms", "{job}"],
            _doc(k, w, identity(len(w)), "norms"),
            checks=[("eq", "results.nu.num", 0), ("eq", "results.nu_prime.num", 0)])

    def selectors_identity_table(k, w, tag, T):
        add(f"selectors-identity-{tag}-table", ["selectors", "{job}", "--table"],
            _doc(k, w, identity(len(w)), "selectors"),
            checks=_selector_checks(2 * len(w)) + [("approx", "results.c_plus", 0.0, 1e-12),
                                                   ("stderr", "c_plus")])

    def random_doc(k, w):
        return {"random": {"seed": int(rng.integers(0, 2**31)), "segments": 2,
                           "norm_bound": float(rng.uniform(1.0, 6.0))}}

    def maslov_random(k, w, tag, T):
        add(f"maslov-random-{tag}", ["maslov", "{job}"], _doc(k, w, random_doc(k, w), "maslov"))

    def spectrum_random(k, w, tag, T):
        add(f"spectrum-random-{tag}", ["spectrum", "{job}"],
            _doc(k, w, random_doc(k, w), "spectrum"),
            checks=[("sum", "results.sphere.multiplicities", len(w))])

    def explicit(k, w):
        return _explicit_path(rng, k, w, float(rng.uniform(1.0, 6.0)), rng.dirichlet(np.ones(2)))

    def maslov_explicit(k, w, tag, T):
        path, mu = explicit(k, w)
        add(f"maslov-explicit-{tag}", ["maslov", "{job}"], _doc(k, w, path, "maslov"),
            checks=[("eq", "results.mu", mu)])

    def selectors_explicit(k, w, tag, T):
        add(f"selectors-explicit-{tag}", ["selectors", "{job}"],
            _doc(k, w, explicit(k, w)[0], "selectors"), checks=_selector_checks(2 * len(w)))

    def norms_explicit(k, w, tag, T):
        add(f"norms-explicit-{tag}", ["norms", "{job}"],
            _doc(k, w, explicit(k, w)[0], "norms"), checks=list(NORM_CHECKS))

    def geodesic(k, w, tag, T):
        Tg = _away_from_lattice(rng, 0.2, 3.0, TWO_PI / k)
        checks = [("eq", "results.upper", _orbit_count(k, Tg))]
        if len(set(w)) == 1:
            checks.append(("eq", "results.verdict", "certified"))
        add(f"geodesic-{tag}", ["geodesic", "{job}", "-T", repr(Tg)],
            _doc(k, w, None, "geodesic", {}), checks=checks)

    # Every lens gets the two Reeb jobs with closed forms and four of the
    # other kinds, rotating so that each kind meets two or three lenses.
    kinds = [spectrum_reeb_table, norms_identity, selectors_identity_table, maslov_random,
             spectrum_random, maslov_explicit, selectors_explicit, norms_explicit, geodesic]
    lenses = [(3, (1,)), (2, (1, 1)), (3, (1, 2)), (5, (1, 2, 3)), (4, (1, 3))]
    for i, (k, w) in enumerate(lenses):
        n = len(w)
        tag = _lens_tag(k, w)
        T = _away_from_lattice(rng, 0.5, 12.0, math.pi)
        add(f"maslov-reeb-{tag}", ["maslov", "{job}"], _doc(k, w, {"reeb": T}, "maslov"),
            checks=[("eq", "results.mu", 2 * n * math.ceil(T / TWO_PI))])
        add(f"selectors-reeb-{tag}-stdin", ["selectors", "-"],
            _doc(k, w, {"reeb": T}, "selectors"), stdin=True,
            checks=_selector_checks(2 * n) + [("approx", "results.selectors.0", T, 1e-9)])
        for j in range(4):
            kinds[(4 * i + j) % len(kinds)](k, w, tag, T)

    for suite, trials in VERIFY_SUITES:
        add(f"verify-{suite}", ["verify", "--suite", suite, "--trials", str(trials),
                                "--seed", str(int(rng.integers(0, 1000)))],
            cls="medium", checks=[("eq", "results.pass", True)])

    # input errors that the seed already maps to exit 2
    truncated = json.dumps(_doc(3, (1, 1), {"reeb": 1.0}, "maslov"))[:-7]
    add("error-malformed-json", ["maslov", "{job}"], truncated, exit=2, field="$")
    add("error-non-coprime-weight", ["maslov", "{job}"],
        _doc(4, (1, 2), {"reeb": 1.0}, "maslov"), exit=2, field="lens.weights[1]")
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    add("error-non-hermitian", ["maslov", "{job}"],
        _doc(3, (1, 1), {"piecewise_hermitian": {"segments": [
            {"generator": _encode(bad), "duration": 1.0}]}}, "maslov"),
        exit=2, field="path.piecewise_hermitian.segments[0].generator")

    # input errors that still raise at the seed (ROADMAP item 4)
    add("error-j-lo-not-int", ["selectors", "{job}"],
        _doc(3, (1, 1), {"reeb": 1.0}, "selectors", {"j_lo": "abc"}),
        exit=2, field="task.selectors.j_lo", known_defect=KNOWN_DEFECT_VALIDATION)
    add("error-j-lo-above-j-hi", ["selectors", "{job}", "--j-lo", "3", "--j-hi", "0"],
        _doc(3, (1, 1), {"reeb": 1.0}, "selectors"),
        exit=2, field="task.selectors", known_defect=KNOWN_DEFECT_VALIDATION)
    add("error-geodesic-huge-T", ["geodesic", "{job}", "-T", "1e308"],
        _doc(3, (1, 1), None, "geodesic", {}),
        exit=2, field="task.geodesic.T", known_defect=KNOWN_DEFECT_VALIDATION)
    add("error-random-zero-segments", ["maslov", "{job}"],
        _doc(3, (1, 1), {"random": {"seed": 1, "segments": 0}}, "maslov"),
        exit=2, field="path.random.segments", known_defect=KNOWN_DEFECT_VALIDATION)
    return jobs


_GENERATORS = {"spectral_heavy": _spectral_heavy, "embed_greedy": _embed_greedy,
             "cli_mix": _cli_mix}


def _interleave(jobs):
    """Spread every cost class evenly over the pass, so a prefix of the pass
    has about the pass's mix."""
    by_cls = {}
    for j in jobs:
        by_cls.setdefault(j["cls"], []).append(j)
    keyed = []
    for members in by_cls.values():
        for i, j in enumerate(members):
            keyed.append(((i + 0.5) / len(members), j["name"], j))
    return [j for _, _, j in sorted(keyed, key=lambda x: x[:2])]


def build(workload, seed):
    """The workload's job list for `seed`, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _interleave(_GENERATORS[workload](seed))


def input_key(job):
    """Digest of everything the program sees for this job."""
    blob = json.dumps([job["argv"], job["stdin"], job["document"]])
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def write(jobs, directory):
    """Write one file per job plus the manifest; returns {name: job file path}."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        if job["document"] is not None:
            p = directory / f"{job['name']}.json"
            p.write_text(job["document"])
            paths[job["name"]] = p
    (directory / "corpus.json").write_text(json.dumps(jobs, indent=1, sort_keys=True))
    return paths
