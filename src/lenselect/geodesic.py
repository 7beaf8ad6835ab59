"""Reeb-flow geodesic reports, in lattice arithmetic.

For equal weights the standard Reeb flow up to time T needs exactly
r + 1 = floor(kT / 2 pi) + 1 embedded pieces: the selector lower bound meets
the embedded-decomposition upper bound.  Every number of the report is
therefore arithmetic on the period lattice, and this module reads no matrix:
a geodesic job needs no numpy.  The greedy decomposition
(`norms.greedy_embedded_decomposition`) and the selector chain
(`norms.selector_lower_bounds`) on `reeb_path` stay the reference, in
`verify --suite geodesic` and in the tests.
"""

from dataclasses import dataclass

from .lens import TWO_PI, lattice_multiple
from .tolerances import PERIOD_SNAP_TOL

# The snap counts T within PERIOD_SNAP_TOL * max(1, T) of a multiple of
# 2 pi / k as that multiple, so a T that close below a multiple counts one
# piece more than floor(kT / 2 pi) + 1.  A job answers only while the window
# spans at most this fraction of a step 2 pi / k: kT / 2 pi up to 10**6 when
# T >= 1, k up to 2 pi 10**6 when T < 1.  Every T farther below a multiple
# then counts floor(kT / 2 pi) + 1 exactly: float division and the float
# 2 pi err by less than 1e-9 of a step there.
MAX_SNAP_STEPS = 1e-3


@dataclass
class GeodesicReport:
    lens: object
    T: float
    verdict: str  # "certified" | "gap"
    lower: int
    upper: int
    greedy_count: int  # r + 1, the pieces of the greedy decomposition
    equal_weights: bool

    def as_dict(self):
        """Every field but the lens."""
        return {key: value for key, value in vars(self).items() if key != "lens"}


def _snapped_orbits(lens, T):
    """(r, T_r): r = floor(k T / 2 pi), where T within the period lattice's
    snap tolerance of a multiple of 2 pi / k counts as that multiple, and
    the time T_r = r * 2 pi / k it snaps to (T itself when it does not)."""
    step = TWO_PI / lens.k
    r, snapped = lattice_multiple(T, step, "floor")
    return r, (r * step if snapped else T)


def geodesic_report(lens, T):
    """Reeb-flow geodesic verdict: certified equality for equal weights,
    lower/upper gap for general weights.  T is snapped as in
    _snapped_orbits to T_s; the report echoes T as given.  ValueError where
    the snap window spans more than MAX_SNAP_STEPS of a step.

    The Reeb flow rotates every eigenline at unit speed, and every deck
    weight is a unit mod k, so a stretch of it is embedded exactly when it
    travels less than 2 pi / k.  The r + 1 equal pieces of [0, T_s] each
    travel T_s / (r + 1) < 2 pi / k, while r pieces cannot all travel less
    than T_s / r >= 2 pi / k: upper = greedy_count = r + 1.  The selector bound of
    the Reeb path is c_+ = T_s rounded down to the lattice T_w Z, plus one
    (`norms.selector_lower_bounds`); for equal weights T_w = 2 pi / k and
    it meets the upper bound.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    steps = PERIOD_SNAP_TOL * max(1.0, T) * lens.k / TWO_PI  # the snap window, in steps
    if not steps <= MAX_SNAP_STEPS:
        raise ValueError(f"T = {T!r} on k = {lens.k}: the period snap spans {steps:.3g} "
                         f"of a step 2pi/k, more than {MAX_SNAP_STEPS}, so a T that close "
                         f"below a multiple would count as the multiple")
    r, Ts = _snapped_orbits(lens, T)
    lower = lens.period_multiple(Ts, "floor") + 1
    equal = lens.equal_weights
    # no slack: T_s is a multiple of 2 pi / k or more than the snap
    # tolerance away from every one
    if not Ts < (r + 1) * (TWO_PI / lens.k) or (equal and lower != r + 1):
        raise AssertionError(
            f"geodesic certificate failed: {r + 1} Reeb pieces of T = {Ts!r}, "
            f"selector lower {lower}, orbit count {r + 1}"
        )
    verdict = "certified" if equal else "gap"
    return GeodesicReport(lens, T, verdict, lower, r + 1, r + 1, equal)
