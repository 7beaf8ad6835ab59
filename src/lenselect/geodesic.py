"""Lattice arithmetic of the `norms` and `geodesic` reports.

Every number of a `norms` report is period-lattice arithmetic on the
selectors c_+ = c_0 and c_- = c_{-2n+1} (`lattice_norm_report`): an
explicit path reads them off one evaluation of the step function
(`norms.norm_report`, on a `paths.UnitaryPath` or, on a real-diagonal path,
its `torus.TorusPath`), and every selector c_j, -2n + 1 <= j <= 0, of the
Reeb path is T (`reeb_norm_report`).  For equal weights the Reeb flow up to
time T needs exactly r + 1 = floor(kT / 2 pi) + 1 embedded pieces: the
selector lower bound meets the embedded-decomposition upper bound
(`geodesic_report`).  This module reads no matrix, so a `geodesic` job and
a `norms` job on a Reeb path need no numpy; the greedy decomposition and
the selector chain on `reeb_path` stay their reference, in
`verify --suite geodesic` and in the tests.  The explicit-path route lives
in `norms` and `torus`, not here, so a `geodesic` job compiles none of it.
"""

from collections import namedtuple

from .lens import TWO_PI, lattice_multiple
from .tolerances import PERIOD_SNAP_TOL

# A path whose selectors c_+ and c_- are this close to 0 (and whose endpoint
# is I) is in the identity class.
IDENTITY_CLASS_TOL = 1e-9

# The snap counts T within PERIOD_SNAP_TOL * max(1, T) of a multiple of
# 2 pi / k as that multiple, so a T that close below a multiple counts one
# piece more than floor(kT / 2 pi) + 1.  A job answers only while the window
# spans at most this fraction of a step 2 pi / k: kT / 2 pi up to 10**6 when
# T >= 1, k up to 2 pi 10**6 when T < 1.  Every T farther below a multiple
# then counts floor(kT / 2 pi) + 1 exactly: float division and the float
# 2 pi err by less than 1e-9 of a step there.
MAX_SNAP_STEPS = 1e-3


class LatticeValue(namedtuple("LatticeValue", "multiple num den value")):
    """An exact element m * T_w of the period lattice: its multiple m, the
    value as the exact fraction (num/den) * 2 pi, and the float value."""

    __slots__ = ()

    @classmethod
    def of(cls, lens, m):
        num, den = lens.period_fraction(m)
        return cls(m, num, den, lens.period_value(m))

    def as_dict(self):
        return {"num": self.num, "den": self.den, "approx": self.value}


class NormReport(namedtuple("NormReport", "lens nu nu_prime nu_star nu_star_shift dis_lower "
                                          "dis_upper osc_lower osc_upper equal_weights "
                                          "verdict degenerate_circle_case")):
    """The `norms` report: nu, nu', nu* and its shift as LatticeValues;
    the integer dis_lower and osc_lower; dis_upper and osc_upper, integers
    or None; equal_weights, verdict and degenerate_circle_case."""

    __slots__ = ()

    def as_dict(self):
        """Every field but the lens, lattice values as {num, den, approx}."""
        return {key: value.as_dict() if isinstance(value, LatticeValue) else value
                for key, value in self._asdict().items() if key != "lens"}


class GeodesicReport(namedtuple("GeodesicReport",
                                "lens T verdict lower upper greedy_count equal_weights")):
    """The `geodesic` report: verdict is "certified" or "gap", between the
    integer bounds lower and upper; greedy_count is r + 1, the pieces of the
    greedy decomposition."""

    __slots__ = ()

    def as_dict(self):
        """Every field but the lens."""
        return {key: value for key, value in self._asdict().items() if key != "lens"}


def _snapped_orbits(lens, T):
    """(r, T_r): r = floor(k T / 2 pi), where T within the period lattice's
    snap tolerance of a multiple of 2 pi / k counts as that multiple, and
    the time T_r = r * 2 pi / k it snaps to (T itself when it does not)."""
    step = TWO_PI / lens.k
    r, snapped = lattice_multiple(T, step, "floor")
    return r, (r * step if snapped else T)


def snap_window_refusal(lens, T):
    """Why `geodesic_report` refuses a time T >= 0, or None: the snap window
    spans more than MAX_SNAP_STEPS of a step 2 pi / k."""
    steps = PERIOD_SNAP_TOL * max(1.0, T) * lens.k / TWO_PI  # the snap window, in steps
    return None if steps <= MAX_SNAP_STEPS else (
        f"T = {T!r} on k = {lens.k}: the period snap spans {steps:.3g} of a step "
        f"2pi/k, more than {MAX_SNAP_STEPS}, so a T that close below a multiple "
        f"would count as the multiple")


def geodesic_report(lens, T):
    """Reeb-flow geodesic verdict: certified equality for equal weights,
    lower/upper gap for general weights.  T is snapped as in
    _snapped_orbits to T_s; the report echoes T as given.  ValueError where
    `snap_window_refusal` refuses T (`parse_job` refuses such a job first).

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
    refusal = snap_window_refusal(lens, T)
    if refusal is not None:
        raise ValueError(refusal)
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


def lattice_norm_report(lens, cp, cm, identity, dis_upper=None, osc_upper=None):
    """The `norms` report of a class with selectors c_+ = cp, c_- = cm.

    C and F, c_+ rounded up and c_- rounded down to T_w Z, give
    nu = max(C, -F); nu' is 0 on the identity class (`identity`) and bumps
    any other to at least T_w.  Selectors shift exactly,
    c_j(r_{-N T_w} . path) = c_j(path) - N T_w, so nu* = min over N of
    max(C - N, N - F, 0) = ceil((C - F) / 2) (F <= C as c_- <= c_+), first
    reached at the shift N = C - nu*; nu* is asserted <= 2 pi + T_w.  Every embedded factor has
    c_0 < T_w, so N embedded pieces force N > c_+ / T_w and, on the inverse
    path, whose c_+ is -c_-, N > -c_- / T_w: dis_lower; osc_lower = nu.
    dis_upper and osc_upper, certified counts or None, are raised to those
    lower bounds, which the snap may put above them; the oscillation length
    is at least the discriminant length.
    """
    C, F = lens.period_multiple(cp, "ceil"), lens.period_multiple(cm, "floor")
    m = max(C, -F)
    star = -((F - C) // 2)
    bound = TWO_PI + lens.reeb_period
    if lens.period_value(star) > bound + 1e-9:
        raise AssertionError(
            f"nu* = {lens.period_value(star)} exceeds the 2 pi + T_w bound {bound}"
        )
    dis_lower = max([0] + [lens.period_multiple(c, "floor") + 1
                           for c in (cp, -cm) if c > IDENTITY_CLASS_TOL])
    return NormReport(
        lens=lens,
        nu=LatticeValue.of(lens, m),
        nu_prime=LatticeValue.of(lens, 0 if identity else max(m, 1)),
        nu_star=LatticeValue.of(lens, star),
        nu_star_shift=LatticeValue.of(lens, C - star),
        dis_lower=dis_lower,
        dis_upper=None if dis_upper is None else max(dis_upper, dis_lower),
        osc_lower=m,
        osc_upper=None if osc_upper is None else max(osc_upper, m, dis_lower),
        equal_weights=lens.equal_weights,
        verdict="not-applicable",
        degenerate_circle_case=lens.degenerate,
    )


def reeb_norm_report(lens, T, decompose=False):
    """`norms.norm_report(reeb_path(lens, T), decompose)` in lattice
    arithmetic: c_+ = c_- = T, and the class is the identity exactly when
    T snaps to 0 (the endpoint e^{iT} I is then I up to |T|).  With
    `decompose`, both upper bounds are the greedy's r + 1 pieces, r from
    _snapped_orbits of |T| as in geodesic_report; the generator T I is
    definite, so the pieces also bound the oscillation length.
    """
    upper = _snapped_orbits(lens, abs(T))[0] + 1 if decompose else None
    return lattice_norm_report(lens, T, T, abs(T) <= IDENTITY_CLASS_TOL, upper, upper)
