"""Non-linear Maslov index of a unitary path via based families of forms.

Reference construction (the paper's).  The path is subdivided so every
transition stays in the Cayley domain; each interval contributes a clamped
factor V_i(t) = U(clamp(t, s_i, s_{i+1})) * U(s_i)^{-1}, and F_t is the
left-associated #-composition of the factors' Cayley generating functions.
The total dimension of F_t is constant in t, so

    mu = ind(F_0) - ind(F_1)

is a difference of indices on one fixed space, with ind(F_0) = 2nN asserted
as a per-run self-check.  Every block of F_t is complex-linear, so
`BasedFamily.form_at` holds F_t as the Hermitian matrix of size (2N - 1) n
that it realifies: each Cayley block is the Hermitian A of the factor and
each +-2J coupling is +-2i I, written straight into one preallocated matrix
at the slots the # chain gives them.  `quadratic.index` counts each
eigenvalue of that matrix twice, as the real form of dimension
D = (2N - 1) 2n has it.

Closed form (the step function).  On the universal cover of U(n) a path class
is fixed by its endpoint together with the lift of arg det, and for a
piecewise path that lift is exactly L = sum_i tr(A_i) d_i.  Reeb-shifting by
T maps it to L - nT and the endpoint eigenphases theta_j to theta_j - T, so
away from the spectrum

    mu(r_{-T} . path) = 2 (n + W(T)),
    W(T) = (L - nT - sum_j phi_j(T)) / 2 pi,  phi_j(T) = (theta_j - T) mod 2 pi
                                              taken in (0, 2 pi],

with W an integer because e^{iL} = det U_1.  `evaluate_step` uses this for
every gap; `maslov_index` on the generating-function family stays the
reference, and the verify suite `maslov_props` (check `step-shape`) compares
the two on seeded random paths at runtime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .paths import reeb_shift, cluster_phases, _eigenphases, _opnorm
from .quadratic import InvariantQuadraticForm, base_phases, cayley_hermitian, index

TWO_PI = 2.0 * math.pi

# Phase travel per subdivision interval; keeps ||V - I|| <= sqrt(2), i.e.
# transition eigenvalues in the closed right half-circle, so tan(theta/2) <= 1
# and the Cayley factors have norm <= 1.
MAX_TRAVEL = math.pi / 2

# The det-lift winding W is an integer up to roundoff in the lift and the
# endpoint eigenphases; a larger miss means the path data are inconsistent.
#
# The check means something only while the lift itself is that accurate.  In
# float64 (unit roundoff u = 2^-53), tr(A_i) sums n diagonal entries, with
# error <= (n - 1) u sum_j |a_jj|; the product by d_i adds one rounding and
# the sum over S segments (S - 1) u times the sum of the terms' sizes.  To
# first order the computed L misses the exact one by at most
#     (n + S - 1) u Lambda,    Lambda = sum_i d_i sum_j |(A_i)_jj|,
# which `det_lift_roundoff` returns.  Past DET_LIFT_TOL the rounded W can be
# the wrong integer and still pass the check (from |W| = 2^52 on, every float
# is an integer), so a path with a larger bound is refused up front.
DET_LIFT_TOL = 1e-6

# Largest real form dimension D = (2N - 1) * 2n the `maslov` job builds: the
# generating-function index costs O(D^3) in two dense eigvalsh calls on the
# complex Hermitian matrix of size D/2.  On one BLAS thread (2 vCPU, OpenBLAS
# 0.3.31) `maslov_index` on Reeb paths over L_3(1,1,1,1) took 0.21 s at
# D = 1528, 0.46 s at D = 2040 and 3.3 s at D = 4072; the bench corpora reach
# D = 1616.
MAX_FORM_DIM = 2048


class BasedFamily:
    """Clamped-factor family F_t over a fixed subdivision of the path."""

    def __init__(self, path, breakpoints=None):
        self.path = path
        self.lens = path.lens
        self.breakpoints = (
            np.asarray(breakpoints, dtype=float)
            if breakpoints is not None
            else subdivide(path)
        )
        self._check_subdivision()
        self.N = len(self.breakpoints) - 1
        self._inv_at_start = [
            path.value(s).conj().T for s in self.breakpoints[:-1]
        ]

    def _check_subdivision(self):
        s = self.breakpoints
        if not (s[0] == 0.0 and s[-1] == 1.0 and np.all(np.diff(s) > 0)):
            raise ValueError("breakpoints must be strictly increasing from 0 to 1")
        for a, b in zip(s[:-1], s[1:]):
            if _travel(self.path, a, b) > MAX_TRAVEL * (1 + 1e-9):
                raise ValueError(
                    f"interval [{a}, {b}] exceeds the pi/2 phase-travel bound"
                )

    def transitions(self, t):
        """The clamped factors V_1(t)..V_N(t), each in the Cayley domain."""
        s = self.breakpoints
        return [
            self.path.value(min(max(t, s[i]), s[i + 1])) @ self._inv_at_start[i]
            for i in range(self.N)
        ]

    def form_at(self, t):
        """F_t = (..((C_1 # C_2) # C_3) ..) # C_N, assembled in one block.

        Every block of the chain is complex-linear, so F_t is held as the
        Hermitian matrix it realifies, of size (2N-1) n: the Cayley factor
        C_m is `cayley_hermitian(V_m)` and each +-2J coupling is +-2i I.
        The chain lays out its 2N-1 blocks of size n as
        [q_N, q_{N-1}, C_N, q_{N-2}, C_{N-1}, ..., q_2, C_3, C_1, C_2], where
        q_m is the base added by the m-th # and C_1 doubles as the base of
        the first factor.  Level m couples (q_m, base of level m-1, C_m) as
        `sharp` does; every entry is written once, so `realify` of the matrix
        equals the chain's entry for entry.
        """
        C = [cayley_hermitian(V) for V in self.transitions(t)]
        N, n = self.N, self.lens.n
        H = np.zeros(((2 * N - 1) * n,) * 2, dtype=complex)

        def blk(p):
            return slice(p * n, (p + 1) * n)

        def base(m):  # slot of the base of the level-m composite
            return 0 if m == N else 2 * (N - m) - 1

        H[blk(base(1)), blk(base(1))] = C[0]
        I2 = 2j * np.eye(n)
        for m in range(2, N + 1):
            q, z1, z2 = blk(base(m)), blk(base(m - 1)), blk(2 * (N - m) + 2)
            H[z2, z2] = C[m - 1]
            # -2<z2 - q, i(z1 - q)>, as in `sharp`
            for a, b, M in ((z2, z1, -I2), (z2, q, I2), (q, z1, I2)):
                H[a, b] = M
                H[b, a] = M.conj().T
        phases = np.tile(base_phases(self.lens), 2 * N - 1)
        return InvariantQuadraticForm(H, 2 * n, phases, self.lens.k_prime)

    @property
    def total_dim(self):
        return (2 * self.N - 1) * 2 * self.lens.n


def _travel(path, a, b):
    """Upper bound on the phase travel of U_t U_a^{-1} for t in [a, b]."""
    total = 0.0
    for i, (A, _) in enumerate(path.segments):
        lo = max(path._starts[i], a)
        hi = min(path._starts[i + 1], b)
        if hi > lo:
            total += _opnorm(A) * (hi - lo)
    return total


def _segment_parts(A, d):
    """ceil(||A|| d / (pi/2)), at least 1; `UnitaryPath` keeps ||A|| d finite."""
    return max(1, math.ceil(_opnorm(A) * d / MAX_TRAVEL - 1e-12))


def subdivision_count(path):
    """N, the number of intervals `subdivide(path)` makes, by arithmetic alone.

    The based family's form has dimension D = (2N - 1) * 2n, so this prices a
    `maslov_index` call before any form is built.
    """
    return sum(_segment_parts(A, d) for A, d in path.segments)


def subdivide(path):
    """Breakpoints with phase travel <= pi/2 per interval.

    Segment boundaries are always included; each segment is split uniformly
    into ceil(||A|| d / (pi/2)) parts.
    """
    pts = [0.0]
    for i, (A, d) in enumerate(path.segments):
        a, b = path._starts[i], path._starts[i + 1]
        parts = _segment_parts(A, d)
        for j in range(1, parts + 1):
            pts.append(a + (b - a) * j / parts)
    pts[-1] = 1.0
    return np.array(pts)


def maslov_index(path, breakpoints=None):
    """mu(path) = ind(F_0) - ind(F_1) over a based family."""
    fam = BasedFamily(path, breakpoints)
    n2 = 2 * path.lens.n
    i0 = index(fam.form_at(0.0))
    if i0 != n2 * fam.N:
        raise AssertionError(
            f"based-family self-check failed: ind(F_0) = {i0} != {n2 * fam.N}"
        )
    return i0 - index(fam.form_at(1.0))


def maslov_shifted(path, T):
    """mu of the Reeb-shifted class r_{-T} . path."""
    return maslov_index(reeb_shift(path, T))


@dataclass(frozen=True)
class MaslovEvaluation:
    """Step function T -> mu(r_{-T} . path) over one period window.

    points[i] are the sphere-spectrum phases in [window_base, base + 2 pi);
    values[i] is the (constant) value on [points[i], points[i+1]), evaluated
    at the gap midpoint; the function is right-continuous and extends to all
    of R by the exact periodicity value(T + 2 pi) = value(T) - 2n.
    """

    lens: object
    window_base: float
    points: np.ndarray
    multiplicities: np.ndarray
    values: np.ndarray

    @property
    def n2(self):
        return 2 * self.lens.n

    @property
    def pre_value(self):
        """Value on [window_base, points[0]): one period above the last gap."""
        return int(self.values[-1]) + self.n2

    def value_at(self, T):
        base = self.points[0]
        ell = math.floor((T - base) / TWO_PI)
        Tr = T - TWO_PI * ell
        i = int(np.searchsorted(self.points, Tr, side="right")) - 1
        if i < 0:  # Tr landed a hair under base by rounding
            i, ell = len(self.points) - 1, ell - 1
            Tr += TWO_PI
        return int(self.values[i]) - self.n2 * ell

    def selector(self, j):
        """c_j = min{T : value_at(T) <= -j}, exact eigenphase + 2 pi ell."""
        best = math.inf
        for theta, v in zip(self.points, self.values):
            ell = -((-(j + int(v))) // self.n2)  # ceil((j+v)/2n)
            best = min(best, theta + TWO_PI * ell)
        return best

    def drops(self):
        vals = np.concatenate([[self.pre_value], self.values])
        return (-np.diff(vals)).astype(int)


def det_lift_roundoff(path):
    """First-order bound on the float64 roundoff in L = sum_i tr(A_i) d_i.

    See DET_LIFT_TOL; inf when Lambda itself overflows.
    """
    with np.errstate(over="ignore"):
        size = sum(float(np.abs(np.diag(A).real).sum()) * d for A, d in path.segments)
    return (path.lens.n + len(path.segments) - 1) * np.finfo(float).eps / 2 * size


def evaluate_step(path, window_base=0.0):
    """Evaluate the Maslov step function on one window of the sphere spectrum.

    The drift is exactly -2n per +2 pi, so gap values in a single window
    determine the function (and every selector) on all of R.  Each gap value
    is the det-lift closed form of the module docstring at the gap midpoint.
    """
    lens = path.lens
    raw = _eigenphases(path.endpoint, lens.weight_classes())
    phases, mults = cluster_phases(raw)
    # shift representatives into [window_base, window_base + 2 pi)
    pts = window_base + np.mod(phases - window_base, TWO_PI)
    pts = np.where(pts >= window_base + TWO_PI - 1e-12, pts - TWO_PI, pts)
    order = np.argsort(pts)
    pts, mults = pts[order], mults[order]
    gaps_end = np.concatenate([pts[1:], [pts[0] + TWO_PI]])
    mids = (pts + gaps_end) / 2.0
    lift = sum(float(np.trace(A).real) * d for A, d in path.segments)
    # phi_j(T) = (theta_j - T) mod 2 pi in (0, 2 pi]; midpoints miss the spectrum
    phi = TWO_PI - np.mod(mids[:, None] - raw[None, :], TWO_PI)
    W = (lift - lens.n * mids - phi.sum(axis=1)) / TWO_PI
    Wr = np.rint(W)
    if np.any(np.abs(W - Wr) > DET_LIFT_TOL):
        raise AssertionError(
            "det-lift self-check failed: W is off an integer by "
            f"{float(np.abs(W - Wr).max()):.3e}"
        )
    values = (2 * (lens.n + Wr)).astype(int)
    ev = MaslovEvaluation(lens, float(window_base), pts, mults, values)
    if np.any(ev.drops() < 0):
        raise AssertionError("Maslov step function failed to be non-increasing")
    return ev
