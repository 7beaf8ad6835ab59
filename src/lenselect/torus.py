"""The diagonal torus: the numpy-free rules of the step function and of the
commuting greedy, and the based family's index on the torus.

When the weights are pairwise distinct mod k, every weight class is one
coordinate, so the Hermitian generators that commute with the deck action
are exactly the real diagonal matrices: every path over such a lens
(L_5(1,2,3), L_4(1,3), L_7(1,2,3,4), ...) lies in the torus of diagonal
unitaries.  Its eigenlines are the coordinates, line j turns at the speed
(A_i)_jj on segment i, and no eigenproblem is needed.  A `TorusPath` holds
such a path as those numbers and answers the `norms` task from them
(`norms.norm_report` reads its record), without numpy, and the `maslov`
task wherever its line-by-line count decides.  `jobs` keeps every
`piecewise_hermitian` path whose generators are real diagonal (every
off-diagonal entry and imaginary part exactly 0) as a TorusPath, on any
lens; on a lens with pairwise distinct weights mod k, that is every exactly
deck-commuting explicit path.  A Reeb path T I is one too, for its `maslov`
job.

The rules below are functions of plain floats, and both path records feed
them through one interface: a `paths.UnitaryPath` and a `TorusPath` each
have `lens`, `starts`, `phases` (of the endpoint), `lift` (the det lift),
`is_identity_endpoint()` and `decomposition()`.  `evaluate_step` reads
`phases` and `lift` and is the only call into `step_function`, and
`norms.norm_report` reads the rest, for either record.  A UnitaryPath's
phases are its endpoint eigenphases, and its `decomposition()` runs
`decompose` on `paths._joint_eigendata`'s slopes and the segments' spectra;
`paths` also clips a stretch with `clip` and tests each common eigenline
with `line_crossing`.  A TorusPath feeds the same rules its lifted line
phases and its diagonals.  Each rule makes the float operations of the
numpy code it replaced, in the same order (`np.mod` is `%` on floats,
`np.searchsorted(side="right")` is `bisect_right`), so selectors, spectra
and verify reports are unchanged.

On a path of diagonal unitaries every block of the based family F_t of
`maslov` is diagonal, so F_t is the direct sum of n one-line chains and its
inertia is the sum of theirs (Sylvester's law).  `line_count` is
`maslov._shifted_counts` at n = 1, in closed form; `maslov.BasedFamily`
stays its reference, and decides every count whose pivot `_shifted_counts`
would carry or whose two cuts disagree.  The subdivision's price and its
constants live here, so `jobs` reads them without numpy.
"""

import cmath
import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate

from .lens import TWO_PI
from .tolerances import DET_LIFT_TOL, NULL_TOL, PHASE_CLUSTER_TOL

# --- the step function ---


def wrap(x, base=0.0):
    """x moved into the window [base, base + 2 pi); a point within 1e-12
    below the window's end is read as the one at its start."""
    x = base + (x - base) % TWO_PI
    return x - TWO_PI if x >= base + TWO_PI - 1e-12 else x


def cluster_phases(phases):
    """Canonicalize to [0, 2 pi), sort, and merge clusters of width <=
    PHASE_CLUSTER_TOL.

    Returns (representatives, multiplicities) as lists; the cluster wrapping
    across 0 ~ 2 pi is merged into the representative near 0.
    """
    reps, mults = [], []
    for x in sorted(wrap(x) for x in phases):
        if reps and x - reps[-1] <= PHASE_CLUSTER_TOL:
            mults[-1] += 1
        else:
            reps.append(x)
            mults.append(1)
    if len(reps) > 1 and (reps[0] + TWO_PI) - reps[-1] <= PHASE_CLUSTER_TOL:
        mults[0] += mults.pop()
        reps.pop()
    return reps, mults


class MaslovEvaluation(namedtuple("MaslovEvaluation",
                                  "lens window_base points multiplicities values")):
    """Step function T -> mu(r_{-T} . path) over one period window.

    points[i] are the sphere-spectrum phases in [window_base, base + 2 pi),
    with their multiplicities; values[i] is the (constant) value on
    [points[i], points[i+1]), evaluated at the gap midpoint; the function is
    right-continuous and extends to all of R by the exact periodicity
    value(T + 2 pi) = value(T) - 2n.  points, multiplicities and values are
    lists.
    """

    __slots__ = ()

    @property
    def n2(self):
        return 2 * self.lens.n

    @property
    def pre_value(self):
        """Value on [window_base, points[0]): one period above the last gap."""
        return self.values[-1] + self.n2

    def value_at(self, T):
        base = self.points[0]
        ell = math.floor((T - base) / TWO_PI)
        Tr = T - TWO_PI * ell
        i = bisect_right(self.points, Tr) - 1
        if i < 0:  # Tr landed a hair under base by rounding
            i, ell = len(self.points) - 1, ell - 1
            Tr += TWO_PI
        return self.values[i] - self.n2 * ell

    def selector(self, j):
        """c_j = min{T : value_at(T) <= -j}, exact eigenphase + 2 pi ell."""
        best = math.inf
        for theta, v in zip(self.points, self.values):
            ell = -((-(j + v)) // self.n2)  # ceil((j+v)/2n)
            best = min(best, theta + TWO_PI * ell)
        return best

    def drops(self):
        vals = [self.pre_value, *self.values]
        return [a - b for a, b in zip(vals, vals[1:])]


def step_function(lens, phases, lift, window_base=0.0):
    """The Maslov step function over [window_base, window_base + 2 pi) of a
    path with these endpoint phases (any lifts: only their classes mod 2 pi
    are read) and det lift L = sum_i tr(A_i) d_i.  Each gap value is the
    closed form 2 (n + W) at the gap midpoint (`maslov`'s docstring).

    The phases phi_j are summed in order, where numpy summed them pairwise
    from 8 terms on; W is read only rounded to an integer, so every value is
    the same.
    """
    n = lens.n
    reps, mults = cluster_phases(phases)
    pts = [wrap(x, window_base) for x in reps]
    order = sorted(range(len(pts)), key=pts.__getitem__)
    pts, mults = [pts[i] for i in order], [mults[i] for i in order]
    W = []
    for a, b in zip(pts, [*pts[1:], pts[0] + TWO_PI]):
        mid = (a + b) / 2.0
        # phi_j(T) = (theta_j - T) mod 2 pi in (0, 2 pi]; midpoints miss the spectrum
        W.append((lift - n * mid - sum(TWO_PI - (mid - x) % TWO_PI for x in phases)) / TWO_PI)
    miss = max(abs(w - round(w)) for w in W)
    if miss > DET_LIFT_TOL:
        raise AssertionError(f"det-lift self-check failed: W is off an integer by {miss:.3e}")
    ev = MaslovEvaluation(lens, float(window_base), pts, mults,
                          [2 * (n + round(w)) for w in W])
    if any(d < 0 for d in ev.drops()):
        raise AssertionError("Maslov step function failed to be non-increasing")
    return ev


def evaluate_step(path, window_base=0.0):
    """`step_function` of a path record (`paths.UnitaryPath` or
    `TorusPath`) from window_base: its endpoint phases and det lift."""
    return step_function(path.lens, path.phases, path.lift, window_base)


# --- stretches and embeddedness ---


def segment_of(starts, t):
    """The index i of the segment [starts[i], starts[i + 1]] that holds t
    (the first or the last segment for t outside [0, 1])."""
    return min(max(bisect_right(starts, t) - 1, 0), len(starts) - 2)


def clip(starts, t0, t1):
    """The pieces (i, a, b) of a path with these segment starts on
    [t0, t1]: each segment i that overlaps [t0, t1] by more than 1e-15,
    clipped to [a, b].  A sliver stretch, which no segment overlaps by that
    much, is one piece of the segment that holds its midpoint.  This is the
    only place that clips a path to a stretch."""
    pieces = []
    for i in range(len(starts) - 1):
        a = max(starts[i], t0)
        b = min(starts[i + 1], t1)
        if b - a > 1e-15:
            pieces.append((i, a, b))
    return pieces or [(segment_of(starts, (t0 + t1) / 2), t0, t1)]


def speed(lam):
    """max |lambda|, the fastest phase speed of a generator with eigenvalues
    lam, which is its operator norm (the generator is Hermitian)."""
    return float(max(map(abs, lam), default=0.0))


def stationary(lam, length):
    """A piece whose phases move by at most 1e-12: constant up to roundoff."""
    return speed(lam) * length <= 1e-12


def line_crossing(slopes, lengths, step):
    """One common eigenline of a commuting stretch whose pieces have these
    lengths, with these slopes on them: (f, c, margin).  f is the line's
    phase at the nodes, from f = 0.  c is the crossing target (`paths.
    _commuting_embedded`): 0.0 when the line is not strictly monotone (a
    slope within 1e-12 * max(|slopes|, 1) of 0, or two of opposite signs),
    step or -step when its travel reaches +-step up to 1e-12, and None when
    the line keeps the stretch embedded, with margin step minus its travel.
    """
    f = [0.0, *accumulate(s * length for s, length in zip(slopes, lengths))]
    scale = max(speed(slopes), 1.0)
    if any(abs(s) <= 1e-12 * scale for s in slopes) or (max(slopes) > 0 and min(slopes) < 0):
        return f, 0.0, 0.0
    # f is strictly monotone from f(t0) = 0: it only rises or only falls
    drawup, drawdown = (f[-1], 0.0) if slopes[0] > 0 else (0.0, f[-1])
    if drawup >= step - 1e-12:
        return f, step, 0.0
    if drawdown <= -step + 1e-12:
        return f, -step, 0.0
    return f, None, min(step - drawup, drawdown + step)


# --- the greedy decomposition ---


class DecompositionReport(namedtuple("DecompositionReport",
                                     "count breakpoints certified sign_definite notes")):
    """A greedy decomposition: count pieces cut at the listed breakpoints;
    certified: every segment carries an embeddedness certificate;
    sign_definite: every segment is usable for the oscillation bound; notes
    list the cuts that could not be certified."""

    __slots__ = ()


def constant_run_end(starts, spectra, t):
    """End of the maximal run of stationary pieces from t (== t if none),
    spectra[i] the eigenvalues of segment i's generator."""
    end = t
    for i, a, b in clip(starts, t, 1.0):
        if not stationary(spectra[i], b - a):
            break
        end = b
    return end


def sign_definite(starts, spectra, a, b):
    """The generators on [a, b] are all positive or all negative
    semidefinite, up to 1e-12.  A sliver [a, b], whose one piece is at most
    1e-15 long, is constant and counts as both: the extra 0 covers it and
    changes neither test otherwise."""
    lam = [0.0, *(x for i, lo, hi in clip(starts, a, b) if hi - lo > 1e-15
                  for x in spectra[i])]
    return min(lam) >= -1e-12 or max(lam) <= 1e-12


def exact_prefix(pieces, slopes, k, t):
    """End q of the maximal embedded prefix [t, q] of a commuting path.

    pieces are the path's `clip` pieces (their last two entries a, b) and
    slopes[i][j] the slope of the eigenline phase f_j on piece i.  With one
    column of envelope slopes (paths._envelope_slopes) the same walk gives
    the prefix that rule (b) of is_embedded certifies.  Every deck weight is
    a unit mod k, so the deck targets of f_j(q) - f_j(s) are exactly the
    multiples of 2 pi / k, and [t, q] is embedded while every f_j is
    strictly monotone and travels less than 2 pi / k - 1e-12 (the threshold
    of is_embedded).  The prefix thus ends at the first node where some
    slope vanishes or changes sign (the cut is the node itself), or 1e-12
    before the first threshold crossing, whichever comes first.  Returns
    1.0 when [t, 1] is embedded and t when no prefix is.  O(pieces * n).
    """
    limit = TWO_PI / k - 1e-12
    scale = [max(speed(col), 1.0) for col in zip(*slopes)]
    travel = [0.0] * len(scale)
    sign = None
    for (*_, a, b), sl in zip(pieces, slopes):
        if b <= t:
            continue
        a = max(a, t)
        rising = [s > 0 for s in sl]  # each slope's sign: none is 0 past the test
        if any(abs(s) <= 1e-12 * c for s, c in zip(sl, scale)) or (
            sign is not None and rising != sign
        ):
            return a
        sign = rising
        reach = [f + abs(s) * (b - a) for f, s in zip(travel, sl)]
        if max(reach) >= limit:
            return a + min((limit - f) / abs(s) for f, s in zip(travel, sl)) - 1e-12
        travel = reach
    return 1.0


def next_cut(starts, spectra, pieces, slopes, k, t, certify, commuting=True):
    """End of the certified piece that starts at t, or None when none can
    be certified: no embedded prefix past t (e.g. a stationary eigenline,
    which every U_t U_s^{-1} from t on fixes) or certify(t, q) false.

    A constant stretch is its own piece.  On a commuting path, slopes are
    the joint eigenline slopes on the path's `clip` pieces and the cut is
    the exact prefix end.  On a non-commuting path, slopes hold each piece's
    envelope slope as one eigenline (paths._envelope_slopes; 0 on a
    mixed-sign piece, which stops the prefix), and the cut is the later of
    two closed forms: rule (a), the exact prefix inside the one piece that
    holds t, capped at its end, and rule (b), the envelope prefix across
    pieces.  Either way one certificate is asked for [t, q].
    """
    run = constant_run_end(starts, spectra, t)
    if run > t + 1e-12:
        return run  # an identity factor; embedded by convention
    q = exact_prefix(pieces, slopes, k, t)
    if not commuting:
        i, _, end = piece = clip(starts, t, 1.0)[0]
        q = max(q, min(exact_prefix([piece], [spectra[i]], k, t), end))
    if q <= t + 1e-9 and q < 1.0:
        return None
    return q if certify(t, q) else None


def decompose(cut, definite):
    """The greedy decomposition of [0, 1] by cut(t), the end of the
    certified piece from t or None; definite(a, b) says whether a piece is
    sign-definite, so that it bounds the oscillation length.  The loop ends
    only when [t, 1] is itself a piece, and the first cut that cannot be
    certified ends it: the rest [t, 1] is one uncertified piece, with a note
    saying where."""
    cuts, notes = [0.0], []
    while cuts[-1] < 1.0:
        t = cuts[-1]
        q = cut(t)
        if q is None:
            notes.append(f"cannot certify an embedded prefix at t = {t}")
            q = 1.0
        cuts.append(q)
    return DecompositionReport(
        count=len(cuts) - 1,
        breakpoints=cuts,
        certified=not notes,
        sign_definite=all(definite(a, b) for a, b in zip(cuts, cuts[1:])),
        notes=notes,
    )


# --- the based family ---

# Phase travel per subdivision interval; keeps ||V - I|| <= sqrt(2), i.e.
# transition eigenvalues in the closed right half-circle, so tan(theta/2) <= 1
# and the Cayley blocks, with eigenvalues 2 tan(theta/2), have norm <= 2.
MAX_TRAVEL = math.pi / 2

# `maslov.BasedFamily.index_at` counts the eigenvalues of the Maslov form H
# below the null cut by block elimination of H - cI (`maslov._shifted_counts`,
# and `line_count` on one line).
#
# ELIM_PIVOT: pivot eigenvalues with |lambda| below it are carried, not
# divided by.  Every block of H has norm <= 2 (the Cayley blocks because
# MAX_TRAVEL keeps their eigenvalues 2 tan(theta/2) in [-2, 2], the couplings
# because they are +-2i I), and a level's fiber couples to its new base
# through B with ||B|| = 2 sqrt(2).  So an elimination adds at most
# ||B||^2 / ELIM_PIVOT = 8 / ELIM_PIVOT to the next front, and every pivot P
# has ||P|| <= 8 / ELIM_PIVOT + 7.  eigh and the Schur update are backward
# stable, and a perturbation of a Schur complement is one of the same size in
# the block of H it lands on, so to first order the count is exact for some
# H + E with ||E|| <= 2 d u ||P||, d = 2n + r the pivot size (r carried) and
# u = 2^-53 (levels overlap only in their shared base).  At 1e-3 and d <= 24
# (n = 8 with up to 8 carried) that is ||E|| <= 4.3e-11.
#
# NULL_BRACKET (kappa): the dense cut NULL_TOL * max |lambda(H)| lies in
# [NULL_TOL s_lo, NULL_TOL s_hi] with s_lo = 2; the counts are taken at
# NULL_TOL s_lo / kappa and NULL_TOL s_hi kappa.  Equal counts decide the
# dense count while the guard band NULL_TOL s_lo (1 - 1/kappa) = 1e-8 exceeds
# ||E|| plus the dense eigvalsh's own backward error (about D u s_hi <= 1e-12
# at D = 2048, `jobs.MAX_FORM_DIM`), here by more than 200x.  A larger kappa
# widens the window [1e-8, 1.6e-7] (s_hi = 8) in which an eigenvalue of H
# sends the count to the dense fallback.
ELIM_PIVOT = 1e-3
NULL_BRACKET = 2.0


def segment_parts(travel):
    """ceil(travel / (pi/2)), at least 1: the intervals `maslov.subdivide`
    splits a segment with this phase travel ||A|| d into."""
    return max(1, math.ceil(travel / MAX_TRAVEL - 1e-12))


def subdivision_count(spans):
    """N, the intervals of `maslov.subdivide` over a path with these
    per-segment (phase travel, diagonal size) spans (`UnitaryPath.spans`,
    `jobs.Job.spans`).  The based family's form has dimension
    D = (2N - 1) 2n, so this prices a `maslov` job before any form is built."""
    return sum(segment_parts(travel) for travel, _ in spans)


def line_count(cayley, cut):
    """Nonpositive inertia of H - cut for one line of a diagonal family:
    `maslov._shifted_counts` at n = 1, on the Cayley values of the line's N
    transitions (N >= 2), or None where a pivot eigenvalue lies within
    ELIM_PIVOT of 0, the direction `_shifted_counts` would carry.

    Level m's pivot [[f, 2i], [-2i, s]] (f the front, s = c_m - cut) has
    the eigenvalues (f + s)/2 +- hypot((f - s)/2, 2), and its Schur
    complement onto the new base is -cut - 4 (f + s) / (f s - 4).
    """
    front, count = cayley[0] - cut, 0
    for c in cayley[1:]:
        s = c - cut
        mid, rad = (front + s) / 2.0, math.hypot((front - s) / 2.0, 2.0)
        pivots = (mid - rad, mid + rad)
        det = front * s - 4.0  # their product, off 0 past the check but for roundoff
        if min(map(abs, pivots)) < ELIM_PIVOT or det == 0.0:
            return None
        count += sum(lam <= -ELIM_PIVOT for lam in pivots)
        front = -cut - 4.0 * (front + s) / det
    return count + (front <= 0)


def family_index(cayley):
    """ind(F_t) of a diagonal based family, from the Cayley values of its
    transitions at t, one list of N per line: the count
    `maslov.BasedFamily.index_at` makes, or None where it is left to it.

    With N >= 2 the lines are counted at `index_at`'s two cuts, and equal
    totals are the count.  With N = 1 the dense rule of `quadratic.index`
    reads the values themselves.  They are rounded otherwise than numpy's
    Cayley transform rounds them, so a value within a relative 1e-12 of the
    rule's cut, or a largest |value| that close to its 1e-14 floor, is
    left to it.
    """
    values = [c for line in cayley for c in line]
    top = max(map(abs, values))
    if len(cayley[0]) == 1:
        scale = top if top >= 1e-14 else 1.0
        cut = NULL_TOL * scale
        if abs(top - 1e-14) <= 1e-26 or any(abs(c - cut) <= 1e-12 * cut for c in values):
            return None
        return 2 * sum(c <= cut for c in values)
    s_hi = max(8.0, 4.0 + top)
    lo, hi = ([line_count(line, cut) for line in cayley]
              for cut in (NULL_TOL * 2.0 / NULL_BRACKET, NULL_TOL * s_hi * NULL_BRACKET))
    if None in lo or None in hi or sum(lo) != sum(hi):
        return None
    return 2 * sum(lo)


# --- paths in the torus ---


class TorusPath(namedtuple("TorusPath", "lens durations slopes starts")):
    """A path of real diagonal generators, at `UnitaryPath`'s normalization
    to total time 1: segment i lasts durations[i], over [starts[i],
    starts[i + 1]], and turns line j at the speed slopes[i][j], the
    generator's (A_i)_jj times the total duration."""

    __slots__ = ()

    @classmethod
    def of(cls, lens, diagonals, durations):
        """The path of the generators diag(diagonals[i]) (finite floats) for
        durations[i] (numbers as given), or None where `UnitaryPath` would
        refuse it: a duration that is not positive, a total duration that
        is not finite, or an entry times the total that is not."""
        if not all(d > 0 for d in durations):
            return None
        total = float(sum(durations))
        if not 0 < total < math.inf:
            return None
        slopes = [[a * total for a in diag] for diag in diagonals]
        if not all(math.isfinite(a) for row in slopes for a in row):
            return None
        durations = [float(d) / total for d in durations]
        starts = [0.0, *accumulate(durations)]
        starts[-1] = 1.0
        return cls(lens, durations, slopes, starts)

    @property
    def spans(self):
        """`UnitaryPath.spans`: per segment, the phase travel
        max_j |a_ij| d_i and the diagonal size sum_j |a_ij| d_i."""
        return [(speed(row) * d, sum(map(abs, row)) * d)
                for row, d in zip(self.slopes, self.durations)]

    @property
    def phases(self):
        """The lifted line phases theta_j = sum_i a_ij d_i of the endpoint."""
        return [sum(row[j] * d for row, d in zip(self.slopes, self.durations))
                for j in range(self.lens.n)]

    @property
    def lift(self):
        """The det lift L = sum_i tr(A_i) d_i."""
        return sum(sum(row) * d for row, d in zip(self.slopes, self.durations))

    def is_identity_endpoint(self):
        """`UnitaryPath.is_identity_endpoint` on the endpoint diagonal:
        every |e^{i theta_j} - 1| <= 1e-9."""
        return all(abs(cmath.exp(1j * theta) - 1) <= 1e-9 for theta in self.phases)

    def embedded(self, t0, t1):
        """`paths.is_embedded(path, t0, t1).embedded`, which is never None
        on a commuting path: a constant stretch is embedded, any other one
        when every line passes `line_crossing`."""
        pieces = clip(self.starts, t0, t1)
        if all(stationary(self.slopes[i], b - a) for i, a, b in pieces):
            return True
        lengths = [b - a for _, a, b in pieces]
        step = TWO_PI / self.lens.k
        return all(line_crossing([self.slopes[i][j] for i, _, _ in pieces], lengths, step)[1]
                   is None for j in range(self.lens.n))

    def decomposition(self):
        """`norms.greedy_embedded_decomposition` of the path: the lines are
        the coordinates, so the joint eigenline slopes are the diagonals."""
        pieces = clip(self.starts, 0.0, 1.0)
        slopes = [self.slopes[i] for i, _, _ in pieces]
        return decompose(
            lambda t: next_cut(self.starts, self.slopes, pieces, slopes, self.lens.k, t,
                               self.embedded),
            lambda a, b: sign_definite(self.starts, self.slopes, a, b))

    def maslov_index(self):
        """`maslov.maslov_index` of the path, line by line, or None where
        `family_index` leaves a count to the reference.  Over `maslov.
        subdivide`'s intervals, transition m turns line j by its phase step
        on the interval, Delta, with the Cayley value 2 tan(Delta/2) at
        t = 1 and 0 at t = 0; ind(F_0) = 2nN is the same self-check."""
        steps = []  # per interval, the phase step of each line
        for row, d, (travel, _) in zip(self.slopes, self.durations, self.spans):
            parts = segment_parts(travel)
            steps += [[a * d / parts for a in row]] * parts
        n, N = self.lens.n, len(steps)
        i0 = family_index([[0.0] * N] * n)
        if i0 is not None and i0 != 2 * n * N:
            raise AssertionError(
                f"based-family self-check failed: ind(F_0) = {i0} != {2 * n * N}")
        i1 = family_index([[2.0 * math.tan(step[j] / 2.0) for step in steps]
                           for j in range(n)])
        return None if i0 is None or i1 is None else i0 - i1
