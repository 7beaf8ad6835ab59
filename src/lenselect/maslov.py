"""Non-linear Maslov index of a unitary path via based families of forms.

Reference construction (the paper's).  The path is subdivided so every
transition stays in the Cayley domain; each interval contributes a clamped
factor V_i(t) = U(clamp(t, s_i, s_{i+1})) * U(s_i)^{-1}, and F_t is the
left-associated #-composition of the factors' Cayley generating functions.
The total dimension of F_t is constant in t, so

    mu = ind(F_0) - ind(F_1)

is a difference of indices on one fixed space, with ind(F_0) = 2nN asserted
as a per-run self-check.  Every block of F_t is complex-linear, so `sharp`
and `cayley_gf` hold F_t as a Hermitian matrix H of size (2N - 1) n: each
Cayley block is the Hermitian A of the factor and each coupling is +-2i I,
and each eigenvalue of H counts twice in the real form of dimension
D = (2N - 1) 2n.

`BasedFamily.index_at` counts ind(F_t) in O(N n^3) without assembling H.
Level m of the # chain couples its fiber (the front left by the levels
before it, the C_m slot and any carried directions) to nothing but its new
base q_m, so H has block bandwidth 3 and its inertia follows level by level
(Sylvester's law; Haynsworth 1968): each fiber pivot is diagonalized, its
well-conditioned directions are eliminated onto q_m and the near-null ones
are carried into the next front instead of being divided by.  The dense
null cut NULL_TOL * max |lambda(H)| is matched exactly by counting the
nonpositive inertia of H - cI at two cuts c that bracket it: equal counts
certify the dense count.  `BasedFamily.form_at` builds H as the paper
does, by `sharp` over the `cayley_gf` factors; with `quadratic.index` it is
the reference, and the fallback when the bracket does not certify a count
or N = 1.

On a path of diagonal unitaries (a Reeb path, or a real-diagonal one) F_t
is the direct sum of n one-line chains, and `torus.TorusPath.maslov_index`
counts each in closed form: `torus.line_count` is `_shifted_counts` at
n = 1.  `BasedFamily` is its reference, and the `maslov` job falls back to
it wherever a pivot would be carried or the two cuts disagree.

Closed form (the step function).  On the universal cover of U(n) a path class
is fixed by its endpoint together with the lift of arg det, and for a
piecewise path that lift is exactly L = sum_i tr(A_i) d_i.  Reeb-shifting by
T maps it to L - nT and the endpoint eigenphases theta_j to theta_j - T, so
away from the spectrum

    mu(r_{-T} . path) = 2 (n + W(T)),
    W(T) = (L - nT - sum_j phi_j(T)) / 2 pi,  phi_j(T) = (theta_j - T) mod 2 pi
                                              taken in (0, 2 pi],

with W an integer because e^{iL} = det U_1.  `torus.evaluate_step` (also
read as `maslov.evaluate_step`) uses this for every gap, on the path
record's `phases` and `lift`, so `selectors` and `norms` run none of this
module.  `maslov_index` on the generating-function family stays the
reference, and the verify suite `maslov_props` (check `step-shape`)
compares the two on seeded random paths at runtime.
"""

import functools

import numpy as np

from .paths import reeb_shift, _restrict_pieces, _speed
from .quadratic import NULL_TOL, cayley_gf, cayley_hermitian, index, sharp
# evaluate_step, the closed form below, stays readable from maslov
from .torus import ELIM_PIVOT, MAX_TRAVEL, NULL_BRACKET, evaluate_step, segment_parts

# MAX_TRAVEL, ELIM_PIVOT and NULL_BRACKET, and the derivations of their
# values, are in `torus`, which prices a path without numpy.


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
        self._U = np.array([path.value(s) for s in self.breakpoints])
        self._inv_at_start = self._U[:-1].conj().swapaxes(-1, -2)

    def _check_subdivision(self):
        s = self.breakpoints
        if not (s[0] == 0.0 and s[-1] == 1.0 and np.all(np.diff(s) > 0)):
            raise ValueError("breakpoints must be strictly increasing from 0 to 1")
        for a, b in zip(s[:-1], s[1:]):
            # an upper bound on the phase travel of U_t U_a^{-1} on [a, b]
            pieces = _restrict_pieces(self.path, a, b)
            travel = sum(_speed(lam) * (hi - lo) for _, lam, lo, hi in pieces)
            if travel > MAX_TRAVEL * (1 + 1e-9):
                raise ValueError(
                    f"interval [{a}, {b}] exceeds the pi/2 phase-travel bound"
                )

    def transitions(self, t):
        """The clamped factors V_1(t)..V_N(t), stacked (N, n, n), each in the
        Cayley domain."""
        s, U = self.breakpoints, self._U
        j = int(np.searchsorted(s, t, side="right")) - 1  # s_j <= t < s_{j+1}
        ends = np.where((np.arange(self.N) < j)[:, None, None], U[1:], U[:-1])
        if 0 <= j < self.N and t > s[j]:
            ends[j] = self.path.value(t)
        return ends @ self._inv_at_start

    def form_at(self, t):
        """F_t = (..((C_1 # C_2) # C_3) ..) # C_N, C_m = `cayley_gf(V_m(t))`.

        The paper's construction, and the dense reference for `index_at`,
        which falls back to it when its bracket cannot certify a count.
        """
        factors = [cayley_gf(V, self.lens) for V in self.transitions(t)]
        return functools.reduce(sharp, factors)

    def index_at(self, t):
        """ind(F_t), the count `index(self.form_at(t))` makes, in O(N n^3).

        With H the Hermitian matrix of `form_at`, the dense rule counts the
        eigenvalues lam <= c = NULL_TOL * max |lam(H)|, i.e. the nonpositive
        inertia of H - cI.  `_bracket_counts` takes it at two cuts that
        bracket c; equal counts are the dense count, and otherwise the dense
        form decides.  N = 1, where H is C_1 itself and has no q slot for the
        bracket's max |lam(H)| >= 2 bound, is counted dense.
        """
        if self.N > 1:
            lo, hi = self._bracket_counts(t)
            if lo == hi:
                return 2 * lo
        return index(self.form_at(t))

    def _bracket_counts(self, t):
        """Nonpositive inertia of H - cI at c = NULL_TOL * 2 / NULL_BRACKET
        and c = NULL_TOL * s_hi * NULL_BRACKET (N >= 2).

        max |lam(H)| >= 2: every C_m sits in a principal block
        [[0, +-2i I], [-+2i I, C_m]] with a q slot, whose eigenvalues
        (c +- sqrt(c^2 + 16)) / 2 for c in spec(C_m) reach modulus 2 (Cauchy
        interlacing).  max |lam(H)| <= s_hi, the largest Gershgorin row sum:
        a base row holds at most four couplings of modulus 2 and no
        diagonal, a C_m row its own row sum plus two couplings.  The count
        is monotone in the cut, so equal counts certify that no eigenvalue
        of H lies between the cuts, the dense cut included.
        """
        C = cayley_hermitian(self.transitions(t))
        s_hi = max(8.0, 4.0 + float(np.abs(C).sum(axis=-1).max()))
        cuts = NULL_TOL * np.array([2.0 / NULL_BRACKET, s_hi * NULL_BRACKET])
        lo, hi = _shifted_counts(C, cuts)
        return int(lo), int(hi)

    @property
    def total_dim(self):
        return (2 * self.N - 1) * 2 * self.lens.n


def _shifted_counts(C, cuts):
    """Nonpositive inertia of H - cI for each c in cuts, H the `form_at`
    matrix of the Cayley blocks C (stacked (N, n, n), N >= 2).

    `sharp` lays each level out as [q, z1, z2, fibers of F, fibers of G], so
    H has the 2N - 1 blocks [q_N, q_{N-1}, C_N, q_{N-2}, C_{N-1}, ..., q_2,
    C_3, C_1, C_2] of size n: q_m is the base of level m (its z1 the base of
    level m - 1, its z2 the C_m slot), and C_1 is the first factor's base.

    Level m of the chain (m = 2..N) couples its fiber, which is the front
    (the base of level m - 1, with everything before it eliminated into its
    block), the C_m slot and the directions carried from earlier levels, to
    nothing but its new base q_m.  So the fiber is a Hermitian pivot P of
    size 2n + r; `eigh` rotates it to diagonal.  Directions with
    |lam| >= ELIM_PIVOT are eliminated: their signs add to the count and
    their Schur complement lands on q_m, whose block in H - cI is -cI.  The
    others are carried into the next front as extra variables coupled only
    to q_m, so no pivot near zero is ever divided by (at a lattice Reeb time
    a partial product is -I and the plain 2n pivot is exactly singular).
    After level N the front and the carried directions are counted by
    eigvalsh.  Every step is a congruence, so the count is the inertia of
    H - cI (Sylvester's law).  All cuts run as one stack; a cut that carries
    fewer directions than another pads its carry with decoupled +1 entries,
    which add nothing to the count.
    """
    N, n = C.shape[:2]
    K = len(cuts)
    I = np.eye(n)
    cI = cuts[:, None, None] * I  # (K, n, n)
    P0 = np.zeros((K, 2 * n, 2 * n), dtype=complex)
    P0[:, :n, n:] = 2j * I  # H[z1, z2] of level m, as `sharp` writes it
    P0[:, n:, :n] = -2j * I
    S = C[:, None] - cI  # (N, K, n, n): the diagonal blocks of H - cI
    front, W, mu = S[0], None, None
    count = np.zeros(K, dtype=int)
    for m in range(1, N):
        P = P0.copy()
        P[:, :n, :n] = front
        P[:, n:, n:] = S[m]
        if W is not None:
            P = _with_carry(P, W, mu)
        lam, V = np.linalg.eigh(P)
        # The fiber couples to q_m by -2i I from the front and 2i I from the
        # C_m slot, in the eigenbasis by G = 2i D^H with D = V_C - V_front;
        # the Schur complement G^H lam^-1 G is 4 D lam^-1 D^H.
        D = V[:, n : 2 * n] - V[:, :n]
        small = np.abs(lam) < ELIM_PIVOT
        count += (lam <= -ELIM_PIVOT).sum(axis=1)
        W = None
        if small.any():
            r = int(small.sum(axis=1).max())
            W = np.zeros((K, r, n), dtype=complex)
            mu = np.ones((K, r))
            for k in range(K):
                j = np.flatnonzero(small[k])
                W[k, : len(j)] = 2j * D[k][:, j].conj().T
                mu[k, : len(j)] = lam[k, j]
            lam = np.where(small, np.inf, lam)  # carried, not eliminated
        front = (D * (-4.0 / lam)[:, None, :]) @ D.conj().swapaxes(1, 2) - cI
    if W is not None:
        front = _with_carry(front, W, mu)
    return count + np.count_nonzero(np.linalg.eigvalsh(front) <= 0, axis=1)


def _with_carry(X, W, mu):
    """The stacked [[X, W^H], [W, diag mu]]: carried directions with pivots
    mu, coupled by W (K, r, n) to the first n coordinates of X, the front."""
    K, a = X.shape[:2]
    r, n = W.shape[1:]
    M = np.zeros((K, a + r, a + r), dtype=complex)
    M[:, :a, :a] = X
    M[:, a:, :n] = W
    M[:, :n, a:] = W.conj().swapaxes(1, 2)
    M[:, a:, a:] = mu[:, :, None] * np.eye(r)
    return M


def subdivide(path):
    """Breakpoints with phase travel <= pi/2 per interval.

    Segment boundaries are always included; each segment is split uniformly
    into ceil(||A|| d / (pi/2)) parts.
    """
    pts = [0.0]
    for i, (travel, _) in enumerate(path.spans):
        a, b = path.starts[i], path.starts[i + 1]
        parts = segment_parts(travel)
        for j in range(1, parts + 1):
            pts.append(a + (b - a) * j / parts)
    pts[-1] = 1.0
    return np.array(pts)


def maslov_index(path, breakpoints=None):
    """mu(path) = ind(F_0) - ind(F_1) over a based family.

    Both indices come from `BasedFamily.index_at`: block elimination along
    the # chain with a carried front, counted at two cuts that bracket the
    dense null cut, and the dense `form_at` form where the cuts disagree or
    N = 1.
    """
    fam = BasedFamily(path, breakpoints)
    n2 = 2 * path.lens.n
    i0 = fam.index_at(0.0)
    if i0 != n2 * fam.N:
        raise AssertionError(
            f"based-family self-check failed: ind(F_0) = {i0} != {n2 * fam.N}"
        )
    return i0 - fam.index_at(1.0)


def maslov_shifted(path, T):
    """mu of the Reeb-shifted class r_{-T} . path."""
    return maslov_index(reeb_shift(path, T))
