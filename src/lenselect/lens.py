"""Lens space combinatorics: weights, deck action, Reeb period, period lattice.

A lens space L_k^{2n-1}(w) is the quotient of the unit sphere S^{2n-1} in C^n
by the cyclic action generated by g = diag(e^{2*pi*i*w_j/k}).  Everything
downstream (Maslov indices, selectors, norms) only needs the combinatorics
collected here: the deck phases, the Reeb period T_w, and exact arithmetic on
the lattice T_w * Z.
"""

import functools
import math
from collections import namedtuple

from .tolerances import PERIOD_SNAP_TOL

TWO_PI = 2.0 * math.pi

# Trial division for k' stops at this divisor (about 0.2 s of divisions): it
# decides every k up to 2**40, and a larger k only with a factor up to here.
MAX_TRIAL_DIVISOR = 2**20


class LensSpaceError(ValueError):
    """Invalid lens data; `field` names the offending input ("k", "weights"
    or "weights[j]")."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _reeb_numerator(k, weights):
    """Smallest a in {1..k} with 2*pi*a/k a feasible Reeb return time.

    e^{it} z = g^m z on the sphere forces t = 2*pi*(m*w_j mod k)/k with the
    same residue for every j, i.e. m*(w_j - w_1) = 0 mod k for all j: m runs
    over the multiples of k/g with g = gcd(k, w_2 - w_1, ..., w_n - w_1).
    w_1 is a unit mod k, so m*w_1 mod k then runs over the multiples of k/g
    too, and the least positive numerator is k/g (k itself, from m = 0, when
    g = 1).
    """
    return k // math.gcd(k, *(w - weights[0] for w in weights))


class LensSpace(namedtuple("LensSpace", "k weights n reeb_numerator")):
    """L_k(weights): k, the weights as a tuple, n = len(weights), and
    reeb_numerator, with T_w = 2*pi * reeb_numerator / k exactly.  No
    __slots__: the cached k_prime lives in the instance __dict__."""

    @functools.cached_property
    def k_prime(self):
        """k', the smallest prime factor of k: the order of the group Z_{k'}
        acting on the generating functions (only they read it).  Found on
        first read by trial division, which stops at MAX_TRIAL_DIVISOR."""
        d = 2
        while d * d <= self.k:
            if self.k % d == 0:
                return d
            if d == MAX_TRIAL_DIVISOR:
                raise LensSpaceError("k", f"k = {self.k} has no prime factor up to {d}, "
                                          f"where trial division for k' stops")
            d += 1
        return self.k

    @property
    def reeb_period(self):
        """T_w: the least t > 0 with e^{it} z = g^m z for some deck power m."""
        return TWO_PI * self.reeb_numerator / self.k

    @property
    def equal_weights(self):
        return all((w - self.weights[0]) % self.k == 0 for w in self.weights)

    @property
    def degenerate(self):
        # n = 1 is the quotient circle; everything computes but the geometric
        # statements are vacuous, so reports flag it.
        return self.n == 1

    def deck(self, m=1):
        """Deck transformation g^m as a complex diagonal matrix.  Each weight
        enters reduced mod k, so weights equal mod k give equal phases.  The
        only matrix here: numpy loads on the first call, so a job that builds
        no path never loads it."""
        import numpy as np

        w = np.array([w % self.k for w in self.weights])
        return np.diag(np.exp(2j * math.pi * m * w / self.k))

    def weight_classes(self):
        """Indices grouped by w_j mod k (the blocks preserved by ad-g)."""
        groups = {}
        for j, w in enumerate(self.weights):
            groups.setdefault(w % self.k, []).append(j)
        return list(groups.values())

    # --- exact arithmetic on the lattice T_w * Z ---

    def period_multiple(self, x, mode):
        """Integer m with m*T_w = ceil/floor of x in the lattice, snapped."""
        return lattice_multiple(x, self.reeb_period, mode)[0]

    def period_value(self, m):
        return m * self.reeb_period

    def period_fraction(self, m):
        """m*T_w as an exact fraction of 2*pi: (num, den)."""
        num = m * self.reeb_numerator
        g = math.gcd(num, self.k)
        return num // g, self.k // g


def lattice_multiple(x, step, mode):
    """(m, snapped): m*step is x rounded up ("ceil") or down ("floor") to the
    lattice step*Z, where x within PERIOD_SNAP_TOL * max(1, |x|) of a
    multiple counts as that multiple (snapped True).  The one snap rule of
    the package: the period lattice T_w*Z and the geodesic lattice
    (2*pi/k)*Z both read it."""
    if mode not in ("ceil", "floor"):
        raise ValueError(f"mode must be 'ceil' or 'floor', got {mode!r}")
    q = x / step
    r = round(q)
    if abs(x - r * step) <= PERIOD_SNAP_TOL * max(1.0, abs(x)):
        return r, True
    return (math.ceil(q) if mode == "ceil" else math.floor(q)), False


def new_lens(k, weights):
    """L_k(weights), validated: weights a list of positive integers coprime to
    k, k an integer from 2 to 2**53 (bools are not integers here), so that
    2 pi / k and the deck phases are floats of k itself."""
    if not isinstance(weights, (list, tuple)):
        raise LensSpaceError("weights", "weights must be a list of integers")
    if not _is_int(k) or k < 2:
        raise LensSpaceError("k", f"k must be an integer >= 2, got {k!r}")
    if k > 2**53:
        raise LensSpaceError("k", "k must be at most 2**53, the integers a float holds exactly")
    weights = tuple(weights)
    if not weights:
        raise LensSpaceError("weights", "weights must be non-empty")
    for j, w in enumerate(weights):
        if not _is_int(w) or w < 1:
            raise LensSpaceError(f"weights[{j}]",
                                 f"weights[{j}] must be a positive integer, got {w!r}")
        if math.gcd(w, k) != 1:
            raise LensSpaceError(
                f"weights[{j}]",
                f"weights[{j}] = {w} is not coprime to k = {k} (gcd {math.gcd(w, k)})",
            )
    return LensSpace(
        k=k,
        weights=weights,
        n=len(weights),
        reeb_numerator=_reeb_numerator(k, weights),
    )
