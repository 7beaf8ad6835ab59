"""Conjugation-invariant norms and geodesic bounds.

nu(path) = max(ceil(c_+ / T_w), -floor(c_- / T_w)) * T_w with c_- = c_{-2n+1}
and c_+ = c_0; nu' bumps nonidentity classes to at least T_w; nu* minimizes nu
over Reeb-period deck shifts of the lift.  All lattice arithmetic is exact:
shifting by N*T_w moves every selector by exactly -N*T_w, so the whole nu*
search happens on integers.

Word-norm machinery is exposed through two certified bounds only: greedy
embedded decompositions (upper bounds) and the selector chain (lower bounds).
Every `norms` report is lattice arithmetic on (c_+, c_-) from one evaluation
of the step function, in the numpy-free `geodesic.lattice_norm_report`;
`nu`, `nu_star`, `selector_lower_bounds` and `is_identity_class` read their
fields off `norm_report`.  On a Reeb path c_+ = c_- = T, so a `norms` job
there calls `geodesic.reeb_norm_report` and builds no path; `norm_report` on
`reeb_path` stays its reference.
"""

from collections import namedtuple

import numpy as np

from .paths import (
    _envelope_slopes,
    _joint_eigendata,
    _restrict_pieces,
    _stationary,
    is_embedded,
)
from .maslov import evaluate_step
# numpy-free, in `geodesic`; geodesic_report stays readable from norms
from .geodesic import IDENTITY_CLASS_TOL, geodesic_report, lattice_norm_report
from .lens import TWO_PI


def _selector_pair(path):
    """(c_+, c_-) = (c_0, c_{-2n+1}) from one evaluation of the step function."""
    ev = evaluate_step(path)
    return ev.selector(0), ev.selector(-2 * path.lens.n + 1)


def is_identity_class(path):
    """Non-degeneracy criterion: c_- = c_+ = 0 and endpoint U_1 = I, the
    one class where nu' is 0."""
    return norm_report(path).nu_prime.multiple == 0


def nu(path, variant="plain"):
    """Spectral pseudonorm (variant="plain") or the norm nu' (variant="prime")."""
    if variant not in ("plain", "prime"):
        raise ValueError(f"variant must be 'plain' or 'prime', got {variant!r}")
    rep = norm_report(path)
    return rep.nu if variant == "plain" else rep.nu_prime


def nu_star(path):
    """min over N of nu(reeb_shift(path, N*T_w)), with the minimizing shift,
    as lattice values (geodesic.lattice_norm_report); the value is asserted
    <= 2 pi + T_w."""
    rep = norm_report(path)
    return rep.nu_star, rep.nu_star_shift


# --- embedded decompositions ---


class DecompositionReport(namedtuple("DecompositionReport",
                                     "count breakpoints certified sign_definite notes")):
    """A greedy decomposition: count pieces cut at the listed breakpoints;
    certified: every segment carries an embeddedness certificate;
    sign_definite: every segment is usable for the oscillation bound; notes
    list the cuts that could not be certified."""

    __slots__ = ()


def _constant_run_end(path, t):
    """End of the maximal run of stationary pieces from t (== t if none)."""
    end = t
    for _, lam, a, b in _restrict_pieces(path, t, 1.0):
        if not _stationary(lam, b - a):
            break
        end = b
    return end


def _segment_sign_definite(path, a, b):
    """The generators on [a, b] are all positive or all negative
    semidefinite, up to 1e-12.  A sliver [a, b], whose one piece is at most
    1e-15 long, is constant and counts as both: the extra 0 covers it and
    changes neither test otherwise."""
    lam = np.concatenate([np.zeros(1)] + [
        lam for _, lam, lo, hi in _restrict_pieces(path, a, b) if hi - lo > 1e-15
    ])
    return bool(lam.min() >= -1e-12 or lam.max() <= 1e-12)


def _exact_prefix(pieces, slopes, k, t):
    """End q of the maximal embedded prefix [t, q] of a commuting path.

    pieces are the path's `_restrict_pieces` and slopes[i, j]
    the slope of the eigenline phase f_j on piece i.  With one column of
    envelope slopes (paths._envelope_slopes) the same walk gives the
    prefix that rule (b) of is_embedded certifies.  Every deck weight is a
    unit mod k, so the deck targets of f_j(q) - f_j(s) are exactly the
    multiples of 2 pi / k, and [t, q] is embedded while every f_j is
    strictly monotone and travels less than 2 pi / k - 1e-12 (the threshold
    of is_embedded).  The prefix thus ends at the first node where some
    slope vanishes or changes sign (the cut is the node itself), or 1e-12
    before the first threshold crossing, whichever comes first.  Returns
    1.0 when [t, 1] is embedded and t when no prefix is.  O(pieces * n).
    """
    limit = TWO_PI / k - 1e-12
    scale = np.maximum(np.abs(slopes).max(axis=0), 1.0)
    travel = np.zeros(slopes.shape[1])
    sign = None
    for (_, _, a, b), sl in zip(pieces, slopes):
        if b <= t:
            continue
        a = max(a, t)
        speed = np.abs(sl)
        if np.any(speed <= 1e-12 * scale) or (
            sign is not None and np.any(np.sign(sl) != sign)
        ):
            return a
        sign = np.sign(sl)
        reach = travel + speed * (b - a)
        if reach.max() >= limit:
            return a + float(np.min((limit - travel) / speed)) - 1e-12
        travel = reach
    return 1.0


def _next_cut(path, pieces, slopes, commuting, t):
    """End of the certified piece that starts at t, or None when none can
    be certified: no embedded prefix past t (e.g. a stationary eigenline,
    which every U_t U_s^{-1} from t on fixes) or a failed certificate.

    A constant stretch is its own piece.  On a commuting path, slopes are
    the joint eigenline slopes and the cut is the exact prefix end.  On a
    non-commuting path, slopes hold each piece's envelope slope as one
    eigenline (paths._envelope_slopes; 0 on a mixed-sign piece, which stops
    the prefix), and the cut is the later of two closed forms: rule (a), the
    exact prefix inside the one piece that holds t, capped at its end, and
    rule (b), the envelope prefix across pieces.  Either way one is_embedded
    call certifies [t, q].
    """
    run = _constant_run_end(path, t)
    if run > t + 1e-12:
        return run  # an identity factor; embedded by convention
    k = path.lens.k
    q = _exact_prefix(pieces, slopes, k, t)
    if not commuting:
        piece = _restrict_pieces(path, t, 1.0)[0]
        inside = _exact_prefix([piece], piece[1][None, :], k, t)
        q = max(q, min(inside, piece[3]))
    if q <= t + 1e-9 and q < 1.0:
        return None
    return q if is_embedded(path, t, q).embedded else None


def greedy_embedded_decomposition(path):
    """Upper bound for the discriminant length via maximal embedded prefixes.

    Each cut comes in closed form from _next_cut and carries one
    is_embedded certificate: on a commuting path it is the exact end of the
    maximal embedded prefix (_exact_prefix), and on a non-commuting path the
    later of rule (a) (exact within one segment) and rule (b) (the envelope
    bound on sign-definite stretches).  Constant stretches form their own
    (identity-factor) segments.  The loop ends only when [t, 1] is itself a
    segment, so a closed piece whose phase travel reaches 2 pi / k is never
    counted as one: a Reeb flow for time T gets floor(kT / 2 pi) + 1
    segments, lattice T included.  The first cut that cannot be certified
    (no embedded prefix past t, or a certificate that does not come back
    embedded) ends the decomposition: an uncertified decomposition is a
    certified prefix [0, t] plus the one uncertified rest [t, 1], with a
    note saying where.  The count also bounds the oscillation length when
    every segment is sign-definite.
    """
    pieces = _restrict_pieces(path, 0.0, 1.0)
    data = _joint_eigendata(pieces, path.lens)
    commuting = data is not None
    slopes = data[0] if commuting else _envelope_slopes(pieces)[:, None]
    cuts = [0.0]
    notes = []
    while cuts[-1] < 1.0:
        t = cuts[-1]
        q = _next_cut(path, pieces, slopes, commuting, t)
        if q is None:
            notes.append(f"cannot certify an embedded prefix at t = {t}")
            q = 1.0
        cuts.append(q)
    return DecompositionReport(
        count=len(cuts) - 1,
        breakpoints=cuts,
        certified=not notes,
        sign_definite=all(
            _segment_sign_definite(path, a, b) for a, b in zip(cuts, cuts[1:])
        ),
        notes=notes,
    )


def selector_lower_bounds(path):
    """The selector chain's lower bounds {"dis", "osc"} for the
    discriminant and oscillation lengths (geodesic.lattice_norm_report)."""
    rep = norm_report(path)
    return {"dis": rep.dis_lower, "osc": rep.osc_lower}


# --- reports ---


def norm_report(path, decompose=False):
    """The `norms` report: lattice arithmetic on (c_+, c_-) from one
    evaluation of the step function (geodesic.lattice_norm_report).  The
    endpoint is tested for I only when both selectors are within
    IDENTITY_CLASS_TOL of 0.  With `decompose`, the greedy's count bounds
    the discriminant length when every cut is certified, and also the
    oscillation length when every segment is sign-definite."""
    cp, cm = _selector_pair(path)
    identity = (abs(cp) <= IDENTITY_CLASS_TOL and abs(cm) <= IDENTITY_CLASS_TOL
                and path.is_identity_endpoint())
    dis_upper = osc_upper = None
    if decompose:
        dec = greedy_embedded_decomposition(path)
        if dec.certified:
            dis_upper = dec.count
            if dec.sign_definite:
                osc_upper = dec.count
    return lattice_norm_report(path.lens, cp, cm, identity, dis_upper, osc_upper)
