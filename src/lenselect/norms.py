"""Conjugation-invariant norms and geodesic bounds.

nu(path) = max(ceil(c_+ / T_w), -floor(c_- / T_w)) * T_w with c_- = c_{-2n+1}
and c_+ = c_0; nu' bumps nonidentity classes to at least T_w; nu* minimizes nu
over Reeb-period deck shifts of the lift.  All lattice arithmetic is exact:
shifting by N*T_w moves every selector by exactly -N*T_w, so the whole nu*
search happens on integers.

Word-norm machinery is exposed through two certified bounds only: greedy
embedded decompositions (upper bounds) and the selector chain (lower bounds).
Every `norms` report is lattice arithmetic on (c_+, c_-) from one evaluation
of the step function, in the numpy-free `torus.norm_report` and
`geodesic.lattice_norm_report`; `nu`, `nu_star`, `selector_lower_bounds`
and `is_identity_class` read their fields off `norm_report`.  This module
is the numpy route: it feeds the numpy-free rules of `torus` (the step
function, the greedy's cuts and certificates) the endpoint eigenphases and
`paths._joint_eigendata`'s slopes.  A `norms` job builds no path on a Reeb
path, where c_+ = c_- = T (`geodesic.reeb_norm_report`), nor on a
real-diagonal path, which `torus.TorusPath` answers from its diagonals;
`norm_report` on the built path stays the reference of both.
"""

from .paths import _envelope_slopes, _joint_eigendata, _restrict_pieces, is_embedded
from .maslov import evaluate_step
# numpy-free, in `geodesic`; geodesic_report stays readable from norms
from .geodesic import geodesic_report
from . import torus


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


def _spectra(path):
    """Each segment's eigenvalues, the spectra the `torus` rules read."""
    return [lam for lam, _ in path._eig]


def _next_cut(path, pieces, slopes, commuting, t):
    """`torus.next_cut` on the path's `_restrict_pieces` with these slopes
    (each piece's joint eigenline slopes on a commuting path, else its
    envelope slope), certified by one is_embedded call."""
    return torus.next_cut(path._starts, _spectra(path), pieces, slopes, path.lens.k, t,
                          lambda a, b: is_embedded(path, a, b).embedded, commuting)


def greedy_embedded_decomposition(path):
    """Upper bound for the discriminant length via maximal embedded prefixes.

    Each cut comes in closed form from `torus.next_cut` and carries one
    is_embedded certificate: on a commuting path it is the exact end of the
    maximal embedded prefix (`torus.exact_prefix`), and on a non-commuting
    path the later of rule (a) (exact within one segment) and rule (b) (the
    envelope bound on sign-definite stretches).  Constant stretches form
    their own (identity-factor) segments.  The loop (`torus.decompose`)
    ends only when [t, 1] is itself a segment, so a closed piece whose phase
    travel reaches 2 pi / k is never counted as one: a Reeb flow for time T
    gets floor(kT / 2 pi) + 1 segments, lattice T included.  The first cut
    that cannot be certified (no embedded prefix past t, or a certificate
    that does not come back embedded) ends the decomposition: an
    uncertified decomposition is a certified prefix [0, t] plus the one
    uncertified rest [t, 1], with a note saying where.  The count also
    bounds the oscillation length when every segment is sign-definite.
    """
    pieces = _restrict_pieces(path, 0.0, 1.0)
    data = _joint_eigendata(pieces, path.lens)
    commuting = data is not None
    slopes = (data[0] if commuting else _envelope_slopes(pieces)[:, None]).tolist()
    spectra = _spectra(path)
    return torus.decompose(
        lambda t: _next_cut(path, pieces, slopes, commuting, t),
        lambda a, b: torus.sign_definite(path._starts, spectra, a, b))


def selector_lower_bounds(path):
    """The selector chain's lower bounds {"dis", "osc"} for the
    discriminant and oscillation lengths (geodesic.lattice_norm_report)."""
    rep = norm_report(path)
    return {"dis": rep.dis_lower, "osc": rep.osc_lower}


# --- reports ---


def norm_report(path, decompose=False):
    """The `norms` report: lattice arithmetic on (c_+, c_-) from one
    evaluation of the step function (`torus.norm_report`).  With
    `decompose`, the greedy's count bounds the discriminant length when
    every cut is certified, and also the oscillation length when every
    segment is sign-definite."""
    ev = evaluate_step(path)
    return torus.norm_report(ev, path.is_identity_endpoint,
                             greedy_embedded_decomposition(path) if decompose else None)
