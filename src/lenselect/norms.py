"""Conjugation-invariant norms and geodesic bounds.

nu(path) = max(ceil(c_+ / T_w), -floor(c_- / T_w)) * T_w with c_- = c_{-2n+1}
and c_+ = c_0; nu' bumps nonidentity classes to at least T_w; nu* minimizes nu
over Reeb-period deck shifts of the lift.  All lattice arithmetic is exact:
shifting by N*T_w moves every selector by exactly -N*T_w, so the whole nu*
search happens on integers.

Word-norm machinery is exposed through two certified bounds only: greedy
embedded decompositions (upper bounds) and the selector chain (lower bounds).
Every `norms` report is lattice arithmetic on (c_+, c_-) from one evaluation
of the step function (`torus.evaluate_step`, `geodesic.lattice_norm_report`);
`nu`, `nu_star`, `selector_lower_bounds` and `is_identity_class` read their
fields off `norm_report`.  A path is read only through the record that
`paths.UnitaryPath` and `torus.TorusPath` share, so this module loads no
numpy: the TorusPath of a real-diagonal path answers from its diagonals.
A `norms` job on a Reeb path builds no path, as c_+ = c_- = T there
(`geodesic.reeb_norm_report`); `norm_report` on the built path stays the
reference of both.
"""

# geodesic_report stays readable from norms
from .geodesic import IDENTITY_CLASS_TOL, geodesic_report, lattice_norm_report
from .torus import evaluate_step


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


def greedy_embedded_decomposition(path):
    """Upper bound for the discriminant length via maximal embedded
    prefixes: `path.decomposition()`, which walks `torus.decompose` over the
    closed-form cuts of `torus.next_cut` (the exact prefix on a commuting
    path, rules (a) and (b) on any other), each with one embeddedness
    certificate.  A closed piece whose phase travel reaches 2 pi / k is
    never one piece, so a Reeb flow for time T gets floor(kT / 2 pi) + 1,
    lattice T included.  The first cut that cannot be certified ends the
    decomposition, with a note saying where.  The count also bounds the
    oscillation length when every piece is sign-definite."""
    return path.decomposition()


def selector_lower_bounds(path):
    """The selector chain's lower bounds {"dis", "osc"} for the
    discriminant and oscillation lengths (geodesic.lattice_norm_report)."""
    rep = norm_report(path)
    return {"dis": rep.dis_lower, "osc": rep.osc_lower}


# --- reports ---


def norm_report(path, decompose=False):
    """The `norms` report of a path record (`paths.UnitaryPath` or
    `torus.TorusPath`): lattice arithmetic on (c_+, c_-) = (c_0, c_{-2n+1})
    of one step function (geodesic.lattice_norm_report).  With `decompose`,
    the greedy's count bounds the discriminant length when every cut is
    certified, and also the oscillation length when every piece is
    sign-definite."""
    ev = evaluate_step(path)
    lens = path.lens
    cp, cm = ev.selector(0), ev.selector(-2 * lens.n + 1)
    identity = (abs(cp) <= IDENTITY_CLASS_TOL and abs(cm) <= IDENTITY_CLASS_TOL
                and path.is_identity_endpoint())
    dis_upper = osc_upper = None
    if decompose:
        dec = greedy_embedded_decomposition(path)
        if dec.certified:
            dis_upper = dec.count
            if dec.sign_definite:
                osc_upper = dec.count
    return lattice_norm_report(lens, cp, cm, identity, dis_upper, osc_upper)
