"""Spectral selectors c_j and the time function built from c_0.

c_j(path) = min{T : mu(r_{-T} . path) <= -j}.  One window of the Maslov step
function determines every selector through the exact periodicity
mu(r_{-(T + 2 pi)} . path) = mu(r_{-T} . path) - 2n, and the returned value is
bit-identical to the eigenphase representative it selects (spectrality is a
theorem, so snapping to the spectrum is the correct rounding).

The step function comes from `torus.evaluate_step`, which reads only the
path's endpoint eigenphases and the lift of arg det (`phases` and `lift`):
a path class in the universal cover of U(n) is fixed by its endpoint plus
that lift, so each gap value has the exact closed form mu = 2(n + W) given
in the `maslov` docstring.  No generating function is built here, and
neither `maslov` nor `quadratic` runs; the generating-function index
`maslov.maslov_shifted` is the reference it is checked against (verify suite
`maslov_props`, check `step-shape`, and tests/test_maslov.py).
"""

from collections import namedtuple

from .torus import evaluate_step


def selector(path, j, window_base=0.0):
    return evaluate_step(path, window_base).selector(j)


def c_plus(path):
    return selector(path, 0)


def c_minus(path):
    return selector(path, -2 * path.lens.n + 1)


class SelectorReport(namedtuple("SelectorReport",
                                "lens j_lo j_hi values c_plus c_minus step")):
    """values: j -> c_j for j_lo <= j <= j_hi, each a spectrum member plus an
    exact 2 pi multiple; step: the MaslovEvaluation they came from."""

    __slots__ = ()


def selector_range(path, j_lo, j_hi, window_base=0.0):
    if j_lo > j_hi:
        raise ValueError(f"need j_lo <= j_hi, got {j_lo} > {j_hi}")
    ev = evaluate_step(path, window_base)
    n2 = 2 * path.lens.n
    values = {j: ev.selector(j) for j in range(j_lo, j_hi + 1)}
    return SelectorReport(
        lens=path.lens,
        j_lo=j_lo,
        j_hi=j_hi,
        values=values,
        c_plus=ev.selector(0),
        c_minus=ev.selector(-n2 + 1),
        step=ev,
    )


def time_function(path, basis, J=None):
    """Weighted average of c_0(path . psi_j) over a basis sequence.

    tau(path) = (sum_j w_j)^{-1} sum_j w_j c_0(path . psi_j)
    with weights w_j = 1 / (2^j max(1, |c_0(psi_j)|)), truncated at J terms.
    A dense basis makes this a strictly monotone time function; any finite
    truncation still satisfies the exact shift tau(r_T . path) = T + tau(path)
    termwise (c_0 moves by T in every term).
    """
    from .paths import product_path

    if not basis:
        raise ValueError("basis must be non-empty")
    J = len(basis) if J is None else J
    if not (1 <= J <= len(basis)):
        raise ValueError(f"J must be in [1, {len(basis)}], got {J}")
    total = 0.0
    weight = 0.0
    for j, psi in enumerate(basis[:J], start=1):
        w = 1.0 / (2.0**j * max(1.0, abs(c_plus(psi))))
        total += w * c_plus(product_path(path, psi))
        weight += w
    return total / weight
