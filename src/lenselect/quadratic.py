"""Invariant quadratic forms as conical generating functions.

A form lives on R^{2M} with the M complex coordinates realified in interleaved
(x_j, y_j) pairs.  The cyclic group Z_{k'} acts by rotating coordinate j by
action_phases[j]; every constructor below produces exactly invariant forms, and
validation checks invariance rather than projecting onto it (silent
symmetrization would mask assembly bugs).

Forms built from unitaries (`cayley_gf`, `zero_form`, `sharp`) are
complex-linear and held as the Hermitian M x M matrix A they realify: the
real form is `realify(A)`, with the spectrum of A, every eigenvalue twice.
Only a form given as a real symmetric matrix is held as one.

The cohomological index of the sublevel set cut out by an invariant form
equals nullity + (number of negative eigenvalues); `index` computes that count
with a fixed relative null cut for the exactly-zero blocks that appear in based
families, and on a Hermitian A counts each eigenvalue of A twice.
"""

from collections import namedtuple

import numpy as np

from .tolerances import NULL_TOL

# Cayley transform needs -1 away from spec(U); subdivision keeps eigenphases
# within pi/2 of 0 so this guard only trips on contract violations.
CAYLEY_GUARD = 1e-6


class CayleyDomainError(ValueError):
    pass


def realify(A):
    """Real 2m x 2m matrix of the Hermitian form v -> v* A v, coords (x,y) interleaved."""
    m = A.shape[0]
    S = np.zeros((2 * m, 2 * m))
    S[0::2, 0::2] = A.real
    S[1::2, 1::2] = A.real
    S[0::2, 1::2] = -A.imag
    S[1::2, 0::2] = A.imag
    return S


def rotation_matrix(phases):
    """Block rotation of R^{2M} by the given angle per complex coordinate."""
    blocks = [
        np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in phases
    ]
    M = len(blocks)
    R = np.zeros((2 * M, 2 * M))
    for j, B in enumerate(blocks):
        R[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = B
    return R


class InvariantQuadraticForm(namedtuple("InvariantQuadraticForm",
                                        "matrix base_dim action_phases k_prime")):
    """matrix: real symmetric S, 2M x 2M, with W(v) = 1/2 v^T S v; or complex
    Hermitian A, M x M, standing for S = realify(A).  `sharp` takes Hermitian
    forms, `direct_sum` two forms of the same kind.  base_dim: 2n, the first
    n complex coordinates.  action_phases: M angles, multiples of
    2*pi/k_prime."""

    __slots__ = ()

    @property
    def total_dim(self):
        """Real dimension 2M of the space the form lives on."""
        return self.matrix.shape[0] * (2 if np.iscomplexobj(self.matrix) else 1)

    @property
    def fiber_dim(self):
        return self.total_dim - self.base_dim

    def validate(self):
        S = realify(self.matrix) if np.iscomplexobj(self.matrix) else self.matrix
        scale = max(np.linalg.norm(S), 1.0)
        if not np.all(np.isfinite(S)):
            raise ValueError("form matrix has non-finite entries")
        if np.linalg.norm(S - S.T) > 1e-12 * scale:
            raise ValueError("form matrix is not symmetric")
        R = rotation_matrix(self.action_phases)
        if np.linalg.norm(R.T @ S @ R - S) > 1e-10 * scale:
            raise ValueError("form is not invariant under the cyclic action")
        if self.base_dim + self.fiber_dim != self.total_dim:
            raise ValueError("base/fiber bookkeeping broken")
        return self

    def negate(self):
        return InvariantQuadraticForm(
            -self.matrix, self.base_dim, self.action_phases, self.k_prime
        )


def base_phases(lens):
    """Z_{k'} phases carried by the base coordinates: 2*pi*w_j/k'."""
    return 2.0 * np.pi * (np.array(lens.weights) % lens.k_prime) / lens.k_prime


def zero_form(lens):
    n = lens.n
    return InvariantQuadraticForm(
        np.zeros((n, n), dtype=complex), 2 * n, base_phases(lens), lens.k_prime
    )


def index(Q):
    """nullity + negative count = cohomological index of the sublevel set.

    A complex Hermitian matrix counts twice: each of its eigenvalues is a
    double eigenvalue of its realification, so the dense eigvalsh runs at
    half the real dimension.
    """
    lam = np.linalg.eigvalsh(Q.matrix)
    scale = np.abs(lam).max() if lam.size else 0.0
    if scale < 1e-14:
        scale = 1.0  # zero form: every eigenvalue is null
    count = int(np.sum(lam <= NULL_TOL * scale))
    return 2 * count if np.iscomplexobj(Q.matrix) else count


def direct_sum(Q1, Q2):
    """Block direct sum of two real or two Hermitian forms."""
    if Q1.k_prime != Q2.k_prime:
        raise ValueError(f"k' mismatch: {Q1.k_prime} vs {Q2.k_prime}")
    if np.iscomplexobj(Q1.matrix) != np.iscomplexobj(Q2.matrix):
        raise ValueError("direct sum of a real and a Hermitian form")
    d1, d2 = len(Q1.matrix), len(Q2.matrix)
    S = np.zeros((d1 + d2, d1 + d2), dtype=Q1.matrix.dtype)
    S[:d1, :d1] = Q1.matrix
    S[d1:, d1:] = Q2.matrix
    return InvariantQuadraticForm(
        S,
        Q1.base_dim,
        np.concatenate([Q1.action_phases, Q2.action_phases]),
        Q1.k_prime,
    )


def sharp(F, G):
    """Generating function of the composite map.

    (F # G)(q; z1, z2, nu1, nu2) = F(z1, nu1) + G(z2, nu2)
                                   - 2<z2 - q, i(z1 - q)>
    with q the new base and everything else fiber, laid out in that order.
    Total dimension grows by 2n + 2n: the old bases become fibers alongside
    the old fibers.  F and G are Hermitian forms, and so is the result.
    """
    if not (np.iscomplexobj(F.matrix) and np.iscomplexobj(G.matrix)):
        raise ValueError("sharp composes Hermitian forms")
    if F.base_dim != G.base_dim:
        raise ValueError(f"base dimension mismatch: {F.base_dim} vs {G.base_dim}")
    if F.k_prime != G.k_prime:
        raise ValueError(f"k' mismatch: {F.k_prime} vs {G.k_prime}")
    n = F.base_dim // 2
    if not np.allclose(F.action_phases[:n], G.action_phases[:n], atol=1e-12):
        raise ValueError("base action phases differ")
    mF, mG = len(F.matrix), len(G.matrix)
    D = n + mF + mG
    H = np.zeros((D, D), dtype=complex)
    q, z1, z2 = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    for M, z, nu in ((F.matrix, z1, slice(3 * n, 2 * n + mF)),
                     (G.matrix, z2, slice(2 * n + mF, D))):
        H[z, z] = M[:n, :n]
        H[z, nu] = M[:n, n:]
        H[nu, z] = M[n:, :n]
        H[nu, nu] = M[n:, n:]

    # <a, b> = Re(a* b), so -2<z2 - q, i(z1 - q)> is the real part of
    # -2i z2* z1 + 2i z2* q + 2i q* z1 (the q* q term is imaginary); with
    # W = 1/2 u* H u, a term Re(c a* b) is c I at (a, b) and its conjugate
    # at (b, a).
    for a, b, c in ((z2, z1, -2j), (z2, q, 2j), (q, z1, 2j)):
        H[a, b] = c * np.eye(n)
        H[b, a] = np.conj(c) * np.eye(n)

    base_ph = F.action_phases[:n]
    phases = np.concatenate(
        [base_ph, base_ph, base_ph, F.action_phases[n:], G.action_phases[n:]]
    )
    return InvariantQuadraticForm(H, 2 * n, phases, F.k_prime)


def cayley_hermitian(U):
    """The Hermitian A = 2i(I - U)(I + U)^{-1} of the unitary U.

    U may be a stack (..., n, n) of unitaries: one stacked eigvals makes the
    guard test for all of them and one stacked inverse the transforms, each
    rounded as the single-matrix transform is.
    """
    lam = np.linalg.eigvals(U)
    if np.abs(lam + 1.0).min() < CAYLEY_GUARD:
        raise CayleyDomainError(
            "Cayley transform undefined: eigenvalue of U within "
            f"{CAYLEY_GUARD} of -1 (subdivide the path)"
        )
    I = np.eye(U.shape[-1])
    A = 2j * (I - U) @ np.linalg.inv(I + U)
    # Hermitian up to roundoff by construction
    return (A + np.swapaxes(A.conj(), -1, -2)) / 2.0


def cayley_gf(U, lens):
    """Fiberless generating function of the unitary U via the Cayley transform.

    W(q) = 1/2 q* A q with A = `cayley_hermitian(U)`, held as A.
    Contract: for q = (z + Uz)/2 the differential dW(q) is the covector
    i(z - Uz), i.e. the form generates the graph of U.
    """
    return InvariantQuadraticForm(
        cayley_hermitian(U), 2 * U.shape[0], base_phases(lens), lens.k_prime
    )
