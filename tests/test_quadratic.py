import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lenselect.lens import new_lens
from lenselect.paths import haar_unitary
from lenselect.quadratic import (
    CayleyDomainError,
    InvariantQuadraticForm,
    cayley_gf,
    direct_sum,
    index,
    realify,
    rotation_matrix,
    sharp,
    zero_form,
)

L2 = new_lens(2, [1, 1])
L3 = new_lens(3, [1, 1])


def vec(z):
    """Real coordinates of a complex vector, (x, y) interleaved."""
    v = np.empty(2 * len(z))
    v[0::2], v[1::2] = z.real, z.imag
    return v


def random_invariant(rng, k_prime, M):
    phases = 2 * np.pi * rng.integers(1, max(k_prime, 2), size=M) / k_prime
    R = rotation_matrix(phases)
    S = rng.normal(size=(2 * M, 2 * M))
    S = (S + S.T) / 2
    Sbar = np.zeros_like(S)
    P = np.eye(2 * M)
    for _ in range(k_prime):
        Sbar += P.T @ S @ P
        P = P @ R
    return InvariantQuadraticForm(Sbar / k_prime, 2 * M, phases, k_prime)


class TestRealify:
    def test_identity(self):
        assert np.allclose(realify(np.eye(3)), np.eye(6))

    def test_hermitian_gives_symmetric(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = (X + X.conj().T) / 2
        S = realify(A)
        assert np.allclose(S, S.T)
        # quadratic values agree: v^T S v = z* A z
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = np.empty(8)
        v[0::2], v[1::2] = z.real, z.imag
        assert v @ S @ v == pytest.approx((z.conj() @ A @ z).real, rel=1e-12)

    def test_multiplication_by_i(self):
        J = realify(1j * np.eye(2))
        assert np.allclose(J @ J, -np.eye(4))
        z = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        assert np.array_equal(J @ vec(z), vec(1j * z))


class TestIndex:
    def test_zero_form_full_nullity(self):
        assert index(zero_form(L2)) == 4
        assert index(zero_form(L3)) == 4

    def test_definite_forms(self):
        minus = InvariantQuadraticForm(-np.eye(4), 4, np.array([np.pi, np.pi]), 2)
        plus = InvariantQuadraticForm(np.eye(4), 4, np.array([np.pi, np.pi]), 2)
        assert index(minus) == 4
        assert index(plus) == 0

    def test_nullity_counts(self):
        S = np.diag([1.0, -1.0, 0.0, 0.0])
        Q = InvariantQuadraticForm(S, 4, np.array([np.pi, np.pi]), 2)
        assert index(Q) == 3  # one negative plus two null

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_duality_on_nondegenerate_forms(self, seed):
        rng = np.random.default_rng(seed)
        kp = int(rng.choice([2, 3, 5]))
        M = int(rng.integers(2, 6))
        Q = random_invariant(rng, kp, M)
        lam = np.linalg.eigvalsh(Q.matrix)
        if np.abs(lam).min() <= 1e-6 * np.abs(lam).max():
            return  # degenerate draw; the identity needs nondegeneracy
        assert index(Q) + index(Q.negate()) == 2 * M

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_evenness_for_odd_prime_action(self, seed):
        rng = np.random.default_rng(seed)
        kp = int(rng.choice([3, 5, 7]))
        Q = random_invariant(rng, kp, int(rng.integers(2, 6)))
        Q.validate()
        assert index(Q) % 2 == 0


class TestDirectSum:
    def test_zero_blocks(self):
        s = direct_sum(zero_form(L2), zero_form(L2))
        assert s.total_dim == 8
        assert index(s) == 8

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            Q1 = random_invariant(rng, 3, 2)
            Q2 = random_invariant(rng, 3, 3)
            assert index(direct_sum(Q1, Q2)) == index(Q1) + index(Q2)

    def test_k_prime_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="mismatch"):
            direct_sum(random_invariant(rng, 2, 2), random_invariant(rng, 3, 2))

    def test_mixed_kinds_refused(self):
        real = random_invariant(np.random.default_rng(5), 2, 2)
        for Q1, Q2 in ((real, zero_form(L2)), (zero_form(L2), real)):
            with pytest.raises(ValueError, match="real and a Hermitian"):
                direct_sum(Q1, Q2)


class TestCayley:
    def test_identity_is_zero_form(self):
        Q = cayley_gf(np.eye(2), L2)
        assert np.allclose(Q.matrix, 0)
        assert Q.total_dim == 4
        assert Q.fiber_dim == 0

    def test_scalar_rotation_is_tan_half(self):
        for theta in (-2.0, -0.5, 0.3, 1.2, 2.5):
            Q = cayley_gf(np.exp(1j * theta) * np.eye(2), L2)
            assert np.allclose(realify(Q.matrix), 2 * math.tan(theta / 2) * np.eye(4),
                               atol=1e-12)

    def test_index_sign_near_identity(self):
        eps = 1e-2
        assert index(cayley_gf(np.exp(1j * eps) * np.eye(2), L2)) == 0
        assert index(cayley_gf(np.exp(-1j * eps) * np.eye(2), L2)) == 4

    def test_domain_guard(self):
        with pytest.raises(CayleyDomainError):
            cayley_gf(-np.eye(2), L2)
        with pytest.raises(CayleyDomainError):
            cayley_gf(np.diag([1.0, np.exp(1j * (np.pi - 1e-8))]), L2)

    def test_graph_contract(self):
        # dW(q) must equal i(z - Uz) at q = (z + Uz)/2
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            U, _ = np.linalg.qr(X)
            if np.abs(np.linalg.eigvals(U) + 1).min() < 1e-3:
                continue
            Q = cayley_gf(U, L2)
            for _ in range(20):
                z = rng.normal(size=2) + 1j * rng.normal(size=2)
                q = (z + U @ z) / 2
                residual = realify(Q.matrix) @ vec(q) - vec(1j * (z - U @ z))
                assert np.linalg.norm(residual) <= 1e-9 * (1 + np.linalg.norm(U, 2))


class TestSharp:
    def test_zero_sharp_zero(self):
        z = zero_form(L2)
        s = sharp(z, z)
        assert s.total_dim == 12  # 6n with n = 2
        assert s.base_dim == 4
        assert index(s) == 8  # 4n

    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(11)
        F = cayley_gf(np.diag(np.exp(1j * rng.uniform(-1, 1, 2))), L2)
        G = sharp(F, F)
        H = sharp(G, F)
        assert G.total_dim == F.total_dim + F.total_dim + 4
        assert H.total_dim == G.total_dim + F.total_dim + 4
        assert H.base_dim == 4

    def test_invariance_preserved(self):
        rng = np.random.default_rng(12)
        F = cayley_gf(np.diag(np.exp(1j * rng.uniform(-1, 1, 2))), L3)
        sharp(F, F).validate()

    def test_composite_formula(self):
        # 1/2 u^T S u = F(z1, nu1) + G(z2, nu2) - 2 <z2 - q, i(z1 - q)> for the
        # realification S of F # G, on forms with fibers and u in the layout
        # [q, z1, z2, nu1, nu2]; <a, b> = Re(a* b) is the real inner product
        rng = np.random.default_rng(13)
        n = L2.n

        def cayley():
            while True:
                U = haar_unitary(n, rng)
                if np.abs(np.linalg.eigvals(U) + 1).min() > 0.1:
                    return cayley_gf(U, L2)

        def value(Q, w):
            return 0.5 * vec(w) @ realify(Q.matrix) @ vec(w)

        F = sharp(cayley(), cayley())
        G = sharp(sharp(cayley(), cayley()), cayley())
        H = sharp(F, G)
        fF, fG = len(F.matrix) - n, len(G.matrix) - n
        assert len(H.matrix) == 3 * n + fF + fG
        for _ in range(10):
            u = rng.normal(size=len(H.matrix)) + 1j * rng.normal(size=len(H.matrix))
            q, z1, z2, nu1, nu2 = np.split(u, np.cumsum([n, n, n, fF]))
            want = (value(F, np.concatenate([z1, nu1])) + value(G, np.concatenate([z2, nu2]))
                    - 2 * np.vdot(z2 - q, 1j * (z1 - q)).real)
            assert value(H, u) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_real_forms_refused(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="Hermitian"):
            sharp(random_invariant(rng, 2, 2), zero_form(L2))

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sharp(zero_form(L2), zero_form(new_lens(2, [1, 1, 1])))
