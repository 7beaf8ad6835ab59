import math

import numpy as np
import pytest
import scipy.linalg

from lenselect.lens import new_lens
from lenselect.maslov import maslov_index
from lenselect.norms import greedy_embedded_decomposition
from lenselect.paths import (
    PathError,
    UnitaryPath,
    _eigenphases,
    _restrict_pieces,
    action_spectrum,
    append_segment,
    cluster_phases,
    identity_path,
    inverse_path,
    haar_unitary,
    is_embedded,
    product_path,
    random_hermitian,
    random_path,
    reeb_path,
    reeb_shift,
    translated_points,
)
from lenselect.selectors import selector

TWO_PI = 2 * math.pi

# A phase this close to 0 (mod 2 pi) counts as a discriminant crossing.
PHASE_ZERO_TOL = 1e-9

L2 = new_lens(2, [1, 1])
L4 = new_lens(4, [1, 3])


def diag_path(lens, phases):
    return UnitaryPath(lens, [(np.diag(np.array(phases, dtype=float)), 1.0)])


def grid_pair_phases(p, t0, t1, G=32):
    """Eigenphases (in (-pi, pi]) of g^{-m} U_t U_s^{-1} for every pair
    s < t of a G-step grid on [t0, t1] and every deck power m, as an array
    [m, pair, j]: a small-grid reference for rule (b) of is_embedded."""
    ts = np.linspace(t0, t1, G + 1)
    Us = [p.value(t) for t in ts]
    pairs = [Us[j] @ Us[i].conj().T for i in range(G + 1) for j in range(i + 1, G + 1)]
    return np.array([[np.angle(np.linalg.eigvals(p.lens.deck(-m) @ W)) for W in pairs]
                     for m in range(p.lens.k)])


def definite_paths(count, seed):
    """Seeded non-commuting paths of 2-3 definite segments on lenses with a
    repeated weight class; every other path is mixed-sign, alternating
    positive and negative segments."""
    rng = np.random.default_rng(seed)
    lenses = [new_lens(3, [1, 1]), new_lens(5, [1, 1, 2]), new_lens(2, [1, 1, 1])]
    paths = []
    for i in range(count):
        lens = lenses[i % len(lenses)]
        segs = []
        for j, d in enumerate(rng.dirichlet(np.ones(int(rng.integers(2, 4))))):
            sign = (-1) ** (j * (i % 2))
            A = random_hermitian(lens, rng, float(rng.uniform(1.0, 6.0)), semidefinite="pos")
            segs.append((sign * (A + 0.1 * np.eye(lens.n)), float(d)))
        paths.append(UnitaryPath(lens, segs))
    return paths


def schur_phases(U, classes):
    """Reference eigenphases: the complex Schur diagonal of each block."""
    return np.concatenate([
        np.angle(np.diag(scipy.linalg.schur(U[np.ix_(idx, idx)], output="complex")[0]))
        for idx in classes
    ])


class TestConstruction:
    def test_rejects_non_hermitian(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(PathError, match="Hermitian"):
            UnitaryPath(L2, [(A, 1.0)])

    def test_rejects_non_commuting(self):
        # off-diagonal entries mix the two weight classes of L_4(1, 3)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PathError, match="commute"):
            UnitaryPath(L4, [(A, 1.0)])

    def test_reparametrization_preserves_trace(self):
        # durations not summing to one are rescaled without changing the path
        A = np.diag([1.0, 2.0])
        p = UnitaryPath(L2, [(A, 2.0), (2 * A, 2.0)])
        q = UnitaryPath(L2, [(2 * A, 1.0), (4 * A, 1.0)])
        for t in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert np.allclose(p.value(t), q.value(t), atol=1e-12)

    def test_endpoint_consistency(self):
        p = random_path(L2, np.random.default_rng(0), segments=3)
        assert np.allclose(p.value(1.0), p.endpoint, atol=1e-10)


class TestAlgebra:
    def test_reeb_zero_is_identity(self):
        p = reeb_path(L2, 0.0)
        assert np.allclose(p.endpoint, np.eye(2))
        assert is_embedded(p, 0.0, 1.0).method == "constant"

    def test_reeb_two_pi_nontrivial_class(self):
        p = reeb_path(L2, TWO_PI)
        assert np.allclose(p.endpoint, np.eye(2), atol=1e-12)
        assert maslov_index(p) == 4  # distinct from the identity class

    def test_reeb_pi_hits_deck_image(self):
        p = reeb_path(L2, math.pi)
        assert np.allclose(p.endpoint, -np.eye(2), atol=1e-12)
        sw = action_spectrum(p)
        assert np.abs(sw.phases_lens - math.pi).min() < 1e-12

    def test_inverse_exact(self):
        p = random_path(L2, np.random.default_rng(1), segments=3)
        q = inverse_path(p)
        for t in (0.2, 0.6, 1.0):
            assert np.allclose(q.value(t), np.linalg.inv(p.value(t)), atol=1e-10)

    def test_inverse_commutes_with_action(self):
        p = random_path(L4, np.random.default_rng(2), segments=2)
        inverse_path(p)._validate()  # generators must stay weight-compatible

    def test_product_matches_at_fit_nodes(self):
        # the refit interpolates geodesically between its nodes, so pointwise
        # agreement is only exact at the nodes (and stays uniformly close)
        rng = np.random.default_rng(3)
        p = random_path(L2, rng, segments=2)
        q = random_path(L2, rng, segments=3)
        r = product_path(p, q)
        for t in r.starts:
            assert np.linalg.norm(r.value(t) - p.value(t) @ q.value(t), 2) < 1e-9
        for t in np.linspace(0, 1, 33):
            assert np.linalg.norm(r.value(t) - p.value(t) @ q.value(t), 2) < 0.5

    def test_product_with_identity_same_class(self):
        p = random_path(L2, np.random.default_rng(4))
        r = product_path(p, identity_path(L2))
        assert maslov_index(r) == maslov_index(p)
        assert selector(r, 0) == pytest.approx(selector(p, 0), abs=1e-9)

    def test_reeb_products_compose(self):
        a = product_path(reeb_path(L2, 1.0), reeb_path(L2, 2.0))
        b = reeb_path(L2, 3.0)
        assert maslov_index(a) == maslov_index(b)
        assert selector(a, 0) == pytest.approx(selector(b, 0), abs=1e-9)

    def test_inverse_reeb(self):
        a = inverse_path(reeb_path(L2, 2.0))
        assert selector(a, 0) == pytest.approx(-2.0, abs=1e-9)

    def test_reeb_shift_exact(self):
        p = random_path(L2, np.random.default_rng(5))
        q = reeb_shift(p, 1.3)
        for t in (0.4, 1.0):
            assert np.allclose(
                q.value(t), np.exp(-1.3j * t) * p.value(t), atol=1e-10
            )

    def test_shift_roundtrip(self):
        p = reeb_path(L2, 2.0)
        q = reeb_shift(p, 2.0)
        assert is_embedded(q, 0.0, 1.0).method == "constant"
        assert np.allclose(q.endpoint, np.eye(2), atol=1e-12)

    def test_append_preserves_prefix(self):
        p = random_path(L2, np.random.default_rng(6))
        q = append_segment(p, np.diag([1.0, 2.0]), 0.5)
        # old endpoint is reached at the reparametrized break time
        assert np.allclose(q.value(1 / 1.5), p.endpoint, atol=1e-9)


class TestSpectra:
    def test_identity_spectrum(self):
        sw = action_spectrum(identity_path(L2))
        assert np.allclose(sw.phases_sphere, [0.0])
        assert sw.mult_sphere.tolist() == [2]

    def test_reeb_spectrum(self):
        sw = action_spectrum(reeb_path(L2, 1.5))
        assert np.allclose(sw.phases_sphere, [1.5])
        assert sw.mult_sphere.tolist() == [2]

    def test_diag_lens_spectrum(self):
        a, b = 0.7, 2.1
        sw = action_spectrum(diag_path(L2, [a, b]))
        assert np.allclose(sw.phases_sphere, [a, b])
        want = sorted([a, b, a + math.pi, b + math.pi])
        assert np.allclose(sw.phases_lens, want, atol=1e-12)

    def test_cluster_wraparound(self):
        reps, mults = cluster_phases([1e-12, TWO_PI - 1e-12, 1.0])
        assert len(reps) == 2
        assert mults == [2, 1]

    def test_containments(self):
        rng = np.random.default_rng(7)
        for lens in (L2, L4, new_lens(5, [1, 2])):
            for _ in range(10):
                p = random_path(lens, rng)
                sw = action_spectrum(p)
                per = lens.reeb_period
                fine = sw.phases_lens
                for ph in sw.phases_sphere:
                    for m in range(int(round(TWO_PI / per))):
                        d = np.abs(np.mod(ph + m * per - fine + math.pi, TWO_PI)
                                   - math.pi)
                        assert d.min() < 1e-8
                coarse = np.concatenate(
                    [sw.phases_sphere + TWO_PI * m / lens.k for m in range(lens.k)]
                )
                for ph in fine:
                    d = np.abs(np.mod(ph - coarse + math.pi, TWO_PI) - math.pi)
                    assert d.min() < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_eigenphases_equal_schur_diagonal(self, n):
        rng = np.random.default_rng(100 + n)
        block = [list(range(n))]
        for trial in range(40):
            V = haar_unitary(n, rng)
            if trial % 2:  # eigenvalue clusters of width ~1e-11
                ph = rng.uniform(-math.pi, math.pi, n)
                ph[: max(1, n // 2)] = ph[0] + 1e-11 * rng.normal(size=max(1, n // 2))
                U = (V * np.exp(1j * ph)) @ V.conj().T
            else:
                U = V
            assert np.array_equal(_eigenphases(U, block), schur_phases(U, block))

    @pytest.mark.parametrize("lens", [new_lens(5, [1, 2, 3]), new_lens(3, [1, 1, 2])])
    def test_eigenphases_equal_schur_diagonal_per_class(self, lens):
        rng = np.random.default_rng(5)
        classes = lens.weight_classes()
        for _ in range(20):
            U = random_path(lens, rng, segments=3, norm_bound=8.0).endpoint
            assert np.array_equal(_eigenphases(U, classes), schur_phases(U, classes))

    def test_translated_points_full_space(self):
        d, basis = translated_points(reeb_path(L2, 1.0), 1.0)
        assert d == 2
        assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-10)

    def test_translated_points_simple_phase(self):
        p = diag_path(L2, [0.5, 1.5])
        d, basis = translated_points(p, 0.5)
        assert d == 1

    def test_translated_points_empty(self):
        p = diag_path(L2, [0.5, 1.5])
        assert translated_points(p, 1.0)[0] == 0


class TestRestrictPieces:
    def test_pieces_carry_their_segment_eigenvalues(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_path(new_lens(5, [1, 2, 3]), rng, segments=4, norm_bound=5.0)
            t0, t1 = sorted(rng.uniform(0.0, 1.0, 2))
            pieces = _restrict_pieces(p, t0, t1)
            assert pieces[0][2] == t0 and pieces[-1][3] == t1
            starts = [a for _, _, a, _ in pieces[1:]] + [t1]
            for (A, lam, a, b), following in zip(pieces, starts):
                assert b == following  # the pieces tile [t0, t1]
                i = p.segment_of((a + b) / 2)
                assert A is p.segments[i][0] and lam is p._eig[i][0]
                assert np.allclose(lam, np.linalg.eigvalsh(A), rtol=0, atol=1e-12)

    def test_sliver_is_its_midpoint_segment(self):
        p = UnitaryPath(L2, [(np.eye(2), 0.5), (np.diag([1.0, -1.0]), 0.5)])
        [(A, lam, a, b)] = _restrict_pieces(p, 0.75, 0.75 + 1e-16)
        assert (a, b) == (0.75, 0.75 + 1e-16)
        assert A is p.segments[1][0] and lam is p._eig[1][0]


class TestEmbeddedness:
    def test_witness_reads_weights_mod_k(self):
        # 10^17 + 1 = 2 mod 3, but rounds to 10^17 = 1 mod 3 as a float
        near = UnitaryPath(new_lens(3, [1, 2]), [(np.diag([0.5, -5.0]), 1.0)])
        far = UnitaryPath(new_lens(3, [1, 10**17 + 1]), [(np.diag([0.5, -5.0]), 1.0)])
        assert is_embedded(far, 0.0, 1.0) == is_embedded(near, 0.0, 1.0)

    def test_short_reeb_embedded(self):
        for k in (2, 3, 5):
            lens = new_lens(k, [1, 1])
            rep = is_embedded(reeb_path(lens, 0.9 * TWO_PI / k), 0.0, 1.0)
            assert rep.embedded is True

    def test_long_reeb_not_embedded(self):
        rep = is_embedded(reeb_path(L2, 1.05 * math.pi), 0.0, 1.0)
        assert rep.embedded is False
        assert rep.witness is not None

    def test_boundary_phase_advance(self):
        # exactly 2 pi / k of phase advance already closes an orbit
        rep = is_embedded(reeb_path(L2, math.pi), 0.0, 1.0)
        assert rep.embedded is False

    def test_subinterval(self):
        p = reeb_path(L2, 4 * math.pi)
        assert is_embedded(p, 0.0, 0.2).embedded is True
        assert is_embedded(p, 0.0, 0.3).embedded is False

    def test_identity_convention(self):
        rep = is_embedded(identity_path(L2), 0.0, 1.0)
        assert rep.embedded is True
        assert rep.method == "constant"

    def test_tiny_interval(self):
        p = random_path(L2, np.random.default_rng(8))
        assert is_embedded(p, 0.5, 0.5 + 1e-4).embedded in (True, None)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            is_embedded(identity_path(L2), 0.5, 0.5)

    def test_noncommuting_sweep(self):
        # definite non-commuting generators: rule (b) certifies a short
        # window from the envelope travel 0.2 * 1.4 + 0.2 * 1.5 < pi
        rng = np.random.default_rng(9)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        V, _ = np.linalg.qr(X)
        A = V @ np.diag([1.0, 1.4]) @ V.conj().T
        B = np.diag([1.0, 1.5])
        assert np.linalg.norm(A @ B - B @ A, 2) > 1e-6
        p = UnitaryPath(L2, [(A, 0.5), (B, 0.5)])
        # window spanning both segments: the commuting tier cannot apply
        rep = is_embedded(p, 0.3, 0.7)
        assert rep.method == "definite"
        assert rep.embedded is True
        assert rep.margin == pytest.approx(math.pi - 0.58, abs=1e-12)

    def test_mixed_sign_indeterminate_or_witness(self):
        # mixed-sign non-commuting generators: no closed form decides, so
        # either an explicit crossing or an honest indeterminate
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = (X + X.conj().T) / 2
        A = A - np.trace(A) / 2 * np.eye(2)  # traceless: mixed signs
        B = np.diag([1.0, -1.0])
        p = UnitaryPath(L2, [(A, 0.5), (B, 0.5)])
        rep = is_embedded(p, 0.0, 1.0)
        assert rep.embedded in (False, None)

    def test_definite_rule_against_grid(self):
        # rule (b) never certifies a stretch on which a small grid finds a
        # discriminant pair, and on every stretch it certifies the phases
        # of U_t U_s^{-1} lie strictly between 0 and the envelope travel;
        # greedy pieces are the stretches whose travel is nearest 2 pi / k
        rng = np.random.default_rng(12)
        certified = refused = 0
        for p in definite_paths(12, seed=11):
            cuts = greedy_embedded_decomposition(p).breakpoints
            windows = list(zip(cuts, cuts[1:]))
            for _ in range(6):
                t0 = float(rng.uniform(0.0, 0.9))
                windows.append((t0, float(rng.uniform(t0, 1.0))))
            for t0, t1 in windows:
                rep = is_embedded(p, t0, t1)
                if rep.method == "commuting-exact":
                    continue  # inside one segment
                assert rep.method == "definite", (t0, t1)
                if not rep.embedded:
                    refused += 1
                    continue
                certified += 1
                ph = grid_pair_phases(p, t0, t1)
                assert np.abs(ph).min() > PHASE_ZERO_TOL, (t0, t1)
                travel = TWO_PI / p.lens.k - rep.margin
                sign = np.sign(np.trace(p.segments[p.segment_of(t0)][0]).real)
                signed = sign * ph[0]  # m = 0: the phases of U_t U_s^{-1}
                assert signed.min() > 0 and signed.max() <= travel + 1e-12, (t0, t1)
                assert signed.max() < TWO_PI / p.lens.k, (t0, t1)
        assert certified >= 5 and refused >= 5
