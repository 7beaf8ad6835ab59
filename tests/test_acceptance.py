"""Acceptance suite: one test per criterion, one pass/fail line under -v.

Tolerances are pinned in each test body.  Everything runs at desk scale
(n <= 3, k <= 7); the whole file is budgeted well under five minutes.
"""

import math

import numpy as np
import pytest

from lenselect.lens import new_lens
from lenselect.maslov import BasedFamily, maslov_index, subdivide
from lenselect.norms import nu, nu_star
from lenselect.paths import (
    action_spectrum,
    append_segment,
    conjugate_path,
    haar_unitary,
    identity_path,
    inverse_path,
    product_path,
    random_hermitian,
    random_path,
    reeb_path,
    reeb_shift,
)
from lenselect.norms import geodesic_report, greedy_embedded_decomposition, selector_lower_bounds
from lenselect.quadratic import cayley_gf, index, realify, zero_form
from lenselect.selectors import c_minus, c_plus, selector
from lenselect.verify import verify_suite

TWO_PI = 2 * math.pi

EQUAL_LENSES = [new_lens(k, [1] * n) for k in (2, 3, 5) for n in (1, 2, 3)]
CORE_LENSES = [new_lens(2, [1, 1]), new_lens(3, [1, 1]), new_lens(4, [1, 3])]

T_GRID = [-0.1, 0.1, 1.0, math.pi, TWO_PI - 1e-6, TWO_PI, TWO_PI + 1e-6,
          6 * math.pi, 20 * math.pi]


def test_c01_reeb_maslov_values():
    """mu(r_T) = 2n ceil(T / 2 pi), exact integer equality."""
    for lens in EQUAL_LENSES:
        for T in T_GRID:
            got = maslov_index(reeb_path(lens, T))
            want = 2 * lens.n * math.ceil(T / TWO_PI)
            assert got == want, (lens.k, lens.n, T, got, want)


def test_c02_identity_selector_table():
    """c_j(id) = 2 pi ceil(j / 2n) for j in [-4n+1, 2n], tolerance 1e-9."""
    for lens in CORE_LENSES:
        p = identity_path(lens)
        n2 = 2 * lens.n
        for j in range(-2 * n2 + 1, n2 + 1):
            want = TWO_PI * math.ceil(j / n2)
            assert abs(selector(p, j) - want) <= 1e-9, (lens.k, j)


def test_c03_c0_of_reeb_is_time():
    """c_0(r_T) = T, 20 random T per lens, tolerance 1e-9."""
    rng = np.random.default_rng(2026)
    for lens in CORE_LENSES:
        for T in rng.uniform(-15.0, 15.0, size=20):
            assert abs(c_plus(reeb_path(lens, float(T))) - T) <= 1e-9


def test_c04_spectrality():
    """Every c_j, j in [-2n, 2n], lies on the sphere action spectrum
    (distance <= 1e-9 mod 2 pi), 100 random paths per lens."""
    rng = np.random.default_rng(4)
    for lens in CORE_LENSES:
        for _ in range(100):
            p = random_path(lens, rng)
            sw = action_spectrum(p)
            for j in range(-2 * lens.n, 2 * lens.n + 1):
                c = selector(p, j)
                d = np.abs(
                    np.mod(c - sw.phases_sphere + math.pi, TWO_PI) - math.pi
                ).min()
                assert d <= 1e-9, (lens.k, j, c)


def test_c05_periodicity_and_composition():
    """c_{j+2n} = c_j + 2 pi and c_j(r_T . p) = c_j(p) + T, 50 trials,
    tolerance 1e-9."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        n2 = 2 * lens.n
        T = float(rng.uniform(-5.0, 5.0))
        q = reeb_shift(p, -T)  # r_T . p
        for j in range(-n2, n2 + 1):
            assert abs(selector(p, j + n2) - selector(p, j) - TWO_PI) <= 1e-9
            assert abs(selector(q, j) - selector(p, j) - T) <= 1e-9


def test_c06_lattice_triangle_conjugation_duality():
    """Exact T_w-lattice identities, 100 trials each per lens:
    ceil(c_{i+j}(pq)) <= ceil(c_i(p)) + ceil(c_j(q))   (k even or j even),
    ceil(c_j(psi p psi^-1)) = ceil(c_j(p)),
    ceil(c_j(p)) = -floor(c_{-j-(2n-1)}(p^-1))."""
    for lens in CORE_LENSES:
        n2 = 2 * lens.n
        per = lens.period_multiple
        rng = np.random.default_rng(60 + lens.k)
        for _ in range(100):
            p = random_path(lens, rng)
            q = random_path(lens, rng)
            i = int(rng.integers(-lens.n, lens.n + 1))
            j = int(rng.integers(-lens.n, lens.n + 1))
            if lens.k % 2 == 1 and j % 2 == 1:
                j += 1
            lhs = per(selector(product_path(p, q), i + j), "ceil")
            rhs = per(selector(p, i), "ceil") + per(selector(q, j), "ceil")
            assert lhs <= rhs, (lens.k, i, j)
        rng = np.random.default_rng(600 + lens.k)
        for _ in range(100):
            p = random_path(lens, rng)
            psi = random_path(lens, rng)
            j = int(rng.integers(-n2, n2 + 1))
            assert per(selector(conjugate_path(psi, p), j), "ceil") == per(
                selector(p, j), "ceil"
            )
        rng = np.random.default_rng(6000 + lens.k)
        for _ in range(100):
            p = random_path(lens, rng)
            j = int(rng.integers(-n2, n2 + 1))
            lhs = per(selector(p, j), "ceil")
            rhs = -per(selector(inverse_path(p), -j - (n2 - 1)), "floor")
            assert lhs == rhs, (lens.k, j)


def test_c07_hamiltonian_bounds():
    """d lambda_min(A) <= c_j(p . flow(A, d)) - c_j(p) <= d lambda_max(A),
    margin >= -1e-8, 100 trials."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        A = random_hermitian(lens, rng)
        d = float(rng.uniform(0.2, 1.0))
        q = append_segment(p, A, d)
        lam = np.linalg.eigvalsh(A)
        j = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        delta = selector(q, j) - selector(p, j)
        assert delta >= d * lam.min() - 1e-8
        assert delta <= d * lam.max() + 1e-8


def test_c08_quasimorphism_and_triangle():
    """|mu(pq) - mu(p) - mu(q)| <= 2n+1 (<= 2n for k even) and
    mu(pq) <= mu(p) + mu(q) + 1, 200 random pairs, zero violations."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        q = random_path(lens, rng)
        mpq = maslov_index(product_path(p, q))
        mp, mq = maslov_index(p), maslov_index(q)
        bound = 2 * lens.n if lens.k % 2 == 0 else 2 * lens.n + 1
        assert abs(mpq - mp - mq) <= bound, (lens.k, mpq, mp, mq)
        assert mpq <= mp + mq + 1


def test_c09_poincare_duality_mu():
    """mu(p) + mu(p^-1) = 2n when 1 is not an endpoint eigenvalue, 100 trials."""
    rng = np.random.default_rng(9)
    done = 0
    while done < 100:
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = reeb_shift(random_path(lens, rng), float(rng.uniform(0.05, 0.5)))
        gap = np.abs(np.angle(np.linalg.eigvals(p.endpoint))).min()
        if gap < 1e-3:
            continue  # degenerate draw; the identity needs 1 off the spectrum
        assert maslov_index(p) + maslov_index(inverse_path(p)) == 2 * lens.n
        done += 1


def test_c10_subdivision_invariance():
    """Three distinct admissible subdivisions give the same mu, 50 paths."""
    rng = np.random.default_rng(10)
    for _ in range(50):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        base = subdivide(p)
        fine = np.unique(np.concatenate([base, (base[:-1] + base[1:]) / 2]))
        finer = np.unique(np.concatenate([fine, np.linspace(0, 1, 11)]))
        vals = {maslov_index(p, breakpoints=b) for b in (base, fine, finer)}
        assert len(vals) == 1


def test_c11_quadratic_core():
    """index(Q) + index(-Q) = 2M on nondegenerate invariant forms; evenness
    for k' > 2; based-family self-check ind(F_0) = 2nN; Cayley graph residual
    <= 1e-9."""
    from lenselect.quadratic import rotation_matrix, InvariantQuadraticForm

    rng = np.random.default_rng(11)
    for _ in range(50):
        kp = int(rng.choice([2, 3, 5]))
        M = int(rng.integers(2, 6))
        phases = TWO_PI * rng.integers(1, kp if kp > 1 else 2, size=M) / kp
        R = rotation_matrix(phases)
        S = rng.normal(size=(2 * M, 2 * M))
        S = (S + S.T) / 2
        Sbar = sum(
            np.linalg.matrix_power(R, i).T @ S @ np.linalg.matrix_power(R, i)
            for i in range(kp)
        ) / kp
        Q = InvariantQuadraticForm(Sbar, 2 * M, phases, kp)
        lam = np.linalg.eigvalsh(Q.matrix)
        if np.abs(lam).min() > 1e-6 * np.abs(lam).max():
            assert index(Q) + index(Q.negate()) == 2 * M
        if kp > 2:
            assert index(Q) % 2 == 0
    lens = new_lens(3, [1, 1])
    p = reeb_path(lens, 5.0)
    fam = BasedFamily(p)
    assert index(fam.form_at(0.0)) == 2 * lens.n * fam.N
    for _ in range(20):
        U = haar_unitary(2, rng)
        if np.abs(np.linalg.eigvals(U) + 1).min() < 1e-3:
            continue
        Q = cayley_gf(U, new_lens(2, [1, 1]))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = (z + U @ z) / 2
        v = np.empty(4)
        v[0::2], v[1::2] = q.real, q.imag
        w = 1j * (z - U @ z)
        t = np.empty(4)
        t[0::2], t[1::2] = w.real, w.imag
        assert np.linalg.norm(realify(Q.matrix) @ v - t) <= 1e-9 * (1 + np.linalg.norm(z))


def test_c12_norms():
    """nu(r_{m T_w}) = m T_w exactly for m <= 20; nu* <= 2 pi + T_w on 100
    random paths; pseudonorm axioms with zero violations over 100 trials."""
    for lens in (new_lens(2, [1, 1]), new_lens(3, [1, 1])):
        for m in range(0, 21):
            v = nu(reeb_path(lens, m * lens.reeb_period))
            assert v.multiple == m
    rng = np.random.default_rng(12)
    for _ in range(100):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        star, _ = nu_star(p)
        assert star.value <= TWO_PI + lens.reeb_period + 1e-9
    rng = np.random.default_rng(120)
    assert nu(identity_path(new_lens(2, [1, 1]))).multiple == 0
    for _ in range(100):
        lens = CORE_LENSES[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        q = random_path(lens, rng)
        assert nu(p).multiple >= 0
        assert nu(p).multiple == nu(inverse_path(p)).multiple
        assert (
            nu(product_path(p, q)).multiple <= nu(p).multiple + nu(q).multiple
        )


def test_c13_geodesic_corollary():
    """Equal weights, k in {2,3,5}, T in {0.1, 2 pi, 6 pi, 20 pi}: greedy
    count = selector lower bound = floor(kT/2pi) + 1; one general-weights
    lens returns verdict "gap" with lower floor(T/T_w) + 1."""
    for k in (2, 3, 5):
        lens = new_lens(k, [1, 1])
        for T in (0.1, TWO_PI, 6 * math.pi, 20 * math.pi):
            want = math.floor(k * T / TWO_PI + 1e-9) + 1
            p = reeb_path(lens, T)
            dec = greedy_embedded_decomposition(p)
            low = selector_lower_bounds(p)["dis"]
            assert dec.certified
            assert dec.count == low == want, (k, T)
            rep = geodesic_report(lens, T)
            assert rep.verdict == "certified" and rep.upper == want
    lens = new_lens(4, [1, 3])  # T_w = pi
    T = 6 * math.pi
    rep = geodesic_report(lens, T)
    assert rep.verdict == "gap"
    assert rep.lower == lens.period_multiple(T, "floor") + 1 == 7


def test_c14_deterministic_verify_reports():
    """Fixed-seed verify reports are byte-identical across two runs."""
    import json

    for suite in ("quadratic_core", "thm1"):
        a = verify_suite(suite, trials=5, seed=123)
        b = verify_suite(suite, trials=5, seed=123)
        sa = json.dumps(a, sort_keys=True)
        sb = json.dumps(b, sort_keys=True)
        assert sa == sb
        assert a["pass"] is True
