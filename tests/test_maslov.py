import math

import numpy as np
import pytest

from lenselect import jobs, maslov
from lenselect.lens import new_lens
from lenselect.maslov import (
    BasedFamily,
    evaluate_step,
    maslov_index,
    maslov_shifted,
    subdivide,
)
from lenselect.paths import (
    UnitaryPath,
    identity_path,
    inverse_path,
    random_path,
    reeb_path,
    reeb_shift,
)
from lenselect.quadratic import (
    CayleyDomainError,
    InvariantQuadraticForm,
    index,
    realify,
)
from lenselect.torus import subdivision_count

TWO_PI = 2 * math.pi

L2 = new_lens(2, [1, 1])
L3 = new_lens(3, [1, 1])

DET_LIFT_LENSES = [(2, [1, 1]), (3, [1, 1]), (4, [1, 3]), (5, [1, 2, 3]), (3, [1, 1, 2])]
RANDOM_BASE = float(np.random.default_rng(2024).uniform(-TWO_PI, TWO_PI))


def gap_midpoints(ev):
    ends = np.concatenate([ev.points[1:], [ev.points[0] + TWO_PI]])
    return (ev.points + ends) / 2.0


class TestSubdivide:
    def test_identity_single_interval(self):
        assert len(subdivide(identity_path(L2))) == 2

    def test_quarter_turn_single_interval(self):
        assert len(subdivide(reeb_path(L2, math.pi / 2))) == 2

    def test_full_turn_four_intervals(self):
        # phase travel 2 pi needs at least four pi/2 intervals
        pts = subdivide(reeb_path(L2, TWO_PI))
        assert len(pts) - 1 >= 4

    def test_travel_bound_enforced(self):
        p = reeb_path(L2, TWO_PI)
        with pytest.raises(ValueError, match="travel"):
            BasedFamily(p, [0.0, 0.5, 1.0])

    def test_segment_boundaries_kept(self):
        p = UnitaryPath(L2, [(np.zeros((2, 2)), 0.3), (np.eye(2), 0.7)])
        assert 0.3 in subdivide(p).tolist()

    @pytest.mark.parametrize("p", [
        reeb_path(L2, 0.0),
        reeb_path(L3, -7.5),
        reeb_path(new_lens(3, [1, 1, 1, 1]), 150.0),
        random_path(L3, np.random.default_rng(4), segments=3, norm_bound=9.0),
        random_path(new_lens(5, [1, 2, 3]), np.random.default_rng(5), segments=4),
        UnitaryPath(L2, [(np.zeros((2, 2)), 0.3), (np.eye(2), 0.7)]),
        # ||A|| d = pi/2 exactly: one interval, not two
        UnitaryPath(L2, [(np.diag([math.pi / 2, 0.0]), 1.0), (np.eye(2) * 7.0, 2.0)]),
    ])
    def test_count_matches_breakpoints(self, p):
        assert subdivision_count(p.spans) == len(subdivide(p)) - 1

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_reeb_quarter_turns(self, n):
        # ||A|| d = |m| pi/2 sits on an integer boundary of the ceiling
        lens = new_lens(3, [1] * n)
        for m in range(-40, 41):
            assert subdivision_count(reeb_path(lens, m * math.pi / 2).spans) == max(abs(m), 1), m

    def test_count_matches_operator_norm(self):
        # the counts read the eigenvalues of UnitaryPath; the reference takes
        # ||A|| from an SVD of each generator
        rng = np.random.default_rng(13)
        lenses = [L2, L3, new_lens(3, [1, 1, 1]), new_lens(5, [1, 2, 3])]
        for i in range(200):
            p = random_path(lenses[i % len(lenses)], rng, segments=int(rng.integers(1, 5)),
                            norm_bound=float(rng.uniform(0.5, 20.0)))
            expected = sum(
                max(1, math.ceil(np.linalg.norm(A, 2) * d / (math.pi / 2) - 1e-12))
                for A, d in p.segments
            )
            assert subdivision_count(p.spans) == expected, i


class TestBasedFamily:
    @pytest.mark.parametrize("k, weights", DET_LIFT_LENSES)
    @pytest.mark.parametrize("path", ["random", 1, 2])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_complex_form_index_is_its_realification_index(self, k, weights, path, t):
        # Reeb paths at T = 2 pi and 4 pi end at the identity: exact null blocks
        lens = new_lens(k, weights)
        p = (random_path(lens, np.random.default_rng(k), segments=3, norm_bound=4.0)
             if path == "random" else reeb_path(lens, TWO_PI * path))
        fam = BasedFamily(p)
        F = fam.form_at(t)
        M = (2 * fam.N - 1) * lens.n
        assert F.matrix.shape == (M, M) and np.iscomplexobj(F.matrix)
        assert F.total_dim == fam.total_dim == 2 * M
        F.validate()  # its realification is symmetric and Z_k'-invariant
        real = InvariantQuadraticForm(realify(F.matrix), F.base_dim, F.action_phases,
                                      F.k_prime)
        assert index(F) == index(real)


ELIM_LENSES = DET_LIFT_LENSES[1:] + [(7, [1] * 8)]


def elim_path(lens, path):
    """A seeded random path, or the Reeb path of time 2 pi * path."""
    if path == "random":
        return random_path(lens, np.random.default_rng([lens.k, *lens.weights]),
                           segments=3, norm_bound=6.0)
    return reeb_path(lens, TWO_PI * path)


def count_calls(monkeypatch, cls, name):
    calls = []
    orig = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestIndexAt:
    @pytest.mark.parametrize("k, weights", ELIM_LENSES)
    @pytest.mark.parametrize("path", ["random", 1, -1, 2])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_elimination_matches_dense_index(self, k, weights, path, t):
        # Reeb paths at multiples of 2 pi pass through -I (a singular 2n
        # pivot) and end at the identity (exact null blocks in F_1)
        fam = BasedFamily(elim_path(new_lens(k, weights), path))
        dense = index(fam.form_at(t))
        lo, hi = fam._bracket_counts(t)
        assert lo == hi and 2 * lo == dense
        assert fam.index_at(t) == dense

    def test_lattice_reeb_carries_directions(self, monkeypatch):
        # L_3(1,1), T = 2 pi: the second partial product is -I
        fam = BasedFamily(reeb_path(L3, TWO_PI))
        pivots = count_calls(monkeypatch, maslov.np.linalg, "eigh")
        lo, hi = fam._bracket_counts(1.0)
        assert max(P.shape[-1] for (P,) in pivots) > 2 * L3.n
        # ind(F_1) = ind(F_0) - mu = 2nN - 2n
        assert 2 * lo == 2 * hi == 2 * L3.n * (fam.N - 1) == index(fam.form_at(1.0))

    def test_certified_job_builds_no_dense_form(self, monkeypatch):
        lens = new_lens(3, [1, 1, 1, 1])
        job = jobs.parse_job({"lens": {"k": 3, "weights": [1, 1, 1, 1]},
                              "path": {"reeb": 25.0}, "task": {"maslov": {}}})
        assert BasedFamily(job.path).N > 1
        built = count_calls(monkeypatch, BasedFamily, "form_at")
        # the job counts the Reeb path line by line; its reference certifies too
        assert jobs.run_job(job)["results"]["mu"] == 2 * lens.n * math.ceil(25.0 / TWO_PI)
        assert maslov_index(job.path) == 2 * lens.n * math.ceil(25.0 / TWO_PI)
        assert built == []

    def test_bracket_disagreement_falls_back_to_dense(self, monkeypatch):
        lens = new_lens(3, [1, 1, 1, 1])
        p = reeb_path(lens, 25.0)
        monkeypatch.setattr(BasedFamily, "_bracket_counts", lambda self, t: (0, 1))
        built = count_calls(monkeypatch, BasedFamily, "form_at")
        assert maslov_index(p) == 2 * lens.n * math.ceil(25.0 / TWO_PI)
        assert [t for _, t in built] == [0.0, 1.0]

    def test_cayley_guard_is_batched(self):
        lens = new_lens(3, [1, 1, 1, 1])
        fam = BasedFamily(reeb_path(lens, 25.0))
        assert fam.N > 1  # index_at eliminates
        # the third transition at t = 1 becomes -I
        fam._inv_at_start[2] = -fam._U[3].conj().T
        with pytest.raises(CayleyDomainError, match="-1"):
            fam.index_at(1.0)


class TestMaslovIndex:
    def test_identity_zero(self):
        assert maslov_index(identity_path(L2)) == 0

    def test_reeb_values(self):
        # mu(r_T) = 2n ceil(T / 2 pi)
        for lens in (L2, L3, new_lens(2, [1, 1, 1])):
            n2 = 2 * lens.n
            for T in (-4.0, -0.1, 0.5, math.pi, TWO_PI, TWO_PI + 0.1, 10.0):
                assert maslov_index(reeb_path(lens, T)) == n2 * math.ceil(
                    T / TWO_PI
                ), (lens.k, T)

    def test_subdivision_invariance(self):
        p = reeb_path(L2, 3.0)
        coarse = subdivide(p)
        fine = np.unique(np.concatenate([coarse, np.linspace(0, 1, 17)]))
        assert maslov_index(p) == maslov_index(p, breakpoints=fine)

    def test_shift_periodicity(self):
        p = random_path(L2, np.random.default_rng(0))
        for T in (0.3, 1.7):
            assert maslov_shifted(p, T + TWO_PI) == maslov_shifted(p, T) - 4

    def test_inverse_duality(self):
        # mu(p) + mu(p^{-1}) = 2n for nondegenerate shifts
        p = random_path(L3, np.random.default_rng(1))
        q = reeb_shift(p, 0.1234)  # generic shift avoids spectrum hits
        assert maslov_index(q) + maslov_index(inverse_path(q)) == 2 * L3.n


class TestEvaluateStep:
    def test_identity_step(self):
        ev = evaluate_step(identity_path(L2))
        assert ev.points == [0.0]
        assert ev.values == [0]
        assert ev.pre_value == 4
        assert ev.drops() == [4]

    def test_identity_values_on_line(self):
        ev = evaluate_step(identity_path(L2))
        # right-continuous: drops exactly at multiples of 2 pi
        assert ev.value_at(0.0) == 0
        assert ev.value_at(-1e-9) == 4
        assert ev.value_at(TWO_PI - 0.1) == 0
        assert ev.value_at(TWO_PI) == -4
        assert ev.value_at(-TWO_PI) == 4

    def test_two_simple_drops(self):
        a, b = 0.7, 2.1
        p = UnitaryPath(L2, [(np.diag([a, b]), 1.0)])
        ev = evaluate_step(p)
        assert np.allclose(ev.points, [a, b], atol=1e-12)
        assert ev.drops() == [2, 2]

    def test_monotone_random(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ev = evaluate_step(random_path(L2, rng))
            assert all(d >= 0 for d in ev.drops())
            total = ev.pre_value - ev.values[-1]
            assert total == 4  # one full window drops 2n

    def test_window_base(self):
        p = UnitaryPath(L2, [(np.diag([0.7, 2.1]), 1.0)])
        ev = evaluate_step(p, window_base=-math.pi)
        for T in (-1.0, 0.0, 0.9, 2.2):
            assert ev.value_at(T) == evaluate_step(p).value_at(T)

    @pytest.mark.parametrize("window_base", [0.0, -math.pi, RANDOM_BASE])
    @pytest.mark.parametrize("k, weights", DET_LIFT_LENSES)
    def test_closed_form_matches_gf_random(self, k, weights, window_base):
        lens = new_lens(k, weights)
        rng = np.random.default_rng([k, *weights])
        for segments in (1, 2, 3):
            p = random_path(lens, rng, segments=segments, norm_bound=7.0)
            ev = evaluate_step(p, window_base)
            for T, v in zip(gap_midpoints(ev), ev.values):
                assert maslov_shifted(p, T) == v, (T, window_base)

    @pytest.mark.parametrize("T", [0.0, TWO_PI, -TWO_PI, 2 * TWO_PI])
    @pytest.mark.parametrize("k, weights", DET_LIFT_LENSES)
    def test_closed_form_matches_gf_reeb(self, k, weights, T):
        lens = new_lens(k, weights)
        p = reeb_path(lens, T)
        ev = evaluate_step(p)
        (mid,) = gap_midpoints(ev)
        assert ev.values == [maslov_shifted(p, mid)]
        assert ev.values[0] == 2 * lens.n * math.ceil((T - mid) / TWO_PI)

    def test_det_lift_self_check(self):
        p = reeb_path(L2, 1.0)
        p.endpoint = p.endpoint * np.exp(0.5j)  # endpoint no longer matches the lift
        with pytest.raises(AssertionError, match="det-lift"):
            evaluate_step(p)
