import math

import numpy as np
import pytest

from lenselect.lens import new_lens
from lenselect.norms import (
    geodesic_report,
    greedy_embedded_decomposition,
    is_identity_class,
    norm_report,
    nu,
    nu_star,
    selector_lower_bounds,
)
from lenselect.paths import (
    UnitaryPath,
    identity_path,
    inverse_path,
    product_path,
    random_path,
    reeb_path,
)

TWO_PI = 2 * math.pi

L2 = new_lens(2, [1, 1])
L3 = new_lens(3, [1, 1])
L5 = new_lens(5, [1, 2])


class TestNu:
    def test_identity_zero(self):
        assert nu(identity_path(L2)).value == 0.0
        assert nu(identity_path(L2), "prime").value == 0.0

    def test_reeb_multiples(self):
        for lens in (L2, L3):
            Tw = lens.reeb_period
            for m in (1, 2, 5):
                v = nu(reeb_path(lens, m * Tw))
                assert v.multiple == m
                assert v.value == pytest.approx(m * Tw, abs=1e-9)

    def test_symmetry(self):
        p = random_path(L2, np.random.default_rng(0))
        assert nu(p).multiple == nu(inverse_path(p)).multiple

    def test_exact_fraction(self):
        v = nu(reeb_path(new_lens(4, [1, 3]), 3 * math.pi))  # T_w = pi
        assert (v.num, v.den) == (3, 2)  # 3 pi = 2 pi * 3/2

    def test_prime_floor_on_nonidentity(self):
        # nu' agrees with nu away from the identity class and never sits
        # strictly between 0 and T_w
        p = reeb_path(L2, math.pi)
        assert not is_identity_class(p)
        assert nu(p, "prime").multiple == max(nu(p).multiple, 1) == 1
        rng = np.random.default_rng(5)
        for _ in range(5):
            q = random_path(L2, rng)
            m = nu(q, "prime").multiple
            assert m == 0 if is_identity_class(q) else m >= 1

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            nu(identity_path(L2), "dual")


class TestNuStar:
    def test_reeb_shifts_away(self):
        # nu*(r_{m T_w}) = 0: the deck shift undoes the whole rotation
        for m in (1, 3):
            star, shift = nu_star(reeb_path(L2, m * L2.reeb_period))
            assert star.multiple == 0
            assert shift.multiple == m

    def test_identity(self):
        star, shift = nu_star(identity_path(L2))
        assert star.multiple == 0 and shift.multiple == 0

    def test_bounded_random(self):
        rng = np.random.default_rng(1)
        for lens in (L2, L5):
            bound = TWO_PI + lens.reeb_period + 1e-9
            for _ in range(10):
                star, _ = nu_star(random_path(lens, rng))
                assert star.value <= bound

    def test_dominated_by_nu(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_path(L3, rng)
            assert nu_star(p)[0].multiple <= nu(p).multiple


class TestGreedy:
    def test_identity_single_piece(self):
        dec = greedy_embedded_decomposition(identity_path(L2))
        assert dec.count == 1
        assert dec.certified

    def test_short_reeb_single_piece(self):
        dec = greedy_embedded_decomposition(reeb_path(L3, 0.9 * TWO_PI / 3))
        assert dec.count == 1 and dec.certified and dec.sign_definite

    def test_reeb_orbit_counts(self):
        # floor(k T / 2 pi) + 1 pieces, matching closed-orbit counts
        for k in (2, 3, 5):
            lens = new_lens(k, [1, 1])
            for T in (0.1, 2.0, TWO_PI, 6 * math.pi):
                dec = greedy_embedded_decomposition(reeb_path(lens, T))
                assert dec.certified
                assert dec.count == math.floor(k * T / TWO_PI + 1e-9) + 1, (k, T)

    def test_breakpoints_monotone(self):
        dec = greedy_embedded_decomposition(reeb_path(L2, 5.0))
        cuts = dec.breakpoints
        assert cuts[0] == 0.0 and cuts[-1] == 1.0
        assert all(a < b for a, b in zip(cuts, cuts[1:]))


    def test_stationary_eigenline_uncertified(self):
        # one eigenline pinned at 0: U_t U_s^{-1} fixes it for every s < t,
        # so no prefix is embedded and the decomposition is not certified
        lens = new_lens(5, [1, 2, 3])
        p = UnitaryPath(lens, [(np.diag([0.0, 2.0, 5.0]), 0.4),
                               (np.diag([0.0, 4.0, 1.0]), 0.6)])
        dec = greedy_embedded_decomposition(p)
        assert not dec.certified
        assert dec.breakpoints[0] == 0.0 and dec.breakpoints[-1] == 1.0
        assert any("cannot certify" in note for note in dec.notes)
        rep = norm_report(p, decompose=True)
        assert rep.dis_upper is None and rep.osc_upper is None


class TestSelectorBounds:
    def test_reeb_lower_bound(self):
        for k in (2, 3):
            lens = new_lens(k, [1, 1])
            T = 6.0
            b = selector_lower_bounds(reeb_path(lens, T))
            assert b["dis"] == math.floor(k * T / TWO_PI) + 1

    def test_identity_trivial(self):
        b = selector_lower_bounds(identity_path(L2))
        assert b["dis"] == 0 and b["osc"] == 0

    def test_osc_matches_nu(self):
        p = random_path(L2, np.random.default_rng(3))
        assert selector_lower_bounds(p)["osc"] == nu(p).multiple


class TestOrderCompatibility:
    def test_product_subadditive(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = random_path(L2, rng)
            q = random_path(L2, rng)
            r = product_path(p, q)
            assert nu(r).multiple <= nu(p).multiple + nu(q).multiple


class TestReports:
    def test_norm_report_dict(self):
        rep = norm_report(reeb_path(L2, 3 * math.pi), decompose=True)
        d = rep.as_dict()
        assert d["nu"]["approx"] == pytest.approx(3 * math.pi, abs=1e-9)
        assert d["nu_star"]["approx"] == 0.0
        assert d["dis_upper"] == 4  # floor(2 * 3 pi / 2 pi) + 1
        assert d["dis_lower"] == 4

    def test_geodesic_certified(self):
        rep = geodesic_report(L3, 4 * math.pi)
        assert rep.verdict == "certified"
        assert rep.lower == rep.upper == rep.greedy_count == 7

    def test_geodesic_tiny(self):
        rep = geodesic_report(new_lens(2, [1, 1, 1]), 0.1)
        assert rep.verdict == "certified" and rep.upper == 1

    def test_geodesic_gap(self):
        rep = geodesic_report(new_lens(4, [1, 3]), 6 * math.pi)
        assert rep.verdict == "gap"
        assert rep.lower == 7  # floor(6 pi / pi) + 1
        assert rep.upper == 13  # floor(4 * 6 pi / 2 pi) + 1
        assert rep.lower <= rep.upper

    def test_geodesic_rejects_negative(self):
        with pytest.raises(ValueError):
            geodesic_report(L2, -1.0)
