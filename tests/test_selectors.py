import math

import numpy as np
import pytest

from lenselect.lens import new_lens
from lenselect.paths import (
    UnitaryPath,
    identity_path,
    product_path,
    random_path,
    reeb_path,
    reeb_shift,
)
from lenselect.selectors import (
    c_minus,
    c_plus,
    selector,
    selector_range,
    time_function,
)

TWO_PI = 2 * math.pi

L2 = new_lens(2, [1, 1])
L3 = new_lens(3, [1, 1])


class TestIdentityTable:
    def test_identity_selectors(self):
        # c_j(id) = 2 pi ceil(j / 2n)
        for lens in (L2, L3, new_lens(2, [1, 1, 1])):
            p = identity_path(lens)
            n2 = 2 * lens.n
            for j in range(-2 * n2 + 1, n2 + 1):
                want = TWO_PI * math.ceil(j / n2)
                assert selector(p, j) == pytest.approx(want, abs=1e-9), j

    def test_c_plus_minus_identity(self):
        assert c_plus(identity_path(L2)) == pytest.approx(0.0, abs=1e-12)
        assert c_minus(identity_path(L2)) == pytest.approx(0.0, abs=1e-12)


class TestReeb:
    def test_c0_equals_time(self):
        for lens in (L2, L3):
            for T in (0.3, math.pi, 5.0):
                assert c_plus(reeb_path(lens, T)) == pytest.approx(T, abs=1e-9)

    def test_reeb_full_turn_shifts_table(self):
        p = reeb_path(L2, TWO_PI)
        q = identity_path(L2)
        for j in range(-4, 5):
            assert selector(p, j) == pytest.approx(
                selector(q, j) + TWO_PI, abs=1e-9
            )

    def test_composition_with_reeb(self):
        # c_j(r_T . p) = c_j(p) + T, exactly at the lattice level
        p = random_path(L2, np.random.default_rng(0))
        T = 1.234
        q = reeb_shift(p, -T)  # r_T . p
        for j in (-2, 0, 1):
            assert selector(q, j) == pytest.approx(selector(p, j) + T, abs=1e-9)


class TestDiagonal:
    def setup_method(self):
        self.a, self.b = 0.7, 2.1
        self.p = UnitaryPath(L2, [(np.diag([self.a, self.b]), 1.0)])

    def test_values_in_spectrum(self):
        for j in range(-4, 5):
            c = selector(self.p, j)
            d = min(
                abs(c - ph - TWO_PI * m)
                for ph in (self.a, self.b)
                for m in range(-3, 4)
            )
            assert d < 1e-9

    def test_each_phase_selected_twice_per_window(self):
        # simple eigenphases have real multiplicity two
        vals = [selector(self.p, j) for j in range(1, 5)]
        hits_a = sum(
            any(abs(v - self.a - TWO_PI * m) < 1e-9 for m in range(-2, 3))
            for v in vals
        )
        assert hits_a == 2

    def test_monotone_in_j(self):
        vals = [selector(self.p, j) for j in range(-6, 7)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_periodicity(self):
        for j in (-3, 0, 2):
            assert selector(self.p, j + 4) == pytest.approx(
                selector(self.p, j) + TWO_PI, abs=1e-9
            )


class TestSelectorRange:
    def test_report_fields(self):
        rep = selector_range(identity_path(L2), -3, 2)
        assert rep.values[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.c_plus == rep.values[0]
        assert L2.period_multiple(rep.values[2], "ceil") == 2  # c_2 = 2 pi = 2 T_w on L_2

    def test_bad_range(self):
        with pytest.raises(ValueError):
            selector_range(identity_path(L2), 2, -2)


class TestTimeFunction:
    def test_identity_basis_gives_c0(self):
        p = random_path(L2, np.random.default_rng(1))
        tau = time_function(p, [identity_path(L2)])
        assert tau == pytest.approx(c_plus(p), abs=1e-9)

    def test_shift_property(self):
        basis = [identity_path(L2), reeb_path(L2, math.pi)]
        p = random_path(L2, np.random.default_rng(2))
        T = 0.8
        assert time_function(reeb_shift(p, -T), basis) == pytest.approx(
            time_function(p, basis) + T, abs=1e-8
        )

    def test_two_element_basis_by_hand(self):
        basis = [identity_path(L2), reeb_path(L2, math.pi)]
        p = reeb_path(L2, 1.0)
        w1 = 1.0 / 2.0
        w2 = 1.0 / (4.0 * math.pi)
        want = (w1 * 1.0 + w2 * c_plus(product_path(p, basis[1]))) / (w1 + w2)
        assert time_function(p, basis) == pytest.approx(want, abs=1e-9)

    def test_truncation_and_validation(self):
        basis = [identity_path(L2), reeb_path(L2, 1.0)]
        p = reeb_path(L2, 2.0)
        assert time_function(p, basis, J=1) == pytest.approx(2.0, abs=1e-9)
        with pytest.raises(ValueError):
            time_function(p, basis, J=3)
        with pytest.raises(ValueError):
            time_function(p, [])
