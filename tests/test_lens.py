import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lenselect.lens import (
    LensSpaceError,
    _reeb_numerator,
    new_lens,
)

TWO_PI = 2.0 * math.pi

# Every valid lens of the bench corpora, plus a huge k.
CORPUS_LENSES = [
    (2, (1, 1)), (2, (1, 1, 1)), (2, (1, 1, 1, 1)), (3, (1,)), (3, (1, 1)),
    (3, (1, 1, 1)), (3, (1, 1, 1, 1)), (3, (1, 2)), (4, (1, 3)), (4, (1, 1, 3, 3)),
    (5, (1, 1)), (5, (1, 1, 1)), (5, (1, 1, 1, 1)), (5, (1, 2)), (5, (1, 2, 3)),
    (7, (1, 1)), (7, (1, 1, 1)), (7, (1, 1, 1, 1)), (7, (1,) * 8), (7, (1, 2, 3, 4)),
    (10**8, (1, 1)),
]


def brute_force_period(k, weights):
    """Independent oracle: scan deck powers for simultaneous return times."""
    times = [TWO_PI]  # m = 0 always returns at a full turn
    for m in range(1, k):
        if all((m * (w - weights[0])) % k == 0 for w in weights):
            t = TWO_PI * ((m * weights[0]) % k) / k
            if t > 0:
                times.append(t)
    return min(times)


def reeb_numerator_scan(k, weights):
    """The O(k) scan over deck powers that the closed form replaced."""
    best = k
    for m in range(k):
        if any((m * (w - weights[0])) % k != 0 for w in weights):
            continue
        a = (m * weights[0]) % k
        if a == 0:
            a = k
        best = min(best, a)
    return best


class TestNewLens:
    def test_basic_fields(self):
        lens = new_lens(2, [1, 1])
        assert lens.n == 2
        assert lens.k_prime == 2
        assert lens.reeb_period == pytest.approx(math.pi, abs=1e-15)

    def test_equal_weights_period(self):
        lens = new_lens(3, [1, 1, 1])
        assert lens.n == 3
        assert lens.k_prime == 3
        assert lens.reeb_period == pytest.approx(TWO_PI / 3, abs=1e-15)

    def test_rejects_non_coprime(self):
        with pytest.raises(LensSpaceError, match="coprime"):
            new_lens(4, [2, 1])

    def test_rejects_small_k(self):
        with pytest.raises(LensSpaceError):
            new_lens(1, [1])
        with pytest.raises(LensSpaceError):
            new_lens(0, [1, 1])

    def test_rejects_empty_weights(self):
        with pytest.raises(LensSpaceError):
            new_lens(2, [])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(LensSpaceError):
            new_lens(3, [1, 0])

    def test_k_prime_composite(self):
        assert new_lens(4, [1, 3]).k_prime == 2
        assert new_lens(9, [1, 2]).k_prime == 3
        assert new_lens(6, [1, 5]).k_prime == 2

    def test_k_prime_of_huge_k(self):
        # factored on first read, by trial division up to 2**20
        assert new_lens(2**40 - 87, [1, 2]).k_prime == 2**40 - 87  # prime
        assert new_lens(1000003 * 1100009, [1, 2]).k_prime == 1000003  # above 2**40
        lens = new_lens(1000000000000037, [1, 2])  # prime, above 2**40
        with pytest.raises(LensSpaceError) as e:
            lens.k_prime
        assert e.value.field == "k"

    def test_k_bound(self):
        # k up to 2**53, the integers a float holds exactly
        lens = new_lens(2**53, [1, 1])
        assert lens.reeb_period == TWO_PI / 2**53
        assert lens.deck(1)[0, 0] == complex(math.cos(TWO_PI / 2**53), math.sin(TWO_PI / 2**53))
        for k, weights in ((2**53 + 1, [1, 1]), (2**64 + 1, [1, 2**64]), (10**400, [1, 1])):
            with pytest.raises(LensSpaceError, match="2\\*\\*53") as e:
                new_lens(k, weights)
            assert e.value.field == "k"

    def test_rejects_weights_not_a_list(self):
        with pytest.raises(LensSpaceError) as e:
            new_lens(3, 5)
        assert e.value.field == "weights"

    def test_degenerate_flag(self):
        assert new_lens(2, [1]).degenerate
        assert not new_lens(2, [1, 1]).degenerate

    def test_deck_reduces_weights_mod_k(self):
        # a weight far above k gives the phase of its residue, bit for bit
        far, near = new_lens(3, [1, 1000000]), new_lens(3, [1, 1])
        for m in (-2, 1, 5):
            assert (far.deck(m) == near.deck(m)).all()


class TestReebPeriod:
    def test_equal_weights_formula(self):
        # T_w = 2 pi / k whenever all weights agree mod k
        for k in (2, 3, 5, 7):
            lens = new_lens(k, [1] * 3)
            assert lens.reeb_period == pytest.approx(TWO_PI / k, abs=1e-15)
            assert lens.reeb_numerator == 1

    def test_general_weights_against_oracle(self):
        for k, w in [(5, [1, 2]), (4, [1, 3]), (7, [1, 2, 3]), (8, [1, 3, 5]),
                     (9, [1, 4, 7]), (12, [1, 5])]:
            lens = new_lens(k, w)
            assert lens.reeb_period == pytest.approx(
                brute_force_period(k, w), abs=1e-12
            )

    def test_l4_13_has_period_pi(self):
        # m = 2 gives 2*(3-1) = 4 = 0 mod 4, return time 2 pi * 2 / 4
        assert new_lens(4, [1, 3]).reeb_period == pytest.approx(math.pi)

    def test_l5_12_has_full_period(self):
        # no nonzero m with m*(2-1) = 0 mod 5, so only the full turn returns
        assert new_lens(5, [1, 2]).reeb_numerator == 5

    def test_period_in_range_and_lattice(self):
        for k, w in [(5, [1, 2]), (6, [1, 5]), (10, [1, 3, 7, 9])]:
            lens = new_lens(k, w)
            T = lens.reeb_period
            assert 0 < T <= TWO_PI + 1e-15
            # T_w is a multiple of 2 pi / k
            assert (T * k / TWO_PI) == pytest.approx(round(T * k / TWO_PI), abs=1e-12)

    def test_closed_form_matches_scan(self):
        # every lens with k < 25 and n <= 3, weights in 1..k-1 coprime to k
        count = 0
        for k in range(2, 25):
            units = [w for w in range(1, k) if math.gcd(w, k) == 1]
            for n in (1, 2, 3):
                for weights in itertools.product(units, repeat=n):
                    want = reeb_numerator_scan(k, weights)
                    assert _reeb_numerator(k, weights) == want, (k, weights)
                    count += 1
        assert count == 31433

    def test_huge_k(self):
        # the closed form does not scan the deck powers: k = 10^9 returns at once
        lens = new_lens(10**9, [1, 3])
        assert lens.reeb_numerator == 5 * 10**8  # gcd(10^9, 3 - 1) = 2
        assert lens.reeb_period == pytest.approx(math.pi)

    def test_substitution_identity(self):
        # the returned time corresponds to a single deck power for all weights
        for k, w in [(5, [1, 2]), (8, [1, 3, 5])]:
            lens = new_lens(k, w)
            a = lens.reeb_numerator
            hit = False
            for m in range(k):
                if all((a - m * wj) % k == 0 for wj in w):
                    hit = True
            assert hit


def round_to_period(lens, x, mode):
    """x rounded up ("ceil") or down ("floor") to the period lattice T_w Z,
    snapped: the value of the lens's period multiple."""
    return lens.period_value(lens.period_multiple(x, mode))


class TestRoundToPeriod:
    def test_examples(self):
        lens = new_lens(2, [1, 1])  # T_w = pi
        assert round_to_period(lens, 3.0, "ceil") == pytest.approx(math.pi)
        assert round_to_period(lens, math.pi, "floor") == pytest.approx(math.pi)
        lens3 = new_lens(3, [1, 1])  # T_w = 2 pi / 3
        assert round_to_period(lens3, -0.1, "floor") == pytest.approx(-TWO_PI / 3)

    def test_snap_to_multiple(self):
        lens = new_lens(2, [1, 1])
        x = 5 * math.pi + 1e-12  # noise above a multiple must snap down
        assert round_to_period(lens, x, "ceil") == pytest.approx(5 * math.pi)
        assert round_to_period(lens, x, "floor") == pytest.approx(5 * math.pi)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            round_to_period(new_lens(2, [1, 1]), 1.0, "round")
        with pytest.raises(ValueError):
            new_lens(3, [1, 1]).period_multiple(1.0, "Ceil")

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.sampled_from([(2, (1, 1)), (3, (1, 1)), (5, (1, 2)), (4, (1, 3))]))
    def test_floor_le_x_le_ceil(self, x, kw):
        lens = new_lens(kw[0], list(kw[1]))
        lo = round_to_period(lens, x, "floor")
        hi = round_to_period(lens, x, "ceil")
        slack = 1e-9 * max(1.0, abs(x)) + 1e-12
        assert lo <= x + slack
        assert hi >= x - slack
        assert hi - lo in (0.0,) or abs(hi - lo - lens.reeb_period) < 1e-9

    @given(st.integers(min_value=-1000, max_value=1000))
    def test_exact_multiples_fixed(self, m):
        lens = new_lens(3, [1, 1])
        x = lens.period_value(m)
        assert round_to_period(lens, x, "ceil") == x
        assert round_to_period(lens, x, "floor") == x

    def test_exact_fraction_representation(self):
        lens = new_lens(4, [1, 3])  # T_w = pi = 2 pi * 2/4
        num, den = lens.period_fraction(3)
        assert (num, den) == (3, 2)  # 3 T_w = 2 pi * 3/2

    @pytest.mark.parametrize("k, weights", CORPUS_LENSES)
    def test_fraction_in_lowest_terms(self, k, weights):
        lens = new_lens(k, weights)
        for m in range(-50, 51):
            f = Fraction(m * lens.reeb_numerator, k)
            assert lens.period_fraction(m) == (f.numerator, f.denominator), m
        assert lens.period_fraction(0) == (0, 1)
