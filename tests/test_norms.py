import json
import math

import numpy as np
import pytest

import lenselect.norms
import lenselect.paths
from lenselect.geodesic import lattice_norm_report, reeb_norm_report
from lenselect.lens import new_lens
from lenselect.maslov import evaluate_step
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
    EmbeddednessReport,
    UnitaryPath,
    identity_path,
    inverse_path,
    is_embedded,
    product_path,
    random_hermitian,
    random_path,
    reeb_path,
)
from lenselect.tolerances import PERIOD_SNAP_TOL
from lenselect.torus import constant_run_end

TWO_PI = 2 * math.pi

L2 = new_lens(2, [1, 1])
L3 = new_lens(3, [1, 1])
L5 = new_lens(5, [1, 2])

# diag(4.77, 2.78, 1.81) for 0.412, then diag(-4.68, -4.86, -7.5) for 0.298 on
# L_7(1,1,1): every slope changes sign at the node
SIGN_CHANGE = UnitaryPath(new_lens(7, [1, 1, 1]),
                          [(np.diag([4.77, 2.78, 1.81]), 0.412),
                           (np.diag([-4.68, -4.86, -7.5]), 0.298)])


def diagonal_paths(count, seed):
    """Seeded commuting paths: 1-3 diagonal segments with entries of size
    0.5-4; every other path has random signs per segment and eigenline."""
    rng = np.random.default_rng(seed)
    lenses = [new_lens(3, [1, 2]), new_lens(4, [1, 3]), new_lens(5, [1, 2, 3]),
              new_lens(7, [1, 1, 1])]
    paths = []
    for i in range(count):
        lens = lenses[i % len(lenses)]
        segs = []
        for d in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
            diag = rng.uniform(0.5, 4.0, size=lens.n)
            if i % 2:
                diag *= rng.choice([-1.0, 1.0], size=lens.n)
            segs.append((np.diag(diag), float(d)))
        paths.append(UnitaryPath(lens, segs))
    return paths


def _bisect_prefix(path, t):
    """The largest prefix end q such that is_embedded certifies [t, q],
    found by bisection (q == t when there is none), or None at the first
    indeterminate probe."""
    lo, hi, probe = t, 1.0, 1.0
    # invariant: (t, lo] certified embedded (or lo == t), hi not
    for _ in range(61):
        embedded = is_embedded(path, t, probe).embedded
        if embedded is None:
            return None
        if embedded:
            lo = probe
        else:
            hi = probe
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        probe = (lo + hi) / 2.0
    return lo


def _bisected_cut(path, pieces, slopes, commuting, t):
    """paths._next_cut with the cut bisected over is_embedded."""
    run = constant_run_end(path.starts, [lam for lam, _ in path._eig], t)
    if run > t + 1e-12:
        return run
    q = _bisect_prefix(path, t)
    return None if q is None or (q <= t + 1e-9 and q < 1.0) else q


def noncommuting_paths(count, seed):
    """Seeded random paths of 2-4 segments with norm bound 1-8 on lenses
    with a repeated weight class, so that the segments do not commute."""
    rng = np.random.default_rng(seed)
    lenses = [L3, new_lens(3, [1, 1, 1]), new_lens(5, [1, 1, 2]), new_lens(4, [1, 1, 3])]
    return [random_path(lenses[i % len(lenses)], rng, segments=int(rng.integers(2, 5)),
                        norm_bound=float(rng.uniform(1.0, 8.0))) for i in range(count)]


def bisection_reference(path):
    """The greedy decomposition with every cut bisected: the reference for
    the exact cuts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lenselect.paths, "_next_cut", _bisected_cut)
        return greedy_embedded_decomposition(path)


def summary(dec):
    return dec.count, dec.certified, dec.sign_definite


def count_is_embedded(monkeypatch, verdict=None):
    """Patch paths.is_embedded with a recorder of its (t0, t1) calls; it
    answers with the real verdict, or with `verdict` when one is given."""
    calls = []

    def counting(p, t0, t1, *args, **kwargs):
        calls.append((t0, t1))
        if verdict is not None:
            return verdict
        return is_embedded(p, t0, t1, *args, **kwargs)

    monkeypatch.setattr(lenselect.paths, "is_embedded", counting)
    return calls


def nu_star_loop(C, F, per):
    """The former O(per) search of nu_star: the smallest N in [F - per,
    C + per] minimizing max(C - N, N - F, 0), as (minimum, N)."""
    best_m, best_N = None, None
    for N in range(F - per, C + per + 1):
        m = max(C - N, N - F, 0)
        if best_m is None or m < best_m:
            best_m, best_N = m, N
    return best_m, best_N


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

    def test_closed_form_matches_loop(self):
        # per = ceil(2 pi / T_w) is 1, 2, 3 and 7 on these lenses; the
        # selectors C T_w and F T_w round back to exactly C and F
        lenses = [new_lens(5, [1, 2]), L2, L3, new_lens(7, [1, 1])]
        for lens in lenses:
            per = -((-lens.k) // lens.reeb_numerator)
            for C in range(-15, 16):
                for F in range(-15, C + 1):
                    cp, cm = lens.period_value(C), lens.period_value(F)
                    m, N = nu_star_loop(C, F, per)
                    if lens.period_value(m) > TWO_PI + lens.reeb_period + 1e-9:
                        with pytest.raises(AssertionError):
                            lattice_norm_report(lens, cp, cm, False)
                        continue
                    rep = lattice_norm_report(lens, cp, cm, False)
                    assert (rep.nu_star.multiple, rep.nu_star_shift.multiple) == (m, N), (
                        per, C, F)


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


    def test_lattice_reeb_counts(self):
        # kT / 2 pi = m exactly: a closed piece whose phase travel reaches
        # 2 pi / k is not embedded, so m + 1 pieces
        for k in (2, 3, 5, 7):
            for n in (2, 3):
                lens = new_lens(k, [1] * n)
                for T in (TWO_PI, 6 * math.pi, 20 * math.pi):
                    dec = greedy_embedded_decomposition(reeb_path(lens, T))
                    assert dec.certified and dec.sign_definite
                    assert dec.count == round(k * T / TWO_PI) + 1, (k, n, T)

    def test_exact_matches_bisection(self):
        # the bisection is the reference; the only allowed difference is a
        # reference that stops a hair before a node where a slope changes
        # sign and then cannot certify the sliver
        paths = [reeb_path(new_lens(k, [1, 1]), T) for k in (2, 3, 5, 7)
                 for T in (0.1, 2.0, TWO_PI, 6 * math.pi)]
        paths += diagonal_paths(40, seed=0)
        slivers = 0
        for p in paths:
            dec = greedy_embedded_decomposition(p)
            ref = bisection_reference(p)
            assert dec.breakpoints[0] == 0.0 and dec.breakpoints[-1] == 1.0
            if summary(dec) == summary(ref):
                continue
            slivers += 1
            assert dec.certified and not ref.certified
            assert any("cannot certify" in note for note in ref.notes)
            stop = ref.breakpoints[-2]  # start of the uncertified rest
            assert min(abs(stop - node) for node in p.starts[1:-1]) < 1e-9
        assert 0 < slivers < len(paths)

    def test_every_piece_embedded(self):
        for p in diagonal_paths(40, seed=0) + [SIGN_CHANGE]:
            dec = greedy_embedded_decomposition(p)
            assert dec.certified
            for a, b in zip(dec.breakpoints, dec.breakpoints[1:]):
                assert is_embedded(p, a, b).embedded is True, (a, b)

    def test_sign_change_cut_at_node(self):
        node = SIGN_CHANGE.starts[1]
        dec = greedy_embedded_decomposition(SIGN_CHANGE)
        assert summary(dec) == (6, True, True)
        assert node in dec.breakpoints
        # the bisection stops just short of the node and is left with a
        # mixed-sign sliver that no prefix can extend
        ref = bisection_reference(SIGN_CHANGE)
        assert summary(ref) == (4, False, False)

    def test_one_certificate_per_cut(self, monkeypatch):
        calls = count_is_embedded(monkeypatch)
        L7 = new_lens(7, [1, 1, 1])
        # slope 0.95 < 1: the cut must clear the 1e-12 threshold margin too
        for p in [reeb_path(L7, 20 * math.pi), reeb_path(L7, 0.95), SIGN_CHANGE,
                  *diagonal_paths(8, seed=1)]:
            calls.clear()
            dec = greedy_embedded_decomposition(p)
            assert len(calls) == dec.count
            assert calls == list(zip(dec.breakpoints, dec.breakpoints[1:]))

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

    def test_indeterminate_probe_stops(self, monkeypatch):
        # the certificate of a non-commuting path's first cut comes back
        # indeterminate, and that ends the decomposition with no further probe
        p = random_path(L3, np.random.default_rng(2))
        assert lenselect.paths._joint_eigendata(
            lenselect.paths._restrict_pieces(p, 0.0, 1.0), L3) is None
        first_cut = greedy_embedded_decomposition(p).breakpoints[1]
        verdict = EmbeddednessReport(None, "indeterminate", None, 0.0, "definite")
        calls = count_is_embedded(monkeypatch, verdict)
        dec = greedy_embedded_decomposition(p)
        assert calls == [(0.0, first_cut)]
        assert dec.breakpoints == [0.0, 1.0] and dec.count == 1
        assert not dec.certified
        assert dec.notes == ["cannot certify an embedded prefix at t = 0.0"]
        calls.clear()
        rep = norm_report(p, decompose=True)
        assert len(calls) == 1
        assert rep.dis_upper is None and rep.osc_upper is None

    def test_noncommuting_pieces_certified(self):
        # rules (a) and (b) cut every piece of a generic non-commuting path,
        # and no count falls below the selector lower bound
        for p in noncommuting_paths(20, seed=3):
            assert lenselect.paths._joint_eigendata(
                lenselect.paths._restrict_pieces(p, 0.0, 1.0), p.lens) is None
            dec = greedy_embedded_decomposition(p)
            assert dec.certified and not dec.notes
            for a, b in zip(dec.breakpoints, dec.breakpoints[1:]):
                assert is_embedded(p, a, b).embedded is True, (a, b)
            assert dec.count >= selector_lower_bounds(p)["dis"]

    def test_definite_noncommuting_osc_upper(self):
        # three definite segments that do not commute: each piece is
        # sign-definite, so the count bounds the oscillation length too, and
        # some pieces cross a node on rule (b)'s certificate
        rng = np.random.default_rng(11)
        methods = set()
        for sign in (1.0, -1.0):
            segs = [(sign * (random_hermitian(L3, rng, 6.0, semidefinite="pos")
                             + 0.1 * np.eye(2)), d) for d in (0.3, 0.3, 0.4)]
            p = UnitaryPath(L3, segs)
            rep = norm_report(p, decompose=True)
            assert rep.osc_upper is not None
            assert rep.osc_upper == rep.dis_upper >= max(rep.osc_lower, rep.dis_lower)
            dec = greedy_embedded_decomposition(p)
            for a, b in zip(dec.breakpoints, dec.breakpoints[1:]):
                methods.add(is_embedded(p, a, b).method)
        assert "definite" in methods

    def test_short_segment_not_stationary(self):
        # a 1e-13 segment with nonzero slopes is monotone, not stationary
        p = UnitaryPath(new_lens(7, [1, 1, 1]),
                        [(np.diag([3.0, 2.0, 1.0]), 0.5),
                         (np.diag([3.0, 2.0, 1.5]), 1e-13),
                         (np.diag([2.0, 2.0, 1.0]), 0.5)])
        dec = greedy_embedded_decomposition(p)
        assert dec.certified and dec.sign_definite and not dec.notes
        rep = is_embedded(p, 0.45, 0.55)
        assert rep.status == "embedded" and rep.method == "commuting-exact"


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
        # T within the period snap of 0 is the constant path: one piece
        for T in (0.1, 5e-10, 5e-12, 0.0):
            rep = geodesic_report(new_lens(2, [1, 1, 1]), T)
            assert rep.verdict == "certified" and rep.lower == rep.upper == 1, T

    def test_geodesic_gap(self):
        rep = geodesic_report(new_lens(4, [1, 3]), 6 * math.pi)
        assert rep.verdict == "gap"
        assert rep.lower == 7  # floor(6 pi / pi) + 1
        assert rep.upper == 13  # floor(4 * 6 pi / 2 pi) + 1
        assert rep.lower <= rep.upper

    def test_geodesic_rejects_negative(self):
        with pytest.raises(ValueError):
            geodesic_report(L2, -1.0)

    def test_geodesic_snapped_lattice(self):
        # T within the period snap of m * 2 pi / k: greedy count, selector
        # bound and orbit count all see the snapped T, and the report echoes
        # the T it was given
        for k in (2, 3, 7):
            lens = new_lens(k, [1, 1])
            for m in (1, 3, 10):
                for offset in (-1e-11, 0.0, 1e-11):
                    T = m * TWO_PI / k * (1.0 + offset)
                    rep = geodesic_report(lens, T)
                    assert rep.T == T
                    assert rep.verdict == "certified", (k, m, offset)
                    assert rep.lower == rep.upper == rep.greedy_count == m + 1, (k, m, offset)

    def test_geodesic_refuses_a_snap_wider_than_its_limit(self):
        # at kT/2pi = 4e8 + 0.6 the snap, 1e-9 T, spans 0.4 of a step and
        # would count the nearest multiple, 4e8 + 1, instead of the floor
        with pytest.raises(ValueError, match="period snap spans"):
            geodesic_report(new_lens(3, [1, 1]), (4e8 + 0.6) * TWO_PI / 3)
        rep = geodesic_report(new_lens(3, [1, 1]), (10**6 - 0.0011) * TWO_PI / 3)
        assert rep.lower == rep.upper == 10**6

    def test_geodesic_certificate_checks_the_selector_bound(self):
        # a lens whose period lattice is not 2 pi / k although its weights are
        # equal breaks lower = r + 1, and the report refuses to certify
        lens = new_lens(4, [1, 1])._replace(reeb_numerator=2)
        with pytest.raises(AssertionError, match="geodesic certificate failed"):
            geodesic_report(lens, 3 * math.pi / 2)


# The lenses and relative T offsets of the greedy cross-check.  0 and +-1e-11
# lie within the snap, 1e-9 max(1, T), of m 2 pi / k, and +-1e-6 outside it;
# +-3e-9 lies outside it unless m 2 pi / k < 1/3 (e.g. k = 1000, m = 1).
GREEDY_LENSES = [new_lens(k, [1] * n) for k in (2, 3, 5, 7, 1000) for n in (1, 2, 4)] + [
    new_lens(4, [1, 3]), new_lens(5, [1, 2, 3])]
GREEDY_OFFSETS = (0.0, 1e-11, -1e-11, 3e-9, -3e-9, 1e-6, -1e-6)


def _greedy_cases(m):
    """Every lens and offset at m <= 10.  A greedy run costs about 0.4 ms
    per piece, so at m = 500 and m = 999 one case runs per k, just outside
    the snap, where the count is floor(kT / 2 pi) + 1 and not the nearest
    multiple; the lenses' n rotate and k = 1000, the finest lattice, runs
    at m = 999."""
    if m <= 10:
        return [(lens, off) for lens in GREEDY_LENSES for off in GREEDY_OFFSETS]
    if m == 500:
        return [(new_lens(2, [1, 1, 1, 1]), -3e-9), (new_lens(3, [1]), 3e-9),
                (new_lens(5, [1, 1]), -3e-9), (new_lens(7, [1, 1, 1, 1]), 3e-9),
                (new_lens(4, [1, 3]), -3e-9), (new_lens(5, [1, 2, 3]), 3e-9)]
    return [(new_lens(1000, [1, 1]), -3e-9)]


@pytest.mark.parametrize("m", [1, 10, 500, 999])
def test_geodesic_report_matches_greedy_and_selector_bound(m):
    # the arithmetic report against the reference it replaced: the greedy
    # decomposition and the selector chain of the Reeb path at snapped T
    for lens, off in _greedy_cases(m):
        lattice = m * TWO_PI / lens.k
        T = lattice * (1.0 + off)
        Ts = lattice if abs(T - lattice) <= PERIOD_SNAP_TOL * max(1.0, T) else T
        rep = geodesic_report(lens, T)
        path = reeb_path(lens, Ts)
        dec = greedy_embedded_decomposition(path)
        assert dec.certified, (lens, m, off)
        assert (rep.lower, rep.upper, rep.greedy_count, rep.verdict) == (
            selector_lower_bounds(path)["dis"], dec.count, dec.count,
            "certified" if lens.equal_weights else "gap"), (lens, m, off)


# The lenses of the Reeb-path norms cross-check: k from 2 to 7, n from 1 to
# 8, equal and general weights.
REEB_LENSES = [new_lens(3, [1]), new_lens(3, [1, 1]), new_lens(2, [1, 1, 1]),
               new_lens(5, [1, 2, 3]), new_lens(4, [1, 3]), new_lens(7, [1] * 8)]

# -1e-9, the lower edge of the snap of 0, and the float above it: there the
# reference's selectors round off past the edge (test below).
SNAP_EDGE = (-1e-9, math.nextafter(-1e-9, 0.0))


def _reeb_times(lens, rng):
    """Uniform T in [-40, 40]; 0 and +-1e-13; +-1e-9, the edges of the snap
    of 0, and their neighbouring floats; m 2 pi / k and m T_w, exactly and
    3e-9 max(1, |x|) off, just outside their snap."""
    Ts = [float(T) for T in rng.uniform(-40.0, 40.0, 12)] + [0.0, -0.0, 1e-13, -1e-13]
    for edge in (1e-9, -1e-9):
        Ts += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2 * edge)]
    for step in (TWO_PI / lens.k, lens.reeb_period):
        for m in (1, 2, 7, -1, -5):
            x = m * step
            off = 3 * PERIOD_SNAP_TOL * max(1.0, abs(x))
            Ts += [x, x - off, x + off]
    return Ts


@pytest.mark.parametrize("lens", REEB_LENSES, ids=lambda lens: f"L{lens.k}{lens.weights}")
def test_reeb_norm_report_matches_reference(lens):
    # the arithmetic report against the reference it replaced on Reeb
    # paths: the selector chain and the greedy decomposition
    rng = np.random.default_rng(lens.k * 10 + lens.n)
    for T in _reeb_times(lens, rng):
        if T in SNAP_EDGE:
            continue
        path = reeb_path(lens, T)
        for decompose in (False, True):
            got = json.dumps(reeb_norm_report(lens, T, decompose).as_dict(), sort_keys=True)
            want = json.dumps(norm_report(path, decompose).as_dict(), sort_keys=True)
            assert got == want, (T, decompose)


def test_reeb_norms_read_exact_selectors_at_the_snap_edge():
    # c_+ = c_- = T, so T = -1e-9 snaps to 0 as T = 1e-9 does, and the
    # report equals the reference's on the inverse path.  The reference
    # reads c_+ off the endpoint phase taken in [0, 2 pi): (2 pi + T) - 2 pi
    # in floats, -1.00000008e-9, just outside the snap, so it reports nu = 1
    for lens in REEB_LENSES:
        for T in SNAP_EDGE:
            path = reeb_path(lens, T)
            cp = evaluate_step(path).selector(0)
            assert cp == (TWO_PI + T) - TWO_PI < -PERIOD_SNAP_TOL
            for decompose in (False, True):
                got = reeb_norm_report(lens, T, decompose).as_dict()
                assert got == norm_report(reeb_path(lens, -T), decompose).as_dict()
                assert got["nu"]["num"] == 0
                assert norm_report(path, decompose).nu.multiple == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: reeb_norm_report counts the snapped "
                   "r + 1 pieces, the greedy on reeb_path one fewer just below a multiple "
                   "of 2 pi / k on general weights")
@pytest.mark.parametrize("k, weights, T", [(6, [1, 5], 25.132741227718345),
                                           (5, [1, 2, 3], -30.159289473462014)])
def test_reeb_norms_match_the_reference_below_a_snapped_multiple(k, weights, T):
    # reeb_norm_report gives dis_upper = osc_upper = 25 here, the reference 24
    lens = new_lens(k, weights)
    assert (reeb_norm_report(lens, T, True).as_dict()
            == norm_report(reeb_path(lens, T), True).as_dict())


def test_reeb_norm_upper_bound_follows_the_snap():
    # L_3(1,1), T = 2 pi - 1e-10 lies within the snap of 2 pi = 3 T_w: the
    # selector bound counts floor(3) + 1 = 4 pieces, and so do the upper
    # bounds, as geodesic_report does.  The greedy's own 1e-12 margins count
    # floor(3T / 2 pi) + 1 = 3 there, below the lower bound.
    T = TWO_PI - 1e-10
    rep = reeb_norm_report(L3, T, decompose=True)
    assert rep.dis_lower == rep.dis_upper == rep.osc_upper == 4
    assert rep.dis_upper == geodesic_report(L3, T).upper
    assert greedy_embedded_decomposition(reeb_path(L3, T)).count == 3


def test_norm_report_evaluates_the_step_function_once(monkeypatch):
    # every field of the report is lattice arithmetic on the one selector
    # pair, with or without the greedy
    calls = []

    def counting(path, *args, **kwargs):
        calls.append(path)
        return evaluate_step(path, *args, **kwargs)

    monkeypatch.setattr(lenselect.norms, "evaluate_step", counting)
    lens = new_lens(7, [1] * 8)
    rng = np.random.default_rng(23)
    for _ in range(3):
        p = random_path(lens, rng, segments=3)
        for decompose in (False, True):
            calls.clear()
            norm_report(p, decompose)
            assert len(calls) == 1, decompose
