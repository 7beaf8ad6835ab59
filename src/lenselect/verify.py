"""Seeded verification suites for every module-level invariant.

Each check runs a batch of randomized (or closed-form) trials and reports
{name, property, trials, failures, worst_margin, pass}; margins are oriented
so that nonnegative means satisfied.  All randomness flows from the root
seed, so reports are byte-identical across runs with the same configuration.
"""

import math
import zlib

import numpy as np

from . import quadratic
from .geodesic import geodesic_report
from .jobs import VERIFY_SUITES
from .lens import TWO_PI, new_lens
from .maslov import maslov_index, maslov_shifted, subdivide
from .norms import (
    greedy_embedded_decomposition,
    norm_report,
    nu,
    nu_star,
    selector_lower_bounds,
)
from .paths import (
    UnitaryPath,
    action_spectrum,
    append_segment,
    conjugate_path,
    haar_unitary,
    identity_path,
    inverse_path,
    is_embedded,
    product_path,
    random_hermitian,
    random_path,
    reeb_path,
    reeb_shift,
    translated_points,
)
from .quadratic import (
    InvariantQuadraticForm,
    cayley_gf,
    direct_sum,
    index,
    realify,
    rotation_matrix,
    sharp,
    zero_form,
)
from .selectors import c_minus, c_plus, selector, selector_range, time_function
from .torus import TorusPath, evaluate_step, subdivision_count


def _lens_set():
    return [new_lens(2, [1, 1]), new_lens(3, [1, 1]), new_lens(4, [1, 3])]


def _rng(seed, tag):
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


class Check:
    def __init__(self, name, prop):
        self.name = name
        self.property = prop
        self.trials = 0
        self.failures = 0
        self.worst = math.inf
        self.examples = []

    def record(self, margin, detail=None):
        self.trials += 1
        margin = float(margin)
        if margin < self.worst:
            self.worst = margin
        if margin < 0:
            self.failures += 1
            if detail and len(self.examples) < 3:
                self.examples.append(detail)

    def as_dict(self):
        out = {
            "name": self.name,
            "property": self.property,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": None if math.isinf(self.worst) else self.worst,
            "pass": self.failures == 0,
        }
        if self.examples:
            out["examples"] = self.examples
        return out


# --- quadratic_core ---


def _random_invariant_form(rng, k_prime, M):
    """Nondegenerate invariant form: random symmetric, group-averaged."""
    phases = TWO_PI * rng.integers(1, k_prime, size=M) / k_prime if k_prime > 1 \
        else np.zeros(M)
    R = rotation_matrix(phases)
    for _ in range(50):
        S = rng.normal(size=(2 * M, 2 * M))
        S = (S + S.T) / 2.0
        Sbar = np.zeros_like(S)
        P = np.eye(2 * M)
        for _ in range(k_prime):
            Sbar += P.T @ S @ P
            P = P @ R
        Sbar /= k_prime
        lam = np.linalg.eigvalsh(Sbar)
        if np.abs(lam).min() > 1e-6 * np.abs(lam).max():
            return InvariantQuadraticForm(Sbar, 2 * M, phases, k_prime).validate()
    raise RuntimeError("failed to draw a nondegenerate invariant form")


def _vec(z):
    v = np.empty(2 * z.shape[0])
    v[0::2] = z.real
    v[1::2] = z.imag
    return v


def suite_quadratic_core(trials, seed):
    checks = []

    ck = Check("index-duality", "index(Q) + index(-Q) = 2M on nondegenerate forms")
    rng = _rng(seed, "index-duality")
    for kp in (2, 3, 5):
        for _ in range(max(trials // 3, 10)):
            M = int(rng.integers(2, 6))
            Q = _random_invariant_form(rng, kp, M)
            ck.record(0 if index(Q) + index(Q.negate()) == 2 * M else -1,
                      {"k_prime": kp, "M": M})
    checks.append(ck)

    ck = Check("index-evenness", "index(Q) even when the smallest prime factor > 2")
    rng = _rng(seed, "index-evenness")
    for kp in (3, 5, 7):
        for _ in range(max(trials // 3, 10)):
            Q = _random_invariant_form(rng, kp, int(rng.integers(2, 6)))
            ck.record(0 if index(Q) % 2 == 0 else -1, {"k_prime": kp})
    checks.append(ck)

    ck = Check("direct-sum", "index additivity under the block direct sum")
    rng = _rng(seed, "direct-sum")
    for _ in range(trials):
        kp = int(rng.choice([2, 3, 5]))
        Q1 = _random_invariant_form(rng, kp, int(rng.integers(1, 4)))
        Q2 = _random_invariant_form(rng, kp, int(rng.integers(1, 4)))
        s = direct_sum(Q1, Q2)
        ck.record(0 if index(s) == index(Q1) + index(Q2) else -1)
    checks.append(ck)

    ck = Check("cayley-contract",
               "dW(q) = i(z - Uz) at q = (z + Uz)/2 for the Cayley form")
    rng = _rng(seed, "cayley-contract")
    lens = new_lens(2, [1, 1, 1])
    n = lens.n
    for _ in range(max(trials // 5, 5)):
        U = haar_unitary(n, rng)
        if np.abs(np.linalg.eigvals(U) + 1).min() < 1e-3:
            continue
        Q = cayley_gf(U, lens).validate()
        worst = 0.0
        for _ in range(20):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            q = (z + U @ z) / 2.0
            resid = np.linalg.norm(realify(Q.matrix) @ _vec(q) - _vec(1j * (z - U @ z)))
            worst = max(worst, resid)
        ck.record(1e-9 * (1 + np.linalg.norm(U, 2)) - worst)
    checks.append(ck)

    ck = Check("cayley-rotation",
               "cayley form of e^{i theta} I is tan(theta/2) |q|^2, with "
               "definite signs near theta = 0")
    rng = _rng(seed, "cayley-rotation")
    for _ in range(trials):
        theta = rng.uniform(-math.pi + 0.3, math.pi - 0.3)
        Q = cayley_gf(np.exp(1j * theta) * np.eye(lens.n), lens)
        err = np.linalg.norm(realify(Q.matrix)
                             - 2 * math.tan(theta / 2) * np.eye(2 * lens.n))
        ck.record(1e-9 * (1 + abs(math.tan(theta / 2))) - err)
    eps = 0.01
    ck.record(0 if index(cayley_gf(np.exp(1j * eps) * np.eye(lens.n), lens)) == 0
              else -1)
    ck.record(0 if index(cayley_gf(np.exp(-1j * eps) * np.eye(lens.n), lens))
              == 2 * lens.n else -1)
    checks.append(ck)

    ck = Check("sharp-bookkeeping",
               "dim(F # G) = 3*2n + fibers; zero # zero has index 4n")
    rng = _rng(seed, "sharp-bookkeeping")
    for lens2 in _lens_set():
        z = zero_form(lens2)
        s = sharp(z, z)
        ck.record(0 if s.total_dim == 6 * lens2.n else -1)
        ck.record(0 if index(s) == 4 * lens2.n else -1)
        F = cayley_gf(np.diag(np.exp(1j * rng.uniform(-1, 1, lens2.n))), lens2)
        G = cayley_gf(np.diag(np.exp(1j * rng.uniform(-1, 1, lens2.n))), lens2)
        s2 = sharp(F, G)
        ck.record(0 if s2.total_dim == F.total_dim + G.total_dim + 2 * lens2.n
                  else -1)
    checks.append(ck)

    ck = Check("sharp-restriction",
               "(F # G) pulled back along (z, nu1, nu2) -> (z, z, z, nu1, nu2) "
               "is the shared-base sum, whose index bounds index(F # G) below")
    rng = _rng(seed, "sharp-restriction")
    for _ in range(trials):
        lens2 = _lens_set()[int(rng.integers(0, 3))]
        n = lens2.n
        n2 = 2 * n
        F = cayley_gf(np.diag(np.exp(1j * rng.uniform(-2, 2, n))), lens2)
        G0 = cayley_gf(np.diag(np.exp(1j * rng.uniform(-2, 2, n))), lens2)
        G = sharp(G0, cayley_gf(np.diag(np.exp(1j * rng.uniform(-1, 1, n))), lens2))
        sh = sharp(F, G)
        fF, fG = F.fiber_dim, G.fiber_dim
        iota = np.zeros((sh.total_dim, n2 + fF + fG))
        iota[0:n2, 0:n2] = np.eye(n2)  # q = z
        iota[n2:2 * n2, 0:n2] = np.eye(n2)  # z1 = z
        iota[2 * n2:3 * n2, 0:n2] = np.eye(n2)  # z2 = z
        iota[3 * n2:3 * n2 + fF, n2:n2 + fF] = np.eye(fF)
        iota[3 * n2 + fF:, n2 + fF:] = np.eye(fG)
        pulled = iota.T @ realify(sh.matrix) @ iota
        # same form assembled directly: F(z, nu1) + G(z, nu2); the coupling
        # term vanishes on the diagonal z1 = z2 = q
        direct = np.zeros_like(pulled)
        z = slice(0, n2)
        v1 = slice(n2, n2 + fF)
        v2 = slice(n2 + fF, n2 + fF + fG)
        SF, SG = realify(F.matrix), realify(G.matrix)
        direct[z, z] += SF[:n2, :n2] + SG[:n2, :n2]
        direct[z, v1] += SF[:n2, n2:]
        direct[v1, z] += SF[n2:, :n2]
        direct[v1, v1] += SF[n2:, n2:]
        direct[z, v2] += SG[:n2, n2:]
        direct[v2, z] += SG[n2:, :n2]
        direct[v2, v2] += SG[n2:, n2:]
        err = np.linalg.norm(pulled - direct)
        ok_pull = err <= 1e-10 * max(1.0, np.linalg.norm(direct))
        shared = InvariantQuadraticForm(
            pulled, n2,
            np.concatenate([F.action_phases[:n], F.action_phases[n:],
                            G.action_phases[n:]]),
            lens2.k_prime,
        )
        ok_ind = index(shared) <= index(sh)
        ck.record(0 if (ok_pull and ok_ind) else -1)
    checks.append(ck)

    ck = Check("based-family-base", "ind(F_0) = 2nN recomputed for N up to 6")
    for lens2 in _lens_set()[:2]:
        z = zero_form(lens2)
        F = z
        for N in range(2, 7):
            F = sharp(F, z)
            ck.record(0 if index(F) == 2 * lens2.n * N else -1, {"N": N})
    checks.append(ck)

    return checks


# --- maslov_props ---


def suite_maslov_props(trials, seed):
    checks = []

    ck = Check("reeb-values", "mu(reeb_T) = 2n ceil(T / 2 pi)")
    for k, n in ((2, 1), (3, 2), (5, 3)):
        lens = new_lens(k, [1] * n)
        for T in (-0.1, 1.0, math.pi, TWO_PI, TWO_PI + 0.1, 6 * math.pi):
            want = 2 * n * math.ceil(T / TWO_PI - 1e-12)
            got = maslov_index(reeb_path(lens, T))
            ck.record(0 if got == want else -1, {"k": k, "n": n, "T": T})
    checks.append(ck)

    ck = Check("subdivision-invariance", "mu agrees across three subdivisions")
    rng = _rng(seed, "subdivision")
    for _ in range(max(trials // 2, 10)):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng, segments=int(rng.integers(1, 4)))
        base = subdivide(p)
        mids = (base[:-1] + base[1:]) / 2.0
        fine = np.unique(np.concatenate([base, mids]))
        finer = np.unique(np.concatenate([fine, (fine[:-1] + 2 * fine[1:]) / 3.0]))
        vals = {maslov_index(p, breakpoints=b) for b in (base, fine, finer)}
        ck.record(0 if len(vals) == 1 else -1, {"values": sorted(vals)})
    checks.append(ck)

    ck = Check("quasimorphism",
               "|mu(pq) - mu(p) - mu(q)| <= 2n + 1 (and <= 2n for even k)")
    tr = Check("triangle", "mu(pq) <= mu(p) + mu(q) + 1 (+0 if k even or a "
               "summand is even)")
    rng = _rng(seed, "quasimorphism")
    for _ in range(trials):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        q = random_path(lens, rng)
        mp, mq = maslov_index(p), maslov_index(q)
        mpq = maslov_index(product_path(p, q))
        bound = 2 * lens.n if lens.k % 2 == 0 else 2 * lens.n + 1
        ck.record(bound - abs(mpq - mp - mq))
        extra = 0 if (lens.k % 2 == 0 or mp % 2 == 0 or mq % 2 == 0) else 1
        tr.record(mp + mq + extra - mpq)
    checks.append(ck)
    checks.append(tr)

    ck = Check("monotonicity", "appending a psd-generator segment never lowers mu")
    rng = _rng(seed, "mono-mu")
    for _ in range(max(trials // 2, 10)):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        A = random_hermitian(lens, rng, semidefinite="pos")
        q = append_segment(p, A, float(rng.uniform(0.1, 1.0)))
        ck.record(maslov_index(q) - maslov_index(p))
    checks.append(ck)

    ck = Check("poincare-duality-mu",
               "mu(p) + mu(p^-1) = 2n when 1 is not an endpoint eigenvalue")
    rng = _rng(seed, "pd-mu")
    done = 0
    while done < max(trials // 2, 10):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        if np.abs(np.linalg.eigvals(p.endpoint) - 1.0).min() < 1e-4:
            continue
        done += 1
        ck.record(0 if maslov_index(p) + maslov_index(inverse_path(p)) == 2 * lens.n
                  else -1)
    checks.append(ck)

    ck = Check("step-shape",
               "step function: non-increasing, right-continuous, constant on "
               "gaps, periodic with drift -2n")
    # evaluate_step uses the det-lift closed form; maslov_shifted is the
    # generating-function reference, so this is the runtime cross-check
    rng = _rng(seed, "step-shape")
    for _ in range(max(trials // 4, 6)):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        ev = evaluate_step(p)
        ok = all(d >= 0 for d in ev.drops())
        pts = np.concatenate([ev.points, [ev.points[0] + TWO_PI]])
        for i in range(len(ev.points)):
            a, b = pts[i], pts[i + 1]
            v = int(ev.values[i])
            ok = ok and maslov_shifted(p, a + (b - a) * 1e-3) == v
            ok = ok and maslov_shifted(p, a + (b - a) * 0.75) == v
        Tm = float(pts[0] + 1.2)
        ok = ok and maslov_shifted(p, Tm + TWO_PI) == maslov_shifted(p, Tm) - 2 * lens.n
        ck.record(0 if ok else -1)
    checks.append(ck)

    ck = Check("spectrum-containments",
               "sphere spectrum + T_w Z inside lens spectrum inside sphere "
               "spectrum + (2 pi / k) Z, mod 2 pi")
    rng = _rng(seed, "spectra")
    lenses = _lens_set() + [new_lens(5, [1, 2])]
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, len(lenses)))]
        p = random_path(lens, rng)
        sw = action_spectrum(p)
        ok = int(sw.mult_sphere.sum()) == lens.n

        def inside(phi, hay, tol=1e-8):
            d = np.abs(np.mod(phi - hay + math.pi, TWO_PI) - math.pi)
            return d.min() <= tol

        per = lens.reeb_period
        for ph in sw.phases_sphere:
            for m in range(int(round(TWO_PI / per))):
                ok = ok and inside(ph + m * per, sw.phases_lens)
        coarse = np.concatenate(
            [sw.phases_sphere + TWO_PI * m / lens.k for m in range(lens.k)]
        )
        for ph in sw.phases_lens:
            ok = ok and inside(ph, coarse)
        ck.record(0 if ok else -1, {"k": lens.k, "weights": list(lens.weights)})
    checks.append(ck)

    ck = Check("translated-points",
               "eigenspace dimension at a spectrum phase matches its multiplicity")
    rng = _rng(seed, "translated")
    for _ in range(max(trials // 4, 6)):
        lens = _lens_set()[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        sw = action_spectrum(p)
        ok = True
        for ph, mult in zip(sw.phases_sphere, sw.mult_sphere):
            d, basis = translated_points(p, ph)
            ok = ok and d == int(mult) and basis.shape == (lens.n, d)
        # a generic off-spectrum phase has no translated points
        off = sw.phases_sphere[0] + 0.05
        if np.abs(np.mod(off - sw.phases_sphere + math.pi, TWO_PI) - math.pi).min() > 1e-3:
            ok = ok and translated_points(p, off)[0] == 0
        ck.record(0 if ok else -1)
    checks.append(ck)

    return checks


# --- thm1 ---


def suite_thm1(trials, seed):
    checks = []
    lenses = _lens_set()

    ck = Check("spectrality", "every c_j lies on the sphere action spectrum")
    rng = _rng(seed, "spectrality")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        sw = action_spectrum(p)
        worst = 0.0
        for j in range(-2 * lens.n, 2 * lens.n + 1):
            c = selector(p, j)
            d = np.abs(np.mod(c - sw.phases_sphere + math.pi, TWO_PI) - math.pi).min()
            worst = max(worst, float(d))
        ck.record(1e-9 - worst)
    checks.append(ck)

    ck = Check("monotone-in-j", "c_j non-decreasing in j")
    pk = Check("periodicity", "c_{j+2n} = c_j + 2 pi exactly")
    rng = _rng(seed, "monotone-j")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        rep = selector_range(p, -2 * lens.n, 2 * lens.n)
        vals = [rep.values[j] for j in range(-2 * lens.n, 2 * lens.n + 1)]
        ck.record(float(np.diff(vals).min()) + 1e-12)
        worst = max(
            abs(rep.values[j + 2 * lens.n] - rep.values[j] - TWO_PI)
            for j in range(-2 * lens.n, 1)
        )
        pk.record(1e-9 - worst)
    checks.append(ck)
    checks.append(pk)

    ck = Check("reeb-composition", "c_j(reeb_T . p) = c_j(p) + T")
    rs = Check("reeb-selector", "c_0(reeb_T) = T")
    rng = _rng(seed, "reeb-comp")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        T = float(rng.uniform(-7, 7))
        j = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        shifted = reeb_shift(p, -T)  # the class reeb_T . p
        ck.record(1e-9 - abs(selector(shifted, j) - selector(p, j) - T))
        rs.record(1e-9 - abs(c_plus(reeb_path(lens, T)) - T))
    checks.append(ck)
    checks.append(rs)

    ck = Check("nondegeneracy",
               "c_- = c_+ = 0 only for paths ending on a deck transformation")
    rng = _rng(seed, "nondegeneracy")
    for lens in lenses:
        ck.record(0 if abs(c_plus(identity_path(lens))) <= 1e-9
                  and abs(c_minus(identity_path(lens))) <= 1e-9 else -1)
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        both_zero = abs(c_plus(p)) <= 1e-9 and abs(c_minus(p)) <= 1e-9
        if both_zero:
            near_deck = min(
                float(np.linalg.norm(p.endpoint - lens.deck(m), 2))
                for m in range(lens.k)
            )
            ck.record(0 if near_deck <= 1e-6 else -1)
        else:
            ck.record(0)
    checks.append(ck)

    ck = Check("hamiltonian-bounds",
               "d lambda_min(A) <= c_j(p . flow(A, d)) - c_j(p) <= d lambda_max(A)")
    rng = _rng(seed, "hamiltonian")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        A = random_hermitian(lens, rng)
        d = float(rng.uniform(0.2, 1.0))
        q = append_segment(p, A, d)
        lam = np.linalg.eigvalsh(A)
        j = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        delta = selector(q, j) - selector(p, j)
        ck.record(min(delta - d * lam.min(), d * lam.max() - delta) + 1e-8)
    checks.append(ck)

    ck = Check("monotonicity",
               "appending a psd-generator segment never lowers any c_j")
    rng = _rng(seed, "mono-c")
    for _ in range(max(trials // 2, 10)):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        A = random_hermitian(lens, rng, semidefinite="pos")
        q = append_segment(p, A, float(rng.uniform(0.2, 1.0)))
        worst = min(
            selector(q, j) - selector(p, j)
            for j in range(-2 * lens.n, 2 * lens.n + 1)
        )
        ck.record(worst + 1e-9)
    checks.append(ck)

    ck = Check("triangle-lattice",
               "c_{j+l}(pq) <= c_j(p) + ceil_{T_w}(c_l(q)) for k even or j even")
    rng = _rng(seed, "triangle-c")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        q = random_path(lens, rng)
        j = int(rng.integers(-lens.n, lens.n + 1))
        if lens.k % 2 != 0:
            j *= 2  # the lattice triangle inequality needs k even or j even
        l = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        lhs = selector(product_path(p, q), j + l)
        rhs = selector(p, j) + lens.period_value(
            lens.period_multiple(selector(q, l), "ceil")
        )
        ck.record(rhs - lhs + 1e-9)
    checks.append(ck)

    ck = Check("conjugation-invariance",
               "ceil_{T_w}(c_j) unchanged by conjugation")
    rng = _rng(seed, "conjugation")
    for _ in range(max(trials // 2, 10)):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        psi = random_path(lens, rng)
        pc = conjugate_path(psi, p)
        j = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        a = lens.period_multiple(selector(p, j), "ceil")
        b = lens.period_multiple(selector(pc, j), "ceil")
        ck.record(0 if a == b else -1, {"j": j, "lhs": a, "rhs": b})
    checks.append(ck)

    ck = Check("poincare-duality",
               "ceil_{T_w}(c_j(p)) = -floor_{T_w}(c_{-j-(2n-1)}(p^-1))")
    rng = _rng(seed, "pd-c")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        pi = inverse_path(p)
        j = int(rng.integers(-2 * lens.n, 2 * lens.n + 1))
        a = lens.period_multiple(selector(p, j), "ceil")
        b = lens.period_multiple(selector(pi, -j - (2 * lens.n - 1)), "floor")
        ck.record(0 if a == -b else -1, {"j": j, "lhs": a, "rhs": -b})
    checks.append(ck)

    ck = Check("time-function", "tau(reeb_T . p) = T + tau(p) for a finite basis")
    rng = _rng(seed, "time-fn")
    for _ in range(max(trials // 10, 3)):
        lens = lenses[int(rng.integers(0, 3))]
        basis = [identity_path(lens), random_path(lens, rng)]
        p = random_path(lens, rng)
        T = float(rng.uniform(-3, 3))
        shifted = reeb_shift(p, -T)
        ck.record(1e-8 - abs(time_function(shifted, basis)
                             - T - time_function(p, basis)))
    checks.append(ck)

    return checks


# --- norms ---


def suite_norms(trials, seed):
    checks = []
    lenses = _lens_set()

    ck = Check("pseudonorm-axioms",
               "nu >= 0, nu(p) = nu(p^-1), nu(pq) <= nu(p) + nu(q), "
               "conjugation-invariant; exact lattice arithmetic")
    rng = _rng(seed, "axioms")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        q = random_path(lens, rng)
        np_ = nu(p).multiple
        ok = np_ >= 0
        ok = ok and nu(inverse_path(p)).multiple == np_
        ok = ok and nu(product_path(p, q)).multiple <= np_ + nu(q).multiple
        psi = random_path(lens, rng)
        ok = ok and nu(conjugate_path(psi, p)).multiple == np_
        ck.record(0 if ok else -1)
    checks.append(ck)

    ck = Check("stable-unboundedness", "nu(reeb_{m T_w}) = m T_w for m <= 20")
    for lens in lenses:
        for m in range(0, 21):
            got = nu(reeb_path(lens, m * lens.reeb_period))
            ck.record(0 if got.multiple == m else -1, {"k": lens.k, "m": m})
    checks.append(ck)

    ck = Check("nu-star-bound",
               "nu* <= 2 pi + T_w and c_+ - c_- <= 2 pi")
    rng = _rng(seed, "nu-star")
    for _ in range(trials):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng, norm_bound=float(rng.uniform(0.5, 6.0)))
        star, _ = nu_star(p)
        m1 = TWO_PI + lens.reeb_period - star.value
        m2 = TWO_PI + 1e-9 - (c_plus(p) - c_minus(p))
        ck.record(min(m1, m2))
    checks.append(ck)

    ck = Check("nu-star-reeb", "nu*(reeb_{m T_w}) = 0 via the exact shift")
    for lens in lenses:
        for m in (1, 2, 5):
            star, shift = nu_star(reeb_path(lens, m * lens.reeb_period))
            ck.record(0 if star.multiple == 0 and shift.multiple == m else -1)
    checks.append(ck)

    ck = Check("nu-prime", "nu'(id) = 0; nu' >= max(nu, T_w) off the identity class")
    rng = _rng(seed, "nu-prime")
    for lens in lenses:
        ck.record(0 if nu(identity_path(lens), "prime").multiple == 0 else -1)
    for _ in range(max(trials // 2, 10)):
        lens = lenses[int(rng.integers(0, 3))]
        p = random_path(lens, rng)
        npr = nu(p, "prime").multiple
        ck.record(0 if npr >= max(nu(p).multiple, 1) else -1)
    checks.append(ck)

    ck = Check("order-compatibility",
               "id <= p <= q built from psd appends implies nu(p) <= nu(q)")
    rng = _rng(seed, "order")
    for _ in range(max(trials // 2, 10)):
        lens = lenses[int(rng.integers(0, 3))]
        p = identity_path(lens)
        for _ in range(int(rng.integers(1, 3))):
            p = append_segment(p, random_hermitian(lens, rng, semidefinite="pos"),
                               float(rng.uniform(0.2, 1.0)))
        q = append_segment(p, random_hermitian(lens, rng, semidefinite="pos"),
                           float(rng.uniform(0.2, 1.0)))
        ck.record(nu(q).multiple - nu(p).multiple)
    checks.append(ck)

    return checks


# --- geodesic ---


def suite_geodesic(trials, seed):
    checks = []

    ck = Check("embedded-reeb",
               "a Reeb stretch is embedded exactly below phase advance 2 pi / k")
    for k in (2, 3, 5):
        lens = new_lens(k, [1, 1])
        short = reeb_path(lens, 0.9 * TWO_PI / k)
        long = reeb_path(lens, 1.1 * TWO_PI / k)
        ck.record(0 if is_embedded(short, 0.0, 1.0).embedded is True else -1)
        ck.record(0 if is_embedded(long, 0.0, 1.0).embedded is False else -1)
        ck.record(0 if is_embedded(identity_path(lens), 0.0, 1.0).embedded is True
                  else -1)
    checks.append(ck)

    ck = Check("greedy-reeb-count",
               "greedy embedded decomposition of reeb_T has floor(kT/2pi) + 1 "
               "segments")
    for k in (2, 3, 5):
        lens = new_lens(k, [1, 1])
        for T in (0.1, 2.0, TWO_PI, 6 * math.pi):
            dec = greedy_embedded_decomposition(reeb_path(lens, T))
            want = math.floor(k * T / TWO_PI + 1e-9) + 1
            ck.record(0 if dec.certified and dec.count == want else -1,
                      {"k": k, "T": T, "got": dec.count, "want": want})
    checks.append(ck)

    ck = Check("geodesic-certified",
               "equal weights: selector lower bound meets the greedy upper bound")
    for k in (2, 3, 5):
        lens = new_lens(k, [1, 1])
        for T in (0.1, TWO_PI, 6 * math.pi):
            rep = geodesic_report(lens, T)
            ck.record(0 if rep.verdict == "certified" else -1,
                      {"k": k, "T": T})
    checks.append(ck)

    ck = Check("geodesic-gap",
               "general weights: verdict 'gap' with lower floor(T/T_w) + 1 <= "
               "upper floor(kT/2pi) + 1")
    for lens in (new_lens(4, [1, 3]), new_lens(5, [1, 2])):
        for T in (0.1, TWO_PI, 6 * math.pi):
            rep = geodesic_report(lens, T)
            want_lower = lens.period_multiple(T, "floor") + 1 if T > 1e-12 else 1
            ok = rep.verdict == "gap" and rep.lower == want_lower \
                and rep.lower <= rep.upper
            ck.record(0 if ok else -1, {"k": lens.k, "T": T})
    checks.append(ck)

    ck = Check("selector-bounds-reeb",
               "dis lower bound floor(T/T_w) + 1 and osc >= nu/T_w on Reeb paths")
    for k in (2, 3, 5):
        lens = new_lens(k, [1, 1])
        for m in (1, 3, 7):
            p = reeb_path(lens, m * lens.reeb_period)
            b = selector_lower_bounds(p)
            ck.record(0 if b["dis"] == m + 1 and b["osc"] == m else -1,
                      {"k": k, "m": m})
    checks.append(ck)

    return checks


# --- references ---

# Lenses for the fast paths: equal, repeated and pairwise distinct weights.
TORUS_LENSES = [(2, [1]), (3, [1, 1]), (4, [1, 3]), (5, [1, 2, 3]), (7, [1, 2, 3, 4])]


def _diagonal_path(rng, bound):
    """A seeded path in the diagonal torus, as (lens, diagonals,
    durations): one time in three a Reeb path T I of duration 1, T a
    multiple of pi/2 in [-6 pi, 6 pi] on or just off it; otherwise 1-4
    segments with entries in [-bound, bound] and, one time in five, a zero
    line."""
    k, weights = TORUS_LENSES[int(rng.integers(0, len(TORUS_LENSES)))]
    lens, n = new_lens(k, weights), len(weights)
    if rng.integers(0, 3) == 0:
        off = float(rng.choice([0.0, 1e-13, -1e-9, 1e-6]))
        return lens, [[int(rng.integers(-12, 13)) * math.pi / 2 + off] * n], [1.0]
    segments = int(rng.integers(1, 5))
    diagonals = rng.uniform(-bound, bound, size=(segments, n))
    if rng.integers(0, 5) == 0:
        diagonals[:, int(rng.integers(0, n))] = 0.0
    return lens, diagonals.tolist(), rng.uniform(0.05, 1.0, size=segments).tolist()


def _torus_pair(lens, diagonals, durations):
    """The TorusPath of a diagonal path and the UnitaryPath `jobs` builds
    from the same numbers."""
    unitary = UnitaryPath(lens, [(np.diag(np.array(row, dtype=complex)), d)
                                 for row, d in zip(diagonals, durations)])
    return TorusPath.of(lens, diagonals, durations), unitary


def suite_references(trials, seed):
    """Each numpy-free fast path against the numpy reference it stands in
    for, on seeded paths."""
    checks = []

    ck = Check("torus-maslov",
               "on a diagonal path (Reeb paths T I among them), the line-by-line "
               "mu and N equal maslov_index and subdivide's; a count left to "
               "the reference is no failure")
    rng = _rng(seed, "torus-maslov")
    cases = [(new_lens(2, [1, 1]), [[TWO_PI] * 2], [1.0])]  # a lattice Reeb time
    cases += [_diagonal_path(rng, 40.0) for _ in range(2 * trials)]
    for lens, diagonals, durations in cases:
        fast, ref = _torus_pair(lens, diagonals, durations)
        mu, want = fast.maslov_index(), maslov_index(ref)
        ok = mu in (None, want) and subdivision_count(fast.spans) == len(subdivide(ref)) - 1
        ck.record(0 if ok else -1, {"k": lens.k, "diagonals": diagonals,
                                    "durations": durations, "mu": mu, "want": want})
    checks.append(ck)

    ck = Check("torus-norms",
               "on a diagonal path (Reeb paths T I among them), "
               "norm_report of the TorusPath equals norm_report of its UnitaryPath, "
               "decompose off and on")
    rng = _rng(seed, "torus-norms")
    for _ in range(trials):
        lens, diagonals, durations = _diagonal_path(rng, 8.0)
        fast, ref = _torus_pair(lens, diagonals, durations)
        for decompose in (False, True):
            got = norm_report(fast, decompose).as_dict()
            want = norm_report(ref, decompose).as_dict()
            ck.record(0 if got == want else -1, {"k": lens.k, "diagonals": diagonals,
                                                 "durations": durations,
                                                 "decompose": decompose})
    checks.append(ck)

    return checks


# Each suite name, as `jobs.VERIFY_SUITES` lists them, and its function.
SUITES = {name: globals()[f"suite_{name}"] for name in VERIFY_SUITES}


def verify_suite(suite, trials=25, seed=0):
    """Run one suite; returns a JSON-ready summary (no wall-clock data)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks = [c.as_dict() for c in SUITES[suite](trials, seed)]
    failures = sum(c["failures"] for c in checks)
    return {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "failures": failures,
        "pass": failures == 0,
    }
