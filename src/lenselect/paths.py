"""Piecewise one-parameter unitary paths commuting with the deck action.

A path is a list of (Hermitian generator A, duration d) segments composed
left to right: on segment i, U(tau_i + s) = exp(i A_i s) U(tau_i), starting
from the identity.  Total time is normalized to 1, so a path represents an
element of the universal cover of the unitary contactomorphism group it
generates.  Generators must commute with the deck generator
g = diag(e^{2 pi i w_j / k}); equivalently they are block-diagonal over the
weight classes {j : w_j mod k}.

Exact operations: inverse (conjugated generators), Reeb shift (generator
minus T*I), segment append.  The pointwise product of two paths is re-fitted
piecewise via principal matrix logarithms on a merged grid with sub-segment
arcs below pi/2, which preserves the homotopy class with fixed endpoints.

Both path records, this one and `torus.TorusPath`, offer `starts`,
`phases` (of the endpoint), `lift` (the det lift sum_i tr(A_i) d_i),
`is_identity_endpoint()` and `decomposition()`: all that
`torus.evaluate_step` and `norms.norm_report` read.
"""

import math
from collections import namedtuple
from itertools import accumulate

import numpy as np

from .lens import TWO_PI
from .torus import clip, cluster_phases, decompose, line_crossing, next_cut, segment_of
from .torus import sign_definite, speed as _speed, stationary as _stationary

HERMITIAN_TOL = 1e-10
COMMUTATION_TOL = 1e-10


def _opnorm(A):
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


class PathError(ValueError):
    """Invalid path data.  `segment` is the index of the offending segment
    (None when the error concerns the whole path) and `part` says which of
    its entries is at fault: "generator" or "duration"."""

    def __init__(self, message, segment=None, part="generator"):
        self.segment = segment
        self.part = part
        super().__init__(message if segment is None else f"segment {segment}: {message}")


class UnitaryPath:
    def __init__(self, lens, segments, _validate=True):
        self.lens = lens
        self.segments = [(np.asarray(A, dtype=complex), d) for A, d in segments]
        if _validate:
            self._validate()  # the segments as given, before any arithmetic
        total = float(sum(d for _, d in self.segments))
        if not 0 < total < math.inf:
            raise PathError(f"total duration {total!r} must be positive and finite")
        # reparametrize to total time 1: durations shrink, generators grow,
        # so the traced path of unitaries (and the endpoint) is unchanged
        with np.errstate(over="ignore"):  # an overflow is rejected just below
            self.segments = [(A * total, float(d) / total) for A, d in self.segments]
        self.starts = [0.0, *accumulate(d for _, d in self.segments)]
        self.starts[-1] = 1.0
        self._eig = [self._finite_eigh(i, A, total) for i, (A, _) in enumerate(self.segments)]
        # prefix[i] = U(tau_i); prefix[N] = endpoint
        self._prefix = [np.eye(lens.n, dtype=complex)]
        for (A, d), (lam, V) in zip(self.segments, self._eig):
            step = (V * np.exp(1j * lam * d)) @ V.conj().T
            self._prefix.append(step @ self._prefix[-1])
        self.endpoint = self._prefix[-1]

    @staticmethod
    def _finite_eigh(i, A, total):
        """eigh of the rescaled generator A of segment i; PathError unless A
        and its eigenvalues (the phase speeds) are finite.  eigh is undefined
        on a non-finite A, and a finite A can still have an overflowing
        eigenvalue."""
        if not np.all(np.isfinite(A)):
            raise PathError(f"generator times the total duration {total!r} is not finite", i)
        lam, V = np.linalg.eigh(A)
        if not np.all(np.isfinite(lam)):
            raise PathError(
                f"generator times the total duration {total!r} has a non-finite eigenvalue", i
            )
        return lam, V

    def _validate(self):
        """Each segment (A, d): A is n x n, finite (checked before any SVD),
        Hermitian and commuting with the deck action, both relative to
        max(||A||, 1), and the duration d is positive."""
        n = self.lens.n
        g = self.lens.deck()
        for i, (A, d) in enumerate(self.segments):
            if A.shape != (n, n):
                raise PathError(f"generator shape {A.shape}, expected ({n}, {n})", i)
            if not np.all(np.isfinite(A)):
                raise PathError("non-finite generator", i)
            scale = max(_opnorm(A), 1.0)
            asym = _opnorm(A - A.conj().T)
            if asym > HERMITIAN_TOL * scale:
                raise PathError(f"generator not Hermitian (max asymmetry {asym:.3e})", i)
            comm = _opnorm(A @ g - g @ A)
            if comm > COMMUTATION_TOL * scale:
                raise PathError(
                    f"generator does not commute with the deck action (residual {comm:.3e})", i
                )
            if not d > 0:
                raise PathError(f"non-positive duration {d!r}", i, "duration")

    @property
    def spans(self):
        """Per segment (A_i, d_i), the floats `jobs` prices the path from: its
        phase travel ||A_i|| d_i and diagonal size sum_j |Re (A_i)_jj| d_i."""
        with np.errstate(over="ignore"):  # inf, which every price refuses
            return [(_speed(lam) * d, float(np.abs(np.diag(A).real).sum()) * d)
                    for (A, d), (lam, _) in zip(self.segments, self._eig)]

    @property
    def phases(self):
        """The endpoint eigenphases, block by block (`_eigenphases`)."""
        return _eigenphases(self.endpoint, self.lens.weight_classes()).tolist()

    @property
    def lift(self):
        """The det lift L = sum_i tr(A_i) d_i."""
        return sum(float(np.trace(A).real) * d for A, d in self.segments)

    def decomposition(self):
        """`norms.greedy_embedded_decomposition`: `torus.decompose` on the
        joint eigenline slopes, or on a non-commuting path each piece's
        envelope slope, one `is_embedded` certificate per cut."""
        pieces = _restrict_pieces(self, 0.0, 1.0)
        data = _joint_eigendata(pieces, self.lens)
        commuting = data is not None
        slopes = (data[0] if commuting else _envelope_slopes(pieces)[:, None]).tolist()
        spectra = [lam for lam, _ in self._eig]
        return decompose(lambda t: _next_cut(self, pieces, slopes, commuting, t),
                         lambda a, b: sign_definite(self.starts, spectra, a, b))

    def segment_of(self, t):
        return segment_of(self.starts, t)

    def value(self, t):
        """U(t) for t in [0, 1]."""
        t = min(max(t, 0.0), 1.0)
        i = self.segment_of(t)
        lam, V = self._eig[i]
        s = t - self.starts[i]
        return (V * np.exp(1j * lam * s)) @ V.conj().T @ self._prefix[i]

    def is_identity_endpoint(self):
        """||U_1 - I|| <= 1e-9."""
        return _opnorm(self.endpoint - np.eye(self.lens.n)) <= 1e-9


def identity_path(lens):
    return UnitaryPath(lens, [(np.zeros((lens.n, lens.n)), 1.0)])


def reeb_path(lens, T):
    """The class of {r_{T t}}: one segment with generator T*I."""
    return UnitaryPath(lens, [(T * np.eye(lens.n), 1.0)])


def reeb_shift(p, T):
    """The class of r_{-T} . p, i.e. t -> e^{-iTt} U(t): shift every generator by -T*I."""
    TI = T * np.eye(p.lens.n)
    return UnitaryPath(p.lens, [(A - TI, d) for A, d in p.segments], _validate=False)


def inverse_path(p):
    """t -> U(t)^{-1}; exact: generator -U(tau_i)^* A_i U(tau_i) per segment."""
    segs = []
    for i, (A, d) in enumerate(p.segments):
        Ui = p._prefix[i]
        segs.append((-(Ui.conj().T @ A @ Ui), d))
    return UnitaryPath(p.lens, segs, _validate=False)


def append_segment(p, A, d):
    """Follow p by the flow of A for time d (then renormalize total time)."""
    return UnitaryPath(p.lens, [*((B, u) for B, u in p.segments), (np.asarray(A), d)])


def _blockwise_log_phases(W, classes):
    """Principal log of a block-diagonal unitary: Hermitian B with exp(iB) = W.

    W commutes with the deck action so its off-block entries are roundoff;
    taking the log per weight-class block keeps B exactly block-diagonal,
    hence exactly commuting with g even when eigenvalues collide across
    blocks.  Uses the complex Schur form, which is diagonal for normal
    matrices and numerically robust under eigenvalue clustering.

    This is the package's only use of scipy, so scipy.linalg is imported
    here rather than at module level: jobs that build no product path (all
    but conjugation, the time function and the verify suites using them)
    skip its import cost.  The Schur vectors Q are what the log needs; an
    eigh-based log of the Cayley transform agrees only to about 1e-15, which
    is enough to move reported verify margins in their last digits.
    """
    import scipy.linalg

    n = W.shape[0]
    B = np.zeros((n, n), dtype=complex)
    for idx in classes:
        sub = W[np.ix_(idx, idx)]
        T, Q = scipy.linalg.schur(sub, output="complex")
        phases = np.angle(np.diag(T))
        B[np.ix_(idx, idx)] = (Q * phases) @ Q.conj().T
    return (B + B.conj().T) / 2.0


def product_path(p, q):
    """Pointwise product t -> p(t) q(t), re-fitted piecewise.

    The merged breakpoint grid is refined so each sub-segment transition has
    arc length below pi/3 < pi/2; the principal-log refit is then uniformly
    close to the true product, so the homotopy class with fixed endpoints is
    preserved.  Endpoints multiply exactly up to the log/exp roundtrip.
    """
    if p.lens is not q.lens and (p.lens.k != q.lens.k or p.lens.weights != q.lens.weights):
        raise PathError("lens mismatch in product")
    lens = p.lens
    classes = lens.weight_classes()
    knots = sorted(set(np.concatenate([p.starts, q.starts]).tolist()))
    nodes = [0.0]
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a <= 1e-15:
            continue
        La = _speed(p._eig[p.segment_of((a + b) / 2)][0])
        Lb = _speed(q._eig[q.segment_of((a + b) / 2)][0])
        parts = max(1, math.ceil((La + Lb) * (b - a) / (math.pi / 3)))
        for j in range(1, parts + 1):
            nodes.append(a + (b - a) * j / parts)
    segs = []
    R_prev = np.eye(lens.n, dtype=complex)
    for a, b in zip(nodes[:-1], nodes[1:]):
        R = p.value(b) @ q.value(b)
        W = R @ R_prev.conj().T
        B = _blockwise_log_phases(W, classes)
        segs.append((B / (b - a), b - a))
        R_prev = R
    return UnitaryPath(lens, segs, _validate=False)


def conjugate_path(psi, p):
    """psi . p . psi^{-1} in the universal cover."""
    return product_path(product_path(psi, p), inverse_path(psi))


# --- action spectra ---


class SpectrumWindow(namedtuple("SpectrumWindow",
                                "phases_sphere mult_sphere phases_lens mult_lens")):
    """The clustered phases, sorted in [0, 2 pi), and their multiplicities,
    on the sphere and on the lens, as arrays."""

    __slots__ = ()


def _block_phases(M):
    """Eigenphases of one unitary block, in LAPACK's order."""
    return np.angle(np.linalg.eigvals(M))


def _eigenphases(U, classes):
    """Eigenphases of a unitary commuting with the deck action, per block.

    np.linalg.eigvals (LAPACK zgeev) and the diagonal of the complex Schur
    form (zgees, via scipy.linalg.schur) run the same Hessenberg QR
    iteration; on unitary blocks, where balancing changes nothing, they give
    the same eigenvalues bit for bit and in the same order, and
    tests/test_paths.py checks this against the Schur diagonal.  eigvals
    needs only numpy, which keeps scipy off the import path of every job
    that does not build a product path.
    """
    return np.concatenate([_block_phases(U[np.ix_(idx, idx)]) for idx in classes])


def action_spectrum(p):
    """Translations of translated points mod 2 pi, on the sphere and the lens.

    Sphere level: eigenphases of the endpoint U_1.  Lens level: union over
    deck powers m of the eigenphases of g^{-m} U_1; since U_1 is
    block-diagonal over weight classes this is the blockwise spectrum shifted
    by -2 pi m w / k per class, built as one broadcast over m.

    The lens level lists k n phases, clustered in a Python loop, so the
    `spectrum` job refuses k n > `jobs.MAX_LENS_PHASES`.
    """
    lens = p.lens
    classes = lens.weight_classes()
    blocks = [_block_phases(p.endpoint[np.ix_(idx, idx)]) for idx in classes]
    phases_sphere, mult_sphere = cluster_phases(np.concatenate(blocks).tolist())
    m = np.arange(lens.k)[:, None]
    lens_raw = np.concatenate([
        (block[None, :] - TWO_PI * m * (lens.weights[idx[0]] % lens.k) / lens.k).ravel()
        for idx, block in zip(classes, blocks)
    ])
    phases_lens, mult_lens = cluster_phases(lens_raw.tolist())
    return SpectrumWindow(np.array(phases_sphere), np.array(mult_sphere, dtype=int),
                          np.array(phases_lens), np.array(mult_lens, dtype=int))


def translated_points(p, T):
    """Translated points with translation T, at sphere level: the dimension d
    and an orthonormal basis (n x d) of ker(U_1 - e^{iT}).  An empty kernel is
    a value, not an error.
    """
    n = p.lens.n
    _, s, Vh = np.linalg.svd(p.endpoint - np.exp(1j * T) * np.eye(n))
    d = int(np.sum(s <= 1e-9 * max(1.0, s.max() if s.size else 1.0)))
    return d, Vh[n - d :].conj().T if d else np.zeros((n, 0))


# --- embeddedness ---


class EmbeddednessReport(namedtuple("EmbeddednessReport",
                                    "embedded status witness margin method")):
    """An `is_embedded` verdict.  embedded: True, False or None
    (indeterminate); status: "embedded", "not_embedded" or "indeterminate";
    witness: (s, t, m) for a crossing, else None; margin: an embedded
    verdict's slack below 2 pi / k (inf if constant), else 0; method: the
    rule that decided."""

    __slots__ = ()


def _restrict_pieces(p, t0, t1):
    """The pieces (A, lam, a, b) of p on [t0, t1], as `torus.clip` cuts
    them, with each segment's generator A and A's eigenvalues lam from
    `UnitaryPath._eig`: lam is the only record of a generator's spectrum
    that stretch decisions read."""
    return [(p.segments[i][0], p._eig[i][0], a, b) for i, a, b in clip(p.starts, t0, t1)]


def _joint_eigendata(pieces, lens):
    """Common eigenbasis of commuting piece generators and the deck action.

    Returns (slopes[piece, j], weights[j]): the eigenvalue of each piece's
    generator on common eigenline j, and that line's deck weight mod k; or
    None when the pieces do not commute (with each other or with the deck
    phases' diagonal).
    """
    mats = [A for A, _, _, _ in pieces]
    scales = [max(_speed(lam), 1.0) for _, lam, _, _ in pieces]
    h = np.array([w % lens.k for w in lens.weights], dtype=float)
    Gh = np.diag(h)
    sg = max(float(h.max()), 1.0)  # ||Gh||: its entries are the weights mod k
    for i, (A, sa) in enumerate(zip(mats, scales)):
        if _opnorm(A @ Gh - Gh @ A) > 1e-10 * sa * sg:
            return None
        for B, sb in zip(mats[i + 1 :], scales[i + 1 :]):
            if _opnorm(A @ B - B @ A) > 1e-10 * sa * sb:
                return None
    rng = np.random.default_rng(0)
    # a generic combination separates the common eigenspaces
    C = Gh * rng.uniform(1, 2)
    for A in mats:
        C = C + rng.uniform(1, 2) * A
    _, V = np.linalg.eigh(C)
    slopes = []
    for A, sa in zip(mats, scales):
        D = V.conj().T @ A @ V
        if _opnorm(D - np.diag(np.diag(D))) > 1e-8 * sa:
            return None  # non-generic collision: not decided in closed form
        slopes.append(np.real(np.diag(D)))
    Dg = V.conj().T @ Gh @ V
    if _opnorm(Dg - np.diag(np.diag(Dg))) > 1e-8 * sg:
        return None
    weights = np.rint(np.real(np.diag(Dg))).astype(int)
    return np.array(slopes), weights


def _commuting_embedded(pieces, lens):
    """Exact embeddedness for commuting pieces via per-eigenline phase travel.

    On a common eigenline with deck weight w, the phase of U_t U_s^{-1} is
    f(t) - f(s) with f piecewise linear; a discriminant crossing at deck power
    m means f(t) - f(s) = 2 pi (m w mod k)/k mod 2 pi for some s < t.  w is a
    unit mod k, so the targets are all the multiples of 2 pi / k.  There is
    a crossing at target 0 (m = 0) iff f is not strictly monotone: some
    slope is zero or two slopes differ in sign.  A slope is zero when it is
    at most 1e-12 * max(|slopes|, 1), however short its piece.  Otherwise f
    is strictly monotone from f(t0) = 0, so the forward differences fill
    (0, f(t1)] or [f(t1), 0), and there is a crossing iff |f(t1)| reaches
    2 pi / k (m = +-w^{-1} mod k), up to 1e-12; the margin is 2 pi / k
    minus |f(t1)|.
    """
    data = _joint_eigendata(pieces, lens)
    if data is None:
        return None
    slopes, weights = data
    k = lens.k
    step = TWO_PI / k
    nodes = [pieces[0][2]] + [b for *_, b in pieces]
    lengths = [b - a for *_, a, b in pieces]
    best_margin = math.inf
    for sl, w in zip(slopes.T.tolist(), weights.tolist()):
        f, c, margin = line_crossing(sl, lengths, step)
        if c is not None:
            m = 0 if c == 0 else pow(w, -1, k) if c > 0 else -pow(w, -1, k) % k
            return _crossing_report(f, nodes, c, m, "commuting-exact")
        best_margin = min(best_margin, margin)
    return EmbeddednessReport(True, "embedded", None, best_margin, "commuting-exact")


def _crossing_report(f, nodes, c, m, method):
    # locate a node pair bracketing the crossing, then refine linearly
    nN = len(f)
    for i in range(nN):
        for j in range(i + 1, nN):
            if (f[j] - f[i] - c) * (f[j] - f[i] - c) <= 1e-20 or (
                i + 1 < j and (f[j] - f[i] >= c) != (f[j - 1] - f[i] >= c)
            ):
                return EmbeddednessReport(
                    False, "not_embedded", (nodes[i], nodes[j], m), 0.0, method
                )
    return EmbeddednessReport(False, "not_embedded", (nodes[0], nodes[-1], m), 0.0, method)


def _envelope_slopes(pieces):
    """Rule (b)'s phase speed bound per piece: lambda_max of a positive
    definite generator, lambda_min of a negative definite one, and 0 for any
    other (an eigenvalue within 1e-12 * max(|lambda|, 1) of 0 counts as 0)."""
    out = []
    for _, lam, _, _ in pieces:
        tol = 1e-12 * max(_speed(lam), 1.0)
        out.append(lam[-1] if lam[0] > tol else lam[0] if lam[-1] < -tol else 0.0)
    return np.array(out)


def is_embedded(p, t0, t1):
    """Certified check that {U_t}_{[t0,t1]} has no discriminant pair.

    True iff 1 is not an eigenvalue of g^{-m} U_t U_s^{-1} for any s < t in
    [t0, t1] and any deck power m.  Three closed forms, in order:

    - constant: a constant stretch is the identity at every pair of times,
      which counts as embedded by convention (an identity factor in any
      decomposition);
    - commuting-exact: when the pieces commute (in particular on every Reeb
      segment, and inside any one segment) the stretch is embedded iff every
      common-eigenline phase is strictly monotone on it and travels less
      than 2 pi / k (up to 1e-12), and otherwise not embedded;
    - definite (rule (b)): when every generator on the stretch is definite
      of one sign, the stretch is embedded if its envelope travel
      sum |lambda| * length stays below 2 pi / k - 1e-12, with lambda the
      largest eigenvalue (the smallest for negative generators); the margin
      is 2 pi / k minus the travel.

    Everything else is indeterminate.  Proof of rule (b), for positive
    generators (negative ones are the time reverse): for s < t, V = U_t
    U_s^{-1} solves V' = i A V from V(s) = I and commutes with g.  On each
    segment V is analytic in t, so its eigenphases, lifted from 0 at t = s,
    have analytic branches, and a branch with unit eigenvector v moves at
    speed <A v, v>, between lambda_min(A) > 0 and lambda_max(A) (the unitary
    case of positive-path monotonicity; Lalonde-McDuff 1997, Eliashberg-
    Polterovich 2000).  So every lifted phase lies in (0, travel], inside
    (0, 2 pi / k).  On the weight class w, g^{-m} V has eigenvalue 1 iff a
    phase of that block is 2 pi m w / k mod 2 pi, a multiple of 2 pi / k,
    and none lies in (0, 2 pi / k).  Rule (b) is sufficient, not maximal.
    """
    if not (0.0 <= t0 < t1 <= 1.0):
        raise ValueError(f"need 0 <= t0 < t1 <= 1, got ({t0}, {t1})")
    pieces = _restrict_pieces(p, t0, t1)
    if all(_stationary(lam, b - a) for _, lam, a, b in pieces):
        return EmbeddednessReport(True, "embedded", None, np.inf, "constant")
    exact = _commuting_embedded(pieces, p.lens)
    if exact is not None:
        return exact
    slopes = _envelope_slopes(pieces)
    step = TWO_PI / p.lens.k
    if np.all(slopes > 0) or np.all(slopes < 0):
        travel = float(np.abs(slopes) @ [b - a for *_, a, b in pieces])
        if travel < step - 1e-12:
            return EmbeddednessReport(True, "embedded", None, step - travel, "definite")
    return EmbeddednessReport(None, "indeterminate", None, 0.0, "definite")


def _next_cut(p, pieces, slopes, commuting, t):
    """`torus.next_cut` from t on p, certified by one is_embedded call."""
    return next_cut(p.starts, [lam for lam, _ in p._eig], pieces, slopes, p.lens.k, t,
                    lambda a, b: is_embedded(p, a, b).embedded, commuting)


# --- random inputs (all randomness through a caller-provided Generator) ---


def haar_unitary(dim, rng):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(X)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(lens, rng, norm_bound=2.0, semidefinite=None):
    """Random Hermitian commuting with the deck action (blockwise GUE).

    semidefinite="pos"/"neg" shifts the spectrum to the requested sign.
    """
    n = lens.n
    A = np.zeros((n, n), dtype=complex)
    for idx in lens.weight_classes():
        m = len(idx)
        X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        A[np.ix_(idx, idx)] = (X + X.conj().T) / 2.0
    s = _opnorm(A)
    if s > 0:
        A *= rng.uniform(0.3, 1.0) * norm_bound / s
    if semidefinite == "pos":
        A = A - np.linalg.eigvalsh(A).min() * np.eye(n)
    elif semidefinite == "neg":
        A = A - np.linalg.eigvalsh(A).max() * np.eye(n)
    return A


def random_path(lens, rng, segments=2, norm_bound=2.0):
    durations = rng.dirichlet(np.ones(segments))
    segs = [
        (random_hermitian(lens, rng, norm_bound), float(d))
        for d in durations
    ]
    return UnitaryPath(lens, segs)
