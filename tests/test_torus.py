import json
import math
import random

import numpy as np
import pytest

from lenselect import maslov, norms, torus
from lenselect.jobs import parse_job
from lenselect.lens import new_lens
from lenselect.paths import UnitaryPath
from lenselect.quadratic import NULL_TOL, cayley_hermitian

TWO_PI = 2 * math.pi

# n from 1 to 8; pairwise distinct weights mod k, where every deck-commuting
# generator is diagonal, and repeated ones, where a diagonal path is one of many
LENSES = [(2, [1]), (3, [1, 1]), (4, [1, 3]), (5, [1, 2, 3]), (7, [1, 2, 3, 4]),
          (9, [1, 2, 4, 5, 7]), (7, [1] * 6), (11, [1, 2, 3, 4, 5, 6, 7, 8])]


def _entry(rng, k, kind):
    if kind == "lattice":  # a multiple of 2 pi / k, on it or just off it
        return rng.randint(-6, 6) * TWO_PI / k + rng.choice([-1e-10, 1e-10, -1e-13, 1e-13, 0.0])
    return rng.uniform(0.1, 8.0) if kind == "positive" else rng.uniform(-8.0, 8.0)


def diagonal_docs(count, seed):
    """Seeded real-diagonal `norms` documents over LENSES: 1-5 segments of
    mixed-sign, positive or near-lattice entries (a one-segment lattice path
    lasts 1, so its line phases are the entries), with a zero line or all
    lines equal one segment in five."""
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        k, weights = LENSES[i % len(LENSES)]
        n = len(weights)
        kind = ("mixed", "positive", "lattice")[i // len(LENSES) % 3]
        segments = rng.randint(1, 5)
        durations = ([1.0] if segments == 1 and kind == "lattice"
                     else [rng.uniform(0.05, 1.0) for _ in range(segments)])
        segs = []
        for d in durations:
            diag = [_entry(rng, k, kind) for _ in range(n)]
            if rng.random() < 0.2:
                diag[rng.randrange(n)] = 0.0
            if rng.random() < 0.2:
                diag = [diag[0]] * n
            gen = [[[diag[a], 0.0] if a == b else [0.0, 0.0] for b in range(n)]
                   for a in range(n)]
            segs.append({"generator": gen, "duration": d})
        docs.append({"lens": {"k": k, "weights": weights},
                     "path": {"piecewise_hermitian": {"segments": segs}}})
    return docs


def test_torus_norms_equal_the_numpy_reference():
    # norms.norm_report on the TorusPath (float arithmetic) against the same
    # function on the UnitaryPath of the same document, with and without the
    # greedy decomposition
    for i, doc in enumerate(diagonal_docs(1000, seed=26)):
        job = parse_job(doc, "norms")
        assert job.torus is not None and job._path is None, i
        for decompose in (False, True):
            got = json.dumps(norms.norm_report(job.torus, decompose).as_dict(), sort_keys=True)
            want = json.dumps(norms.norm_report(job.path, decompose).as_dict(), sort_keys=True)
            assert got == want, (i, decompose)


def test_torus_decomposition_equals_the_greedy():
    # the shared walk cuts a torus path where the numpy greedy cuts its
    # UnitaryPath, bit for bit
    for i, doc in enumerate(diagonal_docs(120, seed=7)):
        job = parse_job(doc, "norms")
        assert job.torus.decomposition() == norms.greedy_embedded_decomposition(job.path), i


def test_torus_step_function_matches_evaluate_step():
    # the lifted line phases give the endpoint eigenphases' clusters, and the
    # same gap values
    for i, doc in enumerate(diagonal_docs(120, seed=11)):
        job = parse_job(doc, "norms")
        tp = job.torus
        got = torus.evaluate_step(tp)
        want = torus.evaluate_step(job.path)
        assert got.multiplicities == want.multiplicities, i
        assert got.values == want.values, i
        assert got.points == pytest.approx(want.points, rel=0, abs=1e-12), i


@pytest.mark.parametrize("durations, phases", [
    ([0.5, 0.25], [1.0, -0.25]),
    # integer durations: the phases are sum_i a_ij d_i at any total
    ([2, 2], [6.0, -4.0]),
])
def test_torus_path_normalization(durations, phases):
    tp = torus.TorusPath.of(new_lens(4, [1, 3]), [[1.0, 1.0], [2.0, -3.0]], durations)
    assert tp.starts[0] == 0.0 and tp.starts[-1] == 1.0
    assert sum(tp.durations) == pytest.approx(1.0)
    assert tp.phases == pytest.approx(phases)


@pytest.mark.parametrize("diagonals, durations", [
    ([[1.0]], [0]),
    ([[1.0]], [-1.0]),
    ([[1.0], [1.0]], [1e308, 1e308]),  # the total is not finite
    ([[1e308]], [1e300]),  # an entry times the total is not
])
def test_torus_path_refuses_what_unitary_path_refuses(diagonals, durations):
    assert torus.TorusPath.of(new_lens(3, [1]), diagonals, durations) is None


def test_clip_sliver_is_one_piece_of_the_segment_at_its_midpoint():
    starts = [0.0, 0.5, 1.0]
    assert torus.clip(starts, 0.25, 0.75) == [(0, 0.25, 0.5), (1, 0.5, 0.75)]
    assert torus.clip(starts, 0.5, 0.5 + 1e-16) == [(1, 0.5, 0.5 + 1e-16)]
    assert torus.clip(starts, 0.5 - 1e-16, 0.5) == [(0, 0.5 - 1e-16, 0.5)]


def maslov_paths(count, seed):
    """Seeded paths in the diagonal torus over LENSES, as (lens, diagonals,
    durations): one in six a Reeb path T I at T = 2 pi m, on it or 1e-13,
    1e-9 or 1e-6 off it; one in fifty the identity path; otherwise 1-4
    segments with entries in [-40, 40], with a zero line one segment in
    five."""
    rng = random.Random(seed)
    for i in range(count):
        k, weights = LENSES[i % len(LENSES)]
        lens, n = new_lens(k, weights), len(weights)
        if i % 6 == 5:
            T = rng.randint(-3, 3) * TWO_PI + rng.choice([0.0, 1e-13, -1e-13, 1e-9, -1e-9,
                                                          1e-6, -1e-6])
            yield lens, [[T] * n], [1.0]
        elif i % 50 == 7:
            yield lens, [[0.0] * n], [1.0]
        else:
            diagonals = [[rng.uniform(-40, 40) for _ in range(n)]
                         for _ in range(rng.randint(1, 4))]
            for diag in diagonals:
                if rng.random() < 0.2:
                    diag[rng.randrange(n)] = 0.0
            yield lens, diagonals, [rng.uniform(0.05, 1.0) for _ in diagonals]


def unitary_path(lens, diagonals, durations):
    """The UnitaryPath `jobs` builds from the same numbers."""
    return UnitaryPath(lens, [(np.diag(np.array(row, dtype=complex)), d)
                              for row, d in zip(diagonals, durations)])


def test_torus_maslov_equals_the_reference():
    # mu and N line by line against maslov_index and subdivide on the
    # UnitaryPath; a count left to the reference is a fallback, and most of
    # those are Reeb paths on or near the lattice, where a pivot is singular
    fallbacks = reeb_fallbacks = 0
    for i, (lens, diagonals, durations) in enumerate(maslov_paths(1000, seed=27)):
        path = torus.TorusPath.of(lens, diagonals, durations)
        ref = unitary_path(lens, diagonals, durations)
        assert torus.subdivision_count(path.spans) == len(maslov.subdivide(ref)) - 1, i
        mu = path.maslov_index()
        if mu is None:
            fallbacks += 1
            reeb_fallbacks += i % 6 == 5
        else:
            assert mu == maslov.maslov_index(ref), i
    # 103 of the 166 Reeb paths, and 14 of the 834 others
    assert (fallbacks, reeb_fallbacks) == (117, 103)


def test_line_count_is_shifted_counts_on_one_line():
    # fed numpy's own Cayley stacks of a diagonal family, at t = 0, 1 and
    # inside the path, the lines' counts add up to _shifted_counts' at both
    # of index_at's cuts
    answered = 0
    for i, (lens, diagonals, durations) in enumerate(maslov_paths(240, seed=5)):
        fam = maslov.BasedFamily(unitary_path(lens, diagonals, durations))
        if fam.N < 2:
            continue
        for t in (0.0, 1.0, random.Random(i).random()):
            C = cayley_hermitian(fam.transitions(t))
            s_hi = max(8.0, 4.0 + float(np.abs(C).sum(axis=-1).max()))
            cuts = NULL_TOL * np.array([2.0 / maslov.NULL_BRACKET, s_hi * maslov.NULL_BRACKET])
            want = maslov._shifted_counts(C, cuts)
            for cut, count in zip(cuts.tolist(), want):
                lines = [torus.line_count(C[:, j, j].real.tolist(), cut) for j in range(lens.n)]
                if None not in lines:
                    answered += 1
                    assert sum(lines) == count, (i, t, cut)
    assert answered == 1250  # of 1356 (path, t, cut); the rest carry a direction


def test_lattice_reeb_time_falls_back_to_the_reference():
    # L_2(1,1), T = 2 pi: the second partial product is -I, a singular pivot
    lens = new_lens(2, [1, 1])
    assert torus.TorusPath.of(lens, [[TWO_PI] * 2], [1.0]).maslov_index() is None
    assert maslov.maslov_index(unitary_path(lens, [[TWO_PI] * 2], [1.0])) == 4


def test_singular_pivot_is_a_fallback_not_a_division_by_zero():
    # f s - 4 = 0: the pivot [[2, 2i], [-2i, 2]] has the eigenvalues 0 and 4
    assert torus.line_count([2.0, 2.0], 0.0) is None


def test_dense_rule_near_ties_are_left_to_the_reference():
    # N = 1: numpy rounds the Cayley values otherwise, so a value at the
    # dense cut, or a largest |value| at the 1e-14 floor, could count either way
    c = 2 * math.tan(0.5)
    assert torus.family_index([[c], [NULL_TOL * c]]) is None
    assert torus.family_index([[1e-14], [0.0]]) is None
    assert torus.family_index([[c], [0.5 * NULL_TOL * c]]) == 2
    assert torus.family_index([[2e-14], [0.0]]) == 2
