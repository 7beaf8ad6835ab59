import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lenselect
from lenselect import jobs, maslov, torus, verify
from lenselect.cli import main
from lenselect.jobs import (MAX_LENS_PHASES, TASK_PARAMS, JobError, parse_job, render_table,
                            run_job, serialize)

TWO_PI = 2 * math.pi

# The submodules `import lenselect` registers lazily: all but cli.
LAZY_SUBMODULES = ["tolerances", "lens", "quadratic", "torus", "paths", "maslov", "selectors",
                   "geodesic", "norms", "jobs", "verify"]

# Each CLI flag: its parameter and the subcommand that reads it.
FLAG_PARAMS = {
    "--j-lo": ("selectors", "j_lo"),
    "--j-hi": ("selectors", "j_hi"),
    "--window-base": ("selectors", "window_base"),
    "-T": ("geodesic", "T"),
    "--suite": ("verify", "suite"),
    "--trials": ("verify", "trials"),
    "--seed": ("verify", "seed"),
}

# A prime k far above 2**40: trial division cannot find k' = k.
HUGE_PRIME_K = 1000000000000037


# Arbitrary JSON values for a field that wants a number; geodesic T from 1e4
# up runs in lattice arithmetic up to kT/2pi = 10**6 and is refused above.
GEODESIC_T = st.one_of(
    st.floats(min_value=0.0, max_value=8.0), st.integers(0, 8),
    st.floats(max_value=0.0, exclude_max=True), st.integers(max_value=-1),
    st.floats(min_value=1e4), st.integers(min_value=10**4), st.just(float("nan")),
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
)
ANY_NUMBER_FIELD = st.one_of(
    st.floats(), st.integers(), st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.floats(), max_size=2),
)

# Arbitrary JSON for the whole-CLI property: every field is either plausible
# or any JSON value.  Integers stay small (or past every cap) and trials at
# most 2, so no example runs long: n <= 3 and at most 4 segments.
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 50), st.sampled_from([2**53 + 1, 10**400]),
    st.floats(), st.text(max_size=4),
)
ANY_JSON = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _or_any(strategy):
    """strategy, or any JSON about one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: ANY_JSON if i == 7 else strategy)


# A generator entry: a number or, one time in eight, a JSON value that is
# not a finite float (numpy's decoding raised OverflowError on 10**400 and
# read true and "1.5" as numbers).
ENTRY = st.integers(0, 7).flatmap(
    lambda i: st.sampled_from([10**400, True, "1.5"]) if i == 7 else st.floats(-10, 10))


def _generator(n):
    entry = st.tuples(ENTRY, ENTRY).map(list)
    diagonal = st.lists(ENTRY, min_size=n, max_size=n).map(
        lambda d: [[[d[i], 0.0] if i == j else [0.0, 0.0] for j in range(n)] for i in range(n)])
    dense = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return diagonal | dense


@st.composite
def generator_calls(draw):
    """(argv, document) of a job on an explicit path over a valid lens, 1-3
    segments whose generator entries are drawn from ENTRY."""
    k, weights = draw(st.sampled_from([(2, [1]), (3, [1, 1]), (4, [1, 3]), (5, [1, 2, 3])]))
    segs = draw(st.lists(st.fixed_dictionaries({"generator": _generator(len(weights))},
                                               optional={"duration": st.floats(0.1, 2)}),
                         min_size=1, max_size=3))
    command = draw(st.sampled_from(["maslov", "selectors", "spectrum", "norms"]))
    return [command, "-"], {"lens": {"k": k, "weights": weights},
                            "path": {"piecewise_hermitian": {"segments": segs}}}


# A phase near a multiple of pi/2 (a lattice Reeb time when the multiple is
# even), on it, just off it or up to 1 away: from 300 quarter turns on, a
# Reeb path over L_3(1,1) is past the form cap.
NEAR_QUARTER_TURN = st.tuples(
    st.integers(-300, 300),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6]) | st.floats(-1, 1),
).map(lambda m_off: m_off[0] * math.pi / 2 + m_off[1])


@st.composite
def torus_maslov_docs(draw):
    """A `maslov` document on a Reeb path or a real-diagonal path of 1-3
    segments, with times and entries NEAR_QUARTER_TURN."""
    k, weights = draw(st.sampled_from([(2, [1]), (2, [1, 1]), (3, [1, 1]), (5, [1, 2, 3]),
                                       (7, [1, 2, 3, 4])]))
    doc = {"lens": {"k": k, "weights": weights}}
    if draw(st.booleans()):
        return {**doc, "path": {"reeb": draw(NEAR_QUARTER_TURN)}}
    n = len(weights)
    diagonals = draw(st.lists(st.lists(NEAR_QUARTER_TURN, min_size=n, max_size=n),
                              min_size=1, max_size=3))
    durations = draw(st.lists(st.sampled_from([1.0, 0.5]) | st.floats(0.1, 2),
                              min_size=len(diagonals), max_size=len(diagonals)))
    return {**doc, "path": hermitian_path(
        *[[[x if a == b else 0.0 for b in range(n)] for a, x in enumerate(diag)]
          for diag in diagonals], durations=durations)}


SEGMENT = st.fixed_dictionaries({"generator": _or_any(st.integers(1, 3).flatmap(_generator))},
                                optional={"duration": _or_any(st.floats(0.1, 2))})
PATH = _or_any(st.one_of(
    st.fixed_dictionaries({"reeb": _or_any(st.floats(-30, 30))}),
    st.fixed_dictionaries({"random": st.fixed_dictionaries({}, optional={
        "seed": _or_any(st.integers(0, 2**64)), "segments": _or_any(st.integers(0, 4)),
        "norm_bound": _or_any(st.floats(0, 4))})}),
    st.fixed_dictionaries({"piecewise_hermitian": st.fixed_dictionaries(
        {"segments": _or_any(st.lists(SEGMENT, max_size=4))})}),
))
PARAM_VALUES = {
    "j_lo": _or_any(st.integers(-8, 2)),
    "j_hi": _or_any(st.integers(-2, 8)),
    "window_base": _or_any(st.floats(-10, 10)),
    "decompose": _or_any(st.booleans()),
    "T": _or_any(st.floats(0, 100)),
    "suite": _or_any(st.sampled_from(jobs.VERIFY_SUITES)),
    # never an integer above 2, so a verify job runs at most 2 trials
    "trials": st.one_of(st.integers(-1, 2), st.floats(), st.none(), st.booleans(),
                        st.text(max_size=3)),
    "seed": _or_any(st.integers(-1, 5)),
}


@st.composite
def cli_calls(draw):
    """(argv, stdin bytes) of one `main` call: a subcommand, its flags with
    any values, and a job document."""
    command = draw(st.sampled_from(list(TASK_PARAMS)))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--table")
    for flag, (task, param) in FLAG_PARAMS.items():
        if task == command and draw(st.booleans()):
            value = draw(PARAM_VALUES[param])
            text = json.dumps(value) if draw(st.booleans()) else draw(st.text(min_size=1,
                                                                               max_size=4))
            # attached, so a value that starts with "-" is not read as a flag
            argv.append(f"{flag}={text}" if flag.startswith("--") else flag + text)
    if draw(st.integers(0, 7)) == 7:
        return argv, draw(st.binary(max_size=16))
    doc = {"lens": draw(_or_any(st.fixed_dictionaries({
        "k": _or_any(st.sampled_from([2, 3, 5, 7, 12])),
        "weights": _or_any(st.lists(st.integers(1, 13), min_size=1, max_size=3))})))}
    if draw(st.integers(0, 3)) < 3:
        doc["path"] = draw(PATH)
    if draw(st.booleans()):
        task = draw(st.sampled_from(list(TASK_PARAMS)))
        params = draw(st.fixed_dictionaries({}, optional={p: PARAM_VALUES[p]
                                                          for p in TASK_PARAMS[task]}))
        doc["task"] = {task: params}
    if draw(st.integers(0, 9)) == 9:
        doc["tolerances"] = draw(ANY_JSON)
    if draw(st.integers(0, 7)) == 7:
        doc = draw(ANY_JSON)
    return argv, json.dumps(doc).encode()


NAN, INF = float("nan"), float("inf")


def hermitian_path(*generators, durations=None):
    """A piecewise_hermitian path object from real matrices, one per segment."""
    segs = [{"generator": [[[x, 0.0] for x in row] for row in A]} for A in generators]
    for seg, d in zip(segs, durations or []):
        seg["duration"] = d
    return {"piecewise_hermitian": {"segments": segs}}


def diagonal_job(task=None, durations=None):
    """diag(3, 5, 7) then diag(-1, 2, 0.5) on L_5(1, 2, 3), whose weights are
    pairwise distinct mod 5: a path in the diagonal torus."""
    doc = {"lens": {"k": 5, "weights": [1, 2, 3]},
           "path": hermitian_path([[3, 0, 0], [0, 5, 0], [0, 0, 7]],
                                  [[-1, 0, 0], [0, 2, 0], [0, 0, 0.5]],
                                  durations=durations or [0.75, 0.25])}
    if task is not None:
        doc["task"] = task
    return doc


def reeb_job(k, weights, T, task=None):
    doc = {"lens": {"k": k, "weights": weights}, "path": {"reeb": T}}
    if task is not None:
        doc["task"] = task
    return doc


def run_python(args, blas_threads=None, **kwargs):
    """Run a fresh interpreter on lenselect's source, with OPENBLAS_NUM_THREADS
    unset or set by the caller."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(lenselect.__file__).resolve().parent.parent)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


class TestParseJob:
    def test_minimal(self):
        job = parse_job({"lens": {"k": 2, "weights": [1, 1]}})
        assert job.lens.k == 2
        assert job.task is None

    def test_malformed_json(self):
        with pytest.raises(JobError, match=r"\$: malformed"):
            parse_job("{not json")

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 10**5 + "]" * 10**5])
    def test_json_decoder_limits_are_input_errors(self, value, tmp_path, capsys):
        # an integer past Python's 4300-digit limit, or nesting past the
        # recursion limit, in the job file or in a flag
        doc = '{"lens": {"k": 3, "weights": [1, 1]}, "path": {"reeb": 1.0}, "x": VALUE}'
        with pytest.raises(JobError, match=r"^\$: malformed JSON"):
            parse_job(doc.replace("VALUE", value))
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0)))
        assert main(["selectors", str(f), "--j-lo", value]) == 2
        assert capsys.readouterr().err.startswith("error: task.selectors.j_lo:")

    def test_non_coprime_weight_field(self):
        with pytest.raises(JobError, match=r"lens\.weights\[0\]"):
            parse_job({"lens": {"k": 4, "weights": [2, 1]}})

    def test_non_hermitian_generator(self):
        seg = {"generator": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        doc = {
            "lens": {"k": 2, "weights": [1, 1]},
            "path": {"piecewise_hermitian": {"segments": [seg]}},
        }
        with pytest.raises(JobError, match=r"segments\[0\].generator.*asymmetry"):
            parse_job(doc)

    def test_bad_matrix_shape(self):
        seg = {"generator": [[1, 2], [3, 4]]}
        doc = {
            "lens": {"k": 2, "weights": [1, 1]},
            "path": {"piecewise_hermitian": {"segments": [seg]}},
        }
        with pytest.raises(JobError, match=r"\[re, im\]|shape"):
            parse_job(doc)

    @pytest.mark.parametrize("generator, message", [
        ([[[1, 0]], [[0, 0], [1, 0]]], "expected nested arrays of [re, im] pairs"),
        ([[1, 2], [3, 4]], "expected shape (n, n, 2) of [re, im] pairs, got (2, 2)"),
        ([[[1, 0, 0]]], "expected shape (n, n, 2) of [re, im] pairs, got (1, 1, 3)"),
        ([[[[1, 0]]]], "expected shape (n, n, 2) of [re, im] pairs, got (1, 1, 1, 2)"),
        ([[], []], "expected shape (n, n, 2) of [re, im] pairs, got (2, 0)"),
    ], ids=["ragged", "no-pairs", "triples", "too-deep", "empty-rows"])
    def test_matrix_shape_messages(self, generator, message):
        # decoded without numpy, with the messages numpy's shape gave
        doc = {"lens": {"k": 2, "weights": [1, 1]},
               "path": {"piecewise_hermitian": {"segments": [{"generator": generator}]}}}
        with pytest.raises(JobError) as e:
            parse_job(doc)
        assert str(e.value) == f"path.piecewise_hermitian.segments[0].generator: {message}"

    @pytest.mark.parametrize("entry", [10**400, True, "1.5", None, NAN, -INF, [1.0], {}],
                             ids=["past-float", "true", "string", "null", "nan", "inf",
                                  "list", "object"])
    @pytest.mark.parametrize("command", ["norms", "selectors"])
    def test_generator_entries_must_be_finite_numbers(self, tmp_path, capsys, command,
                                                      entry):
        # 10**400 raised OverflowError from numpy's decoding, a traceback and
        # exit 1; true and "1.5" were read as 1.0 and 1.5
        doc = diagonal_job()
        doc["path"]["piecewise_hermitian"]["segments"][1]["generator"][2][2][0] = entry
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: path.piecewise_hermitian.segments[1].generator:"), err

    def test_unknown_task(self):
        with pytest.raises(JobError, match="unknown task"):
            parse_job({"lens": {"k": 2, "weights": [1, 1]},
                       "task": {"frobnicate": {}}})

    @pytest.mark.parametrize("task", list(TASK_PARAMS))
    def test_tolerances_refused_on_every_task(self, task):
        # the first key is named; the null cut is fixed like the others
        doc = {**reeb_job(3, [1, 1], 1.0, {task: {}}),
               "tolerances": {"null": 1e-8, "phase_cluster": 1e-9}}
        with pytest.raises(JobError, match=r"^tolerances\.null:"):
            parse_job(doc)

    def test_empty_tolerances_accepted(self):
        assert parse_job({**reeb_job(3, [1, 1], 1.0), "tolerances": {}}).path is not None
        with pytest.raises(JobError, match=r"^tolerances:"):
            parse_job({**reeb_job(3, [1, 1], 1.0), "tolerances": [1e-8]})

    def test_bad_duration(self):
        seg = {"generator": [[[1, 0]]], "duration": -1}
        doc = {
            "lens": {"k": 2, "weights": [1]},
            "path": {"piecewise_hermitian": {"segments": [seg]}},
        }
        with pytest.raises(JobError, match="duration"):
            parse_job(doc)

    @pytest.mark.parametrize("doc, field, reads", [
        ({**reeb_job(3, [1, 1], 1.0), "comment": "x"}, "comment",
         "a job reads lens, path, task, tolerances"),
        ({"lens": {"k": 3, "weights": [1, 1], "weigths": [1, 2]}, "path": {"reeb": 1.0}},
         "lens.weigths", "lens reads k, weights"),
        ({"lens": {"k": 3, "weights": [1, 1]}, "path": {"random": {"seed": 1, "segmnts": 5}}},
         "path.random.segmnts", "random reads seed, segments, norm_bound"),
        ({"lens": {"k": 3, "weights": [1, 1]}, "path": {"piecewise_hermitian": {
            "segments": [{"generator": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}], "durations": [1]}}},
         "path.piecewise_hermitian.durations", "piecewise_hermitian reads segments"),
        ({"lens": {"k": 3, "weights": [1, 1]}, "path": {"piecewise_hermitian": {"segments": [
            {"generator": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
            {"generator": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]], "durration": 5}]}}},
         "path.piecewise_hermitian.segments[1].durration", "a segment reads generator, duration"),
    ], ids=["document", "lens", "random", "piecewise_hermitian", "segment"])
    def test_unknown_key_exits_two_on_its_field(self, tmp_path, capsys, doc, field, reads):
        # every input has an effect or exits 2: a misspelt key is not ignored
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main(["norms", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {field}: unknown key; {reads}\n"

    def test_unknown_keys_refused_in_order(self):
        # the document's keys before its lens, a lens's keys before k, and a
        # segment's keys before its entries, but after the segments before it
        with pytest.raises(JobError, match=r"^extra:"):
            parse_job({"lens": {"k": 1}, "extra": 1})
        with pytest.raises(JobError, match=r"^lens\.K:"):
            parse_job({"lens": {"k": 1, "K": 3}})
        doc = diagonal_job()
        segs = doc["path"]["piecewise_hermitian"]["segments"]
        segs[1]["durration"] = 5
        segs[1]["generator"] = "x"
        field = r"^path\.piecewise_hermitian\.segments"
        with pytest.raises(JobError, match=field + r"\[1\]\.durration:"):
            parse_job(doc)
        segs[0]["generator"] = "x"
        with pytest.raises(JobError, match=field + r"\[0\]\.generator:"):
            parse_job(doc)


class TestRunJob:
    def test_maslov_reeb(self):
        job = parse_job(reeb_job(2, [1, 1], TWO_PI, {"maslov": {}}))
        rep = run_job(job)
        assert rep["results"]["mu"] == 4
        assert rep["results"]["reeb_period"] == {
            "num": 1, "den": 2, "approx": pytest.approx(math.pi)
        }

    def test_selectors_identity(self):
        job = parse_job(reeb_job(2, [1, 1], 0.0, {"selectors": {"j_lo": -3,
                                                                "j_hi": 0}}))
        rep = run_job(job)
        for j in range(-3, 1):
            assert rep["results"]["selectors"][str(j)] == pytest.approx(0.0,
                                                                        abs=1e-9)

    def test_norms_reeb_lattice(self):
        T = 3 * math.pi  # 3 T_w on L_2
        job = parse_job(reeb_job(2, [1, 1], T, {"norms": {}}))
        res = run_job(job)["results"]
        assert res["nu"] == {"num": 3, "den": 2,
                             "approx": pytest.approx(T, abs=1e-9)}
        assert res["nu_star"]["num"] == 0
        assert res["nu_star_shift"]["num"] == 3

    def test_geodesic(self):
        job = parse_job({"lens": {"k": 3, "weights": [1, 1]},
                         "task": {"geodesic": {"T": 4 * math.pi}}})
        res = run_job(job)["results"]
        assert res["verdict"] == "certified"
        assert res["lower"] == res["upper"] == 7

    def test_missing_task(self):
        with pytest.raises(JobError, match="task"):
            run_job(parse_job(reeb_job(2, [1, 1], 1.0)))

    def test_missing_path(self):
        with pytest.raises(JobError, match="path"):
            parse_job({"lens": {"k": 2, "weights": [1, 1]}, "task": {"maslov": {}}})

    @pytest.mark.parametrize("command, doc, flags, field", [
        # the task's values, then the lens-only caps, then the path's presence
        ("selectors", {}, {"j_lo": "x"}, "task.selectors.j_lo"),
        ("selectors", {}, {"j_lo": 3, "j_hi": 0}, "task.selectors"),
        ("norms", {"task": {"norms": {"decompose": 1}}}, {}, "task.norms.decompose"),
        ("geodesic", {}, {"T": -1}, "task.geodesic.T"),
        ("verify", {}, {"trials": 1001}, "task.verify.trials"),
        ("spectrum", {"lens": {"k": 10**8, "weights": [1, 1]}}, {}, "lens.k"),
        ("maslov", {"lens": {"k": HUGE_PRIME_K, "weights": [1, 2]}}, {}, "lens.k"),
        ("spectrum", {"path": None}, {}, "path"),
        # the path's price
        ("maslov", {"lens": {"k": 3, "weights": [1, 1, 1, 1]}, "path": {"reeb": 250.0}}, {},
         "path"),
        ("selectors", {"path": {"reeb": 1e17}}, {}, "path"),
        ("selectors", {}, {"window_base": 1e17}, "task.selectors.window_base"),
        ("norms", {"path": {"reeb": 1e4}, "task": {"norms": {"decompose": True}}}, {}, "path"),
        # kT/2pi = 2 10**6 on L_3: the snap window spans 2e-3 of a step
        ("geodesic", {}, {"T": 2 * 10**6 * TWO_PI / 3}, "task.geodesic.T"),
    ])
    def test_parse_job_makes_every_refusal(self, command, doc, flags, field):
        with pytest.raises(JobError, match=rf"^{re.escape(field)}:"):
            parse_job({**reeb_job(3, [1, 1], 1.0), **doc}, command, flags)

    def test_run_job_refuses_only_a_missing_task(self):
        with pytest.raises(JobError, match=r"^task:"):
            run_job(parse_job(reeb_job(3, [1, 1], 1.0)))

    @pytest.mark.parametrize("command, doc, field", [
        ("selectors", {"task": {"selectors": {"j_hi": 0.5}}}, "task.selectors.j_hi"),
        ("norms", {"task": {"norms": {"decompose": "yes"}}}, "task.norms.decompose"),
        ("maslov", {"lens": {"k": HUGE_PRIME_K, "weights": [1, 2]}}, "lens.k"),
    ])
    def test_task_value_reported_before_bad_path(self, command, doc, field):
        bad_path = {"piecewise_hermitian": {"segments": [{"generator": [[[NAN, 0]]]}]}}
        with pytest.raises(JobError, match=r"^path\.piecewise_hermitian"):
            parse_job({**reeb_job(3, [1, 1], 1.0), "path": bad_path}, command)
        with pytest.raises(JobError, match=rf"^{re.escape(field)}:"):
            parse_job({**reeb_job(3, [1, 1], 1.0), **doc, "path": bad_path}, command)

    @pytest.mark.parametrize("params, field", [
        ({"trials": True}, "task.verify.trials"),
        ({"trials": 2.0}, "task.verify.trials"),
        ({"seed": False}, "task.verify.seed"),
        ({"suite": ["thm1"]}, "task.verify.suite"),
        ({"trails": 3}, "task.verify.trails"),
    ])
    def test_bad_verify_params(self, params, field):
        # values are checked where run_job reads them, whether the job file
        # holds them or the CLI's flags, which arrive as JSON values
        lens = {"lens": {"k": 2, "weights": [1, 1]}}
        for args in (({**lens, "task": {"verify": params}},), (lens, "verify", params)):
            with pytest.raises(JobError, match=rf"^{field}:"):
                run_job(parse_job(*args))

    def test_flags_override_params_but_are_not_echoed(self):
        doc = reeb_job(3, [1, 1], 1.0, {"selectors": {"j_lo": -1, "j_hi": 0}})
        rep = run_job(parse_job(doc, "selectors", {"j_hi": 1}))
        assert rep["job"]["params"] == {"j_lo": -1, "j_hi": 0}
        assert set(rep["results"]["selectors"]) == {"-1", "0", "1"}

    def test_subcommand_drops_other_tasks_params_after_checking_keys(self):
        doc = reeb_job(3, [1, 1], 1.0, {"geodesic": {"T": 1.0}})
        rep = run_job(parse_job(doc, "maslov"))
        assert rep["job"]["task"] == "maslov" and rep["job"]["params"] == {}
        with pytest.raises(JobError, match=r"^task\.geodesic\.j_lo:"):
            parse_job(reeb_job(3, [1, 1], 1.0, {"geodesic": {"j_lo": 0}}), "selectors")

    def test_deterministic_serialization(self):
        doc = reeb_job(2, [1, 1], 1.5, {"selectors": {}})
        a = serialize(run_job(parse_job(json.dumps(doc))))
        b = serialize(run_job(parse_job(json.dumps(doc))))
        assert a == b

    def test_render_table_alignment(self):
        rep = run_job(parse_job(reeb_job(2, [1, 1], 1.0, {"maslov": {}})))
        table = render_table(rep)
        assert "mu" in table
        cols = {line.index(line.split()[-1]) for line in table.splitlines()}
        assert len(cols) == 1  # one aligned value column


class TestMain:
    def test_maslov_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(2, [1, 1], TWO_PI)))
        assert main(["maslov", str(f)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["mu"] == 4

    def test_input_error_exit_two(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"lens": {"k": 4, "weights": [2, 1]}}))
        assert main(["maslov", str(f)]) == 2
        assert "lens.weights[0]" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["maslov", "/nonexistent/job.json"]) == 2

    def test_internal_error_exit_three(self, tmp_path, capsys, monkeypatch):
        # a failed self-check is a fault of the program, not of the job:
        # one line on stderr, no report and no traceback
        def failing(path):
            raise AssertionError("ind(F_0) = 3, expected 2nN = 4")

        monkeypatch.setattr(maslov, "maslov_index", failing)
        f = tmp_path / "job.json"
        f.write_text(json.dumps({"lens": {"k": 3, "weights": [1, 1]},
                                 "path": {"random": {"seed": 1}}}))
        assert main(["maslov", str(f)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: ind(F_0) = 3, expected 2nN = 4\n"
        assert "Traceback" not in err

    def test_line_count_self_check_exit_three(self, tmp_path, capsys, monkeypatch):
        # a Reeb path counts its family line by line, with the reference's
        # ind(F_0) = 2nN self-check (N = 1, n = 2)
        monkeypatch.setattr(torus, "family_index", lambda cayley: 3)
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(2, [1, 1], 1.0)))
        assert main(["maslov", str(f)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: based-family self-check failed: ind(F_0) = 3 != 4\n"

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io
        import sys

        payload = json.dumps(reeb_job(2, [1, 1], 1.0)).encode()
        monkeypatch.setattr(
            sys, "stdin",
            type("S", (), {"buffer": io.BytesIO(payload)})(),
        )
        assert main(["maslov", "-"]) == 0

    def test_selector_flags(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(2, [1, 1], 0.0)))
        assert main(["selectors", str(f), "--j-lo", "-1", "--j-hi", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["results"]["selectors"]) == {"-1", "0", "1", "2"}

    @pytest.mark.parametrize("params, flags, field", [
        ({"j_lo": "abc"}, [], "task.selectors.j_lo"),
        ({"j_lo": True}, [], "task.selectors.j_lo"),
        ({"j_hi": 1.5}, [], "task.selectors.j_hi"),
        ({"window_base": "x"}, [], "task.selectors.window_base"),
        ({"window_base": float("nan")}, [], "task.selectors.window_base"),
        ({}, ["--window-base", "inf"], "task.selectors.window_base"),
        ({"j_lo": 2, "j_hi": 1}, [], "task.selectors:"),
        ({}, ["--j-lo", "3", "--j-hi", "0"], "task.selectors:"),
        ({"j_lo": -1, "j_hi": 5}, ["--j-lo", "6"], "task.selectors:"),
        ({"j": 0}, [], "task.selectors.j:"),
        ({"window": 1.0}, ["--window-base", "1.0"], "task.selectors.window:"),
    ])
    def test_bad_selector_params_exit_two(self, tmp_path, capsys, params, flags, field):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0, {"selectors": params})))
        assert main(["selectors", str(f), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

    @pytest.mark.parametrize("spec, field", [
        ({"segments": 0}, "path.random.segments"),
        ({"segments": "2"}, "path.random.segments"),
        ({"segments": True}, "path.random.segments"),
        ({"segments": 2.0}, "path.random.segments"),
        ({"norm_bound": 0}, "path.random.norm_bound"),
        ({"norm_bound": -1.5}, "path.random.norm_bound"),
        ({"norm_bound": float("inf")}, "path.random.norm_bound"),
        ({"norm_bound": "big"}, "path.random.norm_bound"),
    ])
    def test_bad_random_path_exit_two(self, tmp_path, capsys, spec, field):
        f = tmp_path / "job.json"
        doc = {"lens": {"k": 3, "weights": [1, 1]}, "path": {"random": {"seed": 1, **spec}}}
        f.write_text(json.dumps(doc))
        assert main(["maslov", str(f)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

    @pytest.mark.parametrize("command, doc, flags, field", [
        ("geodesic", {}, ["-T", "1e308"], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {"T": 1e308}}}, [], "task.geodesic.T"),
        # kT/2pi just above 10**6 on L_2: the snap spans more than 1e-3 of a step
        ("geodesic", {"lens": {"k": 2, "weights": [1, 1]},
                      "task": {"geodesic": {"T": 10**6 * math.pi * (1 + 1e-12)}}}, [],
         "task.geodesic.T"),
        ("geodesic", {}, ["-T", "inf"], "task.geodesic.T"),
        ("geodesic", {}, ["-T", "-1"], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {"T": True}}}, [], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {"T": "4"}}}, [], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {}}}, [], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {"T": 10**400}}}, [], "task.geodesic.T"),
        # kT/2pi = 2 10**6 on L_3, twice the limit
        ("geodesic", {}, ["-T", repr(2 * 10**6 * TWO_PI / 3)], "task.geodesic.T"),
        ("geodesic", {"task": {"geodesic": {"T": 1.0}}}, ["-T", "nan"], "task.geodesic.T"),
        ("geodesic", {"lens": {"k": 7, "weights": [1, 2]},
                      "task": {"geodesic": {"T": 1e6}}}, [], "task.geodesic.T"),
        ("maslov", {"tolerances": {"null": "x"}}, [], "tolerances.null"),
        ("maslov", {"tolerances": {"null": True}}, [], "tolerances.null"),
        ("maslov", {"tolerances": {"null": None}}, [], "tolerances.null"),
        ("maslov", {"tolerances": {"null": -1e-8}}, [], "tolerances.null"),
        ("spectrum", {"tolerances": {"null": float("nan")}}, [], "tolerances.null"),
        # the former default null cut is refused too: the cut is fixed
        ("maslov", {"tolerances": {"null": 1e-8}}, [], "tolerances.null"),
        ("selectors", {"tolerances": {"null": 1e-8}}, [], "tolerances.null"),
        ("maslov", {"path": {"random": {"seed": 3, "segments": 3, "norm_bound": 8}},
                    "tolerances": {"null": 0.5}}, [], "tolerances.null"),
        ("maslov", {"path": hermitian_path([[NAN, 0], [0, 0]])}, [],
         "path.piecewise_hermitian.segments[0].generator"),
        ("maslov", {"path": hermitian_path([[0, 0], [0, INF]])}, [],
         "path.piecewise_hermitian.segments[0].generator"),
        # L_4(1, 3): the off-diagonal entries mix the two weight classes
        ("maslov", {"lens": {"k": 4, "weights": [1, 3]},
                    "path": hermitian_path([[1, 0], [0, 2]], [[0, 1], [1, 0]])}, [],
         "path.piecewise_hermitian.segments[1].generator"),
        ("maslov", {"path": hermitian_path([[1, 0], [0, 2]], [[1, 0], [0, 2]],
                                           durations=[1.0, 0])}, [],
         "path.piecewise_hermitian.segments[1].duration"),
        ("maslov", {"lens": {"k": 3, "weights": [True, True]}}, [], "lens.weights[0]"),
        ("maslov", {"lens": {"k": 3, "weights": [1, 1.5]}}, [], "lens.weights[1]"),
        ("verify", {}, ["--suite", "nope"], "task.verify.suite"),
        ("verify", {}, ["--trials", "0"], "task.verify.trials"),
        ("verify", {}, ["--seed", "-1"], "task.verify.seed"),
        ("norms", {"tolerances": {"phase_cluster": 1e-9}}, [], "tolerances.phase_cluster"),
        ("geodesic", {"task": {"geodesic": {"T": 1.0}}, "tolerances": {"period_snap": 0}},
         [], "tolerances.period_snap"),
        ("norms", {"task": {"norms": {"decompose": "false"}}}, [], "task.norms.decompose"),
        ("norms", {"task": {"norms": {"decompose": 0}}}, [], "task.norms.decompose"),
        ("norms", {"task": {"norms": {"decompose": False, "bogus": 1}}}, [],
         "task.norms.bogus"),
        ("maslov", {"task": {"maslov": {"null": 1e-8}}}, [], "task.maslov.null"),
        ("spectrum", {"task": {"spectrum": {"level": "lens"}}}, [], "task.spectrum.level"),
        ("geodesic", {"task": {"geodesic": {"T": 1.0, "k": 3}}}, [], "task.geodesic.k"),
        # an integer T whose k T overflows a float
        ("geodesic", {"task": {"geodesic": {"T": 10**308}}}, [], "task.geodesic.T"),
        # T < 1 snaps within 1e-9, more than 1e-3 of a step once k > 2 pi 10**6
        ("geodesic", {"lens": {"k": 10**7, "weights": [1, 1]},
                      "task": {"geodesic": {"T": 0.5}}}, [], "task.geodesic.T"),
    ])
    def test_bad_geodesic_or_tolerance_exit_two(self, tmp_path, capsys, command, doc,
                                                flags, field):
        f = tmp_path / "job.json"
        f.write_text(json.dumps({**reeb_job(3, [1, 1], 1.0), **doc}))
        argv = [command, *flags] if command == "verify" else [command, str(f), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")

    @pytest.mark.parametrize("command", ["maslov", "selectors", "spectrum", "norms"])
    @pytest.mark.parametrize("path, field", [
        # A times the total duration overflows
        (hermitian_path([[1e308, 0], [0, 1e308]], durations=[1e300]), "segments[0].generator"),
        # finite entries, but the eigenvalue 2e308 overflows
        (hermitian_path([[1e308, 1e308], [1e308, 1e308]]), "segments[0].generator"),
        (hermitian_path([[1, 0], [0, 1]], [[1e308, 1e308], [1e308, 1e308]],
                        durations=[0.5, 0.5]), "segments[1].generator"),
        # each duration is finite, their sum is not
        (hermitian_path([[1, 0], [0, 1]], [[1, 0], [0, 1]], durations=[1e308, 1e308]),
         "piecewise_hermitian: total duration"),
    ])
    def test_overflowing_phase_travel_exit_two(self, tmp_path, capsys, command, path, field):
        f = tmp_path / "job.json"
        f.write_text(json.dumps({"lens": {"k": 3, "weights": [1, 1]}, "path": path}))
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: path.") and field in err

    @pytest.mark.parametrize("command", ["maslov", "selectors", "spectrum", "norms",
                                         "geodesic", "verify"])
    def test_tol_null_flag_refused(self, command, capsys):
        with pytest.raises(SystemExit) as e:
            main([command, "--tol-null", "1e-8"])
        assert e.value.code == 2
        assert "--tol-null" in capsys.readouterr().err

    def test_verify_takes_no_job_file(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["verify", "--suite", "geodesic", "--trials", "1", "/nonexistent.json"])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_random_path_mu_at_fixed_null_cut(self, tmp_path, capsys):
        # a null cut of 0.2 gave mu = 0 on this job; the closed form gives 2
        doc = {"lens": {"k": 3, "weights": [1, 1]},
               "path": {"random": {"seed": 5, "segments": 2, "norm_bound": 3}}}
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main(["maslov", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        closed_form = maslov.evaluate_step(parse_job(doc).path).value_at(0.0)
        assert report["results"]["mu"] == closed_form == 2
        assert report["tolerances"]["null"] == 1e-8
        assert "tolerances" not in report["job"]

    @pytest.mark.parametrize("command, doc, field", [
        # ||A|| d ~ 1e308: subdivide would list ~1e308 breakpoints
        ("maslov", {"path": {"random": {"seed": 1, "norm_bound": 1e308}}}, "path"),
        ("maslov", {"path": {"reeb": 1e300}}, "path"),
        # an eigenvalue of A overflows to inf: refused by UnitaryPath
        ("maslov", {"path": hermitian_path([[1e308, 1e308], [1e308, 1e308]])},
         "path.piecewise_hermitian.segments[0].generator"),
        # N = 160 intervals on L_3(1,1,1,1): D = 319 * 8 = 2552
        ("maslov", reeb_job(3, [1, 1, 1, 1], 250.0), "path"),
        ("spectrum", {"lens": {"k": 10**8, "weights": [1, 1]}}, "lens.k"),
        ("spectrum", {"lens": {"k": MAX_LENS_PHASES // 2 + 1, "weights": [1, 1]}},
         "lens.k"),
        # the det-lift sum tr(A) d = 2T rounds off by more than DET_LIFT_TOL
        ("selectors", {"path": {"reeb": 1e300}}, "path"),
        ("selectors", {"path": {"reeb": 1e17}}, "path"),
        ("norms", {"path": {"reeb": 1e300}}, "path"),
        ("norms", {"path": {"reeb": 1e17}}, "path"),
        # the window terms n mid of W round off by about n u |window_base|
        ("selectors", {"task": {"selectors": {"window_base": 1e17}}},
         "task.selectors.window_base"),
        ("selectors", {"task": {"selectors": {"window_base": -1e300}}},
         "task.selectors.window_base"),
        ("selectors", {"task": {"selectors": {"window_base": 1e300}}},
         "task.selectors.window_base"),
        # 10^6 + 1 selectors; |j| past 2^53
        ("selectors", {"task": {"selectors": {"j_lo": 0, "j_hi": 10**6}}},
         "task.selectors"),
        ("selectors", {"task": {"selectors": {"j_lo": 10**400, "j_hi": 10**400}}},
         "task.selectors.j_lo"),
        ("selectors", {"task": {"selectors": {"j_lo": -(10**400)}}}, "task.selectors.j_lo"),
        ("selectors", {"task": {"selectors": {"j_hi": 2**53 + 1}}}, "task.selectors.j_hi"),
        # L_3(1,1), Reeb T: up to floor(3T / 2 pi) + 2 pieces, 4776 at T = 10^4
        ("norms", {"path": {"reeb": 1e4}, "task": {"norms": {"decompose": True}}}, "path"),
        ("norms", {"path": {"reeb": 1e9}, "task": {"norms": {"decompose": True}}}, "path"),
        # trace 0, so the det-lift check passes; k ||A|| overflows the price
        ("norms", {"path": hermitian_path([[0.0, 1e308], [1e308, 0.0]]),
                   "task": {"norms": {"decompose": True}}}, "path"),
    ])
    def test_cost_over_cap_exits_two_at_once(self, tmp_path, capsys, command, doc, field):
        f = tmp_path / "job.json"
        f.write_text(json.dumps({**reeb_job(3, [1, 1], 1.0), **doc}))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(f)]) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    def test_det_lift_bound_boundary(self, tmp_path, capsys):
        # L_3(1,1): a Reeb path of time T has lift 2T and roundoff bound
        # 2u * 2T, which passes DET_LIFT_TOL at T = 2.2e9 but not at 2.3e9
        under, over = (parse_job(reeb_job(3, [1, 1], T)).spans for T in (2.2e9, 2.3e9))
        assert (jobs._det_lift_roundoff(2, under) <= jobs.DET_LIFT_TOL
                < jobs._det_lift_roundoff(2, over))
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 2.2e9)))
        assert main(["selectors", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["c_plus"] == 2.2e9
        # a norms job prices the Reeb path in arithmetic, with the same bound
        assert main(["norms", str(f)]) == 0
        f.write_text(json.dumps(reeb_job(3, [1, 1], 2.3e9)))
        assert main(["norms", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: path:")

    def test_window_base_bound_boundary(self, tmp_path, capsys):
        # L_3(1,1), Reeb T = 1: the bound is 4u + 2u |window_base|, which
        # passes DET_LIFT_TOL at 4.5e9 but not at 4.6e9
        spans = parse_job(reeb_job(3, [1, 1], 1.0)).spans
        assert (jobs._det_lift_roundoff(2, spans, -4.5e9) <= jobs.DET_LIFT_TOL
                < jobs._det_lift_roundoff(2, spans, 4.6e9))
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0,
                                         {"selectors": {"window_base": -4.5e9}})))
        assert main(["selectors", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["c_plus"] == 1.0
        assert main(["selectors", str(f), "--window-base", "4.6e9"]) == 2
        assert capsys.readouterr().err.startswith("error: task.selectors.window_base:")

    def test_selector_range_boundary(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0)))
        cap = jobs.MAX_SELECTORS
        assert main(["selectors", str(f), "--j-lo", "1", "--j-hi", str(cap)]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["selectors"]) == cap
        assert main(["selectors", str(f), "--j-lo", "0", "--j-hi", str(cap)]) == 2
        assert capsys.readouterr().err.startswith("error: task.selectors:")
        # |j| = 2^53 runs: c_j = 1 + 2 pi ceil(j / 4) (spectrum {1}, n = 2)
        j = -(2**53)
        assert main(["selectors", str(f), "--j-lo", str(j), "--j-hi", str(j)]) == 0
        got = json.loads(capsys.readouterr().out)["results"]["selectors"][str(j)]
        assert got == 1.0 + TWO_PI * (j // 4)

    def test_decompose_price_boundary(self, tmp_path, capsys):
        # L_3(1,1), Reeb T = 2000: the price floor(3T / 2 pi) + 2 = 956 is
        # under the cap, and the greedy makes floor(3T / 2 pi) + 1 pieces
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 2000.0, {"norms": {"decompose": True}})))
        job = parse_job(f.read_text())
        assert jobs._max_pieces(3, job.spans) == 956  # priced in arithmetic
        assert jobs._max_pieces(3, job.path.spans) == 956
        assert main(["norms", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["dis_upper"] == 955

    def test_reeb_prices_match_the_path_prices(self):
        # the arithmetic spans of a Reeb path against those of its
        # UnitaryPath, up to roundoff: numpy sums the diagonal in its own
        # order, and eigh of 1e300 I scales by powers of 2
        rng = random.Random(3)
        for k, w in ((3, [1]), (3, [1, 1]), (2, [1, 1, 1]), (5, [1, 2, 3]), (4, [1, 3]),
                     (7, [1] * 8)):
            times = [rng.uniform(-2e3, 2e3) for _ in range(10)] + [0.0, 2.2e9, -2.3e9, 1e300]
            for T in times:
                job = parse_job(reeb_job(k, w, T))
                spans = job.spans
                assert job._path is None
                built = job.path.spans
                assert len(spans) == len(built) == 1, (k, w, T)
                assert spans[0] == pytest.approx(built[0], rel=1e-15, abs=0), (k, w, T)

    def test_torus_prices_match_the_path_prices(self):
        # a real-diagonal path is priced from its diagonals, up to the
        # roundoff of numpy's order of summation
        rng = random.Random(26)
        for k, w in ((3, [1]), (5, [1, 2, 3]), (4, [1, 3]), (7, [1, 2, 3, 4]), (7, [1] * 8)):
            for scale in (1.0, 1e3, 1e9, 1e-300):
                segments = rng.randint(1, 5)
                diags = [[rng.uniform(-scale, scale) for _ in w] for _ in range(segments)]
                durations = [rng.uniform(0.01, 3.0) for _ in range(segments)]
                job = parse_job({"lens": {"k": k, "weights": w},
                                 "path": hermitian_path(*[[[x if a == b else 0.0 for b in
                                                            range(len(w))] for a, x in
                                                           enumerate(d)] for d in diags],
                                                        durations=durations)})
                spans = job.spans
                assert job.torus is not None and job._path is None
                built = job.path.spans
                assert len(spans) == len(built) == segments, (k, w, scale)
                for got, want in zip(spans, built):
                    assert got == pytest.approx(want, rel=1e-15, abs=0), (k, w, scale)

    @pytest.mark.parametrize("doc, field", [
        (diagonal_job(durations=[1.0, 0]), "path.piecewise_hermitian.segments[1].duration"),
        # an entry times the total duration overflows
        (diagonal_job(durations=[1e308, 1.0]), "path.piecewise_hermitian.segments[0].generator"),
        # each duration is finite, their sum is not
        (diagonal_job(durations=[1e308, 1e308]), "path.piecewise_hermitian"),
        # a 1e-300 off-diagonal entry: not diagonal, a valid path of the numpy route
        ({**diagonal_job(), "path": {"piecewise_hermitian": {"segments": [{"generator": [
            [[3.0, 0.0], [1e-300, 0.0], [0.0, 0.0]], [[1e-300, 0.0], [5.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [7.0, 0.0]]]}]}}}, None),
        # an imaginary part 1e-300 on the diagonal: Hermitian within tolerance
        ({**diagonal_job(), "path": {"piecewise_hermitian": {"segments": [{"generator": [
            [[3.0, 1e-300], [0.0, 0.0]], [[0.0, 0.0], [5.0, 0.0]]]}]}},
          "lens": {"k": 4, "weights": [1, 3]}}, None),
    ], ids=["zero-duration", "entry-times-total", "total", "off-diagonal", "imaginary"])
    def test_diagonal_refusals_keep_their_field(self, doc, field):
        # a path the torus does not take is refused by UnitaryPath, on the
        # field it was refused on before, or answered on the numpy route
        if field is not None:
            with pytest.raises(JobError, match=rf"^{re.escape(field)}:"):
                parse_job(doc, "norms")
            return
        job = parse_job(doc, "norms", {"decompose": True})
        assert job.torus is None and job._path is not None
        assert run_job(job)["results"]["dis_lower"] >= 1

    @pytest.mark.parametrize("kind", ["random", "piecewise_hermitian"])
    def test_segment_cap_boundary(self, tmp_path, capsys, kind):
        def doc(count):
            path = ({"random": {"seed": 1, "segments": count}} if kind == "random"
                    else hermitian_path(*[[[0.5, 0.0], [0.0, -0.25]]] * count))
            return {**reeb_job(3, [1, 1], 1.0), "path": path}

        cap = jobs.MAX_SEGMENTS
        assert len(parse_job(doc(cap)).path.segments) == cap
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc(cap + 1)))
        start = time.perf_counter()
        assert main(["selectors", str(f)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith(f"error: path.{kind}.segments:")

    def test_maslov_form_cap_boundary(self, tmp_path, capsys):
        # L_3(1): a generator 256 pi for time 1 gives N = 512 intervals and
        # D = 1023 * 2 = 2046 <= MAX_FORM_DIM; any more travel makes N = 513
        assert (2 * 512 - 1) * 2 <= jobs.MAX_FORM_DIM < (2 * 513 - 1) * 2
        lens = {"k": 3, "weights": [1]}
        at_cap = {"lens": lens, "path": hermitian_path([[256 * math.pi]])}
        assert torus.subdivision_count(parse_job(at_cap).spans) == 512
        f = tmp_path / "job.json"
        # a real-diagonal path: its line count leaves the lattice to the reference
        f.write_text(json.dumps(at_cap))
        assert main(["maslov", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["mu"] == 256
        f.write_text(json.dumps({"lens": lens,
                                 "path": hermitian_path([[256 * math.pi + 1e-9]])}))
        assert main(["maslov", str(f)]) == 2
        assert "dimension 2050 (N = 513 intervals)" in capsys.readouterr().err
        # a Reeb path is priced from T alone
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1e4)))
        assert main(["maslov", str(f)]) == 2
        assert capsys.readouterr().err == (
            "error: path: the Maslov form needs dimension 50932 (N = 6367 intervals), "
            "more than 2048\n")

    def test_spectrum_at_phase_cap_runs(self, tmp_path, capsys):
        k = MAX_LENS_PHASES // 2
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(k, [1, 1], 1.0)))
        assert main(["spectrum", str(f)]) == 0
        lens_level = json.loads(capsys.readouterr().out)["results"]["lens"]
        assert sum(lens_level["multiplicities"]) == MAX_LENS_PHASES

    @given(command=st.sampled_from(["geodesic", "maslov"]), T=GEODESIC_T,
           null=ANY_NUMBER_FIELD)
    @settings(max_examples=60, deadline=None)
    def test_geodesic_and_null_values_exit_zero_or_two(self, tmp_path_factory, command,
                                                       T, null):
        # any tolerances.null is refused; without it T alone decides
        doc = reeb_job(3, [1, 1], 1.0, {"geodesic": {"T": T}})
        directory = tmp_path_factory.mktemp("job")

        def run(document):
            f = directory / "job.json"
            f.write_text(json.dumps(document))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main([command, str(f)]), err.getvalue()

        code, err = run({**doc, "tolerances": {"null": null}})
        assert code == 2 and err.startswith("error: tolerances.null:")
        code, err = run(doc)
        assert code in (0, 2)
        if code == 2:
            assert command == "geodesic" and err.startswith("error: task.geodesic.T:")

    @given(call=cli_calls())
    @settings(max_examples=100, deadline=None)
    def test_main_returns_an_exit_code_on_any_input(self, call):
        # the exit-code contract: any document and flag values give 0, 1, 2
        # or 3, and main raises nothing
        argv, document = call
        stdin = type("S", (), {"buffer": io.BytesIO(document)})()
        with mock.patch.object(sys, "stdin", stdin), warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            assert main(argv) in (0, 1, 2, 3)

    @given(call=generator_calls())
    @settings(max_examples=100, deadline=None)
    def test_generator_entries_exit_two_on_their_segment(self, call):
        # an entry that is not a finite float exits 2 on the first segment
        # that holds one, before any path is built
        argv, doc = call
        segments = doc["path"]["piecewise_hermitian"]["segments"]
        bad = [i for i, seg in enumerate(segments)
               if not all(type(x) is float for row in seg["generator"] for pair in row
                          for x in pair)]
        stdin = type("S", (), {"buffer": io.BytesIO(json.dumps(doc).encode())})()
        err = io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(argv)
        if bad:
            field = f"path.piecewise_hermitian.segments[{bad[0]}].generator"
            assert code == 2 and err.getvalue().startswith(f"error: {field}:"), err.getvalue()
        else:
            assert code in (0, 2)

    @given(doc=torus_maslov_docs())
    @settings(max_examples=60, deadline=None)
    def test_line_count_maslov_jobs_match_the_reference(self, doc):
        # a Reeb or real-diagonal maslov job answers with the reference's mu,
        # by the line count or by falling back to the reference, or exits 2
        # past the form cap; a singular pivot (f s - 4 = 0 at a lattice
        # time) is a fallback, never a raise
        stdin = type("S", (), {"buffer": io.BytesIO(json.dumps(doc).encode())})()
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["maslov", "-"])
        assert code in (0, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: path: the Maslov form needs dimension")
            return
        mu = json.loads(out.getvalue())["results"]["mu"]
        assert mu == maslov.maslov_index(parse_job(doc, "maslov").path)

    def test_jobs_do_not_import_scipy(self, tmp_path):
        # scipy.linalg is loaded only by the product-path log; none of these
        # jobs builds a product path
        rand = {"random": {"seed": 3, "segments": 3, "norm_bound": 8}}
        jobs = {
            "maslov": {"lens": {"k": 3, "weights": [1, 1]}, "path": rand},
            "selectors": {"lens": {"k": 4, "weights": [1, 3]}, "path": rand},
            "spectrum": {"lens": {"k": 5, "weights": [1, 2, 3]}, "path": rand},
            "norms": {**reeb_job(3, [1, 1], 10.0), "task": {"norms": {"decompose": True}}},
            "geodesic": {"lens": {"k": 3, "weights": [1, 1]},
                         "task": {"geodesic": {"T": 7.0}}},
        }
        argvs = []
        for command, doc in jobs.items():
            f = tmp_path / f"{command}.json"
            f.write_text(json.dumps(doc))
            argvs.append([command, str(f)])
        script = (
            "import contextlib, io, json, sys\n"
            "import lenselect.cli\n"
            "assert 'scipy' not in sys.modules, 'import lenselect.cli'\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert lenselect.cli.main(argv) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, argv[0]\n"
        )
        run = run_python(["-c", script, json.dumps(argvs)])
        assert run.returncode == 0, run.stderr

    def test_import_loads_no_submodule(self):
        # every submodule but cli is registered, unexecuted, so that
        # sys.modules["lenselect.<name>"] resolves before any is used
        script = (
            "import sys, types, lenselect\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'lenselect.cli' not in sys.modules\n"
            "for name in SUBMODULES:\n"
            "    mod = sys.modules['lenselect.' + name]\n"
            "    assert getattr(lenselect, name) is mod, name\n"
            "    assert type(mod) is not types.ModuleType, name\n"
        ).replace("SUBMODULES", repr(LAZY_SUBMODULES))
        run = run_python(["-c", script])
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("command, doc, code, unrun", [
        # the step function reads the path's record, in torus: no form is built
        ("selectors", reeb_job(3, [1, 1], 1.0), 0,
         ["quadratic", "maslov", "geodesic", "norms", "verify"]),
        ("spectrum", reeb_job(3, [1, 1], 1.0), 0,
         ["quadratic", "maslov", "selectors", "geodesic", "norms", "verify"]),
        # a Reeb path's norms are lattice arithmetic, in geodesic
        ("norms", reeb_job(3, [1, 1], 20.283, {"norms": {"decompose": True}}), 0,
         ["quadratic", "paths", "maslov", "selectors", "norms", "verify"]),
        # an input error stops in parse_job
        ("maslov", {"lens": {"k": 4, "weights": [1, 2]}}, 2,
         ["quadratic", "paths", "maslov", "selectors", "geodesic", "norms", "verify"]),
        ("selectors", {"lens": {"k": 3, "weights": [1, 1]}, "path": {"piecewise_hermitian": {
            "segments": [{"generator": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}]}}}, 0,
         ["quadratic", "maslov", "geodesic", "norms", "verify"]),
        ("geodesic", {"lens": {"k": 3, "weights": [1, 1]}, "task": {"geodesic": {"T": 7.0}}}, 0,
         ["quadratic", "torus", "paths", "maslov", "selectors", "norms", "verify"]),
        # a path in the diagonal torus: its norms are float arithmetic on its
        # record, through norms.norm_report
        ("norms", diagonal_job({"norms": {"decompose": True}}), 0,
         ["quadratic", "paths", "maslov", "selectors", "verify"]),
        # and its based family is counted line by line, in torus
        ("maslov", diagonal_job(), 0,
         ["quadratic", "paths", "maslov", "selectors", "norms", "verify"]),
        # a random path's record: the step function and the greedy build no form
        ("selectors", {"lens": {"k": 3, "weights": [1, 1]},
                       "path": {"random": {"seed": 2, "segments": 2}}}, 0,
         ["quadratic", "maslov", "geodesic", "norms", "verify"]),
        ("norms", {"lens": {"k": 3, "weights": [1, 1]},
                   "path": {"random": {"seed": 2, "segments": 2}},
                   "task": {"norms": {"decompose": True}}}, 0,
         ["quadratic", "maslov", "selectors", "verify"]),
    ])
    def test_job_runs_only_the_modules_it_calls(self, tmp_path, command, doc, code, unrun):
        # and none of them imports dataclasses (with inspect, ast and dis
        # behind it): the records are namedtuples
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        script = (
            "import contextlib, io, sys, types\n"
            "import lenselect.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = lenselect.cli.main(sys.argv[1:3])\n"
            "print(code, 'dataclasses' in sys.modules, [name for name in sys.argv[3:]\n"
            "             if type(sys.modules['lenselect.' + name]) is types.ModuleType])\n"
        )
        run = run_python(["-c", script, command, str(f), *unrun])
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == f"{code} False []"

    @pytest.mark.parametrize("argv, doc, field", [
        (["geodesic"], {"lens": {"k": 3, "weights": [1, 1]},
                        "task": {"geodesic": {"T": 7.0}}}, None),
        (["geodesic", "-T", "20"], {"lens": {"k": 5, "weights": [1, 2, 3]}}, None),
        (["maslov"], {"lens": {"k": 4, "weights": [1, 2]}}, "lens.weights[1]"),
        (["maslov"], '{"lens": {"k": 3, "weights": [1, 1]', "$"),
        (["geodesic", "-T", "1e308"], {"lens": {"k": 3, "weights": [1, 1]}},
         "task.geodesic.T"),
        (["selectors"], reeb_job(10**400, [1, 1], 1.0), "lens.k"),
        # every check but the path's price runs before the path is decoded
        (["norms"], reeb_job(3, [1, 1], 1.0, {"norms": {"bogus": 1}}), "task.norms.bogus"),
        (["maslov"], {**reeb_job(3, [1, 1], 1.0), "tolerances": {"null": 0}},
         "tolerances.null"),
        (["selectors", "--j-lo", "x"], reeb_job(3, [1, 1], 1.0), "task.selectors.j_lo"),
        (["selectors", "--j-lo", "3", "--j-hi", "0"], reeb_job(3, [1, 1], 1.0),
         "task.selectors"),
        (["norms"], reeb_job(3, [1, 1], 1.0, {"norms": {"decompose": 1}}),
         "task.norms.decompose"),
        (["spectrum"], reeb_job(MAX_LENS_PHASES // 2 + 1, [1, 1], 1.0), "lens.k"),
        (["maslov"], reeb_job(HUGE_PRIME_K, [1, 2], 1.0), "lens.k"),
        (["norms"], reeb_job(3, [1, 1], 20.283, {"norms": {"decompose": True}}), None),
        (["norms"], reeb_job(5, [1, 2, 3], -7.5, {"norms": {}}), None),
        # a real-diagonal path: float arithmetic on its diagonals
        (["norms"], diagonal_job({"norms": {"decompose": True}}), None),
        (["norms"], diagonal_job({"norms": {}}), None),
        # a Reeb or real-diagonal maslov job counts its family line by line,
        # and is priced from its spans, also at and past the form cap
        (["maslov"], reeb_job(3, [1, 1], 20.283), None),
        (["maslov"], diagonal_job(), None),
        (["maslov"], {"lens": {"k": 3, "weights": [1]},
                      "path": hermitian_path([[256 * math.pi - 0.5]])}, None),
        (["maslov"], reeb_job(3, [1, 1], 1e4), "path"),
        (["maslov"], {"lens": {"k": 3, "weights": [1]},
                      "path": hermitian_path([[256 * math.pi + 1e-9]])}, "path"),
        # the path's JSON shape is checked before any path is built
        (["norms"], {"lens": {"k": 3, "weights": [1, 1]}, "path": {"random": {"segments": 0}}},
         "path.random.segments"),
        (["selectors"], {"lens": {"k": 3, "weights": [1, 1]}, "path": {"reeb": "x"}},
         "path.reeb"),
        (["maslov"], {"lens": {"k": 3, "weights": [1, 1]},
                      "path": {"piecewise_hermitian": {"segments": []}}},
         "path.piecewise_hermitian.segments"),
        # the segment cap is read before a random path is drawn or a matrix decoded
        (["selectors"], {"lens": {"k": 3, "weights": [1, 1]},
                         "path": {"random": {"segments": jobs.MAX_SEGMENTS + 1}}},
         "path.random.segments"),
        (["selectors"], {"lens": {"k": 3, "weights": [1, 1]},
                         "path": hermitian_path(*[[[1.0, 0.0], [0.0, 1.0]]]
                                                * (jobs.MAX_SEGMENTS + 1))},
         "path.piecewise_hermitian.segments"),
        # verify reads no job file; its suite names are checked in jobs
        (["verify", "--trials", "1001"], None, "task.verify.trials"),
        (["verify", "--suite", "nope"], None, "task.verify.suite"),
    ], ids=["geodesic-file-T", "geodesic-flag-T", "lens-error", "malformed-json", "huge-T",
            "huge-k", "task-key-error", "tolerance-error", "j-lo-not-int",
            "j-lo-above-j-hi", "decompose-not-bool", "spectrum-phase-cap", "maslov-k-prime",
            "norms-reeb-decompose", "norms-reeb", "norms-diagonal-decompose", "norms-diagonal",
            "maslov-reeb", "maslov-diagonal", "maslov-diagonal-at-form-cap",
            "maslov-reeb-over-form-cap", "maslov-diagonal-over-form-cap",
            "random-zero-segments", "reeb-not-number",
            "piecewise-no-segments", "random-segment-cap", "piecewise-segment-cap",
            "verify-trials-cap", "verify-unknown-suite"])
    def test_arithmetic_jobs_load_no_numpy(self, tmp_path, argv, doc, field):
        # geodesic jobs and norms jobs on a Reeb path are lattice arithmetic,
        # norms and maslov jobs on a real-diagonal path float arithmetic (so
        # are maslov jobs on a Reeb path), and these input errors stop
        # before any matrix is decoded; only a real-diagonal norms job runs
        # norms, on its TorusPath
        on_torus = field is None and argv[0] == "norms" and "piecewise_hermitian" in str(doc)
        ran = "['norms']" if on_torus else "[]"
        if doc is not None:
            f = tmp_path / "job.json"
            f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [argv[0], str(f), *argv[1:]]
        script = (
            "import contextlib, io, json, sys, types\n"
            "import lenselect.cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "    code = lenselect.cli.main(json.loads(sys.argv[1]))\n"
            "print(code, 'numpy' in sys.modules, [name for name in\n"
            "      ('quadratic', 'paths', 'maslov', 'norms')\n"
            "      if type(sys.modules['lenselect.' + name]) is types.ModuleType])\n"
            "print(err.getvalue(), end='')\n"
        )
        run = run_python(["-c", script, json.dumps(argv)])
        assert run.returncode == 0, run.stderr
        status, _, err = run.stdout.partition("\n")
        assert status == f"{0 if field is None else 2} False {ran}"
        assert err.startswith(f"error: {field}:") if field else err == ""

    def test_run_as_module_without_runtime_warning(self):
        # runpy warns when lenselect.cli is already in sys.modules
        run = run_python(["-W", "error::RuntimeWarning", "-m", "lenselect.cli", "maslov", "-"],
                         input=json.dumps(reeb_job(2, [1, 1], TWO_PI)))
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["results"]["mu"] == 4

    def test_star_import_binds_all(self):
        script = (
            "import lenselect\n"
            "ns = {}\n"
            "exec('from lenselect import *', ns)\n"
            "missing = [name for name in lenselect.__all__ if name not in ns]\n"
            "assert not missing, missing\n"
            "assert ns['verify_suite'] is lenselect.verify.verify_suite\n"
            "assert ns['LensSpace'] is lenselect.lens.LensSpace\n"
        )
        run = run_python(["-c", script])
        assert run.returncode == 0, run.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task to count threads")
    def test_import_pins_one_blas_thread(self):
        # an idle OpenBLAS helper thread spins for ~0.1 s after numpy's import
        # and after each threaded call; every job is too small to repay it
        # numpy loads with the first lenselect module that needs it
        script = ("import os, sys, lenselect\n"
                  "lenselect.paths.UnitaryPath\n"
                  "assert 'numpy' in sys.modules\n"
                  "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        run = run_python(["-c", script])
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["1", "1"]

    def test_caller_blas_threads_kept(self):
        script = "import os, lenselect; print(os.environ['OPENBLAS_NUM_THREADS'])"
        run = run_python(["-c", script], blas_threads="2")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "2"

    def test_maslov_report_same_on_one_and_two_blas_threads(self):
        # N = 7 intervals, so eigvalsh runs on forms of dimension D = 104
        doc = {"lens": {"k": 5, "weights": [1, 2, 3, 4]},
               "path": {"random": {"seed": 8, "segments": 3, "norm_bound": 12}}}
        outs = []
        for threads in ("1", "2"):
            run = run_python(["-m", "lenselect.cli", "maslov", "-"], threads,
                                   input=json.dumps(doc))
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["results"]["subdivision_intervals"] == 7

    def test_decompose_stationary_eigenline(self, tmp_path, capsys):
        gen = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]
        doc = {"lens": {"k": 4, "weights": [1, 3]},
               "path": {"piecewise_hermitian": {"segments": [{"generator": gen}]}},
               "task": {"norms": {"decompose": True}}}
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main(["norms", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["dis_upper"] is None and res["osc_upper"] is None

    def test_decompose_sign_change_at_node(self, tmp_path, capsys):
        # every slope flips sign at the node; the cut lands exactly there
        doc = {"lens": {"k": 7, "weights": [1, 1, 1]},
               "path": hermitian_path([[4.77, 0, 0], [0, 2.78, 0], [0, 0, 1.81]],
                                      [[-4.68, 0, 0], [0, -4.86, 0], [0, 0, -7.5]],
                                      durations=[0.412, 0.298]),
               "task": {"norms": {"decompose": True}}}
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main(["norms", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["dis_upper"] == res["osc_upper"] == 6

    @pytest.mark.parametrize("seed", [2, 4])
    def test_decompose_random_noncommuting(self, tmp_path, capsys, seed):
        # mixed-sign generators that do not commute: each cut is exact
        # within its segment, and the path gets 2 certified pieces
        doc = {"lens": {"k": 3, "weights": [1, 1]},
               "path": {"random": {"seed": seed, "segments": 2}},
               "task": {"norms": {"decompose": True}}}
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        assert main(["norms", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["dis_lower"] == 1 and res["dis_upper"] == 2

    def test_upper_bounds_follow_the_snap_on_every_path(self):
        # (2 pi - 1e-10) I on L_3(1,1) lies within the snap of 3 T_w: the
        # selector bound counts 4 pieces, the greedy 3, and both upper
        # bounds are raised to 4 on the explicit path as on the Reeb path
        T = TWO_PI - 1e-10
        task = {"norms": {"decompose": True}}
        explicit = {"lens": {"k": 3, "weights": [1, 1]},
                    "path": hermitian_path([[T, 0.0], [0.0, T]]), "task": task}
        results = [run_job(parse_job(doc))["results"]
                   for doc in (explicit, reeb_job(3, [1, 1], T, task))]
        assert results[0] == results[1]
        assert results[0]["dis_lower"] == results[0]["dis_upper"] == 4
        assert results[0]["osc_upper"] == 4

    def test_norms_huge_k(self, tmp_path, capsys):
        # nu* is closed-form, with no loop over the k / reeb_numerator periods
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(10**8, [1, 1], 1.0)))
        assert main(["norms", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["nu_star"]["num"] == 1 and res["nu_star"]["den"] == 10**8

    def test_weights_reduced_mod_k(self, tmp_path, capsys):
        # weights equal mod k give the same deck action: L_3(1, 10^6) and
        # L_3(10^6, 1) are L_3(1, 1), on a random path the program builds
        def results(task, weights):
            f = tmp_path / "job.json"
            f.write_text(json.dumps({"lens": {"k": 3, "weights": weights},
                                     "path": {"random": {"seed": 1, "segments": 2}},
                                     "task": {task: {}}}))
            assert main([task, str(f)]) == 0, capsys.readouterr().err
            return json.loads(capsys.readouterr().out)["results"]

        for task in ("maslov", "selectors", "norms", "spectrum"):
            expected = results(task, [1, 1])
            assert results(task, [1, 1000000]) == expected, task
            assert results(task, [1000000, 1]) == expected, task

    def test_geodesic_just_below_lattice(self, tmp_path, capsys):
        # T = 2 pi (1 - 1e-11) snaps to 2 pi for all three counts
        f = tmp_path / "job.json"
        f.write_text(json.dumps({"lens": {"k": 3, "weights": [1, 1]},
                                 "task": {"geodesic": {"T": TWO_PI * (1 - 1e-11)}}}))
        assert main(["geodesic", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["verdict"] == "certified"
        assert res["lower"] == res["upper"] == res["greedy_count"] == 4

    @pytest.mark.parametrize("k, T, count", [
        # on L_2, kT/2pi = T/pi: 10**6 pi (1 - 1e-12) is the largest T
        # accepted to within 1e-12 (just above, it exits 2 in
        # test_bad_geodesic_or_tolerance_exit_two), and it snaps to 10**6 pi
        (2, 10**6 * math.pi * (1 - 1e-12), 10**6 + 1),
        # 1.1e-3 of a step below the 10**6-th multiple, just outside the
        # snap: floor(kT/2pi) + 1 = 999999 + 1
        (2, (10**6 - 0.0011) * math.pi, 10**6),
        # k just below 2 pi 10**6, T < 1: the snap's 1e-9 is 1e-3 of a step;
        # kT/2pi = 999.9989
        (6283185, (1000 - 0.0011) * TWO_PI / 6283185, 1000),
    ])
    def test_geodesic_count_is_a_floor_up_to_the_limit(self, tmp_path, capsys, k, T, count):
        # at the largest accepted T, the snap still spans at most 1e-3 of a
        # step, and a T farther below a multiple counts floor(kT/2pi) + 1
        f = tmp_path / "job.json"
        f.write_text(json.dumps({"lens": {"k": k, "weights": [1, 1]},
                                 "task": {"geodesic": {"T": T}}}))
        assert main(["geodesic", str(f)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["verdict"] == "certified"
        assert res["lower"] == res["upper"] == res["greedy_count"] == count

    def test_geodesic_million_orbits_fast(self, tmp_path, capsys):
        # the count is arithmetic, so 10**6 orbits cost no more than one
        f = tmp_path / "job.json"
        f.write_text(json.dumps({"lens": {"k": 2, "weights": [1, 1]}}))
        start = time.perf_counter()
        assert main(["geodesic", str(f), "-T", "3141592.6"]) == 0
        assert time.perf_counter() - start < 1.0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["verdict"] == "certified"
        assert res["lower"] == res["upper"] == res["greedy_count"] == 10**6

    def test_verify_trials_cap_refused_at_once(self, capsys):
        cap = jobs.MAX_VERIFY_TRIALS
        assert cap == 1000
        for suite in verify.SUITES:
            start = time.perf_counter()
            assert main(["verify", "--suite", suite, "--trials", str(cap + 1)]) == 2
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert err.startswith("error: task.verify.trials:") and str(cap) in err

    @pytest.mark.parametrize("flag, text", [
        *((flag, text) for flag in FLAG_PARAMS for text in ("x", "null", "true", "[1]")),
        *((flag, "1.5") for flag in ("--j-lo", "--j-hi", "--trials", "--seed")),
    ])
    def test_bad_flag_value_fails_as_in_job_file(self, tmp_path, capsys, flag, text):
        # a flag's value is the JSON value it would have in the job file
        command, param = FLAG_PARAMS[flag]
        value = {"x": "x", "null": None, "true": True, "[1]": [1], "1.5": 1.5}[text]
        doc = reeb_job(3, [1, 1], 1.0)
        if command == "verify":
            # verify reads no job file; its job is parsed with the value in it
            with pytest.raises(JobError) as e:
                run_job(parse_job({"lens": doc["lens"], "task": {"verify": {param: value}}}))
            want = f"error: {e.value}"
            assert main(["verify", flag, text]) == 2
        else:
            f, g = tmp_path / "file.json", tmp_path / "flag.json"
            f.write_text(json.dumps({**doc, "task": {command: {param: value}}}))
            g.write_text(json.dumps(doc))
            assert main([command, str(f)]) == 2
            want = capsys.readouterr().err.splitlines()[0]
            assert main([command, str(g), flag, text]) == 2
        got = capsys.readouterr().err.splitlines()[0]
        assert got == want and got.startswith(f"error: task.{command}.{param}:")

    @pytest.mark.parametrize("text", ["05", "+5", "1_000"])
    def test_flag_numbers_use_json_syntax(self, tmp_path, capsys, text):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0)))
        assert main(["selectors", str(f), "--j-lo", text]) == 2
        assert capsys.readouterr().err.startswith("error: task.selectors.j_lo:")

    def test_null_flag_is_a_value_not_an_absent_flag(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(3, [1, 1], 1.0, {"selectors": {"j_lo": -1}})))
        assert main(["selectors", str(f), "--j-lo", "null"]) == 2
        assert capsys.readouterr().err.startswith("error: task.selectors.j_lo:")

    @pytest.mark.parametrize("flag, command, doc", [
        ("-T", "geodesic", {"lens": {"k": 3, "weights": [1, 1]}}),
        ("--window-base", "selectors", reeb_job(3, [1, 1], 1.0)),
    ])
    def test_integer_flag_value_same_as_float(self, tmp_path, capsys, flag, command, doc):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(doc))
        results = []
        for text in ("1", "1.0"):
            assert main([command, str(f), flag, text]) == 0
            results.append(json.loads(capsys.readouterr().out)["results"])
        assert results[0] == results[1]

    def test_suite_list_exits_two(self, capsys):
        # a list is unhashable: the suite check must not look it up
        assert main(["verify", "--suite", '["thm1"]']) == 2
        assert capsys.readouterr().err.startswith("error: task.verify.suite:")

    def test_huge_prime_k_selectors_fast_maslov_refused(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(HUGE_PRIME_K, [1, 2], 1.0)))
        start = time.perf_counter()
        assert main(["selectors", str(f)]) == 0
        assert time.perf_counter() - start < 1
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["maslov", str(f)]) == 2
        assert time.perf_counter() - start < 2
        assert capsys.readouterr().err.startswith("error: lens.k:")

    @pytest.mark.parametrize("command", ["maslov", "selectors", "spectrum", "norms", "geodesic"])
    @pytest.mark.parametrize("k, weights", [(10**400, [1, 1]), (2**64 + 1, [1, 2**64])])
    def test_k_past_float_exits_two(self, tmp_path, capsys, command, k, weights):
        f = tmp_path / "job.json"
        f.write_text(json.dumps({**reeb_job(k, weights, 1.0), "task": {command: {}}}))
        assert main([command, str(f), *(["-T", "1.0"] if command == "geodesic" else [])]) == 2
        assert capsys.readouterr().err.startswith("error: lens.k:")

    def test_verify_exit_zero(self, capsys):
        assert main(["verify", "--suite", "quadratic_core", "--trials", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["pass"] is True

    def test_table_on_stderr(self, tmp_path, capsys):
        f = tmp_path / "job.json"
        f.write_text(json.dumps(reeb_job(2, [1, 1], 1.0)))
        assert main(["maslov", str(f), "--table"]) == 0
        assert "mu" in capsys.readouterr().err
