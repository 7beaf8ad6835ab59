"""Tests of the benchmark's own logic: python3 -m pytest -q bench"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import corpus
import expect
import run
import shim
import spans


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_corpus_files(tmp_path):
    for workload in corpus.WORKLOADS:
        a, b, c = (tmp_path / workload / x for x in "abc")
        corpus.write(corpus.build(workload, 3), a)
        corpus.write(corpus.build(workload, 3), b)
        corpus.write(corpus.build(workload, 4), c)
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)


def test_corpus_sizes_leave_ten_jobs_beyond_p75():
    for workload in corpus.WORKLOADS:
        jobs = corpus.build(workload, 0)
        assert len(jobs) >= 40
        assert len({j["name"] for j in jobs}) == len(jobs)


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "job": "j", "attrs": None}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 5.0, 0),  # overlaps a: covered once
        _span(3, "c", 6.0, 7.0, 0),
        _span(4, "d", 1.5, 2.5, 1),
    ]
    st = spans.self_times(tree)
    assert st[0] == 10.0 - (4.0 + 1.0)
    assert st[1] == 3.0 - 1.0
    assert st[2] == 2.0
    assert st[4] == 1.0
    assert spans.nesting_errors(tree) == []


def test_nesting_errors_flag_escaping_and_orphan_spans():
    tree = [
        _span(0, "cli.import", 0.0, 1.0),
        _span(1, "cli.main", 1.0, 5.0),
        _span(2, "jobs.run_job", 2.0, 6.0, 1),  # ends after its parent
        _span(3, "jobs.serialize", 0.5, 0.6),  # not under cli.main
    ]
    errors = spans.nesting_errors(tree)
    assert len(errors) == 2
    assert "escapes cli.main" in errors[0]
    assert "outside cli.main" in errors[1]


def test_layer_metrics_ratios():
    greedy = {"pieces": 2}
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        dict(_span(1, "norms.greedy_embedded_decomposition", 1.0, 9.0, 0), attrs=greedy),
    ] + [dict(_span(2 + i, "paths.is_embedded", 1.0 + i, 1.5 + i, 1),
              attrs={"method": "commuting-exact", "status": "embedded"}) for i in range(6)]
    tree += [_span(8, "selectors.selector", 9.0, 9.5, 0),
             _span(9, "maslov.evaluate_step", 9.1, 9.4, 8)]
    m = spans.layer_metrics([tree], shim.SPAN_NAMES)
    assert m["norms.greedy.probes_per_piece"] == 3.0
    assert m["paths.is_embedded.exact_calls"] == 6
    assert m["selectors.step_evals_per_selector"] == 1.0
    assert m["verify.verify_suite.calls"] == 0


def _job(exit=0, checks=(), known_defect=None, field=None):
    return {"name": "j", "argv": ["maslov", "{job}"], "stdin": False, "document": "{}",
            "expect": {"exit": exit, "field": field, "checks": [list(c) for c in checks]},
            "known_defect": known_defect}


REPORT = json.dumps({"results": {"mu": 8, "selectors": {"-1": 1.0, "0": 2.0, "1": 1.0 + 6.283185307179586},
                                 "step": {"points": [1.0, 2.0]}}}).encode()


def test_judge_accepts_the_expected_outcome():
    checks = [("eq", "results.mu", 8), ("spectral", "results.selectors", "results.step.points"),
              ("periodic", "results.selectors", 2)]
    assert expect.judge(_job(checks=checks), 0, REPORT, b"") is None


def test_judge_flags_wrong_exit_traceback_and_failed_check():
    assert "exit 2" in expect.judge(_job(), 2, b"", b"error: lens: missing lens object")
    tb = b"Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert "traceback" in expect.judge(_job(exit=2), 1, b"", tb)
    falling = json.dumps({"results": {"selectors": {"-1": 3.0, "0": 2.0}}}).encode()
    assert "nondecreasing" in expect.judge(
        _job(checks=[("nondecreasing", "results.selectors")]), 0, falling, b"")
    assert "field" in expect.judge(_job(exit=2, field="task.geodesic.T"), 2, b"",
                                   b"error: task: no task given")
    assert expect.judge(_job(), 0, b"", b"", timed_out=True) == "timeout"


def test_digest_change_is_drift_and_seed_failures_are_not():
    ok, fixed = _job(), dict(_job(), document='{"fixed": 1}')
    seed = {corpus.input_key(ok): expect.stdout_digest(b"old report")}
    assert expect.drifted(corpus.input_key(ok), expect.stdout_digest(b"new"), seed)
    assert not expect.drifted(corpus.input_key(ok), expect.stdout_digest(b"old report"), seed)
    # a job that failed at the seed has no digest: passing now is not drift
    assert not expect.drifted(corpus.input_key(fixed), expect.stdout_digest(b"new"), seed)


def test_known_defects_count_in_failed_ratio_only():
    defect = _job(known_defect="ROADMAP item 4")
    runs = [SimpleNamespace(job=defect, reason="traceback (exit 1)", digest="x"),
            SimpleNamespace(job=defect, reason=None, digest="y"),
            SimpleNamespace(job=_job(), reason="exit 1, expected 0", digest="z")]
    unexpected, known, drift = run.verdicts(runs, {})
    assert len(unexpected) == 1 and len(known) == 1 and drift == []


def test_shim_wraps_cross_module_names_and_nests_under_main(tmp_path):
    root = Path(__file__).resolve().parent.parent
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"lens": {"k": 3, "weights": [1, 1]}, "path": {"reeb": 1.0},
                               "task": {"selectors": {}}}))
    out = tmp_path / "spans.json"
    p = subprocess.run([sys.executable, str(root / "bench" / "shim.py"), str(out), "j", "--",
                        "selectors", str(job)], capture_output=True, cwd=root, timeout=120,
                       env=run.child_env())
    assert p.returncode == 0, p.stderr.decode()
    plain = subprocess.run([sys.executable, "-m", "lenselect.cli", "selectors", str(job)],
                           capture_output=True, cwd=root, timeout=120, env=run.child_env())
    assert p.stdout == plain.stdout
    tree = json.loads(out.read_text())
    names = {s["name"] for s in tree}
    # evaluate_step is called through selectors' own binding of the name
    assert {"cli.main", "jobs.parse_job", "selectors.selector_range",
            "maslov.evaluate_step", "quadratic.index", "paths.UnitaryPath"} <= names
    assert spans.nesting_errors(tree) == []
