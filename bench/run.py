"""lenselect benchmark: CLI jobs in a closed loop, one fresh process per job.

    python3 bench/run.py --workload spectral_heavy --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --record-digests          # at the seed commit only

One client keeps one job in flight: each job of the seeded corpus runs as
`python -m lenselect.cli ...` in its own child, timed from spawn to exit,
with user+sys time and max RSS from wait4.  --seconds covers the set-up
(cold imports) and the passes over the corpus: no job starts after it, and
a new pass starts only if it is expected to end in time.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one pass through bench/shim.py, which records spans around each layer, and
reports the per-layer metrics; every fourth job also runs untraced so the
tracing overhead can be measured on the same jobs.

Every outcome is checked against the corpus expectations and, for jobs that
passed at the seed commit, against the stdout digest recorded there
(bench/digests.json).  The last line of stdout is one JSON object with
correct, attempted, failed and metrics; `failed` counts unexpected failures,
while known seed defects (ROADMAP item 4) show in failed_ratio only.
Results and metadata go to .bench_out/results/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import corpus
import expect
import shim
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

COLD_STARTS = 5
JOB_TIMEOUT_S = 60.0
# The traced run makes one whole pass, but no job starts this long after it
# began, so it ends well within 180 s.
HARD_STOP_S = 110.0
OVERHEAD_EVERY = 4


class Outcome:
    def __init__(self, job, wall, exit_code, stdout, stderr, rusage, timed_out):
        self.job = job
        self.wall = wall
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.maxrss_mb = rusage.ru_maxrss / 1024.0  # KiB on Linux
        self.digest = expect.stdout_digest(stdout)
        self.reason = expect.judge(job, exit_code, stdout, stderr, timed_out)

    def first_stderr_line(self):
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        if not lines:
            return ""
        if lines[0].startswith("Traceback") and len(lines) > 1:
            return f"{lines[0]} ... {lines[-1]}"
        return lines[0]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, stdin_path, scratch, timeout=JOB_TIMEOUT_S):
    """Run cmd to completion; returns (wall, exit code, stdout, stderr, rusage, timed_out)."""
    stdin_file = open(stdin_path if stdin_path else os.devnull, "rb")
    with stdin_file, open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdin=stdin_file, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, out.read(), err.read(), rusage, wall >= timeout


def run_job(job, paths, scratch, traced=False):
    argv = [str(paths[job["name"]]) if a == "{job}" else a for a in job["argv"]]
    if traced:
        cmd = [sys.executable, str(BENCH / "shim.py"), str(scratch / "spans.json"),
               job["name"], "--", *argv]
    else:
        cmd = [sys.executable, "-m", "lenselect.cli", *argv]
    stdin_path = paths[job["name"]] if job["stdin"] else None
    wall, code, out, err, ru, timed_out = spawn(cmd, stdin_path, scratch)
    return Outcome(job, wall, code, out, err, ru, timed_out)


def check_checkout():
    """Exit with an error, printing no result, unless the program's source is here."""
    if not (SRC / "lenselect" / "__init__.py").is_file():
        sys.exit(f"error: no lenselect source at {SRC}; run from a checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit("error: BENCHMARK.json missing at the checkout root")


def warm_up(scratch):
    """Untimed first import (writes bytecode caches); checks which lenselect loads."""
    _, code, out, err, _, _ = spawn(
        [sys.executable, "-c", "import lenselect; print(lenselect.__file__)"], None, scratch)
    where = out.decode().strip()
    if code != 0 or not where.startswith(str(SRC)):
        sys.exit(f"error: cannot import lenselect from {SRC}: {err.decode().strip() or where}")


def cold_starts(scratch, count=COLD_STARTS):
    """Wall times of fresh interpreters that import lenselect and exit."""
    times = []
    for _ in range(count):
        wall, code, _, err, _, _ = spawn([sys.executable, "-c", "import lenselect"], None, scratch)
        if code != 0:
            sys.exit(f"error: import lenselect failed: {err.decode().strip()}")
        times.append(wall)
    return times


def metadata(seed, scratch):
    probe = (
        "import json, platform, numpy, scipy\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    _, code, out, _, _, _ = spawn([sys.executable, "-c", probe], None, scratch)
    meta = json.loads(out) if code == 0 else {}
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if v in os.environ}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    meta.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": threads or f"library default (unset; up to nproc = {os.cpu_count()})",
        "git_commit": commit,
        "seed": seed,
        "executable": sys.executable,
    })
    return meta


def load_digests():
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())["digests"]
    return {}


def prepare(workload, seed):
    jobs = corpus.build(workload, seed)
    work = OUT / "work" / f"{workload}-seed{seed}"
    paths = corpus.write(jobs, work / "jobs")
    scratch = work / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    return jobs, paths, scratch


def verdicts(outcomes, seed_digests):
    """(unexpected failures, known-defect failures, drifted job names)."""
    unexpected = [o for o in outcomes if o.reason and not o.job["known_defect"]]
    known = [o for o in outcomes if o.reason and o.job["known_defect"]]
    drift = sorted({o.job["name"] for o in outcomes
                    if expect.drifted(corpus.input_key(o.job), o.digest, seed_digests)})
    return unexpected, known, drift


def quartile3(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def run_passes(jobs, paths, scratch, t_begin, seconds):
    """Passes over the corpus until `seconds` after t_begin.

    No job starts after the deadline, and a new pass starts only if the
    previous one says it will end in time, so a run is whole passes unless
    the machine is too slow for one.
    """
    outcomes = []
    t0 = perf_counter()
    while True:
        t_pass = perf_counter()
        for job in jobs:
            if perf_counter() - t_begin >= seconds:
                return outcomes, perf_counter() - t0
            outcomes.append(run_job(job, paths, scratch))
        now = perf_counter()
        if now - t_begin + (now - t_pass) > seconds:
            return outcomes, now - t0


def run_traced(jobs, paths, scratch):
    """One traced pass; returns (traced outcomes, per-job spans, overhead pairs)."""
    traced, job_spans, pairs = [], [], []
    t0 = perf_counter()
    for i, job in enumerate(jobs):
        if perf_counter() - t0 >= HARD_STOP_S:
            break
        plain = run_job(job, paths, scratch) if i % OVERHEAD_EVERY == 0 else None
        (scratch / "spans.json").unlink(missing_ok=True)
        o = run_job(job, paths, scratch, traced=True)
        traced.append(o)
        sp = scratch / "spans.json"
        job_spans.append(json.loads(sp.read_text()) if sp.is_file() else [])
        if plain is not None:
            pairs.append((plain, o))
    return traced, job_spans, pairs


def measure_untraced(jobs, paths, scratch, seconds):
    """End-to-end values, outcomes, sample counts, summary lines, no trace errors."""
    t_begin = perf_counter()
    setup = cold_starts(scratch)
    outcomes, loop_wall = run_passes(jobs, paths, scratch, t_begin, seconds)
    walls = [o.wall for o in outcomes]
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(outcomes) / loop_wall,
        "job_s_p50": statistics.median(walls),
        "job_s_p75": quartile3(walls),
        "cpu_s_per_job": statistics.fmean(o.cpu for o in outcomes),
        "peak_rss_mb": max(o.maxrss_mb for o in outcomes),
    }
    beyond = sum(1 for w in walls if w > values["job_s_p75"])
    lines = [f"  {len(outcomes)} jobs in {loop_wall:.1f} s, {beyond} beyond p75"]
    return values, outcomes, {"jobs": len(outcomes), "setup_s": len(setup)}, lines, []


def measure_traced(jobs, paths, scratch):
    """Per-layer values, outcomes (twins included), sample counts, lines, trace errors."""
    traced, job_spans, pairs = run_traced(jobs, paths, scratch)
    values = spans.layer_metrics(job_spans, shim.SPAN_NAMES)
    values["trace.overhead_s"] = (statistics.fmean(t.wall - p.wall for p, t in pairs)
                                  if pairs else 0.0)
    errors = [f"{o.job['name']}: {e}" for o, sp in zip(traced, job_spans)
              for e in spans.nesting_errors(sp)]
    errors += [f"{o.job['name']}: no spans written" for o, sp in zip(traced, job_spans)
               if not sp]
    errors += [f"{t.job['name']}: traced stdout differs" for p, t in pairs
               if p.digest != t.digest]
    lines = [f"  {len(traced)} traced jobs, {len(pairs)} untraced twins for the "
             "tracing overhead"]
    lines += [f"  TRACE ERROR {e}" for e in errors]
    outcomes = traced + [p for p, _ in pairs]
    return values, outcomes, {"jobs": len(traced), "trace.overhead_s": len(pairs)}, lines, errors


def bench_workload(workload, seed, seconds, trace, spec, seed_digests):
    """Run one workload; returns (result line dict, printable lines, results record)."""
    jobs, paths, scratch = prepare(workload, seed)
    warm_up(scratch)
    if trace:
        values, outcomes, samples, notes, trace_errors = measure_traced(jobs, paths, scratch)
        metric_specs = spec["per_layer"]
    else:
        values, outcomes, samples, notes, trace_errors = measure_untraced(
            jobs, paths, scratch, seconds)
        metric_specs = spec["end_to_end"]
    unexpected, known, drift = verdicts(outcomes, seed_digests)
    attempted = len(outcomes)
    values["failed_ratio"] = (len(unexpected) + len(known)) / attempted
    values["report_drift"] = len(drift)
    known_share = sum(1 for o in outcomes if o.job["known_defect"]) / attempted
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computes no value for {missing}")

    lines = [f"workload {workload}  seed {seed}  corpus {len(jobs)} jobs  "
             f"({sum(1 for j in jobs if j['known_defect'])} known seed defects)", *notes]
    for m in metric_specs:
        n = samples.get(m["name"], samples["jobs"])
        lines.append(f"  {m['name']:<44} {values[m['name']]!r:>24} {m['unit']:<7} (n={n})")
    lines.append(f"  failed_ratio {values['failed_ratio']!r} (known seed defects are "
                 f"{known_share!r} of the attempted jobs), report_drift {len(drift)}")
    failed_runs = {}
    for o in unexpected + known:
        failed_runs.setdefault(o.job["name"], []).append(o)
    for name, runs in failed_runs.items():
        o = runs[0]
        tag = "known seed defect" if o.job["known_defect"] else "FAILED"
        lines.append(f"  {tag} {name} ({len(runs)} of its runs): exit {o.exit_code}: "
                     f"{o.reason}: {o.first_stderr_line()}")
    lines += [f"  DRIFT {name}: stdout differs from the seed-commit digest" for name in drift]

    result = {
        "correct": not unexpected and not drift and not trace_errors,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "result": result,
        "all_values": values,
        "known_defect_share": known_share,
        "drift": drift,
        "trace_errors": trace_errors,
        "jobs": [{"name": o.job["name"], "wall_s": o.wall, "cpu_s": o.cpu,
                  "maxrss_mb": o.maxrss_mb, "exit": o.exit_code, "failure": o.reason,
                  "stdout": o.digest} for o in outcomes],
    }
    return result, lines, record


def record_digests(seed):
    """Run every corpus once and store stdout digests of the jobs that pass."""
    digests = {}
    for workload in corpus.WORKLOADS:
        jobs, paths, scratch = prepare(workload, seed)
        warm_up(scratch)
        for job in jobs:
            o = run_job(job, paths, scratch)
            status = "ok" if o.reason is None else f"excluded ({o.reason})"
            print(f"{workload} {job['name']}: {o.wall:.2f} s {status}", flush=True)
            if o.reason is None:
                digests[corpus.input_key(job)] = o.digest
    DIGESTS.write_text(json.dumps({"seed": seed, "digests": digests}, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


def main():
    check_checkout()
    # SIGTERM unwinds through spawn(), which kills the running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*corpus.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the seed-commit stdout digests (run at the seed commit only)")
    args = ap.parse_args()
    if args.record_digests:
        record_digests(args.seed)
        return
    seed_digests = load_digests()
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    meta = metadata(args.seed, OUT)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, lines, record = bench_workload(workload, args.seed, args.seconds, args.trace,
                                               spec, seed_digests)
        print("\n".join(lines), flush=True)
        record["metadata"] = meta
        out = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            combined["metrics"][key] = m
    print(f"metadata: {json.dumps(meta)}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
