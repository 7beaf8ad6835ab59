"""Expected-outcome checks and report drift.

`judge` returns None when a job's outcome is the expected one, else a short
reason.  Drift compares the sha256 of a job's stdout with the digest
recorded at the seed commit; jobs that failed there have no digest, so fixing
them is not drift.
"""

import hashlib
import json
import math

TWO_PI = 2.0 * math.pi

SPECTRAL_ATOL = 1e-7


def stdout_digest(stdout):
    return "sha256:" + hashlib.sha256(stdout).hexdigest()


def field(report, path):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(path)
        node = node[part]
    return node


def _values(x):
    if isinstance(x, dict):
        return [x[j] for j in sorted(x, key=int)]
    return [x]


def _check(report, stderr, check):
    """None if the check holds, else why not."""
    kind, *args = check
    if kind == "stderr":
        return None if args[0] in stderr else f"stderr lacks {args[0]!r}"
    a = field(report, args[0])
    if kind == "eq":
        ok = a == args[1]
    elif kind == "approx":
        ok = abs(a - args[1]) <= args[2]
    elif kind == "le":
        b = field(report, args[1])
        ok = a is not None and b is not None and a <= b
    elif kind == "same":
        ok = a == field(report, args[1])
    elif kind == "nondecreasing":
        vals = _values(a)
        ok = all(x <= y for x, y in zip(vals, vals[1:]))
    elif kind == "spectral":
        pts = field(report, args[1])
        ok = all(
            any(abs((v - p) / TWO_PI - round((v - p) / TWO_PI)) * TWO_PI <= SPECTRAL_ATOL
                for p in pts)
            for v in _values(a)
        )
    elif kind == "periodic":
        n2 = args[1]
        ok = all(abs(a[str(j + n2)] - a[str(j)] - TWO_PI) <= 1e-9
                 for j in map(int, a) if str(j + n2) in a)
    elif kind == "sum":
        ok = sum(a) == args[1]
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"check {kind} {args[0]} failed (got {a!r})"


def judge(job, exit_code, stdout, stderr, timed_out=False):
    """None if the outcome matches job["expect"], else a one-line reason."""
    if timed_out:
        return "timeout"
    err = stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in err:
        return f"traceback (exit {exit_code})"
    want = job["expect"]
    if exit_code != want["exit"]:
        return f"exit {exit_code}, expected {want['exit']}"
    if want["exit"] == 2:
        if want["field"] is not None and not err.startswith(f"error: {want['field']}"):
            return f"stderr does not name the field {want['field']}"
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    for check in want["checks"]:
        try:
            why = _check(report, err, check)
        except (KeyError, TypeError, ValueError) as e:
            why = f"check {check[0]} {check[1]} failed ({type(e).__name__}: {e})"
        if why:
            return why
    return None


def drifted(key, digest, seed_digests):
    """True when the job passed at the seed commit and its stdout changed."""
    want = seed_digests.get(key)
    return want is not None and want != digest
