"""Command-line interface.

    lenselect maslov job.json
    lenselect selectors job.json --j-lo -3 --j-hi 0
    lenselect spectrum - < job.json
    lenselect norms job.json
    lenselect geodesic job.json -T 6.283
    lenselect verify --suite thm1 --trials 50 --seed 7

Reports go to stdout as JSON (deterministic for a fixed job and seed); pass
--table for an aligned summary on stderr.  The flags override the job file's
task parameters; each flag's value is read and checked as a JSON value of the
job file.  Tolerances are fixed, and every report lists them under
`tolerances`.  Exit codes: 0 success, 1 a verify check failed, 2 input error,
3 an internal self-check failed (one `internal error:` line on stderr).
"""

import argparse
import json
import sys

from . import jobs

# The flag of each task parameter (`jobs.TASK_PARAMS`) that has one: its
# spelling and help.  A flag left out is absent, so the parameter takes the
# job file's value, or the task's own default in `jobs`.
FLAGS = {
    "j_lo": ("--j-lo", None),
    "j_hi": ("--j-hi", None),
    "window_base": ("--window-base", None),
    "T": ("-T", "Reeb time"),
    "suite": ("--suite", "verify suite (default thm1)"),
    "trials": ("--trials", None),
    "seed": ("--seed", None),
}


def _json_value(text):
    """A flag's value as JSON, or the text itself when it is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lenselect",
        description="Maslov indices, spectral selectors, and norms for "
                    "unitary contact isotopies of lens spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for task, params in jobs.TASK_PARAMS.items():
        sp = sub.add_parser(task)
        if task != "verify":
            sp.add_argument("job", nargs="?", default="-",
                            help="job JSON file, or - for stdin (default)")
        sp.add_argument("--table", action="store_true",
                        help="also print an aligned results table to stderr")
        for p in params:
            if p in FLAGS:
                flag, text = FLAGS[p]
                sp.add_argument(flag, dest=p, type=_json_value,
                                default=argparse.SUPPRESS, help=text)
    return ap


def _read_job(source):
    if source == "-":
        return sys.stdin.buffer.read()
    with open(source, "rb") as f:
        return f.read()


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = {p: v for p, v in vars(args).items() if p in jobs.TASK_PARAMS[args.command]}
    try:
        document = ({"lens": {"k": 2, "weights": [1, 1]}} if args.command == "verify"
                    else _read_job(args.job))  # verify reads no job file
        report = jobs.run_job(jobs.parse_job(document, args.command, flags))
    except (jobs.JobError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:  # a failed self-check: a fault of the program, not the job
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(jobs.serialize(report))
    if args.table:
        print(jobs.render_table(report), file=sys.stderr)
    if args.command == "verify" and not report["results"].get("pass", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
