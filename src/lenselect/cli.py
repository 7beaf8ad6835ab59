"""Command-line interface.

    lenselect maslov job.json
    lenselect selectors job.json --j-lo -3 --j-hi 0
    lenselect spectrum - < job.json
    lenselect norms job.json
    lenselect geodesic job.json -T 6.283
    lenselect verify --suite thm1 --trials 50 --seed 7

Reports go to stdout as JSON (deterministic for a fixed job and seed); pass
--table for an aligned summary on stderr.  The flags override the job file's
task parameters.  Tolerances are fixed, and every report lists them under
`tolerances`.  Exit codes: 0 success, 1 a verify check failed, 2 input error.
"""

import argparse
import sys

from . import jobs


def _add_common(sp):
    sp.add_argument("--table", action="store_true",
                    help="also print an aligned results table to stderr")


def _add_job_arg(sp):
    sp.add_argument("job", nargs="?", default="-",
                    help="job JSON file, or - for stdin (default)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lenselect",
        description="Maslov indices, spectral selectors, and norms for "
                    "unitary contact isotopies of lens spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("maslov", "spectrum", "norms"):
        sp = sub.add_parser(name)
        _add_job_arg(sp)
        _add_common(sp)

    sp = sub.add_parser("selectors")
    _add_job_arg(sp)
    _add_common(sp)
    sp.add_argument("--j-lo", type=int, default=None)
    sp.add_argument("--j-hi", type=int, default=None)
    sp.add_argument("--window-base", type=float, default=None)

    sp = sub.add_parser("geodesic")
    _add_job_arg(sp)
    _add_common(sp)
    sp.add_argument("-T", type=float, default=None, help="Reeb time")

    sp = sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--suite", default="thm1",
                    help="thm1 | maslov_props | norms | geodesic | quadratic_core")
    sp.add_argument("--trials", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)

    return ap


def _read_job(source):
    if source == "-":
        return sys.stdin.buffer.read()
    with open(source, "rb") as f:
        return f.read()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            document = {"lens": {"k": 2, "weights": [1, 1]},
                        "task": {"verify": {}}}
            job = jobs.parse_job(document)
            overrides = {"suite": args.suite, "trials": args.trials,
                         "seed": args.seed}
        else:
            job = jobs.parse_job(_read_job(args.job))
            if job.task != args.command:
                if job.task is not None:
                    job.params = {}  # params belong to the file's own task
                job.task = args.command
            overrides = {}
            if args.command == "selectors":
                overrides = {"j_lo": args.j_lo, "j_hi": args.j_hi,
                             "window_base": args.window_base}
            elif args.command == "geodesic":
                overrides = {"T": args.T}
        report = jobs.run_job(job, overrides=overrides)
    except (jobs.JobError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(jobs.serialize(report))
    if args.table:
        print(jobs.render_table(report), file=sys.stderr)
    if args.command == "verify" and not report["results"].get("pass", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
