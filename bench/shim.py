"""Traced child: run one lenselect CLI job with spans around each layer.

    python bench/shim.py SPANS_OUT JOB_ID -- <lenselect CLI arguments>

Times `import lenselect`, wraps the public functions in TARGETS, then calls
`lenselect.cli.main(argv)`.  Names are imported across modules
(`from .maslov import evaluate_step`, ...), so each wrapper replaces every
`lenselect.*` module attribute bound to the same function object; methods
are wrapped on their class.  Spans stay in memory and are written to
SPANS_OUT as JSON when the job ends, also when it raises.  stdout, stderr
and the exit code are those of the CLI.
"""

import functools
import json
import sys
from time import perf_counter

# (module, attribute) wrapped in the traced run; span name is
# "<module>.<attribute>", with "UnitaryPath.__init__" recorded as
# "paths.UnitaryPath".
TARGETS = [
    ("cli", "main"),
    ("jobs", "parse_job"),
    ("jobs", "run_job"),
    ("jobs", "serialize"),
    ("quadratic", "index"),
    ("quadratic", "sharp"),
    ("quadratic", "cayley_gf"),
    ("maslov", "maslov_index"),
    ("maslov", "evaluate_step"),
    ("maslov", "subdivide"),
    ("maslov", "BasedFamily.form_at"),
    ("selectors", "selector_range"),
    ("selectors", "selector"),
    ("paths", "UnitaryPath.__init__"),
    ("paths", "reeb_shift"),
    ("paths", "is_embedded"),
    ("paths", "action_spectrum"),
    ("paths", "product_path"),
    ("norms", "greedy_embedded_decomposition"),
    ("norms", "geodesic_report"),
    ("norms", "nu_star"),
    ("norms", "selector_lower_bounds"),
    ("verify", "verify_suite"),
]


def span_name(module, attr):
    cls_name, _, meth = attr.rpartition(".")
    return f"{module}.{cls_name}" if meth == "__init__" else f"{module}.{attr}"


SPAN_NAMES = ["cli.import"] + [span_name(m, a) for m, a in TARGETS]

# Counts read off a call's arguments and result, outside the timed interval.
ATTRS = {
    "quadratic.index": lambda args, r: {"dim": int(args[0].matrix.shape[0])},
    "maslov.evaluate_step": lambda args, r: {"gaps": len(r.points)},
    "maslov.subdivide": lambda args, r: {"intervals": len(r) - 1},
    "norms.greedy_embedded_decomposition": lambda args, r: {"pieces": r.count},
    "paths.is_embedded": lambda args, r: {"method": r.method, "status": r.status},
    "jobs.serialize": lambda args, r: {"bytes": len(r.encode())},
}


class Recorder:
    """Span list [id, name, start, end, parent, attrs] plus the open-span stack."""

    def __init__(self):
        self.spans = []
        self.stack = [None]

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), name, perf_counter(), None, self.stack[-1], None]
            self.spans.append(rec)
            self.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[3] = perf_counter()
                self.stack.pop()
                rec[5] = {"error": type(e).__name__}
                raise
            rec[3] = perf_counter()
            self.stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return wrapper

    def install(self, package):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            name = span_name(mod_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path, job_id):
        rows = [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "job": job_id, "attrs": a} for i, n, s, e, p, a in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)


def main():
    spans_out, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: shim.py SPANS_OUT JOB_ID -- ARGS...")
    rec = Recorder()
    t0 = perf_counter()
    import lenselect
    import lenselect.cli
    rec.spans.append([0, "cli.import", t0, perf_counter(), None, None])
    rec.install("lenselect")
    try:
        code = lenselect.cli.main(argv)
    finally:
        rec.dump(spans_out, job_id)
    sys.exit(code)


if __name__ == "__main__":
    main()
