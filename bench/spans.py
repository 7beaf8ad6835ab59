"""Self time and per-layer metrics from the traced children's spans.

A span is {"id", "name", "start", "end", "parent", "job", "attrs"}; ids are
unique within one job.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from collections import defaultdict


def _covered(lo, hi, intervals):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """{span id: self time} for the spans of one job."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children[s["id"]])
            for s in spans}


def nesting_errors(spans):
    """Spans of one job that escape their parent or the cli.main span."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["name"] in ("cli.import", "cli.main") and s["parent"] is None:
            continue
        node, inside_main = s, False
        while node["parent"] is not None:
            parent = by_id[node["parent"]]
            if not (parent["start"] <= node["start"] <= node["end"] <= parent["end"]):
                errors.append(f"{s['name']} (span {s['id']}) escapes {parent['name']}")
                break
            inside_main = inside_main or parent["name"] == "cli.main"
            node = parent
        else:
            if not inside_main:
                errors.append(f"{s['name']} (span {s['id']}) is outside cli.main")
    return errors


def _descends_from(span, name, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        if span["name"] == name:
            return True
    return False


DERIVED = (
    "quadratic.index.d3_sum", "quadratic.index.bytes_computed",
    "maslov.evaluate_step.gaps", "norms.greedy.pieces",
    "paths.is_embedded.exact_calls", "paths.is_embedded.sweep_calls",
    "paths.is_embedded.indeterminate", "jobs.serialize.bytes",
)


def layer_metrics(jobs_spans, span_names):
    """Per-layer totals over a list of per-job span lists.

    Every name in span_names gets calls, self_s and errors, also when it was
    never called.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    m = dict.fromkeys(DERIVED, 0)
    dims = [0]
    greedy_probes = 0
    intervals = [0]
    for spans in jobs_spans:
        by_id = {s["id"]: s for s in spans}
        st = self_times(spans)
        for s in spans:
            name, attrs = s["name"], s["attrs"] or {}
            calls[name] += 1
            self_s[name] += st[s["id"]]
            if "error" in attrs:
                errors[name] += 1
            if name == "quadratic.index":
                D = attrs["dim"]
                dims.append(D)
                m["quadratic.index.d3_sum"] += D ** 3
                m["quadratic.index.bytes_computed"] += 8 * D * D
            elif name == "maslov.evaluate_step":
                m["maslov.evaluate_step.gaps"] += attrs.get("gaps", 0)
            elif name == "maslov.subdivide" and "intervals" in attrs:
                intervals.append(attrs["intervals"])
            elif name == "norms.greedy_embedded_decomposition":
                m["norms.greedy.pieces"] += attrs.get("pieces", 0)
            elif name == "paths.is_embedded":
                if attrs.get("method") == "commuting-exact":
                    m["paths.is_embedded.exact_calls"] += 1
                elif attrs.get("method") == "grid":
                    m["paths.is_embedded.sweep_calls"] += 1
                if attrs.get("status") == "indeterminate":
                    m["paths.is_embedded.indeterminate"] += 1
                if _descends_from(s, "norms.greedy_embedded_decomposition", by_id):
                    greedy_probes += 1
            elif name == "jobs.serialize":
                m["jobs.serialize.bytes"] += attrs.get("bytes", 0)
    out = {}
    for name in set(calls) | set(span_names):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.errors"] = errors[name]
    out["cli.import_s"] = self_s["cli.import"]
    out.update(m)
    out["quadratic.index.dim_max"] = max(dims)
    out["maslov.subdivide.intervals_max"] = max(intervals)
    out["maslov.subdivide.intervals_sum"] = sum(intervals)
    selector_calls = calls["selectors.selector_range"] + calls["selectors.selector"]
    out["selectors.step_evals_per_selector"] = (
        calls["maslov.evaluate_step"] / selector_calls if selector_calls else 0.0)
    pieces = m["norms.greedy.pieces"]
    out["norms.greedy.probes_per_piece"] = greedy_probes / pieces if pieces else 0.0
    return out
