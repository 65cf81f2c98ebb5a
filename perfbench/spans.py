"""In-memory spans around calls into geeclust's public functions.

The package binds its functions with ``from .x import name``, so wrapping
``geeclust.linalg.spd_factor`` alone would miss the call sites in ``gee``
and ``simulate``.  `install` therefore replaces every binding of a traced
function in every loaded geeclust module (the package namespace included)
and `uninstall` puts the originals back.  The package source is untouched.
"""

import functools
import gzip
import json
import sys
import time

# Functions wrapped in a traced run, by defining module.
TRACED = {
    "data": ("load_csv", "write_csv", "recode_response", "complete_cases", "build_design"),
    "glm": ("irls_fit",),
    "gee": ("fit_gee", "estimate_alpha", "realize_correlation"),
    "linalg": ("spd_factor", "spd_solve"),
    "inference": ("qic", "wald_row"),
    "select": ("run_selection",),
    "simulate": ("generate",),
    "cli": ("main",),
}


# What each span records beside its timing, computed from (args, result).
DETAIL = {
    "data.load_csv": lambda args, result: result.n_total,
    "data.write_csv": lambda args, result: args[0].n_total,
    "data.recode_response": lambda args, result: result.n_total,
    "data.complete_cases": lambda args, result: result[0].n_total,
    "data.build_design": lambda args, result: len(result.values),
    "simulate.generate": lambda args, result: result.n_total,
    "gee.fit_gee": lambda args, result: result.iterations,
    "linalg.spd_factor": lambda args, result: len(args[0]),
}


class Tracer:
    """Spans as [name, start, end, parent index, op id, detail]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def wrap(self, name, fn):
        detail = DETAIL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    span[5] = detail(args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self):
        """Wrap every binding of the traced functions; returns the undo list."""
        targets = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"geeclust.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                targets[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        undo = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "geeclust" or modname.startswith("geeclust.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return undo

    @staticmethod
    def uninstall(undo):
        for mod, attr, value in undo:
            setattr(mod, attr, value)

    def write(self, path, ops):
        """Write the spans of operations `ops` as gzipped JSON lines."""
        keep = set(ops)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op, detail) in enumerate(self.spans):
                if op in keep:
                    handle.write(json.dumps({"id": i, "name": name, "start": start,
                                             "end": end, "parent": parent, "op": op,
                                             "detail": detail}) + "\n")


def layer_metrics(spans, count_ops, time_ops, warnings_per_op, select_reports):
    """Per-layer metrics from spans.

    Counts (calls, iterations, candidates, flops) are averaged over the
    operations `count_ops`, which are the same on every run of a seed, so
    they repeat exactly.  Times are seconds per operation over `time_ops`.
    `select_reports` are the SelectionReport results of `count_ops`.
    """
    count_set, time_set = set(count_ops), set(time_ops)
    n_count, n_time = max(len(count_set), 1), max(len(time_set), 1)
    calls, total, self_time, detail_sum, rows = {}, {}, {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, detail in spans:
        if parent >= 0:
            child_time[parent] += end - start
    prep = 0.0
    for i, (name, start, end, parent, op, detail) in enumerate(spans):
        if op in count_set:
            calls[name] = calls.get(name, 0) + 1
            if isinstance(detail, (int, float)):
                detail_sum.setdefault(name, []).append(detail)
        if op in time_set:
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            if isinstance(detail, (int, float)):
                rows[name] = rows.get(name, 0) + detail
            if name in ("data.complete_cases", "data.build_design") and _under(
                    spans, parent, "select.run_selection"):
                prep += end - start

    def per_count(name):
        return calls.get(name, 0) / n_count

    def per_time(name, table=total):
        return table.get(name, 0.0) / n_time

    def rows_per_s(names):
        seconds = sum(total.get(n, 0.0) for n in names)
        return sum(rows.get(n, 0) for n in names) / seconds if seconds > 0 else 0.0

    data_fns = ("data.load_csv", "data.write_csv", "data.recode_response",
                "data.complete_cases", "data.build_design")
    factor_n = detail_sum.get("linalg.spd_factor", [])
    m = {}
    for name in data_fns:
        m[f"{name}.s"] = per_time(name)
    m["data.rows_per_s"] = rows_per_s(data_fns)
    m["glm.irls_fit.calls"] = per_count("glm.irls_fit")
    m["glm.irls_fit.s"] = per_time("glm.irls_fit")
    m["gee.fit_gee.calls"] = per_count("gee.fit_gee")
    m["gee.fit_gee.self_s"] = per_time("gee.fit_gee", self_time)
    for name in ("gee.estimate_alpha", "gee.realize_correlation"):
        m[f"{name}.calls"] = per_count(name)
        m[f"{name}.s"] = per_time(name)
    m["gee.iterations"] = sum(detail_sum.get("gee.fit_gee", ())) / n_count
    m["gee.warnings"] = sum(warnings_per_op[i] for i in count_set) / n_count
    m["linalg.spd_factor.calls"] = per_count("linalg.spd_factor")
    m["linalg.spd_factor.s"] = per_time("linalg.spd_factor")
    m["linalg.spd_factor.mean_n"] = sum(factor_n) / len(factor_n) if factor_n else 0.0
    m["linalg.spd_solve.calls"] = per_count("linalg.spd_solve")
    m["linalg.spd_solve.s"] = per_time("linalg.spd_solve")
    m["linalg.factor_flops"] = sum(n ** 3 / 3.0 for n in factor_n) / n_count
    m["inference.qic.s"] = per_time("inference.qic")
    m["inference.wald_row.s"] = per_time("inference.wald_row")
    m["select.run_selection.s"] = per_time("select.run_selection")
    candidates = [c for r in select_reports for c in r.candidates]
    unique = sum(len({(c.structure, tuple(c.covariates)) for c in r.candidates})
                 for r in select_reports)
    m["select.candidates"] = len(candidates) / n_count
    m["select.unique_candidates"] = unique / n_count
    m["select.unique_ratio"] = unique / len(candidates) if candidates else 0.0
    m["select.prep_s"] = prep / n_time
    m["select.failed_candidates"] = sum(not c.converged for c in candidates) / n_count
    m["simulate.generate.calls"] = per_count("simulate.generate")
    m["simulate.generate.s"] = per_time("simulate.generate")
    m["simulate.rows_per_s"] = rows_per_s(("simulate.generate",))
    m["cli.main.self_s"] = per_time("cli.main", self_time)
    return m


def _under(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
