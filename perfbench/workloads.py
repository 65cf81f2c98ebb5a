"""The four benchmark workloads.

Each workload is a single-client closed loop: `op(i)` runs operation i to
completion and `check(i, out)` verifies its output against a reference in
`oracles`.  Operation i's inputs depend only on the workload seed and i, so
a seed fixes every input.  Why each workload exists:

* coverage - the criterion-7 simulation loop (generate, build_design,
  exchangeable fit, robust SE) on 200 equal clusters of 4: the GEE cluster
  loop and the simulator, with no CSV and no selection.
* cli_fit  - in-process `geeclust fit --format json` on eight ragged, gapped
  paper-like CSVs, cycling independent and exchangeable: ragged clusters,
  load_csv on every call, CLI rendering.  The structures with occasion lags
  are left out because each fails on some paper-like datasets (m-dependent
  and unstructured on about one in fifty, AR-1 on fewer), and a benchmark
  operation must not fail.
* select   - stepwise QIC/QICu selection over six factors on paper-sized
  data: candidate preparation and phase-2 refits.  It offers the
  independence structure alone and stops the walk at two terms, so every
  selection makes the same 22 fits in about 0.7 s, and a run has enough of
  them for a tail latency.  Offering exchangeable as well makes each
  selection cost 2-5 s, with two cost levels depending on which structure
  wins phase 1.
* ingest   - write, read, recode, filter and code a 5,000-cluster CSV, then
  tabulate and run IRLS: the data layer, with no GEE cluster loop.
"""

import contextlib
import hashlib
import io
import json
import logging
import os

import numpy as np

import geeclust
import geeclust.cli
from oracles import (
    check_gee_solution,
    check_irls_solution,
    design_from_labels,
    read_clustered_csv,
    replay_stepwise,
    require,
)

BINOMIAL = geeclust.Family("binomial", "logit")
PAPER_FACTORS = ("AGE1", "GENDER", "NINSERT1", "AREA1", "LENGTH1", "DIAMETER")
WARM_UP = 2**32 - 1  # input index reserved for set-up, never a measured operation


def derived_seed(seed, stream, index):
    """Independent 32-bit seed for input `index` of a workload's stream."""
    return int(np.random.SeedSequence([seed % 2**64, stream, index]).generate_state(1)[0])


class ReferenceData:
    """A clustered CSV parsed by the oracle, in load_csv's row order."""

    def __init__(self, path, response, within):
        clusters, names = read_clustered_csv(path, "ID", response, within)
        rows = [row for cluster in clusters for row in cluster]
        raw = np.array([row[response] for row in rows])
        self.y = (raw == raw.max()).astype(float)
        self.sizes = [len(c) for c in clusters]
        self.columns = {name: [row[name] for row in rows] for name in names}

    @property
    def n_rows(self):
        return len(self.y)

    def design(self, labels):
        return design_from_labels(labels, self.columns.__getitem__)


class Coverage:
    stream = 1
    count_ops = 20

    def setup(self, seed, workdir):
        self.seed = seed
        self.op(WARM_UP)

    def op(self, i):
        profile = geeclust.SimProfile(
            n_clusters=200,
            size_distribution=((4, 1.0),),
            covariate_specs=(
                geeclust.CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
            ),
            intercept=-1.0,
            coefficients={"x": 0.8},
            alpha=0.5,
            seed=derived_seed(self.seed, self.stream, i),
        )
        ds = geeclust.generate(profile)
        x = geeclust.build_design(ds, [geeclust.TermCoding("x", "factor", "descending")])
        fit = geeclust.fit_gee(x, ds, BINOMIAL, geeclust.Exchangeable())
        return ds, x, fit, geeclust.robust_se(fit)

    def check(self, i, out):
        ds, x, fit, se = out
        sizes = list(ds.cluster_sizes())
        require(sizes == [4] * 200, "expected 200 clusters of 4")
        require(fit.converged, "fit did not converge")
        xr = design_from_labels(x.column_labels, ds.column)
        require(np.array_equal(xr, np.asarray(x.values)), "design coding differs")
        check_gee_solution(xr, ds.response_vector(), sizes, "exchangeable",
                           fit.alpha_estimates, fit.phi, fit.beta, se)
        return {}


class CliFit:
    stream = 2
    n_files = 8
    # exchangeable takes two calls in three, so the median latency falls
    # inside its fits rather than between the two structures' costs
    kinds = ("independent", "exchangeable", "exchangeable")
    # op i fits structure i % 3 on file i % 8: 24 consecutive calls cover
    # every (structure, file) pair, and a run ends on a whole cycle of them
    cycle = n_files * len(kinds)
    count_ops = cycle

    def setup(self, seed, workdir):
        self.files = []
        for j in range(self.n_files):
            path = os.path.join(workdir, f"cli_fit-{j}.csv")
            geeclust.write_csv(
                geeclust.generate_paper(400, 0.25, derived_seed(seed, self.stream, j)), path)
            self.files.append((path, ReferenceData(path, "LOOSENING", "AREA2")))
        self.op(0)

    def op(self, i):
        kind = self.kinds[i % len(self.kinds)]
        path, ref = self.files[i % self.n_files]
        argv = ["fit", "--data", path, "--response", "LOOSENING", "--cluster", "ID",
                "--within", "AREA2", "--factors", "AGE1,AREA1,NINSERT1",
                "--corr", kind, "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        root = logging.getLogger()
        handlers = list(root.handlers)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = geeclust.cli.main(argv)
        finally:
            # main() points a logging handler at this call's stderr; drop it
            # so the next call configures logging afresh, as a new process would
            for handler in root.handlers[len(handlers):]:
                root.removeHandler(handler)
        return kind, ref, code, out.getvalue(), err.getvalue()

    def check(self, i, out):
        kind, ref, code, stdout, stderr = out
        require(code == 0, f"exit code {code}: {stderr.strip()}")
        payload = json.loads(stdout)
        model = payload["model"]
        require(model["correlation"] == kind, "wrong structure reported")
        require(model["n_rows"] == ref.n_rows, "row count differs")
        require(model["n_clusters"] == len(ref.sizes), "cluster count differs")
        require(payload["converged"], "fit did not converge")
        rows = payload["rows"]
        x = ref.design([r["label"] for r in rows])
        check_gee_solution(x, ref.y, ref.sizes, kind, payload["alpha"], payload["phi"],
                           [r["b"] for r in rows], [r["se"] for r in rows])
        return {}


class Select:
    stream = 3
    count_ops = 4
    # a run that stops at its minimum length sees each dataset twice
    pool_size = 20
    max_size = 2
    kinds = ("independent",)

    def setup(self, seed, workdir):
        self.pool = [
            geeclust.recode_response(
                geeclust.generate_paper(135, 0.3, derived_seed(seed, self.stream, j)),
                "LOOSENING")
            for j in range(self.pool_size)
        ]
        self.terms = [geeclust.TermCoding(n, "factor", "descending") for n in PAPER_FACTORS]
        # warm up on a one-term walk: a six-term fit can separate on this data
        geeclust.run_selection(self.pool[0], BINOMIAL, self.terms[:2],
                               [geeclust.Independent()], mode="stepwise", max_size=1)

    def op(self, i):
        return geeclust.run_selection(
            self.pool[i % self.pool_size], BINOMIAL, self.terms,
            [geeclust.Independent()], mode="stepwise", max_size=self.max_size)

    def check(self, i, report):
        structure, model, visited = replay_stepwise(report.candidates, PAPER_FACTORS,
                                                    self.kinds, self.max_size)
        require(len(report.candidates) == visited, "candidate list differs from the walk")
        require(report.best_structure == structure, "structure is not the QIC argmin")
        require(tuple(report.best_model) == model, "model is not the QICu argmin")
        return {"report": report}


class Ingest:
    stream = 4
    count_ops = 5

    def setup(self, seed, workdir):
        self.path = os.path.join(workdir, "ingest.csv")
        self.ds = geeclust.generate_paper(5000, 0.25, derived_seed(seed, self.stream, 0))
        geeclust.write_csv(self.ds, self.path)
        self.digest = _digest(self.path)
        self.ref = ReferenceData(self.path, "LOOSENING", "AREA2")
        self.terms = [geeclust.TermCoding(n, "factor", "descending") for n in PAPER_FACTORS]
        self.op(0)

    def op(self, i):
        geeclust.write_csv(self.ds, self.path)
        ds = geeclust.load_csv(self.path, "ID", "LOOSENING", "AREA2")
        ds = geeclust.recode_response(ds, "LOOSENING")
        ds, dropped = geeclust.complete_cases(ds, list(PAPER_FACTORS))
        x = geeclust.build_design(ds, self.terms)
        table = geeclust.crosstab_2x2(ds, "AREA1")
        concordance = geeclust.concordance_summary(ds, "LOOSENING")
        fit = geeclust.irls_fit(x, ds.response_vector(), BINOMIAL)
        return ds, dropped, x, table, concordance, fit

    def check(self, i, out):
        ds, dropped, x, table, concordance, fit = out
        n, clusters = self.ds.n_total, self.ds.n_clusters
        require(_digest(self.path) == self.digest, "written CSV differs from set-up")
        require(self.ref.n_rows == n and len(self.ref.sizes) == clusters,
                "written CSV lost rows")
        require(ds.n_total == n and ds.n_clusters == clusters, "round trip lost rows")
        require(dropped == 0, "complete_cases dropped rows of a complete file")
        require(np.shape(x.values) == (n, 1 + len(PAPER_FACTORS)), "design shape")
        require(table.a + table.b + table.c + table.d == n, "crosstab total")
        require(concordance.multi_total + concordance.singletons == clusters,
                "concordance total")
        require(fit.converged, "IRLS did not converge")
        check_irls_solution(self.ref.design(x.column_labels), self.ref.y, fit.beta)
        return {}


def _digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


WORKLOADS = {"coverage": Coverage, "cli_fit": CliFit, "select": Select, "ingest": Ingest}
