"""The benchmark's tracing contract, checked without running the benchmark.

`perfbench/spans.py` wraps geeclust functions by name (`TRACED`) and reads a
detail value from each call's arguments or result (`DETAIL`).  A refactor
that renames a traced function or changes what it returns would otherwise
only fail in a traced benchmark run.  The module is read with `runpy`, which
writes no bytecode cache, so nothing under `perfbench/` is written.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

import geeclust
from geeclust.linalg import spd_factor

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
TRACED, DETAIL = SPANS["TRACED"], SPANS["DETAIL"]
BINOMIAL = geeclust.Family("binomial", "logit")


@pytest.mark.parametrize("name", [f"{module}.{fn}" for module, fns in TRACED.items()
                                  for fn in fns])
def test_traced_name_is_a_callable(name):
    module, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"geeclust.{module}"), fn, None))


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """(args, result) of one small call of each function that has a DETAIL."""
    path = tmp_path_factory.mktemp("contract") / "small.csv"
    out = {}

    def call(name, fn, *args):
        out[name] = (args, fn(*args))
        return out[name][1]

    ds = call("simulate.generate", geeclust.generate, geeclust.SimProfile(
        n_clusters=30, size_distribution=((2, 0.5), (3, 0.5)), covariate_specs=(
            geeclust.CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),),
        coefficients={"x": 0.5}, alpha=0.3, seed=1))
    call("data.write_csv", geeclust.write_csv, ds, path)
    ds = call("data.load_csv", geeclust.load_csv, path, "ID", "Y")
    ds = call("data.recode_response", geeclust.recode_response, ds, "Y")
    ds, _ = call("data.complete_cases", geeclust.complete_cases, ds, ["x"])
    x = call("data.build_design", geeclust.build_design, ds,
             [geeclust.TermCoding("x", "factor", "descending")])
    call("gee.fit_gee", geeclust.fit_gee, x, ds, BINOMIAL, geeclust.Exchangeable())
    call("linalg.spd_factor", spd_factor, np.eye(3))
    return out


@pytest.mark.parametrize("name", sorted(DETAIL))
def test_detail_accessor_reads_a_count(calls, name):
    assert name in calls, f"no small call of {name} in this test"
    args, result = calls[name]
    value = DETAIL[name](args, result)
    assert isinstance(value, int) and value > 0
