import csv
import gc
import io
import json
import re

import numpy as np
import pytest

from geeclust import (
    CovariateSpec,
    Family,
    SimProfile,
    build_paper_marginals,
    derive_threshold,
    generate,
    generate_paper,
    load_csv,
    write_csv,
)
from geeclust.cli import PARSER, main, render_fit_text
from geeclust.errors import NoConvergence


@pytest.fixture(scope="module")
def paper_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "paper.csv"
    write_csv(build_paper_marginals(0), path)
    return str(path)


@pytest.fixture(scope="module")
def singleton_csv(tmp_path_factory):
    profile = SimProfile(
        n_clusters=80,
        size_distribution=((1, 1.0),),
        covariate_specs=(
            CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
        ),
        intercept=-0.5,
        coefficients={"x": 0.8},
        alpha=0.0,
        seed=14,
    )
    path = tmp_path_factory.mktemp("data") / "singletons.csv"
    write_csv(generate(profile), path)
    return str(path)


@pytest.fixture(scope="module")
def constant_csv(tmp_path_factory):
    """The example data plus CONST, a column of zeros: no factor coding of
    it exists, so every candidate holding it fails."""
    path = tmp_path_factory.mktemp("data") / "constant.csv"
    write_csv(derive_threshold(build_paper_marginals(0), "AREA1", 5.0, "CONST"), path)
    return str(path)


def fit_args(data, *extra):
    return [
        "fit", "--data", data, "--response", "LOOSENING", "--cluster", "ID",
        "--within", "AREA2", "--factors", "AREA1:desc", *extra,
    ]


# ------------------------------------------------------------------------ fit

def test_fit_published_row(paper_csv, capsys):
    code = main(fit_args(paper_csv, "--corr", "independent"))
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    intercept = next(l for l in lines if l.startswith("(Intercept)"))
    jaw = next(l for l in lines if l.startswith("AREA1=1"))
    assert intercept.split()[1] == "-0.655"
    assert jaw.split()[1] == "-0.822"
    assert jaw.split()[8] == "0.440"      # Exp(B) column
    assert "Scale (phi): 1.000" in out
    assert "QIC:" in out and "QICu:" in out


def test_fit_reference_last_negates(paper_csv, capsys):
    main(fit_args(paper_csv, "--corr", "independent"))
    first = capsys.readouterr().out
    main(fit_args(paper_csv, "--corr", "independent", "--ref-category", "last"))
    last = capsys.readouterr().out
    b_first = [float(l.split()[1]) for l in first.splitlines()
               if l.startswith(("(Intercept)", "AREA1"))]
    b_last = [float(l.split()[1]) for l in last.splitlines()
              if l.startswith(("(Intercept)", "AREA1"))]
    assert np.allclose(np.array(b_first) + np.array(b_last), 0.0)


def test_fit_singleton_clusters_structure_invariant(singleton_csv, capsys):
    base = ["fit", "--data", singleton_csv, "--response", "Y", "--cluster", "ID",
            "--factors", "x:desc"]
    assert main(base + ["--corr", "independent"]) == 0
    independent = capsys.readouterr().out
    assert main(base + ["--corr", "exchangeable"]) == 0
    exchangeable = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith(("Family", "Alpha"))]
    assert strip(independent)[3:] == strip(exchangeable)[3:]


def test_fit_json_round_trip(paper_csv, capsys):
    assert main(fit_args(paper_csv, "--corr", "exchangeable")) == 0
    text = capsys.readouterr().out.rstrip("\n")
    assert main(fit_args(paper_csv, "--corr", "exchangeable",
                         "--format", "json")) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        assert set(row) == {
            "label", "b", "se", "ci_low", "ci_high", "wald_chisq", "df",
            "p_value", "exp_b", "exp_ci_low", "exp_ci_high",
        }
    assert render_fit_text(payload) == text


def test_fit_fixed_singular_matrix_names_the_cause(paper_csv, tmp_path, capsys):
    size = load_csv(paper_csv, "ID", "LOOSENING", "AREA2").max_position
    matrix = tmp_path / "ones.csv"
    np.savetxt(matrix, np.ones((size, size)), delimiter=",")
    assert main(fit_args(paper_csv, "--corr", "fixed", "--corr-file", str(matrix))) == 3
    assert "fixed working correlation is not positive definite" in capsys.readouterr().err


def test_fit_names_the_cluster_whose_working_correlation_fails(tmp_path, capsys):
    path = tmp_path / "paper60.csv"
    write_csv(generate_paper(60, 0.25, 1000), path)
    code = main(["fit", "--data", str(path), "--response", "LOOSENING", "--cluster", "ID",
                 "--within", "AREA2", "--corr", "mdependent",
                 "--factors", "AGE1,AREA1,NINSERT1"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3 and len(errors) == 1 and "Traceback" not in err
    named = re.search(r"^error: mdependent working correlation \(lag correlations "
                      r"[^)]+\) is not positive definite at cluster '([^']+)', "
                      r"occasions (\d+(?:, \d+)*)$", errors[0])
    assert named, errors[0]
    ds = load_csv(path, "ID", "LOOSENING", "AREA2")
    i = ds.ids.index(named.group(1))
    occasions = ds.positions[ds.starts[i]:ds.starts[i] + ds.sizes[i]].tolist()
    assert occasions == [int(o) for o in named.group(2).split(", ")]


def test_fit_fixed_identity_matches_independent(paper_csv, tmp_path, capsys):
    size = load_csv(paper_csv, "ID", "LOOSENING", "AREA2").max_position
    matrix = tmp_path / "identity.csv"
    np.savetxt(matrix, np.eye(size), delimiter=",")
    assert main(fit_args(paper_csv, "--corr", "fixed", "--corr-file", str(matrix),
                         "--format", "json")) == 0
    fixed = json.loads(capsys.readouterr().out)
    assert main(fit_args(paper_csv, "--corr", "independent", "--format", "json")) == 0
    independent = json.loads(capsys.readouterr().out)
    assert fixed["model"]["correlation"] == "fixed"
    assert fixed["alpha"] == np.eye(size).tolist()
    assert [r["b"] for r in fixed["rows"]] == pytest.approx(
        [r["b"] for r in independent["rows"]], abs=1e-10)


@pytest.mark.parametrize("command, flag, message", [
    pytest.param("fit", "--corr", "--corr fixed requires --corr-file", id="fit---corr"),
    # select has no --corr-file, so it does not take the name at all
    pytest.param("select", "--structures", "unknown working correlation 'fixed'",
                 id="select---structures"),
])
def test_fixed_without_corr_file_is_config_error(paper_csv, capsys, command, flag,
                                                 message):
    assert main([command, *fit_args(paper_csv)[1:], flag, "fixed"]) == 2
    assert message in capsys.readouterr().err


def test_malformed_corr_file_is_config_error_naming_the_file(paper_csv, tmp_path, capsys):
    matrix = tmp_path / "letters.csv"
    matrix.write_text("1,a\na,1\n")
    assert main(fit_args(paper_csv, "--corr", "fixed", "--corr-file", str(matrix))) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert str(matrix) in errors[0] and "could not convert string 'a'" in errors[0]


def test_fit_nonconvergence_exit_code(paper_csv, capsys, monkeypatch):
    import geeclust.cli as cli_module

    real_fit = cli_module.fit_gee

    def failing_fit(*args, **kwargs):
        try:
            fit = real_fit(*args, **kwargs)
        except NoConvergence:
            raise
        object.__setattr__(fit, "converged", False)
        raise NoConvergence("forced", fit=fit)

    monkeypatch.setattr(cli_module, "fit_gee", failing_fit)
    code = main(fit_args(paper_csv, "--corr", "independent"))
    out = capsys.readouterr().out
    assert code == 4
    assert "Converged: NO" in out
    assert "(Intercept)" in out          # partial report still printed


def test_shared_parser_keeps_no_state_between_calls(paper_csv, tmp_path, capsys):
    base = ["fit", "--data", paper_csv, "--response", "LOOSENING", "--cluster", "ID",
            "--within", "AREA2", "--format", "json"]
    assert main([*base, "--factors", "AGE1", "--factors", "AREA1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["model"]["terms"]) == 2
    assert main([*base, "--factors", "NINSERT1"]) == 0
    single = capsys.readouterr().out
    assert [t["name"] for t in json.loads(single)["model"]["terms"]] == ["NINSERT1"]

    # a rejected call, then the same valid call again
    assert main([*base, "--factors", "AGE1", "--corr", "bogus"]) == 2
    capsys.readouterr()
    assert main([*base, "--factors", "NINSERT1"]) == 0
    assert capsys.readouterr().out == single

    # a --corr-file given to one call is not seen by the next
    size = load_csv(paper_csv, "ID", "LOOSENING", "AREA2").max_position
    matrix = tmp_path / "identity.csv"
    np.savetxt(matrix, np.eye(size), delimiter=",")
    assert main([*base, "--factors", "AGE1", "--corr", "fixed",
                 "--corr-file", str(matrix)]) == 0
    capsys.readouterr()
    assert main([*base, "--factors", "AGE1", "--corr", "fixed"]) == 2
    assert "--corr fixed requires --corr-file" in capsys.readouterr().err
    select = PARSER.parse_args(["select", *base[1:], "--factors", "AGE1"])
    assert getattr(select, "corr_file", None) is None


# ------------------------------------------------------------------ exit codes

def test_missing_required_flag_is_config_error(capsys):
    assert main(["fit", "--data", "x.csv"]) == 2
    capsys.readouterr()


def test_unknown_corr_is_config_error(paper_csv, capsys):
    assert main(fit_args(paper_csv, "--corr", "bogus")) == 2
    capsys.readouterr()


def test_missing_file_is_data_error(capsys):
    assert main(fit_args("/nonexistent/file.csv")) == 3
    capsys.readouterr()


def test_missing_column_is_data_error(paper_csv, capsys):
    code = main(["fit", "--data", paper_csv, "--response", "NOPE",
                 "--cluster", "ID", "--factors", "AREA1:desc"])
    assert code == 3
    capsys.readouterr()


def test_non_finite_cell_is_data_error_naming_row_and_column(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("ID,AREA1,LOOSENING\n1,1,0\n1,inf,1\n2,0,1\n")
    code = main(["fit", "--data", str(path), "--response", "LOOSENING",
                 "--cluster", "ID", "--factors", "AREA1:desc"])
    assert code == 3
    assert "row 3, column 'AREA1'" in capsys.readouterr().err


def test_blank_cluster_id_is_data_error_naming_row_and_column(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("ID,AREA1,LOOSENING\n1,1,0\n1,0,1\n,1,1\n2,0,1\n")
    code = main(["fit", "--data", str(path), "--response", "LOOSENING",
                 "--cluster", "ID", "--factors", "AREA1:desc"])
    assert code == 3
    assert "row 4, column 'ID'" in capsys.readouterr().err


def test_text_covariate_is_data_error_naming_the_file_row(tmp_path, capsys):
    """build_design finds the text cell, and names the file row holding it."""
    path = tmp_path / "text.csv"
    path.write_text("ID,X,Y\n1,1,0\n1,2,1\n2,1,1\n2,zz,0\n3,1,0\n3,2,1\n")
    code = main(["fit", "--data", str(path), "--response", "Y", "--cluster", "ID",
                 "--covariates", "X", "--corr", "independent"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3 and len(errors) == 1 and "Traceback" not in err
    assert "row 5, column 'X'" in errors[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mean_is_data_error(tmp_path, capsys, monkeypatch):
    """The CLI fits binomial responses only, so a Poisson fit of raw counts
    is patched in: one count of 1e300 exits 3 with one line saying the mean
    overflowed."""
    import geeclust.cli as cli_module

    monkeypatch.setattr(cli_module, "recode_response", lambda ds, response, reference: ds)
    monkeypatch.setattr(cli_module, "Family", lambda *args: Family("poisson", "log"))
    rng = np.random.default_rng(3)
    counts = rng.poisson(2.0, 30).astype(float).tolist()
    counts[4] = 1e300
    x = rng.standard_normal(30).tolist()
    rows = [f"{i // 3 + 1},{x[i]!r},{counts[i]!r}" for i in range(30)]
    path = tmp_path / "counts.csv"
    path.write_text("ID,X,COUNT\n" + "\n".join(rows) + "\n")
    code = main(["fit", "--data", str(path), "--response", "COUNT", "--cluster", "ID",
                 "--covariates", "X", "--corr", "independent"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3 and len(errors) == 1 and "Traceback" not in err
    assert "mean overflowed" in errors[0]


def test_constant_covariate_is_data_error_naming_the_column(tmp_path, capsys):
    """AGE runs 12-40 in the example data, so OLD (AGE above 65) is a column
    of zeros: the fit exits 3 naming it, not as a rank-deficient design."""
    path = tmp_path / "old.csv"
    write_csv(derive_threshold(build_paper_marginals(0), "AGE", 65.0, "OLD"), path)
    code = main(fit_args(str(path), "--covariates", "OLD"))
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 3 and len(errors) == 1 and "Traceback" not in err
    assert errors[0] == "error: covariate 'OLD' takes the single value 0"


def test_repeated_column_name_is_data_error(tmp_path, capsys):
    path = tmp_path / "repeat.csv"
    path.write_text("ID,AREA1,AREA1,LOOSENING\n1,1,0,0\n1,0,1,1\n2,0,0,1\n")
    code = main(["fit", "--data", str(path), "--response", "LOOSENING",
                 "--cluster", "ID", "--factors", "AREA1:desc"])
    assert code == 3
    assert "'AREA1'" in capsys.readouterr().err


# -------------------------------------------------------------------- crosstab

def test_crosstab_panels(paper_csv, capsys):
    code = main(["crosstab", "--data", paper_csv, "--response", "LOOSENING",
                 "--cluster", "ID", "--factor", "AREA1"])
    out = capsys.readouterr().out
    assert code == 0
    ors = [l.split()[-1] for l in out.splitlines() if l.strip().startswith("OR:")]
    assert ors == ["0.440", "2.275", "2.275", "0.440"]
    assert "0.2283" in out and "0.5192" in out


def test_crosstab_zero_cell_undefined(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("ID,G,Y\n1,0,0\n2,0,1\n3,1,1\n4,1,1\n")
    code = main(["crosstab", "--data", str(path), "--response", "Y",
                 "--cluster", "ID", "--factor", "G"])
    out = capsys.readouterr().out
    assert code == 0
    assert "undefined" in out


def test_crosstab_json(paper_csv, capsys):
    main(["crosstab", "--data", paper_csv, "--response", "LOOSENING",
          "--cluster", "ID", "--factor", "AREA1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["panels"][0]["cells"] == {"a": 42, "b": 184, "c": 27, "d": 52}
    assert payload["panels"][1]["odds_ratio"] == pytest.approx(2.2747, abs=1e-4)


# --------------------------------------------------------------------- select

def test_select_exhaustive_counts(paper_csv, capsys):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2",
        "--factors", "AREA1:desc,AGE1:desc,NINSERT1:desc",
        "--structures", "independent,exchangeable", "--max-size", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines()
            if l.startswith(("independent", "exchangeable"))]
    assert len(rows) == 6
    assert "Best working correlation" in out


def test_select_rejects_a_repeated_structure_kind(paper_csv, capsys):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2", "--factors", "AREA1:desc",
        "--structures", "exchangeable,exchangeable",
    ])
    assert code == 2
    assert "exchangeable" in capsys.readouterr().err


def test_select_takes_the_five_kinds(paper_csv, capsys):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2", "--factors", "AREA1:desc",
        "--structures", "independent,mdependent, exchangeable,ar1,unstructured",
        "--format", "json",
    ])
    assert code == 0
    candidates = json.loads(capsys.readouterr().out)["candidates"]
    assert sorted({c["structure"] for c in candidates}) == [
        "ar1", "exchangeable", "independent", "mdependent", "unstructured"]


@pytest.mark.parametrize("name", ["ar-1", "m-dependent", "Exchangeable", "bogus"])
def test_select_rejects_any_other_structure_name(paper_csv, capsys, name):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2", "--factors", "AREA1:desc",
        "--structures", f"independent,{name}",
    ])
    assert code == 2
    assert f"unknown working correlation {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("names", [",", ""])
def test_select_empty_structure_list_is_config_error(paper_csv, capsys, names):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2", "--factors", "AREA1:desc",
        "--structures", names,
    ])
    assert code == 2
    assert "--structures" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exhaustive", "stepwise"])
@pytest.mark.parametrize("size", ["0", "-1", "5"])
def test_select_max_size_outside_the_terms_is_config_error(paper_csv, capsys, mode,
                                                           size):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2",
        "--factors", "AREA1:desc,AGE1:desc", "--structures", "independent",
        "--mode", mode, "--max-size", size,
    ])
    assert code == 2
    assert "max_size must be in 1..2" in capsys.readouterr().err


def test_select_stepwise_trace(paper_csv, capsys):
    code = main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2",
        "--factors", "AREA1:desc,AGE1:desc", "--structures", "independent",
        "--mode", "stepwise",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP 1" in out


def test_select_json_consistent(paper_csv, capsys):
    main([
        "select", "--data", paper_csv, "--response", "LOOSENING",
        "--cluster", "ID", "--within", "AREA2",
        "--factors", "AREA1:desc,AGE1:desc",
        "--structures", "independent,exchangeable", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    alive = [c for c in payload["candidates"] if c["converged"]]
    best = min(alive, key=lambda c: c["qic"])
    assert payload["best_structure"] == best["structure"]


def select_args(data, *extra):
    return [
        "select", "--data", data, "--response", "LOOSENING", "--cluster", "ID",
        "--within", "AREA2", "--factors", "AREA1:desc,CONST:desc",
        "--structures", "independent,exchangeable", *extra,
    ]


def test_select_text_names_failure_class(constant_csv, capsys):
    assert main(select_args(constant_csv)) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if "CONST" in l]
    assert len(rows) == 4
    assert all(l.rstrip().endswith("failed: ConstantFactor") for l in rows)


def test_select_json_carries_failure_reason(constant_csv, capsys):
    assert main(select_args(constant_csv, "--format", "json")) == 0
    candidates = json.loads(capsys.readouterr().out)["candidates"]
    for c in candidates:
        if "CONST" in c["covariates"]:
            assert not c["converged"] and c["qic"] is None
            assert c["failure"].startswith("ConstantFactor: factor 'CONST'")
        else:
            assert c["converged"] and c["failure"] is None


def test_select_csv_writes_candidate_table(constant_csv, capsys):
    assert main(select_args(constant_csv, "--format", "json")) == 0
    candidates = json.loads(capsys.readouterr().out)["candidates"]
    assert main(select_args(constant_csv, "--format", "csv")) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["structure", "covariates", "p", "qic", "qic_u", "converged",
                       "failure"]
    assert len(rows) == len(candidates) + 1
    for row, c in zip(rows[1:], candidates):
        assert row[:3] == [c["structure"], ";".join(c["covariates"]), str(c["p"])]
        for cell, value in zip(row[3:5], (c["qic"], c["qic_u"])):
            assert cell == ("" if value is None else repr(value))
        assert row[5:] == [str(c["converged"]), c["failure"] or ""]


# ------------------------------------------------------------------ summarize

def test_summarize_histogram_and_concordance(paper_csv, capsys):
    code = main(["summarize", "--data", paper_csv, "--response", "LOOSENING",
                 "--cluster", "ID", "--within", "AREA2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["cluster_sizes"] == {
        "1": 31, "2": 67, "3": 17, "4": 14, "5": 3, "6": 3
    }
    conc = payload["concordance"]
    assert sum(conc.values()) == payload["n_clusters"]
    assert (conc["all_success"], conc["all_failure"], conc["skewed"],
            conc["equal"]) == (62, 4, 19, 19)


# ------------------------------------------------------------------- simulate

def test_simulate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--out", str(a), "--seed", "7",
                 "--clusters", "60"]) == 0
    out = capsys.readouterr().out
    assert "seed: 7" in out
    assert main(["simulate", "--out", str(b), "--seed", "7",
                 "--clusters", "60"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_paper_marginals_flag(tmp_path, capsys):
    path = tmp_path / "pm.csv"
    assert main(["simulate", "--out", str(path), "--paper-marginals"]) == 0
    capsys.readouterr()
    with open(path) as handle:
        assert sum(1 for _ in handle) == 306


@pytest.mark.parametrize("clusters", ["0", "-3"])
def test_simulate_needs_at_least_one_cluster(tmp_path, capsys, clusters):
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--out", str(path), "--clusters", clusters]) == 2
    assert "clusters must be at least 1" in capsys.readouterr().err
    assert not path.exists()


# ------------------------------------------------------------ collector load

def test_fit_leaves_no_reference_cycles(paper_csv, capsys):
    """A fit call leaves (next to) nothing for the cyclic collector, so a
    process that fits many files does not pay for full collections."""
    argv = fit_args(paper_csv, "--corr", "exchangeable", "--format", "text")
    assert main(argv) == 0          # warm-up: imports, caches, logging setup
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable < 50
