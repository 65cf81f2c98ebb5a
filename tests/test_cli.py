import json

import numpy as np
import pytest

from geeclust import CovariateSpec, SimProfile, build_paper_marginals, generate, write_csv
from geeclust.cli import main, render_fit_text
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
