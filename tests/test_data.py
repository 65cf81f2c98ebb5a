import numpy as np
import pytest

from geeclust import (
    Cluster,
    ClusteredDataset,
    Row,
    TermCoding,
    build_design,
    complete_cases,
    derive_threshold,
    generate_paper,
    load_csv,
    recode_response,
    write_csv,
)
from geeclust.errors import (
    ConstantFactor,
    DuplicateWithinPosition,
    MissingColumn,
    NonBinaryResponse,
    UnknownVariable,
    UnparseableValue,
)


def make_ds(rows_by_cluster, response="Y", names=("X",)):
    clusters = []
    for cid, rows in rows_by_cluster.items():
        built = tuple(
            Row(i + 1, float(y), dict(zip(names, values)))
            for i, (y, *values) in enumerate(rows)
        )
        clusters.append(Cluster(str(cid), built))
    return ClusteredDataset(tuple(clusters), tuple(names), "ID", response, None)


# ------------------------------------------------------------------ load_csv

def test_load_simulated_file_counts(tmp_path):
    ds = generate_paper(n_clusters=135, alpha=0.0, seed=5)
    path = tmp_path / "sim.csv"
    write_csv(ds, path)
    with open(path) as handle:
        n_lines = sum(1 for _ in handle)
    ids = set()
    with open(path) as handle:
        next(handle)
        for line in handle:
            ids.add(line.split(",")[0])
    loaded = load_csv(path, "ID", "LOOSENING", "AREA2")
    assert loaded.n_clusters == len(ids) == 135
    assert loaded.n_total == n_lines - 1


def test_load_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("ID,AGE,Y\n7,30,1\n")
    ds = load_csv(path, "ID", "Y")
    assert ds.n_clusters == 1
    assert ds.clusters[0].size == 1
    assert ds.clusters[0].rows[0].response == 1.0


def test_load_missing_response_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ID,AGE\n1,20\n")
    with pytest.raises(MissingColumn):
        load_csv(path, "ID", "LOOSENING")


def test_load_unparseable_response(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ID,Y\n1,yes\n")
    with pytest.raises(UnparseableValue):
        load_csv(path, "ID", "Y")


@pytest.mark.parametrize("text, within, col", [
    ("ID,X,Y\n1,2,0\n1,3,nan\n", None, "Y"),
    ("ID,X,Y\n1,2,0\n1,inf,1\n", None, "X"),
    ("ID,T,Y\n1,2,0\n1,nan,1\n", "T", "T"),
], ids=["nan-response", "inf-covariate", "nan-within"])
def test_load_rejects_non_finite_cells(tmp_path, text, within, col):
    path = tmp_path / "nonfinite.csv"
    path.write_text(text)
    with pytest.raises(UnparseableValue) as err:
        load_csv(path, "ID", "Y", within)
    assert (err.value.row, err.value.col) == (3, col)


def test_load_duplicate_within_position(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("ID,T,Y\n1,3,0\n1,3,1\n")
    with pytest.raises(DuplicateWithinPosition):
        load_csv(path, "ID", "Y", "T")


def test_load_sorts_by_within_and_ranks_occasions(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("ID,T,Y\n1,10,0\n1,2,1\n2,6,0\n")
    ds = load_csv(path, "ID", "Y", "T")
    first = ds.clusters[0]
    assert first.positions == (1, 3)          # T=2 -> rank 1, T=10 -> rank 3
    assert first.rows[0].response == 1.0      # the T=2 row comes first
    assert ds.clusters[1].positions == (2,)   # T=6 -> rank 2


def test_load_missing_within_keeps_file_order_after_observed(tmp_path):
    path = tmp_path / "mw.csv"
    path.write_text("ID,T,Y\n1,,0\n1,4,1\n1,,2\n")
    ds = load_csv(path, "ID", "Y", "T")
    cluster = ds.clusters[0]
    # the observed T=4 row ranks first; missing-T rows follow in file order
    assert cluster.responses == (1.0, 0.0, 2.0)
    assert cluster.positions == (1, 2, 3)


def test_load_drops_missing_response(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("ID,Y\n1,0\n1,\n1,1\n")
    ds = load_csv(path, "ID", "Y")
    assert ds.n_total == 2


# ------------------------------------------------------------------ round trip

def test_round_trip(tmp_path):
    ds = generate_paper(n_clusters=40, alpha=0.2, seed=11)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path, "ID", "LOOSENING", "AREA2")
    assert back.n_total == ds.n_total
    assert [c.id for c in back.clusters] == [c.id for c in ds.clusters]
    for original, reloaded in zip(ds.clusters, back.clusters):
        assert original.positions == reloaded.positions
        assert original.responses == reloaded.responses
        for a, b in zip(original.rows, reloaded.rows):
            assert a.covariates == b.covariates


# ------------------------------------------------------------ derive_threshold

def test_threshold_strict_above():
    ds = make_ds({1: [(0, 21.0)], 2: [(0, 20.0)]}, names=("AGE",))
    out = derive_threshold(ds, "AGE", 20.0, "AGE1", strict_above=True)
    assert out.column("AGE1") == [1.0, 0.0]
    # original untouched
    assert out.column("AGE") == [21.0, 20.0]
    assert "AGE1" not in ds.variable_names


def test_threshold_non_strict():
    ds = make_ds({1: [(0, 8.0)], 2: [(0, 7.9)]}, names=("LENGTH",))
    out = derive_threshold(ds, "LENGTH", 8.0, "LENGTH1", strict_above=False)
    assert out.column("LENGTH1") == [1.0, 0.0]


def test_threshold_unknown_variable():
    ds = make_ds({1: [(0, 1.0)]})
    with pytest.raises(UnknownVariable):
        derive_threshold(ds, "NOPE", 1.0, "NOPE1")


# -------------------------------------------------------------- recode_response

def test_recode_reference_first_models_high_value():
    ds = make_ds({1: [(0, 1.0)], 2: [(1, 0.0)]})
    out = recode_response(ds, "Y", "first")
    assert out.response_vector().tolist() == [0.0, 1.0]


def test_recode_reference_last_models_low_value():
    ds = make_ds({1: [(0, 1.0)], 2: [(1, 0.0)]})
    out = recode_response(ds, "Y", "last")
    assert out.response_vector().tolist() == [1.0, 0.0]


def test_recode_constant_response_rejected():
    ds = make_ds({1: [(1, 1.0)], 2: [(1, 0.0)]})
    with pytest.raises(NonBinaryResponse):
        recode_response(ds, "Y", "first")


# ---------------------------------------------------------------- build_design

def test_binary_factor_descending_reference_low():
    ds = make_ds({1: [(0, 1.0)], 2: [(0, 0.0)]}, names=("AREA1",))
    x = build_design(ds, [TermCoding("AREA1", "factor", "descending")])
    assert x.column_labels == ("(Intercept)", "AREA1=1")
    assert x.values[:, 1].tolist() == [1.0, 0.0]
    assert x.coding_map[("AREA1", 1.0)] == 1


def test_binary_factor_ascending_reference_high():
    ds = make_ds({1: [(0, 1.0)], 2: [(0, 0.0)]}, names=("AREA1",))
    x = build_design(ds, [TermCoding("AREA1", "factor", "ascending")])
    assert x.column_labels == ("(Intercept)", "AREA1=0")
    assert x.values[:, 1].tolist() == [0.0, 1.0]


def test_covariate_identity_column():
    ds = make_ds({1: [(0, 23.5)], 2: [(0, 31.0)]}, names=("AGE",))
    x = build_design(ds, [TermCoding("AGE", "covariate")])
    assert x.column_labels == ("(Intercept)", "AGE")
    assert x.values[:, 1].tolist() == [23.5, 31.0]


def test_intercept_always_first():
    ds = make_ds({1: [(0, 1.0)], 2: [(1, 2.0)]}, names=("X",))
    x = build_design(ds, [])
    assert x.column_labels == ("(Intercept)",)
    assert np.all(x.values == 1.0)


def test_constant_factor_rejected():
    ds = make_ds({1: [(0, 1.0)], 2: [(0, 1.0)]}, names=("X",))
    with pytest.raises(ConstantFactor):
        build_design(ds, [TermCoding("X", "factor")])


def test_unknown_variable_rejected():
    ds = make_ds({1: [(0, 1.0)]})
    with pytest.raises(UnknownVariable):
        build_design(ds, [TermCoding("MISSING", "factor")])


@pytest.mark.parametrize("seed", range(8))
def test_coding_dimension_formula(seed):
    rng = np.random.default_rng(seed)
    n_factors = int(rng.integers(1, 4))
    n_cov = int(rng.integers(0, 3))
    n = 60
    names = [f"F{i}" for i in range(n_factors)] + [f"C{i}" for i in range(n_cov)]
    level_counts = [int(rng.integers(2, 6)) for _ in range(n_factors)]
    rows = {}
    for r in range(n):
        values = [float(rng.integers(0, k)) for k in level_counts]
        values += [float(rng.standard_normal()) for _ in range(n_cov)]
        rows[r] = [(rng.integers(0, 2), *values)]
    ds = make_ds(rows, names=tuple(names))
    terms = [TermCoding(f"F{i}", "factor") for i in range(n_factors)]
    terms += [TermCoding(f"C{i}", "covariate") for i in range(n_cov)]
    x = build_design(ds, terms)
    observed = [len(set(ds.column(f"F{i}"))) for i in range(n_factors)]
    assert x.p == 1 + n_cov + sum(k - 1 for k in observed)


def test_flip_order_swaps_binary_coding():
    rng = np.random.default_rng(3)
    rows = {r: [(0, float(rng.integers(0, 2)))] for r in range(20)}
    ds = make_ds(rows, names=("B",))
    asc = build_design(ds, [TermCoding("B", "factor", "ascending")])
    desc = build_design(ds, [TermCoding("B", "factor", "descending")])
    assert np.allclose(asc.values[:, 1] + desc.values[:, 1], 1.0)


def test_multilevel_factor_labels():
    ds = make_ds(
        {1: [(0, 1.0)], 2: [(0, 2.0)], 3: [(0, 3.0)]}, names=("LENGTH",)
    )
    asc = build_design(ds, [TermCoding("LENGTH", "factor", "ascending")])
    assert asc.column_labels == ("(Intercept)", "LENGTH=1", "LENGTH=2")
    desc = build_design(ds, [TermCoding("LENGTH", "factor", "descending")])
    assert desc.column_labels == ("(Intercept)", "LENGTH=3", "LENGTH=2")


# -------------------------------------------------------------- complete_cases

def test_complete_cases_drops_and_counts():
    ds = make_ds({1: [(0, 1.0), (1, None)], 2: [(0, None)]})
    out, dropped = complete_cases(ds, ["X"])
    assert dropped == 2
    assert out.n_clusters == 1
    assert out.n_total == 1


def test_complete_cases_preserves_positions():
    clusters = (
        Cluster("1", (Row(1, 0.0, {"X": None}), Row(2, 1.0, {"X": 1.0}))),
    )
    ds = ClusteredDataset(clusters, ("X",), "ID", "Y", None)
    out, dropped = complete_cases(ds, ["X"])
    assert dropped == 1
    assert out.clusters[0].positions == (2,)
