import csv
import gc
from math import isfinite

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geeclust import (
    ClusteredDataset,
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
    DuplicateColumn,
    DuplicateWithinPosition,
    MissingColumn,
    NonBinaryResponse,
    UnknownVariable,
    UnparseableValue,
)


def make_ds(rows_by_cluster, response="Y", names=("X",)):
    ids, sizes, positions, responses = [], [], [], []
    columns = {name: [] for name in names}
    for cid, rows in rows_by_cluster.items():
        ids.append(str(cid))
        sizes.append(len(rows))
        for i, (y, *values) in enumerate(rows):
            positions.append(i + 1)
            responses.append(float(y))
            for name, value in zip(names, values):
                columns[name].append(value)
    return ClusteredDataset(ids, sizes, positions, responses, columns, "ID", response, None)


# ------------------------------------------------------- reference loader

def _reference_parse_cell(text, row, col):
    """'' -> None, finite numeric text -> float, other text kept as string."""
    if text is None or text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    if isfinite(value):
        return value
    raise UnparseableValue(row, col, text)


def _reference_cluster_id(value):
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return value


def reference_load_csv(path, cluster_col, response_col, within_col=None):
    """`load_csv` one row at a time, as it first was (plus the blank-id rule).

    Returns (ids, sizes, positions, responses, columns) as plain lists, the
    columns as {name: values} with None for missing.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        idx = {name: i for i, name in enumerate(header)}
        variable_names = tuple(
            name for name in header if name not in (cluster_col, response_col)
        )
        groups = {}
        order = []
        for row_num, cells in enumerate(reader, start=2):
            if not any(cells):
                continue
            rec = {name: _reference_parse_cell(cells[i], row_num, name)
                   if i < len(cells) else None
                   for name, i in idx.items()}
            raw_response = cells[idx[response_col]] if idx[response_col] < len(cells) else ""
            if raw_response == "":
                continue
            response = rec[response_col]
            if not isinstance(response, float):
                raise UnparseableValue(row_num, response_col, raw_response)
            within = None
            if within_col is not None:
                within = rec[within_col]
                if within is not None and not isinstance(within, float):
                    raise UnparseableValue(row_num, within_col, within)
            if rec[cluster_col] is None:
                raise UnparseableValue(row_num, cluster_col, "")
            cid = _reference_cluster_id(rec[cluster_col])
            covariates = {name: rec[name] for name in variable_names}
            if cid not in groups:
                groups[cid] = []
                order.append(cid)
            groups[cid].append((within, row_num, response, covariates))

    observed = sorted(
        {w for rows in groups.values() for (w, _, _, _) in rows if w is not None}
    )
    rank = {w: i + 1 for i, w in enumerate(observed)}

    sizes, positions, responses = [], [], []
    columns = {name: [] for name in variable_names}
    for cid in order:
        entries = groups[cid]
        if within_col is not None:
            seen = {}
            for w, row_num, _, _ in entries:
                if w is None:
                    continue
                if w in seen:
                    raise DuplicateWithinPosition(cid, w)
                seen[w] = row_num
            entries = sorted(
                entries, key=lambda e: (0, rank[e[0]]) if e[0] is not None else (1, e[1])
            )
            tail = len(observed)
            for w, _, _, _ in entries:
                if w is not None:
                    positions.append(rank[w])
                else:
                    tail += 1
                    positions.append(tail)
        else:
            positions += range(1, len(entries) + 1)
        sizes.append(len(entries))
        for _, _, response, covariates in entries:
            responses.append(response)
            for name in variable_names:
                columns[name].append(covariates[name])
    return order, sizes, positions, responses, columns


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
    assert ds.cluster_sizes() == [1]
    assert ds.response_vector().tolist() == [1.0]


def test_load_csv_starts_no_collections(tmp_path):
    """Reading 18,181 rows keeps no per-row objects alive, so the cyclic
    collector has (next to) nothing to scan or promote."""
    path = tmp_path / "big.csv"
    write_csv(generate_paper(8000, 0.25, 5), path)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        ds = load_csv(path, "ID", "LOOSENING", "AREA2")
    finally:
        gc.callbacks.remove(count)
    assert ds.n_total == 18181
    assert len(started) <= 1, started


def test_load_unopenable_file_raises_the_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", "ID", "Y")


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


def test_load_rejects_blank_cluster_id(tmp_path):
    # blank ids must not be pooled into one cluster with id ""
    path = tmp_path / "blank.csv"
    path.write_text("ID,X,Y\n,1,0\n,0,1\n1,1,1\n,1,0\n")
    with pytest.raises(UnparseableValue) as err:
        load_csv(path, "ID", "Y")
    assert (err.value.row, err.value.col) == (2, "ID")


@pytest.mark.parametrize("cluster, response, within", [
    ("ID", "Y", "ID"), ("Y", "Y", None), ("ID", "Y", "Y"),
])
def test_load_rejects_one_column_in_two_roles(tmp_path, cluster, response, within):
    path = tmp_path / "roles.csv"
    path.write_text("ID,Y\n1,0\n1,1\n2,1\n")
    with pytest.raises(ValueError, match="must differ"):
        load_csv(path, cluster, response, within)


def test_load_rejects_repeated_column_name(tmp_path):
    # the second X column must not silently replace the first
    path = tmp_path / "repeat.csv"
    path.write_text("ID,X,X,Y\n1,1,2,0\n1,3,4,1\n")
    with pytest.raises(DuplicateColumn, match="'X'"):
        load_csv(path, "ID", "Y")


def test_load_duplicate_within_position(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("ID,T,Y\n1,3,0\n1,3,1\n")
    with pytest.raises(DuplicateWithinPosition):
        load_csv(path, "ID", "Y", "T")


def test_load_sorts_by_within_and_ranks_occasions(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("ID,T,Y\n1,10,0\n1,2,1\n2,6,0\n")
    ds = load_csv(path, "ID", "Y", "T")
    assert ds.cluster_sizes() == [2, 1]
    assert ds.positions[:2].tolist() == [1, 3]   # T=2 -> rank 1, T=10 -> rank 3
    assert ds.response[0] == 1.0                 # the T=2 row comes first
    assert ds.positions[2:].tolist() == [2]      # T=6 -> rank 2


def test_load_missing_within_keeps_file_order_after_observed(tmp_path):
    path = tmp_path / "mw.csv"
    path.write_text("ID,T,Y\n1,,0\n1,4,1\n1,,2\n")
    ds = load_csv(path, "ID", "Y", "T")
    assert ds.cluster_sizes() == [3]
    # the observed T=4 row ranks first; missing-T rows follow in file order
    assert ds.response.tolist() == [1.0, 0.0, 2.0]
    assert ds.positions.tolist() == [1, 2, 3]


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
    assert back.ids == ds.ids
    assert back.cluster_sizes() == ds.cluster_sizes()
    assert back.positions.tolist() == ds.positions.tolist()
    assert back.response.tolist() == ds.response.tolist()
    assert back.variable_names == ds.variable_names
    for name in ds.variable_names:
        assert back.column(name) == ds.column(name)


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


def test_constant_covariate_rejected_naming_column_and_value():
    # the intercept is always coded, so a constant covariate is collinear
    # with it whatever its value
    ds = make_ds({1: [(0, 2.5)], 2: [(1, 2.5), (0, 2.5)]}, names=("X",))
    with pytest.raises(ConstantFactor, match=r"covariate 'X' .* single value 2\.5"):
        build_design(ds, [TermCoding("X", "covariate")])


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
    ds = ClusteredDataset(["1"], [2], [1, 2], [0.0, 1.0], {"X": [None, 1.0]}, "ID", "Y", None)
    out, dropped = complete_cases(ds, ["X"])
    assert dropped == 1
    assert out.positions.tolist() == [2]


# ------------------------------------------------- loader against reference

# (usable cells, bad cells) per column
CSV_CELLS = {
    "ID": (("1", "2", "3", "01", "2.0", "a"), ("", "nan")),
    "A": (("0", "1", "2.5", "", "abc", "1e3", " 7"), ("inf",)),
    "T": (("1", "2", "3", "4", "2.0", ""), ("x", "-inf")),
    "Y": (("0", "1", "2", ""), ("yes", "nan")),
}


@st.composite
def small_csvs(draw):
    """Header ID,A,T,Y and up to 12 lines: short rows and blank lines included."""
    lines = []
    # a bad cell one time in 3 makes rows with several of them; 1 in 25, a
    # file that mostly loads
    odds = draw(st.sampled_from((3, 25)))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("row",) * 6 + ("short", "blank")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(([], ["", "", "", ""]))))
            continue
        cells = []
        for name in ("ID", "A", "T", "Y"):
            usable, bad = CSV_CELLS[name]
            pool = bad if draw(st.integers(1, odds)) == 1 else usable
            cells.append(draw(st.sampled_from(pool)))
        if kind == "short":
            cells = cells[:draw(st.integers(1, 3))]
        lines.append(cells)
    return lines, draw(st.sampled_from((None, "T")))


def _loaded(ds):
    return (list(ds.ids), ds.cluster_sizes(), ds.positions.tolist(), ds.response.tolist(),
            {name: ds.column(name) for name in ds.variable_names})


def _outcome(load, path, within):
    try:
        return load(path, "ID", "Y", within)
    except UnparseableValue as exc:
        return ("UnparseableValue", exc.row, exc.col)
    except DuplicateWithinPosition as exc:
        return ("DuplicateWithinPosition", exc.cluster_id)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=small_csvs())
def test_load_csv_matches_reference_loader(tmp_path_factory, case):
    lines, within = case
    path = tmp_path_factory.mktemp("csv") / "small.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ID", "A", "T", "Y"])
        writer.writerows(lines)
    expected = _outcome(reference_load_csv, path, within)
    got = _outcome(load_csv, path, within)
    if isinstance(got, ClusteredDataset):
        got = _loaded(got)
    assert got == expected


# load_csv reads a file in batches of 256 records: file rows 2-257, 258-513,
# 514-769, ...  These are the rows on either side of the first two seams.
SEAM_ROWS = (256, 257, 258, 513, 514)
SEAM_LAYOUTS = ("row", "blank", "blank cells", "short 1", "short 2", "short 3", "long")
# a repeated within value, or one cell replaced: (column index, text); a blank
# response drops its row and a text A cell is kept, the others are errors
SEAM_FAULTS = (None, "repeat", (0, ""), (1, "nan"), (1, "yes"), (1, ""), (2, "x"),
               (3, "inf"), (3, "abc"))


def _seam_row(i):
    """Record i of a clean file with header ID,Y,T,A: clusters of four rows
    with occasions 1-4, a blank A cell now and then."""
    return [str(i // 4), str(i * 7 % 3 % 2), str(i % 4 + 1), "" if i % 11 == 0 else str(i % 7)]


def _seam_cases():
    """(rows, layout of each seam row, fault row, fault, within column).

    Each fault at each seam row, the layouts rotating so that every layout
    sits at every seam row; then files that end at or near a seam."""
    cases = []
    for k, (fault_row, fault) in enumerate(
            (row, fault) for row in SEAM_ROWS for fault in SEAM_FAULTS):
        layouts = [SEAM_LAYOUTS[(k + j) % len(SEAM_LAYOUTS)] for j in range(len(SEAM_ROWS))]
        n_rows = (513, 514, 600, 800)[k % 4]
        name = fault if fault in (None, "repeat") else f"{('ID', 'Y', 'T', 'A')[fault[0]]}={fault[1] or 'blank'}"
        cases.append(pytest.param(n_rows, layouts, fault_row, fault, "T",
                                  id=f"{n_rows}-row{fault_row}-{name}"))
    for n_rows in (255, 256, 257, 512):
        for within in (None, "T"):
            cases.append(pytest.param(
                n_rows, ["long", "short 2", "blank", "blank cells", "long"], None, None,
                within, id=f"{n_rows}-within{within}"))
    return cases


def _seam_lines(n_rows, layouts, fault_row, fault):
    lines = [_seam_row(i) for i in range(n_rows)]
    for file_row, layout in zip(SEAM_ROWS, layouts):
        i = file_row - 2
        if i >= n_rows:
            continue
        if layout == "blank":
            lines[i] = []
        elif layout == "blank cells":
            lines[i] = ["", "", "", ""]
        elif layout.startswith("short"):
            lines[i] = lines[i][:int(layout[-1])]
        elif layout == "long":
            lines[i] = lines[i] + ["x", "nan"]
    if fault is not None:
        i = fault_row - 2
        lines[i] = _seam_row(i)
        if fault == "repeat":
            lines[i][0], lines[i][2] = _seam_row(i - 1)[0], _seam_row(i - 1)[2]
        else:
            lines[i][fault[0]] = fault[1]
    return lines


@pytest.mark.parametrize("n_rows, layouts, fault_row, fault, within", _seam_cases())
def test_load_csv_matches_reference_loader_across_batches(
        tmp_path, n_rows, layouts, fault_row, fault, within):
    path = tmp_path / "seams.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ID", "Y", "T", "A"])
        writer.writerows(_seam_lines(n_rows, layouts, fault_row, fault))
    expected = _outcome(reference_load_csv, path, within)
    got = _outcome(load_csv, path, within)
    if isinstance(got, ClusteredDataset):
        got = _loaded(got)
    assert got == expected


# Cells of an all-numeric file, which float() and np.loadtxt read alike
NUMERIC_CELLS = ("01", "1", "2", "2.0", " 7", "1e3", "+1.", "-.5", "-0", "0")


@st.composite
def numeric_csvs(draw):
    """Raw text of a file with columns ID, A, T and Y in any order whose
    cells are numbers, with blank lines, extra cells on every row and any
    line end.  At most one change sends it to the cell path: a cell that only
    float() reads (1_0), a quoted one, a text cell holding "#", one longer
    row, a first line of spaces, or a nan, inf or blank cell on the last
    row."""
    digits = str(draw(st.integers(10 ** 29, 10 ** 30 - 1)))
    point = draw(st.integers(0, 30))
    pool = NUMERIC_CELLS + (f"{digits[:point]}.{digits[point:]}",)
    width = 4 + draw(st.sampled_from((0, 0, 1, 2)))
    rows = [[] if draw(st.sampled_from((False,) * 7 + (True,)))
            else [draw(st.sampled_from(pool)) for _ in range(width)]
            for _ in range(draw(st.integers(1, 10)))]
    change = draw(st.sampled_from((None,) * 4 + ("1_0", '"1"', "1#5", "long", "spaces",
                                                  "nan", "inf", "")))
    filled = [cells for cells in rows if cells]
    if change in ("1_0", '"1"', "1#5", "long") and filled:
        cells = draw(st.sampled_from(filled))
        if change == "long":
            cells.append(draw(st.sampled_from(pool)))
        else:
            cells[draw(st.integers(0, width - 1))] = change
    elif change == "spaces":
        rows.insert(0, ["  "])
    elif change in ("nan", "inf", ""):
        rows.append([draw(st.sampled_from(pool)) for _ in range(width)])
        rows[-1][draw(st.integers(0, 3))] = change
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    header = ",".join(draw(st.permutations(("ID", "A", "T", "Y"))))
    text = end.join([header] + [",".join(cells) for cells in rows])
    if draw(st.booleans()):
        text += end
    return text, draw(st.sampled_from((None, "T")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=numeric_csvs())
@example(case=("Y,ID,A,T\n  \n0,1,2,3\n", None))  # a first line of spaces, Y first
def test_load_csv_matches_reference_loader_on_numeric_files(tmp_path_factory, case):
    text, within = case
    path = tmp_path_factory.mktemp("csv") / "numeric.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(reference_load_csv, path, within)
    got = _outcome(load_csv, path, within)
    if isinstance(got, ClusteredDataset):
        got = _loaded(got)
    assert got == expected


def test_all_numeric_file_is_parsed_in_one_pass(tmp_path, monkeypatch):
    """A file of finite numbers never reaches the cell parser; one text cell
    sends it there."""
    import geeclust.data as data_module

    def refuse(cells):
        raise AssertionError("parsed cell by cell")

    monkeypatch.setattr(data_module, "_parse_column", refuse)
    path = tmp_path / "numbers.csv"
    path.write_text("ID,X,T,Y\n01,2.5,2,0\n1,1e3,1,1\n2,-.5,1,1\n")
    ds = load_csv(path, "ID", "Y", "T")
    assert _loaded(ds) == (["1", "2"], [2, 1], [1, 2, 1], [1.0, 0.0, 1.0],
                           {"X": [1000.0, 2.5, -0.5], "T": [1.0, 2.0, 1.0]})
    path.write_text("ID,X,T,Y\n01,2.5,2,0\n1,abc,1,1\n")
    with pytest.raises(AssertionError, match="cell by cell"):
        load_csv(path, "ID", "Y", "T")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["ID,X,Y\n", "ID,X,Y", "ID,X,Y\n\n\r\n\n"],
                         ids=["header-only", "no-line-end", "blank-lines"])
def test_file_without_data_rows_loads_empty_without_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode("utf-8"))
    for within in (None, "X"):
        ds = load_csv(path, "ID", "Y", within)
        assert _loaded(ds) == ([], [], [], [], {"X": []})


def test_write_csv_quotes_as_csv_writer_and_loads_back(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", "car\rriage", " padded "]
    text = ["x, y", '"', "\r\n", " lead", "trail ", None, 1.5]
    ds = ClusteredDataset(ids, [2, 1, 1, 2, 1], [1, 2, 1, 1, 1, 2, 1],
                          [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0],
                          {"TXT": text, "NUM": [2.0, None, -0.5, 3.0, 1e20, 4.0, 0.25]},
                          "ID", "Y", None)
    path = tmp_path / "quoted.csv"
    write_csv(ds, path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ID", "TXT", "NUM", "Y"])
        writer.writerows([
            ["a,b", "x, y", "2", "0"], ["a,b", '"', "", "1"],
            ['say "hi"', "\r\n", "-0.5", "1"], ["two\nlines", " lead", "3", "0"],
            ["car\rriage", "trail ", "1e+20", "1"], ["car\rriage", "", "4", "0"],
            [" padded ", "1.5", "0.25", "1"],
        ])
    assert path.read_bytes() == expected.read_bytes()
    assert _loaded(load_csv(path, "ID", "Y")) == _loaded(ds)


@st.composite
def small_datasets(draw):
    ids = draw(st.lists(st.one_of(st.integers(0, 999).map(str),
                                  st.text("abcxyz", min_size=1, max_size=3)),
                        min_size=1, max_size=6, unique=True))
    sizes = [draw(st.integers(1, 4)) for _ in ids]
    n = sum(sizes)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    numbers = st.one_of(finite, st.integers(-3, 3).map(float))
    columns = {
        "NUM": draw(st.lists(st.one_of(st.none(), numbers), min_size=n, max_size=n)),
        "TXT": draw(st.lists(st.one_of(st.none(), numbers, st.text("abcxyz", min_size=1)),
                             min_size=n, max_size=n)),
    }
    response = draw(st.lists(numbers, min_size=n, max_size=n))
    positions = [q for m in sizes for q in range(1, m + 1)]
    return ClusteredDataset(ids, sizes, positions, response, columns, "ID", "Y", None)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ds=small_datasets())
def test_write_then_load_round_trips(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path, "ID", "Y")
    assert _loaded(back) == _loaded(ds)


def test_columns_are_typed_arrays():
    ds = make_ds({1: [(0, 1.0), (1, None)], 2: [(0, "a")]}, names=("X",))
    numeric = make_ds({1: [(0, 1.0), (1, None)]}, names=("X",))
    assert ds.columns["X"].dtype == object and ds.column("X") == [1.0, None, "a"]
    assert numeric.columns["X"].dtype == np.float64
    assert np.isnan(numeric.columns["X"][1]) and numeric.column("X") == [1.0, None]
    # a subset that loses its text is stored as numbers again
    out, _ = complete_cases(ds.take(np.array([True, True, False])), ["X"])
    assert out.columns["X"].dtype == np.float64 and out.column("X") == [1.0]


@pytest.mark.parametrize("sizes, positions, error", [
    ([2, 1], [1, 1, 1], DuplicateWithinPosition),
    ([2, 1], [2, 1, 1], ValueError),
    ([2, 0], [1, 2], ValueError),
    ([2, 1], [1, 2], ValueError),
], ids=["duplicate-position", "unsorted", "empty-cluster", "short-positions"])
def test_constructor_rejects_bad_layout(sizes, positions, error):
    n = sum(sizes)
    with pytest.raises(error):
        ClusteredDataset([str(i) for i in range(len(sizes))], sizes, positions,
                         [0.0] * n, {"X": [1.0] * n})
