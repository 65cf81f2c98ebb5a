"""Clustered dataset ingestion, variable typing, and design-matrix coding.

CSV files are read with a required header row, comma separator, UTF-8, and
"." decimal point; an empty field is a missing value.  Rows are grouped by a
cluster column and ordered inside each cluster by an optional within-subject
column (file order otherwise).  Factors are coded as one indicator column per
non-reference level with explicit reference-category control, mirroring the
ascending/descending category-order semantics of SPSS's estimating-equation
dialogs.  Datasets and design matrices are immutable once built and safe to
share across concurrent fits.

A dataset is columnar.  Rows are stored cluster by cluster, clusters in
order and rows in occasion order inside each, as:

* `ids`, one string per cluster, and `sizes`, its row count; `starts` holds
  the offset of each cluster's first row;
* `positions`, the int occasion index of each row, strictly increasing
  inside a cluster;
* `response`, the float response of each row;
* `columns`, one array per covariate in dataset row order: float64 with NaN
  for a missing value when every value is numeric, and an object array of
  floats, strings and None (missing) only when the column holds text;
* `file_rows`, the file row each row was read from (the header is row 1),
  or None.  A data error names a row by it when it is set, and by the
  dataset row index otherwise.

NaN can stand for "missing" because `load_csv` rejects cells that parse to
nan or inf.  Every array is read-only.

A file whose every data cell is an unquoted finite number is parsed in one
np.loadtxt pass, any other file cell by cell; both give the same dataset.
On the first path no Python loop runs over the rows or the clusters: the
cluster ids come from one np.unique call, and `write_csv` formats each distinct
number once, whole numbers in one numpy cast.  The text is `_format_cell`'s
in every case, so the ids, and every byte written, are those of a cell by
cell formatting.
"""

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, compress, dropwhile, islice
from math import isfinite
from numbers import Real
from typing import Mapping, Optional

import numpy as np

from .errors import (
    ConstantFactor,
    DuplicateColumn,
    DuplicateWithinPosition,
    MissingColumn,
    NonBinaryResponse,
    UnknownVariable,
    UnparseableValue,
)

log = logging.getLogger("geeclust.data")


def _format_cell(value) -> str:
    if value is None or value != value:
        return ""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _number_text(values) -> np.ndarray:
    """`_format_cell` of each float of `values`, as an object array.  Whole
    numbers below 1e15 in size are cast to int64 and then to text, in two
    numpy calls that write the digits str(int(v)) writes; only the others
    (fractions, NaN, larger numbers) are formatted one by one."""
    whole = (np.abs(values) < 1e15) & (values == np.trunc(values))
    text = np.empty(len(values), dtype=object)
    text[whole] = values[whole].astype(np.int64).astype(str).tolist()
    rest = np.flatnonzero(~whole)
    if len(rest):
        text[rest] = [_format_cell(v) for v in values[rest].tolist()]
    return text


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype).view()
    array.setflags(write=False)
    return array


def _as_column(values) -> np.ndarray:
    """A read-only covariate column.

    float64 with NaN for missing when every value is a number or missing;
    otherwise an object array holding None for missing (None or NaN in).
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiub":
        return _frozen(values, float)
    items = [None if v is None or v != v else v for v in values]
    if all(v is None or isinstance(v, Real) for v in items):
        return _frozen([np.nan if v is None else v for v in items], float)
    column = np.empty(len(items), dtype=object)
    column[:] = items
    column.setflags(write=False)
    return column


def _missing(column) -> np.ndarray:
    if column.dtype == object:
        return np.fromiter((v is None for v in column), bool, len(column))
    return np.isnan(column)


def _first_text(column) -> int:
    """Index of the first value of an object column that is neither missing
    nor a float (columns are only stored as objects when one exists)."""
    return next(i for i, v in enumerate(column) if v is not None and not isinstance(v, float))


@dataclass(frozen=True, eq=False)
class ClusteredDataset:
    """Rows grouped by cluster with within-cluster occasion indices.

    Built from `ids` (one per cluster), `sizes` (rows per cluster), row-wise
    `positions` and `response`, and `columns` mapping each covariate name to
    its row-wise values (lists or arrays; None or NaN marks a missing value).
    `variable_names` lists the covariate columns in order (the within-subject
    column, when declared, stays among them).  `n_total` always equals the
    sum of cluster sizes.

    `file_rows` holds each row's source file row when `load_csv` read the
    file cell by cell.  Generated data and all-numeric files, which hold no
    cell a later step can reject, leave it None.
    """

    ids: tuple
    sizes: np.ndarray
    positions: np.ndarray
    response: np.ndarray
    columns: Mapping[str, np.ndarray]
    cluster_col: str = "ID"
    response_col: str = "Y"
    within_col: Optional[str] = None
    file_rows: Optional[np.ndarray] = field(default=None, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        sizes = _frozen(self.sizes, np.int64)
        positions = _frozen(self.positions, np.int64)
        response = _frozen(self.response, float)
        columns = {name: _as_column(v) for name, v in self.columns.items()}
        file_rows = None if self.file_rows is None else _frozen(self.file_rows, np.int64)
        if len(set(ids)) != len(ids):
            raise ValueError("cluster ids are not unique")
        if len(ids) != len(sizes):
            raise ValueError(f"{len(ids)} cluster ids but {len(sizes)} sizes")
        if np.any(sizes < 1):
            raise ValueError(f"cluster {ids[int(np.argmax(sizes < 1))]!r} has no rows")
        n = int(sizes.sum())
        rowwise = [("positions", positions), ("response", response), *columns.items()]
        if file_rows is not None:
            rowwise.append(("file_rows", file_rows))
        for name, values in rowwise:
            if len(values) != n:
                raise ValueError(f"{name} has {len(values)} rows, clusters have {n}")
        starts = np.cumsum(sizes) - sizes
        # a step between rows of one cluster must be positive
        step = np.diff(positions)
        step[starts[1:] - 1] = 1
        if np.any(step <= 0):
            k = int(np.argmax(step <= 0))
            i = int(np.searchsorted(starts, k, side="right")) - 1
            inside = step[starts[i]:starts[i] + sizes[i] - 1]
            if np.any(inside < 0):
                raise ValueError(f"cluster {ids[i]!r} rows not sorted by position")
            raise DuplicateWithinPosition(ids[i])
        starts.setflags(write=False)
        for name, value in (("ids", ids), ("sizes", sizes), ("positions", positions),
                            ("response", response), ("columns", columns),
                            ("file_rows", file_rows), ("starts", starts)):
            object.__setattr__(self, name, value)

    @property
    def variable_names(self) -> tuple:
        return tuple(self.columns)

    @property
    def n_total(self) -> int:
        return len(self.response)

    @property
    def n_clusters(self) -> int:
        return len(self.ids)

    @property
    def max_position(self) -> int:
        return int(self.positions.max())

    def cluster_sizes(self):
        return self.sizes.tolist()

    def response_vector(self) -> np.ndarray:
        return self.response.copy()

    def column(self, name):
        """Values of one covariate column in dataset order, None for missing."""
        if name == self.response_col:
            return self.response.tolist()
        if name not in self.columns:
            raise UnknownVariable(f"no variable named {name!r}")
        values = self.columns[name]
        if values.dtype == object:
            return values.tolist()
        missing = np.isnan(values)
        values = values.tolist()
        if missing.any():
            for i in np.flatnonzero(missing).tolist():
                values[i] = None
        return values

    def take(self, keep) -> "ClusteredDataset":
        """The rows where `keep` is true; clusters left empty disappear.

        Surviving rows keep their occasion indices.
        """
        counts = (np.add.reduceat(keep, self.starts, dtype=np.int64)
                  if self.n_clusters else self.sizes)
        alive = counts > 0
        return replace(
            self,
            ids=tuple(cid for cid, live in zip(self.ids, alive.tolist()) if live),
            sizes=counts[alive],
            positions=self.positions[keep],
            response=self.response[keep],
            columns={name: values[keep] for name, values in self.columns.items()},
            file_rows=None if self.file_rows is None else self.file_rows[keep],
        )


def _row(ds, i) -> int:
    """What a data error calls row `i` of `ds`: its file row when known."""
    return i if ds.file_rows is None else int(ds.file_rows[i])


def _parse_column(cells):
    """Parse one CSV column.

    Returns (values, first_bad, is_text): `values` as `_as_column` stores
    them (blank cells missing, numeric text as floats, other text kept);
    `first_bad` is the index of the first cell that parses to nan or +-inf,
    or None; `is_text` flags the cells kept as text (None when there are
    none).
    """
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        pass
    else:
        finite = np.isfinite(values)
        return values, (None if finite.all() else int(np.argmin(finite))), None
    parsed, is_text, first_bad = [], np.zeros(len(cells), dtype=bool), None
    for i, cell in enumerate(cells):
        if cell == "":
            parsed.append(None)
            continue
        try:
            value = float(cell)
        except ValueError:
            parsed.append(cell)
            is_text[i] = True
            continue
        if first_bad is None and not isfinite(value):
            first_bad = i
        parsed.append(value)
    return _as_column(parsed), first_bad, (is_text if is_text.any() else None)


def _cluster_key(text):
    """Cluster id of a cluster cell: numeric text is normalised ("01" and
    "1.0" are cluster "1"), other text kept.  A blank cell gives None, and
    a cell that parses to nan or inf gives that float, which marks it bad."""
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    return _format_cell(value) if isfinite(value) else value


# Rows read per batch.  Each batch's row lists die by reference count before
# the next is read, so the cyclic collector never has a file's worth of them
# to scan and promote.
READ_BATCH_ROWS = 256


def _numeric_table(handle, width):
    """The rest of `handle` as a float table when its rows have one length,
    at least `width`, and every cell is a finite number; else None."""
    # loadtxt skips blank lines, but warns when it finds no other line
    lines = dropwhile(lambda line: line in ("\n", "\r\n", "\r"), handle)
    first = next(lines, None)
    if first is None:
        return None
    try:
        # comments=None: the default "#" would cut a cell short
        table = np.loadtxt(chain([first], lines), dtype=float, delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] < width or not np.isfinite(table).all():
        return None
    return table


def _read_columns(path, required):
    """Header, file row numbers and columns of a CSV file.

    A file whose every data cell is a finite number written without quotes
    is parsed in one np.loadtxt pass into float columns, with row numbers
    None: no cell of it can be bad.  loadtxt rounds decimal text as float()
    does, so the values are those of the cell by cell read below.

    Any other file is read cell by cell, into columns of cell text: blank
    lines are skipped; short rows are padded with blank cells, and cells
    past the header's width are ignored.  A header that names one column
    twice raises DuplicateColumn; a file that cannot be opened raises its
    OSError.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        for col in required:
            if col not in header:
                raise MissingColumn(f"{path}: column {col!r} not in header")
        repeated = [name for name, count in Counter(header).items() if count > 1]
        if repeated:
            raise DuplicateColumn(repeated[0])
        width = len(header)
        table = _numeric_table(handle, width)
        if table is not None:
            return header, None, list(table.T[:width])
        handle.seek(0)
        next(reader)
        row_nums, columns = [], [[] for _ in header]
        first = 2
        while chunk := list(islice(reader, READ_BATCH_ROWS)):
            nonblank = list(map(any, chunk))
            row_nums += compress(range(first, first + len(chunk)), nonblank)
            first += len(chunk)
            if not all(nonblank):
                chunk = list(compress(chunk, nonblank))
            if chunk and min(map(len, chunk)) < width:
                chunk = [cells + [""] * (width - len(cells)) for cells in chunk]
            for column, cells in zip(columns, zip(*chunk)):
                column += cells
    return header, row_nums, columns


def _occasions(code, ids, within):
    """Row order and occasion positions of loaded rows.

    `code` holds each row's cluster index (rows in file order) and `within`
    its within value, NaN where missing, or None without a within column.
    Rows are ordered by cluster, then by within rank with missing-within
    rows last in file order, which number on from the last global rank.
    """
    sizes = np.bincount(code, minlength=len(ids))
    occasion = np.arange(len(code)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    if within is None:
        return np.argsort(code, kind="stable"), occasion + 1
    missing = np.isnan(within)
    observed = np.unique(within[~missing])
    rank = np.where(missing, 0, np.searchsorted(observed, within) + 1)
    order = np.lexsort((np.arange(len(code)), rank, missing, code))
    rank, missing, code_s = rank[order], missing[order], code[order]
    dup = (code_s[1:] == code_s[:-1]) & (rank[1:] == rank[:-1]) & ~missing[1:]
    if dup.any():
        c = int(code_s[int(np.argmax(dup))])
        seen = set()
        for w in within[code == c].tolist():
            if w in seen:
                raise DuplicateWithinPosition(ids[c], w)
            if w == w:
                seen.add(w)
    n_observed = np.bincount(code_s[~missing], minlength=len(ids))
    tail = len(observed) + occasion - np.repeat(n_observed, sizes) + 1
    return order, np.where(missing, tail, rank)


def _parse_cells(header, row_nums, raw, cluster_col, response_col, within_col):
    """Parse and check columns of cell text as `load_csv` says.

    Returns ({name: values} for every column but the cluster column, the
    indices of the kept rows, the cluster ids in order of first appearance
    of their normalised id, and each kept row's index into them).
    """
    idx = {name: i for i, name in enumerate(header)}
    # candidate errors as (row index, stage, header order, column, cell)
    errors = []
    parsed = {}
    cells = raw[idx[cluster_col]]
    keys = {text: _cluster_key(text) for text in dict.fromkeys(cells)}
    for order, (name, i) in enumerate(idx.items()):
        if name == cluster_col:
            bad = min((cells.index(text) for text, key in keys.items()
                       if isinstance(key, float)), default=None)
        else:
            parsed[name] = _parse_column(raw[i])
            bad = parsed[name][1]
        if bad is not None:
            errors.append((bad, 0, order, name, raw[i][bad]))
    # a blank response drops its row: no later check applies to it
    response, _, response_text = parsed[response_col]
    keep = ~_missing(response)
    if response_text is not None:
        k = int(np.argmax(response_text))
        errors.append((k, 1, 0, response_col, raw[idx[response_col]][k]))
    if within_col is not None:
        within_text = parsed[within_col][2]
        if within_text is not None and np.any(within_text & keep):
            k = int(np.argmax(within_text & keep))
            errors.append((k, 2, 0, within_col, raw[idx[within_col]][k]))
    kept = np.flatnonzero(keep)
    kept_cells = cells if len(kept) == len(cells) else [cells[k] for k in kept.tolist()]
    if "" in kept_cells:
        errors.append((int(kept[kept_cells.index("")]), 3, 0, cluster_col, ""))
    if errors:
        k, _, _, name, cell = min(errors)
        raise UnparseableValue(row_nums[k], name, cell)

    dropped = len(cells) - len(kept)
    if dropped:
        log.info("dropped %d rows with missing response", dropped)
    values = {name: column for name, (column, _, _) in parsed.items()}
    first, code_of = {}, {}
    for cell in dict.fromkeys(kept_cells):
        code_of[cell] = first.setdefault(keys[cell], len(first))
    code = np.fromiter(map(code_of.__getitem__, kept_cells), np.int64, len(kept))
    return values, kept, tuple(first), code


def _numeric_clusters(cells):
    """Cluster ids and each row's index into them for a cluster column of
    finite floats, clusters in order of first appearance.

    One np.unique call groups the rows.  It merges -0.0 with 0.0 as a dict
    keyed by the values does, and distinct finite floats have distinct
    `_format_cell` text, so its levels are the clusters the cell by cell
    path forms from the same cells, and `_number_text` gives their ids.
    """
    levels, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return tuple(_number_text(levels[order]).tolist()), rank[inverse]


def load_csv(path, cluster_col, response_col, within_col=None) -> ClusteredDataset:
    """Read a clustered dataset from a CSV file.

    Rows are grouped by `cluster_col` (clusters keep first-appearance order)
    and sorted within a cluster by `within_col` when given, file order
    otherwise; rows with a missing within value keep file order after the
    observed ones.  Occasion indices are the global ranks of the distinct
    within values (arrival order 1..n_i when no within column is declared).
    Rows with a missing response are dropped with a logged count; a blank
    cluster id on any other row is an error.

    Each bad cell raises UnparseableValue(row, column), file rows counted
    from 1 at the header: the first row holding one wins, and inside a row
    a cell that parses to nan or inf (leftmost in header order) comes first,
    then a text response, a text within value, and a blank cluster id.

    A cluster id is `_format_cell`'s text of a numeric cell's value ("01" and
    "1.0" are cluster "1") and the text of any other cell.  A file of finite
    numbers gets its ids from `_numeric_clusters`, with no Python call per
    cluster; a file read cell by cell keeps the ids and the source file row
    of each row (`file_rows`), which later data errors name.
    """
    roles = [cluster_col, response_col] + ([within_col] if within_col else [])
    if len(set(roles)) < len(roles):
        raise ValueError(f"cluster, response and within columns must differ: {roles}")
    header, row_nums, raw = _read_columns(path, roles)
    if row_nums is None:
        # a table of finite numbers: no cell is bad and every row is kept
        values = dict(zip(header, raw))
        kept = np.arange(len(values[cluster_col]))
        ids, code = _numeric_clusters(values[cluster_col])
    else:
        values, kept, ids, code = _parse_cells(
            header, row_nums, raw, cluster_col, response_col, within_col)
    # text left in the within column sits on dropped rows only
    within = _as_column(values[within_col][kept]) if within_col is not None else None
    order, positions = _occasions(code, ids, within)
    rows = kept[order]
    return ClusteredDataset(
        ids=ids,
        sizes=np.bincount(code, minlength=len(ids)),
        positions=positions,
        response=values[response_col][rows],
        columns={name: values[name][rows]
                 for name in header if name not in (cluster_col, response_col)},
        cluster_col=cluster_col,
        response_col=response_col,
        within_col=within_col,
        file_rows=None if row_nums is None else np.asarray(row_nums)[rows],
    )


def _csv_field(text) -> str:
    """`text` as csv.writer writes it: in double quotes, with its own quotes
    doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# A float column of whole numbers below 1e15 whose largest and smallest
# values differ by less than this is coded by subtraction instead of a sort.
CODED_SPAN = 4096


def _format_column(values) -> list:
    """The CSV field of every cell of a column, as `_format_cell` writes it.

    A number's text needs no quotes.  A float column is coded as indices
    into a table of its levels, and each level is formatted once by
    `_number_text`: levels lo..hi when the column holds whole numbers whose
    span is below CODED_SPAN (the code of v is v - lo), otherwise the
    levels np.unique sorts out.  The codes only pick the text, so both give
    each cell the text of its own value.
    """
    if values.dtype == object:
        return [_csv_field(_format_cell(v)) for v in values.tolist()]
    if len(values):
        lo, hi = values.min(), values.max()
        # a NaN makes lo and hi NaN, and fails the first test
        if (-1e15 < lo and hi < 1e15 and hi - lo < CODED_SPAN
                and np.array_equal(values, np.trunc(values))):
            codes = (values - lo).astype(np.intp)
            return _number_text(lo + np.arange(hi - lo + 1))[codes].tolist()
    levels, codes = np.unique(values, return_inverse=True)
    return _number_text(levels)[codes].tolist()


def write_csv(ds: ClusteredDataset, path) -> None:
    """Write a dataset back to CSV (header: cluster, covariates, response),
    quoted as csv.writer quotes it.

    The ids are scanned once, joined, for the characters that need quotes
    (comma, double quote, line breaks); only when one is present is each
    id quoted on its own.  The cells are `_format_column`'s text."""
    header = [ds.cluster_col, *ds.variable_names, ds.response_col]
    ids = list(map(str, ds.ids))
    joined = "".join(ids)
    if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
        ids = list(map(_csv_field, ids))
    columns = [np.repeat(np.array(ids, dtype=object), ds.sizes).tolist()]
    columns += [_format_column(values) for values in ds.columns.values()]
    columns.append(_format_column(ds.response))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(header)
        if ds.n_total:
            handle.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def derive_threshold(ds, source, threshold, new_name, strict_above=True):
    """Append a binary column cut from a numeric one.

    strict_above=True codes 1 when value > threshold (0 at or below);
    strict_above=False codes 1 when value >= threshold.
    """
    if source not in ds.columns:
        raise UnknownVariable(f"no variable named {source!r}")
    if new_name in ds.columns or new_name in (ds.cluster_col, ds.response_col):
        raise ValueError(f"column {new_name!r} already exists")
    values = ds.columns[source]
    if values.dtype == object:
        i = _first_text(values)
        raise UnparseableValue(_row(ds, i), source, values[i])
    above = values > threshold if strict_above else values >= threshold
    coded = np.where(np.isnan(values), np.nan, above.astype(float))
    return replace(ds, columns={**ds.columns, new_name: coded})


def recode_response(ds, response, reference="first"):
    """Recode a binary response to 0/1 with the modeled event = non-reference.

    reference="first" keeps the LOWEST observed value as baseline, so the
    modeled event is the high value; reference="last" flips that.
    """
    if response != ds.response_col:
        raise UnknownVariable(
            f"response column is {ds.response_col!r}, not {response!r}"
        )
    if reference not in ("first", "last"):
        raise ValueError("reference must be 'first' or 'last'")
    values = np.unique(ds.response)
    if len(values) != 2:
        raise NonBinaryResponse(
            f"response takes {len(values)} distinct values, need exactly 2"
        )
    event = values[1] if reference == "first" else values[0]
    return replace(ds, response=(ds.response == event).astype(float))


def complete_cases(ds, variables):
    """Drop rows missing any of `variables`; returns (dataset, n_dropped).

    Clusters that lose every row disappear.  Occasion indices of surviving
    rows are preserved so correlation templates stay aligned.
    """
    for name in variables:
        if name not in ds.columns:
            raise UnknownVariable(f"no variable named {name!r}")
    missing = np.zeros(ds.n_total, dtype=bool)
    for name in variables:
        missing |= _missing(ds.columns[name])
    dropped = int(missing.sum())
    if not dropped:
        return ds, 0
    log.info("dropped %d rows with missing values in %s", dropped, list(variables))
    return ds.take(~missing), dropped


@dataclass(frozen=True)
class TermCoding:
    """How one model term enters the design.

    Factors produce an indicator column per non-reference level; the LAST
    level in the chosen category order is the reference, so descending order
    makes the lowest value the reference.
    """

    name: str
    kind: str = "factor"
    category_order: str = "ascending"

    def __post_init__(self):
        if self.kind not in ("factor", "covariate"):
            raise ValueError("kind must be 'factor' or 'covariate'")
        if self.category_order not in ("ascending", "descending"):
            raise ValueError("category_order must be 'ascending' or 'descending'")


@dataclass(frozen=True)
class DesignMatrix:
    """Coded design: values, column labels (intercept first), factor map."""

    values: np.ndarray
    column_labels: tuple
    coding_map: Mapping = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def _ordered_levels(values, order):
    """Distinct values of a column in category order: numeric columns sort
    by value, text columns by their string form."""
    if values.dtype == object:
        levels = sorted(set(values.tolist()), key=str)
    else:
        levels = np.unique(values).tolist()
    if order == "descending":
        levels = levels[::-1]
    return levels


def build_design(ds, terms) -> DesignMatrix:
    """Code a design matrix from flat main-effect terms.

    The intercept column is always first.  Factor columns are labeled
    "NAME=level"; the reference level (last in category order) gets no
    column.  Missing values in any used term are rejected: filter with
    complete_cases first.
    """
    n = ds.n_total
    columns = [np.ones(n)]
    labels = ["(Intercept)"]
    coding_map = {}
    for term in terms:
        if term.name not in ds.columns:
            raise UnknownVariable(f"no variable named {term.name!r}")
        values = ds.columns[term.name]
        missing = _missing(values)
        if missing.any():
            raise UnparseableValue(_row(ds, int(np.argmax(missing))), term.name, None)
        if term.kind == "covariate":
            if values.dtype == object:
                i = _first_text(values)
                raise UnparseableValue(_row(ds, i), term.name, values[i])
            if n and np.all(values == values[0]):
                raise ConstantFactor(
                    f"covariate {term.name!r} takes the single value "
                    f"{_format_cell(float(values[0]))}"
                )
            columns.append(values)
            labels.append(term.name)
            continue
        levels = _ordered_levels(values, term.category_order)
        if len(levels) < 2:
            raise ConstantFactor(
                f"factor {term.name!r} has a single observed level {levels!r}"
            )
        for level in levels[:-1]:
            coding_map[(term.name, level)] = len(columns)
            columns.append((values == level).astype(float))
            labels.append(f"{term.name}={_format_cell(level)}")
    values = np.column_stack(columns)
    values.setflags(write=False)
    return DesignMatrix(values, tuple(labels), coding_map)
