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
  floats, strings and None (missing) only when the column holds text.

NaN can stand for "missing" because `load_csv` rejects cells that parse to
nan or inf.  Every array is read-only.
"""

import csv
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import compress, islice
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
    """

    ids: tuple
    sizes: np.ndarray
    positions: np.ndarray
    response: np.ndarray
    columns: Mapping[str, np.ndarray]
    cluster_col: str = "ID"
    response_col: str = "Y"
    within_col: Optional[str] = None
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        sizes = _frozen(self.sizes, np.int64)
        positions = _frozen(self.positions, np.int64)
        response = _frozen(self.response, float)
        columns = {name: _as_column(v) for name, v in self.columns.items()}
        if len(set(ids)) != len(ids):
            raise ValueError("cluster ids are not unique")
        if len(ids) != len(sizes):
            raise ValueError(f"{len(ids)} cluster ids but {len(sizes)} sizes")
        if np.any(sizes < 1):
            raise ValueError(f"cluster {ids[int(np.argmax(sizes < 1))]!r} has no rows")
        n = int(sizes.sum())
        for name, values in (("positions", positions), ("response", response),
                             *columns.items()):
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
                            ("starts", starts)):
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
        )


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


def _read_columns(path, required):
    """Header, file row numbers and cell columns of a CSV file.

    Blank lines are skipped; short rows are padded with blank cells, and
    cells past the header's width are ignored.  A header that names one
    column twice raises DuplicateColumn; a file that cannot be opened raises
    its OSError.
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
    """
    roles = [cluster_col, response_col] + ([within_col] if within_col else [])
    if len(set(roles)) < len(roles):
        raise ValueError(f"cluster, response and within columns must differ: {roles}")
    header, row_nums, raw = _read_columns(path, roles)
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

    # clusters in order of first appearance of their normalised id
    first, code_of = {}, {}
    for text in dict.fromkeys(kept_cells):
        code_of[text] = first.setdefault(keys[text], len(first))
    code = np.fromiter(map(code_of.__getitem__, kept_cells), np.int64, len(kept))
    ids = tuple(first)
    # text left in the within column sits on dropped rows only
    within = _as_column(parsed[within_col][0][kept]) if within_col is not None else None
    order, positions = _occasions(code, ids, within)
    rows = kept[order]
    return ClusteredDataset(
        ids=ids,
        sizes=np.bincount(code, minlength=len(ids)),
        positions=positions,
        response=response[rows],
        columns={name: parsed[name][0][rows]
                 for name in idx if name not in (cluster_col, response_col)},
        cluster_col=cluster_col,
        response_col=response_col,
        within_col=within_col,
    )


def _format_column(values) -> list:
    """The CSV text of every cell of a column, each distinct value formatted once."""
    if values.dtype == object:
        return [_format_cell(v) for v in values.tolist()]
    levels, codes = np.unique(values, return_inverse=True)
    text = np.array([_format_cell(v) for v in levels.tolist()], dtype=object)
    return text[codes].tolist()


def write_csv(ds: ClusteredDataset, path) -> None:
    """Write a dataset back to CSV (header: cluster, covariates, response)."""
    header = [ds.cluster_col, *ds.variable_names, ds.response_col]
    ids = np.empty(ds.n_clusters, dtype=object)
    ids[:] = ds.ids
    columns = [np.repeat(ids, ds.sizes).tolist()]
    columns += [_format_column(values) for values in ds.columns.values()]
    columns.append(_format_column(ds.response))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))


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
        raise UnparseableValue(i, source, values[i])
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
            raise UnparseableValue(int(np.argmax(missing)), term.name, None)
        if term.kind == "covariate":
            if values.dtype == object:
                i = _first_text(values)
                raise UnparseableValue(i, term.name, values[i])
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
