"""Clustered dataset ingestion, variable typing, and design-matrix coding.

CSV files are read with a required header row, comma separator, UTF-8, and
"." decimal point; an empty field is a missing value.  Rows are grouped by a
cluster column and ordered inside each cluster by an optional within-subject
column (file order otherwise).  Factors are coded as one indicator column per
non-reference level with explicit reference-category control, mirroring the
ascending/descending category-order semantics of SPSS's estimating-equation
dialogs.  Datasets and design matrices are immutable once built and safe to
share across concurrent fits.
"""

import csv
import logging
from dataclasses import dataclass, field
from math import isfinite
from typing import Mapping, Optional

import numpy as np

from .errors import (
    ConstantFactor,
    DuplicateWithinPosition,
    MissingColumn,
    NonBinaryResponse,
    UnknownVariable,
    UnparseableValue,
)

log = logging.getLogger("geeclust.data")


def _parse_cell(text, row, col):
    """'' -> None, finite numeric text -> float, other text kept as string.

    Text that parses to nan or +-inf ("nan", "inf", "-Infinity") raises
    UnparseableValue(row, col): no response, covariate or within value can
    use it as a number.
    """
    if text is None or text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    if isfinite(value):
        return value
    raise UnparseableValue(row, col, text)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Row:
    """One observation: occasion index, response, and raw covariates."""

    position: int
    response: float
    covariates: Mapping[str, object]


@dataclass(frozen=True)
class Cluster:
    """All observations of one subject, sorted ascending by position."""

    id: str
    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise ValueError(f"cluster {self.id!r} has no rows")
        positions = [r.position for r in self.rows]
        if positions != sorted(positions):
            raise ValueError(f"cluster {self.id!r} rows not sorted by position")
        if len(set(positions)) != len(positions):
            raise DuplicateWithinPosition(self.id)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def positions(self):
        return tuple(r.position for r in self.rows)

    @property
    def responses(self):
        return tuple(r.response for r in self.rows)


@dataclass(frozen=True)
class ClusteredDataset:
    """Rows grouped by cluster with within-cluster occasion indices.

    `variable_names` lists every covariate column (the within-subject column,
    when declared, stays among them).  `n_total` always equals the sum of
    cluster sizes.
    """

    clusters: tuple
    variable_names: tuple
    cluster_col: str = "ID"
    response_col: str = "Y"
    within_col: Optional[str] = None

    def __post_init__(self):
        ids = [c.id for c in self.clusters]
        if len(set(ids)) != len(ids):
            raise ValueError("cluster ids are not unique")

    @property
    def n_total(self) -> int:
        return sum(c.size for c in self.clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def max_position(self) -> int:
        return max(r.position for c in self.clusters for r in c.rows)

    def cluster_sizes(self):
        return [c.size for c in self.clusters]

    def iter_rows(self):
        for c in self.clusters:
            for r in c.rows:
                yield c, r

    def response_vector(self) -> np.ndarray:
        return np.array([r.response for _, r in self.iter_rows()], dtype=float)

    def column(self, name):
        """Values of one covariate column in dataset order."""
        if name == self.response_col:
            return [r.response for _, r in self.iter_rows()]
        if name not in self.variable_names:
            raise UnknownVariable(f"no variable named {name!r}")
        return [r.covariates.get(name) for _, r in self.iter_rows()]


def load_csv(path, cluster_col, response_col, within_col=None) -> ClusteredDataset:
    """Read a clustered dataset from a CSV file.

    Rows are grouped by `cluster_col` (clusters keep first-appearance order)
    and sorted within a cluster by `within_col` when given, file order
    otherwise; rows with a missing within value keep file order after the
    observed ones.  Occasion indices are the global ranks of the distinct
    within values (arrival order 1..n_i when no within column is declared).
    Rows with a missing response are dropped with a logged count.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise MissingColumn(f"cannot open {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        for col in [cluster_col, response_col] + ([within_col] if within_col else []):
            if col not in header:
                raise MissingColumn(f"{path}: column {col!r} not in header")
        idx = {name: i for i, name in enumerate(header)}
        variable_names = tuple(
            name for name in header if name not in (cluster_col, response_col)
        )

        groups: dict = {}
        order = []
        dropped = 0
        for row_num, cells in enumerate(reader, start=2):
            if not any(cells):
                continue
            rec = {name: _parse_cell(cells[i], row_num, name) if i < len(cells) else None
                   for name, i in idx.items()}
            raw_response = cells[idx[response_col]] if idx[response_col] < len(cells) else ""
            if raw_response == "":
                dropped += 1
                continue
            response = rec[response_col]
            if not isinstance(response, float):
                raise UnparseableValue(row_num, response_col, raw_response)
            within = None
            if within_col is not None:
                within = rec[within_col]
                if within is not None and not isinstance(within, float):
                    raise UnparseableValue(row_num, within_col, within)
            cid = _format_cell(rec[cluster_col]) if rec[cluster_col] is not None else ""
            covariates = {name: rec[name] for name in variable_names}
            if cid not in groups:
                groups[cid] = []
                order.append(cid)
            groups[cid].append((within, row_num, response, covariates))

    if dropped:
        log.info("dropped %d rows with missing response", dropped)

    observed = sorted(
        {w for rows in groups.values() for (w, _, _, _) in rows if w is not None}
    )
    rank = {w: i + 1 for i, w in enumerate(observed)}

    clusters = []
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
            rows = []
            for w, _, response, covariates in entries:
                if w is not None:
                    pos = rank[w]
                else:
                    tail += 1
                    pos = tail
                rows.append(Row(pos, response, covariates))
        else:
            rows = [
                Row(i + 1, response, covariates)
                for i, (_, _, response, covariates) in enumerate(entries)
            ]
        clusters.append(Cluster(cid, tuple(rows)))

    return ClusteredDataset(
        clusters=tuple(clusters),
        variable_names=variable_names,
        cluster_col=cluster_col,
        response_col=response_col,
        within_col=within_col,
    )


def write_csv(ds: ClusteredDataset, path) -> None:
    """Write a dataset back to CSV (header: cluster, covariates, response)."""
    header = [ds.cluster_col, *ds.variable_names, ds.response_col]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for c, r in ds.iter_rows():
            cells = [c.id]
            cells += [_format_cell(r.covariates.get(name)) for name in ds.variable_names]
            cells.append(_format_cell(r.response))
            writer.writerow(cells)


def derive_threshold(ds, source, threshold, new_name, strict_above=True):
    """Append a binary column cut from a numeric one.

    strict_above=True codes 1 when value > threshold (0 at or below);
    strict_above=False codes 1 when value >= threshold.
    """
    if source not in ds.variable_names:
        raise UnknownVariable(f"no variable named {source!r}")
    if new_name in ds.variable_names or new_name in (ds.cluster_col, ds.response_col):
        raise ValueError(f"column {new_name!r} already exists")
    clusters = []
    for c in ds.clusters:
        rows = []
        for i, r in enumerate(c.rows):
            value = r.covariates.get(source)
            if value is None:
                coded = None
            else:
                if not isinstance(value, float):
                    raise UnparseableValue(i, source, value)
                above = value > threshold if strict_above else value >= threshold
                coded = 1.0 if above else 0.0
            covariates = dict(r.covariates)
            covariates[new_name] = coded
            rows.append(Row(r.position, r.response, covariates))
        clusters.append(Cluster(c.id, tuple(rows)))
    return ClusteredDataset(
        tuple(clusters),
        ds.variable_names + (new_name,),
        ds.cluster_col,
        ds.response_col,
        ds.within_col,
    )


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
    values = sorted({r.response for _, r in ds.iter_rows()})
    if len(values) != 2:
        raise NonBinaryResponse(
            f"response takes {len(values)} distinct values, need exactly 2"
        )
    event = values[1] if reference == "first" else values[0]
    clusters = tuple(
        Cluster(
            c.id,
            tuple(
                Row(r.position, 1.0 if r.response == event else 0.0, r.covariates)
                for r in c.rows
            ),
        )
        for c in ds.clusters
    )
    return ClusteredDataset(
        clusters, ds.variable_names, ds.cluster_col, ds.response_col, ds.within_col
    )


def complete_cases(ds, variables):
    """Drop rows missing any of `variables`; returns (dataset, n_dropped).

    Clusters that lose every row disappear.  Occasion indices of surviving
    rows are preserved so correlation templates stay aligned.
    """
    for name in variables:
        if name not in ds.variable_names:
            raise UnknownVariable(f"no variable named {name!r}")
    clusters = []
    dropped = 0
    for c in ds.clusters:
        rows = []
        for r in c.rows:
            if any(r.covariates.get(name) is None for name in variables):
                dropped += 1
            else:
                rows.append(r)
        if rows:
            clusters.append(Cluster(c.id, tuple(rows)))
    if dropped:
        log.info("dropped %d rows with missing values in %s", dropped, list(variables))
    return (
        ClusteredDataset(
            tuple(clusters),
            ds.variable_names,
            ds.cluster_col,
            ds.response_col,
            ds.within_col,
        ),
        dropped,
    )


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
    numeric = all(isinstance(v, float) for v in values)
    levels = sorted(values) if numeric else sorted(values, key=str)
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
    row_index = {name: i for i, name in enumerate(ds.variable_names)}
    for term in terms:
        if term.name not in row_index:
            raise UnknownVariable(f"no variable named {term.name!r}")
        values = ds.column(term.name)
        for i, v in enumerate(values):
            if v is None:
                raise UnparseableValue(i, term.name, None)
        if term.kind == "covariate":
            for i, v in enumerate(values):
                if not isinstance(v, float):
                    raise UnparseableValue(i, term.name, v)
            columns.append(np.asarray(values, dtype=float))
            labels.append(term.name)
            continue
        levels = _ordered_levels(set(values), term.category_order)
        if len(levels) < 2:
            raise ConstantFactor(
                f"factor {term.name!r} has a single observed level {levels!r}"
            )
        for level in levels[:-1]:
            indicator = np.array([1.0 if v == level else 0.0 for v in values])
            coding_map[(term.name, level)] = len(columns)
            columns.append(indicator)
            labels.append(f"{term.name}={_format_cell(level)}")
    values = np.column_stack(columns)
    values.setflags(write=False)
    return DesignMatrix(values, tuple(labels), coding_map)
