"""Command-line driver: fit, select, crosstab, summarize, simulate.

Reports go to stdout (text or JSON); diagnostics go to stderr.  Exit codes:
0 success, 2 configuration error, 3 data error, 4 non-convergence (a partial
report is still printed).  Set GEE_LOG=debug|info|warning for verbosity.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .data import (
    TermCoding,
    build_design,
    complete_cases,
    load_csv,
    recode_response,
    write_csv,
)
from .errors import (
    AllCandidatesFailed,
    GeeError,
    InfeasibleCorrelation,
    InvalidAlpha,
    InvalidLevel,
    NoConvergence,
)
from .gee import (
    AR1,
    STRUCTURE_CLASSES,
    Exchangeable,
    Fixed,
    Independent,
    MDependent,
    Unstructured,
    fit_gee,
    robust_se,
)
from .glm import Family
from .inference import (
    concordance_summary,
    crosstab_2x2,
    odds,
    odds_ratio,
    qic,
    qic_u,
    reference_panels,
    wald_row,
)
from .select import default_structures, run_selection
from .simulate import build_paper_marginals, generate_paper

log = logging.getLogger("geeclust")

CONFIG_ERROR, DATA_ERROR, NONCONVERGENCE = 2, 3, 4

CONFIG_EXCEPTIONS = (InvalidAlpha, InvalidLevel, InfeasibleCorrelation, ValueError)


class ConfigError(Exception):
    pass


def _f3(x) -> str:
    return f"{x:.3f}"


def _fp(p) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def _parse_factor_flag(text):
    """NAME or NAME:asc / NAME:desc."""
    name, _, order = text.partition(":")
    if not name:
        raise ConfigError(f"empty factor name in {text!r}")
    order = {"": "ascending", "asc": "ascending", "desc": "descending"}.get(order)
    if order is None:
        raise ConfigError(f"factor order in {text!r} must be 'asc' or 'desc'")
    return TermCoding(name, "factor", order)


def _split_list(values):
    out = []
    for chunk in values or ():
        out.extend(part for part in chunk.split(",") if part)
    return out


def _terms_from_args(args):
    terms = [_parse_factor_flag(text) for text in _split_list(args.factors)]
    terms += [TermCoding(name, "covariate") for name in _split_list(args.covariates)]
    if not terms:
        raise ConfigError("no model terms: pass --factors and/or --covariates")
    return terms


# the kinds `select --structures` takes: every kind but fixed, which needs a
# --corr-file that select does not have
SELECT_KINDS = tuple(c.kind for c in STRUCTURE_CLASSES if c is not Fixed)


def _structure_kinds(text):
    """The kinds named in a --structures value, each one of SELECT_KINDS."""
    names = [name for name in map(str.strip, text.split(",")) if name]
    if not names:
        raise argparse.ArgumentTypeError("no structure kind given")
    for name in names:
        if name not in SELECT_KINDS:
            raise argparse.ArgumentTypeError(f"unknown working correlation {name!r}")
    return names


def _structure_from_name(name, args, ds):
    """The structure of a kind that the parser has already checked; a name
    that is none of the others is fixed."""
    if name == "independent":
        return Independent()
    if name == "exchangeable":
        return Exchangeable()
    if name == "ar1":
        return AR1()
    if name == "mdependent":
        return MDependent(args.m_order)
    if name == "unstructured":
        return Unstructured(ds.max_position)
    if not args.corr_file:
        raise ConfigError("--corr fixed requires --corr-file")
    try:
        matrix = np.loadtxt(args.corr_file, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"--corr-file {args.corr_file}: {exc}") from None
    return Fixed(matrix)


def _load_model_data(args):
    ds = load_csv(args.data, args.cluster, args.response, args.within)
    ds = recode_response(ds, args.response, args.ref_category)
    return ds


def _alpha_payload(fit):
    a = fit.alpha_estimates
    return None if a is None else np.asarray(a, dtype=float).tolist()


# ----------------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    ds = _load_model_data(args)
    terms = _terms_from_args(args)
    ds, dropped = complete_cases(ds, [t.name for t in terms])
    if dropped:
        log.warning("dropped %d incomplete rows", dropped)
    x = build_design(ds, terms)
    structure = _structure_from_name(args.corr, args, ds)
    family = Family("binomial", "logit")
    partial = False
    try:
        fit = fit_gee(x, ds, family, structure)
    except NoConvergence as exc:
        log.warning("%s", exc)
        fit = exc.fit
        partial = True
    ses = robust_se(fit)
    rows = [
        wald_row(label, float(b), float(se))
        for label, b, se in zip(x.column_labels, fit.beta, ses)
    ]
    payload = {
        "command": "fit",
        "model": {
            "data": args.data,
            "response": args.response,
            "reference_category": args.ref_category,
            "family": family.distribution,
            "link": family.link,
            "correlation": structure.kind,
            "terms": [
                {"name": t.name, "kind": t.kind, "category_order": t.category_order}
                for t in terms
            ],
            "n_clusters": ds.n_clusters,
            "n_rows": ds.n_total,
        },
        "rows": [
            {
                "label": r.label,
                "b": r.b,
                "se": r.se,
                "ci_low": r.ci_low,
                "ci_high": r.ci_high,
                "wald_chisq": r.wald_chisq,
                "df": r.df,
                "p_value": r.p_value,
                "exp_b": r.exp_b,
                "exp_ci_low": r.exp_ci_low,
                "exp_ci_high": r.exp_ci_high,
            }
            for r in rows
        ],
        "phi": float(fit.phi),
        "alpha": _alpha_payload(fit),
        "qic": qic(fit, x, ds, family),
        "qicu": qic_u(fit, x.p),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
    }
    _emit(payload, args.output_format, render_fit_text, table="rows")
    return NONCONVERGENCE if partial else 0


FIT_HEADER = (
    ("Parameter", 18), ("B", 8), ("SE", 8), ("CI low", 9), ("CI high", 9),
    ("Wald chi2", 10), ("df", 4), ("p", 7), ("Exp(B)", 8),
    ("Exp low", 9), ("Exp high", 9),
)


def render_fit_text(payload) -> str:
    model = payload["model"]
    lines = [
        "Generalized estimating equations fit",
        f"Data: {model['data']} | response: {model['response']} "
        f"(reference category: {model['reference_category']}) | "
        f"clusters: {model['n_clusters']} | rows: {model['n_rows']}",
        f"Family: {model['family']}({model['link']}) | "
        f"working correlation: {model['correlation']}",
        "",
        FIT_HEADER[0][0].ljust(FIT_HEADER[0][1])
        + "".join(name.rjust(width) for name, width in FIT_HEADER[1:]),
    ]
    for r in payload["rows"]:
        cells = (
            r["label"][: FIT_HEADER[0][1] - 1],
            _f3(r["b"]), _f3(r["se"]), _f3(r["ci_low"]), _f3(r["ci_high"]),
            _f3(r["wald_chisq"]), str(r["df"]), _fp(r["p_value"]),
            _f3(r["exp_b"]), _f3(r["exp_ci_low"]), _f3(r["exp_ci_high"]),
        )
        lines.append(
            cells[0].ljust(FIT_HEADER[0][1])
            + "".join(c.rjust(w) for c, (_, w) in zip(cells[1:], FIT_HEADER[1:]))
        )
    lines.append("")
    lines.append(f"Scale (phi): {_f3(payload['phi'])}")
    lines.append(f"Alpha: {_render_alpha(payload['alpha'])}")
    lines.append(f"QIC: {_f3(payload['qic'])} | QICu: {_f3(payload['qicu'])}")
    lines.append(
        f"Converged: {'yes' if payload['converged'] else 'NO'} "
        f"({payload['iterations']} iterations)"
    )
    return "\n".join(lines)


def _render_alpha(a) -> str:
    if a is None:
        return "(none)"
    if isinstance(a, list) and a and isinstance(a[0], list):
        return "; ".join(
            " ".join(_f3(v) for v in row) for row in a
        )
    if isinstance(a, list):
        return " ".join(_f3(v) for v in a)
    return _f3(a)


# -------------------------------------------------------------------- select

def cmd_select(args) -> int:
    ds = _load_model_data(args)
    terms = _terms_from_args(args)
    if args.structures is None:
        structures = default_structures(ds, args.m_order)
    else:
        structures = [_structure_from_name(n, args, ds) for n in args.structures]
    family = Family("binomial", "logit")
    report = run_selection(
        ds, family, terms, structures, mode=args.mode, max_size=args.max_size
    )
    payload = {
        "command": "select",
        "mode": args.mode,
        "candidates": [
            {
                "structure": c.structure,
                "covariates": list(c.covariates),
                "p": c.p,
                "qic": None if not c.converged else c.qic,
                "qic_u": None if not c.converged else c.qic_u,
                "converged": c.converged,
                "failure": c.failure,
            }
            for c in report.candidates
        ],
        "best_structure": report.best_structure,
        "best_model": list(report.best_model),
        "trace": list(report.trace),
    }
    _emit(payload, args.output_format, render_select_text, table="candidates")
    return 0


def render_select_text(payload) -> str:
    lines = [
        f"Model selection ({payload['mode']}): "
        "lowest QIC picks the working correlation, lowest QICu picks the model",
        "",
        f"{'Correlation':<14}{'Variables':<40}{'p':>3}{'QIC':>12}{'QICu':>12}",
    ]
    best_s = payload["best_structure"]
    best_m = payload["best_model"]
    for c in payload["candidates"]:
        if c["converged"]:
            criteria = f"{_f3(c['qic']):>12}{_f3(c['qic_u']):>12}"
        else:
            criteria = f"{'failed: ' + c['failure'].partition(':')[0]:>24}"
        mark = " *" if c["structure"] == best_s and c["covariates"] == best_m else ""
        lines.append(
            f"{c['structure']:<14}{', '.join(c['covariates']):<40}"
            f"{c['p']:>3}{criteria}{mark}"
        )
    lines.append("")
    lines.append(f"Best working correlation (QIC):  {best_s}")
    lines.append(f"Best model (QICu under {best_s}): {', '.join(best_m)}")
    lines.append("")
    lines.extend(payload["trace"])
    return "\n".join(lines)


# ------------------------------------------------------------------ crosstab

def cmd_crosstab(args) -> int:
    ds = load_csv(args.data, args.cluster, args.response)
    table = crosstab_2x2(ds, args.factor)
    panels = []
    for response_ref, order, t in reference_panels(table):
        try:
            ratio = odds_ratio(t)
        except GeeError:
            ratio = None
        panels.append(
            {
                "response_reference": response_ref,
                "category_order": order,
                "cells": {"a": t.a, "b": t.b, "c": t.c, "d": t.d},
                "odds_exposed": None if t.b == 0 else odds(t.a, t.b),
                "odds_unexposed": None if t.d == 0 else odds(t.c, t.d),
                "odds_ratio": ratio,
            }
        )
    payload = {
        "command": "crosstab",
        "response": args.response,
        "factor": args.factor,
        "panels": panels,
    }
    _emit(payload, args.output_format, render_crosstab_text)
    return 0


def render_crosstab_text(payload) -> str:
    lines = [f"2x2 panels: {payload['response']} by {payload['factor']} "
             "(all reference-category variants)"]
    for i, panel in enumerate(payload["panels"], start=1):
        cells = panel["cells"]
        ratio = panel["odds_ratio"]
        lines.append("")
        lines.append(
            f"({i}) response reference {panel['response_reference']}, "
            f"factor order {panel['category_order']}"
        )
        lines.append(f"    events     {cells['a']:>6} {cells['c']:>6}")
        lines.append(f"    non-events {cells['b']:>6} {cells['d']:>6}")
        for side, key in (("exposed", "odds_exposed"), ("unexposed", "odds_unexposed")):
            value = panel[key]
            lines.append(
                f"    odds ({side}): "
                + ("undefined" if value is None else f"{value:.4f}")
            )
        lines.append(
            "    OR: " + ("undefined" if ratio is None else _f3(ratio))
        )
    return "\n".join(lines)


# ----------------------------------------------------------------- summarize

def cmd_summarize(args) -> int:
    ds = load_csv(args.data, args.cluster, args.response, args.within)
    sizes = ds.cluster_sizes()
    histogram = {}
    for size in sizes:
        histogram[size] = histogram.get(size, 0) + 1
    summary = concordance_summary(ds, args.response)
    payload = {
        "command": "summarize",
        "n_clusters": ds.n_clusters,
        "n_rows": ds.n_total,
        "cluster_sizes": {str(k): v for k, v in sorted(histogram.items())},
        "concordance": {
            "all_success": summary.all_success,
            "all_failure": summary.all_failure,
            "skewed": summary.skewed,
            "equal": summary.equal,
            "singletons": summary.singletons,
        },
    }
    _emit(payload, args.output_format, render_summarize_text)
    return 0


def render_summarize_text(payload) -> str:
    n = payload["n_clusters"]
    lines = [
        f"Clusters: {n} | rows: {payload['n_rows']}",
        "",
        "Cluster size   count  percent",
    ]
    for size, count in payload["cluster_sizes"].items():
        lines.append(f"{size:>12}{count:>8}  {100.0 * count / n:6.1f}%")
    conc = payload["concordance"]
    multi = sum(v for k, v in conc.items() if k != "singletons")
    lines.append("")
    lines.append("Within-cluster response agreement (clusters of size >= 2)")
    for key in ("all_success", "all_failure", "skewed", "equal"):
        pct = 100.0 * conc[key] / multi if multi else 0.0
        lines.append(f"{key:>12}: {conc[key]:>5}  {pct:6.1f}%")
    lines.append(f"  singletons: {conc['singletons']:>5}  (excluded)")
    return "\n".join(lines)


# ------------------------------------------------------------------ simulate

def cmd_simulate(args) -> int:
    if args.n_clusters < 1:
        raise ConfigError(f"--clusters must be at least 1, got {args.n_clusters}")
    if args.paper_marginals:
        ds = build_paper_marginals(args.seed)
    else:
        ds = generate_paper(args.n_clusters, args.alpha, args.seed)
    write_csv(ds, args.out)
    print(f"seed: {args.seed}")
    print(f"clusters: {ds.n_clusters} | rows: {ds.n_total}")
    print(f"wrote: {args.out}")
    return 0


# -------------------------------------------------------------------- driver

def _emit(payload, output_format, renderer, table=None):
    """Print the payload as JSON, as the CSV of its `table` list (list cells
    joined by ";", None as an empty cell), or through `renderer`."""
    if output_format == "json":
        print(json.dumps(payload, indent=2))
    elif output_format == "csv":
        writer = csv.writer(sys.stdout)
        keys = list(payload[table][0])
        writer.writerow(keys)
        for row in payload[table]:
            writer.writerow([";".join(row[k]) if isinstance(row[k], list) else row[k]
                             for k in keys])
    else:
        print(renderer(payload))


def _add_model_flags(parser, selection=False):
    parser.add_argument("--data", required=True, help="input CSV file")
    parser.add_argument("--response", required=True, help="response column")
    parser.add_argument("--cluster", required=True, help="cluster id column")
    parser.add_argument("--within", help="within-subject (occasion) column")
    parser.add_argument(
        "--factors", action="append", default=[],
        help="factor terms NAME[:asc|:desc], comma separated or repeated",
    )
    parser.add_argument(
        "--covariates", action="append", default=[],
        help="continuous terms, comma separated or repeated",
    )
    parser.add_argument(
        "--ref-category", choices=("first", "last"), default="first",
        help="response reference category (first = lowest value)",
    )
    parser.add_argument("--m-order", type=int, default=2,
                        help="lag depth for the m-dependent structure")
    if not selection:
        parser.add_argument(
            "--corr", choices=[c.kind for c in STRUCTURE_CLASSES],
            default="independent", help="working correlation structure",
        )
        parser.add_argument("--corr-file",
                            help="CSV matrix for --corr fixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geeclust",
        description="Marginal models for clustered outcomes via "
                    "generalized estimating equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model and print the table")
    _add_model_flags(fit)

    select = sub.add_parser("select", help="two-phase QIC/QICu search")
    _add_model_flags(select, selection=True)
    select.add_argument("--mode", choices=("exhaustive", "stepwise"),
                        default="exhaustive")
    select.add_argument("--max-size", type=int, help="largest subset to try")
    select.add_argument("--structures", type=_structure_kinds,
                        help="comma-separated structure kinds to cross")

    crosstab = sub.add_parser("crosstab", help="2x2 reference-category panels")
    crosstab.add_argument("--data", required=True)
    crosstab.add_argument("--response", required=True)
    crosstab.add_argument("--cluster", required=True)
    crosstab.add_argument("--factor", required=True, help="binary factor column")

    summarize = sub.add_parser("summarize",
                               help="cluster-size and concordance summary")
    summarize.add_argument("--data", required=True)
    summarize.add_argument("--response", required=True)
    summarize.add_argument("--cluster", required=True)
    summarize.add_argument("--within")

    simulate = sub.add_parser("simulate", help="write a simulated dataset")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--clusters", type=int, default=135, dest="n_clusters",
                          metavar="CLUSTERS")
    simulate.add_argument("--alpha", type=float, default=0.3)
    simulate.add_argument(
        "--paper-marginals", action="store_true",
        help="write the deterministic 305-row example instead",
    )

    for p in (fit, select):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text", dest="output_format")
    for p in (crosstab, summarize):
        p.add_argument("--format", choices=("text", "json"),
                       default="text", dest="output_format")
    return parser


COMMANDS = {
    "fit": cmd_fit,
    "select": cmd_select,
    "crosstab": cmd_crosstab,
    "summarize": cmd_summarize,
    "simulate": cmd_simulate,
}

# Built once per process: a parser is costly to build, and each one built
# leaves hundreds of objects in reference cycles for the cyclic collector.
PARSER = build_parser()


def main(argv=None) -> int:
    level = os.environ.get("GEE_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else CONFIG_ERROR
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except CONFIG_EXCEPTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except AllCandidatesFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NONCONVERGENCE
    except GeeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
