"""Reference checks for benchmark outputs, written with numpy and the stdlib only.

Nothing here imports geeclust: each check recomputes what an operation
claims from the raw inputs, so a defect in the fitting path cannot also hide
in its own check.
"""

import csv
import math

import numpy as np

# Newton step the reference would still take from a reported GEE solution.
# Fits stop when a step falls below 1e-8; the last moment refresh of alpha
# moves the root by far less than this.
ROOT_STEP_TOL = 1e-6
# Relative agreement of reported robust standard errors with the reference
# sandwich evaluated at the same (beta, alpha, phi).
SE_RTOL = 1e-6
# Agreement of reported alpha with the moment estimate recomputed at the
# reported beta; fits refresh alpha at their final beta, so only summation
# order separates the two.
MOMENT_TOL = 1e-10
# Correlation estimates are clipped to this magnitude.
ALPHA_CLAMP = 0.99
# Infinity norm of the independence score sum x_i (y_i - mu_i) at a reported
# IRLS solution; irls_fit stops at 1e-10.
IRLS_SCORE_TOL = 1e-6


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_clustered_csv(path, cluster_col, response_col, within_col):
    """Parse a clustered CSV the way the documented format defines it.

    Returns (clusters, columns): clusters in first-appearance order as
    lists of row dicts sorted by occasion.  Only complete files are
    supported: every cell must be present and numeric.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        groups = {}
        for line_no, cells in enumerate(reader, start=2):
            require(len(cells) == len(header), f"line {line_no}: ragged row")
            row = {name: float(cell) for name, cell in zip(header, cells)
                   if name != cluster_col}
            groups.setdefault(cells[header.index(cluster_col)], []).append(row)
    clusters = [sorted(rows, key=lambda r: r[within_col]) for rows in groups.values()]
    return clusters, [name for name in header if name not in (cluster_col, response_col)]


def design_from_labels(labels, column):
    """Indicator design rebuilt from "(Intercept)" / "NAME=level" labels.

    `column(name)` returns the raw values of one covariate in row order.
    """
    cols = []
    for label in labels:
        if label == "(Intercept)":
            cols.append(None)
            continue
        name, sep, level = label.partition("=")
        require(sep == "=", f"unexpected design label {label!r}")
        cols.append((np.asarray(column(name), dtype=float) == float(level)).astype(float))
    n = len(next(c for c in cols if c is not None))
    return np.column_stack([np.ones(n) if c is None else c for c in cols])


def correlation(kind, alpha, n):
    """Working correlation for one cluster of n observations."""
    if kind == "independent":
        return np.eye(n)
    if kind == "exchangeable":
        return np.where(np.eye(n) == 1.0, 1.0, float(alpha))
    raise CheckFailed(f"no reference for correlation {kind!r}")


def gee_reference(x, y, sizes, kind, alpha, phi, beta):
    """Per-cluster logit GEE quantities at a given solution.

    Returns (newton_step, robust_se): the step M^{-1} U that a fresh
    Fisher-scoring iteration would take, and the sandwich standard errors
    sqrt(diag(M^{-1} B M^{-1})).
    """
    p = x.shape[1]
    info = np.zeros((p, p))
    score = np.zeros(p)
    meat = np.zeros((p, p))
    start = 0
    for n in sizes:
        xi = x[start:start + n]
        yi = y[start:start + n]
        start += n
        mu = 1.0 / (1.0 + np.exp(-(xi @ beta)))
        a = mu * (1.0 - mu)
        d = a[:, None] * xi
        v = phi * np.sqrt(np.outer(a, a)) * correlation(kind, alpha, n)
        w = np.linalg.solve(v, np.column_stack([d, yi - mu]))
        info += d.T @ w[:, :p]
        g = d.T @ w[:, p]
        score += g
        meat += np.outer(g, g)
    require(start == len(y), "cluster sizes do not cover the response")
    minv = np.linalg.inv(info)
    cov = minv @ meat @ minv
    return minv @ score, np.sqrt(np.clip(np.diag(cov), 0.0, None))


def moment_reference(x, y, sizes, kind, beta):
    """Moment estimates (alpha, phi) from Pearson residuals at `beta`.

    Binomial responses fix phi at 1.  Exchangeable averages all
    within-cluster residual products: it divides by the pair count less p
    (the raw count when that is not positive), clips to +-ALPHA_CLAMP and
    floors at -1/(largest cluster - 1) + 1e-6.
    """
    mu = 1.0 / (1.0 + np.exp(-(x @ np.asarray(beta, dtype=float))))
    r = (y - mu) / np.sqrt(mu * (1.0 - mu))
    if kind == "independent":
        return None, 1.0
    total, pairs, start = 0.0, 0, 0
    for n in sizes:
        ri = r[start:start + n]
        start += n
        for j in range(n):
            for k in range(j + 1, n):
                total += ri[j] * ri[k]
                pairs += 1
    if pairs == 0:
        return 0.0, 1.0
    denom = pairs - x.shape[1] if pairs > x.shape[1] else pairs
    alpha = min(max(total / denom, -ALPHA_CLAMP), ALPHA_CLAMP)
    return max(alpha, -1.0 / (max(sizes) - 1) + 1e-6), 1.0


def check_gee_solution(x, y, sizes, kind, alpha, phi, beta, se):
    """Reported beta solves the estimating equation; alpha and phi are the
    moment estimates at beta; se matches the sandwich."""
    beta = np.asarray(beta, dtype=float)
    require(np.all(np.isfinite(beta)), "non-finite coefficients")
    ref_alpha, ref_phi = moment_reference(x, y, sizes, kind, beta)
    require(phi == ref_phi, f"phi {phi} is not {ref_phi}")
    if ref_alpha is None:
        require(alpha is None, f"independence reported alpha {alpha}")
    else:
        gap = abs(float(alpha) - ref_alpha)
        require(gap <= MOMENT_TOL, f"alpha differs from its moment estimate by {gap:.3g}")
    step, ref_se = gee_reference(x, y, sizes, kind, alpha, phi, beta)
    gap = float(np.max(np.abs(step)))
    require(gap <= ROOT_STEP_TOL, f"estimating equation not solved: step {gap:.3g}")
    se = np.asarray(se, dtype=float)
    err = float(np.max(np.abs(se - ref_se) / np.maximum(ref_se, 1e-12)))
    require(err <= SE_RTOL, f"robust SE differs from reference by {err:.3g}")


def check_irls_solution(x, y, beta):
    """Reported beta solves the logit independence score equation."""
    beta = np.asarray(beta, dtype=float)
    mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
    gap = float(np.max(np.abs(x.T @ (y - mu))))
    require(gap <= IRLS_SCORE_TOL, f"IRLS score not zero: {gap:.3g}")


def replay_stepwise(candidates, names, kinds, max_size):
    """Walk the documented two-phase stepwise rule over reported candidates.

    Phase 1 grows the subset greedily, up to `max_size` terms, by QIC over
    every structure in `kinds`; phase 2 regrows it by QICu under the
    phase-1 structure.  A round's best is the lowest finite criterion among
    converged candidates, ties broken by smaller p then the earlier subset,
    and the walk stops when the best no longer improves.  Returns
    (structure, model, candidates_visited); a candidate the walk needs but
    the report lacks fails the check.
    """
    table = {(c.structure, tuple(c.covariates)): c for c in candidates}
    visited = 0

    def grow(round_kinds, key):
        nonlocal visited
        current = ()
        best_value = math.inf
        winner = None
        while len(current) < max_size:
            pool = []
            for name in names:
                if name in current:
                    continue
                subset = tuple(n for n in names if n in current or n == name)
                for kind in round_kinds:
                    require((kind, subset) in table, f"missing candidate {kind}/{subset}")
                    pool.append(table[(kind, subset)])
            visited += len(pool)
            alive = [c for c in pool if c.converged and math.isfinite(key(c))]
            if not alive:
                break
            best = min(alive, key=lambda c: (key(c), c.p, tuple(c.covariates)))
            if key(best) >= best_value:
                break
            current, best_value, winner = tuple(best.covariates), key(best), best
        return winner

    phase1 = grow(kinds, lambda c: c.qic)
    require(phase1 is not None, "no converged phase-1 candidate")
    phase2 = grow([phase1.structure], lambda c: c.qic_u)
    return phase1.structure, tuple(phase2.covariates), visited
