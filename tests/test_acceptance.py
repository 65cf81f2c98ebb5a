"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance is pinned here, not configurable.
"""

import time
import warnings

import numpy as np
from scipy.special import expit

from geeclust import (
    AR1,
    CovariateSpec,
    Exchangeable,
    Family,
    Fixed,
    GeeOptions,
    Independent,
    MDependent,
    SimProfile,
    TermCoding,
    Unstructured,
    build_design,
    build_paper_marginals,
    crosstab_2x2,
    enumerate_candidates,
    fit_gee,
    generate,
    generate_paper,
    independence_information,
    irls_fit,
    odds_ratio,
    qic,
    qic_u,
    recode_response,
    reference_panels,
    robust_se,
    run_selection,
    wald_row,
)
from geeclust.errors import UnderdeterminedLag
from geeclust.linalg import spd_factor, trace_of_product

from test_gee import _estimating_equation, brute_force_root, dataset_from_arrays

BINOMIAL = Family("binomial", "logit")
Z95 = 1.959963984540054


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_contingency_arithmetic():
    start = time.perf_counter()
    ds = build_paper_marginals(seed=0)
    table = crosstab_2x2(ds, "AREA1")
    ors = [odds_ratio(t) for _, _, t in reference_panels(table)]
    elapsed = time.perf_counter() - start
    expected = [0.44, 2.27, 2.27, 0.44]
    deviations = [abs(a - b) for a, b in zip(ors, expected)]
    ok = max(deviations) < 0.005 and elapsed < 1.0
    report(
        1, ok,
        f"panel ORs {np.round(ors, 4).tolist()} vs {expected} "
        f"(max dev {max(deviations):.4f}, {elapsed:.2f}s)",
    )


def test_criterion_2_independence_fit_reproduction():
    start = time.perf_counter()
    ds = recode_response(build_paper_marginals(seed=0), "LOOSENING", "first")
    x = build_design(ds, [TermCoding("AREA1", "factor", "descending")])
    fit = fit_gee(x, ds, BINOMIAL, Independent())
    elapsed = time.perf_counter() - start
    dev_b0 = abs(fit.beta[0] - (-0.655))
    dev_b1 = abs(fit.beta[1] - (-0.822))
    dev_or = abs(np.exp(fit.beta[1]) - 0.440)
    ok = dev_b0 < 0.001 and dev_b1 < 0.001 and dev_or < 0.001 and elapsed < 1.0
    report(
        2, ok,
        f"beta {np.round(fit.beta, 4).tolist()} vs (-0.655, -0.822), "
        f"Exp(B) {np.exp(fit.beta[1]):.4f} vs 0.440 ({elapsed:.2f}s)",
    )


def test_criterion_3_wald_row_reproduction():
    row = wald_row("AREA1=1", -0.822, 0.3800)
    # the published table prints 3 decimals from unrounded inputs; compare the
    # emitted 3-decimal values, allowing one display unit (0.001)
    checks = {
        "chisq": abs(round(row.wald_chisq * 1000) - 4678) <= 1,
        "p": abs(row.p_value - 0.031) <= 0.001,
        "ci_low": abs(row.ci_low - (-1.567)) <= 0.001,
        "ci_high": abs(row.ci_high - (-0.077)) <= 0.001,
        "exp_ci_low": abs(row.exp_ci_low - 0.209) <= 0.001,
        "exp_ci_high": abs(row.exp_ci_high - 0.926) <= 0.001,
    }
    ok = all(checks.values())
    report(
        3, ok,
        f"chisq {row.wald_chisq:.3f} p {row.p_value:.3f} "
        f"CI ({row.ci_low:.3f}, {row.ci_high:.3f}) "
        f"ExpCI ({row.exp_ci_low:.3f}, {row.exp_ci_high:.3f}); "
        + ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()),
    )


def test_criterion_4_brute_force_oracle():
    start = time.perf_counter()
    ds = dataset_from_arrays(
        cluster_sizes=[2, 3, 3],
        x_values=[0, 1, 1, 0, 1, 0, 0, 1],
        y_values=[0, 1, 1, 0, 0, 1, 0, 1],
    )
    x = build_design(ds, [TermCoding("x", "factor", "descending")])
    cs = Exchangeable(0.3)
    fit = fit_gee(x, ds, BINOMIAL, cs, GeeOptions(update_alpha=False, fix_phi=True))
    oracle = brute_force_root(x.values, ds, BINOMIAL, cs)
    residual = np.max(np.abs(_estimating_equation(x.values, ds, BINOMIAL, oracle, cs)))
    gap = np.max(np.abs(fit.beta - oracle))
    elapsed = time.perf_counter() - start
    ok = residual < 1e-8 and gap < 1e-4 and elapsed < 10.0
    report(
        4, ok,
        f"oracle root {np.round(oracle, 6).tolist()}, solver gap {gap:.2e}, "
        f"oracle residual {residual:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_5_structural_identities():
    failures = []

    # (a) Independent GEE equals IRLS
    ds = recode_response(build_paper_marginals(seed=0), "LOOSENING", "first")
    x = build_design(ds, [TermCoding("AREA1", "factor", "descending")])
    gee_fit = fit_gee(x, ds, BINOMIAL, Independent())
    irls = irls_fit(x, ds.response_vector(), BINOMIAL)
    if np.max(np.abs(gee_fit.beta - irls.beta)) >= 1e-8:
        failures.append("independent != irls")

    # (b) singleton clusters: every structure gives the identical fit
    rng = np.random.default_rng(77)
    xv = rng.integers(0, 2, 60).astype(float)
    yv = (rng.uniform(size=60) < expit(-0.2 + 0.6 * xv)).astype(float)
    singles = dataset_from_arrays([1] * 60, xv, yv)
    xs = build_design(singles, [TermCoding("x", "factor", "descending")])
    betas = []
    for cs in [Independent(), Exchangeable(), AR1(), MDependent(1),
               Unstructured(1), Fixed(np.eye(1))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedLag)
            betas.append(fit_gee(xs, singles, BINOMIAL, cs).beta)
    if any(np.max(np.abs(b - betas[0])) >= 1e-12 for b in betas[1:]):
        failures.append("singleton fits differ across structures")

    # (c) reference flip negates coefficients exactly
    base = build_paper_marginals(seed=0)
    first = recode_response(base, "LOOSENING", "first")
    last = recode_response(base, "LOOSENING", "last")
    xf = build_design(first, [TermCoding("AREA1", "factor", "descending")])
    xl = build_design(last, [TermCoding("AREA1", "factor", "descending")])
    for cs in [Independent(), Exchangeable()]:
        f1 = fit_gee(xf, first, BINOMIAL, cs)
        f2 = fit_gee(xl, last, BINOMIAL, cs)
        if np.max(np.abs(f1.beta + f2.beta)) >= 1e-10:
            failures.append(f"reference flip not exact under {cs.kind}")

    # (d) QICu - QIC identity on every fit
    for cs in [Independent(), Exchangeable(), AR1()]:
        fit = fit_gee(x, ds, BINOMIAL, cs)
        omega = independence_information(x, ds, BINOMIAL, fit.beta, fit.phi)
        identity = 2 * x.p - 2 * trace_of_product(omega, fit.cov_robust)
        if abs((qic_u(fit, x.p) - qic(fit, x, ds, BINOMIAL)) - identity) >= 1e-9:
            failures.append(f"QICu-QIC identity broken under {cs.kind}")

    report(5, not failures, "; ".join(failures) if failures else
           "independent==irls, singleton degeneracy, exact flip, QIC identity")


def test_criterion_6_numerical_hygiene_100_seeds():
    from geeclust import glm

    start = time.perf_counter()
    worst_jacobian = 0.0
    worst_residual = 0.0
    worst_asymmetry = 0.0
    psd_failures = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        sizes = rng.integers(1, 5, 20)
        xs, ys = [], []
        for size in sizes:
            xrow = rng.integers(0, 2, size).astype(float)
            p = expit(-0.5 + 1.0 * xrow)
            shared = 0.6 * rng.standard_normal()
            y = (shared + rng.standard_normal(size)
                 < np.sqrt(1.36) * _probit(p)).astype(float)
            xs.extend(xrow)
            ys.extend(y)
        ds = dataset_from_arrays(sizes.tolist(), xs, ys)
        x = build_design(ds, [TermCoding("x", "factor", "descending")])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedLag)
            fit = fit_gee(x, ds, BINOMIAL, Exchangeable())

        h = 1e-6
        mu = glm.link_inverse(BINOMIAL, x.values @ fit.beta)
        for k in range(x.p):
            up, down = fit.beta.copy(), fit.beta.copy()
            up[k] += h
            down[k] -= h
            fd = (glm.link_inverse(BINOMIAL, x.values @ up)
                  - glm.link_inverse(BINOMIAL, x.values @ down)) / (2 * h)
            # the canonical-link identity d mu / d eta = V(mu), on which
            # fit_gee and independence_information rest
            analytic = glm.variance_fn(BINOMIAL, mu) * x.values[:, k]
            rel = np.max(np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-8))
            worst_jacobian = max(worst_jacobian, rel)

        residual = np.max(np.abs(_estimating_equation(
            x.values, ds, BINOMIAL, fit.beta, fit.structure, fit.phi)))
        worst_residual = max(worst_residual, residual)

        worst_asymmetry = max(
            worst_asymmetry, np.max(np.abs(fit.cov_robust - fit.cov_robust.T))
        )
        try:
            bump = 1e-8 * np.mean(np.diag(fit.cov_robust))
            spd_factor(fit.cov_robust + bump * np.eye(x.p))
        except Exception:
            psd_failures += 1
    elapsed = time.perf_counter() - start
    ok = (worst_jacobian < 1e-6 and worst_residual < 1e-6
          and worst_asymmetry < 1e-10 and psd_failures == 0)
    report(
        6, ok,
        f"100 seeds: jacobian {worst_jacobian:.2e}, residual {worst_residual:.2e}, "
        f"asymmetry {worst_asymmetry:.2e}, PSD failures {psd_failures} "
        f"({elapsed:.1f}s)",
    )


def _probit(p):
    from scipy.stats import norm

    return norm.ppf(p)


def test_criterion_7_sandwich_coverage():
    start = time.perf_counter()
    true_slope = 0.8
    replicates = 500
    covered = 0
    fitted = 0
    for rep in range(replicates):
        profile = SimProfile(
            n_clusters=200,
            size_distribution=((4, 1.0),),
            covariate_specs=(
                CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
            ),
            intercept=-1.0,
            coefficients={"x": true_slope},
            alpha=0.5,
            seed=20_000 + rep,
        )
        ds = generate(profile)
        x = build_design(ds, [TermCoding("x", "factor", "descending")])
        fit = fit_gee(x, ds, BINOMIAL, Exchangeable())
        fitted += 1
        se = robust_se(fit)[1]
        low, high = fit.beta[1] - Z95 * se, fit.beta[1] + Z95 * se
        covered += int(low <= true_slope <= high)
    coverage = covered / fitted
    elapsed = time.perf_counter() - start
    ok = 0.92 <= coverage <= 0.98 and elapsed < 120.0
    report(
        7, ok,
        f"robust 95% CI coverage {coverage:.3f} over {fitted} replicates "
        f"({elapsed:.0f}s)",
    )


def test_criterion_8_selection_sanity():
    ds = recode_response(
        generate_paper(n_clusters=400, alpha=0.25, seed=42), "LOOSENING", "first"
    )
    failures = []

    # (a) enumeration count
    terms6 = [TermCoding(n, "factor", "descending")
              for n in ("AGE1", "GENDER", "AREA1", "LENGTH1", "DIAMETER", "NINSERT1")]
    five = [Independent(), MDependent(2), Exchangeable(), AR1(), Unstructured(12)]
    specs = enumerate_candidates(terms6, five, max_size=6)
    if len(specs) != (2**6 - 1) * 5:
        failures.append(f"enumeration count {len(specs)} != {(2**6 - 1) * 5}")

    # (b) report minima equal independent recomputation
    terms3 = [TermCoding(n, "factor", "descending")
              for n in ("AGE1", "AREA1", "NINSERT1")]
    structures = [Independent(), Exchangeable()]
    report_ex = run_selection(ds, BINOMIAL, terms3, structures, mode="exhaustive")
    alive = [c for c in report_ex.candidates if c.converged]
    best_qic = min(alive, key=lambda c: (c.qic, c.p, c.covariates))
    if report_ex.best_structure != best_qic.structure:
        failures.append("best structure is not the QIC argmin")
    under = [c for c in alive if c.structure == report_ex.best_structure]
    best_qicu = min(under, key=lambda c: (c.qic_u, c.p, c.covariates))
    if report_ex.best_model != best_qicu.covariates:
        failures.append("best model is not the QICu argmin")
    recomputed = {}
    for c in alive:
        from geeclust import complete_cases

        chosen = [t for t in terms3 if t.name in c.covariates]
        sub, _ = complete_cases(ds, [t.name for t in chosen])
        x_c = build_design(sub, chosen)
        cs = Independent() if c.structure == "independent" else Exchangeable()
        fit = fit_gee(x_c, sub, BINOMIAL, cs)
        recomputed[(c.structure, c.covariates)] = qic(fit, x_c, sub, BINOMIAL)
    for c in alive:
        if abs(recomputed[(c.structure, c.covariates)] - c.qic) > 1e-9:
            failures.append(f"QIC mismatch for {c.structure}/{c.covariates}")
            break

    # (c) stepwise trace shows the 1 -> 2 -> 3 -> stop shape
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedLag)
        report_sw = run_selection(
            ds, BINOMIAL, terms6, [Independent(), Exchangeable()], mode="stepwise"
        )
    phase1 = []
    for line in report_sw.trace:
        if line.startswith("Phase 1 winner"):
            break
        if line.startswith("STEP"):
            phase1.append(line)
    shape_ok = (
        len(phase1) == 4
        and all(s.startswith(f"STEP {i + 1}") for i, s in enumerate(phase1))
        and "stop" in phase1[3]
        and set(report_sw.best_model) == {"AGE1", "AREA1", "NINSERT1"}
    )
    if not shape_ok:
        failures.append(f"stepwise shape wrong: {phase1}")

    report(8, not failures, "; ".join(failures) if failures else
           f"{len(specs)} candidates, minima verified, STEP 1-4 shape reproduced")
