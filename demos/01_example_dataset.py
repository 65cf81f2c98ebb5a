"""The bundled miniscrew example: crosstabs, odds, and cluster summaries.

Miniscrews implanted in the same patient succeed or fail together far more
often than chance would allow, which is exactly the data shape this package
exists for.  `build_paper_marginals` deterministically reconstructs the
classic example: 305 screws in 135 patients with fixed jaw-by-loosening
margins, so every number printed below is reproducible bit for bit.
"""

import collections

from geeclust import (
    build_paper_marginals,
    concordance_summary,
    crosstab_2x2,
    odds,
    odds_ratio,
    reference_panels,
    write_csv,
)

ds = build_paper_marginals(seed=0)
print(f"dataset: {ds.n_clusters} patients, {ds.n_total} miniscrews")

# ---------------------------------------------------------------------------
# How many screws per patient?  Sizes follow the reference histogram exactly.
sizes = collections.Counter(ds.cluster_sizes())
print("\nscrews per patient:")
for size, count in sorted(sizes.items()):
    print(f"  {size}: {count:3d} patients ({100 * count / ds.n_clusters:.1f}%)")

# ---------------------------------------------------------------------------
# Within-patient agreement.  Over 80% of multi-screw patients are uniform or
# nearly uniform: strong within-cluster correlation.
summary = concordance_summary(ds, "LOOSENING")
print("\nwithin-patient outcome agreement (multi-screw patients):")
for name in ("all_success", "all_failure", "skewed", "equal"):
    count = getattr(summary, name)
    print(f"  {name:12s} {count:3d} ({100 * count / summary.multi_total:.1f}%)")
print(f"  singletons   {summary.singletons:3d} (excluded)")

# ---------------------------------------------------------------------------
# The 2x2 table of loosening by jaw, and what flipping each reference
# category does to the odds ratio: one flip reciprocates it, two restore it.
table = crosstab_2x2(ds, "AREA1")
print(f"\nloosening x jaw: a={table.a} b={table.b} c={table.c} d={table.d}")
print(f"odds of failure, maxilla:  {odds(table.a, table.b):.4f}")
print(f"odds of failure, mandible: {odds(table.c, table.d):.4f}")

print("\nreference-category panels:")
for response_ref, order, panel in reference_panels(table):
    print(
        f"  response ref {response_ref:5s} + factor order {order:10s} "
        f"-> OR = {odds_ratio(panel):.2f}"
    )

# ---------------------------------------------------------------------------
# Persist for the CLI demos: geeclust fit --data example.csv ...
write_csv(ds, "example.csv")
print("\nwrote example.csv")
