"""What the clustered binary simulator guarantees, checked empirically.

The generator draws a shared latent Gaussian per cluster and thresholds it,
with the latent correlation solved so each within-cluster pair of outcomes
hits the requested binary correlation.  Because thresholds come from the
exact margins, the marginal event rates equal the inverse-logit of the
linear predictor: the simulated truth is the marginal-regression estimand.
"""

import collections
from itertools import combinations

import numpy as np
from scipy.special import expit

from geeclust import CovariateSpec, SimProfile, generate
from geeclust.simulate import TABLE_SIZES

# ---------------------------------------------------------------------------
# Margins: empirical event rates per covariate level vs the targets.
profile = SimProfile(
    n_clusters=6000,
    size_distribution=((2, 0.5), (4, 0.5)),
    covariate_specs=(
        CovariateSpec("x", "factor", ((0.0, 0.5), (1.0, 0.5)), False),
    ),
    intercept=-1.0,
    coefficients={"x": 0.8},
    alpha=0.4,
    seed=123,
)
ds = generate(profile)
y = ds.response_vector()
x = np.array(ds.column("x"))
print("marginal calibration:")
for level, eta in ((0.0, -1.0), (1.0, -0.2)):
    print(f"  P(y=1 | x={level:.0f}): empirical {y[x == level].mean():.4f} "
          f"vs target {expit(eta):.4f}")

# ---------------------------------------------------------------------------
# Pairwise within-cluster correlation vs the requested alpha.  The target is
# calibrated per margin pair, so measure within each covariate pattern
# (pooling pairs with different margins would blur the comparison).
pairs = {}
for start, size in zip(ds.starts.tolist(), ds.sizes.tolist()):
    values = list(zip(x[start:start + size].tolist(), y[start:start + size].tolist()))
    for (xj, yj), (xk, yk) in combinations(values, 2):
        key = tuple(sorted((xj, xk)))
        pairs.setdefault(key, []).append((yj, yk) if xj <= xk else (yk, yj))
print(f"\nwithin-cluster correlation by covariate pattern (target "
      f"{profile.alpha}):")
for key, values in sorted(pairs.items()):
    a = np.array(values)
    corr = np.corrcoef(a[:, 0], a[:, 1])[0, 1]
    print(f"  x pair {key}: empirical {corr:.3f} over {len(values)} pairs")

# ---------------------------------------------------------------------------
# Cluster sizes against the reference histogram the default profile uses.
ds_sizes = generate(SimProfile(n_clusters=10_000, alpha=0.0, seed=7))
counts = collections.Counter(ds_sizes.cluster_sizes())
print("\ncluster-size frequencies (10k clusters):")
for size, probability in TABLE_SIZES:
    print(f"  size {size}: drawn {counts[size] / 10_000:.3f} "
          f"vs profile {probability:.3f}")

# ---------------------------------------------------------------------------
# Identical seeds give identical datasets, byte for byte.
again = generate(profile)
same = (ds.cluster_sizes() == again.cluster_sizes()
        and np.array_equal(ds.response, again.response)
        and np.array_equal(ds.positions, again.positions))
print(f"\nsame profile + seed reproduces the dataset exactly: {same}")
