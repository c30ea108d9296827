"""Walk through every stage of the rating pipeline on the bundled
30-country sample: normalization, component fitting, the ranking-function
map, clustering, and category assignment.

Run:  python3 demos/country_rating_walkthrough.py
"""

from importlib import resources

import numpy as np

from relarm import (
    assign_ratings,
    fit_pca,
    kmeans,
    load_config,
    load_dataset,
    map_to_feature_space,
    normalize_dataset,
)
from relarm.rating import REPORT_FOOTER

data = resources.files("relarm") / "data"
config = load_config(data / "country_config.json")
dataset = load_dataset(data / "country_raw.csv", data / "country_config.json")
print(f"loaded {dataset.n_objects} objects x {dataset.n_indicators} indicators")

# 1. direction-aware min-max scaling onto [0, 1]
normalized = normalize_dataset(dataset)
print("\nnormalized rows (first 3):")
for obj, row in list(zip(dataset.objects, normalized))[:3]:
    print(f"  {obj:<15}", np.round(row, 2))

# 2. principal components, l1-scaled; keep enough for 95% of the variance
model = fit_pca(normalized, variance_threshold=config.variance_threshold)
print(f"\nretained d={model.d} components")
print("variance fractions:", np.round(model.variance_fractions, 4))
print("weight matrix W (columns sum to 1):")
print(np.round(model.W, 4))

# 3. map every object into ranking-function space
features = map_to_feature_space(normalized, model)
print(f"\nfeature matrix: {features.shape}")

# 4. k-means++ clustering, deterministic seeding, best of many restarts
clusters = kmeans(
    features, k=config.k, seed=config.seed, restarts=config.restarts
)
print(f"clustered into {clusters.k} groups, total SSE {clusters.sse:.4f}")

# 5. project centers onto the variance vector; higher projection = better
ratings = assign_ratings(dataset.objects, clusters, model.Lambda, config.scale)
print("\ncluster projections and categories:")
for c in sorted(ratings.per_cluster, key=lambda c: c.rank):
    members = ratings.clusters.count(c.cluster)
    print(f"  {c.category:<4} projection={c.projection:.4f}  members={members}")

print("\nrating list:")
order = {label: i for i, label in enumerate(config.labels)}
for obj, category in sorted(ratings.categories().items(), key=lambda r: order[r[1]]):
    print(f"  {obj:<15} {category}")

print("\n" + REPORT_FOOTER)
