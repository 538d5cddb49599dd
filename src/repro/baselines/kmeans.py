"""k-means clustering (from scratch, Lloyd + k-means++).

PKS "uses Cluster Analysis (i.e., k-means clustering) to group the kernel
invocations in this (reduced) multi-dimensional workload space" (Section
II-A). Deterministic given the seed label; supports fitting on a subsample
and assigning the full population, which keeps million-invocation
workloads tractable.

:meth:`BisectingKMeans.fit_all` labels the full population against every
nested snapshot in one blocked pass: each block of
``_ASSIGN_BLOCK_ROWS`` rows is measured once against the snapshots'
distinct centroids, and every snapshot takes its argmin over its own
columns. Working memory is block x distinct centroids instead of one
n x k distance matrix per snapshot. The per-snapshot loop it replaced is
:func:`repro.core.reference.bisecting_assign_scalar`; labels and inertia
are equal to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.seeding import rng_for
from repro.utils.validation import require


@dataclass(frozen=True)
class KMeansResult:
    """Fitted clustering of one data set."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,), cluster index per row
    inertia: float  # sum of squared distances to assigned centroids

    @property
    def k(self) -> int:
        return len(self.centroids)

    def cluster_rows(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) matrix of squared Euclidean distances."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, computed blockwise for memory.
    x_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(x_sq - 2.0 * points @ centroids.T + c_sq, 0.0)


# Rows per block of the shared snapshot assignment (at least 2). A block's
# distances to the ~2 * max_k distinct centroids stay cache-sized (2.5 MB
# at max_k = 20).
_ASSIGN_BLOCK_ROWS = 8192


def _assign_snapshots(
    points: np.ndarray, centroids: np.ndarray, snapshots: dict[int, list[int]]
) -> dict[int, KMeansResult]:
    """Assign ``points`` to every snapshot, each a list of ``centroids`` rows.

    Each row block's distances to all distinct centroids are computed once;
    a snapshot's labels are the argmin over its own columns (in snapshot
    order, so ties break as in a per-snapshot matrix) and its inertia sums
    the full per-row minimum vector, so the summation order is unchanged.
    A one-centroid snapshot keeps its own product: its single column goes
    through gemv, whose bits differ from the shared gemm's.
    """
    n = len(points)
    shared = {k: np.asarray(cols) for k, cols in snapshots.items() if len(cols) > 1}
    labels = {k: np.empty(n, dtype=np.intp) for k in shared}
    minima = {k: np.empty(n) for k in shared}
    start = 0
    while shared and start < n:
        # A one-row block's product would go through gemv, not gemm, so a
        # one-row tail joins the block before it.
        stop = start + _ASSIGN_BLOCK_ROWS
        if n - stop <= 1:
            stop = n
        block = slice(start, stop)
        distances = _squared_distances(points[block], centroids)
        rows = np.arange(len(distances))
        for k, cols in shared.items():
            block_labels = distances[:, cols].argmin(axis=1)
            labels[k][block] = block_labels
            minima[k][block] = distances[rows, cols[block_labels]]
        start = stop

    results: dict[int, KMeansResult] = {}
    for k, cols in snapshots.items():
        snapshot = centroids[cols]
        if k in shared:
            inertia = float(minima.pop(k).sum())
            results[k] = KMeansResult(snapshot, labels.pop(k), inertia)
            continue
        distances = _squared_distances(points, snapshot)
        single = distances.argmin(axis=1)
        inertia = float(distances[np.arange(n), single].sum())
        results[k] = KMeansResult(snapshot, single, inertia)
    return results


class KMeans:
    """Lloyd's algorithm with k-means++ seeding."""

    def __init__(
        self,
        k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 4,
    ):
        require(k >= 1, "k must be >= 1")
        require(max_iterations >= 1, "need at least one iteration")
        require(n_init >= 1, "need at least one initialization")
        self.k = k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def _plus_plus_init(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        n = len(points)
        centroids = np.empty((self.k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        closest = _squared_distances(points, centroids[:1]).ravel()
        for i in range(1, self.k):
            total = closest.sum()
            if total <= 0:
                centroids[i:] = centroids[0]
                break
            probabilities = closest / total
            centroids[i] = points[rng.choice(n, p=probabilities)]
            distance_to_new = _squared_distances(points, centroids[i : i + 1]).ravel()
            np.minimum(closest, distance_to_new, out=closest)
        return centroids

    def _lloyd(
        self, fit_points: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, float]:
        """One k-means++-seeded Lloyd run; returns (centroids, fit inertia)."""
        k = min(self.k, len(fit_points))
        centroids = self._plus_plus_init(fit_points, rng)[:k]
        labels: np.ndarray | None = None
        distances = None
        for _iteration in range(self.max_iterations):
            distances = _squared_distances(fit_points, centroids)
            new_labels = distances.argmin(axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for cluster in range(k):
                members = fit_points[labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
        assert labels is not None and distances is not None
        inertia = float(distances[np.arange(len(fit_points)), labels].sum())
        return centroids, inertia

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Cluster ``points`` ((n, d) array); keeps the best of n_init runs."""
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        rng = rng_for("kmeans", self.seed_label, self.k)

        fit_points = points
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_points = points[np.sort(chosen)]

        best_centroids: np.ndarray | None = None
        best_inertia = np.inf
        for _attempt in range(self.n_init):
            centroids, inertia = self._lloyd(fit_points, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
        assert best_centroids is not None

        # Assign the full population (== fit set when no subsampling).
        full_distances = _squared_distances(points, best_centroids)
        full_labels = full_distances.argmin(axis=1)
        inertia = float(full_distances[np.arange(len(points)), full_labels].sum())
        return KMeansResult(
            centroids=best_centroids, labels=full_labels, inertia=inertia
        )


class BisectingKMeans:
    """Divisive hierarchical k-means.

    Starts from one cluster and repeatedly bisects the cluster with the
    largest inertia using 2-means, yielding a *nested* family of
    clusterings for every k up to ``max_k`` in a single pass. Because the
    k-cluster and (k+1)-cluster solutions share all but one split, metrics
    evaluated across k (such as PKS's golden-reference error) vary
    smoothly instead of re-rolling a fresh local optimum per k.
    """

    def __init__(
        self,
        max_k: int,
        seed_label: str,
        max_iterations: int = 50,
        fit_sample_size: int | None = 20_000,
        n_init: int = 2,
    ):
        require(max_k >= 1, "max_k must be >= 1")
        self.max_k = max_k
        self.seed_label = seed_label
        self.max_iterations = max_iterations
        self.fit_sample_size = fit_sample_size
        self.n_init = n_init

    def fit_all(self, points: np.ndarray) -> dict[int, KMeansResult]:
        """Cluster ``points``; returns one nested result per k in 1..max_k.

        The bisections run on the fit sample; the full population is then
        labelled against all snapshots in one blocked pass
        (:func:`_assign_snapshots`), holding one block x distinct-centroid
        distance matrix at a time rather than an n x k matrix per snapshot.
        """
        points = np.asarray(points, dtype=np.float64)
        require(points.ndim == 2, "expected (n, d) points")
        require(len(points) >= 1, "cannot cluster an empty set")
        rng = rng_for("bisecting-kmeans", self.seed_label)

        fit_points = points
        if self.fit_sample_size is not None and len(points) > self.fit_sample_size:
            chosen = rng.choice(len(points), size=self.fit_sample_size, replace=False)
            fit_points = points[np.sort(chosen)]

        # Current partition of the fit sample: list of (member_indices,
        # centroid column, inertia). Every centroid ever formed is a row of
        # ``distinct``; the snapshots are nested, so max_k snapshots share
        # only 2 * max_k - 1 of them.
        all_indices = np.arange(len(fit_points))
        centroid = fit_points.mean(axis=0)
        inertia = float(((fit_points - centroid) ** 2).sum())
        distinct = [centroid]
        clusters: list[tuple[np.ndarray, int, float]] = [(all_indices, 0, inertia)]
        # Columns of clusters that 2-means cannot bisect (identical points);
        # retrying them would pick the same cluster forever.
        indivisible: set[int] = set()

        snapshots: dict[int, list[int]] = {1: [0]}
        while len(clusters) < min(self.max_k, len(fit_points)):
            # Bisect the cluster with the largest inertia (skip singletons).
            splittable = [
                i
                for i, c in enumerate(clusters)
                if len(c[0]) >= 2 and c[1] not in indivisible
            ]
            if not splittable:
                break
            target = max(splittable, key=lambda i: clusters[i][2])
            parent = clusters.pop(target)
            members, column, _ = parent
            two_means = KMeans(
                2,
                seed_label=f"{self.seed_label}/bisect{len(clusters)}",
                max_iterations=self.max_iterations,
                fit_sample_size=None,
                n_init=self.n_init,
            ).fit(fit_points[members])
            halves = [members[two_means.labels == half] for half in (0, 1)]
            if not all(len(rows) for rows in halves):
                indivisible.add(column)
                clusters.insert(target, parent)
                continue
            for rows in halves:
                sub_centroid = fit_points[rows].mean(axis=0)
                sub_inertia = float(((fit_points[rows] - sub_centroid) ** 2).sum())
                distinct.append(sub_centroid)
                clusters.append((rows, len(distinct) - 1, sub_inertia))
            snapshots[len(clusters)] = [c[1] for c in clusters]

        # Assign the full population against every snapshot's centroids.
        return _assign_snapshots(points, np.array(distinct), snapshots)
