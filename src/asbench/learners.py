"""Self-contained learners used by the selector families.

Everything here is deterministic: all randomness flows through Philox, a
counter-based generator, keyed by (seed, stream ids), so refitting with the
same inputs reproduces the same model bit for bit regardless of platform or
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def rng_stream(seed: int, *ids: int) -> np.random.Generator:
    """Independent random stream for (seed, ids), stable across runs."""
    h = _FNV_OFFSET
    for x in ids:
        h = ((h ^ (int(x) & _MASK64)) * _FNV_PRIME) & _MASK64
    key = np.array([int(seed) & _MASK64, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# CART trees


@dataclass
class Tree:
    """Binary decision tree stored as flat arrays.

    ``feature[i] == -1`` marks a leaf. Regression leaves carry the mean
    target in ``value``; classification leaves carry a class distribution
    row in ``dist``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray | None = None
    dist: np.ndarray | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        idx = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while active.size:
            node = idx[active]
            feat = self.feature[node]
            inner = feat >= 0
            if not inner.any():
                break
            sel = active[inner]
            node = idx[sel]
            go_left = X[sel, self.feature[node]] <= self.threshold[node]
            idx[sel] = np.where(go_left, self.left[node], self.right[node])
            active = sel
        if self.value is not None:
            return self.value[idx]
        return self.dist[idx]


def _best_split(X, y, target_sq, feat_order, min_leaf, one_hot):
    """Lowest-impurity split over the candidate features, or None.

    Impurity is the summed squared error for regression and the weighted
    Gini index for classification (``one_hot`` given). Ties keep the first
    candidate feature, which makes the search order part of the contract.
    """
    n = y.shape[0]
    best = None
    for f in feat_order:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        pos = np.arange(min_leaf - 1, n - min_leaf)
        if pos.size == 0:
            continue
        valid = xs[pos] < xs[pos + 1]
        if not valid.any():
            continue
        pos = pos[valid]
        n_left = pos + 1.0
        n_right = n - n_left
        if one_hot is None:
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(target_sq[order])
            s_left, q_left = csum[pos], csq[pos]
            s_right = csum[-1] - s_left
            q_right = csq[-1] - q_left
            cost = (q_left - s_left**2 / n_left) + (q_right - s_right**2 / n_right)
        else:
            cum = np.cumsum(one_hot[order], axis=0)
            c_left = cum[pos]
            c_right = cum[-1] - c_left
            gini_left = n_left - (c_left**2).sum(axis=1) / n_left
            gini_right = n_right - (c_right**2).sum(axis=1) / n_right
            cost = gini_left + gini_right
        j = int(np.argmin(cost))
        if best is None or cost[j] < best[0]:
            thr = 0.5 * (xs[pos[j]] + xs[pos[j] + 1])
            best = (float(cost[j]), int(f), thr)
    return best


def grow_tree(X, y, rng, min_leaf=1, features_per_split=None, n_classes=None) -> Tree:
    """Grow a CART tree to purity (no depth cap).

    ``n_classes`` switches to classification with Gini splits; otherwise
    splits minimize variance. ``features_per_split`` caps how many features
    each node may consider, drawn fresh per node from ``rng``.
    """
    n, d = X.shape
    classify = n_classes is not None
    one_hot_all = np.eye(n_classes, dtype=np.float64)[y] if classify else None
    target_sq = None if classify else y * y

    feature = []
    threshold = []
    left = []
    right = []
    payload = []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        payload.append(None)
        return len(feature) - 1

    stack = [(np.arange(n), new_node())]
    while stack:
        idx, slot = stack.pop()
        ys = y[idx]
        pure = ys.size < 2 * min_leaf or np.all(ys == ys[0])
        split = None
        if not pure:
            if features_per_split is None or features_per_split >= d:
                feat_order = np.arange(d)
            else:
                feat_order = rng.permutation(d)[:features_per_split]
            split = _best_split(
                X[idx],
                ys,
                None if classify else target_sq[idx],
                feat_order,
                min_leaf,
                one_hot_all[idx] if classify else None,
            )
        if split is None:
            if classify:
                counts = np.bincount(ys, minlength=n_classes).astype(np.float64)
                payload[slot] = counts / counts.sum()
            else:
                payload[slot] = float(ys.mean())
            continue
        _, f, thr = split
        feature[slot] = f
        threshold[slot] = thr
        mask = X[idx, f] <= thr
        left[slot] = new_node()
        right[slot] = new_node()
        stack.append((idx[mask], left[slot]))
        stack.append((idx[~mask], right[slot]))

    m = len(feature)
    tree = Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
    )
    if classify:
        dist = np.zeros((m, n_classes), dtype=np.float64)
        for i, p in enumerate(payload):
            if p is not None:
                dist[i] = p
        tree.dist = dist
    else:
        tree.value = np.asarray([0.0 if p is None else p for p in payload], dtype=np.float64)
    return tree


@dataclass
class Forest:
    """Bagged CART trees; regression averages, classification averages
    per-tree class distributions and takes the first maximal class."""

    trees: list[Tree]
    n_classes: int | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        mean = self._average(X)
        return mean if self.n_classes is None else np.argmax(mean, axis=1)

    def predict_dist(self, X: np.ndarray) -> np.ndarray:
        return self._average(X)

    def _average(self, X: np.ndarray) -> np.ndarray:
        """Plain average of the tree outputs, summed in tree order, so a row
        gets the same bits whichever rows share the call."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        total = self.trees[0].predict(X)
        for tree in self.trees[1:]:
            total = total + tree.predict(X)
        return total / len(self.trees)


def fit_forest(X, y, hp, stream, n_classes=None) -> Forest:
    """Fit a random forest; ``stream`` is a tuple of ids naming the RNG
    substream so sibling models stay independent but reproducible."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot fit a forest on an empty training set")
    if n_classes is None:
        y = np.asarray(y, dtype=np.float64)
    else:
        y = np.asarray(y, dtype=np.int64)
    mtry = (hp.features_per_split or int(np.ceil(np.sqrt(d)))) if d else None
    trees = []
    for t in range(hp.n_trees):
        rng = rng_stream(hp.seed, *stream, t)
        boot = rng.integers(0, n, size=n)
        trees.append(
            grow_tree(
                X[boot],
                y[boot],
                rng,
                min_leaf=hp.min_leaf,
                features_per_split=mtry,
                n_classes=n_classes,
            )
        )
    return Forest(trees=trees, n_classes=n_classes)


# ---------------------------------------------------------------------------
# k nearest neighbors


@dataclass
class KNN:
    """Brute-force Euclidean k-NN store. Distance ties resolve by the
    training index order, so duplicates behave deterministically."""

    X: np.ndarray
    k: int

    def neighbors(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        k = min(k or self.k, self.X.shape[0])
        d = self.X - np.asarray(x, dtype=np.float64)
        dist = np.einsum("ij,ij->i", d, d) if self.X.shape[1] else np.zeros(self.X.shape[0])
        return np.argsort(dist, kind="stable")[:k]


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeans:
    centroids: np.ndarray

    def assign(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.centroids.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=np.int64)
        d = ((X[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d, axis=1)


def fit_kmeans(X, k, rng, max_iter=100, tol=1e-6) -> KMeans:
    """Lloyd iterations from a k-means++ style seeding.

    Empty clusters keep their previous centroid. With zero feature columns
    every point collapses into cluster 0.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    k = min(k, n)
    if d == 0 or k <= 1:
        return KMeans(centroids=np.zeros((max(k, 1), d)))

    centroids = np.empty((k, d))
    centroids[0] = X[int(rng.integers(0, n))]
    sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = sq.sum()
        if total <= 0:
            centroids[c:] = centroids[0]
            break
        r = rng.random() * total
        pick = int(np.searchsorted(np.cumsum(sq), r, side="right"))
        centroids[c] = X[min(pick, n - 1)]
        sq = np.minimum(sq, ((X - centroids[c]) ** 2).sum(axis=1))

    for _ in range(max_iter):
        assign = KMeans(centroids).assign(X)
        new = centroids.copy()
        for c in range(k):
            members = X[assign == c]
            if members.size:
                new[c] = members.mean(axis=0)
        shift = np.max(np.abs(new - centroids))
        centroids = new
        if shift < tol:
            break
    return KMeans(centroids=centroids)
