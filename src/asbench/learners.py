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


def grow_tree(X, y, rng, min_leaf=1, features_per_split=None, n_classes=None) -> Tree:
    """Grow a CART tree to purity (no depth cap).

    ``n_classes`` switches to classification with Gini splits; otherwise
    splits minimize the summed squared error. ``features_per_split`` caps how
    many features each node may consider, drawn fresh per node from ``rng``.

    Nodes are grown depth first, the right child before the left, and every
    node with at least ``2 * min_leaf`` samples and mixed targets draws its
    candidate features from ``rng`` in that order, so the order is part of
    the contract. Among equal impurities the split keeps the first candidate
    feature in draw order, then the lowest split position along it.

    This is presorted CART: each feature is argsorted once per tree, and a
    node passes its per-feature sorted positions on to its children by a
    stable partition, so all candidate features of a node are scored in one
    pass over a ``(features, samples)`` matrix.
    """
    n, d = X.shape
    classify = n_classes is not None
    XT = np.ascontiguousarray(X.T)
    if classify:
        one_hot_all = np.eye(n_classes, dtype=np.float64)[y]
    else:
        y_and_sq = np.stack([y, y * y])
    all_features = np.arange(d)
    counts = np.arange(1.0, n + 1.0)  # samples left of each split position
    draw = features_per_split is not None and features_per_split < d

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

    # S[f] holds the node's sample positions sorted by feature f, ties in
    # ascending position (a stable sort); the extra row S[d] holds them in
    # ascending order. Stable partitions keep both orders down the tree.
    S = np.vstack([np.argsort(XT, axis=1, kind="stable"), np.arange(n)])
    stack = [(S, new_node())]
    while stack:
        S, slot = stack.pop()
        m = S.shape[1]
        idx = S[d]
        if m == 1:
            payload[slot] = one_hot_all[idx[0]] if classify else float(y[idx[0]])
            continue
        ys = y[idx]
        best = None
        if m >= 2 * min_leaf and not (ys == ys[0]).all():
            feats = rng.permutation(d)[:features_per_split] if draw else all_features
            SF = S[feats]
            xs = XT[feats[:, None], SF]
            # split after sorted position p, for p in [lo, hi)
            lo, hi = min_leaf - 1, m - min_leaf
            valid = xs[:, lo:hi] < xs[:, lo + 1 : hi + 1]
            if valid.any():
                n_left = counts[lo:hi]
                n_right = m - n_left
                if classify:
                    cum = one_hot_all[SF].cumsum(axis=1)
                    c_left = cum[:, lo:hi]
                    c_right = cum[:, -1:] - c_left
                    gini_left = n_left - (c_left**2).sum(axis=2) / n_left
                    gini_right = n_right - (c_right**2).sum(axis=2) / n_right
                    cost = gini_left + gini_right
                else:
                    # [sum, sum of squares] of y up to each sorted position
                    cum = y_and_sq[:, SF].cumsum(axis=2)
                    c_left = cum[:, :, lo:hi]
                    c_right = cum[:, :, -1:] - c_left
                    cost = (c_left[1] - c_left[0] ** 2 / n_left) + (
                        c_right[1] - c_right[0] ** 2 / n_right
                    )
                cost = np.where(valid, cost, np.inf)
                # the flat argmin runs in (draw order, position) order: the tie rule
                i, p = divmod(int(cost.argmin()), hi - lo)
                p += lo
                a, b = float(xs[i, p]), float(xs[i, p + 1])
                # the midpoint of adjacent doubles rounds to b, and of huge
                # ones overflows; a still parts the samples
                mid = 0.5 * (a + b)
                best = int(feats[i]), mid if a <= mid < b else a
        if best is None:
            if classify:
                payload[slot] = np.bincount(ys, minlength=n_classes) / m
            else:
                payload[slot] = float(ys.sum() / m)  # bitwise ys.mean()
            continue
        f, thr = best
        feature[slot] = f
        threshold[slot] = thr
        left[slot] = new_node()
        right[slot] = new_node()
        goes = (XT[f] <= thr)[S]
        n_go = np.count_nonzero(goes[d])
        stack.append((S[goes].reshape(d + 1, n_go), left[slot]))
        stack.append((S[~goes].reshape(d + 1, m - n_go), right[slot]))

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

    def neighbors(self, x: np.ndarray) -> np.ndarray:
        k = min(self.k, self.X.shape[0])
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
