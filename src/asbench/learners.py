"""Self-contained learners used by the selector families.

Everything here is deterministic: all randomness flows through Philox, a
counter-based generator, keyed by (seed, stream ids), so refitting with the
same inputs reproduces the same model bit for bit regardless of platform or
evaluation order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
# CART forests


@dataclass(eq=False)
class Forest:
    """Bagged CART trees as flat node arrays: tree t's nodes run from
    ``roots[t]`` to the next root, and child ids count within their tree.

    ``feature[i] == -1`` marks a leaf; a split sends ``x[feature[i]] <=
    threshold[i]`` to ``left[i]``, else to ``right[i]``. Leaves carry the
    mean target in ``value``, or with ``n_classes`` set a class distribution
    row in ``dist``. Regression averages the trees, classification their
    distributions, taking the first maximal class.
    """

    n_classes: int | None
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray | None = None
    dist: np.ndarray | None = None

    @property
    def trees(self) -> list[Forest]:
        """Each tree as a one-tree forest of views of the packed arrays."""
        return [self._trees(t, t + 1) for t in range(self.roots.size)]

    def _nodes(self) -> dict:
        """The node arrays, by field name."""
        leaf = "value" if self.n_classes is None else "dist"
        return {name: getattr(self, name) for name in ("feature", "threshold", "left", "right", leaf)}

    def _trees(self, a, b) -> Forest:
        """Trees ``a`` to ``b - 1``, as a forest of views of the packed arrays."""
        lo, hi = np.append(self.roots, self.feature.size)[[a, b]]
        nodes = {name: x[lo:hi] for name, x in self._nodes().items()}
        return Forest(self.n_classes, self.roots[a:b] - lo, **nodes)

    def predict(self, X: np.ndarray) -> np.ndarray:
        mean = self._average(X)
        return mean if self.n_classes is None else np.argmax(mean, axis=1)

    def predict_dist(self, X: np.ndarray) -> np.ndarray:
        return self._average(X)

    def _average(self, X: np.ndarray) -> np.ndarray:
        """Plain average of the tree outputs, summed in tree order, so a row
        gets the same bits whichever rows share the call. Every (tree, row)
        pair walks down one depth per step, until all stand at a leaf."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_trees, n = self.roots.size, X.shape[0]
        root = np.repeat(self.roots, n)  # pair t * n + i: tree t, row i
        node = root.copy()
        active = np.arange(node.size)
        while active.size:
            active = active[self.feature[node[active]] >= 0]
            at = node[active]
            go_left = X[active % n, self.feature[at]] <= self.threshold[at]
            node[active] = root[active] + np.where(go_left, self.left[at], self.right[at])
        out = (self.value if self.n_classes is None else self.dist)[node]
        # cumsum adds tree by tree, as a running total would
        return out.reshape(n_trees, n, *out.shape[1:]).cumsum(axis=0)[-1] / n_trees


def _join(forests: list[Forest]) -> Forest:
    """One forest of the trees of ``forests``, in order."""
    offsets = np.cumsum([0] + [f.feature.size for f in forests[:-1]])
    roots = np.concatenate([f.roots + lo for f, lo in zip(forests, offsets)])
    nodes = [f._nodes() for f in forests]
    joined = {name: np.concatenate([x[name] for x in nodes]) for name in nodes[0]}
    return Forest(forests[0].n_classes, roots, **joined)


def _grow_trees(X, Y, boot, rngs, min_leaf, features_per_split, n_classes) -> Forest:
    """Grow one CART tree to purity (no depth cap) per row of ``boot``, on
    the sample ``X[boot[t]]`` with targets ``Y[t]`` and feature draws from
    ``rngs[t]``, one depth of all trees at a time, as tree t of one forest.
    A tree's bits do not depend on the other trees of the call.

    ``n_classes`` switches to classification with Gini splits; otherwise
    splits minimize the summed squared error. ``features_per_split`` caps how
    many features each node may consider, drawn from ``rngs[t]``.

    A tree grows breadth first. Node 0 is the root, and each depth numbers
    its children in parent order, left before right. A node with at least
    ``2 * min_leaf`` samples and mixed targets is splittable; at each depth
    a tree draws one block of feature orders for its splittable nodes,
    ``rng.permuted`` over rows of ``arange(d)``, one row per node in node-id
    order, and a node's candidates are the first ``features_per_split`` of
    its row (all features in order when that is not below ``d``).

    A node's running sums along a candidate feature are ``np.cumsum`` over
    its own samples sorted by that feature, ties in ascending sample
    position: the targets and their squares for regression, the one-hot
    labels for classification. Splitting after sorted position ``p`` costs
    the summed squared error (or the size-weighted Gini index) of both
    sides, the right side's sums being the node total minus the left's.
    Among equal costs the split keeps the first candidate feature in draw
    order, then the lowest position. A regression leaf holds the sum of its
    targets in ascending position, as ``np.add.reduceat`` takes it, divided
    by its size; a classification leaf its label counts over its size.

    This is presorted CART. Tree t owns columns ``t * n`` to ``t * n + n - 1``
    of every row of ``S``, which hold call-wide sample positions (``t * n + i``
    is tree t's sample i): row f sorted by feature f within each node, row d
    ascending. Every node owns one range of its tree's columns, and a split
    partitions that range stably, so both orders hold down the tree. At each
    depth the candidate rows of every splittable node of every tree are
    gathered into padded (nodes, candidates, columns) blocks of nodes of
    ascending size (:func:`_size_blocks`), and each block is scored in one
    pass; each node is scored on its own padded row, so no blocking changes
    a tree.
    Feature values are read from ``X`` through ``boot``, so a call copies no
    block of them.
    """
    T, n = boot.shape
    d = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    row_of = boot.reshape(-1)  # the row of X each position holds
    Y_flat = Y.reshape(-1)
    # the dense rank of each value sorts stably as the value does, and fast
    rank = np.zeros((d, X.shape[0]), dtype=np.uint16 if X.shape[0] <= 1 << 16 else np.int64)
    for f in range(d):
        rank[f] = np.unique(X[:, f], return_inverse=True)[1]
    S = np.empty((d + 1, T * n), dtype=np.int32 if T * n < 1 << 31 else np.int64)
    offset = np.arange(0, T * n, n)[:, None]
    for f in range(d):
        S[f] = (np.argsort(rank[f, boot], axis=1, kind="stable") + offset).reshape(-1)
    S[d] = np.arange(T * n)
    draw = features_per_split is not None and features_per_split < d
    n_cand = features_per_split if draw else d

    # the frontier: tree, first column and size of every node of the current
    # depth, in (tree, node id) order
    tree = np.arange(T)
    start = np.zeros(T, dtype=np.int64)
    size = np.full(T, n, dtype=np.int64)
    levels = []  # per depth: the frontier with each node's feature (-1: leaf) and threshold
    while tree.size:
        # a target change between neighbours of the ascending row, counted
        y_asc = Y_flat[S[d]]
        changes = np.concatenate([[0], np.cumsum(y_asc[1:] != y_asc[:-1])])
        first = tree * n + start
        mixed = changes[first + size - 1] > changes[first]
        cand = np.flatnonzero(mixed & (size >= 2 * min_leaf))
        if draw and cand.size:
            per_tree = np.bincount(tree[cand], minlength=T)
            rows = np.broadcast_to(np.arange(d), (per_tree.max(), d))
            feats = np.concatenate(
                [rngs[t].permuted(rows[: per_tree[t]], axis=1) for t in np.flatnonzero(per_tree)]
            )[:, :n_cand]
        else:
            feats = np.broadcast_to(np.arange(d), (cand.size, d))
        feat = np.full(tree.size, -1)
        thr = np.zeros(tree.size)
        if n_cand and cand.size:
            feat[cand], thr[cand] = _best_splits(
                S, XT, row_of, Y_flat, n_classes, n, min_leaf,
                tree[cand], start[cand], size[cand], feats,
            )
        levels.append((tree, start, size, feat, thr))
        idx = np.flatnonzero(feat >= 0)
        if not idx.size:
            break
        t, s, m = tree[idx], start[idx], size[idx]
        n_left = _partition(S, XT, row_of, n, t, s, m, feat[idx], thr[idx])
        # each split's children, left then right, in split order
        tree = np.repeat(t, 2)
        start = np.stack([s, s + n_left], axis=1).reshape(-1)
        size = np.stack([n_left, m - n_left], axis=1).reshape(-1)
    return _assemble(levels, Y_flat[S[d]].reshape(T, n), n_classes)


# A split search scores nodes in blocks of (nodes, candidates, columns, sums)
# elements, each node padded to the block's largest size; a block of more than
# one node holds at most _BLOCK_MAX elements.
_BLOCK_MAX = 1 << 14


def _size_blocks(size, unit):
    """Node index blocks in ascending size: of the nodes sorted by size
    (stably), each block takes the most that fit within ``_BLOCK_MAX``
    padded elements at ``unit`` elements a column, and at least one."""
    order = np.argsort(size, kind="stable")
    width = size[order] * unit
    blocks, lo = [], 0
    while lo < order.size:
        # j + 1 nodes padded to the width of the j-th grow with j: count those that fit
        w = width[lo : lo + max(1, _BLOCK_MAX // int(width[lo]))]
        hi = lo + max(1, int(np.count_nonzero(np.arange(1, w.size + 1) * w <= _BLOCK_MAX)))
        blocks.append(order[lo:hi])
        lo = hi
    return blocks


def _best_splits(S, XT, row_of, Y_flat, n_classes, n, min_leaf, tree, start, size, feats):
    """Best (feature, threshold) of every node given by its tree, first
    column, size and candidate features; feature -1 where none parts it."""
    width = S.shape[1]
    n_cand = feats.shape[1]
    feat = np.full(size.size, -1, dtype=np.int64)
    thr = np.zeros(size.size)
    sums = 2 if n_classes is None else n_classes
    classes = None if n_classes is None else np.arange(n_classes)[:, None, None, None]
    for r in _size_blocks(size, n_cand * sums):
        t, m, F = tree[r], size[r], feats[r]
        L = int(m.max())
        cols = t[:, None] * n + np.minimum(start[r, None] + np.arange(L), n - 1)
        SF = S.reshape(-1)[(F * width)[:, :, None] + cols[:, None, :]]
        xs = XT.reshape(-1)[(F * XT.shape[1])[:, :, None] + row_of[SF]]  # (nodes, cands, L)
        ys = Y_flat[SF]
        # split after sorted position p, for p in [min_leaf - 1, m - min_leaf)
        p = np.arange(L - 1)
        n_left = p + 1.0
        n_right = m[:, None, None] - n_left
        valid = (xs[:, :, :-1] < xs[:, :, 1:]) & (p < (m - min_leaf)[:, None, None])
        valid &= p >= min_leaf - 1
        last = (np.arange(r.size)[:, None], np.arange(n_cand), (m - 1)[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):  # past a node's end
            if n_classes is None:
                # sums of y and of y**2 up to each sorted position
                s_left, q_left = ys.cumsum(axis=2), (ys * ys).cumsum(axis=2)
                s_right = s_left[last][:, :, None] - s_left[:, :, :-1]
                q_right = q_left[last][:, :, None] - q_left[:, :, :-1]
                s_left, q_left = s_left[:, :, :-1], q_left[:, :, :-1]
                cost = (q_left - s_left**2 / n_left) + (q_right - s_right**2 / n_right)
            else:
                # label counts up to each sorted position, one plane per
                # class; their squares sum exactly, in any order
                c_left = (ys == classes).cumsum(axis=3)
                c_right = c_left[(slice(None), *last)][..., None] - c_left[..., :-1]
                c_left = c_left[..., :-1]
                gini_left = n_left - (c_left * c_left).sum(axis=0) / n_left
                gini_right = n_right - (c_right * c_right).sum(axis=0) / n_right
                cost = gini_left + gini_right
        cost = np.where(valid, cost, np.inf).reshape(r.size, -1)
        # the flat argmin runs in (draw order, position) order: the tie rule
        k, q = np.divmod(cost.argmin(axis=1), L - 1)
        b = np.arange(r.size)
        a, z = xs[b, k, q], xs[b, k, q + 1]
        # the midpoint of adjacent doubles rounds to z, and of huge ones
        # overflows; a still parts the samples
        mid = 0.5 * (a + z)
        feat[r] = np.where(valid.reshape(r.size, -1).any(axis=1), F[b, k], -1)
        thr[r] = np.where((a <= mid) & (mid < z), mid, a)
    return feat, thr


def _partition(S, XT, row_of, n, tree, start, size, feat, thr):
    """Stably partition every row of each split node's columns, samples with
    ``x[feat] <= thr`` first; returns the left sizes."""
    seg = np.repeat(np.arange(size.size), size)
    k = np.arange(seg.size) - (np.cumsum(size) - size)[seg]  # column within the node
    cols = (tree * n + start)[seg] + k
    samples = S[:, cols]
    # which side each sample goes to, read through every row
    goes = np.zeros(S.shape[1], dtype=bool)
    goes[samples[-1]] = XT.reshape(-1)[feat[seg] * XT.shape[1] + row_of[samples[-1]]] <= thr[seg]
    goes = goes[samples]
    n_left = np.bincount(seg[goes[-1]], minlength=size.size)
    # every row sends the same number of samples left, so row by row, node
    # by node, the left-goers fill the left children's columns in order
    left = k < n_left[seg]
    S[:, cols[left]] = samples[goes].reshape(len(S), -1)
    S[:, cols[~left]] = samples[~goes].reshape(len(S), -1)
    return n_left


def _assemble(levels, y_asc, n_classes) -> Forest:
    """The forest's node arrays from the frontiers of every depth, which it
    empties; ``y_asc`` holds each tree's targets in its final ascending row,
    leaf by leaf. Each temporary is dropped once used: one call holds the
    nodes of many trees."""
    T, n = y_asc.shape
    counts = [level[0].size for level in levels]
    tree, start, size, feature, threshold = (np.concatenate(x) for x in zip(*levels))
    levels.clear()
    split = feature >= 0
    # the leaves tile the rows
    leaf = np.flatnonzero(~split)
    leaf = leaf[np.argsort(tree[leaf] * n + start[leaf])]
    targets = y_asc.reshape(-1)
    if n_classes is not None:
        targets = np.eye(n_classes)[targets]
    sums = np.add.reduceat(targets, tree[leaf] * n + start[leaf], axis=0)
    payload = np.zeros((tree.size,) + sums.shape[1:])
    payload[leaf] = sums / (size[leaf] if n_classes is None else size[leaf, None])
    del start, size, leaf, targets, sums
    # each tree's nodes, depth by depth in frontier order, are its breadth-first ids
    order = np.argsort(tree, kind="stable")
    n_nodes = np.bincount(tree, minlength=T)
    first_id = np.cumsum(n_nodes) - n_nodes
    node_id = np.empty_like(order)
    node_id[order] = np.arange(order.size) - first_id[tree[order]]
    del tree
    # the k-th split of a depth has its children at 2k and 2k + 1 of the next
    depth = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum([0, *counts])
    before = np.cumsum(split) - split
    left = np.where(split, offsets[depth + 1] + 2 * (before - before[offsets[depth]]), -1)
    del depth, before
    left = np.where(split, node_id[left], -1)[order]
    del node_id
    right = np.where(left >= 0, left + 1, -1)
    threshold = np.where(split, threshold, 0.0)[order]
    feature = feature[order]
    leaf = "value" if n_classes is None else "dist"
    return Forest(n_classes, first_id, feature, threshold, left, right, **{leaf: payload[order]})


# Sorted sample positions (trees x (features + 1) x samples) that one call of
# the grower holds, 4 bytes each. With its other temporaries (per-tree
# samples and targets, partition, split search blocks, frontiers and node
# arrays) a call peaks at about 24 bytes a position with 4 features and 14
# with 20: 6.0 and 3.3 MiB at this bound for regression trees, on top of the
# trees it returns (2.6 MiB for the 149 trees of the 4-feature call).
_GROW_CELLS = 1 << 18


def fit_forest(X, y, hp, stream, n_classes=None) -> Forest:
    """Fit a random forest on every row of ``X`` (see :func:`fit_forests`)."""
    return fit_forests(X, [(slice(None), y, stream)], hp, n_classes)[0]


def fit_forests(X, jobs, hp, n_classes=None) -> list[Forest]:
    """Fit one random forest per job ``(rows, y, stream)``: the rows
    ``X[rows]``, targets ``y`` aligned to them, and a tuple of ids naming
    the RNG substream, so sibling models stay independent but reproducible.

    Tree t of a job has its own generator, ``rng_stream(hp.seed, *stream,
    t)``, which draws the tree's bootstrap over ``len(rows)``, then its
    features. A tree does not depend on its siblings, so the trees of all
    jobs grow together: pooled by sample count, in groups of at most
    ``_GROW_CELLS`` sorted positions.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    dtype = np.float64 if n_classes is None else np.int64
    jobs = [(np.arange(X.shape[0])[rows], np.asarray(y, dtype=dtype), s) for rows, y, s in jobs]
    if any(rows.size == 0 for rows, _, _ in jobs):
        raise ValueError("cannot fit a forest on an empty training set")
    mtry = (hp.features_per_split or int(np.ceil(np.sqrt(d)))) if d else None
    grown = []
    by_size = sorted(range(len(jobs)), key=lambda j: jobs[j][0].size)
    for n, same in itertools.groupby(by_size, key=lambda j: jobs[j][0].size):
        trees = [(j, t) for j in same for t in range(hp.n_trees)]
        # as few groups as the bound allows, of near-equal size
        n_groups = -(-len(trees) // max(1, _GROW_CELLS // (n * (d + 1))))
        for g in range(n_groups):
            group = trees[g * len(trees) // n_groups : (g + 1) * len(trees) // n_groups]
            rngs = [rng_stream(hp.seed, *jobs[j][2], t) for j, t in group]
            picks = [rng.integers(0, n, size=n) for rng in rngs]
            boot = np.stack([jobs[j][0][p] for (j, _), p in zip(group, picks)])
            Y = np.stack([jobs[j][1][p] for (j, _), p in zip(group, picks)])
            grown.append(_grow_trees(X, Y, boot, rngs, hp.min_leaf, mtry, n_classes))
    # each job's trees are one run of the joined forest, the jobs in the order they grew
    forest = _join(grown)
    return [forest._trees(i * hp.n_trees, (i + 1) * hp.n_trees) for i in np.argsort(by_size)]


# ---------------------------------------------------------------------------
# k nearest neighbors


_KNN_CELLS = 1 << 14  # distance cells a neighbour search holds at once


@dataclass
class KNN:
    """Brute-force Euclidean k-NN store. Distance ties resolve by the
    training index order, so duplicates behave deterministically."""

    X: np.ndarray
    k: int

    def neighbors(self, Q: np.ndarray) -> np.ndarray:
        """The (m, k) indices of the nearest training rows of each query row,
        nearest first: per row, the first k of a stable argsort of its squared
        distances (inf and NaN last). One ``cdist`` call fills a block of at
        most ``_KNN_CELLS`` distance cells; every index at or below its row's
        k-th smallest distance is a candidate (more than k only on ties there),
        and one lexsort by (row, distance, index) orders the block's candidates.
        """
        n, m = self.X.shape[0], len(Q)
        k = min(self.k, n)
        rows = max(1, _KNN_CELLS // n)
        out = np.empty((m, k), dtype=np.int64)
        for start in range(0, m, rows):
            block = cdist(Q[start : start + rows], self.X, "sqeuclidean")
            kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
            row, col = np.nonzero((block <= kth) | np.isnan(kth))
            order = np.lexsort((col, block[row, col], row))
            first = np.searchsorted(row, np.arange(len(block)))  # row is sorted
            out[start : start + len(block)] = col[order][first[:, None] + np.arange(k)]
        return out


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeans:
    centroids: np.ndarray

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Each row's nearest centroid by squared distance: the first on a tie, or the first NaN."""
        return np.argmin(cdist(X, self.centroids, "sqeuclidean"), axis=1)


def fit_kmeans(X, k, rng) -> KMeans:
    """At most 100 Lloyd iterations, stopping at a 1e-6 shift, from a k-means++ style seeding.

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

    for _ in range(100):
        assign = KMeans(centroids).assign(X)
        new = centroids.copy()
        for c in range(k):
            members = X[assign == c]
            if members.size:
                new[c] = members.mean(axis=0)
        shift = np.max(np.abs(new - centroids))
        centroids = new
        if shift < 1e-6:
            break
    return KMeans(centroids=centroids)
