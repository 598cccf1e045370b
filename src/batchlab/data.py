"""Synthetic dataset generators and CSV graph ingestion.

Desk-scale stand-ins for citation-network-class data: Gaussian blob
classification, a stochastic block model with class-informative features, and
a loader for (nodes.csv, edges.csv) pairs. Every generator is a pure function
of its arguments including the seed.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .models import require_integers, require_reals


@dataclass
class DatasetBundle:
    """Features, labels, optional adjacency, and named index splits.

    The one data boundary: every dataset (generated or loaded) is validated
    here, so the model kernels can trust the arrays they are given. Features
    must form a nonempty, all-finite [n x d] matrix, labels a length-n vector
    of nonnegative integers, and the splits the disjoint ``SPLITS``. An
    adjacency must be a symmetric [n x n] matrix of finite, nonnegative
    weights; it is stored as CSR. ``dataset_id`` names the data in every
    run record made on it.
    """

    SPLITS = ("train", "val", "test")

    features: np.ndarray
    labels: np.ndarray
    adjacency: sp.csr_matrix | None
    splits: dict[str, np.ndarray]
    dataset_id: str = "unknown"

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.size == 0:
            raise ValueError("features must be a nonempty [n x d] matrix")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite feature value in row {bad[0]}")
        n = self.features.shape[0]
        labels = np.asarray(self.labels)
        if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be a length-n vector of integers")
        if labels.min() < 0:
            raise ValueError(f"negative label in row {np.argmax(labels < 0)}")
        self.labels = labels.astype(np.int64, copy=False)
        for name in self.SPLITS:
            if name not in self.splits:
                raise ValueError(f"missing {name!r} split")
        if len(self.splits) != len(self.SPLITS):
            raise ValueError(f"splits must be exactly {self.SPLITS}, got {sorted(self.splits)}")
        seen = np.concatenate([np.asarray(v) for v in self.splits.values()])
        if seen.size and (seen.min() < 0 or seen.max() >= n):
            raise ValueError("split indices out of range")
        if len(np.unique(seen)) != seen.size:
            raise ValueError("splits must be disjoint")
        if self.adjacency is not None:
            adj = sp.csr_matrix(self.adjacency, dtype=np.float64)
            if adj.shape != (n, n):
                raise ValueError(f"adjacency must be {n} x {n}, got {adj.shape}")
            if not np.isfinite(adj.data).all() or (adj.data < 0).any():
                raise ValueError("adjacency entries must be finite and nonnegative")
            if (adj != adj.T).nnz:
                raise ValueError("adjacency must be symmetric")
            self.adjacency = adj

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def split(n: int, fractions, seed: int) -> dict[str, np.ndarray]:
    """Seeded permutation cut into train/val/test by cumulative rounding."""
    fractions = tuple(fractions)
    if len(fractions) != 3:
        raise ValueError("fractions must be (train, val, test)")
    require_reals(**{f"fractions[{i}]": f for i, f in enumerate(fractions)})
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if sum(fractions) > 1.0 + 1e-12:
        raise ValueError("fractions must sum to at most 1")
    perm = np.random.default_rng(seed).permutation(n)
    bounds = [int(round(c * n)) for c in np.cumsum(fractions)]
    return {
        "train": np.sort(perm[: bounds[0]]),
        "val": np.sort(perm[bounds[0] : bounds[1]]),
        "test": np.sort(perm[bounds[1] : bounds[2]]),
    }


def _class_directions(num_classes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    # Axis-aligned when possible (pairwise center distance is then exact),
    # otherwise seeded random unit directions.
    if num_classes <= dim:
        return np.eye(num_classes, dim)
    dirs = rng.standard_normal((num_classes, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def make_blobs(
    n: int,
    d: int,
    num_classes: int,
    separation: float = 3.0,
    label_noise: float = 0.0,
    seed: int = 0,
    fractions=(0.6, 0.2, 0.2),
) -> DatasetBundle:
    """Gaussian clusters with unit covariance and optional train-label noise.

    Cluster centers sit ``separation`` apart pairwise (exactly, when
    num_classes <= d). ``label_noise`` resamples that fraction of *training*
    labels to a uniformly random different class, so the measured flip rate on
    the train split equals the requested fraction; val/test labels stay clean.
    """
    require_integers(n=n, d=d, num_classes=num_classes, seed=seed)
    require_reals(separation=separation, label_noise=label_noise)
    if not (n >= num_classes >= 2):
        raise ValueError("need n >= num_classes >= 2")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if not (0.0 <= label_noise < 0.5):
        raise ValueError("label_noise must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    centers = _class_directions(num_classes, d, rng) * (separation / np.sqrt(2.0))
    labels = rng.permutation(np.resize(np.arange(num_classes), n))
    features = centers[labels] + rng.standard_normal((n, d))
    splits = split(n, fractions, seed)
    if label_noise > 0.0:
        train = splits["train"]
        n_flip = int(round(label_noise * train.size))
        flip_idx = rng.choice(train, size=n_flip, replace=False)
        offsets = rng.integers(1, num_classes, size=n_flip)
        labels = labels.copy()
        labels[flip_idx] = (labels[flip_idx] + offsets) % num_classes
    return DatasetBundle(
        features=features,
        labels=labels,
        adjacency=None,
        splits=splits,
        dataset_id=f"blobs-n{n}-d{d}-k{num_classes}-seed{seed}",
    )


def make_sbm_graph(
    n: int,
    num_classes: int,
    p_in: float,
    p_out: float,
    d: int,
    feature_signal: float = 2.0,
    seed: int = 0,
    fractions=(0.6, 0.2, 0.2),
) -> DatasetBundle:
    """Stochastic block model with equal blocks and class-informative features.

    Node features are the block's mean direction (norm = feature_signal) plus
    unit Gaussian noise. The adjacency is symmetric with zero diagonal.
    """
    require_integers(n=n, num_classes=num_classes, d=d, seed=seed)
    require_reals(p_in=p_in, p_out=p_out, feature_signal=feature_signal)
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if not (n >= num_classes >= 2):
        raise ValueError("need n >= num_classes >= 2")
    rng = np.random.default_rng(seed)
    sizes = [n // num_classes + (1 if c < n % num_classes else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), sizes)
    rows, cols = [], []
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for a in range(num_classes):
        for b in range(a, num_classes):
            p = p_in if a == b else p_out
            ia = np.arange(starts[a], starts[a + 1])
            ib = np.arange(starts[b], starts[b + 1])
            mask = rng.random((ia.size, ib.size)) < p
            if a == b:
                mask = np.triu(mask, k=1)
            r, c = np.nonzero(mask)
            rows.append(ia[r])
            cols.append(ib[c])
    r = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    c = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    data = np.ones(r.size)
    adj = sp.coo_matrix((data, (r, c)), shape=(n, n)).tocsr()
    adj = adj + adj.T
    centers = _class_directions(num_classes, d, rng) * feature_signal
    features = centers[labels] + rng.standard_normal((n, d))
    return DatasetBundle(
        features=features,
        labels=labels,
        adjacency=adj,
        splits=split(n, fractions, seed),
        dataset_id=f"sbm-n{n}-k{num_classes}-seed{seed}",
    )


class GraphFileError(ValueError):
    """Malformed nodes/edges CSV input."""


def load_tabular_graph(
    nodes,
    edges,
    seed: int = 0,
    fractions=(0.6, 0.2, 0.2),
) -> DatasetBundle:
    """Load a graph dataset from the documented two-CSV schema.

    nodes.csv: header ``id,f1,...,fd,label``; ids must cover 0..n-1 exactly.
    edges.csv: header ``src,dst``; endpoints must be valid ids. Edges are
    symmetrized and self-loops dropped. The dataset id is a content digest of
    both files.
    """
    require_integers(seed=seed)
    nodes_path, edges_path = Path(nodes), Path(edges)
    nodes_bytes = nodes_path.read_bytes()
    edges_bytes = edges_path.read_bytes()
    digest = hashlib.sha256(nodes_bytes + edges_bytes).hexdigest()

    rows = list(csv.reader(nodes_bytes.decode("utf-8").splitlines()))
    if not rows or len(rows[0]) < 3 or rows[0][0] != "id" or rows[0][-1] != "label":
        raise GraphFileError(f"{nodes_path}: header must be id,<features...>,label")
    width = len(rows[0])
    ids, feats, labels = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise GraphFileError(f"{nodes_path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            ids.append(int(row[0]))
            feats.append([float(v) for v in row[1:-1]])
            labels.append(int(row[-1]))
        except ValueError as exc:
            raise GraphFileError(f"{nodes_path}:{lineno}: {exc}") from exc
    n = len(ids)
    if n == 0:
        raise GraphFileError(f"{nodes_path}: no node rows")
    if len(set(ids)) != n:
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise GraphFileError(f"{nodes_path}: duplicate node id {dupes[0]}")
    if set(ids) != set(range(n)):
        raise GraphFileError(f"{nodes_path}: node ids must cover 0..{n - 1}")
    order = np.argsort(ids)
    features = np.asarray(feats, dtype=np.float64)[order]
    labels_arr = np.asarray(labels, dtype=np.int64)[order]

    erows = list(csv.reader(edges_bytes.decode("utf-8").splitlines()))
    if not erows or erows[0][:2] != ["src", "dst"]:
        raise GraphFileError(f"{edges_path}: header must be src,dst")
    src, dst = [], []
    for lineno, row in enumerate(erows[1:], start=2):
        if len(row) != 2:
            raise GraphFileError(f"{edges_path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            a, b = int(row[0]), int(row[1])
        except ValueError as exc:
            raise GraphFileError(f"{edges_path}:{lineno}: {exc}") from exc
        for endpoint in (a, b):
            if not (0 <= endpoint < n):
                raise GraphFileError(
                    f"{edges_path}:{lineno}: dangling endpoint {endpoint} (have {n} nodes)"
                )
        if a != b:
            src.extend([a, b])
            dst.extend([b, a])
    adj = sp.coo_matrix(
        (np.ones(len(src)), (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))),
        shape=(n, n),
    ).tocsr()
    adj.data[:] = 1.0  # collapse duplicate edge rows
    return DatasetBundle(
        features=features,
        labels=labels_arr,
        adjacency=adj,
        splits=split(n, fractions, seed),
        dataset_id=f"files-{digest[:12]}",
    )


# Dataset kind -> builder; the builder's parameters are the config's dataset keys.
BUILDERS = {"blobs": make_blobs, "sbm": make_sbm_graph, "files": load_tabular_graph}


def save_tabular_graph(bundle: DatasetBundle, nodes_path, edges_path) -> None:
    """Write a bundle back to the two-CSV schema (floats via repr round-trip)."""
    nodes_path, edges_path = Path(nodes_path), Path(edges_path)
    d = bundle.features.shape[1]
    with nodes_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j + 1}" for j in range(d)] + ["label"])
        for i in range(bundle.n):
            writer.writerow(
                [i] + [repr(float(v)) for v in bundle.features[i]] + [int(bundle.labels[i])]
            )
    with edges_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        if bundle.adjacency is not None:
            coo = sp.triu(bundle.adjacency, k=1).tocoo()
            for a, b in sorted(zip(coo.row.tolist(), coo.col.tolist())):
                writer.writerow([a, b])


def edge_list(adjacency: sp.csr_matrix) -> np.ndarray:
    """Upper-triangle (i, j) pairs of a symmetric adjacency, as an [m x 2] array."""
    coo = sp.triu(adjacency, k=1).tocoo()
    return np.stack([coo.row, coo.col], axis=1).astype(np.int64)
