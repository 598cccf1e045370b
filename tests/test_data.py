import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from batchlab import data


def bundles_equal(a: data.DatasetBundle, b: data.DatasetBundle) -> bool:
    """Content equality (features, labels, adjacency); dataset id ignored."""
    if not np.array_equal(a.features, b.features) or not np.array_equal(a.labels, b.labels):
        return False
    if (a.adjacency is None) != (b.adjacency is None):
        return False
    if a.adjacency is not None:
        return (a.adjacency != b.adjacency).nnz == 0
    return True


class TestSplit:
    def test_exact_sizes(self):
        splits = data.split(10, (0.6, 0.2, 0.2), seed=0)
        assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (6, 2, 2)

    def test_disjoint_union(self):
        splits = data.split(100, (0.5, 0.25, 0.25), seed=3)
        combined = np.concatenate([splits["train"], splits["val"], splits["test"]])
        assert len(np.unique(combined)) == len(combined) == 100

    def test_deterministic(self):
        a = data.split(50, (0.6, 0.2, 0.2), seed=9)
        b = data.split(50, (0.6, 0.2, 0.2), seed=9)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_fractions_over_one(self):
        with pytest.raises(ValueError):
            data.split(10, (0.8, 0.2, 0.2), seed=0)


class TestDatasetArguments:
    @pytest.mark.parametrize(
        "build, kwargs, message",
        [
            (data.make_blobs, {"seed": True}, "seed must be an integer"),
            (data.make_blobs, {"d": 4.0}, "d must be an integer"),
            (data.make_blobs, {"separation": True}, "separation must be a finite number"),
            (data.make_blobs, {"label_noise": float("nan")}, "label_noise must be a finite"),
            (data.make_blobs, {"fractions": (0.6, "0.2", 0.2)}, r"fractions\[1\] must be a finite"),
            (data.make_sbm_graph, {"seed": False}, "seed must be an integer"),
            (data.make_sbm_graph, {"feature_signal": True}, "feature_signal must be a finite"),
            (data.make_sbm_graph, {"p_out": True}, "p_out must be a finite number"),
        ],
        ids=[
            "blobs_seed_bool",
            "blobs_d_float",
            "blobs_separation_bool",
            "blobs_label_noise_nan",
            "blobs_fraction_string",
            "sbm_seed_bool",
            "sbm_signal_bool",
            "sbm_p_out_bool",
        ],
    )
    def test_booleans_and_strings_rejected(self, build, kwargs, message):
        # a JSON true is neither an integer nor a real number: seed=True used
        # to build the data of seed 1 under the id "...-seedTrue"
        base = {"n": 60, "d": 4, "num_classes": 2}
        if build is data.make_sbm_graph:
            base.update(p_in=0.2, p_out=0.02)
        with pytest.raises(ValueError, match=message):
            build(**{**base, **kwargs})

    def test_numpy_scalars_accepted(self):
        bundle = data.make_blobs(np.int64(60), 4, 2, separation=np.float64(2.0), seed=np.int64(3))
        assert bundle.dataset_id == "blobs-n60-d4-k2-seed3"


class TestBlobs:
    def test_deterministic_bytes(self):
        a = data.make_blobs(100, 4, 3, seed=5)
        b = data.make_blobs(100, 4, 3, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.features.tobytes() == b.features.tobytes()

    def test_label_noise_flip_fraction(self):
        clean = data.make_blobs(2000, 4, 3, label_noise=0.0, seed=7)
        noisy = data.make_blobs(2000, 4, 3, label_noise=0.2, seed=7)
        train = clean.splits["train"]
        flipped = (clean.labels[train] != noisy.labels[train]).mean()
        assert flipped == pytest.approx(0.2, abs=0.03)
        # val/test labels stay clean
        for key in ("val", "test"):
            np.testing.assert_array_equal(
                clean.labels[clean.splits[key]], noisy.labels[noisy.splits[key]]
            )

    def test_well_separated_clusters_nearest_center_accuracy(self):
        # Bayes rule for equal-covariance Gaussians is nearest-center
        bundle = data.make_blobs(600, 6, 3, separation=10.0, label_noise=0.0, seed=1)
        centers = np.stack(
            [bundle.features[bundle.labels == c].mean(axis=0) for c in range(3)]
        )
        d2 = ((bundle.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        acc = (np.argmin(d2, axis=1) == bundle.labels).mean()
        assert acc >= 0.99

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            data.make_blobs(10, 4, 3, separation=0.0)
        with pytest.raises(ValueError):
            data.make_blobs(10, 4, 3, label_noise=0.5)
        with pytest.raises(ValueError):
            data.make_blobs(1, 4, 3)


class TestSbm:
    def test_no_cross_block_edges_when_p_out_zero(self):
        bundle = data.make_sbm_graph(120, 3, p_in=0.2, p_out=0.0, d=4, seed=2)
        adj = bundle.adjacency.tocoo()
        assert all(bundle.labels[i] == bundle.labels[j] for i, j in zip(adj.row, adj.col))

    def test_within_block_edge_count_binomial(self):
        n, k, p_in = 900, 3, 0.05
        bundle = data.make_sbm_graph(n, k, p_in=p_in, p_out=0.0, d=4, seed=4)
        per_block = n // k
        trials = k * per_block * (per_block - 1) // 2
        expected = trials * p_in
        sigma = np.sqrt(trials * p_in * (1 - p_in))
        observed = bundle.adjacency.nnz / 2
        assert abs(observed - expected) <= 3 * sigma

    def test_symmetric_zero_diagonal(self):
        bundle = data.make_sbm_graph(80, 2, p_in=0.3, p_out=0.05, d=3, seed=6)
        adj = bundle.adjacency
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0.0

    def test_deterministic(self):
        a = data.make_sbm_graph(60, 2, p_in=0.3, p_out=0.05, d=3, seed=8)
        b = data.make_sbm_graph(60, 2, p_in=0.3, p_out=0.05, d=3, seed=8)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_array_equal(a.features, b.features)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            data.make_sbm_graph(30, 2, p_in=0.1, p_out=0.2, d=3)


def all_train(n):
    """Splits that put all n rows in train."""
    return {"train": np.arange(n), "val": np.arange(0), "test": np.arange(0)}


class TestDatasetBundle:
    def bundle(self, features, labels):
        return data.DatasetBundle(features, labels, None, all_train(len(labels)))

    def test_valid_arrays_kept(self):
        b = self.bundle(np.ones((3, 2)), np.array([0, 2, 1], dtype=np.int32))
        assert b.features.dtype == np.float64 and b.labels.dtype == np.int64
        assert b.num_classes == 3

    def test_non_finite_features_rejected(self):
        features = np.ones((3, 2))
        features[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite feature value in row 2"):
            self.bundle(features, np.array([0, 1, 0]))

    @pytest.mark.parametrize(
        "features",
        [np.ones(3), np.ones((0, 2)), np.ones((3, 0))],
        ids=["1-d", "no-rows", "no-cols"],
    )
    def test_features_must_be_nonempty_matrix(self, features):
        with pytest.raises(ValueError, match="nonempty"):
            data.DatasetBundle(features, np.zeros(len(features), dtype=int), None, {})

    @pytest.mark.parametrize(
        "labels",
        [np.array([0, 1]), np.array([0.0, 1.0, 1.0]), np.array([[0, 1, 0]])],
        ids=["short", "float", "2-d"],
    )
    def test_labels_must_be_length_n_integers(self, labels):
        with pytest.raises(ValueError, match="length-n vector of integers"):
            data.DatasetBundle(np.ones((3, 2)), labels, None, {})

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="negative label in row 1"):
            self.bundle(np.ones((3, 2)), np.array([0, -2, 1]))

    @pytest.mark.parametrize(
        "splits, message",
        [
            ({}, "missing 'train' split"),
            ({"train": np.arange(2), "test": np.arange(2, 3)}, "missing 'val' split"),
            (dict(all_train(3), extra=np.arange(0)), "splits must be exactly"),
            (dict(all_train(3), val=np.arange(2, 4)), "out of range"),
            (dict(all_train(3), test=np.arange(1)), "disjoint"),
        ],
        ids=["none", "no-val", "extra", "out-of-range", "overlap"],
    )
    def test_splits_rejected(self, splits, message):
        with pytest.raises(ValueError, match=message):
            data.DatasetBundle(np.ones((3, 2)), np.array([0, 1, 0]), None, splits)

    @staticmethod
    def path_graph():
        # 0 - 1 - 2
        return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    @staticmethod
    def graph_bundle(adjacency):
        return data.DatasetBundle(np.ones((3, 2)), np.array([0, 1, 0]), adjacency, all_train(3))

    def test_adjacency_stored_as_csr(self):
        b = self.graph_bundle(self.path_graph())
        assert isinstance(b.adjacency, sp.csr_matrix)
        np.testing.assert_array_equal(b.adjacency.toarray(), self.path_graph())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: np.eye(7), "adjacency must be 3 x 3"),
            (np.tril, "symmetric"),
            (lambda a: -a, "finite and nonnegative"),
            (lambda a: np.where(a > 0, np.inf, 0.0), "finite and nonnegative"),
            (lambda a: np.where(a > 0, np.nan, 0.0), "finite and nonnegative"),
        ],
        ids=["not-n-by-n", "lower-triangle", "negative", "infinite", "nan"],
    )
    def test_adjacency_rejected(self, edit, message):
        adjacency = sp.csr_matrix(edit(self.path_graph()))
        with pytest.raises(ValueError, match=message):
            self.graph_bundle(adjacency)


class TestTabularGraphFiles:
    def write_files(self, tmp_path, nodes, edges):
        np_, ep_ = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        np_.write_text(nodes)
        ep_.write_text(edges)
        return np_, ep_

    def test_symmetrization(self, tmp_path):
        nodes = "id,f1,f2,label\n0,0.1,0.2,0\n1,0.3,0.4,1\n2,0.5,0.6,0\n"
        edges = "src,dst\n0,1\n"
        bundle = data.load_tabular_graph(*self.write_files(tmp_path, nodes, edges))
        adj = bundle.adjacency.toarray()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(adj, expected)
        digest = hashlib.sha256((nodes + edges).encode()).hexdigest()
        assert bundle.dataset_id == "files-" + digest[:12]

    def test_dangling_endpoint_names_line(self, tmp_path):
        nodes = "id,f1,label\n0,0.1,0\n1,0.2,1\n2,0.3,0\n"
        edges = "src,dst\n0,1\n1,99\n"
        with pytest.raises(data.GraphFileError, match=r"edges\.csv:3.*99"):
            data.load_tabular_graph(*self.write_files(tmp_path, nodes, edges))

    def test_duplicate_node_id(self, tmp_path):
        nodes = "id,f1,label\n0,0.1,0\n0,0.2,1\n"
        edges = "src,dst\n"
        with pytest.raises(data.GraphFileError, match="duplicate"):
            data.load_tabular_graph(*self.write_files(tmp_path, nodes, edges))

    def test_malformed_row_names_line(self, tmp_path):
        nodes = "id,f1,label\n0,0.1,0\n1,not_a_number,1\n"
        edges = "src,dst\n"
        with pytest.raises(data.GraphFileError, match=r"nodes\.csv:3"):
            data.load_tabular_graph(*self.write_files(tmp_path, nodes, edges))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        nodes = f"id,f1,f2,label\n0,0.1,0.2,0\n1,0.3,{value},1\n2,0.5,0.6,0\n"
        with pytest.raises(ValueError, match="non-finite feature value in row 1"):
            data.load_tabular_graph(*self.write_files(tmp_path, nodes, "src,dst\n0,1\n"))

    def test_negative_label_rejected(self, tmp_path):
        nodes = "id,f1,label\n0,0.1,0\n1,0.2,1\n2,0.3,-1\n"
        with pytest.raises(ValueError, match="negative label in row 2"):
            data.load_tabular_graph(*self.write_files(tmp_path, nodes, "src,dst\n0,1\n"))

    def test_round_trip(self, tmp_path):
        bundle = data.make_sbm_graph(40, 2, p_in=0.3, p_out=0.1, d=3, seed=12)
        np_, ep_ = tmp_path / "n.csv", tmp_path / "e.csv"
        data.save_tabular_graph(bundle, np_, ep_)
        reloaded = data.load_tabular_graph(np_, ep_)
        assert bundles_equal(bundle, reloaded)

    def test_self_loops_dropped(self, tmp_path):
        nodes = "id,f1,label\n0,0.1,0\n1,0.2,1\n"
        edges = "src,dst\n0,0\n0,1\n"
        bundle = data.load_tabular_graph(*self.write_files(tmp_path, nodes, edges))
        assert bundle.adjacency.diagonal().sum() == 0.0


class TestEdgeList:
    def test_upper_triangle_pairs(self):
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        edges = data.edge_list(adj)
        assert sorted(map(tuple, edges.tolist())) == [(0, 1), (1, 2)]

    def test_edgeless_adjacency(self):
        assert data.edge_list(sp.csr_matrix((3, 3))).shape == (0, 2)
