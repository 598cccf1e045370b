"""Helpers shared by the test modules."""

import json
from collections.abc import Callable
from pathlib import Path

from batchlab import causal, data


def index_scheme(k_b: int, k_g: int) -> dict:
    """The scheme whose batch-size levels are the bin indices ``0..k_b-1`` and
    whose generalization representatives are ``0..k_g-1``. On it, hand-built
    tables are queried by bin index, and a query's expected outcome is the
    mean of its outcome bin index."""
    return {
        causal.VAR_BATCH: causal.DiscreteBinning(levels=tuple(range(k_b))),
        causal.VAR_GENERALIZATION: causal.ContinuousBinning(
            cuts=tuple(g + 0.5 for g in range(k_g - 1)),
            representatives=tuple(float(g) for g in range(k_g)),
        ),
    }


def levels_scheme(k: dict[str, int]) -> dict:
    """The scheme whose levels of each variable ``v`` are its bin indices
    ``0..k[v]-1``: a table of bin indices is fitted on it as it stands."""
    return {v: causal.DiscreteBinning(levels=tuple(range(n))) for v, n in k.items()}


def as_version_1(path) -> None:
    """Rewrite the record file at ``path`` as records were written before
    they carried a fingerprint: each line with ``schema_version`` 1 and
    every other field but ``fingerprint``, in place."""
    path = Path(path)
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        del record["fingerprint"]
        record["schema_version"] = 1
        lines.append(json.dumps(record))
    path.write_text("".join(line + "\n" for line in lines))


# one change each to the data a dataset section builds
DATA_CHANGES = ("blobs_label_noise", "sbm_p_in", "files_split_seed", "files_nodes_byte")


def changed_dataset(name: str, tmp_path) -> tuple[dict, Callable[[], dict]]:
    """A dataset section, and a function that makes the change ``name`` (one
    of ``DATA_CHANGES``) and returns the section to sweep after it: a
    generator argument, the split seed of CSV data, or one byte of its
    nodes.csv (the section stays the same)."""
    if name == "blobs_label_noise":
        section = {"kind": "blobs", "n": 120, "d": 4, "num_classes": 2, "label_noise": 0.2}
        return section, lambda: dict(section, label_noise=0.0)
    if name == "sbm_p_in":
        section = {"kind": "sbm", "n": 60, "num_classes": 2, "p_in": 0.2, "p_out": 0.02, "d": 3}
        return section, lambda: dict(section, p_in=0.3)
    nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
    data.save_tabular_graph(data.make_sbm_graph(60, 2, 0.2, 0.02, 3, seed=1), nodes, edges)
    section = {"kind": "files", "nodes": str(nodes), "edges": str(edges)}
    if name == "files_split_seed":
        return section, lambda: dict(section, seed=1)

    def edit_one_byte() -> dict:
        # the first digit after a decimal point, in the first node's features
        text = nodes.read_bytes()
        i = text.index(b".", text.index(b"\n")) + 1
        nodes.write_bytes(text[:i] + (b"2" if text[i : i + 1] == b"1" else b"1") + text[i + 1 :])
        return section

    return section, edit_one_byte
