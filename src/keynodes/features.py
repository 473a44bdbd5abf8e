"""Per-node feature views: profile attributes and random-walk statistics."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .graphs import CascadeGraph
from .seeding import derived_seed

USER_DIM = 9
STRUCT_DIM = 8

# count-like user columns that get log(1+x) before z-scoring: name length,
# description length, followers, friends, statuses, retweet delay
_USER_LOG_COLS = (0, 1, 2, 3, 4, 7)


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 10
    walk_len: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.walks_per_node < 1 or self.walk_len < 1:
            raise DataError("walks_per_node and walk_len must be >= 1")
        if self.rng_seed < 0:
            raise DataError("rng_seed must be >= 0")


@dataclass(frozen=True)
class FeatureMatrix:
    values: np.ndarray  # (N, F) float64
    view_tag: str  # "user" | "structure"

    def __post_init__(self):
        if self.view_tag not in ("user", "structure"):
            raise DataError(f"unknown view tag {self.view_tag!r}")
        if not np.isfinite(self.values).all():
            raise DataError(f"{self.view_tag} features contain NaN/Inf")


def user_feature_matrix(g: CascadeGraph) -> FeatureMatrix:
    """Raw (unnormalized) user-attribute view, one row per node.

    Columns: name chars, description chars, followers, friends, statuses,
    verified, geo_enabled, retweet delay seconds, hops from the source.
    A node's retweet delay is the smallest delay of its kept in-edges, 0 if
    it has none.  Absent fields map to 0; an unreachable node has 0 hops.
    """
    dist = g.source_hops
    mat = np.zeros((g.n, USER_DIM), dtype=np.float64)
    delay = np.full(g.n, np.inf)
    np.minimum.at(delay, g.edges[:, 1], g.delays)
    mat[:, 7] = np.where(np.isfinite(delay), delay, 0.0)
    for v in range(g.n):
        u = g.users[v] if g.users is not None else None
        if u is not None:
            mat[v, 0] = len(u.name) if u.name is not None else 0
            mat[v, 1] = len(u.description) if u.description is not None else 0
            mat[v, 2] = u.followers_count or 0
            mat[v, 3] = u.friends_count or 0
            mat[v, 4] = u.statuses_count or 0
            mat[v, 5] = 1.0 if u.verified else 0.0
            mat[v, 6] = 1.0 if u.geo_enabled else 0.0
        mat[v, 8] = max(int(dist[v]), 0)
    return FeatureMatrix(mat, "user")


def _zscore(mat: np.ndarray) -> np.ndarray:
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    out = (mat - mean) / safe
    out[:, std == 0] = 0.0
    return out


def normalize_features(m: FeatureMatrix) -> FeatureMatrix:
    """Per-graph normalization: log(1+x) on count-like user columns, then
    z-score every column; zero-variance columns become all zeros."""
    vals = m.values.astype(np.float64, copy=True)
    if m.view_tag == "user":
        for c in _USER_LOG_COLS:
            vals[:, c] = np.log1p(vals[:, c])
    return FeatureMatrix(_zscore(vals), m.view_tag)


def raw_walk_statistics(g: CascadeGraph, cfg: WalkConfig) -> np.ndarray:
    """Unnormalized (N, 8) walk statistics.

    Columns: out-degree and in-degree (each over n-1), mean and max
    out-degree of visited nodes, return frequency, distinct-visit ratio,
    fraction of walks that ran the full length without getting stuck, and
    mean depth reached.  All N * walks_per_node walks advance together over
    the graph's CSR (``CascadeGraph.csr``), drawing from one generator seeded
    with ``cfg.rng_seed``, so the draws depend only on (graph, rng_seed), not
    on edge order.
    """
    n, walks, steps = g.n, cfg.walks_per_node, cfg.walk_len
    indptr, indices = g.csr
    outdeg = np.diff(indptr)
    start = np.repeat(np.arange(n), walks)
    cur, depth, depth_sum = start, 0, 0
    stuck = np.zeros(start.size, dtype=bool)
    visited = np.empty((start.size, steps), dtype=np.int64)
    rng = np.random.default_rng(cfg.rng_seed)
    for t in range(steps):
        deg = outdeg[cur]
        move = deg > 0
        # floor(u * deg) can round up to deg; stuck walks never index `indices`
        off = np.minimum((rng.random(start.size) * deg).astype(np.int64), deg - 1)
        nxt = start.copy()
        nxt[move] = indices[indptr[cur[move]] + off[move]]
        visited[:, t] = cur = nxt
        depth = np.where(move, depth + 1, 0)
        depth_sum = depth_sum + depth
        stuck |= ~move
    del start, cur, deg, move, off, nxt, depth
    vis = visited.reshape(n, walks * steps)
    home = np.arange(n)[:, None]
    denom = max(n - 1, 1)
    stats = np.empty((n, STRUCT_DIM), dtype=np.float64)
    stats[:, 0] = outdeg / denom
    stats[:, 1] = g.in_degrees() / denom
    # each (N, walks * steps) array goes once read, and the sort runs in place
    vis_deg = outdeg[vis]
    stats[:, 2] = vis_deg.mean(axis=1)
    stats[:, 3] = vis_deg.max(axis=1)
    del vis_deg
    stats[:, 4] = (vis == home).mean(axis=1)
    ordered = np.hstack([home, vis])
    del visited, vis
    ordered.sort(axis=1)
    stats[:, 5] = (1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)) / (walks * steps + 1)
    stats[:, 6] = (~stuck).reshape(n, walks).mean(axis=1)
    stats[:, 7] = depth_sum.reshape(n, walks).sum(axis=1) / (walks * steps)
    return stats


def random_walk_features(g: CascadeGraph, cfg: WalkConfig) -> FeatureMatrix:
    """Structural view: per-graph z-scored random-walk statistics."""
    return FeatureMatrix(_zscore(raw_walk_statistics(g, cfg)), "structure")


def featurize_graph(
    g: CascadeGraph, walk_cfg: WalkConfig, master_seed: int, graph_index: int
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Both normalized views for one graph of a dataset, deterministically
    keyed by (master seed, graph index)."""
    user = normalize_features(user_feature_matrix(g))
    wcfg = replace(walk_cfg, rng_seed=derived_seed(master_seed, graph_index))
    struct = random_walk_features(g, wcfg)
    return user, struct


def dump_features_csv(
    user: FeatureMatrix, struct: FeatureMatrix, path
) -> None:
    """Write both views as ``node,view,f0..f8`` rows (structure leaves f8 empty)."""
    width = max(user.values.shape[1], struct.values.shape[1])
    header = "node,view," + ",".join(f"f{i}" for i in range(width))
    lines = [header + "\n"]
    for tag, m in (("user", user), ("structure", struct)):
        for v in range(m.values.shape[0]):
            cells = [repr(float(x)) for x in m.values[v]]
            cells += [""] * (width - len(cells))
            lines.append(f"{v},{tag}," + ",".join(cells) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
