"""Per-node feature views: profile attributes and random-walk statistics."""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self):
        if self.walks_per_node < 1 or self.walk_len < 1:
            raise DataError("walks_per_node and walk_len must be >= 1")


def user_feature_matrix(g: CascadeGraph) -> np.ndarray:
    """Raw (unnormalized) (N, 9) user-attribute view, one row per node.

    Columns: name chars, description chars, followers, friends, statuses,
    verified, geo_enabled, retweet delay seconds, hops from the source.
    A node's retweet delay is the smallest delay of its kept in-edges, 0 if
    it has none.  Absent fields map to 0; an unreachable node has 0 hops.
    """
    users = g.users
    mat = np.empty((g.n, USER_DIM), dtype=np.float64)
    mat[:, 0] = [len(u.name or "") for u in users]
    mat[:, 1] = [len(u.description or "") for u in users]
    mat[:, 2] = [u.followers_count or 0 for u in users]
    mat[:, 3] = [u.friends_count or 0 for u in users]
    mat[:, 4] = [u.statuses_count or 0 for u in users]
    mat[:, 5] = [bool(u.verified) for u in users]
    mat[:, 6] = [bool(u.geo_enabled) for u in users]
    delay = np.full(g.n, np.inf)
    np.minimum.at(delay, g.edges[:, 1], g.delays)
    mat[:, 7] = np.where(np.isfinite(delay), delay, 0.0)
    mat[:, 8] = np.maximum(g.source_hops, 0)
    return mat


def _zscore(mat: np.ndarray, view: str) -> np.ndarray:
    """Every column z-scored; zero-variance columns become all zeros."""
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    out = (mat - mean) / safe
    out[:, std == 0] = 0.0
    if not np.isfinite(out).all():
        raise DataError(f"{view} features contain NaN/Inf")
    return out


def raw_walk_statistics(g: CascadeGraph, cfg: WalkConfig, seed: int) -> np.ndarray:
    """Unnormalized (N, 8) walk statistics.

    Columns: out-degree and in-degree (each over n-1), mean and max
    out-degree of visited nodes, return frequency, distinct-visit ratio,
    fraction of walks that ran the full length without getting stuck, and
    mean depth reached.  All N * walks_per_node walks advance together over
    the graph's CSR (``CascadeGraph.csr``), drawing from one generator seeded
    with ``seed``, so the draws depend only on (graph, seed), not on edge
    order.  Walk arrays too large to allocate are a DataError, raised before
    any draw.
    """
    n, walks, steps = g.n, cfg.walks_per_node, cfg.walk_len
    indptr, indices = g.csr
    outdeg = np.diff(indptr)
    try:
        start = np.repeat(np.arange(n), walks)
        stuck = np.zeros(start.size, dtype=bool)
        visited = np.empty((start.size, steps), dtype=np.int64)
    except (MemoryError, ValueError, OverflowError):
        raise DataError(
            f"cannot allocate the random walks: walks_per_node={walks} x walk_len={steps} "
            f"steps for each of N={n} nodes"
        ) from None
    cur, depth, depth_sum = start, 0, 0
    rng = np.random.default_rng(seed)
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


def featurize_graph(
    g: CascadeGraph, walk_cfg: WalkConfig, master_seed: int, graph_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both per-graph z-scored views of one graph of a dataset: the (N, 9)
    user view, log(1+x) on its count columns first, and the (N, 8)
    structure view, its walks seeded by (master seed, graph index).  A view
    holding NaN/Inf is a DataError naming it."""
    user = user_feature_matrix(g)
    for c in _USER_LOG_COLS:
        user[:, c] = np.log1p(user[:, c])
    user = _zscore(user, "user")
    struct = raw_walk_statistics(g, walk_cfg, derived_seed(master_seed, graph_index))
    return user, _zscore(struct, "structure")


def dump_features_csv(user: np.ndarray, struct: np.ndarray, path) -> None:
    """Write both views as ``node,view,f0..f8`` rows (structure leaves f8 empty)."""
    width = max(user.shape[1], struct.shape[1])
    header = "node,view," + ",".join(f"f{i}" for i in range(width))
    lines = [header + "\n"]
    for tag, m in (("user", user), ("structure", struct)):
        for v in range(m.shape[0]):
            cells = [repr(float(x)) for x in m[v]]
            cells += [""] * (width - len(cells))
            lines.append(f"{v},{tag}," + ",".join(cells) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
