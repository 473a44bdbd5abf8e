"""Classical seed-selection baselines for the comparison harness.

Degree is out-degree plus in-degree on the directed cascade, so a
reciprocal pair counts twice; k-shell and H-index operate on the undirected
view (their standard definitions); the leader-rank walk keeps edge
directions and adds a ground node linked both ways to every node.  Each
ranker returns one float64 score per node.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import DataError, NumericError
from .graphs import CascadeGraph, cover_pairs


def ranked_order(scores) -> np.ndarray:
    """Node ids sorted by descending score, ties broken by smaller id."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    return np.lexsort((np.arange(s.size), -s))


def degree_centrality(g: CascadeGraph) -> np.ndarray:
    """Out-degree + in-degree."""
    return (g.out_degrees() + g.in_degrees()).astype(np.float64)


def kshell(g: CascadeGraph) -> np.ndarray:
    """Undirected core number by bucket-queue peeling (Batagelj &
    Zaversnik 2003), O(N + E); score is the shell index."""
    indptr, indices = g.undirected().csr
    ptr, nbrs = indptr.tolist(), indices.tolist()
    deg = np.diff(indptr).tolist()
    # vert lists the nodes by current degree; start[d] is the index in vert
    # of the first node of degree d, pos[v] the index of v
    vert = sorted(range(g.n), key=deg.__getitem__)
    pos = [0] * g.n
    for i, v in enumerate(vert):
        pos[v] = i
    start = np.searchsorted([deg[v] for v in vert], np.arange(max(deg) + 1)).tolist()
    for v in vert:  # swaps only touch entries after v
        for u in nbrs[ptr[v] : ptr[v + 1]]:
            du = deg[u]
            if du > deg[v]:
                # move u to the front of its bucket, then into the bucket below
                w = vert[start[du]]
                vert[pos[u]], vert[start[du]] = w, u
                pos[u], pos[w] = start[du], pos[u]
                start[du] += 1
                deg[u] = du - 1
    return np.array(deg, dtype=np.float64)


def h_index(g: CascadeGraph) -> np.ndarray:
    """Largest h such that the node has >= h neighbors of degree >= h."""
    indptr, indices = g.undirected().csr
    deg = np.diff(indptr)
    owner = np.repeat(np.arange(g.n), deg)
    # each row's neighbour degrees in descending order, against their 1-based rank in the row
    order = np.lexsort((-deg[indices], owner))
    rank = np.arange(1, indices.size + 1) - indptr[owner]
    hits = deg[indices[order]] >= rank  # true on a prefix of each row, whose length is h
    return np.bincount(owner, weights=hits, minlength=g.n)


def leaderrank(g: CascadeGraph, tol: float = 1e-10, max_iters: int = 100_000) -> np.ndarray:
    """Random-walk score with a bidirectionally-linked ground node.

    Power-iterates the walk over the edge list, O(N + E) per iteration,
    until the L1 change drops below tol, then spreads the ground node's
    score equally over the real nodes; the final scores sum to N.
    """
    n = g.n
    if not len(g.edges):
        # the walk only alternates ground <-> nodes (period 2, so the
        # iteration never settles); its stationary answer is all ones
        return np.ones(n)
    src, dst = g.edges[:, 0], g.edges[:, 1]
    outdeg = g.out_degrees() + 1.0  # +1 for the edge to ground
    s = np.ones(n + 1)
    s[n] = 0.0  # the ground node
    for _ in range(max_iters):
        share = s[:n] / outdeg
        s_new = np.empty(n + 1)
        s_new[:n] = np.bincount(dst, weights=share[src], minlength=n) + s[n] / n
        s_new[n] = share.sum()
        if np.abs(s_new - s).sum() < tol:
            s = s_new
            break
        s = s_new
    else:
        raise NumericError(f"leaderrank failed to converge within {max_iters} iterations")
    return s[:n] + s[n] / n


def greedy_dcover(g: CascadeGraph, budget: int, d: int = 1) -> tuple[int, ...]:
    """Greedy d-hop cover: repeatedly take the node covering the most
    currently-uncovered nodes (ties by smaller id); once everything is
    covered, remaining picks go by degree."""
    if budget < 1:
        raise DataError(f"budget must be >= 1, got {budget}")
    budget = min(budget, g.n)
    us, vs = cover_pairs(g, d)
    # node v covers vs[offsets[v] : offsets[v + 1]]
    offsets = [0] + np.cumsum(np.bincount(us, minlength=g.n)).tolist()
    covered = np.zeros(g.n, dtype=bool)
    uncovered = g.n
    picked: list[int] = []
    chosen = np.zeros(g.n, dtype=bool)
    # lazy greedy (CELF): coverage gains only shrink as nodes are covered, so
    # a stale gain bounds the true one; heap order (-bound, id) keeps the
    # smaller-id tie-break
    heap = [(lo - hi, v) for v, (lo, hi) in enumerate(zip(offsets, offsets[1:]))]
    heapq.heapify(heap)
    while len(picked) < budget and uncovered:
        neg_bound, v = heapq.heappop(heap)
        cover = vs[offsets[v] : offsets[v + 1]]
        gain = int(np.count_nonzero(~covered[cover]))
        if gain < -neg_bound:
            heapq.heappush(heap, (-gain, v))
            continue
        picked.append(v)
        chosen[v] = True
        covered[cover] = True
        uncovered -= gain
    if len(picked) < budget:
        for v in ranked_order(degree_centrality(g)):
            if not chosen[v]:
                picked.append(int(v))
                chosen[v] = True
                if len(picked) == budget:
                    break
    return tuple(picked)
