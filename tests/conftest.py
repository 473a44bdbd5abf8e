"""Shared graph and checkpoint builders for the test suite."""

import struct

import numpy as np

from keynodes.graphs import CascadeGraph, UserRecord


def path_graph(k, delays=None):
    """0 -> 1 -> ... -> k-1."""
    edges = [(i, i + 1) for i in range(k - 1)]
    return CascadeGraph(k, edges, delays)


def star_graph(k):
    """Center 0 with k leaves: 0 -> 1..k."""
    return CascadeGraph(k + 1, [(0, i) for i in range(1, k + 1)])


def random_digraph(rng, n, p):
    """Random directed graph; every node is touched by at least one edge."""
    edges = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
    if not edges:
        edges = [(0, 1 % n)]
    return CascadeGraph(n, edges)


def random_dag(rng, n, p):
    """Random DAG: edges only go from smaller to larger ids."""
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    if not edges:
        edges = [(0, n - 1)]
    return CascadeGraph(n, edges)


def csr_rows(g):
    """Per node, the ascending array of its neighbours in ``g.csr``; pass
    ``g.reversed()`` for in-neighbours and ``g.undirected()`` for both."""
    indptr, indices = g.csr
    return np.split(indices, indptr[1:-1])


def edge_sets(g):
    return set(map(tuple, g.edges))


def tensor_record(name: bytes, dims, values) -> bytes:
    """One checkpoint tensor record, written without any of
    save_checkpoint's guarantees."""
    head = struct.pack("<Q", len(name)) + name + struct.pack(f"<{len(dims) + 1}Q", len(dims), *dims)
    return head + np.asarray(values, dtype="<f8").tobytes()


HOSTILE_CASES = ("dims_overflow", "dims_past_end", "duplicate_name", "non_utf8_name")


def hostile_checkpoint(case, valid: bytes, params) -> bytes:
    """A valid checkpoint's bytes (holding `params`) plus one bad record."""
    name = params.names()[0]
    tails = {
        "duplicate_name": tensor_record(name.encode(), params[name].shape, params[name]),
        "non_utf8_name": tensor_record(b"\xffw", (1, 1), [1.0]),
        "dims_overflow": tensor_record(b"w", (2**32, 2**32), [1.0]),
        "dims_past_end": tensor_record(b"w", (1000, 1000), [1.0]),
    }
    return valid + tails[case]


_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def loop_synth_cascade(n_nodes, extra_edge_frac=0.0, attr_noise=0.0, rng_seed=0):
    """Reference generator: synth_cascade drawing each parent and extra-edge
    source with ``rng.choice`` over the whole weight vector, O(N^2).  Must
    give the same graph as the library's O(N log N) generator."""
    rng = np.random.default_rng(rng_seed)

    outdeg = np.zeros(n_nodes, dtype=np.int64)
    retweet_time = np.zeros(n_nodes, dtype=np.float64)
    edges = []
    delays = []
    for t in range(1, n_nodes):
        w = outdeg[:t] + 1.0
        parent = int(rng.choice(t, p=w / w.sum()))
        edges.append((parent, t))
        retweet_time[t] = retweet_time[parent] + rng.exponential(60.0)
        delays.append(retweet_time[t])
        outdeg[parent] += 1

    present = set(edges)
    n_extra = int(round(extra_edge_frac * n_nodes))
    attempts = 0
    added = 0
    while added < n_extra and attempts < 50 * (n_extra + 1):
        attempts += 1
        w = outdeg + 1.0
        src = int(rng.choice(n_nodes, p=w / w.sum()))
        dst = int(rng.integers(1, n_nodes))
        if src == dst or (src, dst) in present:
            continue
        present.add((src, dst))
        edges.append((src, dst))
        delays.append(max(retweet_time[src], retweet_time[dst]) + rng.exponential(60.0))
        outdeg[src] += 1
        added += 1

    users = []
    for v in range(n_nodes):
        followers = int(
            round(50.0 * (outdeg[v] + 1) * np.exp(attr_noise * rng.standard_normal()))
        )
        name_len = int(rng.integers(3, 13))
        name = "".join(_LETTERS[rng.integers(0, 26, size=name_len)])
        has_desc = rng.random() < 0.7
        desc_len = int(rng.integers(5, 121))
        description = (
            "".join(_LETTERS[rng.integers(0, 26, size=desc_len)]) if has_desc else None
        )
        friends = int(rng.poisson(80))
        statuses = int(rng.poisson(200))
        verified = bool(followers > 2000 or rng.random() < 0.02)
        geo = bool(rng.random() < 0.4)
        drop = attr_noise > 0 and rng.random() < 0.05
        users.append(
            UserRecord(
                name=name,
                description=description,
                followers_count=followers,
                friends_count=None if drop else friends,
                statuses_count=statuses,
                verified=verified,
                geo_enabled=geo,
            )
        )
    return CascadeGraph(n_nodes, edges, delays, users=users, source=0)
