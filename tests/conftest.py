"""Shared graph and checkpoint builders for the test suite."""

import struct

import numpy as np

from keynodes.graphs import CascadeGraph


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
