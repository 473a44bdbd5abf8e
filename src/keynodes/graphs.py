"""Directed retweet-cascade graphs: I/O, queries, and synthetic generation.

A cascade records one source post and how it spread: an edge (src, dst)
means dst retweeted src's post, ``delay_s`` seconds after the source post
went out.  Node ids are dense 0..N-1; original string ids are kept as a
sidecar label list for reporting.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

_USERS_HEADER = (
    "id",
    "name",
    "description",
    "followers",
    "friends",
    "statuses",
    "verified",
    "geo_enabled",
)
# the UserRecord field behind each users.tsv column after "id"
_PROFILE_FIELDS = (
    "name", "description", "followers_count", "friends_count", "statuses_count", "verified",
    "geo_enabled",
)


@dataclass(frozen=True)
class UserRecord:
    """Profile metadata for one node; None means the field is absent."""

    name: str | None = None
    description: str | None = None
    followers_count: int | None = None
    friends_count: int | None = None
    statuses_count: int | None = None
    verified: bool | None = None
    geo_enabled: bool | None = None

    def has_profile(self) -> bool:
        return any(getattr(self, f) is not None for f in _PROFILE_FIELDS)


class CascadeGraph:
    """Immutable directed graph of one cascade.

    Construction deduplicates edges and drops self-loops (adjacency is a
    set).  ``users`` holds one UserRecord per node, ``UserRecord()`` for
    every node when none are given.  Every derived structure is built on
    first use and cached.
    """

    def __init__(self, n, edges, delays=None, users=None, labels=None, source=None):
        if n < 1:
            raise DataError("graph needs at least one node")
        self.n = int(n)
        self.edges, self.delays = _dedupe_edges(self.n, edges, delays)
        users = (UserRecord(),) * self.n if users is None else tuple(users)
        if len(users) != n:
            raise DataError("users must have one entry per node")
        bad = next((v for v, u in enumerate(users) if not isinstance(u, UserRecord)), None)
        if bad is not None:
            raise DataError(f"users entry {bad} is {type(users[bad]).__name__}, not a UserRecord")
        if labels is not None and len(labels) != n:
            raise DataError(f"labels must have one entry per node, got {len(labels)} for n={n}")
        if source is not None and not (0 <= int(source) < n):
            raise DataError(f"source {source} out of range for n={n}")
        self.users = users
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        self._csr = None
        self._und_graph = None
        self._rev_graph = None
        self._hops = None
        self.source = int(source) if source is not None else self._find_source()

    # -- adjacency ---------------------------------------------------------

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours as CSR ``(indptr, indices)``: those of v are
        ``indices[indptr[v]:indptr[v + 1]]``, ascending."""
        if self._csr is None:
            src, dst = self.edges[:, 0], self.edges[:, 1]
            indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=self.n))))
            self._csr = indptr, dst[np.lexsort((dst, src))]
        return self._csr

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.n)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edges[:, 1], minlength=self.n)

    def undirected(self) -> "CascadeGraph":
        """Symmetrized view: every edge present in both directions."""
        if self._und_graph is None:
            both = np.concatenate([self.edges, self.edges[:, ::-1]])
            delays = np.concatenate([self.delays, self.delays])
            self._und_graph = CascadeGraph(
                self.n, both, delays, users=self.users, labels=self.labels, source=self.source
            )
        return self._und_graph

    def reversed(self) -> "CascadeGraph":
        """Every edge turned around; keeps this graph's source."""
        if self._rev_graph is None:
            self._rev_graph = CascadeGraph(
                self.n, self.edges[:, ::-1], self.delays,
                users=self.users, labels=self.labels, source=self.source,
            )
        return self._rev_graph

    @property
    def source_hops(self) -> np.ndarray:
        """``bfs_distances`` from the source, kept from ``_find_source``'s walk."""
        if self._hops is None:
            self._hops = bfs_distances(self, self.source)
        return self._hops

    def _find_source(self) -> int:
        """The in-degree-0 node that reaches every node, else 0.  A node that
        reaches every node leaves no other node without an in-edge, so only
        a sole in-degree-0 node can qualify and one BFS decides."""
        roots = np.flatnonzero(self.in_degrees() == 0)
        dist = _bfs(self.csr, int(roots[0])) if len(roots) == 1 else {}
        if len(dist) == self.n:
            self._hops = np.fromiter((dist[v] for v in range(self.n)), np.int64, self.n)
            return int(roots[0])
        return 0


def _dedupe_edges(n, edges, delays):
    """Range-checked (E, 2) edge and (E,) delay arrays without self-loops,
    keeping the first occurrence of each (src, dst) in input order."""
    edges = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)
    delays = np.zeros(len(edges)) if delays is None else np.asarray(delays, dtype=np.float64)
    if delays.shape != (len(edges),):
        raise DataError("delays must align with edges")
    bad = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
    if bad.size:
        a, b = edges[bad[0]]
        raise DataError(f"edge ({a},{b}) endpoint out of range for n={n}")
    idx = np.flatnonzero(edges[:, 0] != edges[:, 1])
    _, first = np.unique(edges[idx, 0] * n + edges[idx, 1], return_index=True)
    idx = idx[np.sort(first)]
    return edges[idx], delays[idx]


def _bfs(csr, start, max_depth=None):
    """Hop distances from start over CSR rows ``(indptr, indices)``; dict
    node -> dist, in visiting order."""
    indptr, indices = csr
    dist = {start: 0}
    q = deque([start])
    while q:
        v = q.popleft()
        if max_depth is not None and dist[v] >= max_depth:
            continue
        for u in indices[indptr[v] : indptr[v + 1]].tolist():
            if u not in dist:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def bfs_distances(g: CascadeGraph, start: int) -> np.ndarray:
    """Directed hop distance from start to every node; -1 if unreachable."""
    out = np.full(g.n, -1, dtype=np.int64)
    for v, d in _bfs(g.csr, start).items():
        out[v] = d
    return out


def shortest_path_len(g: CascadeGraph, a: int, b: int) -> int | None:
    """Directed BFS distance a -> b, or None when b is unreachable from a."""
    _check_node(g, a)
    _check_node(g, b)
    if a == b:
        return 0
    dist = _bfs(g.csr, a)
    return dist.get(b)


def out_neighborhood(g: CascadeGraph, v: int, d: int) -> set[int]:
    """Nodes whose selection covers v: every u with a directed path
    u -> v of length <= d, plus v itself."""
    _check_node(g, v)
    if d < 1:
        raise DataError(f"hop radius must be >= 1, got {d}")
    return set(_bfs(g.reversed().csr, v, max_depth=d))


def reachable_within(g: CascadeGraph, u: int, d: int) -> set[int]:
    """Nodes u covers: everything within d directed hops downstream, incl u."""
    _check_node(g, u)
    if d < 1:
        raise DataError(f"hop radius must be >= 1, got {d}")
    return set(_bfs(g.csr, u, max_depth=d))


def cover_pairs(g: CascadeGraph, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) index arrays with u covering v: directed path u -> v of
    length <= d, plus every v covering itself.  u ascends; within one u the
    v come in the order ``reachable_within`` yields them, which fixes the
    order in which the coverage loss's backward sums each u's gradient."""
    covers = [reachable_within(g, u, d) for u in range(g.n)]
    us = np.repeat(np.arange(g.n), [len(c) for c in covers])
    vs = np.fromiter((v for c in covers for v in c), dtype=np.int64, count=us.size)
    return us, vs


def largest_component_size(g: CascadeGraph, removed: set[int]) -> int:
    """Size of the largest weakly-connected component of g minus `removed`.
    Rounds hook each root to the smallest root across its kept edges, then
    shortcut every node to its root (min-label propagation alone would take
    O(N) rounds on a path with shuffled ids)."""
    keep = np.ones(g.n, dtype=bool)
    for v in removed:
        _check_node(g, int(v))
        keep[int(v)] = False
    src, dst = g.edges[keep[g.edges].all(axis=1)].T
    parent = np.arange(g.n)
    while True:
        hooked = parent.copy()
        np.minimum.at(hooked, parent[src], parent[dst])
        np.minimum.at(hooked, parent[dst], parent[src])
        if np.array_equal(hooked, parent):
            return int(np.bincount(parent[keep], minlength=g.n).max())
        parent = hooked
        while not np.array_equal(parent, grand := parent[parent]):
            parent = grand


def _check_node(g: CascadeGraph, v: int):
    if not (0 <= v < g.n):
        raise DataError(f"node {v} out of range for n={g.n}")


# -- file formats -----------------------------------------------------------


def text_lines(path):
    """(line number, line) pairs of a UTF-8 text file, numbered from 1; a
    file that is not UTF-8 is a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_cascade(dir_path) -> CascadeGraph:
    """Load a cascade directory holding edges.tsv and optional users.tsv.

    edges.tsv lines are ``src<TAB>dst<TAB>delay_s``; ``#`` comments and blank
    lines are skipped.  Node ids may be arbitrary strings and are remapped to
    dense 0..N-1 in first-appearance order.
    """
    d = Path(dir_path)
    epath = d / "edges.tsv"
    if not epath.is_file():
        raise DataError(f"{epath}: missing edges.tsv")

    ids: dict[str, int] = {}
    labels: list[str] = []

    def intern(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
        return ids[tok]

    raw_edges: list[tuple[int, int]] = []
    raw_delays: list[float] = []
    for lineno, line in text_lines(epath):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{epath}:{lineno}: expected 'src<TAB>dst<TAB>delay_s', got {line.rstrip()!r}"
            )
        try:
            delay = float(parts[2])
        except ValueError:
            raise DataError(f"{epath}:{lineno}: bad delay {parts[2]!r}") from None
        if not np.isfinite(delay) or delay < 0:
            raise DataError(f"{epath}:{lineno}: delay must be finite and >= 0")
        raw_edges.append((intern(parts[0]), intern(parts[1])))
        raw_delays.append(delay)
    if not raw_edges:
        raise DataError(f"{epath}: no edges")

    n = len(labels)
    edges, delays = _dedupe_edges(n, raw_edges, raw_delays)
    upath = d / "users.tsv"
    profiles = _parse_users(upath, ids) if upath.is_file() else {}
    empty = UserRecord()
    users = [profiles.get(v, empty) for v in range(n)]
    return CascadeGraph(n, edges, delays, users=users, labels=labels)


def _parse_users(upath: Path, ids: dict[str, int]) -> dict[int, UserRecord]:
    """node -> UserRecord of its users.tsv row."""

    def opt_int(tok, lineno, col):
        if tok == "":
            return None
        try:
            val = int(tok)
        except ValueError:
            raise DataError(f"{upath}:{lineno}: bad integer {tok!r} in {col}") from None
        if val < 0:
            raise DataError(f"{upath}:{lineno}: {col} must be >= 0")
        if val > sys.float_info.max:
            raise DataError(f"{upath}:{lineno}: {col} is past the float64 range")
        return val

    def opt_bool(tok, lineno, col):
        if tok == "":
            return None
        low = tok.lower()
        if low in ("1", "true"):
            return True
        if low in ("0", "false"):
            return False
        raise DataError(f"{upath}:{lineno}: bad boolean {tok!r} in {col}")

    profiles: dict[int, UserRecord] = {}
    lines = text_lines(upath)
    header = next(lines, (1, ""))[1].rstrip("\n")
    if tuple(header.split("\t")) != _USERS_HEADER:
        raise DataError(f"{upath}:1: bad header {header!r}")
    for lineno, line in lines:
        if not line.strip():
            continue
        cells = line.rstrip("\n").split("\t")
        if len(cells) != len(_USERS_HEADER):
            raise DataError(
                f"{upath}:{lineno}: expected {len(_USERS_HEADER)} columns, got {len(cells)}"
            )
        if cells[0] not in ids:
            raise DataError(f"{upath}:{lineno}: user id {cells[0]!r} not in edge file")
        v = ids[cells[0]]
        if v in profiles:
            raise DataError(f"{upath}:{lineno}: duplicate user row for id {cells[0]!r}")
        profiles[v] = UserRecord(
            name=cells[1] or None,
            description=cells[2] or None,
            followers_count=opt_int(cells[3], lineno, "followers"),
            friends_count=opt_int(cells[4], lineno, "friends"),
            statuses_count=opt_int(cells[5], lineno, "statuses"),
            verified=opt_bool(cells[6], lineno, "verified"),
            geo_enabled=opt_bool(cells[7], lineno, "geo_enabled"),
        )
    return profiles


def save_cascade(g: CascadeGraph, dir_path) -> None:
    """Write edges.tsv (and users.tsv when any profile field is set)."""
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    lines = []
    for (a, b), delay in zip(g.edges, g.delays):
        lines.append(f"{g.labels[a]}\t{g.labels[b]}\t{float(delay)!r}\n")
    with open(d / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    if not any(u.has_profile() for u in g.users):
        return

    def cell(val):
        if val is None:
            return ""
        if isinstance(val, bool):
            return "1" if val else "0"
        return str(val)

    with open(d / "users.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(_USERS_HEADER) + "\n")
        for v in range(g.n):
            u = g.users[v]
            if not u.has_profile():
                continue
            cells = [g.labels[v]] + [cell(getattr(u, f)) for f in _PROFILE_FIELDS]
            fh.write("\t".join(cells) + "\n")


# -- synthetic cascades ------------------------------------------------------

_EPS = float(np.finfo(np.float64).eps)
_ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


class _AttachIndex:
    """Positive integer weights over nodes 0..n-1 in a Fenwick tree
    (Fenwick 1994): O(log n) to add weight and to draw by weight.

    ``draw(t, u)`` returns the index that ``Generator.choice(t, p=w / w.sum())``
    returns when the one uniform double it consumes is ``u``, where ``w`` are
    the weights of nodes 0..t-1 and every node >= t still has weight 0.  The
    integer prefix sums decide unless ``u * total`` lies within the roundoff of
    numpy's float cdf of a prefix boundary; only then is that cdf rebuilt.
    """

    def __init__(self, n: int):
        self.n = n
        self.weights = [0] * n
        self.total = 0
        self._tree = [0] * (n + 1)
        self._top = 1 << (n.bit_length() - 1)

    def add(self, i: int, delta: int) -> None:
        self.weights[i] += delta
        self.total += delta
        tree, n = self._tree, self.n
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def draw(self, t: int, u: float) -> int:
        tree, n = self._tree, self.n
        x = u * self.total
        pos = acc = 0
        step = self._top
        while step:
            nxt = pos + step
            if nxt <= n and acc + tree[nxt] <= x:
                pos = nxt
                acc += tree[nxt]
            step >>= 1
        # pos is the first index whose inclusive prefix sum exceeds x; numpy's
        # cdf entries are within (t + 2) * eps of the exact prefix ratios
        margin = 4 * (t + 2) * _EPS * self.total
        if pos < t and x - acc > margin and acc + self.weights[pos] - x > margin:
            return pos
        w = np.array(self.weights[:t], dtype=np.float64)
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(u, side="right"))


def synth_cascade(
    n_nodes: int,
    extra_edge_frac: float = 0.0,
    attr_noise: float = 0.0,
    rng_seed: int = 0,
) -> CascadeGraph:
    """Generate a retweet cascade: preferential-attachment tree plus extras.

    Node 0 posts; each later node retweets an existing node chosen with
    probability proportional to (out-degree + 1), which yields the heavy-
    tailed hub structure of real cascades.  ``extra_edge_frac * n`` extra
    retweet edges are layered on top; asking for more than the
    (n - 1)(n - 2) pairs left free is a DataError.  followers_count
    correlates with out-degree, log-normally perturbed by ``attr_noise``.
    Deterministic for a fixed seed.  Each weighted draw costs O(log n), so a cascade takes
    O(n log n); the random stream, and so every output bit, is the same as
    drawing with ``rng.choice(t, p=w / w.sum())`` over the full weight vector.
    """
    if n_nodes < 10:
        raise DataError(f"n_nodes must be >= 10, got {n_nodes}")
    if not (math.isfinite(extra_edge_frac) and math.isfinite(attr_noise)):
        raise DataError("extra_edge_frac and attr_noise must be finite")
    if extra_edge_frac < 0 or attr_noise < 0:
        raise DataError("extra_edge_frac and attr_noise must be >= 0")
    n_extra = int(round(extra_edge_frac * n_nodes))
    free_pairs = (n_nodes - 1) * (n_nodes - 2)  # (src, dst): dst != 0, src != dst, not a tree edge
    if n_extra > free_pairs:
        raise DataError(
            f"extra_edge_frac {extra_edge_frac} asks for {n_extra} extra edges; "
            f"a {n_nodes}-node cascade has room for {free_pairs}"
        )
    rng = np.random.default_rng(rng_seed)

    # weights[v] = out-degree + 1 once v has joined
    index = _AttachIndex(n_nodes)
    index.add(0, 1)
    retweet_time = [0.0] * n_nodes
    edges: list[tuple[int, int]] = []
    delays: list[float] = []
    for t in range(1, n_nodes):
        parent = index.draw(t, rng.random())
        edges.append((parent, t))
        retweet_time[t] = retweet_time[parent] + rng.exponential(60.0)
        delays.append(retweet_time[t])
        index.add(parent, 1)
        index.add(t, 1)

    present = set(edges)
    attempts = 0
    added = 0
    while added < n_extra and attempts < 50 * (n_extra + 1):
        attempts += 1
        src = index.draw(n_nodes, rng.random())
        dst = int(rng.integers(1, n_nodes))
        if src == dst or (src, dst) in present:
            continue
        present.add((src, dst))
        edges.append((src, dst))
        delays.append(max(retweet_time[src], retweet_time[dst]) + rng.exponential(60.0))
        index.add(src, 1)
        added += 1

    users = []
    # a follower draw past float64 is a DataError below, not a warning
    with np.errstate(over="ignore"):
        for v in range(n_nodes):
            followers = 50.0 * index.weights[v] * np.exp(attr_noise * rng.standard_normal())
            if not math.isfinite(followers):
                raise DataError(
                    f"attr_noise {attr_noise} draws a follower count past the float64 range"
                )
            followers = int(round(followers))
            name_len = int(rng.integers(3, 13))
            name = _ALPHABET[rng.integers(0, 26, size=name_len)].tobytes().decode("ascii")
            has_desc = rng.random() < 0.7
            desc_len = int(rng.integers(5, 121))
            description = (
                _ALPHABET[rng.integers(0, 26, size=desc_len)].tobytes().decode("ascii")
                if has_desc
                else None
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
