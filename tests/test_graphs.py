import sys
from collections import deque

import numpy as np
import pytest
from conftest import csr_rows, edge_sets, loop_synth_cascade, path_graph, random_dag, random_digraph

from keynodes import graphs
from keynodes.errors import DataError
from keynodes.features import user_feature_matrix
from keynodes.graphs import (
    CascadeGraph,
    _AttachIndex,
    UserRecord,
    bfs_distances,
    cover_pairs,
    largest_component_size,
    load_cascade,
    reachable_within,
    save_cascade,
    synth_cascade,
)


def retweet_delays(g):
    """The user view's retweet delay column."""
    return user_feature_matrix(g)[:, 7]


def write_cascade(tmp_path, lines, users=None):
    d = tmp_path / "g"
    d.mkdir(exist_ok=True)
    (d / "edges.tsv").write_text("".join(lines))
    if users is not None:
        (d / "users.tsv").write_text("".join(users))
    return d


class TestLoad:
    def test_two_edge_star(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "0\t2\t7.5\n"])
        g = load_cascade(d)
        assert g.n == 3
        assert len(g.edges) == 2
        assert g.source == 0

    def test_duplicate_edge_deduped(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "0\t1\t9.0\n"])
        g = load_cascade(d)
        assert len(g.edges) == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        d = write_cascade(tmp_path, ["# a comment\n", "\n", "a\tb\t1.0\n"])
        g = load_cascade(d)
        assert g.n == 2
        assert g.labels == ("a", "b")

    def test_malformed_line_reports_lineno(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "0\t2\n"])
        with pytest.raises(DataError, match="edges.tsv:2"):
            load_cascade(d)

    def test_bad_delay_reports_lineno(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\tnope\n"])
        with pytest.raises(DataError, match=":1"):
            load_cascade(d)

    def test_empty_edge_file_rejected(self, tmp_path):
        d = write_cascade(tmp_path, ["# nothing\n"])
        with pytest.raises(DataError, match="no edges"):
            load_cascade(d)

    def test_dangling_user_row_rejected(self, tmp_path):
        users = [
            "id\tname\tdescription\tfollowers\tfriends\tstatuses\tverified\tgeo_enabled\n",
            "9\tbob\t\t10\t\t\t1\t0\n",
        ]
        d = write_cascade(tmp_path, ["0\t1\t5.0\n"], users)
        with pytest.raises(DataError, match="not in edge file"):
            load_cascade(d)

    @pytest.mark.parametrize("col", [3, 4, 5])
    def test_count_past_float64_rejected(self, tmp_path, col):
        """A count that fits float64 loads; one past it would overflow the
        user view's float matrix, so it is a DataError naming line and column."""
        header = "id\tname\tdescription\tfollowers\tfriends\tstatuses\tverified\tgeo_enabled\n"
        biggest = int(sys.float_info.max)
        for count, ok in ((biggest, True), ("9" * 400, False)):
            cells = ["1", "bob", "", "", "", "", "1", "0"]
            cells[col] = str(count)
            d = write_cascade(tmp_path, ["0\t1\t5.0\n"], [header, "\t".join(cells) + "\n"])
            if ok:
                assert getattr(load_cascade(d).users[1], graphs._PROFILE_FIELDS[col - 1]) == biggest
            else:
                name = header.split("\t")[col]
                with pytest.raises(DataError, match=f"users.tsv:2: {name} is past the float64 range"):
                    load_cascade(d)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing edges.tsv"):
            load_cascade(tmp_path / "nope")

    def test_absent_cells_become_none(self, tmp_path):
        users = [
            "id\tname\tdescription\tfollowers\tfriends\tstatuses\tverified\tgeo_enabled\n",
            "1\tbob\t\t10\t\t\t1\t0\n",
        ]
        d = write_cascade(tmp_path, ["0\t1\t5.0\n"], users)
        g = load_cascade(d)
        u = g.users[1]
        assert u.name == "bob"
        assert u.description is None
        assert u.followers_count == 10
        assert u.friends_count is None
        assert u.verified is True
        assert u.geo_enabled is False
        assert retweet_delays(g)[1] == 5.0

    def test_delay_of_duplicate_edge_is_first(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "0\t1\t2.0\n"])
        assert retweet_delays(load_cascade(d))[1] == 5.0

    def test_delay_is_minimum_over_parents(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "0\t2\t3.0\n", "2\t1\t4.0\n"])
        delays = retweet_delays(load_cascade(d))
        assert delays[1] == 4.0
        assert delays[2] == 3.0

    def test_self_loop_delay_ignored(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "1\t1\t0.5\n"])
        assert retweet_delays(load_cascade(d))[1] == 5.0

    def test_source_has_no_delay(self, tmp_path):
        d = write_cascade(tmp_path, ["0\t1\t5.0\n", "1\t2\t6.0\n"])
        g = load_cascade(d)
        assert g.source == 0
        assert retweet_delays(g)[0] == 0.0
        assert g.users[0] == UserRecord()

    def test_round_trip_thousand_edges(self, tmp_path):
        g = synth_cascade(900, extra_edge_frac=0.12, attr_noise=0.5, rng_seed=3)
        assert len(g.edges) >= 1000
        save_cascade(g, tmp_path / "out")
        g2 = load_cascade(tmp_path / "out")
        assert edge_sets(g) == edge_sets(g2)
        assert g.n == g2.n
        assert g.users == g2.users

    def test_round_trip_without_profiles(self, tmp_path):
        g = CascadeGraph(3, [(0, 1), (0, 2)], delays=[4.0, 8.0])
        save_cascade(g, tmp_path / "noprof")
        assert not (tmp_path / "noprof" / "users.tsv").exists()
        g2 = load_cascade(tmp_path / "noprof")
        assert edge_sets(g) == edge_sets(g2)


def nx_digraph(g):
    import networkx as nx

    nxg = nx.DiGraph(list(map(tuple, g.edges)))
    nxg.add_nodes_from(range(g.n))
    return nxg


class TestQueries:
    def test_reachable_within_one_hop(self):
        g = path_graph(3)
        assert reachable_within(g, 0, 1) == {0, 1}

    def test_reachable_within_two_hops(self):
        g = path_graph(3)
        assert reachable_within(g, 0, 2) == {0, 1, 2}

    def test_reachable_within_range_check(self):
        g = path_graph(3)
        with pytest.raises(DataError):
            reachable_within(g, 5, 1)
        with pytest.raises(DataError):
            reachable_within(g, 0, 0)

    def test_reachable_within_vs_forward_path_oracle(self):
        import networkx as nx

        rng = np.random.default_rng(11)
        g = random_dag(rng, 30, 0.12)
        nxg = nx_digraph(g)
        for u in range(g.n):
            for d in (1, 2, 4):
                expect = {
                    v
                    for v in range(g.n)
                    if nx.has_path(nxg, u, v)
                    and nx.shortest_path_length(nxg, u, v) <= d
                }
                assert reachable_within(g, u, d) == expect

    def test_self_in_neighborhood_and_monotone(self):
        rng = np.random.default_rng(5)
        g = random_digraph(rng, 25, 0.08)
        for u in range(g.n):
            prev = set()
            for d in (1, 2, 3):
                cur = reachable_within(g, u, d)
                assert u in cur
                assert prev <= cur
                prev = cur

    def test_shortest_path_trivial(self):
        g = path_graph(3)
        assert bfs_distances(g, 1).tolist() == [-1, 0, 1]
        assert bfs_distances(g, 0)[2] == 2

    def test_bfs_distances_matches_pairwise(self):
        import networkx as nx

        rng = np.random.default_rng(1)
        g = random_digraph(rng, 20, 0.1)
        lengths = nx.single_source_shortest_path_length(nx_digraph(g), g.source)
        want = [lengths.get(v, -1) for v in range(g.n)]
        assert bfs_distances(g, g.source).tolist() == want

    def test_reachable_within_is_inverse_of_covering(self):
        """v's covering set, the u with v in reachable_within(u, d), is every
        node within d hops upstream of v, as the coverage loss reads it."""
        import networkx as nx

        rng = np.random.default_rng(8)
        g = random_digraph(rng, 20, 0.1)
        upstream = nx_digraph(g).reverse()
        for d in (1, 2):
            downstream = {u: reachable_within(g, u, d) for u in range(g.n)}
            for v in range(g.n):
                assert {u for u in range(g.n) if v in downstream[u]} == set(
                    nx.single_source_shortest_path_length(upstream, v, cutoff=d)
                )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cover_pairs_keep_bfs_visiting_order(self, d):
        """Each u's v come in the order a BFS over ascending neighbour lists
        visits them, passed through a set: the order the coverage loss's
        backward sums each u's gradient in, so every trained byte rests on it."""

        def reference(g):
            nbrs = [[] for _ in range(g.n)]
            for a, b in g.edges.tolist():
                nbrs[a].append(b)
            us, vs = [], []
            for u in range(g.n):
                dist, q = {u: 0}, deque([u])
                while q:
                    x = q.popleft()
                    if dist[x] < d:
                        for y in sorted(nbrs[x]):
                            if y not in dist:
                                dist[y] = dist[x] + 1
                                q.append(y)
                cover = set(dist)
                us += [u] * len(cover)
                vs += list(cover)
            return us, vs

        rng = np.random.default_rng(21)
        cases = [random_digraph(rng, int(rng.integers(5, 60)), float(rng.uniform(0.03, 0.2)))
                 for _ in range(20)]
        for g in cases + [synth_cascade(300, 0.1, 0.3, 5)]:
            us, vs = cover_pairs(g, d)
            assert (us.tolist(), vs.tolist()) == reference(g)


class TestComponents:
    def test_remove_nothing(self):
        g = path_graph(6)
        assert largest_component_size(g, set()) == 6

    def test_remove_all(self):
        g = path_graph(6)
        assert largest_component_size(g, set(range(6))) == 0

    def test_union_find_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_digraph(rng, 40, 0.05)
            removed = set(map(int, rng.choice(40, size=10, replace=False)))
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in g.edges:
                a, b = int(a), int(b)
                if a in removed or b in removed:
                    continue
                parent[find(a)] = find(b)
            sizes = {}
            for v in range(g.n):
                if v in removed:
                    continue
                sizes[find(v)] = sizes.get(find(v), 0) + 1
            assert largest_component_size(g, removed) == max(sizes.values())

    def test_long_shuffled_path_exact(self):
        # a path whose ids are shuffled: min-label propagation would need
        # O(N) rounds here; removing the node at position 30,000 leaves
        # components of 30,000 and 69,999 nodes
        n = 100_000
        perm = np.random.default_rng(5).permutation(n)
        g = CascadeGraph(n, np.column_stack([perm[:-1], perm[1:]]), source=int(perm[0]))
        assert largest_component_size(g, set()) == n
        assert largest_component_size(g, {int(perm[30_000])}) == 69_999

    def test_removed_out_of_range(self):
        with pytest.raises(DataError, match="node 6 out of range"):
            largest_component_size(path_graph(6), {6})


class TestSynth:
    def test_tree_shape(self):
        g = synth_cascade(100, 0.0, 0.0, 7)
        assert len(g.edges) == 99
        assert int((g.in_degrees() == 0).sum()) == 1
        assert g.source == 0

    def test_deterministic(self):
        a = synth_cascade(60, 0.1, 0.5, 4)
        b = synth_cascade(60, 0.1, 0.5, 4)
        assert edge_sets(a) == edge_sets(b)
        assert np.array_equal(a.delays, b.delays)
        assert a.users == b.users

    def test_heavy_tailed_out_degree(self):
        g = synth_cascade(500, 0.1, 0.5, 1)
        out = g.out_degrees()
        assert out.max() >= 5 * np.median(out)
        assert out.max() >= 5

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            synth_cascade(5, 0.0, 0.0, 1)
        with pytest.raises(DataError):
            synth_cascade(20, -0.1, 0.0, 1)
        with pytest.raises(DataError, match="asks for 10000 extra edges"):
            synth_cascade(10, 1000, 0.0, 1)  # 9 * 8 = 72 free (src, dst) pairs

    @pytest.mark.parametrize(
        "extra_edge_frac, attr_noise",
        [(np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, np.inf), (-np.inf, 0.0)],
    )
    def test_non_finite_parameters_rejected(self, extra_edge_frac, attr_noise):
        with pytest.raises(DataError, match="finite"):
            synth_cascade(20, extra_edge_frac, attr_noise, 1)

    @pytest.mark.parametrize(
        "extra_edge_frac, attr_noise",
        # at 7.2 a 10-node cascade takes all 72 free (src, dst) pairs
        [(0.1, 0.3), (0.0, 0.0), (0.5, 1.0), (9.0, 0.2), (7.2, 0.0)],
    )
    def test_matches_choice_reference(self, extra_edge_frac, attr_noise):
        refused = False
        for n in (10, 11, 37, 150, 400):
            if round(extra_edge_frac * n) > (n - 1) * (n - 2):
                # more extras than free (src, dst) pairs: refused up front
                with pytest.raises(DataError, match="has room for"):
                    synth_cascade(n, extra_edge_frac, attr_noise, 0)
                refused = True
                continue
            for seed in range(4):
                g = synth_cascade(n, extra_edge_frac, attr_noise, seed)
                want = loop_synth_cascade(n, extra_edge_frac, attr_noise, seed)
                assert g.edges.tolist() == want.edges.tolist()
                assert g.delays.tobytes() == want.delays.tobytes()
                assert g.users == want.users
        # at 9 extras per node the 10- and 11-node graphs lack free pairs
        assert refused == (extra_edge_frac == 9.0)

    def test_boundary_draw_takes_exact_fallback(self):
        rng = np.random.default_rng(0)
        disagreements = 0
        for _ in range(40):
            t = int(rng.integers(2, 60))
            w = rng.integers(1, 6, size=t)
            index = _AttachIndex(t + 3)
            for i, wi in enumerate(w):
                index.add(i, int(wi))
            prefix, total = np.cumsum(w), int(w.sum())
            p = w / w.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            for b in prefix[:-1]:
                for u in (b / total, np.nextafter(b / total, 0), np.nextafter(b / total, 1)):
                    u = float(u)
                    want = int(cdf.searchsorted(u, side="right"))
                    exact = int(np.searchsorted(prefix, u * total, side="right"))
                    disagreements += exact != want
                    assert index.draw(t, u) == want
        # integer prefix sums alone would answer differently on these u
        assert disagreements > 0

    def test_never_calls_generator_choice(self, monkeypatch):
        class NoChoice(np.random.Generator):
            def choice(self, *args, **kwargs):
                raise AssertionError("Generator.choice called")

        want = synth_cascade(300, 0.5, 0.3, 2)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoChoice(np.random.PCG64(seed)))
        g = synth_cascade(300, 0.5, 0.3, 2)
        assert g.edges.tolist() == want.edges.tolist()
        assert g.users == want.users

    def test_followers_track_out_degree(self):
        g = synth_cascade(300, 0.0, 0.0, 9)
        out = g.out_degrees()
        followers = np.array([u.followers_count for u in g.users])
        assert np.array_equal(followers, 50 * (out + 1))


def loop_find_source(g):
    """Reference: BFS from each in-degree-0 node in id order; the first that
    reaches every node is the source, else 0."""
    indeg = g.in_degrees()
    for v in range(g.n):
        if indeg[v] == 0 and len(graphs._bfs(g.csr, v)) == g.n:
            return v
    return 0


class TestConstruction:
    def test_self_loops_and_duplicates_dropped(self):
        g = CascadeGraph(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
        assert edge_sets(g) == {(0, 1), (1, 2)}

    def test_endpoint_range_checked(self):
        with pytest.raises(DataError):
            CascadeGraph(2, [(0, 5)])

    def test_negative_source_rejected(self):
        with pytest.raises(DataError, match="source -1 out of range"):
            CascadeGraph(3, [(0, 1), (1, 2)], source=-1)

    def test_source_past_last_node_rejected(self):
        with pytest.raises(DataError, match="source 7 out of range"):
            CascadeGraph(3, [(0, 1), (1, 2)], source=7)

    def test_label_count_checked(self):
        with pytest.raises(DataError, match="labels"):
            CascadeGraph(3, [(0, 1), (1, 2)], labels=["a"])

    def test_one_user_record_per_node(self):
        assert CascadeGraph(3, [(0, 1)]).users == (UserRecord(),) * 3
        with pytest.raises(DataError, match="users must have one entry per node"):
            CascadeGraph(3, [(0, 1)], users=[UserRecord()] * 2)
        with pytest.raises(DataError, match="users entry 1 is NoneType, not a UserRecord"):
            CascadeGraph(3, [(0, 1)], users=[UserRecord(), None, UserRecord()])

    def test_first_bad_edge_named(self):
        with pytest.raises(DataError, match=r"edge \(3,0\)"):
            CascadeGraph(3, [(0, 1), (3, 0), (0, -1)])

    def test_dedupe_matches_loop_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, 30))
            edges = rng.integers(0, n, size=(m, 2)).tolist()
            delays = rng.random(m).tolist()
            seen, want, want_delays = set(), [], []
            for (a, b), d in zip(edges, delays):
                if a != b and (a, b) not in seen:
                    seen.add((a, b))
                    want.append([a, b])
                    want_delays.append(d)
            g = CascadeGraph(n, edges, delays)
            assert g.edges.tolist() == want
            assert g.delays.tolist() == want_delays
            und = g.undirected()
            und_want = list(want)
            for a, b in want:
                if [b, a] not in und_want:
                    und_want.append([b, a])
            assert und.edges.tolist() == und_want

    def test_undirected_view_symmetric(self):
        g = path_graph(4)
        u = g.undirected()
        assert edge_sets(u) == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}

    def test_adjacency_matches_loop_reference(self):
        rng = np.random.default_rng(8)
        g = random_digraph(rng, 30, 0.1)
        out = [set() for _ in range(g.n)]
        inn = [set() for _ in range(g.n)]
        for a, b in g.edges:
            out[a].add(int(b))
            inn[b].add(int(a))
        und = [o | i for o, i in zip(out, inn)]
        for view, ref in ((g, out), (g.reversed(), inn), (g.undirected(), und)):
            adj = csr_rows(view)
            assert len(adj) == g.n
            for arr, want in zip(adj, ref):
                assert arr.dtype == np.int64
                assert arr.tolist() == sorted(want)

    def test_source_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        found = set()
        for trial in range(300):
            n = int(rng.integers(1, 12))
            edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))  # loops, repeats
            if trial % 2:  # a spanning tree under a random root, plus the extras
                perm = rng.permutation(n)
                tree = [(perm[rng.integers(0, t)], perm[t]) for t in range(1, n)]
                edges = np.concatenate([np.array(tree, dtype=np.int64).reshape(-1, 2), edges])
            g = CascadeGraph(n, edges)
            want = loop_find_source(g)
            assert g.source == want
            found.add(want > 0)
        assert found == {False, True}

    def test_source_search_runs_one_bfs(self, monkeypatch):
        starts = []
        bfs = graphs._bfs
        monkeypatch.setattr(graphs, "_bfs", lambda adj, v, *a: starts.append(v) or bfs(adj, v, *a))
        half = 200  # nodes 0..199 all feed a chain 200 -> 201 -> ... -> 399
        chain = [(v, v + 1) for v in range(half, 2 * half - 1)]
        g = CascadeGraph(2 * half, [(r, half) for r in range(half)] + chain)
        assert g.source == 0 and len(starts) <= 1
        starts.clear()
        g = CascadeGraph(5, [(3, 0), (3, 1), (1, 2), (2, 4), (0, 4)])
        assert g.source == 3 and starts == [3]

    @pytest.mark.parametrize("source", [None, 3])
    def test_user_view_reuses_source_walk(self, monkeypatch, source):
        """The hop column reads the walk _find_source made; a graph given its
        source walks once, when the hops are first read."""
        starts = []
        bfs = graphs._bfs
        monkeypatch.setattr(graphs, "_bfs", lambda adj, v, *a: starts.append(v) or bfs(adj, v, *a))
        g = CascadeGraph(6, [(3, 0), (3, 1), (1, 2), (2, 4), (0, 4), (4, 5)], source=source)
        hops = user_feature_matrix(g)[:, 8]
        user_feature_matrix(g)
        assert starts == [3]
        assert np.array_equal(hops, [1, 1, 2, 0, 2, 3])
        assert np.array_equal(g.source_hops, bfs_distances(g, 3))
