import numpy as np
import pytest
from conftest import csr_rows, path_graph, random_digraph, star_graph

from keynodes.errors import DataError
from keynodes.features import (
    STRUCT_DIM,
    USER_DIM,
    FeatureMatrix,
    WalkConfig,
    featurize_graph,
    normalize_features,
    random_walk_features,
    raw_walk_statistics,
    user_feature_matrix,
)
from keynodes.graphs import CascadeGraph, UserRecord, synth_cascade
from keynodes.seeding import derived_seed


def loop_walk_statistics(g, cfg):
    """Reference walker: one Python loop per node and step, each node drawing
    from its own derived RNG stream.  Same distribution as
    raw_walk_statistics, different draws."""
    adj = csr_rows(g)
    outdeg = g.out_degrees().astype(np.float64)
    indeg = g.in_degrees().astype(np.float64)
    denom = max(g.n - 1, 1)
    steps_total = cfg.walks_per_node * cfg.walk_len
    stats = np.zeros((g.n, STRUCT_DIM), dtype=np.float64)
    for v in range(g.n):
        rng = np.random.default_rng(derived_seed(cfg.rng_seed, v))
        visited, distinct = [], {v}
        returns = depth_sum = full_walks = 0
        for _ in range(cfg.walks_per_node):
            cur, depth, stuck = v, 0, False
            for _ in range(cfg.walk_len):
                nbrs = adj[cur]
                if nbrs.size == 0:
                    cur, depth, stuck = v, 0, True
                else:
                    cur = int(nbrs[rng.integers(nbrs.size)])
                    depth += 1
                visited.append(cur)
                distinct.add(cur)
                returns += cur == v
                depth_sum += depth
            full_walks += not stuck
        vis_deg = outdeg[visited]
        stats[v] = (
            outdeg[v] / denom,
            indeg[v] / denom,
            vis_deg.mean(),
            vis_deg.max(),
            returns / steps_total,
            len(distinct) / (steps_total + 1),
            full_walks / cfg.walks_per_node,
            depth_sum / steps_total,
        )
    return stats


class TestUserView:
    def test_fully_absent_record_is_zero(self):
        g = CascadeGraph(3, [(0, 1), (0, 2)], users=[UserRecord()] * 3, source=0)
        assert np.array_equal(user_feature_matrix(g).values[0], np.zeros(USER_DIM))

    def test_direct_read_off(self):
        users = [UserRecord()] * 2 + [UserRecord(name="ab", verified=True)]
        g = CascadeGraph(3, [(0, 1), (1, 2)], users=users, source=0)
        expect = np.array([2, 0, 0, 0, 0, 1, 0, 0, 2], dtype=float)
        assert np.array_equal(user_feature_matrix(g).values[2], expect)

    def test_path_length_matches_bfs_oracle(self):
        import networkx as nx

        g = synth_cascade(80, 0.1, 0.3, 5)
        nxg = nx.DiGraph(list(map(tuple, g.edges)))
        nxg.add_nodes_from(range(g.n))
        lengths = nx.single_source_shortest_path_length(nxg, g.source)
        values = user_feature_matrix(g).values
        for v in range(g.n):
            assert values[v, 8] == lengths.get(v, 0)

    def test_out_of_range_node(self):
        g = path_graph(3)
        m = user_feature_matrix(g)
        assert m.view_tag == "user"
        assert m.values.shape == (g.n, USER_DIM)  # no row past node n-1

    def test_graph_without_user_table(self):
        g = path_graph(4)  # no users at all
        vec = user_feature_matrix(g).values[3]
        assert np.array_equal(vec, np.array([0, 0, 0, 0, 0, 0, 0, 0, 3], dtype=float))


class TestNormalize:
    def test_constant_column_becomes_zero(self):
        m = FeatureMatrix(np.ones((5, USER_DIM)), "user")
        out = normalize_features(m)
        assert np.array_equal(out.values, np.zeros((5, USER_DIM)))

    def test_zscore_moments(self):
        rng = np.random.default_rng(0)
        m = FeatureMatrix(rng.gamma(2.0, 10.0, size=(200, USER_DIM)), "user")
        out = normalize_features(m).values
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9

    def test_log_transform_reduces_skew(self):
        from scipy.stats import skew

        rng = np.random.default_rng(3)
        vals = np.zeros((400, USER_DIM))
        vals[:, 2] = rng.lognormal(4.0, 1.5, size=400)  # heavy-tailed follower counts
        before = skew(np.asarray(vals[:, 2]))
        out = normalize_features(FeatureMatrix(vals, "user")).values
        assert abs(skew(out[:, 2])) < abs(before)

    def test_structure_view_skips_log(self):
        vals = np.array([[-2.0, 1.0] + [0.0] * (STRUCT_DIM - 2)] * 4)
        vals[0, 0] = 2.0
        out = normalize_features(FeatureMatrix(vals, "structure"))
        assert np.isfinite(out.values).all()  # log1p on negatives would NaN


class TestWalks:
    def test_isolated_node_statistics(self):
        g = CascadeGraph(3, [(0, 1)])  # node 2 isolated
        cfg = WalkConfig(walks_per_node=6, walk_len=4, rng_seed=1)
        raw = raw_walk_statistics(g, cfg)
        v = 2
        assert raw[v, 0] == 0 and raw[v, 1] == 0  # degree features
        assert raw[v, 4] == 1.0  # every stuck step restarts home
        assert raw[v, 5] == 1 / (6 * 4 + 1)  # distinct-visit ratio minimal
        assert raw[v, 6] == 0.0  # never completes a walk
        assert raw[v, 7] == 0.0

    def test_star_center_visits_more_distinct_nodes(self):
        g = star_graph(8)
        cfg = WalkConfig(walks_per_node=10, walk_len=4, rng_seed=2)
        raw = raw_walk_statistics(g, cfg)
        assert raw[0, 5] > raw[1, 5]

    def test_dims_and_determinism(self):
        g = synth_cascade(50, 0.1, 0.2, 8)
        cfg = WalkConfig(rng_seed=9)
        a = random_walk_features(g, cfg)
        b = random_walk_features(g, cfg)
        assert a.view_tag == "structure"
        assert a.values.shape == (g.n, STRUCT_DIM)
        assert np.array_equal(a.values, b.values)
        assert user_feature_matrix(g).values.shape[1] == USER_DIM

    def test_monte_carlo_oracle(self):
        """Per-walk statistics agree with an independently coded walker
        oversampled 10x, within 3 combined standard errors."""
        rng = np.random.default_rng(14)
        g = random_digraph(rng, 25, 0.08)
        walks, length = 10, 4
        cfg = WalkConfig(walks_per_node=walks, walk_len=length, rng_seed=77)
        raw = raw_walk_statistics(g, cfg)
        adj = csr_rows(g)

        def oracle_walk(start, rng):
            cur, depth, stuck = start, 0, False
            returns = depth_sum = 0
            for _ in range(length):
                nbrs = adj[cur]
                if nbrs.size == 0:
                    cur, depth, stuck = start, 0, True
                else:
                    cur = int(rng.choice(nbrs))
                    depth += 1
                returns += cur == start
                depth_sum += depth
            return returns / length, float(not stuck), depth_sum / length

        orng = np.random.default_rng(123456)
        n_oracle = 10 * walks
        for v in range(g.n):
            samples = np.array([oracle_walk(v, orng) for _ in range(n_oracle)])
            mean, std = samples.mean(axis=0), samples.std(axis=0, ddof=1)
            got = np.array([raw[v, 4], raw[v, 6], raw[v, 7]])
            band = 3.0 * std * np.sqrt(1.0 / walks + 1.0 / n_oracle)
            assert np.all(np.abs(got - mean) <= band + 1e-12), (v, got, mean, band)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("graph", ["digraph0", "digraph1", "digraph2", "cascade"])
    def test_matches_reference_walker(self, graph, symmetric):
        """Degree columns equal the per-node loop's exactly; every walk
        column's mean over nodes agrees within 3 standard errors of the
        per-node differences.  ``symmetric`` walks the graph's both-direction
        view, a graph whose every edge has its reverse."""
        if graph == "cascade":
            g = synth_cascade(300, 0.1, 0.3, 5)
        else:
            g = random_digraph(np.random.default_rng(int(graph[-1])), 60, 0.04)
        if symmetric:
            g = g.undirected()
        cfg = WalkConfig(walks_per_node=10, walk_len=4, rng_seed=5)
        got = raw_walk_statistics(g, cfg)
        ref = loop_walk_statistics(g, cfg)
        assert np.array_equal(got[:, :2], ref[:, :2])
        diff = got[:, 2:] - ref[:, 2:]
        stderr = diff.std(axis=0, ddof=1) / np.sqrt(g.n)
        assert np.all(np.abs(diff.mean(axis=0)) <= 3.0 * stderr + 1e-12), (diff.mean(axis=0), stderr)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_independent_of_edge_order(self, symmetric):
        g = synth_cascade(200, 0.1, 0.3, 4)
        if symmetric:
            g = g.undirected()
        perm = np.random.default_rng(2).permutation(len(g.edges))
        g2 = CascadeGraph(g.n, g.edges[perm], source=g.source)
        cfg = WalkConfig(rng_seed=11)
        assert np.array_equal(raw_walk_statistics(g, cfg), raw_walk_statistics(g2, cfg))

    def test_one_derived_seed_per_graph(self, monkeypatch):
        import keynodes.features as features

        calls = []

        def counting(*parts):
            calls.append(parts)
            return derived_seed(*parts)

        monkeypatch.setattr(features, "derived_seed", counting)
        featurize_graph(synth_cascade(80, 0.1, 0.3, 2), WalkConfig(), 7, 3)
        assert calls == [(7, 3)]

    def test_memory_stays_small_at_5000_nodes(self):
        import tracemalloc

        g = synth_cascade(5000, 0.1, 0.3, 5)
        tracemalloc.start()
        try:
            raw_walk_statistics(g, WalkConfig(rng_seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak

    def test_peak_under_four_and_a_half_walk_arrays(self):
        """The visit degrees go before the sort, the sort runs in place and the visit
        record goes once its copy to sort exists, so the statistics never hold more
        than the walk loop does: under 4.5 (N, walks * steps) int64 arrays."""
        import tracemalloc

        g, cfg = synth_cascade(5000, 0.1, 0.5, 1), WalkConfig(rng_seed=1)
        tracemalloc.start()
        try:
            raw_walk_statistics(g, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * g.n * cfg.walks_per_node * cfg.walk_len * 8, peak

    def test_walk_loop_arrays_go_before_the_statistics(self):
        """The per-walk arrays of the loop are deleted once it ends, so the
        statistics peak under 3.6 (N, walks * steps) arrays (3.9 with them)."""
        import tracemalloc

        g, cfg = synth_cascade(5000, 0.1, 0.5, 1), WalkConfig(rng_seed=1)
        tracemalloc.start()
        try:
            raw_walk_statistics(g, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * g.n * cfg.walks_per_node * cfg.walk_len * 8, peak

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_edgeless_and_sink_only_nodes(self, symmetric):
        cfg = WalkConfig(walks_per_node=3, walk_len=5, rng_seed=4)
        sink_row = [0.0, 0.0, 0.0, 0.0, 1.0, 1 / 16, 0.0, 0.0]
        edgeless, fan_in = CascadeGraph(4, []), CascadeGraph(3, [(0, 2), (1, 2)])
        if symmetric:
            edgeless, fan_in = edgeless.undirected(), fan_in.undirected()
        raw = raw_walk_statistics(edgeless, cfg)
        assert np.array_equal(raw, np.tile(sink_row, (4, 1)))
        raw = raw_walk_statistics(fan_in, cfg)
        assert np.isfinite(raw).all()
        if not symmetric:  # node 2 has only in-edges
            assert np.array_equal(raw[2, 2:], sink_row[2:])

    def test_config_validation(self):
        with pytest.raises(DataError):
            WalkConfig(walks_per_node=0)
        with pytest.raises(DataError):
            WalkConfig(walk_len=0)


class TestEquivariance:
    def test_user_view_permutes_with_labels(self):
        g = synth_cascade(30, 0.1, 0.4, 6)
        perm = np.random.default_rng(0).permutation(g.n)
        # relabel: node v becomes perm[v]
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        users = [None] * g.n
        for v in range(g.n):
            users[perm[v]] = g.users[v]
        g2 = CascadeGraph(g.n, edges, delays=list(g.delays), users=users, source=int(perm[g.source]))
        m1 = user_feature_matrix(g).values
        m2 = user_feature_matrix(g2).values
        assert np.array_equal(m2[perm], m1)

    def test_structural_degree_columns_permute_with_labels(self):
        g = synth_cascade(30, 0.1, 0.4, 6)
        perm = np.random.default_rng(1).permutation(g.n)
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        g2 = CascadeGraph(g.n, edges, source=int(perm[g.source]))
        cfg = WalkConfig(rng_seed=3)
        r1 = raw_walk_statistics(g, cfg)
        r2 = raw_walk_statistics(g2, cfg)
        assert np.array_equal(r2[perm][:, :2], r1[:, :2])
