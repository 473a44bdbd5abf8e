import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from conftest import csr_rows, path_graph, random_digraph, star_graph

from keynodes.baselines import (
    degree_centrality,
    greedy_dcover,
    h_index,
    kshell,
    leaderrank,
    ranked_order,
)
from keynodes.errors import DataError
from keynodes.graphs import CascadeGraph, reachable_within, synth_cascade


def cycle_graph(k):
    return CascadeGraph(k, [(i, (i + 1) % k) for i in range(k)])


def clique(k):
    return CascadeGraph(k, [(a, b) for a in range(k) for b in range(k) if a != b])


class TestDegree:
    def test_star_center(self):
        g = star_graph(7)
        assert degree_centrality(g)[0] == 7

    def test_isolated_node(self):
        g = CascadeGraph(3, [(0, 1)])
        assert degree_centrality(g)[2] == 0

    def test_recount_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_digraph(rng, 30, 0.08)
            counts = np.zeros(g.n)
            for a, b in g.edges:
                counts[a] += 1
                counts[b] += 1
            assert np.array_equal(degree_centrality(g), counts)


class TestKShell:
    def test_cycle_is_shell_two(self):
        assert np.array_equal(kshell(cycle_graph(8)), np.full(8, 2.0))

    def test_tree_leaves_shell_one(self):
        g = star_graph(5)
        scores = kshell(g)
        assert np.array_equal(scores, np.ones(6))  # star peels entirely at k=1

    def test_isolated_node_shell_zero(self):
        g = CascadeGraph(3, [(0, 1)])
        assert kshell(g)[2] == 0

    def brute_force_shell(self, und, v):
        """Max k such that v survives in the k-core, by repeated deletion;
        und holds each node's undirected neighbours."""
        best = 0
        for k in range(0, len(und)):
            alive = set(range(len(und)))
            changed = True
            while changed:
                changed = False
                for u in list(alive):
                    deg = sum(1 for w in und[u] if int(w) in alive)
                    if deg < k:
                        alive.discard(u)
                        changed = True
            if v in alive:
                best = k
            else:
                break
        return best

    def test_peeling_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(5, 61))
            g = random_digraph(rng, n, float(rng.uniform(0.03, 0.12)))
            scores = kshell(g)
            und = csr_rows(g.undirected())
            for v in range(g.n):
                assert scores[v] == self.brute_force_shell(und, v), (n, v)

    def test_matches_networkx_core_number(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(5, 81))
            g = random_digraph(rng, n, float(rng.uniform(0.02, 0.2)))
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(map(tuple, g.edges.tolist()))
            core = nx.core_number(nxg)
            assert np.array_equal(kshell(g), [core[v] for v in range(n)]), n

    def test_invariant_under_edge_permutation(self):
        rng = np.random.default_rng(6)
        g = random_digraph(rng, 25, 0.1)
        edges = [tuple(e) for e in g.edges]
        rng.shuffle(edges)
        g2 = CascadeGraph(g.n, edges, source=g.source)
        assert np.array_equal(kshell(g), kshell(g2))


class TestHIndex:
    def test_star_center_h_one(self):
        g = star_graph(5)
        assert h_index(g)[0] == 1  # all leaves have degree 1

    def test_clique(self):
        assert np.array_equal(h_index(clique(5)), np.full(5, 4.0))

    def test_bounded_by_degree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.1)
            deg = np.array([len(a) for a in csr_rows(g.undirected())])
            assert (h_index(g) <= deg).all()


def dense_leaderrank(g, tol=1e-10, max_iters=100_000):
    """Reference: power iteration on the dense (n+1)^2 column-stochastic
    matrix, ground node last."""
    n = g.n
    P = np.zeros((n + 1, n + 1))
    outdeg = g.out_degrees() + 1.0
    for a, b in g.edges:
        P[a, b] = 1.0 / outdeg[a]
    P[:n, n] = 1.0 / outdeg
    P[n, :n] = 1.0 / n
    s = np.ones(n + 1)
    s[n] = 0.0
    for _ in range(max_iters):
        s_new = P.T @ s
        if np.abs(s_new - s).sum() < tol:
            return s_new[:n] + s_new[n] / n
        s = s_new
    raise AssertionError("reference did not converge")


class TestLeaderRank:
    def test_symmetric_two_cycle(self):
        g = CascadeGraph(2, [(0, 1), (1, 0)])
        scores = leaderrank(g)
        assert abs(scores[0] - scores[1]) < 1e-12

    def test_scores_sum_to_n(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_digraph(rng, 40, 0.08)
            assert abs(leaderrank(g).sum() - g.n) < 1e-8

    def test_dense_stationary_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 21))
            g = random_digraph(rng, n, float(rng.uniform(0.1, 0.3)))
            got = leaderrank(g)

            # stationary distribution of the (n+1)-state walk via eigenvector
            P = np.zeros((n + 1, n + 1))
            outdeg = g.out_degrees() + 1.0
            for a, b in g.edges:
                P[a, b] = 1.0 / outdeg[a]
            P[:n, n] = 1.0 / outdeg
            P[n, :n] = 1.0 / n
            vals, vecs = np.linalg.eig(P.T)
            pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            pi = pi / pi.sum()
            # the iteration converges to n*pi on real nodes plus the evenly
            # redistributed ground mass; both sides rounded to kill fp jitter
            order_got = ranked_order(np.round(got, 9))
            order_oracle = ranked_order(np.round(n * pi[:n] + pi[n], 9))
            assert np.array_equal(order_got, order_oracle), n

    def test_matches_dense_power_iteration(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(4, 61))
            g = random_digraph(rng, n, float(rng.uniform(0.02, 0.3)))
            got, want = leaderrank(g), dense_leaderrank(g)
            assert np.abs(got - want).max() <= 1e-12 * n, n
            assert np.array_equal(ranked_order(got), ranked_order(want)), n

    def test_memory_linear_in_graph(self):
        g = synth_cascade(3000, 0.1, 0.0, 3)
        tracemalloc.start()
        try:
            leaderrank(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak  # a dense 3001^2 matrix alone is 72 MB

    def test_edgeless_graph_is_all_ones(self):
        g = CascadeGraph(3, [])
        n = g.n
        assert np.array_equal(leaderrank(g), np.ones(n))
        # the eigenvector oracle of test_dense_stationary_oracle agrees
        P = np.zeros((n + 1, n + 1))
        P[:n, n] = 1.0
        P[n, :n] = 1.0 / n
        vals, vecs = np.linalg.eig(P.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        pi = pi / pi.sum()
        assert np.allclose(n * pi[:n] + pi[n], 1.0)

    def test_nonconvergence_raises(self):
        from keynodes.errors import NumericError

        g = path_graph(5)
        with pytest.raises(NumericError, match="converge"):
            leaderrank(g, tol=0.0, max_iters=3)


def full_scan_greedy(g, budget, d):
    """Reference: rescan every unchosen node for each pick."""
    budget = min(budget, g.n)
    covers = [np.fromiter(sorted(reachable_within(g, u, d)), dtype=np.int64) for u in range(g.n)]
    covered = np.zeros(g.n, dtype=bool)
    picked = []
    chosen = np.zeros(g.n, dtype=bool)
    while len(picked) < budget and not covered.all():
        best_v, best_gain = -1, 0
        for v in range(g.n):
            if chosen[v]:
                continue
            gain = int(np.count_nonzero(~covered[covers[v]]))
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_v < 0:
            break
        picked.append(best_v)
        chosen[best_v] = True
        covered[covers[best_v]] = True
    if len(picked) < budget:
        for v in ranked_order(degree_centrality(g)):
            if not chosen[v]:
                picked.append(int(v))
                chosen[v] = True
                if len(picked) == budget:
                    break
    return tuple(picked)


class TestGreedy:
    def test_star_picks_center(self):
        g = star_graph(6)
        assert greedy_dcover(g, 1, 1) == (0,)

    def test_two_disjoint_stars(self):
        edges = [(0, i) for i in range(2, 6)] + [(1, i) for i in range(6, 9)]
        g = CascadeGraph(9, edges)
        assert set(greedy_dcover(g, 2, 1)) == {0, 1}

    def test_budget_validated(self):
        with pytest.raises(DataError):
            greedy_dcover(star_graph(3), 0, 1)

    def test_exhaustive_pair_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(6, 16))
            g = random_digraph(rng, n, 0.15)
            covers = {u: reachable_within(g, u, 1) for u in range(n)}
            got = greedy_dcover(g, 2, 1)
            got_cover = len(set().union(*(covers[u] for u in got)))
            best = max(
                len(covers[a] | covers[b]) for a, b in itertools.combinations(range(n), 2)
            )
            assert got_cover >= 0.5 * best  # classic greedy guarantee, with slack

    def test_equals_best_pair_on_disjoint_stars(self):
        edges = [(0, i) for i in range(2, 7)] + [(1, i) for i in range(7, 11)]
        g = CascadeGraph(11, edges)
        covers = {u: reachable_within(g, u, 1) for u in range(g.n)}
        got = greedy_dcover(g, 2, 1)
        got_cover = len(set().union(*(covers[u] for u in got)))
        best = max(
            len(covers[a] | covers[b]) for a, b in itertools.combinations(range(g.n), 2)
        )
        assert got_cover == best

    def test_coverage_monotone_in_budget(self):
        rng = np.random.default_rng(11)
        g = random_digraph(rng, 25, 0.08)
        covers = {u: reachable_within(g, u, 1) for u in range(g.n)}
        prev = -1
        for budget in range(1, 8):
            seeds = greedy_dcover(g, budget, 1)
            cov = len(set().union(*(covers[u] for u in seeds)))
            assert cov >= prev
            prev = cov

    def test_matches_full_scan(self):
        rng = np.random.default_rng(15)
        for trial in range(200):
            n = int(rng.integers(4, 31))
            g = random_digraph(rng, n, float(rng.uniform(0.02, 0.25)))
            d = 1 + trial % 2
            for budget in (1, 2, max(1, n // 4), n // 2 + 1, n):
                assert greedy_dcover(g, budget, d) == full_scan_greedy(g, budget, d), (
                    trial,
                    budget,
                )

    def test_tied_stars_take_smaller_id(self):
        # four disjoint 3-leaf stars centred on 9, 2, 6, 0: equal gains
        centres = (9, 2, 6, 0)
        leaves = iter(v for v in range(16) if v not in centres)
        edges = [(c, next(leaves)) for c in centres for _ in range(3)]
        g = CascadeGraph(16, edges)
        for budget in range(1, 7):
            got = greedy_dcover(g, budget, 1)
            assert got == full_scan_greedy(g, budget, 1), budget
            assert got[:4] == (0, 2, 6, 9)[:budget], budget

    def test_pads_with_degree_once_covered(self):
        g = star_graph(4)  # center covers everything at d=1
        seeds = greedy_dcover(g, 3, 1)
        assert seeds[0] == 0 and len(seeds) == 3


class TestLabelEquivariance:
    def test_methods_permute_with_labels(self):
        rng = np.random.default_rng(12)
        g = random_digraph(rng, 18, 0.12)
        perm = rng.permutation(g.n)
        g2 = CascadeGraph(g.n, [(perm[a], perm[b]) for a, b in g.edges], source=int(perm[g.source]))
        for method in (degree_centrality, kshell, h_index, leaderrank):
            s1 = method(g)
            s2 = method(g2)
            assert np.abs(s2[perm] - s1).max() < 1e-9, method.__name__
