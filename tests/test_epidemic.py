import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import csr_rows, path_graph, star_graph

from keynodes import epidemic
from keynodes.baselines import degree_centrality
from keynodes.epidemic import (
    REPORT_HEADER,
    SirConfig,
    compare_methods,
    default_mu,
    infection_rate,
    robustness,
    sir_run,
)
from keynodes.errors import DataError
from keynodes.graphs import CascadeGraph, synth_cascade
from keynodes.seeding import derived_seed


def solo_run(g, seeds, mu, rng):
    """Reference: one outbreak stepped alone, the per-run loop `sir_run`
    replaced; it draws rng.random(k) for the k candidates of each step."""
    seeds = np.asarray(sorted(set(int(v) for v in seeds)), dtype=np.int64)
    und = csr_rows(g.undirected())
    susceptible = np.ones(g.n, dtype=bool)
    susceptible[seeds] = False
    infected = seeds
    total = seeds.size
    while infected.size:
        contacts = np.concatenate([und[v] for v in infected])
        contacts = contacts[susceptible[contacts]]
        if contacts.size == 0 or mu == 0.0:
            break
        counts = np.bincount(contacts, minlength=g.n)
        candidates = np.nonzero(counts)[0]
        if mu == 1.0:
            fresh = candidates
        else:
            p = 1.0 - (1.0 - mu) ** counts[candidates]
            fresh = candidates[rng.random(candidates.size) < p]
        susceptible[fresh] = False
        total += fresh.size
        infected = fresh
    return int(total)


class TestSirRun:
    def test_mu_zero_infects_only_seeds(self):
        g = path_graph(10)
        rng = np.random.default_rng(0)
        assert sir_run(g, [0, 3], 0.0, rng) == 2

    def test_mu_one_floods_connected_graph(self):
        g = synth_cascade(50, 0.0, 0.0, 1)  # a tree is weakly connected
        rng = np.random.default_rng(0)
        assert sir_run(g, [7], 1.0, rng) == 50

    def test_empty_seeds_rejected(self):
        with pytest.raises(DataError):
            sir_run(path_graph(3), [], 0.5, np.random.default_rng(0))

    def test_chain_closed_form(self):
        """Single seed at the head of a chain: each hop survives with
        probability mu, so E[count] = sum_k mu^k."""
        k, mu, runs = 6, 0.5, 50_000
        g = path_graph(k)
        rng = np.random.default_rng(42)
        counts = np.array([sir_run(g, [0], mu, rng) for _ in range(runs)], dtype=float)
        expect = sum(mu**i for i in range(k))
        band = 3.0 * counts.std(ddof=1) / np.sqrt(runs)
        assert abs(counts.mean() - expect) <= band

    def test_multiple_exposures_aggregate(self):
        # both ends seeded on a 3-path: middle node sees two infected
        # neighbors, so P(infected) = 1 - (1-mu)^2
        g = path_graph(3)
        mu, runs = 0.3, 40_000
        rng = np.random.default_rng(7)
        hits = np.array([sir_run(g, [0, 2], mu, rng) - 2 for _ in range(runs)], dtype=float)
        expect = 1.0 - (1.0 - mu) ** 2
        band = 3.0 * hits.std(ddof=1) / np.sqrt(runs)
        assert abs(hits.mean() - expect) <= band


def _forest():
    # a cascade plus three isolated nodes (ids 300..302) that can be seeded
    g = synth_cascade(300, 0.2, 0.0, 11)
    return CascadeGraph(303, g.edges)


class TestLockstep:
    """All runs of one call step together but match solo runs bit for bit."""

    SEED_FORMS = {
        "set": {3, 17, 40},
        "tuple_with_duplicates": (5, 5, 22, 5, 22),
        "ndarray_with_zero_degree": np.array([301, 0, 302, 9]),
        "only_zero_degree": [300],
    }

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("form", sorted(SEED_FORMS))
    def test_matches_solo_runs(self, mu, form):
        g, seeds = _forest(), self.SEED_FORMS[form]
        solo = [np.random.default_rng(s) for s in range(12)]
        together = [np.random.default_rng(s) for s in range(12)]
        want = [solo_run(g, seeds, mu, rng) for rng in solo]
        got = np.zeros(12, dtype=np.int64)
        assert sir_run(g, seeds, mu, together, got) == sum(want)
        assert got.tolist() == want
        for a, b in zip(solo, together):
            assert a.bit_generator.state == b.bit_generator.state

    def test_single_generator_is_one_run(self):
        g = synth_cascade(200, 0.1, 0.0, 12)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        counts = np.zeros(1, dtype=np.int64)
        assert sir_run(g, [0, 1], 0.25, a, counts) == solo_run(g, [0, 1], 0.25, b) == counts[0]
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 1.5, -0.5])
    def test_mu_outside_unit_interval_rejected(self, mu):
        # the parent returned 1, 50 or 1 here instead of failing
        g = synth_cascade(50, 0.0, 0.0, 1)
        with pytest.raises(DataError, match="mu must be in"):
            sir_run(g, [7], mu, np.random.default_rng(0))

    def test_no_generators_rejected(self):
        with pytest.raises(DataError, match="generator"):
            sir_run(path_graph(5), [0], 0.5, [])

    def test_runs_span_blocks(self, monkeypatch):
        g = synth_cascade(90, 0.1, 0.0, 13)
        cfg = SirConfig(mu=0.35, runs=11, rng_seed=21)
        counts = np.array([solo_run(g, [2, 8], cfg.mu, np.random.default_rng(derived_seed(21, r)))
                           for r in range(cfg.runs)])
        want = (float(counts.mean() / g.n), float(counts.std(ddof=1) / g.n / math.sqrt(cfg.runs)))
        blocks = []
        real = epidemic.sir_run
        monkeypatch.setattr(epidemic, "CELLS", 4 * 1024 + 1)
        monkeypatch.setattr(epidemic, "sir_run", lambda g, s, mu, rngs, c: blocks.append(len(rngs))
                            or real(g, s, mu, rngs, c))
        assert infection_rate(g, [2, 8], cfg) == want
        assert blocks == [4, 4, 3]

    def test_blocks_bound_generators_on_tiny_graphs(self, monkeypatch):
        # CELLS // N alone would put all 2,050 generators (about 1 KB each)
        # in one block on a 10-node graph
        blocks = []
        real = epidemic.sir_run
        monkeypatch.setattr(epidemic, "sir_run", lambda g, s, mu, rngs, c: blocks.append(len(rngs))
                            or real(g, s, mu, rngs, c))
        infection_rate(path_graph(10), [0], SirConfig(mu=0.5, runs=2050))
        assert blocks == [epidemic.CELLS // 1024, 2050 - epidemic.CELLS // 1024]

    def test_generators_start_as_default_rng(self, monkeypatch):
        """Each run's generator, built from its cached state words, starts
        where ``default_rng`` of the run's seed does."""
        states = []
        real = epidemic.sir_run
        monkeypatch.setattr(epidemic, "CELLS", 40 * 1024)
        monkeypatch.setattr(epidemic, "sir_run", lambda g, s, mu, rngs, c: states.extend(
            r.bit_generator.state for r in rngs) or real(g, s, mu, rngs, c))
        epidemic._run_seeds.cache_clear()
        infection_rate(path_graph(10), [0], SirConfig(mu=0.5, runs=100, rng_seed=9))
        assert states == [np.random.default_rng(derived_seed(9, r)).bit_generator.state
                          for r in range(100)]

    def test_run_seeds_derived_once_per_graph(self, monkeypatch):
        calls = []
        monkeypatch.setattr(epidemic, "derived_seed", lambda *p: calls.append(p) or derived_seed(*p))
        epidemic._run_seeds.cache_clear()
        graphs = [synth_cascade(40, 0.1, 0.0, s) for s in range(2)]
        compare_methods(graphs, ["degree", "kshell", "hindex"], SirConfig(mu=0.2, runs=6), 0.1)
        # per graph: its rng_seed, then the 6 run seeds shared by all methods
        assert len(calls) == 2 * (1 + 6)


class TestInfectionRate:
    def test_mu_zero_exact(self):
        g = synth_cascade(100, 0.0, 0.0, 2)
        st, se = infection_rate(g, list(range(5)), SirConfig(mu=0.0, runs=50, rng_seed=1))
        assert st == 0.05
        assert se == 0.0

    def test_mu_one_exact(self):
        g = synth_cascade(40, 0.0, 0.0, 3)
        st, se = infection_rate(g, [0], SirConfig(mu=1.0, runs=20, rng_seed=1))
        assert st == 1.0 and se == 0.0

    def test_seeds_always_counted(self):
        g = synth_cascade(60, 0.1, 0.0, 4)
        seeds = [0, 5, 9]
        st, _ = infection_rate(g, seeds, SirConfig(mu=0.2, runs=30, rng_seed=2))
        assert st >= len(seeds) / g.n

    def test_stderr_scales_with_runs(self):
        g = synth_cascade(80, 0.1, 0.0, 5)
        errs = []
        for runs in (100, 400, 1600):
            _, se = infection_rate(g, [0, 1], SirConfig(mu=0.3, runs=runs, rng_seed=3))
            errs.append(se)
        assert abs(errs[0] / errs[1] - 2.0) < 0.4  # within 20% of sqrt(4)
        assert abs(errs[1] / errs[2] - 2.0) < 0.4

    def test_deterministic(self):
        g = synth_cascade(50, 0.1, 0.0, 6)
        cfg = SirConfig(mu=0.4, runs=25, rng_seed=9)
        assert infection_rate(g, [1, 2], cfg) == infection_rate(g, [1, 2], cfg)

    def test_config_validated(self):
        with pytest.raises(DataError):
            SirConfig(mu=1.5)
        with pytest.raises(DataError):
            SirConfig(runs=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="rng_seed >= 0"):
            SirConfig(rng_seed=-1)


class TestRobustness:
    def test_no_removal(self):
        assert robustness(path_graph(8), set()) == 1.0

    def test_remove_all(self):
        assert robustness(path_graph(5), set(range(5))) == 0.0

    def test_star_center_removal(self):
        g = star_graph(9)  # 10 nodes
        assert robustness(g, {0}) == 1 / 10

    def test_antitone_under_superset(self):
        g = synth_cascade(60, 0.1, 0.0, 7)
        seeds = []
        prev = 1.0
        for v in (0, 1, 2, 3, 4):
            seeds.append(v)
            cur = robustness(g, set(seeds))
            assert cur <= prev
            prev = cur


class TestDefaultMu:
    def test_capped_and_positive(self):
        for seed in range(4):
            g = synth_cascade(100, 0.2, 0.0, seed)
            mu = default_mu(g)
            assert 0.0 < mu <= 1.0

    def test_degenerate_graph_capped_at_one(self):
        g = CascadeGraph(4, [(0, 1), (2, 3)])  # all undirected degrees 1
        assert default_mu(g) == 1.0


class TestCompareMethods:
    def test_random_at_mu_zero_hits_fraction(self):
        graphs = [synth_cascade(100, 0.0, 0.0, s) for s in range(3)]
        report = compare_methods(graphs, ["random"], SirConfig(mu=0.0, runs=10, rng_seed=0), 0.05)
        for row in report.rows:
            assert row.st_mean == 0.05
            assert row.st_stderr == 0.0

    def test_row_count_is_graphs_times_methods(self):
        graphs = [synth_cascade(40, 0.1, 0.0, s) for s in range(4)]
        methods = ["degree", "kshell", "random"]
        report = compare_methods(graphs, methods, SirConfig(mu=0.2, runs=5, rng_seed=0), 0.1)
        assert len(report.rows) == len(graphs) * len(methods)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 1 + len(graphs) * len(methods)

    def test_unknown_method_lists_valid(self):
        graphs = [synth_cascade(30, 0.0, 0.0, 0)]
        with pytest.raises(DataError, match="degree"):
            compare_methods(graphs, ["pagerank"], SirConfig(mu=0.1), 0.1)

    @pytest.mark.parametrize(
        "methods, error",
        [
            ([], "no method given"),
            (["degree", "degree"], "method 'degree' is named more than once"),
            (["mmen", "random", "mmen"], "method 'mmen' is named more than once"),
        ],
        ids=["empty", "degree", "mmen"],
    )
    def test_empty_or_repeated_methods_rejected(self, methods, error):
        g = path_graph(5)
        scores = {"mmen": [g.out_degrees().astype(float)]}
        with pytest.raises(DataError, match=error):
            compare_methods([g], methods, SirConfig(mu=0.1, runs=2), 0.1, scores=scores)

    def test_greedy_fragments_more_than_random(self):
        graphs = [synth_cascade(500, 0.1, 0.5, 100 + s) for s in range(20)]
        report = compare_methods(
            graphs, ["greedy", "random"], SirConfig(mu=0.1, runs=5, rng_seed=1), 0.05
        )
        means = report.method_means()
        assert means["greedy"][1] < means["random"][1]

    def test_custom_scorer_and_table(self):
        graphs = [synth_cascade(50, 0.1, 0.0, s) for s in range(2)]
        scores = {"mmen": [g.out_degrees().astype(float) for g in graphs]}
        report = compare_methods(
            graphs, ["mmen", "random"], SirConfig(mu=0.3, runs=10, rng_seed=2), 0.1, scores=scores
        )
        table = report.to_table()
        assert "mmen" in table and "random" in table
        assert set(report.method_means()) == {"mmen", "random"}

    def test_short_score_list_rejected(self):
        graphs = [synth_cascade(50, 0.1, 0.0, s) for s in range(2)]
        scores = {"mmen": [graphs[0].out_degrees().astype(float)]}
        with pytest.raises(DataError, match=r"sizes \[50\], graph sizes \[50, 50\]"):
            compare_methods(graphs, ["mmen"], SirConfig(mu=0.3, runs=2), 0.1, scores=scores)

    def test_wrong_size_score_array_rejected(self):
        graphs = [synth_cascade(50, 0.1, 0.0, s) for s in range(2)]
        scores = {"mmen": [g.out_degrees().astype(float) for g in graphs]}
        scores["mmen"][1] = scores["mmen"][1][:-1]
        with pytest.raises(DataError, match=r"sizes \[50, 49\], graph sizes \[50, 50\]"):
            compare_methods(graphs, ["mmen"], SirConfig(mu=0.3, runs=2), 0.1, scores=scores)

    def test_non_finite_score_rejected(self):
        graphs = [synth_cascade(50, 0.1, 0.0, s) for s in range(2)]
        scores = {"m": [g.out_degrees().astype(float) for g in graphs]}
        scores["m"][1] = np.full(50, np.nan)
        scores["m"][1][3] = 1.0
        with pytest.raises(DataError, match=r"method 'm': non-finite score on graph 'b'"):
            compare_methods(graphs, ["degree", "m"], SirConfig(mu=0.3, runs=2), 0.1, scores=scores,
                            names=["a", "b"])

    def test_score_methods_share_one_top_k_rule(self):
        # a score list equal to a ranker's output picks the ranker's seeds
        graphs = [synth_cascade(60, 0.2, 0.0, s) for s in range(3)]
        scores = {"deg": [degree_centrality(g) for g in graphs]}
        report = compare_methods(graphs, ["degree", "deg"], SirConfig(mu=0.2, runs=5, rng_seed=3),
                                 0.1, scores=scores)
        builtin, given = report.rows[0::2], report.rows[1::2]
        assert [r.method for r in given] == ["deg"] * len(graphs)
        assert [replace(r, method="degree") for r in given] == builtin

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_names_length_checked(self, names):
        graphs = [path_graph(5), path_graph(6)]
        with pytest.raises(DataError, match=f"{len(names)} names for 2 graphs"):
            compare_methods(graphs, ["degree"], SirConfig(mu=0.1, runs=2), 0.1, names=names)

    def test_fraction_validated(self):
        with pytest.raises(DataError):
            compare_methods([path_graph(5)], ["degree"], SirConfig(mu=0.1), 0.0)

    def test_leaderrank_picks_star_source(self):
        # influence flows 0 -> leaves; only the source's removal leaves singletons
        g = star_graph(20)
        report = compare_methods([g], ["leaderrank"], SirConfig(mu=0.0, runs=1), 0.01)
        assert report.rows[0].r == 1 / g.n
