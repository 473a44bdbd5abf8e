import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from conftest import path_graph, random_digraph

from keynodes.autodiff import Tape
from keynodes.errors import DataError, NumericError, ShapeError
from keynodes.features import WalkConfig
from keynodes.graphs import CascadeGraph, synth_cascade
from keynodes import model, training
from keynodes.features import featurize_graph
from keynodes.model import (
    ModelConfig,
    attention_indices,
    bind_params,
    collect_grads,
    init_params,
    message_blocks,
    mmen_forward,
    param_shapes,
    row_cuts,
)
from keynodes.training import (
    AdamState,
    TrainConfig,
    adam_step,
    coverage_loss,
    score_graph,
    select_seeds,
    train,
)

TINY = ModelConfig(hidden=16, heads=4, mem_groups=2, mem_slots=4)


def loss_value(g, s, lam=1.0, d=1):
    tape = Tape()
    sid = tape.leaf(np.asarray(s, dtype=float).reshape(-1, 1))
    return tape.value(coverage_loss(tape, sid, g, lam, d)).item()


def loss_grad(g, s, lam=1.0, d=1):
    tape = Tape()
    sid = tape.leaf(np.asarray(s, dtype=float).reshape(-1, 1))
    lid = coverage_loss(tape, sid, g, lam, d)
    tape.backward(lid)
    return tape.nodes[sid].grad.ravel()


def cover_sets(g, d):
    """Per node v, the nodes whose selection covers v: v and every u with a
    directed path u -> v of at most d hops (networkx, upstream from v)."""
    import networkx as nx

    upstream = nx.DiGraph([(b, a) for a, b in g.edges.tolist()])
    upstream.add_nodes_from(range(g.n))
    return [set(nx.single_source_shortest_path_length(upstream, v, cutoff=d)) for v in range(g.n)]


def enumeration_expected_uncovered(g, s, d):
    """Exhaustive 2^N expectation of the uncovered-node count under
    independent Bernoulli(s_v) seed draws."""
    n = g.n
    cover_masks = []
    for cover in cover_sets(g, d):
        mask = 0
        for u in cover:
            mask |= 1 << u
        cover_masks.append(mask)
    total = 0.0
    for subset in range(1 << n):
        prob = 1.0
        for v in range(n):
            prob *= s[v] if subset >> v & 1 else 1.0 - s[v]
        uncovered = sum(1 for m in cover_masks if subset & m == 0)
        total += prob * uncovered
    return total


class TestCoverageLoss:
    def test_all_zero_scores(self):
        g = path_graph(6)
        assert abs(loss_value(g, np.zeros(6)) - 6.0) < 1e-12

    def test_all_one_scores(self):
        g = path_graph(6)
        lam = 2.5
        assert abs(loss_value(g, np.ones(6), lam=lam) - lam * 6.0) < 1e-9

    def test_enumeration_oracle_small(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(4, 11))
            g = random_digraph(rng, n, 0.2)
            s = rng.uniform(0.05, 0.95, size=n)
            for d in (1, 2):
                got = loss_value(g, s, lam=1.0, d=d) - s.sum()
                want = enumeration_expected_uncovered(g, s, d)
                assert abs(got - want) < 1e-10

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        g = random_digraph(rng, 10, 0.2)
        s = rng.uniform(0.1, 0.9, size=10)
        first_term = loss_value(g, s, lam=1.0, d=1) - s.sum()
        covers = [np.fromiter(c, dtype=int) for c in cover_sets(g, 1)]
        draws = 200_000
        picks = rng.random((draws, g.n)) < s
        uncovered = np.zeros(draws)
        for v in range(g.n):
            uncovered += ~picks[:, covers[v]].any(axis=1)
        mc = uncovered.mean()
        band = 3.0 * uncovered.std(ddof=1) / np.sqrt(draws)
        assert abs(first_term - mc) <= band

    def test_closed_form_gradient(self):
        rng = np.random.default_rng(4)
        g = random_digraph(rng, 8, 0.25)
        s = rng.uniform(0.1, 0.9, size=8)
        lam = 1.3
        grad = loss_grad(g, s, lam=lam)
        covers = cover_sets(g, 1)
        for u in range(g.n):
            want = lam
            for v in range(g.n):
                if u in covers[v]:
                    prod = 1.0
                    for w in covers[v]:
                        if w != u:
                            prod *= 1.0 - s[w]
                    want -= prod
            assert abs(grad[u] - want) < 1e-10

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(5)
        g = random_digraph(rng, 9, 0.2)
        s = rng.uniform(0.2, 0.8, size=9)
        base_first = loss_value(g, s, lam=1.0) - s.sum()
        for u in range(g.n):
            bumped = s.copy()
            bumped[u] = min(0.999, s[u] + 0.1)
            first = loss_value(g, bumped, lam=1.0) - bumped.sum()
            assert first <= base_first + 1e-12

    def test_lambda_validated(self):
        g = path_graph(3)
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(DataError):
                loss_value(g, np.zeros(3), lam=lam)


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = {"w": np.array([[1.0, -2.0]])}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros((1, 2))}, state, lr=0.1)
        assert np.array_equal(params["w"], np.array([[1.0, -2.0]]))

    def test_first_step_magnitude(self):
        params = {"w": np.zeros((1, 3))}
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.ones((1, 3))}, state, lr=0.01)
        assert np.abs(params["w"] + 0.01).max() < 1e-6  # ~= -lr after bias correction

    def test_convex_quadratic_descends(self):
        rng = np.random.default_rng(6)
        target = rng.normal(size=(4, 4))
        params = {"w": np.zeros((4, 4))}
        state = AdamState.for_params(params)
        losses = []
        for _ in range(100):
            diff = params["w"] - target
            losses.append(float((diff**2).sum()))
            adam_step(params, {"w": 2 * diff}, state, lr=0.05)
        diffs = np.diff(losses[5:])
        assert (diffs < 0).all()


class TestSelectSeeds:
    def test_top_five_percent(self):
        scores = np.random.default_rng(0).uniform(size=100)
        assert len(select_seeds(scores, 0.05)) == 5

    def test_ceil_rule(self):
        assert len(select_seeds(np.arange(7.0), 0.05)) == 1
        assert len(select_seeds(np.arange(21.0), 0.05)) == 2

    def test_ties_break_by_id(self):
        seeds = select_seeds(np.ones(10), 0.3)
        assert seeds == (0, 1, 2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        a = select_seeds(scores, 0.2)
        b = select_seeds(3.7 * scores + 11.0, 0.2)
        assert a == b

    def test_fraction_validated(self):
        with pytest.raises(DataError):
            select_seeds(np.ones(5), 0.0)
        with pytest.raises(DataError):
            select_seeds(np.ones(5), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = np.full(5, bad)
        scores[3] = 1.0
        with pytest.raises(DataError, match="non-finite score"):
            select_seeds(scores, 1.0)


def tiny_dataset(n_graphs, seed=0, n_nodes=25):
    return [synth_cascade(n_nodes, 0.1, 0.3, seed * 1000 + i) for i in range(n_graphs)]


class TestTrain:
    def test_patience_zero_runs_one_epoch(self):
        graphs = tiny_dataset(3, seed=1)
        cfg = TrainConfig(epochs=10, patience=0, rng_seed=0)
        result = train(graphs[:2], graphs[2:], cfg, model_cfg=TINY)
        assert len(result.history) == 1

    def test_deterministic_given_seed(self):
        graphs = tiny_dataset(4, seed=2)
        cfg = TrainConfig(epochs=3, patience=10, rng_seed=5)
        a = train(graphs[:3], graphs[3:], cfg, model_cfg=TINY)
        b = train(graphs[:3], graphs[3:], cfg, model_cfg=TINY)
        assert a.history == b.history
        assert list(a.params) == list(b.params)
        assert all(np.array_equal(a.params[k], v) for k, v in b.params.items())

    def test_loss_drops_twenty_percent(self):
        graphs = tiny_dataset(20, seed=3, n_nodes=30)
        cfg = TrainConfig(epochs=40, patience=40, rng_seed=0)
        result = train(graphs[:16], graphs[16:], cfg, model_cfg=TINY)
        first = result.history[0]["train_loss"]
        last = result.history[-1]["train_loss"]
        assert last < 0.8 * first

    def test_nan_abort_names_parameter(self):
        graphs = tiny_dataset(2, seed=4)
        cfg = TrainConfig(epochs=2, rng_seed=0)
        bad = init_params(TINY, rng_seed=0)
        bad["struct.proj.W"] = np.full_like(bad["struct.proj.W"], np.nan)
        with pytest.raises(NumericError, match=r"from parameter 'struct\.proj\.W' during epoch 1 training"):
            train(graphs[:1], graphs[1:], cfg, model_cfg=TINY, init=bad)

    @pytest.mark.parametrize("n_train,context", [(2, "epoch 1 training"), (1, "epoch 1 validation")])
    def test_parameter_driven_to_inf_mid_training_is_named(self, monkeypatch, n_train, context):
        """After the first Adam step one weight becomes inf: the next loss, a
        training step or the no-grad validation pass, names that parameter."""
        graphs = tiny_dataset(n_train + 1, seed=4)
        cfg = TrainConfig(epochs=2, batch_size=1, rng_seed=0)
        step = training.adam_step

        def blow_up(params, grads, state, lr):
            step(params, grads, state, lr)
            params["struct.gat0.W"] = np.where(np.eye(*params["struct.gat0.W"].shape) > 0, np.inf, 0.0)

        monkeypatch.setattr(training, "adam_step", blow_up)
        want = rf"non-finite value from parameter 'struct\.gat0\.W' during {context}$"
        with pytest.raises(NumericError, match=want), np.errstate(invalid="ignore", over="ignore"):
            train(graphs[:n_train], graphs[n_train:], cfg, model_cfg=TINY)

    def test_init_missing_tensor_rejected_before_training(self, monkeypatch):
        graphs = tiny_dataset(2, seed=4)
        init = init_params(TINY, rng_seed=0)
        partial = {k: v for k, v in init.items() if k != "fusion.b"}
        monkeypatch.setattr(training, "featurize_graph", lambda *a, **k: pytest.fail("featurized"))
        with pytest.raises(ShapeError, match="fusion.b"):
            train(graphs[:1], graphs[1:], TrainConfig(epochs=1), model_cfg=TINY, init=partial)

    def test_on_epoch_sees_mean_batch_gradient_norm(self, monkeypatch):
        """... and the mean validation w_user under the parameters the epoch ends with."""
        graphs = tiny_dataset(7, seed=6)
        cfg = TrainConfig(epochs=2, batch_size=2, patience=2, rng_seed=0)
        norms, stepped, seen = [], [], []
        step = training.adam_step

        def spy(params, grads, state, lr):
            norms.append(np.linalg.norm(np.concatenate([g.ravel() for g in grads.values()])))
            out = step(params, grads, state, lr)
            stepped.append(params.copy())
            return out

        monkeypatch.setattr(training, "adam_step", spy)
        result = train(graphs[:5], graphs[5:], cfg, model_cfg=TINY,
                       on_epoch=lambda row, seconds, grad_norm, w_user: seen.append((row, grad_norm, w_user)))
        assert len(norms) == 6  # 5 graphs in batches of 2: 3 steps an epoch
        assert [row for row, _, _ in seen] == result.history
        assert [gn for _, gn, _ in seen] == pytest.approx([np.mean(norms[:3]), np.mean(norms[3:])],
                                                          rel=1e-12)
        val = training.prepare_graphs(graphs[5:], cfg, WalkConfig(), index_offset=5)
        for (_, _, w_user), params in zip(seen, (stepped[2], stepped[5])):
            weights = [score_graph(b.graph, params, TINY, b.user, b.struct)[3][0] for b in val]
            assert w_user == pytest.approx(np.mean(weights), rel=1e-12)

    def test_on_epoch_w_user_is_none_without_user_view(self):
        graphs = tiny_dataset(3, seed=6)
        seen = []
        train(graphs[:2], graphs[2:], TrainConfig(epochs=1), model_cfg=TINY, ablate=frozenset({"no-user"}),
              on_epoch=lambda *args: seen.append(args[3]))
        assert seen == [None]

    def test_nonfinite_gradient_named_and_not_applied(self, monkeypatch):
        graphs = tiny_dataset(2, seed=4)
        cfg = TrainConfig(epochs=2, rng_seed=0)

        def nan_grads(tape, binding):
            grads = collect_grads(tape, binding)
            grads["struct.gat1.W"][0, 0] = np.nan
            return grads

        steps = []
        monkeypatch.setattr(training, "collect_grads", nan_grads)
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(NumericError, match=r"'struct\.gat1\.W'.*epoch 1"):
            train(graphs[:1], graphs[1:], cfg, model_cfg=TINY)
        assert steps == []

    def test_batch_gradient_is_sum_of_per_graph_gradients(self, monkeypatch):
        graphs = tiny_dataset(3, seed=7)
        cfg = TrainConfig(epochs=1, batch_size=2, rng_seed=0)
        steps = []
        monkeypatch.setattr(
            training, "adam_step", lambda p, grads, s, lr: steps.append({k: v.copy() for k, v in grads.items()})
        )
        train(graphs[:2], graphs[2:], cfg, model_cfg=TINY)
        params = init_params(TINY, 0)
        per_graph = []
        for bundle in training.prepare_graphs(graphs[:2], cfg, WalkConfig()):
            tape = Tape()
            binding = bind_params(tape, params)
            _, loss = training._graph_loss(tape, bundle, params, binding, TINY, cfg)
            tape.backward(loss)
            per_graph.append({k: v.copy() for k, v in collect_grads(tape, binding).items()})
        assert len(steps) == 1 and set(steps[0]) == set(params)
        for name, g in steps[0].items():
            assert np.array_equal(g, per_graph[0][name] + per_graph[1][name]), name

    def test_needs_graphs(self):
        with pytest.raises(DataError):
            train([], [], TrainConfig())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lr", -1.0),
            ("lr", 0.0),
            ("lr", np.nan),
            ("lr", np.inf),
            ("lam", np.nan),
            ("lam", np.inf),
        ],
    )
    def test_step_size_validated(self, field, value):
        with pytest.raises(DataError, match="must be finite and > 0"):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="rng_seed must be >= 0"):
            TrainConfig(rng_seed=-1)

    def test_best_checkpoint_returned(self):
        graphs = tiny_dataset(5, seed=6)
        cfg = TrainConfig(epochs=8, patience=8, rng_seed=1)
        result = train(graphs[:4], graphs[4:], cfg, model_cfg=TINY)
        best = min(result.history, key=lambda r: r["val_loss"])
        assert result.best_val_loss == best["val_loss"]
        assert result.best_epoch == best["epoch"]


def processes(monkeypatch, n):
    """Make train use n processes, and return the pids of the workers it forks."""
    monkeypatch.setattr(training, "_processes", lambda batch: n)
    pids = []

    class Recording(training._Workers):
        def __init__(self, *args):
            super().__init__(*args)
            pids.extend(proc.pid for proc in self.procs)

    monkeypatch.setattr(training, "_Workers", Recording)
    return pids


def assert_reaped(pids):
    assert pids and multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestTwoProcesses:
    """train may split each batch, and the validation pass, over forked
    workers; every result is bitwise that of one process, and no worker
    outlives train."""

    def run(self, monkeypatch, n, graphs, cfg, **kwargs):
        pids, seen = processes(monkeypatch, n), []
        on_epoch = lambda row, seconds, grad_norm, w_user: seen.append((dict(row), grad_norm, w_user))
        result = train(graphs[:6], graphs[6:], cfg, model_cfg=TINY, on_epoch=on_epoch, **kwargs)
        if n > 1:
            assert_reaped(pids)
        return result, seen

    @pytest.mark.parametrize("n, batch_size, ablate", [
        (2, 2, frozenset()), (2, 3, frozenset()), (3, 4, frozenset()), (2, 2, frozenset({"no-user"})),
    ])
    def test_bitwise_equal_to_one_process(self, monkeypatch, n, batch_size, ablate):
        graphs = tiny_dataset(9, seed=8)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, patience=3, rng_seed=2)
        many, many_seen = self.run(monkeypatch, n, graphs, cfg, ablate=ablate)
        one, one_seen = self.run(monkeypatch, 1, graphs, cfg, ablate=ablate)
        assert many.history == one.history and many.best_epoch == one.best_epoch
        assert many_seen == one_seen  # everything on_epoch sees but the wall time
        assert list(many.params) == list(one.params)
        for name, value in one.params.items():
            assert many.params[name].tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("kind", ["train", "val"])
    def test_worker_graph_nonfinite_raises_as_serial(self, monkeypatch, kind):
        """A worker's graph with a non-finite feature: process 1 takes batch
        position 1 and validation graph 1.  The error, rerun in the parent,
        names the same op and pass as one process does."""
        graphs = tiny_dataset(4, seed=9)
        cfg = TrainConfig(epochs=2, batch_size=2, rng_seed=0)
        bad = int(np.random.default_rng([cfg.rng_seed, 1]).permutation(2)[1]) if kind == "train" else 3
        featurize = training.featurize_graph

        def poisoned(g, walk_cfg, seed, index):
            user, struct = featurize(g, walk_cfg, seed, index)
            if index == bad:
                struct[0, 0] = np.inf
            return user, struct

        monkeypatch.setattr(training, "featurize_graph", poisoned)
        errors = []
        for n in (2, 1):
            pids = processes(monkeypatch, n)
            with pytest.raises(NumericError) as err, np.errstate(all="ignore"):
                train(graphs[:2], graphs[2:], cfg, model_cfg=TINY)
            errors.append(str(err.value))
            if n > 1:
                assert_reaped(pids)
        assert errors[0] == errors[1] and f"epoch 1 {'training' if kind == 'train' else 'validation'}" in errors[0]

    def test_on_epoch_raising_reaps_workers(self, monkeypatch):
        graphs = tiny_dataset(4, seed=1)
        pids = processes(monkeypatch, 2)

        def stop(*args):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            train(graphs[:3], graphs[3:], TrainConfig(epochs=3), model_cfg=TINY, on_epoch=stop)
        assert_reaped(pids)


def _store(cfg, ablate=frozenset()):
    keep = param_shapes(cfg, ablate)
    return {k: v for k, v in init_params(cfg, 0).items() if k in keep}


class TestScoreGraph:
    @pytest.mark.parametrize("ablate", [frozenset(), frozenset({"no-memory"})])
    def test_no_grad_bitwise_equal_to_recording_forward(self, ablate):
        g = synth_cascade(200, 0.1, 0.3, 5)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        cfg = ModelConfig()
        params = _store(cfg, ablate)
        tape = Tape()
        fwd = mmen_forward(tape, g, user, struct, params, cfg)
        want = [tape.value(i).ravel() for i in (fwd.score, fwd.score_user, fwd.score_struct, fwd.weights)]
        got = score_graph(g, params, cfg, user, struct)
        assert len(got) == 4
        for w, x in zip(want, got):
            assert x.dtype == w.dtype and np.array_equal(x, w)

    def test_peak_memory_under_a_third_of_recording_forward(self):
        g = synth_cascade(2000, 0.1, 0.3, 7)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        cfg, params = ModelConfig(), init_params(ModelConfig(), 0)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        recording = peak(lambda: mmen_forward(Tape(), g, user, struct, params, cfg))
        no_grad = peak(lambda: score_graph(g, params, cfg, user, struct))
        assert no_grad < recording / 3, (no_grad, recording)

    @pytest.mark.parametrize(
        "view,ablate,node",
        [
            ("struct", frozenset(), 30),
            ("struct", frozenset({"no-memory"}), 22),
            ("user", frozenset(), 80),
            ("user", frozenset({"no-memory"}), 54),
        ],
    )
    def test_nan_feature_keeps_op_message(self, view, ablate, node):
        """The no-grad pass replays on a recording tape to find the first
        non-finite node: the feature leaf, numbered as a recording forward numbers it."""
        g = synth_cascade(60, 0.1, 0.3, 3)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        feats = {"user": user.copy(), "struct": struct.copy()}
        feats[view][5, 2] = np.nan
        with pytest.raises(NumericError) as err:
            score_graph(g, _store(TINY, ablate), TINY, feats["user"], feats["struct"])
        assert str(err.value) == f"non-finite score from op 'leaf' (tape node {node})"

    def test_nan_parameter_named(self):
        g = synth_cascade(60, 0.1, 0.3, 3)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        params = init_params(TINY, 0)
        params["user.gat1.a_dst"] = np.full_like(params["user.gat1.a_dst"], np.nan)
        with pytest.raises(NumericError, match=r"^non-finite score from parameter 'user\.gat1\.a_dst'$"):
            score_graph(g, params, TINY, user, struct)


def _hub_graph():
    """41 nodes: 30 retweeters of hub 0, a chain 30 -> ... -> 39, and node
    40, retweeted by 39 and retweeting no one, so its only message is its
    self-loop (a one-row segment at the end)."""
    edges = [(i, 0) for i in range(1, 31)] + [(i, i + 1) for i in range(30, 39)] + [(40, 39)]
    return CascadeGraph(41, edges, source=0)


class TestBlockedForward:
    """A forward-only pass runs the messages and memory reads in blocks of
    at most model.CELLS cells; its scores equal one recording block's."""

    @pytest.mark.parametrize(
        "sizes,cols,want",
        [
            ([1] * 5, model.CELLS // 2, [0, 2, 5]),  # a one-row tail joins the block before it
            ([1, 10, 1, 1], model.CELLS // 4, [0, 2, 4]),  # a hub over budget, and its lead row
            ([3, 3, 3], model.CELLS // 6, [0, 2, 3]),
            ([1, 1, 3], model.CELLS // 2, [0, 2, 3]),
            ([1], model.CELLS, [0, 1]),  # a one-row forward has no other block
            ([4, 4], 1, [0, 2]),
        ],
    )
    def test_row_cuts(self, sizes, cols, want):
        assert row_cuts(np.concatenate([[0], np.cumsum(sizes)]), cols) == want

    def test_message_blocks_keep_edge_order_per_destination(self):
        g = _hub_graph()
        src, dst = attention_indices(g)
        blocks = message_blocks(src, dst, g.n, model.CELLS // 8)  # 8 rows a block: the hub is over
        assert blocks[0][:2] == (0, 1) and blocks[0][3].size == 31
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]] and blocks[-1][1] == g.n
        for lo, hi, src_b, dst_b in blocks:
            assert src_b.size >= 2 and dst_b.min() >= lo and dst_b.max() < hi
            for d in range(lo, hi):
                assert src_b[dst_b == d].tolist() == src[dst == d].tolist()

    @pytest.mark.parametrize("ablate", [frozenset(), frozenset({"no-memory"}), frozenset({"no-user"})])
    @pytest.mark.parametrize("cells", [128, 192, 320, 576, 1024])
    def test_no_grad_blocks_bitwise_equal_to_recording(self, monkeypatch, ablate, cells):
        g = _hub_graph()
        rng = np.random.default_rng(3)
        user, struct = rng.normal(size=(g.n, 9)), rng.normal(size=(g.n, 8))
        cfg = ModelConfig()
        params = _store(cfg, ablate)
        monkeypatch.setattr(model, "CELLS", cells)
        assert 31 > cells // cfg.hidden  # the hub's messages exceed a block
        tape = Tape()
        fwd = mmen_forward(tape, g, user, struct, params, cfg)
        outs = (fwd.score, fwd.score_user, fwd.score_struct, fwd.weights)
        want = [None if i is None else tape.value(i).ravel() for i in outs]
        got = score_graph(g, params, cfg, user, struct)
        for w, x in zip(want, got):
            assert (w is None and x is None) or np.array_equal(x, w)

    @pytest.mark.parametrize("cells", [128, 256, 1024])
    def test_memory_row_blocks_bitwise_equal_to_one_block(self, monkeypatch, cells):
        """41 rows leave a one-row tail, whose one-row matmul BLAS would round
        differently; it joins the block before it."""
        params = init_params(ModelConfig(), 0)
        mem = [params[f"struct.mem0.{t}"] for t in ("slots", "conv_w")]
        monkeypatch.setattr(model, "CELLS", cells)
        for seed in range(5):
            h = np.random.default_rng(seed).normal(size=(41, 64))
            tape = Tape()
            want = tape.value(model.enhance_rows(tape, *(tape.leaf(x) for x in [h] + mem)))
            assert np.array_equal(model.enhance_rows(Tape(grad=False), h, *mem), want)

    def test_peak_under_eight_node_arrays(self):
        g = synth_cascade(20000, 0.1, 0.3, 7)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        cfg, params = ModelConfig(), init_params(ModelConfig(), 0)
        tracemalloc.start()
        try:
            score_graph(g, params, cfg, user, struct)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n * cfg.hidden * 8, peak

    def test_peak_under_five_node_arrays(self):
        """Each view's input projection is freed once added to its bias: a
        local holding it would keep one more (N, L) array through every
        layer of the view."""
        g = synth_cascade(20000, 0.1, 0.3, 7)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        cfg, params = ModelConfig(), init_params(ModelConfig(), 0)
        tracemalloc.start()
        try:
            score_graph(g, params, cfg, user, struct)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * g.n * cfg.hidden * 8, peak
