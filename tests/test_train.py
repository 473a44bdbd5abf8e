import numpy as np
import pytest
from conftest import path_graph, random_digraph

from keynodes.autodiff import ParamStore, Tape
from keynodes.errors import DataError, NumericError, ShapeError
from keynodes.features import WalkConfig
from keynodes.graphs import out_neighborhood, synth_cascade
from keynodes import training
from keynodes.model import ModelConfig, bind_params, collect_grads, init_params
from keynodes.training import (
    AdamState,
    TrainConfig,
    adam_step,
    coverage_loss,
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


def enumeration_expected_uncovered(g, s, d):
    """Exhaustive 2^N expectation of the uncovered-node count under
    independent Bernoulli(s_v) seed draws."""
    n = g.n
    cover_masks = []
    for v in range(n):
        mask = 0
        for u in out_neighborhood(g, v, d):
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
        covers = [np.fromiter(out_neighborhood(g, v, 1), dtype=int) for v in range(g.n)]
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
        covers = [out_neighborhood(g, v, 1) for v in range(g.n)]
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
        params = ParamStore({"w": np.array([[1.0, -2.0]])})
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.zeros((1, 2))}, state, lr=0.1)
        assert np.array_equal(params["w"], np.array([[1.0, -2.0]]))

    def test_first_step_magnitude(self):
        params = ParamStore({"w": np.zeros((1, 3))})
        state = AdamState.for_params(params)
        adam_step(params, {"w": np.ones((1, 3))}, state, lr=0.01)
        assert np.abs(params["w"] + 0.01).max() < 1e-6  # ~= -lr after bias correction

    def test_convex_quadratic_descends(self):
        rng = np.random.default_rng(6)
        target = rng.normal(size=(4, 4))
        params = ParamStore({"w": np.zeros((4, 4))})
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
        assert len(select_seeds(scores, 0.05).members) == 5

    def test_ceil_rule(self):
        assert len(select_seeds(np.arange(7.0), 0.05).members) == 1
        assert len(select_seeds(np.arange(21.0), 0.05).members) == 2

    def test_ties_break_by_id(self):
        seeds = select_seeds(np.ones(10), 0.3).members
        assert seeds == (0, 1, 2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        a = select_seeds(scores, 0.2).members
        b = select_seeds(3.7 * scores + 11.0, 0.2).members
        assert a == b

    def test_fraction_validated(self):
        with pytest.raises(DataError):
            select_seeds(np.ones(5), 0.0)
        with pytest.raises(DataError):
            select_seeds(np.ones(5), 1.5)


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
        assert np.array_equal(a.params.flat(), b.params.flat())

    def test_loss_drops_twenty_percent(self):
        graphs = tiny_dataset(20, seed=3, n_nodes=30)
        cfg = TrainConfig(epochs=40, patience=40, rng_seed=0)
        result = train(graphs[:16], graphs[16:], cfg, model_cfg=TINY)
        first = result.history[0]["train_loss"]
        last = result.history[-1]["train_loss"]
        assert last < 0.8 * first

    def test_nan_abort_names_op(self):
        graphs = tiny_dataset(2, seed=4)
        cfg = TrainConfig(epochs=2, rng_seed=0)
        bad = init_params(TINY, rng_seed=0)
        bad["struct.proj.W"] = np.full_like(bad["struct.proj.W"], np.nan)
        with pytest.raises(NumericError, match="op"):
            train(graphs[:1], graphs[1:], cfg, model_cfg=TINY, init=bad)

    def test_init_missing_tensor_rejected_before_training(self, monkeypatch):
        graphs = tiny_dataset(2, seed=4)
        init = init_params(TINY, rng_seed=0)
        partial = ParamStore({k: v for k, v in init.items() if k != "fusion.b"})
        monkeypatch.setattr(training, "featurize_graph", lambda *a, **k: pytest.fail("featurized"))
        with pytest.raises(ShapeError, match="fusion.b"):
            train(graphs[:1], graphs[1:], TrainConfig(epochs=1), model_cfg=TINY, init=partial)

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
            tape.backward(training._graph_loss(tape, bundle, params, binding, TINY, cfg, False))
            per_graph.append({k: v.copy() for k, v in collect_grads(tape, binding).items()})
        assert len(steps) == 1 and set(steps[0]) == set(params.names())
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

    def test_best_checkpoint_returned(self):
        graphs = tiny_dataset(5, seed=6)
        cfg = TrainConfig(epochs=8, patience=8, rng_seed=1)
        result = train(graphs[:4], graphs[4:], cfg, model_cfg=TINY)
        best = min(result.history, key=lambda r: r["val_loss"])
        assert result.best_val_loss == best["val_loss"]
        assert result.best_epoch == best["epoch"]
