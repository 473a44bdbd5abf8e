import tracemalloc
import warnings
import weakref
import zlib
from functools import lru_cache

import numpy as np
import pytest
from conftest import HOSTILE_CASES, hostile_checkpoint

from keynodes import autodiff
from keynodes.autodiff import (
    _BACKWARD,
    _FORWARD,
    _READS,
    CHECKPOINT_MAGIC,
    ParamStore,
    Released,
    Tape,
    _segment_rows_max,
    _segment_rows_sum,
    first_nonfinite,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from keynodes.errors import DataError, NumericError, ShapeError
from keynodes.features import WalkConfig, featurize_graph
from keynodes.graphs import synth_cascade
from keynodes.model import (
    ModelConfig,
    bind_params,
    collect_grads,
    init_params,
    mmen_forward,
    param_shapes,
)
from keynodes.training import TrainConfig, coverage_loss, score_graph, train


class TestForward:
    def test_matmul_shape_rule(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((3, 4)))
        out = tape.record("matmul", [a, b])
        assert tape.value(out).shape == (2, 4)

    def test_matmul_mismatch_names_op_and_shapes(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((4, 4)))
        with pytest.raises(ShapeError, match=r"matmul.*2x3.*4x4"):
            tape.record("matmul", [a, b])

    def test_row_softmax_rows_sum_to_one(self):
        tape = Tape()
        x = tape.leaf(np.random.default_rng(0).normal(size=(5, 7)))
        y = tape.value(tape.record("row_softmax", [x]))
        assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-12

    def test_grouped_row_softmax_normalizes_each_group(self):
        tape = Tape()
        x = np.random.default_rng(2).normal(size=(3, 6))
        y = tape.value(tape.record("row_softmax", [tape.leaf(x)], group=3))
        for k in range(3):
            cols = slice(2 * k, 2 * k + 2)
            ref = tape.value(tape.record("row_softmax", [tape.leaf(x[:, cols])]))
            assert np.array_equal(y[:, cols], ref)

    def test_row_softmax_group_must_divide_columns(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 6)))
        with pytest.raises(ShapeError, match="row_softmax.*6 columns.*4 groups"):
            tape.record("row_softmax", [x], group=4)

    def test_segment_softmax_per_segment(self):
        tape = Tape()
        x = tape.leaf(np.array([[1.0], [2.0], [3.0]]))
        y = tape.value(
            tape.record("segment_softmax", [x], segments=np.array([0, 0, 1]), num_segments=2)
        )
        assert abs(y[0, 0] + y[1, 0] - 1.0) < 1e-12
        assert abs(y[2, 0] - 1.0) < 1e-12

    def test_layer_norm_moments(self):
        tape = Tape()
        x = tape.leaf(np.random.default_rng(1).normal(2.0, 3.0, size=(6, 9)))
        y = tape.value(tape.record("layer_norm", [x], eps=1e-5))
        assert np.abs(y.mean(axis=1)).max() < 1e-12
        assert np.abs(y.var(axis=1) - 1.0).max() < 1e-4  # eps shifts variance slightly

    def test_unknown_op_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="unknown op"):
            tape.record("conv3d", [x])

    def test_gather_range_checked(self):
        tape = Tape()
        x = tape.leaf(np.ones((3, 2)))
        with pytest.raises(ShapeError, match="gather_rows"):
            tape.record("gather_rows", [x], indices=np.array([0, 3]))


class TestBackward:
    def test_sum_of_matrix_gives_ones(self):
        tape = Tape()
        w = tape.leaf(np.arange(4.0).reshape(2, 2))
        loss = tape.record("sum", [w])
        tape.backward(loss)
        assert np.array_equal(tape.nodes[w].grad, np.ones((2, 2)))

    def test_sigmoid_grad_at_zero(self):
        tape = Tape()
        x = tape.leaf(np.zeros((1, 1)))
        loss = tape.record("sum", [tape.record("sigmoid", [x])])
        tape.backward(loss)
        assert abs(tape.nodes[x].grad[0, 0] - 0.25) < 1e-15

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(x)

    def test_backward_deterministic(self):
        def run():
            tape = Tape()
            rng = np.random.default_rng(5)
            a = tape.leaf(rng.normal(size=(4, 3)))
            b = tape.leaf(rng.normal(size=(3, 4)))
            h = tape.record("sigmoid", [tape.record("matmul", [a, b])])
            loss = tape.record("sum", [tape.record("mul", [h, h])])
            tape.backward(loss)
            return tape.nodes[a].grad.copy(), tape.nodes[b].grad.copy()

        (ga1, gb1), (ga2, gb2) = run(), run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_leaf_gradients_never_share_memory(self):
        tape = Tape()
        a = tape.leaf(np.ones((3, 2)))
        b = tape.leaf(np.full((3, 2), 2.0))
        tape.backward(tape.record("sum", [tape.record("add", [a, b])]))
        ga, gb = tape.nodes[a].grad, tape.nodes[b].grad
        assert np.array_equal(ga, np.ones((3, 2))) and np.array_equal(gb, np.ones((3, 2)))
        assert not np.shares_memory(ga, gb)

    def test_grad_stays_none_where_none_flows(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones((2, 2)))
        y = tape.record("exp", [unused])
        loss = tape.record("sum", [x])
        tape.backward(loss)
        assert tape.nodes[unused].grad is None and tape.nodes[y].grad is None
        assert np.array_equal(tape.nodes[x].grad, np.ones((2, 2)))

    def test_five_op_composite_matches_fd(self):
        rng = np.random.default_rng(9)
        params = ParamStore(
            {"W": rng.normal(size=(4, 3)), "V": rng.normal(size=(3, 3)), "b": rng.normal(size=(1, 3))}
        )
        x = rng.normal(size=(5, 4))

        def f(ps, want_grad=False):
            tape = Tape()
            ids = {k: tape.leaf(v, name=k) for k, v in ps.items()}
            h = tape.record("matmul", [tape.leaf(x), ids["W"]])
            h = tape.record("add", [tape.record("matmul", [h, ids["V"]]), ids["b"]])
            h = tape.record("sigmoid", [h])
            loss = tape.record("sum", [tape.record("mul", [h, h])])
            if not want_grad:
                return tape.value(loss).item()
            tape.backward(loss)
            return tape.value(loss).item(), {k: tape.nodes[i].grad for k, i in ids.items()}

        assert grad_check(f, params, eps=1e-6) < 1e-6


def _op_case(name):
    """Build (param store, tape builder) exercising a single op."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    seg = np.array([0, 0, 1, 2, 2, 2])
    idx = np.array([0, 2, 2, 1])

    def leafed(tape, ps, ids):
        x = ids["x"]
        if name == "matmul":
            return tape.record("matmul", [x, ids["y"]])
        if name == "add":
            return tape.record("add", [x, ids["brow"]])
        if name == "mul":
            return tape.record("mul", [x, ids["bcol"]])
        if name == "concat":
            return tape.record("concat", [x, ids["y2"]], axis=1)
        if name == "leaky_relu":
            return tape.record("leaky_relu", [x], alpha=0.2)
        if name == "elu":
            return tape.record("elu", [x])
        if name == "relu":
            return tape.record("relu", [x])
        if name == "sigmoid":
            return tape.record("sigmoid", [x])
        if name == "exp":
            return tape.record("exp", [x])
        if name == "log":
            return tape.record("log", [tape.record("sigmoid", [x])])
        if name == "row_softmax":
            return tape.record("row_softmax", [x])
        if name == "row_softmax_grouped":
            return tape.record("row_softmax", [x], group=2)
        if name == "segment_softmax":
            return tape.record("segment_softmax", [x], segments=seg, num_segments=3)
        if name == "segment_sum":
            return tape.record("segment_sum", [x], segments=seg, num_segments=3)
        if name == "layer_norm":
            return tape.record("layer_norm", [x], eps=1e-5)
        if name == "mean_rows":
            return tape.record("mean_rows", [x])
        if name == "sum":
            return tape.record("sum", [x])
        if name == "scalar_mul":
            return tape.record("scalar_mul", [x], c=-1.7)
        if name == "gather_rows":
            return tape.record("gather_rows", [x], indices=idx)
        if name == "attend":  # sources 0 and 2 repeat; node 1 sends nothing
            spread = np.kron(np.eye(2), np.ones((1, 2)))
            src = np.array([0, 2, 2, 3, 0, 2])
            return tape.record(
                "attend", [x, ids["hw"]], spread=spread, src=src, segments=seg, num_segments=3
            )
        if name == "clamp_min":
            return tape.record("clamp_min", [x], c=0.3)
        if name == "transpose":
            return tape.record("transpose", [x])
        raise AssertionError(name)

    cols = {"row_softmax_grouped": 4, "attend": 2}.get(name, 3)
    params = ParamStore({"x": rng.normal(size=(6, cols))})
    if name == "matmul":
        params["y"] = rng.normal(size=(3, 4))
    if name == "concat":
        params["y2"] = rng.normal(size=(6, 2))
    if name == "add":
        params["brow"] = rng.normal(size=(1, 3))
    if name == "mul":
        params["bcol"] = rng.normal(size=(6, 1))
    if name == "attend":
        params["hw"] = rng.normal(size=(4, 4))

    def f(ps, want_grad=False):
        tape = Tape()
        ids = {k: tape.leaf(v, name=k) for k, v in ps.items()}
        out = leafed(tape, ps, ids)
        # squash through sigmoid so the reduction has curvature everywhere
        loss = tape.record("sum", [tape.record("sigmoid", [out])])
        if not want_grad:
            return tape.value(loss).item()
        tape.backward(loss)
        return tape.value(loss).item(), {k: tape.nodes[i].grad for k, i in ids.items()}

    return params, f


ALL_OPS = [
    "matmul", "add", "mul", "concat", "leaky_relu", "elu", "relu", "sigmoid",
    "exp", "log", "row_softmax", "segment_softmax", "segment_sum", "layer_norm",
    "mean_rows", "sum", "scalar_mul", "gather_rows", "attend", "clamp_min", "transpose",
]


SEGMENT_REDUCE = {np.add: _segment_rows_sum, np.maximum: _segment_rows_max}


class TestScatter:
    """The segment sum and max equal the 2-D ufunc.at scatters they replace, bit for bit."""

    @pytest.mark.parametrize("cols", [1, 64])
    @pytest.mark.parametrize("ufunc, fill", [(np.add, 0.0), (np.maximum, -np.inf)])
    @pytest.mark.parametrize("nan", [False, True])
    def test_matches_2d_at(self, cols, ufunc, fill, nan):
        rng = np.random.default_rng(cols)
        seg = np.array([4, 0, 4, 2, 0, 0, 4, 2, 4], dtype=np.int64)  # unsorted, repeated
        x = rng.normal(size=(seg.size, cols))
        if nan:
            x[[1, 6], 0] = np.nan
        want = np.full((6, cols), fill)  # segments 1, 3 and 5 are empty
        ufunc.at(want, seg, x)
        got = SEGMENT_REDUCE[ufunc](x, seg, 6)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(got[[1, 3, 5]], np.full((3, cols), fill))

    @pytest.mark.parametrize("ufunc, fill", [(np.add, 0.0), (np.maximum, -np.inf)])
    def test_signed_zeros_keep_their_bits(self, ufunc, fill):
        seg = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        col = np.array([0.0, -0.0, -0.0, -0.0, 0.0])  # segment 0 all -0.0, segment 1 mixed
        x = np.stack([col, -col, col[::-1]], axis=1)
        want = np.full((2, 3), fill)
        ufunc.at(want, seg, x)
        got = SEGMENT_REDUCE[ufunc](x, seg, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_gather_rows_backward_through_fortran_leaf(self):
        rng = np.random.default_rng(3)
        idx = np.array([4, 0, 4, 2, 0], dtype=np.int64)
        w = rng.normal(size=(idx.size, 3))
        tape = Tape()
        x = tape.leaf(np.asfortranarray(rng.normal(size=(5, 3))))
        assert tape.value(x).flags.f_contiguous
        rows = tape.record("gather_rows", [x], indices=idx)
        tape.backward(tape.record("sum", [tape.record("mul", [rows, tape.leaf(w)])]))
        want = np.zeros((5, 3))
        np.add.at(want, idx, w)
        grad = tape.nodes[x].grad
        assert grad.flags.c_contiguous and grad.tobytes() == want.tobytes()

    def test_segment_softmax_nan_input_warns_nothing(self):
        def run(tape):
            x = tape.leaf(np.array([[np.nan, 1.0], [0.5, 2.0], [1.5, -1.0]]))
            return tape.record("segment_softmax", [x], segments=np.array([0, 0, 1]), num_segments=3)

        tape = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = run(tape)
        assert np.isnan(tape.value(y)[:2, 0]).all()
        nid, node = first_nonfinite(run)
        assert (nid, node.op) == (0, "leaf")


class TestEveryOpAgainstFiniteDifferences:
    def test_sweep_covers_entire_op_set(self):
        from keynodes.autodiff import _FORWARD

        assert set(ALL_OPS) == set(_FORWARD)

    @pytest.mark.parametrize("op", ALL_OPS + ["row_softmax_grouped"])
    def test_op(self, op):
        params, f = _op_case(op)
        assert grad_check(f, params, eps=1e-6) < 1e-5


class TestGradCheck:
    def test_quadratic_is_tight(self):
        params = ParamStore({"w": np.array([[1.0, -2.0, 3.0]])})
        target = np.array([[0.5, 0.5, 0.5]])

        def f(ps, want_grad=False):
            w = ps["w"]
            loss = float(((w - target) ** 2).sum())
            if not want_grad:
                return loss
            return loss, {"w": 2.0 * (w - target)}

        assert grad_check(f, params, eps=1e-5) < 1e-9

    def test_kink_exclusion(self):
        # one component sits exactly on the leaky_relu kink; central
        # differences report (1 + alpha)/2 there, the analytic side alpha
        params = ParamStore({"x": np.array([[0.0, 1.0, -1.0]])})

        def f(ps, want_grad=False):
            tape = Tape()
            x = tape.leaf(ps["x"], name="x")
            loss = tape.record("sum", [tape.record("leaky_relu", [x], alpha=0.2)])
            if not want_grad:
                return tape.value(loss).item()
            tape.backward(loss)
            return tape.value(loss).item(), {"x": tape.nodes[x].grad}

        assert grad_check(f, params) > 0.1  # the kink component fails
        mask = np.array([True, False, False])
        assert grad_check(f, params, exclude=mask) < 1e-9

    def test_eps_validated(self):
        params = ParamStore({"w": np.ones((1, 1))})
        with pytest.raises(DataError):
            grad_check(lambda ps, want_grad=False: 0.0, params, eps=1.0)

    def test_subsampling_above_threshold(self):
        rng = np.random.default_rng(0)
        params = ParamStore({"w": rng.normal(size=(40, 30))})
        calls = []

        def f(ps, want_grad=False):
            w = ps["w"]
            loss = float((w**2).sum())
            if not want_grad:
                calls.append(1)
                return loss
            return loss, {"w": 2.0 * w}

        assert grad_check(f, params, subsample_above=100) < 1e-4
        assert len(calls) == 2 * max(1, round(0.05 * 1200))


class TestParamStore:
    def test_flat_round_trip(self):
        ps = ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": np.ones((2, 2))})
        flat = ps.flat()
        assert flat.size == ps.numel() == 10
        ps2 = ps.zeros_like()
        ps2.set_flat(flat)
        assert np.array_equal(ps2["a"], ps["a"])
        assert np.array_equal(ps2["b"], ps["b"])

    def test_flat_length_checked(self):
        ps = ParamStore({"a": np.ones((2, 2))})
        with pytest.raises(ShapeError):
            ps.set_flat(np.ones(5))

    def test_missing_name(self):
        with pytest.raises(DataError):
            ParamStore()["nope"]


class TestCheckpoint:
    def test_round_trip_preserves_order_shapes_values(self, tmp_path):
        rng = np.random.default_rng(4)
        ps = ParamStore(
            {"view.W": rng.normal(size=(3, 5)), "bias": rng.normal(size=(1, 5)), "s": np.array([[2.0]])}
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(ps, path)
        back = load_checkpoint(path)
        assert back.names() == ps.names()
        for name in ps.names():
            assert np.array_equal(back[name], ps[name])

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        ps = ParamStore({"w": np.ones((4, 4))})
        path = tmp_path / "t.ckpt"
        save_checkpoint(ps, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(ParamStore({"w": np.ones((1, 1))}), path)
        assert path.read_bytes()[:5] == CHECKPOINT_MAGIC == b"MMEN1"

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_hostile_checkpoint_rejected(self, tmp_path, case):
        ps = ParamStore({"w": np.ones((2, 2))})
        path = tmp_path / "h.ckpt"
        save_checkpoint(ps, path)
        path.write_bytes(hostile_checkpoint(case, path.read_bytes(), ps))
        with pytest.raises(DataError, match="h.ckpt"):
            load_checkpoint(path)


class TestDiagnostics:
    def test_first_nonfinite_names_op(self):
        def run(tape):
            x = tape.leaf(np.array([[-1.0]]))
            tape.record("log", [x])  # NaN
            tape.record("exp", [x])

        nid, node = first_nonfinite(run)
        assert node.op == "log" and nid == 1
        assert first_nonfinite(lambda tape: tape.leaf(np.ones((2, 2)))) is None


def _model_loss_tape(n=60, seed=3):
    """A recording tape holding one graph's forward plus coverage loss."""
    g = synth_cascade(n, 0.1, 0.3, seed)
    user, struct = featurize_graph(g, WalkConfig(), 0, 0)
    cfg = ModelConfig(hidden=16, heads=4, mem_groups=2, mem_slots=4)
    params = init_params(cfg, 0)
    tape = Tape()
    binding = bind_params(tape, params)
    fwd = mmen_forward(tape, g, user.values, struct.values, params, cfg, binding=binding)
    return tape, coverage_loss(tape, fwd.score, g, 1.0, 1), (g, user, struct, params, cfg)


def _kept_grad_sweep(tape, loss_id):
    """Reference reverse sweep that keeps every node's gradient:
    node id -> gradient, for every node the loss depends on."""
    loss_id = int(loss_id)
    grads = {loss_id: np.ones((1, 1))}
    for nid in range(loss_id, -1, -1):
        node = tape.nodes[nid]
        if nid not in grads or node.op == "leaf":
            continue
        node.grad = grads[nid]
        ins = [tape.nodes[i].value for i in node.inputs]
        for iid, g in zip(node.inputs, _BACKWARD[node.op](node, ins)):
            if g is not None:
                grads[iid] = g if iid not in grads else grads[iid] + g
    return grads


class TestNoGrad:
    def test_ops_return_arrays_and_record_nothing(self):
        rng = np.random.default_rng(0)
        a_val, b_val = rng.normal(size=(5, 3)), rng.normal(size=(3, 2))
        results = []
        for tape in (Tape(), Tape(grad=False)):
            a, b = tape.leaf(a_val, name="a"), tape.leaf(b_val)
            h = tape.record("sigmoid", [tape.record("matmul", [a, b])])
            y = tape.record("segment_softmax", [h], segments=np.array([0, 0, 1, 2, 2]), num_segments=3)
            results.append((tape, tape.value(y), tape.value(a)))
        (rec, want, _), (nograd, got, a_arr) = results
        assert nograd.nodes == [] and len(rec.nodes) == 5
        assert isinstance(a_arr, np.ndarray) and np.array_equal(a_arr, a_val)
        assert np.array_equal(got, want)

    def test_model_forward_keeps_no_nodes(self):
        _, _, (g, user, struct, params, cfg) = _model_loss_tape()
        tape = Tape(grad=False)
        fwd = mmen_forward(tape, g, user.values, struct.values, params, cfg)
        assert tape.nodes == []
        assert fwd.score.shape == (g.n, 1) and np.isfinite(fwd.score).all()


class TestGradientRelease:
    def test_only_leaves_keep_grad_and_leaf_grads_unchanged(self):
        tape, loss, _ = _model_loss_tape()
        kept = _kept_grad_sweep(tape, loss)
        tape.backward(loss)
        leaves = [i for i, node in enumerate(tape.nodes) if node.op == "leaf"]
        assert all(node.grad is None for node in tape.nodes if node.op != "leaf")
        # backward drops every non-leaf value, so a tape sweeps once
        assert all(isinstance(node.value, Released) for node in tape.nodes if node.op != "leaf")
        with pytest.raises(ShapeError, match="already swept"):
            tape.backward(loss)
        assert any(tape.nodes[i].grad is not None for i in leaves)
        for i in leaves:
            want, got = kept.get(i), tape.nodes[i].grad
            assert (got is None) if want is None else np.array_equal(got, want), i


def _keep_everything_backward(tape, loss_id):
    """The reverse sweep of a tape that keeps every value, with elu's backward
    masking on its input."""
    for node in tape.nodes:
        node.grad = None
    tape.nodes[loss_id].grad = np.ones((1, 1))
    for nid in range(loss_id, -1, -1):
        node = tape.nodes[nid]
        if node.grad is None or node.op == "leaf":
            continue
        ins = [tape.nodes[i].value for i in node.inputs]
        if node.op == "elu":
            grads = (node.grad * np.where(ins[0] > 0, 1.0, node.value + 1.0),)
        else:
            grads = _BACKWARD[node.op](node, ins)
        for iid, g in zip(node.inputs, grads):
            if g is not None:
                tgt = tape.nodes[iid]
                tgt.grad = g if tgt.grad is None else tgt.grad + g
        node.grad = None


def keep_everything(monkeypatch):
    """From here on every tape node keeps its value, as if every backward read
    its inputs and its output, and backward is the sweep above."""
    monkeypatch.setattr(autodiff, "_READS", dict.fromkeys(_READS, "xy"))
    monkeypatch.setattr(Tape, "backward", _keep_everything_backward)


@lru_cache(maxsize=2)
def _cascade(n):
    g = synth_cascade(n, 0.1, 0.5, 1)
    user, struct = featurize_graph(g, WalkConfig(), 0, 0)
    return g, user.values, struct.values


def _loss_and_grads(n, ablate):
    """Bytes of one graph's loss and of every parameter gradient."""
    g, user, struct = _cascade(n)
    cfg = ModelConfig()
    keep = param_shapes(cfg, ablate)
    params = ParamStore({k: v for k, v in init_params(cfg, 0).items() if k in keep})
    tape = Tape()
    binding = bind_params(tape, params)
    fwd = mmen_forward(tape, g, user, struct, params, cfg, binding=binding)
    loss = coverage_loss(tape, fwd.score, g, 1.0, 1)
    tape.backward(loss)
    return [tape.value(loss).tobytes()] + [x.tobytes() for x in collect_grads(tape, binding).values()]


class TestHandle:
    def test_equals_and_hashes_as_its_node_id(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.record("add", [a, a])
        assert b == 1 and b == int(b) and b == np.int64(1) and b != a and b != 0
        assert hash(b) == hash(1)
        assert {b: "sum"}[1] == "sum" and {1: "sum"}[b] == "sum"
        assert b != "1" and (b == np.ones(1)) is not True


class TestValueRelease:
    """A recording tape keeps a value only while a backward may read it, so a
    value no backward reads lives as long as its handle; every loss and
    gradient keeps its bits."""

    def test_read_table_covers_every_op(self):
        assert set(_READS) == set(_FORWARD)

    @pytest.mark.parametrize("op, attrs", [("add", {}), ("gather_rows", {"indices": [2, 0, 2]})])
    def test_output_no_backward_reads_is_freed_with_its_handle(self, op, attrs):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(3, 2))
        out = tape.record(op, [x, x] if op == "add" else [x], **attrs)
        total = tape.record("sum", [out])  # sum's backward reads only its input's shape
        freed = weakref.ref(out.value)
        del out
        assert freed() is None
        tape.backward(total)
        want = np.full((3, 2), 2.0) if op == "add" else np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(tape.nodes[x].grad, want)

    def test_matmul_input_lives_until_backward(self):
        tape = Tape()
        x = tape.leaf(np.arange(6.0).reshape(3, 2))
        h = tape.record("add", [x, x])
        kept = weakref.ref(h.value)
        loss = tape.record("sum", [tape.record("matmul", [h, tape.leaf(np.ones((2, 1)))])])
        del h
        assert kept() is not None  # matmul's backward reads its inputs
        tape.backward(loss)
        assert kept() is None
        assert tape.value(loss).item() == 30.0

    def test_elu_backward_masks_on_output_as_on_input(self):
        x = np.array([[-0.0, 0.0, -5e-324, -1e-310, -1e-300, -1e-17, 5e-324, 1e-300,
                       np.nan, -np.inf, np.inf, -40.0, 3.0]])
        x = np.concatenate([x, np.random.default_rng(0).normal(size=(3, x.shape[1]))])
        tape = Tape()
        y = tape.record("elu", [tape.leaf(x)])
        node = tape.nodes[y]
        node.grad = np.random.default_rng(1).normal(size=x.shape)
        (got,) = _BACKWARD["elu"](node, [x])
        want = node.grad * np.where(x > 0, 1.0, node.value + 1.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [350, 5000])
    @pytest.mark.parametrize("ablate", [frozenset(), frozenset({"no-memory"}), frozenset({"no-user"})])
    def test_loss_and_gradients_equal_keep_everything_sweep(self, monkeypatch, n, ablate):
        got = _loss_and_grads(n, ablate)
        keep_everything(monkeypatch)
        assert got == _loss_and_grads(n, ablate)

    def test_two_graph_batch_trains_the_same_bytes(self, monkeypatch):
        graphs = [synth_cascade(350, 0.1, 0.3, seed) for seed in (1, 2, 3)]
        cfg = TrainConfig(batch_size=2, epochs=2, patience=2)

        def run():
            result = train(graphs[:2], graphs[2:], cfg, model_cfg=ModelConfig())
            return result.history, [v.tobytes() for v in result.params.flat()]

        got = run()
        keep_everything(monkeypatch)
        assert got == run()

    def test_inf_in_released_memory_logits_keeps_its_node_id(self, monkeypatch):
        """Huge memory slots overflow the memory similarity matmul, a node that
        keeps no value: it is named as a tape that keeps every value names it."""
        g = synth_cascade(60, 0.1, 0.3, 3)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        cfg = ModelConfig(hidden=16, heads=4, mem_groups=2, mem_slots=4)
        params = init_params(cfg, 0)
        params["struct.mem0.slots"] = np.full_like(params["struct.mem0.slots"], 1e308)

        def run(tape):
            with np.errstate(over="ignore", invalid="ignore"):
                fwd = mmen_forward(tape, g, user.values, struct.values, params, cfg)
                return coverage_loss(tape, fwd.score, g, 1.0, 1)

        def recorded_tape():
            tape = Tape()
            run(tape)
            return tape

        def score_error():
            with pytest.raises(NumericError) as err, np.errstate(over="ignore", invalid="ignore"):
                score_graph(g, params, cfg, user.values, struct.values)
            return str(err.value)

        nid, node = first_nonfinite(run)
        assert node.op == "matmul" and isinstance(recorded_tape().nodes[nid].value, Released)
        message = score_error()
        assert message == f"non-finite score from op 'matmul' (tape node {nid})"
        keep_everything(monkeypatch)
        nodes = recorded_tape().nodes
        assert next(i for i, n in enumerate(nodes) if not np.isfinite(n.value).all()) == nid
        assert score_error() == message

    def test_held_values_and_backward_peak_at_5000_nodes(self):
        g, user, struct = _cascade(5000)
        cfg = ModelConfig()
        params = init_params(cfg, 0)
        tracemalloc.start()
        try:
            tape = Tape()
            fwd = mmen_forward(tape, g, user, struct, params, cfg)
            loss = coverage_loss(tape, fwd.score, g, 1.0, 1)
            held = sum(n.value.nbytes for n in tape.nodes if not isinstance(n.value, Released))
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 90e6 and peak <= 100e6, (held, peak)
