import warnings
import zlib

import numpy as np
import pytest
from conftest import HOSTILE_CASES, hostile_checkpoint

from keynodes.autodiff import (
    CHECKPOINT_MAGIC,
    ParamStore,
    Tape,
    _scatter,
    first_nonfinite,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from keynodes.errors import DataError, ShapeError


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
        if name == "clamp_min":
            return tape.record("clamp_min", [x], c=0.3)
        if name == "transpose":
            return tape.record("transpose", [x])
        raise AssertionError(name)

    params = ParamStore({"x": rng.normal(size=(6, 4 if name == "row_softmax_grouped" else 3))})
    if name == "matmul":
        params["y"] = rng.normal(size=(3, 4))
    if name == "concat":
        params["y2"] = rng.normal(size=(6, 2))
    if name == "add":
        params["brow"] = rng.normal(size=(1, 3))
    if name == "mul":
        params["bcol"] = rng.normal(size=(6, 1))

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
    "mean_rows", "sum", "scalar_mul", "gather_rows", "clamp_min", "transpose",
]


class TestScatter:
    """_scatter equals the 2-D ufunc.at it replaces, bit for bit."""

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
        got = np.full((6, cols), fill)
        with np.errstate(invalid="ignore"):  # the 1-D maximum flags NaN
            _scatter(ufunc, got, seg, x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got[[1, 3, 5]], np.full((3, cols), fill))

    def test_segment_softmax_nan_input_warns_nothing(self):
        tape = Tape()
        x = tape.leaf(np.array([[np.nan, 1.0], [0.5, 2.0], [1.5, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = tape.record("segment_softmax", [x], segments=np.array([0, 0, 1]), num_segments=3)
        assert np.isnan(tape.value(y)[:2, 0]).all()
        assert first_nonfinite(tape) == (0, "leaf")


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
        tape = Tape()
        x = tape.leaf(np.array([[-1.0]]))
        tape.record("log", [x])  # NaN
        tape.record("exp", [x])
        nid, op = first_nonfinite(tape)
        assert op == "log" and nid == 1
