"""Dense float64 reverse-mode differentiation on an explicit tape.

Values are always 2-D float64 arrays; scalars are (1, 1).  The forward pass
runs eagerly as ops are recorded; `Tape.backward` sweeps the tape in reverse
to accumulate gradients.  The op set is exactly what the scoring model
needs, no more.  One op is fused to save memory: ``attend`` sums graph
attention's weighted messages per destination and, in backward, recomputes
its (messages, width) intermediates instead of keeping them on the tape.
A recording tape keeps a value only while a backward may read it (see
`_READS`); every other value lives as long as the caller's handle to it,
and `backward` drops each node's value once its own step has run.

Subgradient conventions: leaky_relu'(0) = alpha, relu'(0) = 0,
clamp_min'(at the bound) = 1.
"""

from __future__ import annotations

import math
import operator
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError

CHECKPOINT_MAGIC = b"MMEN1"


def _as2d(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeError(f"tensors must be 2-D, got shape {a.shape}")
    return a


def _bcast(op, a, b):
    for ax in range(2):
        if a[ax] != b[ax] and a[ax] != 1 and b[ax] != 1:
            raise ShapeError(f"{op}: incompatible shapes {a} and {b}")


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the input's shape."""
    for ax in range(2):
        if shape[ax] == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _segments(attrs, rows, op):
    seg = np.asarray(attrs["segments"], dtype=np.int64)
    num = int(attrs["num_segments"])
    if seg.ndim != 1 or seg.shape[0] != rows:
        raise ShapeError(f"{op}: segments length {seg.shape} != rows {rows}")
    if seg.size and (seg.min() < 0 or seg.max() >= num):
        raise ShapeError(f"{op}: segment id out of range [0, {num})")
    return seg, num


def _segment_rows_sum(x, seg, num):
    """(num, C) sums of x's rows per segment.  bincount adds each entry in row order from
    0.0, as np.add.at into zeros does, so the bits are the same."""
    cols = x.shape[1]
    flat = (seg[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, weights=x.ravel(), minlength=num * cols).reshape(num, cols)


def _segment_rows_max(x, seg, num):
    """(num, C) maxima of x's rows per segment, -inf where a segment is empty."""
    cols = x.shape[1]
    out = np.full(num * cols, -np.inf)
    with np.errstate(invalid="ignore"):  # NaN input: first_nonfinite finds it
        np.maximum.at(out, (seg[:, None] * cols + np.arange(cols)).ravel(), x.ravel())
    return out.reshape(num, cols)


class TensorNode:
    __slots__ = ("op", "value", "inputs", "attrs", "grad")

    def __init__(self, op, value, inputs, attrs):
        self.op = op
        self.value = value
        self.inputs = inputs
        self.attrs = attrs
        self.grad = None


class Released:
    """What a node keeps of a value no backward reads: the shape, all that a
    backward reading only shapes needs."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = shape


class Handle:
    """A recording tape's result: the node id, usable as an index
    (``tape.nodes[h]``), and the output array, which lives as long as the
    handle does unless the node keeps it too."""

    __slots__ = ("id", "value")

    def __init__(self, nid, value):
        self.id = nid
        self.value = value

    def __index__(self):
        return self.id

    def __eq__(self, other):
        """Equal to its node id, so a handle and an int id find the same dict key."""
        try:
            return self.id == operator.index(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.id)


class Tape:
    """Append-only computation record; acyclic because inputs precede nodes.

    leaf and record return a Handle.  A node keeps its value only where a
    backward reads it (by _READS): a leaf always, an op's output if its own
    backward reads it, and an input once an op whose backward reads its
    inputs is recorded on it.  Every other value lives as long as its
    handle.  With grad=False the tape records nothing: leaf and record
    return the array itself, freed once the caller drops it."""

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.nodes: list[TensorNode] = []
        self._swept = False

    def _push(self, op, value, inputs, attrs, keep) -> Handle:
        self.nodes.append(TensorNode(op, value if keep else Released(value.shape), inputs, attrs))
        return Handle(len(self.nodes) - 1, value)

    def leaf(self, value, name: str | None = None):
        value = _as2d(value)
        if not self.grad:
            return value
        return self._push("leaf", value, (), {"name": name}, True)

    def value(self, h) -> np.ndarray:
        return h.value if self.grad else h

    def record(self, op: str, inputs, **attrs):
        if op not in _FORWARD:
            raise ShapeError(f"unknown op {op!r}")
        if not self.grad:
            return _FORWARD[op](inputs, attrs)
        value = _FORWARD[op]([h.value for h in inputs], attrs)
        if "x" in _READS[op]:
            for h in inputs:
                self.nodes[h.id].value = h.value
        return self._push(op, value, tuple(h.id for h in inputs), attrs, "y" in _READS[op])

    def backward(self, loss) -> None:
        """Reverse sweep from a scalar node.  Only leaves keep .grad (None if the loss
        does not depend on them): a non-leaf's is dropped once passed to its inputs.
        No .grad is zero-filled, written in place, or shared by two leaves.  Each
        non-leaf node drops its value once its own step has run or been skipped,
        since no step left reads it, so a tape sweeps only once."""
        if self._swept:
            raise ShapeError("backward: the tape was already swept and its values released")
        root = self.nodes[loss]
        if root.value.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got shape {root.value.shape}")
        self._swept = True
        for node in self.nodes:
            node.grad = None
        root.grad = np.ones((1, 1))
        for node in self.nodes[loss::-1]:
            if node.op == "leaf":
                continue
            if node.grad is not None:
                in_vals = [self.nodes[i].value for i in node.inputs]
                for iid, g in zip(node.inputs, _BACKWARD[node.op](node, in_vals)):
                    if g is None:
                        continue
                    tgt = self.nodes[iid]
                    tgt.grad = g if tgt.grad is None else tgt.grad + g
                node.grad = None
            node.value = Released(node.value.shape)


class _NonFinite(Exception):
    """Ends a replay at its first non-finite value: (node id, TensorNode)."""


class _FirstNonfinite(Tape):
    def _push(self, op, value, inputs, attrs, keep) -> Handle:
        if not np.isfinite(value).all():
            raise _NonFinite(len(self.nodes), TensorNode(op, value, inputs, attrs))
        return super()._push(op, value, inputs, attrs, keep)


def first_nonfinite(run) -> tuple[int, TensorNode] | None:
    """(node id, node) of the first non-finite value that ``run(tape)`` records on a
    fresh recording tape, found as it is recorded; None if every value is finite."""
    try:
        run(_FirstNonfinite())
    except _NonFinite as stop:
        return stop.args
    return None


# -- forward ------------------------------------------------------------------


def _fwd_matmul(vals, attrs):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: ({a.shape[0]}x{a.shape[1]}) @ ({b.shape[0]}x{b.shape[1]})")
    return a @ b


def _fwd_add(vals, attrs):
    a, b = vals
    _bcast("add", a.shape, b.shape)
    return a + b


def _fwd_mul(vals, attrs):
    a, b = vals
    _bcast("mul", a.shape, b.shape)
    return a * b


def _fwd_concat(vals, attrs):
    axis = int(attrs.get("axis", 1))
    other = 1 - axis
    first = vals[0].shape[other]
    if any(v.shape[other] != first for v in vals):
        raise ShapeError(f"concat: mismatched shapes {[v.shape for v in vals]} on axis {axis}")
    return np.concatenate(vals, axis=axis)


def _fwd_layer_norm(vals, attrs):
    (x,) = vals
    eps = float(attrs.get("eps", 1e-5))
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _row_groups(x, attrs):
    """View x as (rows, group, cols // group): row_softmax normalizes each
    row's `group` equal runs of columns separately (default 1: the whole row)."""
    group = int(attrs.get("group", 1))
    if group < 1 or x.shape[1] % group:
        raise ShapeError(f"row_softmax: {x.shape[1]} columns do not split into {group} groups")
    return x.reshape(x.shape[0], group, -1)


def _fwd_row_softmax(vals, attrs):
    x = _row_groups(vals[0], attrs)
    e = np.exp(x - x.max(axis=2, keepdims=True))
    return (e / e.sum(axis=2, keepdims=True)).reshape(vals[0].shape)


def _fwd_segment_softmax(vals, attrs):
    (x,) = vals
    seg, num = _segments(attrs, x.shape[0], "segment_softmax")
    e = np.exp(x - _segment_rows_max(x, seg, num)[seg])
    return e / _segment_rows_sum(e, seg, num)[seg]


def _fwd_segment_sum(vals, attrs):
    (x,) = vals
    return _segment_rows_sum(x, *_segments(attrs, x.shape[0], "segment_sum"))


def _fwd_gather_rows(vals, attrs):
    (x,) = vals
    idx = np.asarray(attrs["indices"], dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather_rows: index out of range [0, {x.shape[0]})")
    return x[idx]


def _fwd_attend(vals, attrs):
    """Per-segment sums of the messages (att @ spread) * hw[src]: each message's (E, H)
    attention spread over its heads' columns by the 0/1 (H, H*F) attr ``spread``,
    times its source's row of hw."""
    att, hw = vals
    spread = np.asarray(attrs["spread"], dtype=np.float64)
    src = np.asarray(attrs["src"], dtype=np.int64)
    if spread.shape != (att.shape[1], hw.shape[1]):
        raise ShapeError(f"attend: spread {spread.shape} does not map {att.shape} onto {hw.shape}")
    if src.shape != (att.shape[0],):
        raise ShapeError(f"attend: src shape {src.shape} != ({att.shape[0]},)")
    if src.size and (src.min() < 0 or src.max() >= hw.shape[0]):
        raise ShapeError(f"attend: source out of range [0, {hw.shape[0]})")
    seg, num = _segments(attrs, att.shape[0], "attend")
    return _segment_rows_sum((att @ spread) * hw[src], seg, num)


def _fwd_log(vals, attrs):
    # non-positive inputs yield -inf/NaN silently; first_nonfinite finds them
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(vals[0])


def _fwd_exp(vals, attrs):
    with np.errstate(over="ignore"):
        return np.exp(vals[0])


_FORWARD = {
    "matmul": _fwd_matmul,
    "add": _fwd_add,
    "mul": _fwd_mul,
    "concat": _fwd_concat,
    "leaky_relu": lambda v, a: np.where(v[0] > 0, v[0], float(a.get("alpha", 0.2)) * v[0]),
    "elu": lambda v, a: np.where(v[0] > 0, v[0], np.expm1(np.minimum(v[0], 0.0))),
    "relu": lambda v, a: np.maximum(v[0], 0.0),
    "sigmoid": lambda v, a: _stable_sigmoid(v[0]),
    "exp": _fwd_exp,
    "log": _fwd_log,
    "row_softmax": _fwd_row_softmax,
    "segment_softmax": _fwd_segment_softmax,
    "segment_sum": _fwd_segment_sum,
    "layer_norm": _fwd_layer_norm,
    "mean_rows": lambda v, a: v[0].mean(axis=0, keepdims=True),
    "sum": lambda v, a: np.array([[v[0].sum()]]),
    "scalar_mul": lambda v, a: float(a["c"]) * v[0],
    "gather_rows": _fwd_gather_rows,
    "attend": _fwd_attend,
    "clamp_min": lambda v, a: np.maximum(v[0], float(a["c"])),
    "transpose": lambda v, a: v[0].T.copy(),
}


# -- backward -------------------------------------------------------------------

# What each op's backward reads besides its output's gradient: "x" its inputs'
# values, "y" its own value.  An op with neither reads at most its inputs' shapes.
_READS = {
    "matmul": "x",
    "add": "",
    "mul": "x",
    "concat": "",
    "leaky_relu": "x",
    "elu": "y",
    "relu": "x",
    "sigmoid": "y",
    "exp": "y",
    "log": "x",
    "row_softmax": "y",
    "segment_softmax": "y",
    "segment_sum": "",
    "layer_norm": "xy",
    "mean_rows": "",
    "sum": "",
    "scalar_mul": "",
    "gather_rows": "",
    "attend": "x",
    "clamp_min": "x",
    "transpose": "",
}


def _bwd_matmul(node, ins):
    a, b = ins
    return (node.grad @ b.T, a.T @ node.grad)


def _bwd_add(node, ins):
    ga, gb = (_unbroadcast(node.grad, x.shape) for x in ins)
    return ga, (gb.copy() if gb is ga else gb)  # each input owns its gradient


def _bwd_mul(node, ins):
    a, b = ins
    return (_unbroadcast(node.grad * b, a.shape), _unbroadcast(node.grad * a, b.shape))


def _bwd_concat(node, ins):
    axis = int(node.attrs.get("axis", 1))
    sizes = [x.shape[axis] for x in ins]
    return tuple(np.split(node.grad, np.cumsum(sizes)[:-1], axis=axis))


def _bwd_layer_norm(node, ins):
    (x,) = ins
    eps = float(node.attrs.get("eps", 1e-5))
    y = node.value
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps)
    g = node.grad
    # dx = inv * (g - mean(g) - y * mean(g*y)) per row
    return (inv * (g - g.mean(axis=1, keepdims=True) - y * (g * y).mean(axis=1, keepdims=True)),)


def _bwd_row_softmax(node, ins):
    y, g = _row_groups(node.value, node.attrs), _row_groups(node.grad, node.attrs)
    return ((y * (g - (g * y).sum(axis=2, keepdims=True))).reshape(node.value.shape),)


def _bwd_segment_softmax(node, ins):
    y, g = node.value, node.grad
    seg = np.asarray(node.attrs["segments"], dtype=np.int64)
    dot = _segment_rows_sum(g * y, seg, int(node.attrs["num_segments"]))
    return (y * (g - dot[seg]),)


def _bwd_segment_sum(node, ins):
    seg = np.asarray(node.attrs["segments"], dtype=np.int64)
    return (node.grad[seg],)


def _bwd_gather_rows(node, ins):
    idx = np.asarray(node.attrs["indices"], dtype=np.int64)
    return (_segment_rows_sum(node.grad, idx, ins[0].shape[0]),)


def _bwd_attend(node, ins):
    """Recomputes att @ spread and hw[src] rather than keep (E, H*F) arrays on the tape."""
    att, hw = ins
    spread = np.asarray(node.attrs["spread"], dtype=np.float64)
    src = np.asarray(node.attrs["src"], dtype=np.int64)
    g = node.grad[np.asarray(node.attrs["segments"], dtype=np.int64)]
    return ((g * hw[src]) @ spread.T, _segment_rows_sum(g * (att @ spread), src, hw.shape[0]))


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "mul": _bwd_mul,
    "concat": _bwd_concat,
    "leaky_relu": lambda n, i: (
        n.grad * np.where(i[0] > 0, 1.0, float(n.attrs.get("alpha", 0.2))),
    ),
    # elu(x) > 0 exactly where x > 0, as expm1(x) <= 0 for x <= 0
    "elu": lambda n, i: (n.grad * np.where(n.value > 0, 1.0, n.value + 1.0),),
    "relu": lambda n, i: (n.grad * (i[0] > 0),),
    "sigmoid": lambda n, i: (n.grad * n.value * (1.0 - n.value),),
    "exp": lambda n, i: (n.grad * n.value,),
    "log": lambda n, i: (n.grad / i[0],),
    "row_softmax": _bwd_row_softmax,
    "segment_softmax": _bwd_segment_softmax,
    "segment_sum": _bwd_segment_sum,
    "layer_norm": _bwd_layer_norm,
    "mean_rows": lambda n, i: (np.repeat(n.grad / i[0].shape[0], i[0].shape[0], axis=0),),
    "sum": lambda n, i: (np.full(i[0].shape, float(n.grad[0, 0])),),
    "scalar_mul": lambda n, i: (n.grad * float(n.attrs["c"]),),
    "gather_rows": _bwd_gather_rows,
    "attend": _bwd_attend,
    "clamp_min": lambda n, i: (n.grad * (i[0] >= float(n.attrs["c"])),),
    "transpose": lambda n, i: (n.grad.T.copy(),),
}


# -- parameters ---------------------------------------------------------------


class ParamStore:
    """Named float64 tensors with a flat view for the optimizer and checks."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None):
        self._t: dict[str, np.ndarray] = {}
        if tensors:
            for name, val in tensors.items():
                self[name] = val

    def __setitem__(self, name: str, value):
        if not name:
            raise DataError("tensor name must be non-empty")
        self._t[name] = np.asarray(value, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._t:
            raise DataError(f"missing tensor {name!r}")
        return self._t[name]

    def __contains__(self, name: str) -> bool:
        return name in self._t

    def __len__(self) -> int:
        return len(self._t)

    def names(self) -> list[str]:
        return list(self._t)

    def items(self):
        return self._t.items()

    def copy(self) -> "ParamStore":
        return ParamStore({k: v.copy() for k, v in self._t.items()})

    def zeros_like(self) -> "ParamStore":
        return ParamStore({k: np.zeros_like(v) for k, v in self._t.items()})

    def numel(self) -> int:
        return sum(v.size for v in self._t.values())

    def flat(self) -> np.ndarray:
        if not self._t:
            return np.zeros(0)
        return np.concatenate([v.ravel() for v in self._t.values()])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.numel():
            raise ShapeError(f"flat vector length {vec.size} != numel {self.numel()}")
        pos = 0
        for name, v in self._t.items():
            self._t[name] = vec[pos : pos + v.size].reshape(v.shape).copy()
            pos += v.size


def grad_check(
    f,
    params: ParamStore,
    eps: float = 1e-6,
    subsample_above: int = 10_000,
    subsample_frac: float = 0.05,
    rng_seed: int = 0,
    exclude: np.ndarray | None = None,
    atol: float = 1e-9,
) -> float:
    """Max relative error between f's analytic gradient and central differences.

    `f(params)` returns the scalar loss; `f(params, want_grad=True)` returns
    ``(loss, grads)`` with grads mapping every parameter name to its gradient
    array.  All components are swept when the store has at most
    `subsample_above` entries, otherwise a seeded random 5% subsample.
    `exclude` is an optional boolean mask over the flat view for components
    the caller knows sit on an activation kink.  Relative error uses
    denominator max(|a|, |b|, 1e-12); absolute differences within `atol`
    count as exact, since central differences carry roundoff noise of order
    eta*|loss|/eps that would otherwise swamp parameters whose true gradient
    is structurally zero.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DataError(f"eps must be in [1e-7, 1e-3], got {eps}")
    _, grads = f(params, want_grad=True)
    analytic = np.concatenate(
        [np.asarray(grads[name], dtype=np.float64).ravel() for name in params.names()]
    )
    base = params.flat()
    total = base.size
    if total <= subsample_above:
        indices = np.arange(total)
    else:
        rng = np.random.default_rng(rng_seed)
        k = max(1, int(round(subsample_frac * total)))
        indices = rng.choice(total, size=k, replace=False)
    if exclude is not None:
        indices = indices[~np.asarray(exclude).ravel()[indices]]

    probe = params.copy()
    vec = base.copy()
    worst = 0.0
    for idx in indices:
        vec[idx] = base[idx] + eps
        probe.set_flat(vec)
        hi = float(f(probe))
        vec[idx] = base[idx] - eps
        probe.set_flat(vec)
        lo = float(f(probe))
        vec[idx] = base[idx]
        fd = (hi - lo) / (2.0 * eps)
        an = analytic[idx]
        if abs(fd - an) <= atol:
            continue
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
        worst = max(worst, rel)
    return worst


# -- checkpoint format ---------------------------------------------------------


def save_checkpoint(params, path) -> None:
    """Named-tensor binary: magic, then per tensor
    (u64 name length, name, u64 rank, u64 dims..., f64 payload), little-endian."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, val in params.items():
            arr = np.asarray(val, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> ParamStore:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: checkpoint not found")
    blob = path.read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)

    def take(nbytes, what):
        nonlocal pos
        if pos + nbytes > len(blob):
            raise DataError(f"{path}: truncated checkpoint while reading {what}")
        chunk = blob[pos : pos + nbytes]
        pos += nbytes
        return chunk

    store = ParamStore()
    while pos < len(blob):
        (name_len,) = struct.unpack("<Q", take(8, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: tensor name is not UTF-8") from None
        if name in store:
            raise DataError(f"{path}: duplicate tensor {name!r}")
        (rank,) = struct.unpack("<Q", take(8, "rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims"))
        count = math.prod(dims)  # Python ints: huge dims cannot wrap to a small count
        data = np.frombuffer(take(8 * count, f"tensor {name!r}"), dtype="<f8")
        store[name] = data.reshape(dims).astype(np.float64)
    return store
