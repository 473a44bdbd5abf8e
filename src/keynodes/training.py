"""Unsupervised coverage objective, Adam, the training loop, and seed picks.

The objective treats each node's score as the probability of drafting it
into the seed set: it penalizes the expected number of nodes left uncovered
(a node is covered when any selected node lies within d directed hops
upstream of it, itself included) plus lambda times the expected seed count.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import BLAS_ONE_THREAD
from .autodiff import ParamStore, Tape, first_nonfinite
from .baselines import ranked_order
from .errors import DataError, NumericError
from .features import WalkConfig, featurize_graph
from .graphs import CascadeGraph, SeedSet, cover_pairs
from .model import (
    ModelConfig,
    bind_params,
    collect_grads,
    init_params,
    mmen_forward,
    validate_params,
)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 2
    epochs: int = 50
    lr: float = 5e-4
    lam: float = 1.0
    d_cover: int = 1
    patience: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise DataError(f"lambda must be finite and > 0, got {self.lam}")
        if self.batch_size < 1 or self.epochs < 1 or self.d_cover < 1:
            raise DataError("batch_size, epochs, d_cover must be >= 1")
        if self.patience < 0 or self.rng_seed < 0:
            raise DataError("patience and rng_seed must be >= 0")


def select_seeds(scores: np.ndarray, fraction: float) -> SeedSet:
    """Top ceil(fraction * N) nodes by score, ties broken by smaller id."""
    if not (0 < fraction <= 1):
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    k = math.ceil(fraction * scores.size)
    order = ranked_order(scores)
    return SeedSet(tuple(int(v) for v in order[:k]))


def coverage_loss(tape: Tape, scores_id, g: CascadeGraph, lam: float, d: int, pairs=None):
    """Record the loss on the tape; returns the scalar's handle.

    First term: sum over nodes of the product of (1 - s_u) over the node's
    coverers, computed in log space with 1 - s clamped at 1e-12 so saturated
    scores cannot underflow the product.  Second term: lam * sum(s).
    """
    if g.n == 0:
        raise DataError("coverage loss needs a non-empty graph")
    if not (math.isfinite(lam) and lam > 0):
        raise DataError(f"lambda must be finite and > 0, got {lam}")
    u_idx, v_idx = cover_pairs(g, d) if pairs is None else pairs
    one = tape.leaf(np.ones((1, 1)))
    one_minus = tape.record("add", [one, tape.record("scalar_mul", [scores_id], c=-1.0)])
    logs = tape.record("log", [tape.record("clamp_min", [one_minus], c=1e-12)])
    per_node = tape.record(
        "segment_sum",
        [tape.record("gather_rows", [logs], indices=u_idx)],
        segments=v_idx,
        num_segments=g.n,
    )
    uncovered = tape.record("sum", [tape.record("exp", [per_node])])
    seed_size = tape.record("scalar_mul", [tape.record("sum", [scores_id])], c=lam)
    return tape.record("add", [uncovered, seed_size])


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: ParamStore
    v: ParamStore
    t: int = 0

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_step(params: ParamStore, grads: dict, state: AdamState, lr: float) -> ParamStore:
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name in params.names():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return params


@dataclass
class GraphBundle:
    """One graph prepared for training: features and cover pairs."""

    graph: CascadeGraph
    user: np.ndarray
    struct: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]


def prepare_graphs(
    graphs,
    cfg: TrainConfig,
    walk_cfg: WalkConfig,
    index_offset: int = 0,
) -> list[GraphBundle]:
    bundles = []
    for i, g in enumerate(graphs):
        user, struct = featurize_graph(g, walk_cfg, cfg.rng_seed, index_offset + i)
        bundles.append(GraphBundle(g, user, struct, cover_pairs(g, cfg.d_cover)))
    return bundles


def _graph_loss(tape, bundle, params, binding, model_cfg, cfg):
    """(fusion weights, loss) handles of one graph's forward plus coverage loss."""
    fwd = mmen_forward(
        tape, bundle.graph, bundle.user, bundle.struct, params, model_cfg, binding=binding
    )
    loss = coverage_loss(tape, fwd.score, bundle.graph, cfg.lam, cfg.d_cover, pairs=bundle.pairs)
    return fwd.weights, loss


def _nonfinite_at(run) -> str:
    """Where the pass ``run(tape)`` first broke, found by replaying it on a recording
    tape: a parameter by name, else the op and tape node."""
    nid, node = first_nonfinite(run)
    name = node.attrs.get("name")  # only bind_params' leaves have one
    return f"parameter {name!r}" if name else f"op '{node.op}' (tape node {nid})"


def _check_finite(loss, context, run) -> float:
    val = loss.item()
    if not np.isfinite(val):
        raise NumericError(f"non-finite value from {_nonfinite_at(run)} during {context}")
    return val


def _train_step(bundle, params, model_cfg, cfg, context):
    """One graph's training loss and parameter gradients."""
    run = partial(_graph_loss, bundle=bundle, params=params, binding=None,
                  model_cfg=model_cfg, cfg=cfg)
    tape = Tape()
    binding = bind_params(tape, params)
    _, loss = run(tape, binding=binding)
    val = _check_finite(tape.value(loss), context, run)
    tape.backward(loss)
    return val, collect_grads(tape, binding)


def _val_step(bundle, params, model_cfg, cfg, context):
    """One graph's validation loss and fusion weight w_user (None without a user view)."""
    run = partial(_graph_loss, bundle=bundle, params=params, binding=None,
                  model_cfg=model_cfg, cfg=cfg)
    weights, loss = run(Tape(grad=False))
    return _check_finite(loss, context, run), None if weights is None else weights[0, 0].item()


_STEPS = {"train": _train_step, "val": _val_step}


def _processes(batch: int) -> int:
    """Processes for batches of ``batch`` graphs: one per graph up to the
    usable CPUs, where fork exists and the BLAS is known to run one thread
    (two BLAS threads per process made two processes 3x slower than one),
    in a process with no other thread (a fork copies no thread, and so no
    lock another thread holds), and outside a daemonic process (a
    multiprocessing pool's worker), which may not have children."""
    import multiprocessing  # here, so the verbs that never fork do not load it

    if (sys.platform != "linux" or not hasattr(os, "fork") or not BLAS_ONE_THREAD
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 1
    return min(batch, len(os.sched_getaffinity(0)))


def _worker(conn, parent_ends, bundles, model_cfg, cfg):
    """A forked worker's loop: run each requested step and send its result,
    or None if it raised, so the parent replays that graph and raises as a
    serial run would.  Ends on EOF or a broken pipe, through os._exit, so
    nothing of the parent's stack (checkpoint or trace writers) runs here."""
    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            kind, params, indices, context = conn.recv()
            for i in indices:
                try:
                    out = _STEPS[kind](bundles[kind][i], params, model_cfg, cfg, context)
                except Exception:
                    out = None
                conn.send(out)
    finally:
        os._exit(0)


class _Workers:
    """Runs the steps of a list of graphs on ``processes`` processes: graph
    j of the list on process j % processes, where process 0 is this one and
    the rest are forked workers holding the prepared bundles.  Results come
    back in list order, so sums over them add in the serial order and are
    bitwise equal to a one-process run's."""

    def __init__(self, processes, bundles, model_cfg, cfg):
        self.bundles, self.model_cfg, self.cfg = bundles, model_cfg, cfg
        self.conns, self.procs = [], []
        if processes < 2:
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(processes - 1):
                parent_end, child_end = ctx.Pipe()
                self.conns.append(parent_end)
                proc = ctx.Process(target=_worker, daemon=True,
                                   args=(child_end, self.conns, bundles, model_cfg, cfg))
                proc.start()
                child_end.close()
                self.procs.append(proc)
        except BaseException:
            self.close(killed=True)
            raise

    def close(self, killed: bool) -> None:
        """Close the pipes, so idle workers exit, and reap every worker."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if killed:
                proc.kill()
            proc.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        self.close(killed=exc_type is not None)

    def map(self, kind, indices, params, context):
        """Yield ``_STEPS[kind]`` of each bundle index in order.  A graph whose
        worker reports a failure is rerun here, so it raises as in a serial run.
        The caller reads every result, or leaves the ``with`` block by the
        exception: a result left unread would be read as the next call's."""
        n = len(self.conns) + 1
        for k, conn in enumerate(self.conns, 1):
            if len(indices) > k:
                conn.send((kind, params, indices[k::n], context))
        step, bundles = _STEPS[kind], self.bundles[kind]
        for j, i in enumerate(indices):
            out = self.conns[j % n - 1].recv() if j % n else None
            if out is None:
                out = step(bundles[i], params, self.model_cfg, self.cfg, context)
            yield out


@dataclass
class TrainResult:
    params: ParamStore
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf


def train(
    train_graphs,
    val_graphs,
    cfg: TrainConfig,
    model_cfg: ModelConfig | None = None,
    walk_cfg: WalkConfig | None = None,
    ablate=frozenset(),
    init: ParamStore | None = None,
    on_epoch=None,
) -> TrainResult:
    """Batch training with early stopping on mean validation loss.

    Deterministic for a fixed cfg.rng_seed: parameter init, walk features,
    and the per-epoch shuffle all derive from it.  Returns the parameters of
    the best validation epoch.  ``ablate`` picks the tensors ``init_params``
    creates; an ``init`` store must hold exactly those (ShapeError if not).
    ``on_epoch(row, seconds, grad_norm, w_user)``, if given, sees each history
    row as its epoch ends, with the epoch's wall time, the mean L2 norm of its
    batch gradients (each the sum over the batch's graphs, all tensors flat)
    and the mean user-view fusion weight over the validation graphs (None
    without a user view).

    With ``fork``, several usable CPUs and a one-thread BLAS, a batch's
    graphs and the validation graphs are split over up to batch_size
    processes (``_Workers``); the result is bitwise that of one process.
    """
    if not train_graphs or not val_graphs:
        raise DataError("need at least one training and one validation graph")
    model_cfg = model_cfg or ModelConfig()
    walk_cfg = walk_cfg or WalkConfig()
    if init is not None:
        validate_params(init, model_cfg, ablate)
    params = init.copy() if init is not None else init_params(model_cfg, cfg.rng_seed, ablate)

    train_b = prepare_graphs(train_graphs, cfg, walk_cfg)
    val_b = prepare_graphs(val_graphs, cfg, walk_cfg, index_offset=len(train_b))
    adam = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng([cfg.rng_seed, 1])

    result = TrainResult(params.copy())
    bad_epochs = 0
    processes = _processes(min(cfg.batch_size, len(train_b)))
    with _Workers(processes, {"train": train_b, "val": val_b}, model_cfg, cfg) as workers:
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            order = shuffle_rng.permutation(len(train_b))
            epoch_loss, norms = 0.0, []
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                grads_sum: dict[str, np.ndarray] | None = None
                for loss, grads in workers.map("train", batch, params, f"epoch {epoch} training"):
                    epoch_loss += loss
                    if grads_sum is None:
                        grads_sum = grads
                    else:
                        for name in grads_sum:
                            grads_sum[name] += grads[name]
                bad = next((name for name, g in grads_sum.items() if not np.isfinite(g).all()), None)
                if bad is not None:
                    raise NumericError(f"non-finite gradient of parameter {bad!r} in epoch {epoch}")
                norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads_sum.values())))
                adam_step(params, grads_sum, adam, cfg.lr)
            train_loss = epoch_loss / len(train_b)

            val_loss, w_users = 0.0, []
            for loss, w_user in workers.map("val", range(len(val_b)), params,
                                            f"epoch {epoch} validation"):
                val_loss += loss
                w_users.append(w_user)
            val_loss /= len(val_b)
            w_user = None if w_users[0] is None else sum(w_users) / len(w_users)

            result.history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})
            if on_epoch is not None:
                on_epoch(result.history[-1], time.perf_counter() - started, sum(norms) / len(norms),
                         w_user)
            if val_loss < result.best_val_loss:
                result.best_val_loss = val_loss
                result.best_epoch = epoch
                result.params = params.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return result


def score_graph(
    g: CascadeGraph,
    params: ParamStore,
    model_cfg: ModelConfig,
    user: np.ndarray,
    struct: np.ndarray,
):
    """Forward-only scores for one graph from the ``.values`` of its two
    ``featurize_graph`` views, so several parameter stores (a checkpoint and
    its ablated subsets) can share one featurization.

    Returns (scores, s_user, s_struct, weights) as plain arrays; s_user and
    weights are None when the store has no user view.
    """
    run = partial(mmen_forward, g=g, user_feats=user, struct_feats=struct, params=params,
                  cfg=model_cfg)
    fwd = run(Tape(grad=False))
    if not np.isfinite(fwd.score).all():
        raise NumericError(f"non-finite score from {_nonfinite_at(run)}")
    outs = (fwd.score, fwd.score_user, fwd.score_struct, fwd.weights)
    return tuple(None if x is None else x.ravel().copy() for x in outs)
