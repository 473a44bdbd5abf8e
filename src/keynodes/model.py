"""Dual-view node scorer: graph attention, memory-bank enhancement,
per-view sigmoid heads, and adaptive two-way fusion.

Each view (profile attributes / walk structure) runs an input projection
followed by two rounds of attention + memory enhancement, then maps every
node to a score in (0, 1).  A softmax head over pooled view representations
mixes the two score vectors into the final ranking signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamStore, Tape
from .errors import DataError, ShapeError
from .features import STRUCT_DIM, USER_DIM
from .graphs import CascadeGraph

ABLATIONS = ("no-user", "no-memory", "no-fusion")
VIEWS = ("user", "struct")
VIEW_DIMS = {"user": USER_DIM, "struct": STRUCT_DIM}
N_LAYERS = 2
LEAKY_SLOPE = 0.2
# (row, column) cells one block of a forward-only pass holds at most
CELLS = 1 << 16


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 64
    heads: int = 4
    mem_groups: int = 4
    mem_slots: int = 32

    def __post_init__(self):
        if min(self.hidden, self.heads, self.mem_groups, self.mem_slots) < 1:
            raise DataError("model dimensions must be >= 1")
        if self.hidden % self.heads != 0:
            raise DataError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


def check_ablations(ablate) -> frozenset:
    ablate = frozenset(ablate)
    unknown = ablate - set(ABLATIONS)
    if unknown:
        raise DataError(f"unknown ablation(s) {sorted(unknown)}; valid: {list(ABLATIONS)}")
    return ablate


def param_shapes(cfg: ModelConfig, ablate=frozenset()) -> dict[str, tuple]:
    """Every tensor of the model under ``ablate``, in draw order:
    name -> (shape, fan_in).  fan_in None marks the normal(0, 0.1) memory
    slots; every other tensor is uniform(+-sqrt(1/fan_in)).

    Each attention layer is stored fused: ``gat<l>.W`` (L, H*F) holds the
    heads' projections side by side and ``a_src``/``a_dst`` (H*F, 1) their
    attention vectors stacked; ``mem<l>.slots`` (G*b, L) stacks the memory
    groups.  An ablated component has no tensors, so it is never created,
    stored or run; the table for A | B is those for A and B intersected.
    """
    ablate = check_ablations(ablate)
    L, H, F, G = cfg.hidden, cfg.heads, cfg.head_dim, cfg.mem_groups
    table = {}
    for view in VIEWS:
        if view == "user" and "no-user" in ablate:
            continue
        f_in = VIEW_DIMS[view]
        table[f"{view}.proj.W"] = ((f_in, L), f_in)
        table[f"{view}.proj.b"] = ((1, L), f_in)
        for layer in range(N_LAYERS):
            table[f"{view}.gat{layer}.W"] = ((L, H * F), L)
            table[f"{view}.gat{layer}.a_src"] = ((H * F, 1), 2 * F)
            table[f"{view}.gat{layer}.a_dst"] = ((H * F, 1), 2 * F)
            if "no-memory" not in ablate:
                table[f"{view}.mem{layer}.slots"] = ((G * cfg.mem_slots, L), None)
                table[f"{view}.mem{layer}.conv_w"] = ((G, 1), G)
        table[f"{view}.score.W"] = ((L, 1), L)
        table[f"{view}.score.b"] = ((1, 1), L)
    if "no-fusion" not in ablate and "no-user" not in ablate:
        table["fusion.W"] = ((2 * L, 2), 2 * L)
        table["fusion.b"] = ((1, 2), 2 * L)
    return table


def init_params(cfg: ModelConfig, rng_seed: int = 0, ablate=frozenset()) -> ParamStore:
    """Fresh parameters: each tensor of ``param_shapes`` drawn in one call,
    in table order and in the shape it is stored."""
    rng = np.random.default_rng(rng_seed)
    p = ParamStore()
    for name, (shape, fan_in) in param_shapes(cfg, ablate).items():
        if fan_in is None:
            p[name] = rng.normal(0.0, 0.1, size=shape)
        else:
            bound = np.sqrt(1.0 / fan_in)
            p[name] = rng.uniform(-bound, bound, size=shape)
    return p


def validate_params(params: ParamStore, cfg: ModelConfig, ablate=frozenset()) -> None:
    """Check every tensor of ``param_shapes`` exists with the right shape and
    no other tensor (bar ``meta``) does.  Draws and allocates nothing."""
    expected = param_shapes(cfg, ablate)
    for name, (shape, _) in expected.items():
        if name not in params:
            raise ShapeError(f"checkpoint missing tensor {name!r}")
        got = params[name].shape
        if tuple(got) != tuple(shape):
            raise ShapeError(f"tensor {name!r} has shape {got}, expected {shape}")
    extra = set(params.names()) - set(expected) - {"meta"}
    if extra:
        raise ShapeError(f"unexpected tensors in checkpoint: {sorted(extra)}")


def bind_params(tape: Tape, params: ParamStore) -> dict:
    """Place every parameter on the tape as a leaf; returns name -> handle."""
    return {name: tape.leaf(val, name=name) for name, val in params.items()}


def collect_grads(tape: Tape, binding: dict[str, int]) -> dict[str, np.ndarray]:
    out = {}
    for name, nid in binding.items():
        g = tape.nodes[nid].grad
        out[name] = g if g is not None else np.zeros_like(tape.nodes[nid].value)
    return out


def attention_indices(g: CascadeGraph):
    """(src, dst) arrays for attention messages, one self-loop per node.

    Message j -> i exists when j is an in-neighbor of i (dst attends over
    its in-neighbors and itself).
    """
    loops = np.arange(g.n, dtype=np.int64)
    src = np.concatenate([g.edges[:, 0], loops])
    dst = np.concatenate([g.edges[:, 1], loops])
    return src, dst


def row_cuts(indptr, cols) -> list[int]:
    """Cut points 0 = c_0 < c_1 < ... = n that split n segments, segment i
    owning rows indptr[i]..indptr[i+1]-1, into blocks of whole segments of at
    most max(2, CELLS // cols) rows; a segment over that budget is a block of
    its own.  No block has fewer than two rows, since BLAS rounds a one-row
    matmul differently: such a block takes in the next segment, and such a
    tail joins the block before it."""
    n = len(indptr) - 1
    budget = max(2, CELLS // cols)
    cuts = [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + budget, side="right")) - 1)
        while hi < n and indptr[hi] - indptr[lo] < 2:
            hi += 1
        cuts.append(hi)
    if len(cuts) > 2 and indptr[n] - indptr[cuts[-2]] < 2:
        del cuts[-2]
    return cuts


def message_blocks(src, dst, n_nodes, cols):
    """(lo, hi, src, dst) per block of destinations lo..hi-1 with all their
    messages, for a forward-only ``gat_layer`` of width ``cols``.  Messages go
    in stable destination order, so each destination keeps its messages in
    edge order and its segment sums keep their bits."""
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.searchsorted(dst, np.arange(n_nodes + 1))
    cuts = row_cuts(indptr, cols)
    return [(lo, hi, src[indptr[lo] : indptr[hi]], dst[indptr[lo] : indptr[hi]])
            for lo, hi in zip(cuts, cuts[1:])]


# -- tape-level building blocks ------------------------------------------------


def gat_layer(tape, h, src, dst, n_nodes, W, a_src, a_dst, heads, slope=0.2, blocks=None):
    """One multi-head attention layer over the given edge list.

    W (L, H*F), a_src and a_dst (H*F, 1) are tape handles of the heads' weights
    stacked: head k owns columns k*F..(k+1)*F of W and the same rows of the
    a vectors.  Per head the edge logit is
    leaky_relu(a_dst . W h_dst + a_src . W h_src), softmaxed over each
    destination's incoming messages; head outputs are concatenated and
    passed through elu.  The heads run together: one (L, H*F) projection,
    and a 0/1 (H*F, H) matrix marking each head's F columns that turns the
    a vectors block-diagonal and, transposed, spreads (E, H) attention over
    (E, H*F) inside the one ``attend`` op that weighs and sums the messages.
    ``attend`` keeps no (E, H*F) array on the tape: its backward recomputes
    the spread attention and the gathered source rows.  The gathered ends,
    the leaky_relu output and the attend output are each passed straight to
    their one consumer, so, as no backward reads them, they are freed then.

    The projection and each node's head scores are computed once for all
    nodes; the per-message part runs over ``blocks`` (``message_blocks``,
    built here if not given), so a forward-only tape holds one block's
    (E, H*F) rows at a time.
    """
    cols = tape.value(W).shape[1]
    head_cols = np.kron(np.eye(heads), np.ones((cols // heads, 1)))
    mask = tape.leaf(head_cols)
    hw = tape.record("matmul", [h, W])
    # (N, H): a_k . W_k h of every node, for the destination and the source end
    to_dst, to_src = (
        tape.record("matmul", [hw, tape.record("mul", [vec, mask])]) for vec in (a_dst, a_src)
    )

    def messages(src, dst, seg, num):
        logits = tape.record("add", [tape.record("gather_rows", [to_dst], indices=dst),
                                     tape.record("gather_rows", [to_src], indices=src)])
        att = tape.record("segment_softmax", [tape.record("leaky_relu", [logits], alpha=slope)],
                          segments=seg, num_segments=num)
        return tape.record("elu", [tape.record(
            "attend", [att, hw], spread=head_cols.T, src=src, segments=seg, num_segments=num
        )])

    if tape.grad:
        return messages(src, dst, dst, n_nodes)
    out = np.empty((n_nodes, cols))
    if blocks is None:
        blocks = message_blocks(src, dst, n_nodes, cols)
    for lo, hi, src_b, dst_b in blocks:
        out[lo:hi] = messages(src_b, dst_b, dst_b - lo, hi - lo)
    return out


def memory_read(tape, h, slots, conv_w):
    """Soft read over every memory group, mixed by a kernel-1 convolution.

    slots (G*b, L) stacks the G groups of b slots; G is the row count of
    conv_w (G, 1).  Per group: similarity softmax of node features against
    the group's slots, then the probability-weighted sum of slots; group
    outputs are combined as sum_i conv_w[i] * read_i.  The convolution has
    no bias: memory_enhance's row layer norm would cancel it.  The groups
    run together: one (N, G*b) similarity, a softmax per group, and one read
    against the slots pre-scaled by their group's conv_w.
    """
    groups = tape.value(conv_w).shape[0]
    # row_softmax's backward reads its output, not the similarity
    probs = tape.record(
        "row_softmax", [tape.record("matmul", [h, tape.record("transpose", [slots])])], group=groups
    )
    slot_group = np.repeat(np.arange(groups), tape.value(slots).shape[0] // groups)
    scale = tape.record("gather_rows", [conv_w], indices=slot_group)
    return tape.record("matmul", [probs, tape.record("mul", [slots, scale])])


def memory_enhance(tape, h, f_m):
    """relu(layer_norm(h + memory)) with parameter-free row layer norm."""
    return tape.record("relu", [tape.record("layer_norm", [tape.record("add", [h, f_m])], eps=1e-5)])


def enhance_rows(tape, h, slots, conv_w):
    """memory_enhance(h, memory_read(h, slots, conv_w)); a forward-only tape
    runs it over blocks of h's rows, each with at most CELLS (N, G*b)
    similarity cells, and a recording tape as one block.  The read is freed
    once memory_enhance returns, as no backward reads it."""
    if tape.grad:
        return memory_enhance(tape, h, memory_read(tape, h, slots, conv_w))
    out = np.empty_like(h)
    cuts = row_cuts(np.arange(len(h) + 1), len(slots))
    for lo, hi in zip(cuts, cuts[1:]):
        out[lo:hi] = memory_enhance(tape, h[lo:hi], memory_read(tape, h[lo:hi], slots, conv_w))
    return out


def score_head(tape, h, W, b):
    """Per-node sigmoid score in (0, 1)."""
    return tape.record("sigmoid", [tape.record("add", [tape.record("matmul", [h, W]), b])])


def fusion_weights(tape, h_user, h_struct, W, b):
    """Two-way softmax over pooled view representations; sums to 1."""
    pooled = tape.record(
        "concat",
        [tape.record("mean_rows", [h_user]), tape.record("mean_rows", [h_struct])],
        axis=1,
    )
    return tape.record("row_softmax", [tape.record("add", [tape.record("matmul", [pooled, W]), b])])


def fuse_scores(tape, s1, s2, w):
    """Convex combination w[0]*s1 + w[1]*s2, elementwise over nodes."""
    both = tape.record("concat", [s1, s2], axis=1)
    weighted = tape.record("mul", [both, w])
    ones = tape.leaf(np.ones((2, 1)))
    return tape.record("matmul", [weighted, ones])


@dataclass
class ForwardResult:
    """Tape handles of the forward pass outputs (arrays on a no-grad tape)."""

    score: int
    score_user: int | None
    score_struct: int
    weights: int | None  # (1, 2) fusion weights; None when the user view is off


def mmen_forward(
    tape: Tape,
    g: CascadeGraph,
    user_feats: np.ndarray,
    struct_feats: np.ndarray,
    params: ParamStore,
    cfg: ModelConfig,
    binding: dict[str, int] | None = None,
) -> ForwardResult:
    """Full forward pass on one graph; returns tape handles of all outputs.

    The store is the architecture: the user view runs iff ``user.proj.W``
    is present, memory iff ``struct.mem0.slots`` is, and the learned fusion
    iff ``fusion.W`` is (else fixed 0.5/0.5 weights).  A store holding
    ``param_shapes(cfg, A)`` (see ``validate_params``) runs ablation set A.
    """
    if binding is None:
        binding = bind_params(tape, params)
    src, dst = attention_indices(g)
    use_memory = "struct.mem0.slots" in params
    # a forward-only tape runs every attention layer over these blocks
    blocks = None if tape.grad else message_blocks(src, dst, g.n, cfg.hidden)

    def view_forward(view, feats):
        f_in = VIEW_DIMS[view]
        if feats.shape != (g.n, f_in):
            raise ShapeError(
                f"{view} features have shape {feats.shape}, expected {(g.n, f_in)}"
            )
        h = tape.record("add", [
            tape.record("matmul", [tape.leaf(feats), binding[f"{view}.proj.W"]]),
            binding[f"{view}.proj.b"],
        ])
        for layer in range(N_LAYERS):
            gat = [binding[f"{view}.gat{layer}.{t}"] for t in ("W", "a_src", "a_dst")]
            h = gat_layer(tape, h, src, dst, g.n, *gat, cfg.heads, slope=LEAKY_SLOPE, blocks=blocks)
            if use_memory:
                mem = [binding[f"{view}.mem{layer}.{t}"] for t in ("slots", "conv_w")]
                h = enhance_rows(tape, h, *mem)
        s = score_head(tape, h, binding[f"{view}.score.W"], binding[f"{view}.score.b"])
        return h, s

    h_s, s2 = view_forward("struct", struct_feats)
    if "user.proj.W" not in params:
        return ForwardResult(s2, None, s2, None)
    h_u, s1 = view_forward("user", user_feats)
    if "fusion.W" in params:
        w = fusion_weights(tape, h_u, h_s, binding["fusion.W"], binding["fusion.b"])
    else:
        w = tape.leaf(np.array([[0.5, 0.5]]))
    s = fuse_scores(tape, s1, s2, w)
    return ForwardResult(s, s1, s2, w)
