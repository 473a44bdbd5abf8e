import itertools

import numpy as np
import pytest
from conftest import path_graph, random_digraph

from keynodes import model
from keynodes.autodiff import ParamStore, Tape
from keynodes.errors import DataError, ShapeError
from keynodes.features import featurize_graph, WalkConfig
from keynodes.graphs import CascadeGraph, UserRecord, synth_cascade
from keynodes.model import (
    LEAKY_SLOPE,
    N_LAYERS,
    ModelConfig,
    attention_indices,
    bind_params,
    fuse_scores,
    fusion_weights,
    gat_layer,
    init_params,
    memory_enhance,
    memory_read,
    message_blocks,
    mmen_forward,
    param_shapes,
    score_head,
    validate_params,
)
from keynodes.training import coverage_loss

SMALL = ModelConfig(hidden=16, heads=4, mem_groups=4, mem_slots=8)


def leaky(x, alpha=0.2):
    return np.where(x > 0, x, alpha * x)


def elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def dense_gat_reference(H, heads, edges, n, slope=0.2):
    """Dense masked-softmax attention; independent of the segment ops."""
    allowed = np.eye(n, dtype=bool)
    for a, b in edges:  # message a -> b: center b attends over in-neighbor a
        allowed[b, a] = True
    outs = []
    for W, a_src, a_dst in heads:
        HW = H @ W
        s_center = (HW @ a_dst).ravel()
        s_nbr = (HW @ a_src).ravel()
        logits = leaky(s_center[:, None] + s_nbr[None, :], slope)
        logits = np.where(allowed, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        outs.append(att @ HW)
    return elu(np.concatenate(outs, axis=1))


def random_heads(rng, n_heads, f_in, f_head):
    return [
        (
            rng.normal(size=(f_in, f_head)),
            rng.normal(size=(f_head, 1)),
            rng.normal(size=(f_head, 1)),
        )
        for _ in range(n_heads)
    ]


def stacked_leaves(tape, heads):
    """Per-head (W, a_src, a_dst) as gat_layer's three fused leaves."""
    Ws, a_srcs, a_dsts = zip(*heads)
    return [
        tape.leaf(np.concatenate(Ws, axis=1)),
        tape.leaf(np.concatenate(a_srcs)),
        tape.leaf(np.concatenate(a_dsts)),
    ]


def run_gat(g, H, heads, slope=0.2):
    tape = Tape()
    fused = stacked_leaves(tape, heads)
    src, dst = attention_indices(g)
    out = gat_layer(tape, tape.leaf(H), src, dst, g.n, *fused, len(heads), slope=slope)
    return tape.value(out)


class TestGatLayer:
    def test_single_node_self_loop_only(self):
        g = CascadeGraph(2, [(0, 1)])  # node 0 has only its self-loop
        rng = np.random.default_rng(0)
        H = rng.normal(size=(2, 3))
        heads = random_heads(rng, 1, 3, 4)
        out = run_gat(g, H, heads)
        W = heads[0][0]
        assert np.allclose(out[0], elu(H[0] @ W), atol=1e-14)

    def test_isolated_nodes_independent(self):
        g = CascadeGraph(4, [(2, 3)])  # nodes 0 and 1 isolated
        rng = np.random.default_rng(1)
        H = rng.normal(size=(4, 3))
        heads = random_heads(rng, 2, 3, 2)
        base = run_gat(g, H, heads)
        H2 = H.copy()
        H2[0] += 1.0  # perturb node 0 only
        out = run_gat(g, H2, heads)
        assert np.array_equal(out[1], base[1])
        assert np.array_equal(out[2], base[2])

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        g = random_digraph(rng, 6, 0.3)
        H = rng.normal(size=(6, 5))
        heads = random_heads(rng, 2, 5, 3)
        ours = run_gat(g, H, heads)
        ref = dense_gat_reference(H, heads, g.edges, g.n)
        assert np.abs(ours - ref).max() < 1e-12


class TestFusedOpCounts:
    """Heads and memory groups run fused: the op count does not grow with them."""

    def test_gat_heads_share_one_set_of_ops(self):
        rng = np.random.default_rng(13)
        g = random_digraph(rng, 7, 0.3)
        H = rng.normal(size=(7, 8))
        src, dst = attention_indices(g)
        counts = []
        for n_heads in (1, 4):
            tape = Tape()
            fused = stacked_leaves(tape, random_heads(rng, n_heads, 8, 2))
            h = tape.leaf(H)
            start = len(tape.nodes)
            gat_layer(tape, h, src, dst, g.n, *fused, n_heads)
            counts.append(len(tape.nodes) - start)
        assert counts[0] == counts[1]

    def test_memory_groups_share_one_set_of_ops(self):
        rng = np.random.default_rng(14)
        counts = []
        for n_groups in (1, 4):
            tape = Tape()
            slots = tape.leaf(np.concatenate([rng.normal(size=(5, 6)) for _ in range(n_groups)]))
            h = tape.leaf(rng.normal(size=(9, 6)))
            conv_w = tape.leaf(rng.normal(size=(n_groups, 1)))
            start = len(tape.nodes)
            memory_read(tape, h, slots, conv_w)
            counts.append(len(tape.nodes) - start)
        assert counts[0] == counts[1]

    def test_default_forward_and_loss_tape_size(self):
        g = synth_cascade(350, 0.1, 0.3, 5)
        cfg = ModelConfig()
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        tape = Tape()
        fwd = mmen_forward(tape, g, user.values, struct.values, init_params(cfg, 0), cfg)
        coverage_loss(tape, fwd.score, g, 1.0, 1)
        # 424 unrolled, 240 with per-head leaves, 176 with conv_b, 168 with five message ops
        assert len(tape.nodes) == 152

    def test_recording_tape_holds_no_message_array(self):
        """The (E, H*F) spread attention, gathered source rows and messages are
        computed inside ``attend`` and dropped: no tape value has that shape."""
        g = synth_cascade(2000, 0.1, 0.3, 5)
        cfg = ModelConfig()
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        tape = Tape()
        fwd = mmen_forward(tape, g, user.values, struct.values, init_params(cfg, 0), cfg)
        coverage_loss(tape, fwd.score, g, 1.0, 1)
        messages = (len(attention_indices(g)[0]), cfg.hidden)
        assert [n.op for n in tape.nodes if n.value.shape == messages] == []
        assert [n.op for n in tape.nodes].count("attend") == 2 * N_LAYERS


def five_op_messages(tape, att, hw, spread, src, seg, num):
    """The message pass as five tape ops: a spread leaf, matmul, gather, mul, segment sum."""
    spread_att = tape.record("matmul", [att, tape.leaf(spread)])
    msgs = tape.record("mul", [spread_att, tape.record("gather_rows", [hw], indices=src)])
    return tape.record("segment_sum", [msgs], segments=seg, num_segments=num)


def attend_messages(tape, att, hw, spread, src, seg, num):
    return tape.record("attend", [att, hw], spread=spread, src=src, segments=seg, num_segments=num)


class TestAttendOp:
    """``attend`` equals the five ops it replaced, bit for bit."""

    HEADS, F = 4, 3
    # 0 sends to 1..5 (a repeated source); 0 and 6 have only their self-loops
    GRAPH = CascadeGraph(9, [(0, i) for i in range(1, 6)] + [(6, 7), (1, 7), (7, 8), (0, 8)])

    def inputs(self, seed):
        g = self.GRAPH
        src, dst = attention_indices(g)
        rng = np.random.default_rng(seed)
        att = rng.uniform(size=(src.size, self.HEADS))
        hw = rng.normal(size=(g.n, self.HEADS * self.F))
        # transposed like gat_layer's, so BLAS sees the same layout
        spread = np.kron(np.eye(self.HEADS), np.ones((self.F, 1))).T
        return att, hw, spread, src, dst

    @pytest.mark.parametrize("seed", range(3))
    def test_value_and_gradients_match_five_ops(self, seed):
        att, hw, spread, src, dst = self.inputs(seed)
        assert np.bincount(src).max() > 1 and np.bincount(dst).min() == 1
        weight = np.random.default_rng(seed + 10).normal(size=hw.shape)
        got = []
        for build in (five_op_messages, attend_messages):
            tape = Tape()
            a, h = tape.leaf(att), tape.leaf(hw)
            out = build(tape, a, h, spread, src, dst, self.GRAPH.n)
            value = tape.value(out)
            tape.backward(tape.record("sum", [tape.record("mul", [out, tape.leaf(weight)])]))
            got.append([x.tobytes() for x in (value, tape.nodes[a].grad, tape.nodes[h].grad)])
        assert got[0] == got[1]

    def test_no_grad_blocks_match_five_ops(self):
        att, hw, spread, src, dst = self.inputs(4)
        n = self.GRAPH.n
        tape = Tape()
        want = tape.value(attend_messages(tape, tape.leaf(att), tape.leaf(hw), spread, src, dst, n))
        att = att[np.argsort(dst, kind="stable")]
        out, pos = np.empty_like(want), 0
        blocks = message_blocks(src, dst, n, model.CELLS // 4)  # 4 messages a block
        assert len(blocks) > 2
        for lo, hi, src_b, dst_b in blocks:
            args = (att[pos : pos + src_b.size], hw, spread, src_b, dst_b - lo, hi - lo)
            pos += src_b.size
            fused, five = (build(Tape(grad=False), *args) for build in (attend_messages, five_op_messages))
            assert fused.tobytes() == five.tobytes()
            out[lo:hi] = fused
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "change, match",
        [
            (lambda a: {**a, "spread": a["spread"][:, 1:]}, "spread"),
            (lambda a: {**a, "src": a["src"][1:]}, "src shape"),
            (lambda a: {**a, "src": a["src"] + 9}, "source out of range"),
            (lambda a: {**a, "segments": a["segments"] - 1}, "segment id out of range"),
        ],
    )
    def test_bad_attrs_rejected(self, change, match):
        att, hw, spread, src, dst = self.inputs(5)
        attrs = change({"spread": spread, "src": src, "segments": dst, "num_segments": 9})
        tape = Tape()
        with pytest.raises(ShapeError, match=match):
            tape.record("attend", [tape.leaf(att), tape.leaf(hw)], **attrs)


class TestMemory:
    def run_read(self, H, groups, conv_w):
        tape = Tape()
        slots = tape.leaf(np.concatenate(groups))
        out = memory_read(tape, tape.leaf(H), slots, tape.leaf(conv_w))
        return tape.value(out)

    def test_single_slot_returns_slot_row(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(5, 4))
        slot = rng.normal(size=(1, 4))
        out = self.run_read(H, [slot], np.array([[1.0]]))
        assert np.allclose(out, np.repeat(slot, 5, axis=0), atol=1e-14)

    def test_identical_rows_identical_reads(self):
        rng = np.random.default_rng(3)
        H = np.repeat(rng.normal(size=(1, 4)), 3, axis=0)
        groups = [rng.normal(size=(6, 4)) for _ in range(2)]
        out = self.run_read(H, groups, rng.normal(size=(2, 1)))
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        n, b, L, groups_n = 9, 32, 64, 4
        H = rng.normal(size=(n, L))
        groups = [rng.normal(size=(b, L)) for _ in range(groups_n)]
        conv_w = rng.normal(size=(groups_n, 1))
        ours = self.run_read(H, groups, conv_w)
        ref = np.zeros((n, L))
        for i, m in enumerate(groups):
            for v in range(n):
                logits = m @ H[v]
                p = np.exp(logits - logits.max())
                p /= p.sum()
                ref[v] += conv_w[i, 0] * (p @ m)
        assert np.abs(ours - ref).max() < 1e-12


class TestEnhance:
    def test_zero_memory_reduction(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(4, 6))
        tape = Tape()
        out = memory_enhance(tape, tape.leaf(H), tape.leaf(np.zeros((4, 6))))
        ln = (H - H.mean(axis=1, keepdims=True)) / np.sqrt(H.var(axis=1, keepdims=True) + 1e-5)
        assert np.allclose(tape.value(out), np.maximum(ln, 0.0), atol=1e-14)

    def test_nonnegative_and_centered_pre_relu(self):
        rng = np.random.default_rng(6)
        tape = Tape()
        out = memory_enhance(tape, tape.leaf(rng.normal(size=(5, 8))), tape.leaf(rng.normal(size=(5, 8))))
        assert (tape.value(out) >= 0).all()
        pre_relu = tape.nodes[tape.nodes[out].inputs[0]].value  # relu's backward reads it
        assert np.abs(pre_relu.mean(axis=1)).max() < 1e-9


class TestHeads:
    def test_zero_weights_give_half(self):
        tape = Tape()
        h = tape.leaf(np.random.default_rng(7).normal(size=(6, 3)))
        s = score_head(tape, h, tape.leaf(np.zeros((3, 1))), tape.leaf(np.zeros((1, 1))))
        assert np.array_equal(tape.value(s), np.full((6, 1), 0.5))

    def test_scores_in_open_interval_and_monotone(self):
        rng = np.random.default_rng(8)
        H = rng.normal(size=(5, 3))
        W, b = rng.normal(size=(3, 1)), rng.normal(size=(1, 1))
        tape = Tape()
        s1 = tape.value(score_head(tape, tape.leaf(H), tape.leaf(W), tape.leaf(b)))
        assert ((s1 > 0) & (s1 < 1)).all()
        H2 = H.copy()
        H2[2] = H[2] + W.ravel()  # raises node 2's pre-activation by |W|^2
        tape = Tape()
        s2 = tape.value(score_head(tape, tape.leaf(H2), tape.leaf(W), tape.leaf(b)))
        assert s2[2, 0] > s1[2, 0]
        mask = np.ones(5, dtype=bool)
        mask[2] = False
        assert np.array_equal(s2[mask], s1[mask])

    def test_fusion_uniform_when_zero(self):
        rng = np.random.default_rng(9)
        tape = Tape()
        w = fusion_weights(
            tape,
            tape.leaf(rng.normal(size=(7, 4))),
            tape.leaf(rng.normal(size=(7, 4))),
            tape.leaf(np.zeros((8, 2))),
            tape.leaf(np.zeros((1, 2))),
        )
        assert np.array_equal(tape.value(w), np.array([[0.5, 0.5]]))

    def test_fusion_closed_form_bias(self):
        rng = np.random.default_rng(10)
        tape = Tape()
        w = fusion_weights(
            tape,
            tape.leaf(rng.normal(size=(3, 4))),
            tape.leaf(rng.normal(size=(3, 4))),
            tape.leaf(np.zeros((8, 2))),
            tape.leaf(np.array([[np.log(3.0), 0.0]])),
        )
        assert np.abs(tape.value(w) - np.array([[0.75, 0.25]])).max() < 1e-12

    def test_fusion_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tape = Tape()
            w = fusion_weights(
                tape,
                tape.leaf(rng.normal(size=(4, 6))),
                tape.leaf(rng.normal(size=(4, 6))),
                tape.leaf(rng.normal(size=(12, 2))),
                tape.leaf(rng.normal(size=(1, 2))),
            )
            assert abs(tape.value(w).sum() - 1.0) < 1e-12

    def test_fuse_scores_contract(self):
        rng = np.random.default_rng(12)
        s1 = rng.uniform(0.01, 0.99, size=(8, 1))
        s2 = rng.uniform(0.01, 0.99, size=(8, 1))
        tape = Tape()
        out = tape.value(
            fuse_scores(tape, tape.leaf(s1), tape.leaf(s2), tape.leaf(np.array([[1.0, 0.0]])))
        )
        assert np.allclose(out, s1, atol=1e-15)
        tape = Tape()
        w = rng.uniform(size=(1, 2))
        w /= w.sum()
        out = tape.value(fuse_scores(tape, tape.leaf(s1), tape.leaf(s1), tape.leaf(w)))
        assert np.allclose(out, s1, atol=1e-15)
        tape = Tape()
        out = tape.value(fuse_scores(tape, tape.leaf(s1), tape.leaf(s2), tape.leaf(w)))
        lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
        assert ((out >= lo - 1e-15) & (out <= hi + 1e-15)).all()


def forward_scores(g, params, cfg, ablate=frozenset(), seed=0):
    """Forward with ``params`` minus the tensors ``ablate`` removes."""
    user, struct = featurize_graph(g, WalkConfig(), seed, 0)
    keep = param_shapes(cfg, ablate)
    params = ParamStore({k: v for k, v in params.items() if k in keep})
    tape = Tape()
    fwd = mmen_forward(tape, g, user.values, struct.values, params, cfg)
    return tape, fwd


class TestForward:
    def test_deterministic_bitwise(self):
        g = path_graph(3)
        params = init_params(SMALL, rng_seed=3)
        t1, f1 = forward_scores(g, params, SMALL)
        t2, f2 = forward_scores(g, params, SMALL)
        assert np.array_equal(t1.value(f1.score), t2.value(f2.score))

    def test_drop_user_ignores_profiles(self):
        base = synth_cascade(30, 0.1, 0.5, 3)
        blank = CascadeGraph(
            base.n,
            [tuple(e) for e in base.edges],
            delays=list(base.delays),
            users=[UserRecord()] * base.n,
            source=base.source,
        )
        params = init_params(SMALL, rng_seed=1)
        ta, fa = forward_scores(base, params, SMALL, ablate={"no-user"})
        tb, fb = forward_scores(blank, params, SMALL, ablate={"no-user"})
        assert np.array_equal(ta.value(fa.score), tb.value(fb.score))
        assert fa.score_user is None and fa.weights is None

    def test_no_fusion_uses_half_half(self):
        g = synth_cascade(20, 0.0, 0.0, 5)
        params = init_params(SMALL, rng_seed=2)
        tape, fwd = forward_scores(g, params, SMALL, ablate={"no-fusion"})
        s = tape.value(fwd.score)
        s1, s2 = tape.value(fwd.score_user), tape.value(fwd.score_struct)
        assert np.allclose(s, 0.5 * s1 + 0.5 * s2, atol=1e-15)

    def test_composition_oracle(self):
        """The packaged forward equals manually chaining the public sub-ops."""
        rng = np.random.default_rng(21)
        g = random_digraph(rng, 10, 0.15)
        params = init_params(SMALL, rng_seed=4)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        tape = Tape()
        fwd = mmen_forward(tape, g, user.values, struct.values, params, SMALL)

        ref = Tape()
        binding = bind_params(ref, params)
        src, dst = attention_indices(g)

        def view(view_name, feats):
            h = ref.record(
                "add",
                [
                    ref.record("matmul", [ref.leaf(feats), binding[f"{view_name}.proj.W"]]),
                    binding[f"{view_name}.proj.b"],
                ],
            )
            for layer in range(N_LAYERS):
                h = gat_layer(
                    ref,
                    h,
                    src,
                    dst,
                    g.n,
                    binding[f"{view_name}.gat{layer}.W"],
                    binding[f"{view_name}.gat{layer}.a_src"],
                    binding[f"{view_name}.gat{layer}.a_dst"],
                    SMALL.heads,
                    slope=LEAKY_SLOPE,
                )
                f_m = memory_read(
                    ref,
                    h,
                    binding[f"{view_name}.mem{layer}.slots"],
                    binding[f"{view_name}.mem{layer}.conv_w"],
                )
                h = memory_enhance(ref, h, f_m)
            s = score_head(ref, h, binding[f"{view_name}.score.W"], binding[f"{view_name}.score.b"])
            return h, s

        h_s, s2 = view("struct", struct.values)
        h_u, s1 = view("user", user.values)
        w = fusion_weights(ref, h_u, h_s, binding["fusion.W"], binding["fusion.b"])
        s = fuse_scores(ref, s1, s2, w)
        assert np.array_equal(tape.value(fwd.score), ref.value(s))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(30)
        g = random_digraph(rng, 12, 0.15)
        params = init_params(SMALL, rng_seed=6)
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        perm = rng.permutation(g.n)
        edges = [(perm[a], perm[b]) for a, b in g.edges]
        g2 = CascadeGraph(g.n, edges, source=int(perm[g.source]))
        u2 = np.empty_like(user.values)
        s2 = np.empty_like(struct.values)
        u2[perm] = user.values
        s2[perm] = struct.values

        t1 = Tape()
        f1 = mmen_forward(t1, g, user.values, struct.values, params, SMALL)
        t2 = Tape()
        f2 = mmen_forward(t2, g2, u2, s2, params, SMALL)
        assert np.abs(t2.value(f2.score)[perm] - t1.value(f1.score)).max() < 1e-12

    def test_scores_valid_and_weights_sum(self):
        g = synth_cascade(40, 0.1, 0.5, 7)
        params = init_params(SMALL, rng_seed=8)
        tape, fwd = forward_scores(g, params, SMALL)
        s = tape.value(fwd.score)
        assert np.isfinite(s).all() and ((s > 0) & (s < 1)).all()
        w = tape.value(fwd.weights)
        assert abs(w.sum() - 1.0) < 1e-12 and ((w > 0) & (w < 1)).all()

    def test_feature_shape_mismatch_rejected(self):
        g = path_graph(4)
        params = init_params(SMALL, rng_seed=0)
        with pytest.raises(ShapeError, match="features"):
            tape = Tape()
            mmen_forward(tape, g, np.zeros((4, 3)), np.zeros((4, 8)), params, SMALL)


class TestParams:
    def test_ablations_shrink_param_set(self):
        full = set(init_params(SMALL, 0).names())
        no_mem = set(init_params(SMALL, 0, {"no-memory"}).names())
        no_user = set(init_params(SMALL, 0, {"no-user"}).names())
        no_fusion = set(init_params(SMALL, 0, {"no-fusion"}).names())
        assert not any(".mem" in n for n in no_mem)
        assert not any(n.startswith("user.") for n in no_user)
        assert "fusion.W" not in no_user  # fusion is meaningless without both views
        assert no_fusion == {n for n in full if not n.startswith("fusion.")}

    def test_validate_params_names_bad_tensor(self):
        params = init_params(SMALL, 0)
        params["user.proj.W"] = np.zeros((3, 3))
        with pytest.raises(ShapeError, match="user.proj.W"):
            validate_params(params, SMALL)

    def test_validate_params_missing_and_extra(self):
        params = init_params(SMALL, 0)
        extra = params.copy()
        extra["rogue"] = np.zeros((1, 1))
        with pytest.raises(ShapeError, match="rogue"):
            validate_params(extra, SMALL)
        trimmed = ParamStore({k: v for k, v in params.items() if k != "fusion.b"})
        with pytest.raises(ShapeError, match="fusion.b"):
            validate_params(trimmed, SMALL)

    def test_bad_config_rejected(self):
        with pytest.raises(DataError):
            ModelConfig(hidden=10, heads=4)

    def test_zero_heads_rejected_before_divisibility(self):
        with pytest.raises(DataError, match="model dimensions must be >= 1"):
            ModelConfig(heads=0)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(DataError, match="no-gravity"):
            init_params(SMALL, 0, {"no-gravity"})

    @pytest.mark.parametrize(
        "ablate", [set(), {"no-user"}, {"no-memory"}, {"no-fusion"}, {"no-user", "no-memory"}]
    )
    def test_init_matches_documented_draw_order(self, ablate):
        """Per view proj.W, proj.b; per layer gat.W, a_src, a_dst, mem.slots,
        mem.conv_w; score.W, score.b; then fusion.W, fusion.b.  Each tensor is
        one uniform(+-sqrt(1/fan_in)) draw, the slots one normal(0, 0.1) draw."""
        L, H, F, G, b = SMALL.hidden, SMALL.heads, SMALL.head_dim, SMALL.mem_groups, SMALL.mem_slots
        rng = np.random.default_rng(5)
        ref = {}

        def uniform(name, fan_in, shape):
            bound = np.sqrt(1.0 / fan_in)
            ref[name] = rng.uniform(-bound, bound, size=shape)

        views = [("user", 9), ("struct", 8)] if "no-user" not in ablate else [("struct", 8)]
        for view, f_in in views:
            uniform(f"{view}.proj.W", f_in, (f_in, L))
            uniform(f"{view}.proj.b", f_in, (1, L))
            for layer in range(N_LAYERS):
                uniform(f"{view}.gat{layer}.W", L, (L, H * F))
                uniform(f"{view}.gat{layer}.a_src", 2 * F, (H * F, 1))
                uniform(f"{view}.gat{layer}.a_dst", 2 * F, (H * F, 1))
                if "no-memory" not in ablate:
                    ref[f"{view}.mem{layer}.slots"] = rng.normal(0.0, 0.1, size=(G * b, L))
                    uniform(f"{view}.mem{layer}.conv_w", G, (G, 1))
            uniform(f"{view}.score.W", L, (L, 1))
            uniform(f"{view}.score.b", L, (1, 1))
        if not ablate & {"no-user", "no-fusion"}:
            uniform("fusion.W", 2 * L, (2 * L, 2))
            uniform("fusion.b", 2 * L, (1, 2))

        got = init_params(SMALL, 5, ablate)
        assert got.names() == list(ref)
        assert all(np.array_equal(got[k], v) for k, v in ref.items())


class TestDenseEquivalenceSweep:
    def test_twenty_random_graphs(self):
        rng = np.random.default_rng(99)
        randoms = (random_digraph(rng, int(rng.integers(2, 9)), 0.3) for _ in range(20))
        for g in itertools.chain(randoms, [CascadeGraph(3, [])]):
            H = rng.normal(size=(g.n, 4))
            heads = random_heads(rng, int(rng.integers(1, 4)), 4, 3)
            ours = run_gat(g, H, heads)
            ref = dense_gat_reference(H, heads, g.edges, g.n)
            assert np.abs(ours - ref).max() < 1e-12
