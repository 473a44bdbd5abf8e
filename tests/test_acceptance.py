"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion N] ... PASS/FAIL`` line (visible with
``pytest -s``); the desk-scale study (criteria 6-9) runs the full CLI
pipeline twice from one module-scoped fixture.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import csr_rows
from gradcheck import grad_check, numel

from keynodes.autodiff import Tape
from keynodes.baselines import greedy_dcover, kshell, leaderrank, ranked_order
from keynodes.cli import main
from keynodes.epidemic import SirConfig, infection_rate
from keynodes.features import WalkConfig, featurize_graph
from keynodes.graphs import CascadeGraph, synth_cascade
from keynodes.model import (
    ModelConfig,
    attention_indices,
    bind_params,
    collect_grads,
    gat_layer,
    init_params,
    mmen_forward,
)
from keynodes.training import coverage_loss, cover_pairs

MASTER_SEED = 42


def _criterion(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip()
    print(line)
    assert ok, line


def random_digraph(rng, n, p):
    edges = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
    if not edges:
        edges = [(0, 1 % n)]
    return CascadeGraph(n, edges)


# -- criterion 1: gradient correctness ------------------------------------------


def test_c1_gradient_correctness():
    g = synth_cascade(10, 0.2, 0.5, 12)
    cfg = ModelConfig(hidden=16, heads=4, mem_groups=4, mem_slots=8)
    params = init_params(cfg, rng_seed=1)
    user, struct = featurize_graph(g, WalkConfig(), 0, 0)
    pairs = cover_pairs(g, 1)

    def f(ps, want_grad=False):
        tape = Tape()
        binding = bind_params(tape, ps)
        fwd = mmen_forward(tape, g, user, struct, ps, cfg, binding=binding)
        lid = coverage_loss(tape, fwd.score, g, 1.0, 1, pairs=pairs)
        if not want_grad:
            return tape.value(lid).item()
        tape.backward(lid)
        return tape.value(lid).item(), collect_grads(tape, binding)

    started = time.time()
    err = grad_check(f, params, eps=1e-5)
    elapsed = time.time() - started
    _criterion(
        1,
        "full-model gradient vs central differences",
        err < 1e-4 and elapsed < 30.0,
        f"max rel err {err:.3e} ({numel(params)} params swept in {elapsed:.1f}s)",
    )


# -- criterion 2: coverage-loss enumeration oracle -------------------------------


def test_c2_loss_enumeration_oracle():
    import networkx as nx

    rng = np.random.default_rng(2024)
    lam = 1.0
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        g = random_digraph(rng, n, float(rng.uniform(0.1, 0.35)))
        s = rng.uniform(0.02, 0.98, size=n)
        d = int(rng.integers(1, 3))

        tape = Tape()
        sid = tape.leaf(s.reshape(-1, 1))
        first_term = tape.value(coverage_loss(tape, sid, g, lam, d)).item() - lam * s.sum()

        # independent covers via networkx reverse reachability
        nxg = nx.DiGraph(list(map(tuple, g.edges)))
        nxg.add_nodes_from(range(n))
        rev = nxg.reverse()
        covers = [
            list(nx.single_source_shortest_path_length(rev, v, cutoff=d)) for v in range(n)
        ]
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1  # (2^n, n) seed picks
        probs = np.prod(np.where(bits == 1, s, 1.0 - s), axis=1)
        uncovered = np.zeros(1 << n)
        for v in range(n):
            uncovered += ~(bits[:, covers[v]] == 1).any(axis=1)
        expect = float(probs @ uncovered)
        worst = max(worst, abs(first_term - expect))
    _criterion(2, "coverage loss equals 2^N enumeration", worst < 1e-10, f"max abs err {worst:.2e}")


# -- criterion 3: SIR degenerate exactness ---------------------------------------


def test_c3_sir_degenerate_exactness():
    ok = True
    details = []
    for seed in (0, 1, 2):
        g = synth_cascade(100, 0.1 * seed, 0.0, seed)  # trees are weakly connected
        seeds = list(range(5))
        st0, se0 = infection_rate(g, seeds, SirConfig(mu=0.0, runs=60, rng_seed=seed))
        st1, se1 = infection_rate(g, [3], SirConfig(mu=1.0, runs=30, rng_seed=seed))
        ok &= st0 == len(seeds) / g.n and se0 == 0.0
        ok &= st1 == 1.0 and se1 == 0.0
        details.append(f"mu=0: {st0}+-{se0}, mu=1: {st1}+-{se1}")
    _criterion(3, "SIR exact at mu 0 and 1", ok, details[0])


# -- criterion 4: baseline oracles ------------------------------------------------


def _brute_force_shell(und, v):
    """und: each node's undirected neighbours (``csr_rows(g.undirected())``)."""
    best = 0
    for k in range(len(und)):
        alive = set(range(len(und)))
        changed = True
        while changed:
            changed = False
            for u in list(alive):
                if sum(1 for w in und[u] if int(w) in alive) < k:
                    alive.discard(u)
                    changed = True
        if v in alive:
            best = k
        else:
            break
    return best


def test_c4_baseline_oracles():
    import networkx as nx

    rng = np.random.default_rng(404)

    kshell_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 61))
        g = random_digraph(rng, n, float(rng.uniform(0.03, 0.12)))
        scores = kshell(g)
        und = csr_rows(g.undirected())
        v = int(rng.integers(n))  # spot-check one node per graph fully...
        kshell_ok &= scores[v] == _brute_force_shell(und, v)
        kshell_ok &= all(scores[u] == _brute_force_shell(und, u) for u in range(0, n, 7))

    lr_ok = True
    sum_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 21))
        g = random_digraph(rng, n, float(rng.uniform(0.1, 0.3)))
        got = leaderrank(g)
        sum_ok &= abs(got.sum() - n) < 1e-8
        P = np.zeros((n + 1, n + 1))
        outdeg = g.out_degrees() + 1.0
        for a, b in g.edges:
            P[a, b] = 1.0 / outdeg[a]
        P[:n, n] = 1.0 / outdeg
        P[n, :n] = 1.0 / n
        vals, vecs = np.linalg.eig(P.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
        pi = pi / pi.sum()
        lr_ok &= np.array_equal(
            ranked_order(np.round(got, 9)), ranked_order(np.round(n * pi[:n] + pi[n], 9))
        )

    greedy_ok = True
    for _ in range(30):
        n = int(rng.integers(5, 30))
        g = random_digraph(rng, n, float(rng.uniform(0.05, 0.2)))
        d = int(rng.integers(1, 3))
        nxg = nx.DiGraph(list(map(tuple, g.edges)))
        nxg.add_nodes_from(range(n))
        cover_size = [
            len(nx.single_source_shortest_path_length(nxg, u, cutoff=d)) for u in range(n)
        ]
        pick = greedy_dcover(g, 1, d)[0]
        greedy_ok &= cover_size[pick] == max(cover_size)

    _criterion(
        4,
        "k-shell / LeaderRank / greedy oracles",
        kshell_ok and lr_ok and sum_ok and greedy_ok,
        f"kshell {kshell_ok}, leaderrank rank {lr_ok}, sum-to-N {sum_ok}, greedy max-cover {greedy_ok}",
    )


# -- criterion 5: dense-attention equivalence -------------------------------------


def test_c5_dense_attention_equivalence():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_digraph(rng, n, 0.3)
        f_in, f_head = 5, 3
        H = rng.normal(size=(n, f_in))
        heads = [
            (rng.normal(size=(f_in, f_head)), rng.normal(size=(f_head, 1)), rng.normal(size=(f_head, 1)))
            for _ in range(int(rng.integers(1, 4)))
        ]

        tape = Tape()
        Ws, a1s, a2s = zip(*heads)
        fused = [tape.leaf(np.concatenate(Ws, axis=1))] + [tape.leaf(np.concatenate(a)) for a in (a1s, a2s)]
        src, dst = attention_indices(g)
        ours = tape.value(gat_layer(tape, tape.leaf(H), src, dst, n, *fused, len(heads), slope=0.2))

        allowed = np.eye(n, dtype=bool)
        for a, b in g.edges:
            allowed[b, a] = True
        outs = []
        for W, a1, a2 in heads:
            HW = H @ W
            logits = (HW @ a2).ravel()[:, None] + (HW @ a1).ravel()[None, :]
            logits = np.where(logits > 0, logits, 0.2 * logits)
            logits = np.where(allowed, logits, -np.inf)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            outs.append((e / e.sum(axis=1, keepdims=True)) @ HW)
        ref = np.concatenate(outs, axis=1)
        ref = np.where(ref > 0, ref, np.expm1(np.minimum(ref, 0.0)))
        worst = max(worst, float(np.abs(ours - ref).max()))
    _criterion(5, "attention equals dense masked softmax", worst < 1e-12, f"max abs diff {worst:.2e}")


# -- criteria 6-9: the desk-scale study -------------------------------------------


def _run_study(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    data, run = root / "data", root / "run"
    started = time.time()
    assert main(
        [
            "gen", "--out", str(data), "--n-graphs", "60",
            "--nodes-min", "200", "--nodes-max", "500", "--seed", str(MASTER_SEED),
        ]
    ) == 0
    assert main(
        ["train", "--data", str(data), "--out", str(run), "--seed", str(MASTER_SEED)]
    ) == 0
    assert main(
        [
            "compare", "--data", str(data), "--checkpoint", str(run / "best.ckpt"),
            "--out", str(root / "report.csv"),
            "--methods", "mmen,degree,kshell,hindex,leaderrank,greedy,random",
            "--ablate", "all", "--runs", "100", "--seed", str(MASTER_SEED),
        ]
    ) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    for name in manifest["splits"]["test"]:
        assert main(
            [
                "score", "--checkpoint", str(run / "best.ckpt"),
                "--cascade", str(data / name),
                "--out", str(root / f"scores_{name}.csv"), "--seed", str(MASTER_SEED),
            ]
        ) == 0
    return time.time() - started


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root_a = tmp_path_factory.mktemp("study_a")
    root_b = tmp_path_factory.mktemp("study_b")
    elapsed_a = _run_study(root_a)
    _run_study(root_b)

    rows = list(csv.DictReader(open(root_a / "report.csv")))
    by_method: dict = {}
    for r in rows:
        by_method.setdefault(r["method"], {})[r["graph"]] = (
            float(r["st_mean"]),
            float(r["r"]),
        )
    return {"a": root_a, "b": root_b, "elapsed": elapsed_a, "by_method": by_method}


def test_c6_model_beats_random(study):
    by = study["by_method"]
    graphs = sorted(by["mmen"])
    st_wins = sum(by["mmen"][g][0] > by["random"][g][0] for g in graphs)
    r_wins = sum(by["mmen"][g][1] < by["random"][g][1] for g in graphs)
    ok = (
        len(graphs) == 9
        and st_wins / len(graphs) >= 0.9
        and r_wins / len(graphs) >= 0.8
        and study["elapsed"] <= 600.0
    )
    _criterion(
        6,
        "trained seeds out-influence random",
        ok,
        f"S_t wins {st_wins}/{len(graphs)}, R wins {r_wins}/{len(graphs)}, "
        f"wall {study['elapsed']:.0f}s <= 600s",
    )


def test_c7_ablation_direction(study):
    by = study["by_method"]

    def mean_st(method):
        return float(np.mean([st for st, _ in by[method].values()]))

    full = mean_st("mmen")
    ablations = {m: mean_st(f"mmen-{m}") for m in ("no-user", "no-memory", "no-fusion")}
    beaten = sum(full >= v for v in ablations.values())
    detail = f"full {full:.4f}; " + ", ".join(f"{k} {v:.4f}" for k, v in ablations.items())
    _criterion(7, "full model >= ablations on 2 of 3", beaten >= 2, f"{detail} (wins {beaten}/3)")


def test_c8_study_determinism(study):
    a, b = study["a"], study["b"]
    mismatched = []
    for pa in sorted(a.rglob("*")):
        if not pa.is_file():
            continue
        pb = b / pa.relative_to(a)
        if not pb.is_file() or pa.read_bytes() != pb.read_bytes():
            mismatched.append(str(pa.relative_to(a)))
    n_csv = sum(1 for p in a.rglob("*.csv"))
    _criterion(
        8,
        "repeat run byte-identical",
        not mismatched,
        f"{n_csv} CSVs + checkpoint + dataset compared; mismatches: {mismatched or 'none'}",
    )


def test_c9_fusion_contract(study):
    worst_sum = 0.0
    bounded = True
    for path in sorted(study["a"].glob("scores_*.csv")):
        for row in csv.DictReader(open(path)):
            w_user, w_stru = float(row["w_user"]), float(row["w_stru"])
            worst_sum = max(worst_sum, abs(w_user + w_stru - 1.0))
            s = float(row["score"])
            s1, s2 = float(row["s_user"]), float(row["s_struct"])
            lo, hi = min(s1, s2), max(s1, s2)
            bounded &= lo - 1e-12 <= s <= hi + 1e-12
    _criterion(
        9,
        "fusion weights sum to 1 and scores stay convex",
        worst_sum < 1e-12 and bounded,
        f"max |w_user+w_stru-1| {worst_sum:.2e}, convexity {bounded}",
    )
