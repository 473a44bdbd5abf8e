"""The benchmark's traced run (perfbench/tracer.py) wraps keynodes functions
by name and expects every tape op it lists to fire.  These tests read its
lists as they stand, so a refactor that would break the traced run fails
here first."""

import importlib
import importlib.util
from pathlib import Path

from keynodes import cli
from keynodes.autodiff import Tape
from keynodes.features import WalkConfig, featurize_graph
from keynodes.graphs import synth_cascade
from keynodes.model import ModelConfig, init_params, mmen_forward
from keynodes.training import coverage_loss

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    tracer = load_tracer()
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracer.FUNCTIONS.values()
        if not callable(getattr(importlib.import_module(f"keynodes.{mod}"), attr, None))
    ]
    missing += [m for m in tracer.TAPE_METHODS.values() if not callable(getattr(Tape, m, None))]
    assert missing == []


def test_default_train_step_records_every_traced_op():
    g = synth_cascade(350, 0.1, 0.3, 5)
    cfg = ModelConfig()
    user, struct = featurize_graph(g, WalkConfig(), 0, 0)
    tape = Tape()
    fwd = mmen_forward(tape, g, user.values, struct.values, init_params(cfg, 0), cfg)
    tape.backward(coverage_loss(tape, fwd.score, g, 1.0, 1))
    ops = [node.op for node in tape.nodes]
    assert sorted(set(load_tracer().OPS) - set(ops)) == []
    assert ops.count("concat") == 2  # fusion only: parameters are stored fused


def test_tiny_pipeline_fires_every_wrapper(tmp_path):
    """gen -> train -> compare -> score under the tracer, in process: every
    wrapped function and tape op fires, so no refactor can leave the
    benchmark's traced run with a metric that nothing feeds."""
    tracer = load_tracer()
    data, run = tmp_path / "data", tmp_path / "run"
    verbs = [
        ["gen", "--out", data, "--n-graphs", 7, "--nodes-min", 40, "--nodes-max", 40],
        ["train", "--data", data, "--out", run, "--epochs", 1],
        ["compare", "--data", data, "--checkpoint", run / "best.ckpt",
         "--out", tmp_path / "report.csv",
         "--methods", "mmen,degree,kshell,hindex,leaderrank,greedy,random", "--ablate", "all",
         "--runs", 2],
        ["score", "--checkpoint", run / "best.ckpt", "--cascade", data / "g006",
         "--out", tmp_path / "scores.csv"],
    ]
    traced = tracer.Tracer()
    traced.install()
    try:
        codes = [cli.main([str(a) for a in argv] + ["--seed", "7"]) for argv in verbs]
    finally:
        traced.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.missing_wrappers([("pipeline", traced.spans)]) == []
