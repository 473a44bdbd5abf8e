"""Span tracer for the benchmark's traced run.

Run as a script, this file is the traced child process: it wraps the public
functions of every keynodes layer where they are looked up, runs
``keynodes.cli.main`` on the remaining arguments, restores the originals
and writes the spans it kept in memory as JSON::

    python3 perfbench/tracer.py SPANS_OUT VERB [ARGS...]

A span is ``[name, start_ns, end_ns, parent_index, extra]``; ``parent_index``
is -1 for a top-level span.  ``extra`` carries the op name for
``autodiff.record``, the tape length for ``autodiff.backward``, the
(graph, seed, index) key for ``features.featurize_graph`` and the infected
count for ``epidemic.sir_run``.

Imported, it gives the parent the wrapper list, the per-layer metric names
and the aggregation from spans to metrics.
"""

import time

_T0 = time.perf_counter_ns()  # first statement: the startup span begins here

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# span name -> (keynodes module that defines the function, attribute name).
# collect_grads lives in model but is reported with the training loop that
# calls it; training.train is wrapped only so its loop glue counts as
# training self time.
FUNCTIONS = {
    "model.mmen_forward": ("model", "mmen_forward"),
    "model.gat_layer": ("model", "gat_layer"),
    "model.memory_read": ("model", "memory_read"),
    "model.memory_enhance": ("model", "memory_enhance"),
    "model.score_head": ("model", "score_head"),
    "model.fusion_weights": ("model", "fusion_weights"),
    "model.fuse_scores": ("model", "fuse_scores"),
    "training.train": ("training", "train"),
    "training.prepare_graphs": ("training", "prepare_graphs"),
    "training.cover_pairs": ("training", "cover_pairs"),
    "training.coverage_loss": ("training", "coverage_loss"),
    "training.collect_grads": ("model", "collect_grads"),
    "training.adam_step": ("training", "adam_step"),
    "training.score_graph": ("training", "score_graph"),
    "training.select_seeds": ("training", "select_seeds"),
    "features.featurize_graph": ("features", "featurize_graph"),
    "features.raw_walk_statistics": ("features", "raw_walk_statistics"),
    "features.user_feature_matrix": ("features", "user_feature_matrix"),
    "seeding.derived_seed": ("seeding", "derived_seed"),
    "graphs.synth_cascade": ("graphs", "synth_cascade"),
    "graphs.save_cascade": ("graphs", "save_cascade"),
    "graphs.load_cascade": ("graphs", "load_cascade"),
    "graphs.reachable_within": ("graphs", "reachable_within"),
    "graphs.largest_component_size": ("graphs", "largest_component_size"),
    "baselines.degree_centrality": ("baselines", "degree_centrality"),
    "baselines.kshell": ("baselines", "kshell"),
    "baselines.h_index": ("baselines", "h_index"),
    "baselines.leaderrank": ("baselines", "leaderrank"),
    "baselines.greedy_dcover": ("baselines", "greedy_dcover"),
    "epidemic.compare_methods": ("epidemic", "compare_methods"),
    "epidemic.infection_rate": ("epidemic", "infection_rate"),
    "epidemic.sir_run": ("epidemic", "sir_run"),
    "epidemic.robustness": ("epidemic", "robustness"),
}
TAPE_METHODS = {"autodiff.record": "record", "autodiff.backward": "backward"}

OPS = (
    "matmul add mul concat leaky_relu elu relu sigmoid exp log row_softmax segment_softmax "
    "segment_sum layer_norm mean_rows sum scalar_mul gather_rows clamp_min transpose"
).split()
VERBS = ("gen", "train", "compare", "score")
SELF_TIME_LAYERS = ("autodiff", "model", "training", "epidemic")


def _metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {"autodiff.record.calls": "count", "autodiff.record.ms": "ms"}
    for op in OPS:
        units[f"autodiff.record.{op}.calls"] = "count"
        units[f"autodiff.record.{op}.ms"] = "ms"
    units.update({
        "autodiff.backward.calls": "count",
        "autodiff.backward.ms": "ms",
        "autodiff.tape_nodes_per_graph": "count",
        "autodiff.self_ms": "ms",
        "model.mmen_forward.calls": "count",
        "model.mmen_forward.ms": "ms",
    })
    for name in ("gat_layer", "memory_read", "memory_enhance", "score_head",
                 "fusion_weights", "fuse_scores"):
        units[f"model.{name}.ms"] = "ms"
    units["model.self_ms"] = "ms"
    units.update({
        "training.prepare_graphs.ms": "ms",
        "training.cover_pairs.calls": "count",
        "training.cover_pairs.ms": "ms",
        "training.coverage_loss.ms": "ms",
        "training.collect_grads.ms": "ms",
        "training.adam_step.calls": "count",
        "training.adam_step.ms": "ms",
        "training.score_graph.calls": "count",
        "training.score_graph.ms": "ms",
        "training.select_seeds.ms": "ms",
        "training.self_ms": "ms",
        "features.featurize_graph.calls": "count",
        "features.featurize_graph.ms": "ms",
        "features.featurize_graph.useful_ratio": "ratio",
        "features.raw_walk_statistics.ms": "ms",
        "features.user_feature_matrix.ms": "ms",
        "seeding.derived_seed.calls": "count",
        "seeding.derived_seed.ms": "ms",
        "graphs.synth_cascade.ms": "ms",
        "graphs.save_cascade.ms": "ms",
        "graphs.load_cascade.calls": "count",
        "graphs.load_cascade.ms": "ms",
        "graphs.reachable_within.calls": "count",
        "graphs.reachable_within.ms": "ms",
        "graphs.largest_component_size.ms": "ms",
    })
    for name in ("degree_centrality", "kshell", "h_index", "leaderrank", "greedy_dcover"):
        units[f"baselines.{name}.ms"] = "ms"
    units.update({
        "epidemic.compare_methods.ms": "ms",
        "epidemic.infection_rate.calls": "count",
        "epidemic.infection_rate.ms": "ms",
        "epidemic.sir_run.calls": "count",
        "epidemic.sir_run.ms": "ms",
        "epidemic.sir_run.infected": "count",
        "epidemic.robustness.ms": "ms",
        "epidemic.self_ms": "ms",
    })
    for verb in VERBS:
        units[f"cli.{verb}.ms"] = "ms"
    for verb in VERBS:
        units[f"trace.overhead_frac.{verb}"] = "ratio"
    return units


METRIC_UNITS = _metric_units()


def _featurize_key(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, _out):
        bound = sig.bind(*args, **kwargs).arguments
        return f"{id(bound['g'])}:{bound['master_seed']}:{bound['graph_index']}"

    return note


_NOTES = {
    "autodiff.record": lambda args, kwargs, out: args[1] if len(args) > 1 else kwargs["op"],
    "autodiff.backward": lambda args, kwargs, out: len(args[0].nodes),
    "epidemic.sir_run": lambda args, kwargs, out: int(out),
}


class Tracer:
    """Wraps keynodes functions with span recorders and restores them.

    Spans stay in ``self.spans`` until the caller writes them out.  The
    wrappers assume one thread, as the CLI runs with its default ``--jobs 1``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function in FUNCTIONS in each keynodes module that binds
        it, and Tape.record / Tape.backward on the class.  A function that no
        longer exists raises AttributeError before anything is patched, so a
        rename cannot go unseen."""
        importlib.import_module("keynodes.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "keynodes" or n.startswith("keynodes.")]
        originals = {name: getattr(importlib.import_module(f"keynodes.{modname}"), attr)
                     for name, (modname, attr) in FUNCTIONS.items()}
        for name, orig in originals.items():
            note = _featurize_key(orig) if name == "features.featurize_graph" else _NOTES.get(name)
            wrapped = self.wrap(name, orig, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)
        tape = importlib.import_module("keynodes.autodiff").Tape
        for name, method in TAPE_METHODS.items():
            self._patch(tape, method, self.wrap(name, getattr(tape, method), _NOTES[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def wrapped_names() -> list:
    """Every span name a complete traced pipeline must record."""
    return list(FUNCTIONS) + list(TAPE_METHODS)


def aggregate(children: list, untraced_wall: dict, traced_wall: dict) -> dict:
    """Per-layer metrics from the traced children of one pipeline.

    children: (verb, spans) per child process.  untraced_wall and
    traced_wall: verb -> median child wall seconds.  Totals sum over the
    whole pipeline; ``cli.<verb>.ms`` is the median over that verb's calls.
    """
    calls: dict = {}
    ms: dict = {}
    self_ms = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    verb_ms: dict = {v: [] for v in VERBS}
    tape_lengths: list = []
    infected = 0
    feat_calls = feat_keys = 0

    def add(name, dur_ms):
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + dur_ms

    for verb, spans in children:
        child_ms = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ms[rec[3]] += (rec[2] - rec[1]) / 1e6
        keys = set()
        for i, (name, start, end, _parent, extra) in enumerate(spans):
            dur = (end - start) / 1e6
            if name == "autodiff.record":
                add(f"autodiff.record.{extra}", dur)
            elif name == "autodiff.backward":
                tape_lengths.append(extra)
            elif name == "epidemic.sir_run":
                infected += extra
            elif name == "features.featurize_graph":
                keys.add(extra)
                feat_calls += 1
            elif name == f"cli.{verb}":
                verb_ms[verb].append(dur)
            add(name, dur)
            layer = name.split(".", 1)[0]
            if layer in self_ms:
                self_ms[layer] += dur - child_ms[i]
        feat_keys += len(keys)

    out = {}
    for name, unit in METRIC_UNITS.items():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "ms" and base.startswith("cli."):
            out[name] = statistics.median(verb_ms[base[4:]])
        elif kind == "ms":
            out[name] = ms.get(base, 0.0)
        elif kind == "self_ms":
            out[name] = self_ms[base]
    out["autodiff.tape_nodes_per_graph"] = sum(tape_lengths) / max(len(tape_lengths), 1)
    out["features.featurize_graph.useful_ratio"] = feat_keys / max(feat_calls, 1)
    out["epidemic.sir_run.infected"] = infected
    for verb in VERBS:
        out[f"trace.overhead_frac.{verb}"] = traced_wall[verb] / untraced_wall[verb] - 1.0
    return out


def missing_wrappers(children: list) -> list:
    """Wrapped names (and tape ops) that never fired across the children."""
    seen = set()
    for _verb, spans in children:
        for name, _start, _end, _parent, extra in spans:
            seen.add(name)
            if name == "autodiff.record":
                seen.add(f"autodiff.record.{extra}")
    expected = wrapped_names() + [f"autodiff.record.{op}" for op in OPS]
    return [name for name in expected if name not in seen]


def top_level_ms(spans: list) -> float:
    """Time covered by the child's top-level spans."""
    return sum((end - start) / 1e6 for _n, start, end, parent, _x in spans if parent < 0)


def main(argv) -> int:
    out_path, verb_args = argv[0], argv[1:]
    from keynodes import cli

    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["cli.startup", _T0, time.perf_counter_ns(), -1, None])
    try:
        rc = tracer.wrap(f"cli.{verb_args[0]}", cli.main)(verb_args)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tracer.spans, separators=(",", ":")))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
