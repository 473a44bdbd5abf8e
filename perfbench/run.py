"""keynodes benchmark: the user pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

Run from the repository root.  One closed-loop client runs one verb at a
time, each as its own child process (``keynodes gen`` -> ``train`` ->
``compare`` -> ``score`` on every test cascade), and checks every output.
Wall time, CPU time and peak RSS come from the child's own rusage.

--trace 0 runs every verb several times, interleaved over --seconds, and
reports the end-to-end metrics as medians, with the times scaled to a
reference machine speed measured by a probe between the verbs.  --trace 1
runs each verb of one pipeline twice, untraced and then under
perfbench/tracer.py, and reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

# desk: the ROADMAP desk study's scale (60 cascades, split 42/9/9), trained
# for a fixed few epochs; Python dispatch dominates.  large: 7 cascades of
# 5,000 nodes (split 4/1/2), where the quadratic paths dominate.  Every
# cascade of a workload has the same size: with the study's 200-500 range,
# compare_s followed the node total of the seed's test split (about 1 ms
# per node, +-15% between seeds) and hid the program's own spread.
# Patience stays above the epoch count so that every epoch runs.
WORKLOADS = {
    "desk": {"n_graphs": 60, "nodes": 350, "epochs": 3},
    "large": {"n_graphs": 7, "nodes": 5000, "epochs": 1},
}
# The same pipelines at a size that runs in seconds, for perfbench/smoke.py.
TINY_WORKLOADS = {
    "desk": {"n_graphs": 7, "nodes": 40, "epochs": 2},
    "large": {"n_graphs": 7, "nodes": 120, "epochs": 1},
}
GEN_REPEATS = 3
# The untraced run's required calls, in order, after the first gen.  Two of
# each of train and compare check determinism.  Each is followed by a slot of
# ceil(test cascades / SCORE_SLOT_DIVISOR) score calls, so the six slots
# score every test cascade at least once.
REQUIRED_STEPS = ("train", "compare", "gen", "train", "compare", "gen")
EXTRA_ROTATION = ("compare", "compare", "train")
SCORE_SLOT_DIVISOR = 5
# The speed probe's size, and its median wall time on the 2-CPU machine of
# README.md in a quiet stretch: the reference speed the times are scaled to.
PROBE_LOOPS = 300_000
PROBE_PASSES = 40
PROBE_REFERENCE_S = 0.1
DEADLINE_S = 170  # every run ends within 180 s
METHODS = "mmen,degree,kshell,hindex,leaderrank,greedy,random"
CLI = "import sys; from keynodes.cli import main; sys.exit(main())"
# A traced child's wall time outside its top-level spans is interpreter
# start-up before the first span plus writing the spans; it may be at most
# UNCOVERED_S + UNCOVERED_FRAC * wall.
UNCOVERED_S = 0.25
UNCOVERED_FRAC = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_cpu_s": "s",
    "train_rss_mb": "MB",
    "compare_s": "s",
    "compare_cpu_s": "s",
    "compare_rss_mb": "MB",
    "score_s": "s",
}


class _Stop(Exception):
    """SIGALRM (the deadline) or SIGTERM arrived; the running child is killed."""


def _on_signal(signum, _frame):
    raise _Stop(signal.Signals(signum).name)


def speed_probe() -> float:
    """Wall time of a fixed task that uses no keynodes code.

    Python dispatch and numpy element-wise passes, in this process and on
    one thread (no BLAS), so it starts nothing and measures only how fast
    the machine runs at the moment.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 4095] = i
    x = np.arange(1_000_000, dtype=np.float64)
    for _ in range(PROBE_PASSES):
        x = x * 1.000001 + 0.5
    return time.perf_counter() - start


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


def digests(ckpt: Path, report: Path, score_files: list) -> dict:
    """The sha256 of each output kind; "missing" when a file was not written."""
    paths = {"best.ckpt": [ckpt], "report.csv": [report], "scores.csv": score_files}
    return {label: checks.sha256_many(files) if all(f.is_file() for f in files) else "missing"
            for label, files in paths.items()}


class Pipeline:
    """Runs keynodes verbs as child processes and records what they cost."""

    def __init__(self, work: Path, workload: dict, seed: int, deadline: float):
        self.work = work
        self.wl = workload
        self.seed = seed
        self.deadline = deadline
        self.calls: list[Call] = []
        self.problems: list[str] = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        (work / "logs").mkdir(parents=True, exist_ok=True)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def run(self, args: list, check=None, spans_out=None) -> Call:
        """One verb in its own child process; `check` validates its output."""
        args = [str(a) for a in args]
        if spans_out is None:
            cmd = [sys.executable, "-c", CLI, *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_out), *args]
        log = self.work / "logs" / f"{len(self.calls):03d}-{args[0]}.log"
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            raise _Stop("deadline")
        with open(log, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            signal.alarm(remaining)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except _Stop:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0
        if not ok:
            self.fail(f"{args[0]} exited {proc.returncode}:\n{log.read_text(encoding='utf-8')[-2000:]}")
        elif check is not None:
            try:
                check()
            except checks.CheckError as exc:
                ok = False
                self.fail(f"{args[0]}: {exc}")
        call = Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, ok)
        self.calls.append(call)
        return call

    def gen(self, data: Path, spans_out=None) -> Call:
        n = self.wl["nodes"]
        return self.run(
            ["gen", "--out", data, "--n-graphs", self.wl["n_graphs"], "--nodes-min", n,
             "--nodes-max", n, "--seed", self.seed],
            check=lambda: checks.check_manifest(data),
            spans_out=spans_out,
        )

    def train(self, data: Path, out: Path, spans_out=None) -> Call:
        epochs = self.wl["epochs"]

        def check():
            checks.check_history(out / "history.csv", epochs)
            checks.check_checkpoint(out / "best.ckpt")

        return self.run(
            ["train", "--data", data, "--out", out, "--epochs", epochs, "--patience", epochs + 1,
             "--seed", self.seed],
            check=check, spans_out=spans_out,
        )

    def compare(self, data: Path, ckpt: Path, report: Path, sizes: dict, quality: dict, spans_out=None) -> Call:
        """`quality` receives the mean S_t and R of the mmen seeds."""

        def check():
            quality["st"], quality["r"] = checks.check_report(report, sizes)

        return self.run(
            ["compare", "--data", data, "--checkpoint", ckpt, "--out", report,
             "--methods", METHODS, "--ablate", "all", "--seed", self.seed],
            check=check, spans_out=spans_out,
        )

    def score(self, ckpt: Path, cascade: Path, out: Path, n: int, spans_out=None) -> Call:
        return self.run(
            ["score", "--checkpoint", ckpt, "--cascade", cascade, "--out", out, "--seed", self.seed],
            check=lambda: checks.check_scores(out, n), spans_out=spans_out,
        )

    def iteration(self, data: Path, variants: list) -> list:
        """train -> compare -> score on every test cascade, outputs checked.

        variants: (out_dir, spans_dir or None) pairs.  Each verb runs once per
        variant, back to back, so a traced and an untraced call of one verb
        see the machine in about the same state.  Returns one dict per variant.
        """
        splits = checks.check_manifest(data)
        sizes = {name: checks.node_count(data / name) for name in splits["test"]}
        results = []
        for out, spans_dir in variants:
            out.mkdir(parents=True)
            results.append({"out": out, "spans": spans_dir, "score": [], "quality": {}, "test": list(sizes)})

        def spans(res, name):
            return None if res["spans"] is None else res["spans"] / f"{name}.json"

        for res in results:
            res["train"] = self.train(data, res["out"], spans_out=spans(res, "train"))
        for res in results:
            res["compare"] = self.compare(data, res["out"] / "best.ckpt", res["out"] / "report.csv", sizes,
                                          res["quality"], spans_out=spans(res, "compare"))
        for name, n in sizes.items():
            for res in results:
                res["score"].append(self.score(res["out"] / "best.ckpt", data / name,
                                               res["out"] / f"scores-{name}.csv", n,
                                               spans_out=spans(res, f"score-{name}")))
        for res in results:
            out = res["out"]
            res["digests"] = digests(out / "best.ckpt", out / "report.csv",
                                     [out / f"scores-{name}.csv" for name in sizes])
        return results

    def same_digests(self, what: str, values: list) -> None:
        for i, d in enumerate(values[1:], start=1):
            if d != values[0]:
                self.fail(f"{what} differs between run 0 and run {i}: {values[0]} vs {d}")


def _print_metric(workload, name, value, unit, note=""):
    print(f"{workload:<6} {name:<44} {value:>14.6g} {unit:<8} {note}".rstrip())


def measure(pipe: Pipeline, workload: str, seconds: int) -> dict:
    """Untraced run: end-to-end metrics as medians over repeated verbs.

    The machine's speed drifts in phases of several seconds, so the calls of
    every verb are spread over the whole run rather than bunched: a slot of
    score calls follows each gen, train and compare, and the set-up repeats,
    the second train and the second compare come between the others.  After
    these required calls, compares and trains in EXTRA_ROTATION (each with
    its score slot) and then score slots fill the run while the next one is
    expected to end within `seconds`.  A speed probe runs at the start and
    after every score slot.
    """
    start = time.monotonic()
    probes = [speed_probe()]
    datas = [pipe.work / f"data{i}" for i in range(GEN_REPEATS)]
    data = datas[0]
    gens = [pipe.gen(data)]
    sizes = {name: checks.node_count(data / name) for name in checks.check_manifest(data)["test"]}
    tests = list(sizes)
    per_slot = -(-len(tests) // SCORE_SLOT_DIVISOR)
    calls = {"train": [], "compare": [], "score": []}
    ckpts, reports, scores = [], [], {name: [] for name in tests}
    quality = {}

    def do_gen():
        gens.append(pipe.gen(datas[len(gens)]))

    def do_train():
        out = pipe.work / f"train{len(ckpts)}"
        out.mkdir()
        calls["train"].append(pipe.train(data, out))
        ckpts.append(out / "best.ckpt")

    def do_compare():
        reports.append(pipe.work / f"report{len(reports)}.csv")
        calls["compare"].append(pipe.compare(data, ckpts[0], reports[-1], sizes, quality if len(reports) == 1 else {}))

    def do_slot():
        for _ in range(per_slot):
            name = tests[len(calls["score"]) % len(tests)]
            out = pipe.work / f"scores-{name}-{len(scores[name])}.csv"
            calls["score"].append(pipe.score(ckpts[0], data / name, out, sizes[name]))
            scores[name].append(out)
        probes.append(speed_probe())

    steps = {"gen": do_gen, "train": do_train, "compare": do_compare}
    for verb in REQUIRED_STEPS:
        steps[verb]()
        do_slot()

    def cost(verb):
        return statistics.median(c.wall_s for c in (gens if verb == "gen" else calls[verb]))

    rotation = 0
    while True:
        remaining = seconds - (time.monotonic() - start)
        slot_cost = per_slot * cost("score")
        fits = [i for i in range(len(EXTRA_ROTATION))
                if cost(EXTRA_ROTATION[(rotation + i) % len(EXTRA_ROTATION)]) + slot_cost <= remaining]
        if fits:
            rotation += fits[0]
            steps[EXTRA_ROTATION[rotation % len(EXTRA_ROTATION)]]()
            rotation += 1
        elif slot_cost > remaining:
            break
        do_slot()

    pipe.same_digests("gen output", [checks.tree_digest(d) for d in datas])
    for what, files in [("best.ckpt", ckpts), ("report.csv", reports)] + [(f"scores of {name}", scores[name])
                                                                          for name in tests]:
        pipe.same_digests(what, [checks.sha256_many([f]) if f.is_file() else "missing" for f in files])
    for label, digest in digests(ckpts[0], reports[0], [scores[name][0] for name in tests]).items():
        print(f"sha256 {label} {digest}")

    med = statistics.median
    raw = {
        "setup_s": med(c.wall_s for c in gens),
        "train_s": med(c.wall_s for c in calls["train"]),
        "train_cpu_s": med(c.cpu_s for c in calls["train"]),
        "train_rss_mb": med(c.rss_mb for c in calls["train"]),
        "compare_s": med(c.wall_s for c in calls["compare"]),
        "compare_cpu_s": med(c.cpu_s for c in calls["compare"]),
        "compare_rss_mb": med(c.rss_mb for c in calls["compare"]),
        "score_s": med(c.wall_s for c in calls["score"]),
    }
    # Times are scaled to the machine speed at which the probe takes
    # PROBE_REFERENCE_S: the speed drifts by up to 40% over minutes, and the
    # probes, taken between the verbs, follow it (see README.md).
    speed = PROBE_REFERENCE_S / med(probes)
    metrics = {name: value * speed if END_TO_END_UNITS[name] == "s" else value for name, value in raw.items()}
    print(f"speed probe: median {med(probes):.4f} s over {len(probes)} probes; times scaled by {speed:.4f}")
    notes = {"setup_s": f"median of {len(gens)}",
             "score_s": f"median of {len(calls['score'])} calls on {len(tests)} test cascades"}
    for name, unit in END_TO_END_UNITS.items():
        note = notes[name] if name in notes else f"median of {len(calls[name.split('_')[0]])}"
        if unit == "s":
            note += f"; unscaled {raw[name]:.6g} s"
        _print_metric(workload, name, metrics[name], unit, note)
    # Printed, not in the JSON result: both depend on the seed's dataset more
    # than any bound of 0.25 or less can hold (see README.md).
    for key, name in (("st", "mmen_st"), ("r", "mmen_r")):
        if key in quality:
            _print_metric(workload, name, quality[key], "fraction", f"mean over {len(tests)} test cascades; not bounded")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_traced(pipe: Pipeline, workload: str) -> dict:
    """One untraced and one traced pipeline: per-layer metrics."""
    data, data_t = pipe.work / "data", pipe.work / "data-traced"
    spans_dir = pipe.work / "spans"
    spans_dir.mkdir()
    gen_u = pipe.gen(data)
    gen_t = pipe.gen(data_t, spans_out=spans_dir / "gen.json")
    it_u, it_t = pipe.iteration(data, [(pipe.work / "run-untraced", None), (pipe.work / "run-traced", spans_dir)])
    pipe.same_digests("gen output traced vs untraced", [checks.tree_digest(data), checks.tree_digest(data_t)])
    pipe.same_digests("outputs traced vs untraced", [it_u["digests"], it_t["digests"]])

    def walls(gen, it):
        return {"gen": gen.wall_s, "train": it["train"].wall_s, "compare": it["compare"].wall_s,
                "score": statistics.median(c.wall_s for c in it["score"])}

    children = []
    child_calls = [("gen", gen_t, "gen"), ("train", it_t["train"], "train"),
                   ("compare", it_t["compare"], "compare")]
    child_calls += [("score", c, f"score-{name}") for c, name in zip(it_t["score"], it_t["test"])]
    for verb, call, stem in child_calls:
        path = spans_dir / f"{stem}.json"
        if not path.is_file():
            pipe.fail(f"traced {verb} wrote no spans")
            continue
        spans = json.loads(path.read_text(encoding="utf-8"))
        children.append((verb, spans))
        uncovered = call.wall_s - tracer.top_level_ms(spans) / 1000.0
        print(f"trace {stem}: {uncovered:.3f} s of {call.wall_s:.3f} s wall outside top-level spans")
        if uncovered > UNCOVERED_S + UNCOVERED_FRAC * call.wall_s:
            pipe.fail(f"traced {stem}: {uncovered:.3f} s of its wall time is outside its top-level spans")
    if len(children) != len(child_calls):
        return {}
    missing = tracer.missing_wrappers(children)
    if missing:
        pipe.fail(f"wrappers that never fired: {missing}")
    metrics = tracer.aggregate(children, walls(gen_u, it_u), walls(gen_t, it_t))
    for name, unit in tracer.METRIC_UNITS.items():
        _print_metric(workload, name, metrics[name], unit)
    return {k: {"value": v, "unit": tracer.METRIC_UNITS[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "keynodes" / "cli.py").is_file():
        print(f"error: no keynodes source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = (TINY_WORKLOADS if args.tiny else WORKLOADS)[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    pipe = Pipeline(work, workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics = measure_traced(pipe, args.workload)
        else:
            metrics = measure(pipe, args.workload, args.seconds)
    except _Stop as exc:
        print(f"error: run stopped by {exc} (deadline {DEADLINE_S} s)", file=sys.stderr)
        return 1
    except checks.CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    failed = sum(not c.ok for c in pipe.calls)
    _print_metric(args.workload, "failed_frac", failed / len(pipe.calls), "ratio",
                  f"{failed} of {len(pipe.calls)} verb calls; not bounded")
    expected = list(tracer.METRIC_UNITS) if args.trace else list(END_TO_END_UNITS)
    if sorted(metrics) != sorted(expected):
        print("error: the pipeline failed before every metric could be measured", file=sys.stderr)
        return 1
    result = {"correct": not pipe.problems, "attempted": len(pipe.calls), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
