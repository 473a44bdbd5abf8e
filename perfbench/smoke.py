"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs both workloads end to end at a tiny size, traced and untraced, and
checks that the result names every metric BENCHMARK.json lists.  Checks
that corrupted report.csv and scores.csv files fail the output checks, and
that the tracer restores every keynodes function it wrapped.  Prints one
line per check and exits 1 if any fails.
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import run
import tracer

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: sorted(m["name"] for m in spec["end_to_end"]),
             1: sorted(m["name"] for m in spec["per_layer"])}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            what = f"tiny {workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exited {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what} correct with no failed verb")
            expect(sorted(result["metrics"]) == names[trace], f"{what} reports the BENCHMARK.json metrics")


def _corrupt(src: Path, dst: Path, line: int, col: int, value: str) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    if col < 0:
        del lines[line]
    else:
        cells = lines[line].rstrip("\n").split(",")
        cells[col] = value
        lines[line] = ",".join(cells) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")
    return dst


def corrupted_outputs(work: Path) -> None:
    pipe = run.Pipeline(work, run.TINY_WORKLOADS["desk"], 7, time.monotonic() + 150)
    data = work / "data"
    pipe.gen(data)
    it = pipe.iteration(data, [(work / "out", None)])[0]
    expect(not pipe.problems, "tiny pipeline passes its output checks")
    sizes = {name: checks.node_count(data / name) for name in it["test"]}
    report = work / "out" / "report.csv"
    first = it["test"][0]
    scores = work / "out" / f"scores-{first}.csv"
    bad = work / "bad.csv"
    report_cases = {
        "S_t above 1": (1, 2, "1.5"),
        "S_t below k/N": (1, 2, "0.0"),
        "R above 1": (1, 4, "1.01"),
        "non-finite R": (1, 4, "nan"),
        "missing row": (1, -1, ""),
    }
    for what, (line, col, value) in report_cases.items():
        try:
            checks.check_report(_corrupt(report, bad, line, col, value), sizes)
            expect(False, f"report.csv with {what} fails the check")
        except checks.CheckError:
            expect(True, f"report.csv with {what} fails the check")
    seed_line = next(i for i, row in enumerate(scores.read_text().splitlines()) if row.endswith(",1"))
    score_cases = {
        "score of 1": (1, 1, "1.0"),
        "score of 0": (1, 1, "0.0"),
        "non-finite score": (1, 1, "inf"),
        "one seed unflagged": (seed_line, 6, "0"),
        "missing row": (2, -1, ""),
    }
    for what, (line, col, value) in score_cases.items():
        try:
            checks.check_scores(_corrupt(scores, bad, line, col, value), sizes[first])
            expect(False, f"scores.csv with {what} fails the check")
        except checks.CheckError:
            expect(True, f"scores.csv with {what} fails the check")


def wrappers_restored(work: Path) -> None:
    import keynodes.cli
    from keynodes.autodiff import Tape

    def snapshot():
        mods = {n: m for n, m in sys.modules.items() if n == "keynodes" or n.startswith("keynodes.")}
        state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items() if callable(v)}
        state.update({("Tape", k): vars(Tape)[k] for k in tracer.TAPE_METHODS.values()})
        return state

    before = snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        patched = {key for key, val in snapshot().items() if before.get(key) is not val}
        expect(len(patched) >= len(tracer.wrapped_names()), f"tracer wrapped {len(patched)} bindings")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = keynodes.cli.main(["gen", "--out", str(work / "traced"), "--n-graphs", "2",
                                    "--nodes-min", "20", "--nodes-max", "20"])
        fired = {span[0] for span in t.spans}
        expect(rc == 0 and {"graphs.synth_cascade", "graphs.save_cascade", "seeding.derived_seed"} <= fired,
               "wrapped gen records its spans")
    finally:
        t.uninstall()
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    expect(not changed and set(after) == set(before), f"every wrapped function restored ({changed})")

    tracer.FUNCTIONS["graphs.renamed"] = ("graphs", "no_such_function")
    try:
        tracer.Tracer().install()
        expect(False, "a wrapped function that no longer exists fails the install")
    except AttributeError:
        expect(True, "a wrapped function that no longer exists fails the install")
    finally:
        del tracer.FUNCTIONS["graphs.renamed"]
        expect(snapshot() == before, "a failed install leaves nothing wrapped")
    expect(len(tracer.missing_wrappers([("gen", [])])) == len(tracer.wrapped_names()) + len(tracer.OPS),
           "a trace with no spans reports every wrapper and op as missing")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT))
    signal.signal(signal.SIGALRM, run._on_signal)
    try:
        tiny_runs()
        corrupted_outputs(work)
        wrappers_restored(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
