"""Output checks for each verb of the benchmark pipeline.

Every check raises CheckError with a message naming the file and the fault.
They read only files; the checkpoint check imports keynodes from the
checkout, so the caller puts its ``src`` directory on ``sys.path`` first.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

FRACTION = 0.05
RUNS = 100
METHODS = ("mmen", "mmen-no-user", "mmen-no-memory", "mmen-no-fusion",
           "degree", "kshell", "hindex", "leaderrank", "greedy", "random")
REPORT_HEADER = ["graph", "method", "st_mean", "st_stderr", "r", "mu", "runs", "fraction"]
SCORES_HEADER = ["node", "score", "s_user", "s_struct", "w_user", "w_stru", "is_seed"]
HISTORY_HEADER = ["epoch", "train_loss", "val_loss"]


class CheckError(Exception):
    pass


def sha256_many(paths) -> str:
    """One sha256 over the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes() + b"\0")
    return h.hexdigest()


def tree_digest(root) -> str:
    """One sha256 over every file under root, keyed by relative path."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _rows(path, header) -> list:
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"{path}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise CheckError(f"{path}: header {got!r}, expected {header!r}")
        return list(reader)


def _float(path, row, col) -> float:
    try:
        val = float(row[col])
    except (IndexError, ValueError):
        raise CheckError(f"{path}: bad number in column {col} of row {row!r}") from None
    if not math.isfinite(val):
        raise CheckError(f"{path}: non-finite value in row {row!r}")
    return val


def node_count(cascade_dir) -> int:
    """Node count as load_cascade sees it: distinct ids in edges.tsv."""
    ids = set()
    with open(Path(cascade_dir) / "edges.tsv", encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if s and not s.startswith("#"):
                src, dst, _delay = s.split("\t")
                ids.update((src, dst))
    return len(ids)


def check_manifest(data_dir) -> dict:
    """Non-empty train, val and test splits whose cascades all exist."""
    path = Path(data_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        splits = manifest["splits"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"{path}: unreadable manifest ({exc})") from None
    for split in ("train", "val", "test"):
        names = splits.get(split) or []
        if not names:
            raise CheckError(f"{path}: empty {split} split")
        for name in names:
            if not (Path(data_dir) / name / "edges.tsv").is_file():
                raise CheckError(f"{path}: cascade {name} has no edges.tsv")
    return splits


def check_history(path, epochs: int) -> None:
    """One row per epoch, numbered 1..epochs, with finite losses."""
    rows = _rows(path, HISTORY_HEADER)
    if [r[0] for r in rows] != [str(e) for e in range(1, epochs + 1)]:
        raise CheckError(f"{path}: expected epochs 1..{epochs}, got {[r[0] for r in rows]}")
    for row in rows:
        _float(path, row, 1)
        _float(path, row, 2)


def check_checkpoint(path) -> None:
    """The checkpoint loads and holds every tensor of the default model."""
    from keynodes.autodiff import load_checkpoint
    from keynodes.errors import DataError, ShapeError
    from keynodes.model import ModelConfig, validate_params

    try:
        validate_params(load_checkpoint(path), ModelConfig())
    except (DataError, ShapeError) as exc:
        raise CheckError(f"{path}: {exc}") from None


def check_report(path, test_sizes: dict) -> tuple:
    """Ten method rows per test graph with S_t in [k/N, 1] and R in [0, 1].

    Returns the mean (S_t, R) of the mmen rows."""
    rows = _rows(path, REPORT_HEADER)
    if len(rows) != len(test_sizes) * len(METHODS):
        raise CheckError(f"{path}: {len(rows)} rows, expected {len(test_sizes) * len(METHODS)}")
    seen = {}
    mmen = []
    for row in rows:
        if len(row) != len(REPORT_HEADER) or row[0] not in test_sizes:
            raise CheckError(f"{path}: bad row {row!r}")
        n = test_sizes[row[0]]
        st, r = _float(path, row, 2), _float(path, row, 4)
        if not math.ceil(FRACTION * n) / n <= st <= 1.0:
            raise CheckError(f"{path}: st_mean {st} outside [k/N, 1] in row {row!r}")
        if not 0.0 <= r <= 1.0:
            raise CheckError(f"{path}: r {r} outside [0, 1] in row {row!r}")
        if row[6] != str(RUNS) or _float(path, row, 7) != FRACTION:
            raise CheckError(f"{path}: runs/fraction differ from {RUNS}/{FRACTION} in {row!r}")
        seen.setdefault(row[0], []).append(row[1])
        if row[1] == "mmen":
            mmen.append((st, r))
    for graph, methods in seen.items():
        if sorted(methods) != sorted(METHODS):
            raise CheckError(f"{path}: {graph} has methods {methods}")
    return (sum(s for s, _ in mmen) / len(mmen), sum(r for _, r in mmen) / len(mmen))


def check_scores(path, n: int) -> None:
    """N rows, finite scores in (0, 1), exactly ceil(0.05 N) seeds flagged."""
    rows = _rows(path, SCORES_HEADER)
    if [r[0] for r in rows] != [str(v) for v in range(n)]:
        raise CheckError(f"{path}: expected nodes 0..{n - 1}")
    flagged = 0
    for row in rows:
        score = _float(path, row, 1)
        if not 0.0 < score < 1.0:
            raise CheckError(f"{path}: score {score} outside (0, 1) in row {row!r}")
        if row[6] not in ("0", "1"):
            raise CheckError(f"{path}: bad is_seed in row {row!r}")
        flagged += row[6] == "1"
    if flagged != math.ceil(FRACTION * n):
        raise CheckError(f"{path}: {flagged} seeds flagged, expected {math.ceil(FRACTION * n)}")
