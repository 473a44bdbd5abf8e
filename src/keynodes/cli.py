"""Command-line entry point: dataset generation, training, scoring, comparison.

Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.  Every
subcommand honors --seed; identical invocations produce byte-identical
primary outputs.  A plain-text ``key = value`` config file can supply any
flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .autodiff import ParamStore, load_checkpoint, save_checkpoint
from .epidemic import SirConfig, compare_methods
from .errors import DataError, NumericError
from .features import WalkConfig, dump_features_csv, featurize_graph
from .graphs import load_cascade, save_cascade, synth_cascade, text_lines
from .model import ABLATIONS, ModelConfig, param_shapes, validate_params
from .seeding import derived_seed
from .training import TrainConfig, score_graph, select_seeds, train

_META_VERSION = 3.0
# meta row entries after the version, each an integer in [min, max]; None: unbounded
_META_BOUNDS = {
    "hidden": (1, None), "heads": (1, None), "mem_groups": (1, None), "mem_slots": (1, None),
    "walks_per_node": (1, None), "walk_len": (1, None),
    # reserved: walks and attention read the cascade's own edge direction
    "undirected": (0, 0), "ablation_bits": (0, 2 ** len(ABLATIONS) - 1),
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors; ``flags`` maps each flag's dest to its action
    and the ``action=`` name it was added with."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, tuple[argparse.Action, str]] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = (action, kwargs.get("action", "store"))
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _nonneg_int(text: str) -> int:
    val = int(text)
    if val < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="keynodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_nonneg_int, default=0, help="master RNG seed (default 0)")
        p.add_argument("--config", default=None, help="key = value file supplying flag defaults")

    p = sub.add_parser("gen", help="generate a synthetic cascade dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n-graphs", type=int, default=10, help="number of cascades")
    p.add_argument("--nodes-min", type=int, default=200, help="smallest cascade size")
    p.add_argument("--nodes-max", type=int, default=500, help="largest cascade size")
    p.add_argument("--extra-edge-frac", type=float, default=0.1, help="extra retweet edges per node")
    p.add_argument("--attr-noise", type=float, default=0.5, help="profile noise scale")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the scorer on a dataset")
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--out", required=True, help="output directory for best.ckpt and history.csv")
    p.add_argument("--batch-size", type=int, default=2, help="graphs per update (default 2)")
    p.add_argument("--epochs", type=int, default=50, help="max epochs (default 50)")
    p.add_argument("--lr", type=float, default=5e-4, help="Adam learning rate (default 5e-4)")
    p.add_argument("--lam", type=float, default=1.0, help="seed-size penalty weight (default 1.0)")
    p.add_argument("--d-cover", type=int, default=1, help="coverage hop radius (default 1)")
    p.add_argument("--patience", type=int, default=10, help="early-stopping patience (default 10)")
    p.add_argument("--hidden", type=int, default=64, help="hidden width (default 64)")
    p.add_argument("--heads", type=int, default=4, help="attention heads (default 4)")
    p.add_argument("--mem-groups", type=int, default=4, help="memory groups (default 4)")
    p.add_argument("--mem-slots", type=int, default=32, help="slots per memory group (default 32)")
    p.add_argument("--walks-per-node", type=int, default=10, help="random walks per node (default 10)")
    p.add_argument("--walk-len", type=int, default=4, help="random walk length (default 4)")
    p.add_argument("--ablate", choices=ABLATIONS, default=None, help="train a reduced variant")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score one cascade with a checkpoint")
    p.add_argument("--checkpoint", required=True, help="path to best.ckpt")
    p.add_argument("--cascade", required=True, help="cascade directory to score")
    p.add_argument("--out", required=True, help="output scores.csv")
    p.add_argument("--fraction", type=float, default=0.05, help="seed fraction to flag (default 0.05)")
    p.add_argument("--dump-features", default=None, help="also write both feature views as CSV")
    common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare", help="evaluate selection methods on the test split")
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--out", required=True, help="output report.csv")
    p.add_argument("--checkpoint", default=None, help="checkpoint for the mmen method")
    p.add_argument(
        "--methods",
        default="degree,kshell,hindex,leaderrank,greedy,random",
        help="comma-separated method names (mmen needs --checkpoint)",
    )
    p.add_argument("--mu", type=float, default=None, help="infection probability (default: auto per graph)")
    p.add_argument("--runs", type=int, default=100, help="Monte-Carlo runs per estimate (default 100)")
    p.add_argument("--fraction", type=float, default=0.05, help="seed fraction (default 0.05)")
    p.add_argument("--d-cover", type=int, default=1, help="hop radius for the greedy method (default 1)")
    p.add_argument(
        "--ablate",
        action="append",
        choices=ABLATIONS + ("all",),
        default=None,
        help="also evaluate inference-time ablations of the checkpoint (repeatable)",
    )
    common(p)
    p.set_defaults(func=cmd_compare)
    parser.verbs = sub.choices  # verb -> subparser, for config files
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, letting an optional --config file supply defaults.

    Each value goes through its flag's own ``type`` and ``choices``; a bad
    one is a DataError naming ``path:line``.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    if not path.is_file():
        raise DataError(f"{path}: config file not found")
    sub = parser.verbs[args.command]
    overrides = {}
    for lineno, line in text_lines(path):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = s.partition("=")
        key, raw = key.strip(), raw.strip()
        dest = key.replace("-", "_")
        if dest not in sub.flags or dest == "help":
            raise DataError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            overrides[dest] = _config_value(*sub.flags[dest], raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad value {raw!r} for {key}: {exc}") from None
    # explicit flags win: re-parse with file values as defaults
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, kind: str, raw: str):
    """Convert a config-file value as argparse converts a flag added with ``action=kind``."""

    def one(text):
        val = action.type(text) if action.type is not None else text
        if action.choices is not None and val not in action.choices:
            raise ValueError(f"choose from {', '.join(map(str, action.choices))}")
        return val

    if kind == "append":
        return [one(v.strip()) for v in raw.split(",") if v.strip()]
    return one(raw)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(argv) if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


# -- subcommands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.n_graphs < 1:
        raise DataError("--n-graphs must be >= 1")
    if args.nodes_min < 10 or args.nodes_min > args.nodes_max:
        raise DataError("need 10 <= --nodes-min <= --nodes-max")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    sizes = rng.integers(args.nodes_min, args.nodes_max + 1, size=args.n_graphs)
    names = [f"g{i:03d}" for i in range(args.n_graphs)]
    for i, name in enumerate(names):
        g = synth_cascade(
            int(sizes[i]), args.extra_edge_frac, args.attr_noise, derived_seed(args.seed, i)
        )
        save_cascade(g, out / name)
    n_train = int(0.7 * args.n_graphs)
    n_val = int(0.15 * args.n_graphs)
    manifest = {
        "graphs": names,
        "splits": {
            "train": names[:n_train],
            "val": names[n_train : n_train + n_val],
            "test": names[n_train + n_val :],
        },
        "seed": args.seed,
        "n_nodes_range": [args.nodes_min, args.nodes_max],
        "extra_edge_frac": args.extra_edge_frac,
        "attr_noise": args.attr_noise,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.n_graphs} cascades to {out}")
    return 0


def _load_manifest(data_dir) -> dict:
    path = Path(data_dir) / "manifest.json"
    if not path.is_file():
        raise DataError(f"{path}: missing manifest.json")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not a UTF-8 JSON manifest ({exc})") from None
    for key in ("graphs", "splits"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise DataError(f"{path}: manifest missing {key!r}")
    splits = manifest["splits"]
    if not isinstance(splits, dict):
        raise DataError(f"{path}: 'splits' must map split names to lists of cascade names")
    for split, names in splits.items():
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise DataError(f"{path}: split {split!r} must be a list of cascade names")
        # a name is one directory of the dataset and one report.csv cell
        bad = [n for n in names if n in ("", ".", "..") or n.splitlines() != [n]
               or any(c in n for c in "/\\,\0")]
        if bad:
            raise DataError(
                f"{path}: split {split!r} entry {bad[0]!r} is not a plain cascade directory name"
            )
    return manifest


def _load_split(data_dir, manifest, split) -> tuple[list, list[str]]:
    names = manifest["splits"].get(split, [])
    graphs = [load_cascade(Path(data_dir) / name) for name in names]
    return graphs, names


def _pack_meta(model_cfg: ModelConfig, walk_cfg: WalkConfig, ablate) -> np.ndarray:
    bits = sum(1 << i for i, a in enumerate(ABLATIONS) if a in ablate)
    return np.array(
        [
            [
                _META_VERSION,
                model_cfg.hidden,
                model_cfg.heads,
                model_cfg.mem_groups,
                model_cfg.mem_slots,
                walk_cfg.walks_per_node,
                walk_cfg.walk_len,
                0.0,
                bits,
            ]
        ]
    )


def _load_model(path):
    """Read a checkpoint and check it: (weights, model config, walk config).
    Any bad meta entry or tensor is a DataError.  The meta
    ablation bits only say which tensors to expect; the weights themselves
    then decide what the forward runs."""
    params = load_checkpoint(path)
    if "meta" not in params:
        raise DataError("checkpoint has no meta tensor; not produced by this tool?")
    row = params["meta"].ravel()
    if not row.size or row[0] != _META_VERSION:
        found = f"{row[0]:g}" if row.size else "?"
        raise DataError(
            f"checkpoint format version {found} is not supported (expected {_META_VERSION:g}); "
            "retrain the model to get a checkpoint this version can read"
        )
    if row.size != 1 + len(_META_BOUNDS):
        raise DataError(f"checkpoint meta has {row.size} entries, expected {1 + len(_META_BOUNDS)}")
    for (key, (lo, hi)), x in zip(_META_BOUNDS.items(), row[1:].tolist()):
        if not (x.is_integer() and lo <= x and (hi is None or x <= hi)):
            want = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"
            raise DataError(f"checkpoint meta entry {key!r} is {x:g}; expected {want}")
    hidden, heads, groups, slots, walks, walk_len, _, bits = map(int, row[1:].tolist())
    model_cfg = ModelConfig(hidden=hidden, heads=heads, mem_groups=groups, mem_slots=slots)
    walk_cfg = WalkConfig(walks_per_node=walks, walk_len=walk_len)
    ablate = frozenset(a for i, a in enumerate(ABLATIONS) if bits & (1 << i))
    weights = ParamStore({k: v for k, v in params.items() if k != "meta"})
    validate_params(weights, model_cfg, ablate)
    bad = next((k for k, v in weights.items() if not np.isfinite(v).all()), None)
    if bad is not None:
        raise DataError(f"checkpoint tensor {bad!r} holds a non-finite value")
    return weights, model_cfg, walk_cfg


def cmd_train(args) -> int:
    manifest = _load_manifest(args.data)
    train_graphs, _ = _load_split(args.data, manifest, "train")
    val_graphs, _ = _load_split(args.data, manifest, "val")
    if not train_graphs or not val_graphs:
        raise DataError("dataset needs non-empty train and val splits")

    ablate = frozenset([args.ablate]) if args.ablate else frozenset()
    cfg = TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr=args.lr,
        lam=args.lam,
        d_cover=args.d_cover,
        patience=args.patience,
        rng_seed=args.seed,
    )
    model_cfg = ModelConfig(
        hidden=args.hidden,
        heads=args.heads,
        mem_groups=args.mem_groups,
        mem_slots=args.mem_slots,
    )
    walk_cfg = WalkConfig(walks_per_node=args.walks_per_node, walk_len=args.walk_len)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # each row is on disk once its epoch ends, so a failed run keeps the epochs it finished
    with open(out / "history.csv", "w", encoding="utf-8") as history:
        history.write("epoch,train_loss,val_loss\n")
        history.flush()

        def log_epoch(row, seconds, grad_norm, w_user):
            history.write(f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r}\n")
            history.flush()
            fusion = "-" if w_user is None else f"{w_user:.6g}"
            print(f"epoch {row['epoch']}: train loss {row['train_loss']:.6g}, "
                  f"val loss {row['val_loss']:.6g}, grad norm {grad_norm:.6g}, "
                  f"w_user {fusion}, {seconds:.2f} s", file=sys.stderr)

        result = train(train_graphs, val_graphs, cfg, model_cfg=model_cfg, walk_cfg=walk_cfg,
                       ablate=ablate, on_epoch=log_epoch)
    ckpt = result.params.copy()
    ckpt["meta"] = _pack_meta(model_cfg, walk_cfg, ablate)
    save_checkpoint(ckpt, out / "best.ckpt")
    print(f"best epoch {result.best_epoch}; final val loss {result.best_val_loss!r}")
    return 0


def cmd_score(args) -> int:
    params, model_cfg, walk_cfg = _load_model(args.checkpoint)
    g = load_cascade(args.cascade)
    user, struct = featurize_graph(g, walk_cfg, args.seed, 0)
    scores, s_user, s_struct, weights = score_graph(g, params, model_cfg, user, struct)
    seeds = select_seeds(scores, args.fraction).members
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(scores_csv(scores, s_user, s_struct, weights, seeds))
    if args.dump_features:
        dump_features_csv(user, struct, args.dump_features)
    print(f"scored {g.n} nodes; {len(seeds)} flagged as seeds")
    return 0


def scores_csv(scores, s_user, s_struct, weights, seeds) -> str:
    """The text of scores.csv in one join: one row per node, each float as
    its repr, s_user empty and weights 0.0/1.0 when the model has no user view."""
    w_user, w_stru = (0.0, 1.0) if weights is None else (float(weights[0]), float(weights[1]))
    mix = f"{w_user!r},{w_stru!r}"
    is_seed = np.zeros(scores.size, dtype=np.int64)
    is_seed[list(seeds)] = 1
    users = repeat("") if s_user is None else map(repr, s_user.tolist())
    rows = zip(scores.tolist(), users, s_struct.tolist(), is_seed.tolist())
    return "node,score,s_user,s_struct,w_user,w_stru,is_seed\n" + "".join(
        f"{v},{s!r},{su},{st!r},{mix},{k}\n" for v, (s, su, st, k) in enumerate(rows)
    )


def cmd_compare(args) -> int:
    manifest = _load_manifest(args.data)
    graphs, names = _load_split(args.data, manifest, "test")
    if not graphs:
        raise DataError("dataset has an empty test split")

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    ablations: list[str] = []
    for a in args.ablate or []:
        ablations.extend(ABLATIONS if a == "all" else [a])
    ablations = list(dict.fromkeys(ablations))

    scores = {}
    if args.checkpoint or "mmen" in methods or ablations:
        if not args.checkpoint:
            raise DataError("the mmen method needs --checkpoint")
        params, model_cfg, walk_cfg = _load_model(args.checkpoint)
        # mmen-<a> is the checkpoint minus the <a> tensors.  Bit for bit, the
        # no-user and no-fusion forwards are the full one's s_struct and its
        # 0.5/0.5 view mix, so only no-memory needs a forward of its own.
        keep = param_shapes(model_cfg, {"no-memory"})
        no_memory = ParamStore({k: v for k, v in params.items() if k in keep})
        scores = {name: [] for name in ["mmen"] + [f"mmen-{a}" for a in ablations]}
        for gi, g in enumerate(graphs):
            views = featurize_graph(g, walk_cfg, args.seed, gi)
            full, s_user, s_struct, _ = score_graph(g, params, model_cfg, *views)
            mixed = s_struct if s_user is None else 0.5 * s_user + 0.5 * s_struct
            derived = {"mmen": full, "mmen-no-user": s_struct, "mmen-no-fusion": mixed}
            if "no-memory" in ablations:
                derived["mmen-no-memory"] = score_graph(g, no_memory, model_cfg, *views)[0]
            for name, rows in scores.items():
                rows.append(derived[name])
        if "mmen" not in methods:
            methods.insert(0, "mmen")
        at = methods.index("mmen")
        methods[at : at + 1] = list(scores)

    cfg = SirConfig(mu=args.mu, runs=args.runs, rng_seed=args.seed)
    report = compare_methods(
        graphs,
        methods,
        cfg,
        args.fraction,
        d_cover=args.d_cover,
        scores=scores,
        names=names,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(f"test graphs: {len(graphs)}  runs: {args.runs}  fraction: {args.fraction}")
    print(report.to_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
