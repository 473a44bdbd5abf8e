import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import HOSTILE_CASES, hostile_checkpoint, loop_synth_cascade

import keynodes
from keynodes import cli, training
from keynodes.autodiff import ParamStore, load_checkpoint, save_checkpoint
from keynodes.cli import main
from keynodes.epidemic import REPORT_HEADER, compare_methods
from keynodes.features import STRUCT_DIM, USER_DIM, WalkConfig, featurize_graph
from keynodes.graphs import save_cascade, synth_cascade
from keynodes.model import ABLATIONS, ModelConfig, init_params, param_shapes
from keynodes.seeding import derived_seed
from keynodes.training import score_graph


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def count_featurize(monkeypatch) -> list:
    """Record the graph index of every featurize_graph call the CLI makes."""
    calls = []

    def counting(g, walk_cfg, master_seed, graph_index, **kwargs):
        calls.append(graph_index)
        return featurize_graph(g, walk_cfg, master_seed, graph_index, **kwargs)

    for mod in (cli, training):
        monkeypatch.setattr(mod, "featurize_graph", counting)
    return calls


def save_old_format(params, path, version, heads=4, groups=4):
    """Write a default-config model in an old checkpoint format.  Both add a
    (1, 1) ``conv_b`` per memory bank.  Format 2 stores the tensors fused
    with a 9-entry meta row; format 1 keeps one tensor per attention head
    and memory group, and an 11-entry meta row."""
    old = ParamStore()
    for name, val in params.items():
        base, _, part = name.rpartition(".")
        if version == 1 and ".gat" in base:
            for k, piece in enumerate(np.split(val, heads, axis=1 if part == "W" else 0)):
                old[f"{base}.h{k}.{part}"] = piece
        elif version == 1 and part == "slots":
            for i, piece in enumerate(np.split(val, groups)):
                old[f"{base}.m{i}"] = piece
        elif name != "meta":
            old[name] = val
        if part == "conv_w":
            old[f"{base}.conv_b"] = np.zeros((1, 1))
    old["meta"] = (
        np.array([[1.0, USER_DIM, STRUCT_DIM, 64, heads, groups, 32, 10, 4, 0, 0]])
        if version == 1
        else np.array([[2.0, 64, heads, groups, 32, 10, 4, 0, 0]])
    )
    save_checkpoint(old, path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    rc = main(
        [
            "gen", "--out", str(out), "--n-graphs", "10",
            "--nodes-min", "25", "--nodes-max", "45", "--seed", "11",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    started = time.time()
    rc = main(
        ["train", "--data", str(dataset), "--out", str(out), "--epochs", "8", "--seed", "11"]
    )
    assert rc == 0
    assert time.time() - started < 60
    return out


class TestGen:
    def test_layout_and_manifest(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(manifest["graphs"]) == 10
        splits = manifest["splits"]
        assert len(splits["train"]) + len(splits["val"]) + len(splits["test"]) == 10
        for name in manifest["graphs"]:
            assert (dataset / name / "edges.tsv").is_file()

    def test_same_seed_identical_tree(self, tmp_path):
        args = ["gen", "--n-graphs", "4", "--nodes-min", "20", "--nodes-max", "30", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--nodes-min", "5"]) == 2

    @pytest.mark.parametrize("flag", ["--extra-edge-frac", "--attr-noise"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_param_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["gen", "--out", str(tmp_path / "x"), flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_follower_draw_past_float64_exit_2(self, tmp_path, capsys):
        argv = ["gen", "--out", str(tmp_path / "x"), "--n-graphs", "1", "--nodes-min", "50",
                "--nodes-max", "50", "--attr-noise", "1000", "--seed", "1"]
        assert main(argv) == 2
        assert "attr_noise 1000.0 draws a follower count past the float64 range" in capsys.readouterr().err

    def test_default_gen_matches_choice_reference(self, tmp_path):
        argv = ["gen", "--out", str(tmp_path / "got"), "--n-graphs", "3", "--seed", "6"]
        assert main(argv) == 0
        args = cli.build_parser().parse_args(argv)
        sizes = np.random.default_rng(6).integers(args.nodes_min, args.nodes_max + 1, size=3)
        for i, n in enumerate(sizes):
            seed = derived_seed(6, i)
            g = loop_synth_cascade(int(n), args.extra_edge_frac, args.attr_noise, seed)
            save_cascade(g, tmp_path / "want" / f"g{i:03d}")
        got = tree_bytes(tmp_path / "got")
        del got["manifest.json"]
        assert got == tree_bytes(tmp_path / "want")


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "best.ckpt").is_file()
        history = (trained / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) >= 2

    def test_single_epoch_history(self, dataset, tmp_path):
        rc = main(
            ["train", "--data", str(dataset), "--out", str(tmp_path), "--epochs", "1", "--seed", "1"]
        )
        assert rc == 0
        rows = (tmp_path / "history.csv").read_text().strip().split("\n")
        assert len(rows) == 2

    def test_ablated_checkpoint_lacks_memory_tensors(self, dataset, tmp_path):
        rc = main(
            [
                "train", "--data", str(dataset), "--out", str(tmp_path),
                "--epochs", "1", "--ablate", "no-memory", "--seed", "1",
            ]
        )
        assert rc == 0
        params = load_checkpoint(tmp_path / "best.ckpt")
        assert not any(".mem" in name for name in params.names())

    def test_missing_dataset_exit_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 2

    def test_epoch_line_reports_gradient_norm(self, dataset, tmp_path, capsys):
        argv = ["train", "--data", str(dataset), "--out", str(tmp_path), "--epochs", "2", "--seed", "3"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert len(lines) == 2 and out.startswith("best epoch ")
        for epoch, line in enumerate(lines, 1):
            m = re.fullmatch(
                r"epoch (\d+): train loss \S+, val loss \S+, grad norm (\S+), w_user (\S+), "
                r"\d+\.\d\d s",
                line,
            )
            assert m and int(m[1]) == epoch and float(m[2]) > 0 and 0 < float(m[3]) < 1, line
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss" and len(history) == 3

    def test_epoch_line_without_user_view_shows_no_fusion_weight(self, dataset, tmp_path, capsys):
        argv = ["train", "--data", str(dataset), "--out", str(tmp_path), "--epochs", "1",
                "--ablate", "no-user"]
        assert main(argv) == 0
        assert ", w_user -, " in capsys.readouterr().err

    def test_cli_train_in_two_processes_equals_serial(self, dataset, tmp_path, monkeypatch):
        """The console command, which imports keynodes before numpy, may split
        each batch over two processes; its outputs equal a one-process run's."""
        argv = ["train", "--data", str(dataset), "--epochs", "2", "--seed", "5"]
        run_python(f"import sys; from keynodes.cli import main; sys.exit(main({argv!r} + sys.argv[1:]))",
                   None, "--out", str(tmp_path / "cli"))
        monkeypatch.setattr(training, "_processes", lambda batch: 1)
        assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        assert tree_bytes(tmp_path / "cli") == tree_bytes(tmp_path / "serial")

    @pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                        reason="train forks a worker on Linux with two usable CPUs")
    def test_killed_train_leaves_no_worker(self, dataset, tmp_path):
        """A worker waits on its pipe, and ends when the train process dies."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(keynodes.__file__).resolve().parents[1])
        argv = ["train", "--data", str(dataset), "--out", str(tmp_path), "--epochs", "100000",
                "--patience", "100000"]
        proc = subprocess.Popen([sys.executable, "-c", "import sys; from keynodes.cli import main; "
                                 "sys.exit(main())", *argv], env=env, stderr=subprocess.DEVNULL)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline = time.monotonic() + 60
            while not (workers := children.read_text().split()) and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            proc.kill()
            proc.wait()
        assert workers

        def running(pid):
            try:  # a zombie has exited; only its parent, now init, can reap it
                return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 1
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(running, workers))

    def test_failed_epoch_keeps_finished_rows(self, dataset, tmp_path, capsys, monkeypatch):
        """history.csv gains each row as its epoch ends: a parameter driven
        non-finite in epoch 2 leaves the header and epoch 1's row, as a clean
        one-epoch run writes them, and stderr logs the finished epoch."""
        base = ["train", "--data", str(dataset), "--batch-size", "7", "--seed", "3"]
        assert main(base + ["--out", str(tmp_path / "clean"), "--epochs", "1"]) == 0
        clean = capsys.readouterr()
        assert clean.err.startswith("epoch 1: train loss ") and clean.err.count("\n") == 1
        steps = []

        def poisoning(params, grads, state, lr):  # one step per epoch: the 7 graphs are one batch
            adam_step(params, grads, state, lr)
            steps.append(state.t)
            if state.t == 2:
                params["struct.score.b"] = np.full((1, 1), np.nan)
            return params

        adam_step = training.adam_step
        monkeypatch.setattr(training, "adam_step", poisoning)
        assert main(base + ["--out", str(tmp_path / "failed"), "--epochs", "3"]) == 3
        err = capsys.readouterr().err
        assert steps == [1, 2] and "parameter 'struct.score.b' during epoch 2" in err
        assert err.startswith("epoch 1: train loss ") and "epoch 2:" not in err
        history = (tmp_path / "failed" / "history.csv").read_bytes()
        assert history == (tmp_path / "clean" / "history.csv").read_bytes()
        assert history.count(b"\n") == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"), ("--lam", "nan")],
    )
    def test_bad_step_size_exit_2_before_training(self, dataset, tmp_path, capsys, flag, value):
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path), flag, value])
        assert rc == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "best.ckpt").exists()

    def test_zero_heads_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("heads = 0\n")
        base = ["train", "--data", str(dataset), "--out", str(tmp_path)]
        for extra in (["--heads", "0"], ["--config", str(cfg)]):
            assert main(base + extra) == 2
            assert "model dimensions must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "best.ckpt").exists()

    def test_undirected_flag_is_a_usage_error(self, dataset, tmp_path, capsys):
        """Walks and attention read the cascade's own edges; there is no switch."""
        rc = main(["train", "--data", str(dataset), "--out", str(tmp_path), "--undirected"])
        assert rc == 1
        assert "--undirected" in capsys.readouterr().err
        assert not (tmp_path / "best.ckpt").exists()

    def test_config_file_defaults_and_flag_override(self, dataset, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("epochs = 1\nhidden = 32\n# comment\n")
        out1 = tmp_path / "o1"
        rc = main(
            ["train", "--data", str(dataset), "--out", str(out1), "--config", str(cfgfile), "--seed", "2"]
        )
        assert rc == 0
        assert len((out1 / "history.csv").read_text().strip().split("\n")) == 2
        out2 = tmp_path / "o2"
        rc = main(
            [
                "train", "--data", str(dataset), "--out", str(out2),
                "--config", str(cfgfile), "--epochs", "2", "--seed", "2",
            ]
        )
        assert rc == 0
        assert len((out2 / "history.csv").read_text().strip().split("\n")) == 3

    def test_unknown_config_key_exit_2(self, dataset, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("warp_speed = 9\n")
        rc = main(
            ["train", "--data", str(dataset), "--out", str(tmp_path), "--config", str(cfgfile)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "command, line",
        [
            ("train", "epochs = abc"),
            ("train", "seed = -3"),
            ("train", "ablate = bogus"),
            ("train", "undirected = maybe"),
            ("train", "undirected = 1"),
            ("compare", "ablate = no-user, bogus"),
        ],
    )
    def test_bad_config_value_exit_2(self, dataset, tmp_path, capsys, command, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"# line 1\n{line}\n")
        argv = [command, "--data", str(dataset), "--config", str(cfgfile)]
        if command == "train":
            argv += ["--out", str(tmp_path / "o"), "--epochs", "1"]
        else:
            argv += ["--out", str(tmp_path / "r.csv"), "--methods", "degree", "--runs", "2"]
        assert main(argv) == 2
        assert f"{cfgfile}:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, dest, value",
        [
            ("compare", "ablate = no-user, all", "ablate", ["no-user", "all"]),
            ("compare", "runs = 7", "runs", 7),
        ],
    )
    def test_config_value_converts_by_flag_kind(self, tmp_path, command, line, dest, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        argv = [command, "--data", "d", "--out", "o", "--config", str(cfgfile)]
        assert getattr(cli._apply_config(cli.build_parser(), argv), dest) == value

    def test_help_is_not_a_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("help = 1\n")
        assert main(["gen", "--out", str(tmp_path / "d"), "--config", str(cfgfile)]) == 2
        assert "unknown option 'help'" in capsys.readouterr().err


class TestScore:
    def test_scores_csv_contract(self, dataset, trained, tmp_path):
        out = tmp_path / "scores.csv"
        rc = main(
            [
                "score", "--checkpoint", str(trained / "best.ckpt"),
                "--cascade", str(dataset / "g000"), "--out", str(out), "--seed", "11",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node,score,s_user,s_struct,w_user,w_stru,is_seed"
        n = len(lines) - 1
        seeds = 0
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[4]) + float(cells[5]) - 1.0) < 1e-12
            seeds += int(cells[6])
        assert seeds == int(np.ceil(0.05 * n))

    @pytest.mark.parametrize("ablate", [frozenset(), frozenset({"no-user"})])
    def test_scores_csv_equals_per_row_writer(self, dataset, trained, tmp_path, ablate):
        """scores.csv, written in one block, has the bytes of one f-string per node."""
        params = load_checkpoint(trained / "best.ckpt")
        keep = param_shapes(ModelConfig(), ablate) | {"meta": None}
        store = ParamStore({k: v for k, v in params.items() if k in keep})
        meta = store["meta"].copy()
        meta[0, -1] = sum(1 << i for i, a in enumerate(ABLATIONS) if a in ablate)
        store["meta"] = meta
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "scores.csv"
        save_checkpoint(store, ckpt)
        rc = main(["score", "--checkpoint", str(ckpt), "--cascade", str(dataset / "g002"),
                   "--out", str(out), "--seed", "5"])
        assert rc == 0

        g = cli.load_cascade(dataset / "g002")
        user, struct = featurize_graph(g, WalkConfig(), 5, 0)
        weights = ParamStore({k: v for k, v in store.items() if k != "meta"})
        scores, s_user, s_struct, w = score_graph(g, weights, ModelConfig(), user, struct)
        assert (s_user is None) == ("no-user" in ablate)
        seeds = set(training.select_seeds(scores, 0.05).members)
        w_user, w_stru = (0.0, 1.0) if w is None else (float(w[0]), float(w[1]))
        want = "node,score,s_user,s_struct,w_user,w_stru,is_seed\n"
        for v in range(g.n):
            su = "" if s_user is None else repr(float(s_user[v]))
            want += (f"{v},{float(scores[v])!r},{su},{float(s_struct[v])!r},"
                     f"{w_user!r},{w_stru!r},{int(v in seeds)}\n")
        assert out.read_bytes() == want.encode()

    def test_rescoring_identical(self, dataset, trained, tmp_path):
        args = [
            "score", "--checkpoint", str(trained / "best.ckpt"),
            "--cascade", str(dataset / "g001"), "--seed", "4",
        ]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dump_features(self, dataset, trained, tmp_path):
        rc = main(
            [
                "score", "--checkpoint", str(trained / "best.ckpt"),
                "--cascade", str(dataset / "g002"), "--out", str(tmp_path / "s.csv"),
                "--dump-features", str(tmp_path / "f.csv"), "--seed", "0",
            ]
        )
        assert rc == 0
        g = cli.load_cascade(dataset / "g002")
        user, struct = featurize_graph(g, WalkConfig(), 0, 0)
        lines = (tmp_path / "f.csv").read_text().split("\n")
        assert lines[0] == "node,view," + ",".join(f"f{i}" for i in range(USER_DIM))
        assert lines[-1] == "" and len(lines) - 2 == 2 * g.n
        want = [
            [str(v), tag, *map(repr, m[v].tolist()), *[""] * (USER_DIM - m.shape[1])]
            for tag, m in (("user", user), ("structure", struct))
            for v in range(g.n)
        ]
        rows = [line.split(",") for line in lines[1:-1]]
        assert all(row[-1] == "" for row in rows[g.n :])  # structure rows leave f8 empty
        assert rows == want

    def test_dump_features_featurizes_once(self, dataset, trained, tmp_path, monkeypatch):
        calls = count_featurize(monkeypatch)
        rc = main(
            [
                "score", "--checkpoint", str(trained / "best.ckpt"),
                "--cascade", str(dataset / "g002"), "--out", str(tmp_path / "s.csv"),
                "--dump-features", str(tmp_path / "f.csv"),
            ]
        )
        assert rc == 0
        assert calls == [0]

    def test_corrupt_checkpoint_dim_mismatch_exit_2(self, dataset, trained, tmp_path, capsys):
        params = load_checkpoint(trained / "best.ckpt")
        params["user.proj.W"] = np.zeros((3, 3))
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(params, bad)
        rc = main(
            [
                "score", "--checkpoint", str(bad),
                "--cascade", str(dataset / "g000"), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2
        assert "user.proj.W" in capsys.readouterr().err

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_hostile_checkpoint_exit_2(self, dataset, trained, tmp_path, case):
        good = trained / "best.ckpt"
        bad = tmp_path / "hostile.ckpt"
        bad.write_bytes(hostile_checkpoint(case, good.read_bytes(), load_checkpoint(good)))
        rc = main(
            [
                "score", "--checkpoint", str(bad),
                "--cascade", str(dataset / "g000"), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("verb", ["score", "compare"])
    def test_format_1_checkpoint_exit_2(self, dataset, trained, tmp_path, capsys, verb):
        """Formats 1 and 2 (both with conv_b) are rejected: retrain."""
        where = ["--cascade", str(dataset / "g000")] if verb == "score" else ["--data", str(dataset)]
        for version in (1, 2):
            old = tmp_path / f"v{version}.ckpt"
            save_old_format(load_checkpoint(trained / "best.ckpt"), old, version)
            rc = main([verb, "--checkpoint", str(old), *where, "--out", str(tmp_path / "out.csv")])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"checkpoint format version {version} is not supported (expected 3)" in err
            assert "retrain" in err

    @pytest.mark.parametrize(
        "entry, value",
        [
            ("hidden", np.nan), ("hidden", 64.7), ("undirected", 7.0), ("undirected", 1.0),
            ("ablation_bits", 1e30),
        ],
    )
    def test_bad_meta_entry_exit_2(self, dataset, trained, tmp_path, capsys, entry, value):
        params = load_checkpoint(trained / "best.ckpt")
        at = {"hidden": 1, "undirected": 7, "ablation_bits": 8}[entry]
        meta = params["meta"].copy()
        meta[0, at] = value
        params["meta"] = meta
        bad = tmp_path / "meta.ckpt"
        save_checkpoint(params, bad)
        rc = main(
            [
                "score", "--checkpoint", str(bad),
                "--cascade", str(dataset / "g000"), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2
        assert f"checkpoint meta entry {entry!r}" in capsys.readouterr().err

    def test_huge_meta_size_exit_2_without_drawing(
        self, dataset, trained, tmp_path, capsys, monkeypatch
    ):
        """A meta row claiming hidden 400000 is rejected by tensor shape
        alone: checking it draws no random numbers and allocates no weights.
        (Generator is an immutable type, so its constructor is the patch point.)"""
        params = load_checkpoint(trained / "best.ckpt")
        meta = params["meta"].copy()
        meta[0, 1:3] = (400000, 1)  # hidden, heads
        params["meta"] = meta
        bad = tmp_path / "huge.ckpt"
        save_checkpoint(params, bad)

        def no_draws(*args, **kwargs):
            raise AssertionError("checkpoint validation drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        rc = main(
            [
                "score", "--checkpoint", str(bad),
                "--cascade", str(dataset / "g000"), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2
        assert "tensor 'user.proj.W' has shape" in capsys.readouterr().err

    def test_nan_checkpoint_exit_2(self, dataset, trained, tmp_path, capsys):
        params = load_checkpoint(trained / "best.ckpt")
        params["struct.proj.W"] = np.full(params["struct.proj.W"].shape, np.nan)
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(params, bad)
        rc = main(
            [
                "score", "--checkpoint", str(bad),
                "--cascade", str(dataset / "g000"), "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2
        assert "tensor 'struct.proj.W' holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["score", "compare"])
    @pytest.mark.parametrize("name,value", [("struct.score.b", np.inf), ("struct.gat0.W", np.nan)])
    def test_nonfinite_tensor_rejected_before_scoring(
        self, dataset, trained, tmp_path, capsys, verb, name, value
    ):
        params = load_checkpoint(trained / "best.ckpt")
        params[name][0, 0] = value  # one entry: an inf bias used to score and exit 0
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(params, bad)
        where = ["--cascade", str(dataset / "g000")] if verb == "score" else ["--data", str(dataset)]
        out = tmp_path / "out.csv"
        rc = main([verb, "--checkpoint", str(bad), *where, "--out", str(out)])
        assert rc == 2
        assert f"tensor {name!r} holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_report_with_random_and_ablations(self, dataset, trained, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(
            [
                "compare", "--data", str(dataset), "--checkpoint", str(trained / "best.ckpt"),
                "--out", str(out), "--methods", "mmen,degree,random",
                "--ablate", "all", "--runs", "5", "--seed", "11",
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == REPORT_HEADER
        methods = {line.split(",")[1] for line in lines[1:]}
        assert {"mmen", "mmen-no-user", "mmen-no-memory", "mmen-no-fusion"} <= methods
        assert "random" in methods
        manifest = json.loads((dataset / "manifest.json").read_text())
        n_test = len(manifest["splits"]["test"])
        assert len(lines) - 1 == n_test * 6

    @pytest.mark.parametrize(
        "methods, named",
        [(",", "no method given"), ("degree,degree", "'degree'"), ("mmen,mmen", "'mmen'")],
    )
    def test_empty_or_repeated_methods_exit_2(
        self, dataset, trained, tmp_path, capsys, methods, named
    ):
        out = tmp_path / "r.csv"
        argv = ["compare", "--data", str(dataset), "--out", str(out), "--methods", methods,
                "--runs", "2"]
        if "mmen" in methods:
            argv += ["--checkpoint", str(trained / "best.ckpt")]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_all_featurizes_each_graph_once(self, dataset, trained, tmp_path, monkeypatch):
        calls = count_featurize(monkeypatch)
        rc = main(
            [
                "compare", "--data", str(dataset), "--checkpoint", str(trained / "best.ckpt"),
                "--out", str(tmp_path / "r.csv"), "--methods", "mmen,random",
                "--ablate", "all", "--runs", "2",
            ]
        )
        assert rc == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert calls == list(range(len(manifest["splits"]["test"])))

    def test_inference_ablations_bitwise(self, tmp_path, monkeypatch):
        """Each mmen-<a> that compare derives from the full forward equals a
        forward of the checkpoint minus the <a> tensors, bit for bit, on a
        400-node cascade: for a full checkpoint and a no-user one."""
        data = tmp_path / "ds"
        g = synth_cascade(400, 0.1, 0.5, 3)
        save_cascade(g, data / "g000")
        splits = {"train": [], "val": [], "test": ["g000"]}
        (data / "manifest.json").write_text(json.dumps({"graphs": ["g000"], "splits": splits}))
        model_cfg, walk_cfg = ModelConfig(), WalkConfig()
        user, struct = featurize_graph(g, walk_cfg, 4, 0)
        seen = {}

        def capture(graphs, methods, cfg, fraction, scores=None, **kwargs):
            seen.update(scores)
            return compare_methods(graphs, methods, cfg, fraction, scores=scores, **kwargs)

        forwards = []

        def counting(*args, **kwargs):
            forwards.append(1)
            return score_graph(*args, **kwargs)

        monkeypatch.setattr(cli, "compare_methods", capture)
        monkeypatch.setattr(cli, "score_graph", counting)
        for base in (frozenset(), frozenset({"no-user"})):
            params = init_params(model_cfg, 9, base)
            ckpt = params.copy()
            ckpt["meta"] = cli._pack_meta(model_cfg, walk_cfg, base)
            save_checkpoint(ckpt, tmp_path / "m.ckpt")
            seen.clear()
            forwards.clear()
            rc = main(
                [
                    "compare", "--data", str(data), "--checkpoint", str(tmp_path / "m.ckpt"),
                    "--out", str(tmp_path / "r.csv"), "--methods", "mmen", "--runs", "1",
                    "--ablate", "all", "--seed", "4",
                ]
            )
            assert rc == 0
            assert len(forwards) == 2  # the full model and mmen-no-memory
            full = score_graph(g, params, model_cfg, user, struct)[0]
            assert np.array_equal(seen["mmen"][0], full)
            for a in ABLATIONS:
                keep = param_shapes(model_cfg, base | {a})
                reduced = ParamStore({k: v for k, v in params.items() if k in keep})
                want = score_graph(g, reduced, model_cfg, user, struct)[0]
                assert np.array_equal(seen[f"mmen-{a}"][0], want), (sorted(base), a)

    def test_variant_rows_follow_mmen(self, dataset, trained, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "compare", "--data", str(dataset), "--checkpoint", str(trained / "best.ckpt"),
                "--out", str(out), "--methods", "degree,mmen,random",
                "--ablate", "no-user", "--runs", "2",
            ]
        )
        assert rc == 0
        rows = [line.split(",")[:2] for line in out.read_text().strip().split("\n")[1:]]
        graphs = list(dict.fromkeys(g for g, _ in rows))
        want = ["degree", "mmen", "mmen-no-user", "random"]
        assert rows == [[g, m] for g in graphs for m in want]

    def test_variants_lead_when_mmen_not_listed(self, dataset, trained, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "compare", "--data", str(dataset), "--checkpoint", str(trained / "best.ckpt"),
                "--out", str(out), "--methods", "degree,random",
                "--ablate", "no-fusion", "--runs", "2",
            ]
        )
        assert rc == 0
        methods = [line.split(",")[1] for line in out.read_text().strip().split("\n")[1:]]
        assert methods[:4] == ["mmen", "mmen-no-fusion", "degree", "random"]

    def test_mmen_without_checkpoint_exit_2(self, dataset, tmp_path):
        rc = main(
            [
                "compare", "--data", str(dataset), "--out", str(tmp_path / "r.csv"),
                "--methods", "mmen,random",
            ]
        )
        assert rc == 2

    def test_unknown_method_exit_2(self, dataset, tmp_path, capsys):
        rc = main(
            ["compare", "--data", str(dataset), "--out", str(tmp_path / "r.csv"), "--methods", "voodoo"]
        )
        assert rc == 2
        assert "degree" in capsys.readouterr().err  # valid names listed

    def test_baselines_only_run(self, dataset, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            [
                "compare", "--data", str(dataset), "--out", str(out),
                "--methods", "degree,kshell,hindex,leaderrank,greedy,random",
                "--runs", "3", "--seed", "0",
            ]
        )
        assert rc == 0
        assert out.read_text().startswith(REPORT_HEADER)


class TestImpossibleWalkSizes:
    """Walk arrays too large to allocate exit 2 with one error line that
    names the walk sizes, from a checkpoint's meta row or from a flag."""

    @pytest.mark.parametrize("verb", ["score", "compare", "train"])
    def test_walk_len_past_memory_exit_2(self, dataset, trained, tmp_path, capsys, verb):
        huge = 10**12
        if verb == "train":
            argv = ["train", "--data", str(dataset), "--out", str(tmp_path / "run"),
                    "--walk-len", str(huge)]
        else:
            params = load_checkpoint(trained / "best.ckpt")
            meta = params["meta"].copy()
            meta[0, 6] = huge  # walk_len
            params["meta"] = meta
            ckpt = tmp_path / "walks.ckpt"
            save_checkpoint(params, ckpt)
            argv = [verb, "--checkpoint", str(ckpt), "--out", str(tmp_path / "out.csv")]
            argv += (["--cascade", str(dataset / "g000")] if verb == "score"
                     else ["--data", str(dataset), "--runs", "2"])
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"walks_per_node=10 x walk_len={huge} steps for each of N=" in err[0]
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "run" / "best.ckpt").exists()


class TestHostileInputs:
    """Each input a verb reads is a DataError naming the file, exit 2."""

    @pytest.fixture
    def data(self, dataset, tmp_path):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        return copy

    def compare(self, data, tmp_path, capsys):
        argv = ["compare", "--data", str(data), "--out", str(tmp_path / "r.csv"),
                "--methods", "degree", "--runs", "2"]
        rc = main(argv)
        return rc, capsys.readouterr().err

    def test_non_utf8_edges_exit_2(self, data, tmp_path, capsys):
        name = json.loads((data / "manifest.json").read_text())["splits"]["test"][0]
        path = data / name / "edges.tsv"
        path.write_bytes(path.read_bytes() + b"\xff\t1\t2.0\n")
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and str(path) in err and "UTF-8" in err

    def test_non_utf8_users_exit_2(self, data, tmp_path, capsys):
        name = json.loads((data / "manifest.json").read_text())["splits"]["test"][0]
        path = data / name / "users.tsv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\xe9\n", 2))
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and str(path) in err and "UTF-8" in err

    def test_non_utf8_config_exit_2(self, data, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"runs = 2\n# caf\xe9\n")
        rc = main(["compare", "--data", str(data), "--out", str(tmp_path / "r.csv"),
                   "--methods", "degree", "--config", str(cfgfile)])
        assert rc == 2 and str(cfgfile) in capsys.readouterr().err

    def test_invalid_manifest_json_exit_2(self, data, tmp_path, capsys):
        (data / "manifest.json").write_text('{"graphs": ["g000"], "splits": ')
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and "manifest.json" in err

    def test_splits_not_a_mapping_exit_2(self, data, tmp_path, capsys):
        (data / "manifest.json").write_text('{"graphs": ["g000"], "splits": []}')
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and "manifest.json" in err and "'splits'" in err

    def test_split_not_a_list_of_names_exit_2(self, data, tmp_path, capsys):
        (data / "manifest.json").write_text('{"graphs": ["g000"], "splits": {"test": ["g000", 7]}}')
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and "manifest.json" in err and "'test'" in err

    @pytest.mark.parametrize(
        "entry", ["ABS", "../ds/g009", "", ".", "..", "g0\\09", "g009/", "g0,09", "g009\n", "g0\r09"]
    )
    def test_split_entry_not_a_plain_name_exit_2(self, data, tmp_path, capsys, entry):
        """A test split may name only a cascade directory of the dataset, never
        a path out of it (ABS: the absolute path of a real cascade) or a name
        that would break report.csv."""
        entry = str(data / "g009") if entry == "ABS" else entry
        (data / "manifest.json").write_text(json.dumps({"graphs": [], "splits": {"test": [entry]}}))
        rc, err = self.compare(data, tmp_path, capsys)
        assert rc == 2 and "manifest.json" in err and repr(entry) in err


class TestExitCodes:
    def test_usage_error_exit_1(self):
        assert main(["train", "--no-such-flag"]) == 1

    def test_unknown_subcommand_exit_1(self):
        assert main(["fly"]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "gen" in out and "compare" in out

    def test_subcommand_help_documents_defaults(self, capsys):
        assert main(["train", "--help"]) == 0
        text = capsys.readouterr().out
        for fragment in ("5e-4", "default 2", "default 50"):
            assert fragment in text


def run_python(code, openblas_threads, *args) -> str:
    """Stdout of ``python -c code *args`` with OPENBLAS_NUM_THREADS set to
    ``openblas_threads`` at start-up (unset if None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(keynodes.__file__).resolve().parents[1])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


class TestBlasThreads:
    """Importing keynodes caps OpenBLAS at one thread unless the user set a value."""

    def blas_threads(self, preset):
        return run_python("import keynodes, os; print(os.environ['OPENBLAS_NUM_THREADS'])", preset)

    def test_unset_becomes_one(self):
        assert self.blas_threads(None) == "1"

    def test_user_value_kept(self):
        assert self.blas_threads("2") == "2"


class TestOneThreadGate:
    """train uses several processes only when OpenBLAS is known to run one
    thread in each: two threads per process made two processes 3x slower."""

    def gate(self, preset, numpy_first):
        imports = "import numpy, keynodes" if numpy_first else "import keynodes"
        return run_python(f"{imports}; print(keynodes.BLAS_ONE_THREAD)", preset) == "True"

    def test_on_when_keynodes_sets_the_cap(self):
        assert self.gate(None, numpy_first=False) and self.gate("1", numpy_first=False)

    def test_off_when_numpy_loaded_first_without_the_variable(self):
        assert not self.gate(None, numpy_first=True)

    def test_off_for_two_threads(self):
        assert not self.gate("2", numpy_first=False) and not self.gate("2", numpy_first=True)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the start-up environment from /proc")
    def test_on_when_one_thread_set_at_start_up_and_numpy_loaded_first(self):
        assert self.gate("1", numpy_first=True)
