"""CLI subcommands: output formats, exit codes, file artifacts."""

import dataclasses
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import logpolar
from logpolar import checks
from logpolar.cli import build_parser, cmd_train, main
from logpolar.data import load_idx
from logpolar.geometry import DegenerateGeometryWarning
from logpolar.lpsc import LpscWeights, save_lpsc_weights
from logpolar.network import parse_net_file
from logpolar.tensor import load_tensor, save_tensor

NETS = sorted((Path(__file__).resolve().parent.parent / "nets").glob("*.cfg"))

LPSC_CFG = """\
[net]
input = 16x16x1
classes = 2

[layer.1]
kind = lpsc
out_channels = 4
size = 5
levels_r = 2
levels_theta = 6
growth = 2
padding = 2

[layer.2]
kind = relu

[layer.3]
kind = maxpool
size = 2

[layer.4]
kind = flatten

[layer.5]
kind = dense
units = 2

[train]
learning_rate = 0.05
momentum = 0.9
weight_decay = 0.0005
batch_size = 16
epochs = 3
seed = 1
"""

TWO_CONV_CFG = """\
[net]
input = 12x12x1
classes = 2

[layer.1]
kind = conv
out_channels = 2
kernel_size = 3
padding = 1

[layer.2]
kind = conv
out_channels = 2
kernel_size = 3
padding = 1
"""

# `mask` and its flags, ending where --g goes
MASK = ["mask", "--out", "{out}", "--size", "5", "--lr", "2", "--lt", "6"]

LPSC_LAYER = LPSC_CFG[LPSC_CFG.index("kind = lpsc") : LPSC_CFG.index("\n\n[layer.2]")]
CONV_PADDED = "kind = conv\nout_channels = 1\nkernel_size = 3\npadding = 200000"


@pytest.fixture
def lpsc_cfg(tmp_path):
    path = tmp_path / "lpsc_small.cfg"
    path.write_text(LPSC_CFG)
    return path


def lpsc_process(argv, hash_seed="0", **env):
    """Run ``python -m logpolar *argv`` in a new process under PYTHONHASHSEED=*hash_seed*
    and any further environment variables *env*."""
    src = str(Path(logpolar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-m", "logpolar", *argv], env=env,
                          capture_output=True, text=True)


class TestMask:
    def test_size5_radii_line(self, capsys):
        assert main(["mask", "--size", "5", "--lr", "2", "--lt", "8", "--g", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "R1=2 R2=4"
        assert "C" in out
        assert "level 1: 1 1 1 1 1 1 1 1" in out

    def test_size11_radii_line(self, capsys):
        assert main(["mask", "--size", "11", "--lr", "3", "--lt", "8", "--g", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "R1=6.25 R2=12.5 R3=25"

    def test_even_size_rejected(self, capsys):
        assert main(["mask", "--size", "4", "--lr", "2", "--lt", "8", "--g", "2"]) == 1
        assert "odd" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert main(["mask", "--size", "5", "--lr", "2", "--lt", "8", "--g", "2", "--bogus"]) == 1

    def test_shell_chain_past_every_float_exits_0(self, capsys):
        with pytest.warns(DegenerateGeometryWarning):
            assert main(["mask", "--size", "5", "--lr", "2000", "--lt", "4", "--g", "2"]) == 0
        assert capsys.readouterr().out.startswith("R1=2 R2=4 R3=8 ")

    @pytest.mark.parametrize(
        "argv, message",
        [(["--size", "x"], "argument --size: invalid int value: 'x'"),
         (["--size", "4"], "argument --size: must be odd and >= 3, got 4"),
         (["--size", "5", "--bogus"], "unrecognized arguments: --bogus"),
         (["--size", "100001"],
          "argument --size: must be at most 8192, a mask of 67108864 cells, got 100001")],
        ids=["argparse-type", "config-range", "argparse-unknown", "config-mask-bound"],
    )
    def test_flag_error_is_one_stderr_line(self, capsys, argv, message):
        assert main(["mask", "--lr", "2", "--lt", "8", "--g", "2", *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"lpsc: error: {message}"]

    def test_pgm_output(self, tmp_path, capsys):
        out = tmp_path / "mask.pgm"
        assert main(["mask", "--size", "5", "--lr", "2", "--lt", "8", "--g", "2", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n5 5\n255\n")


class TestCheck:
    def test_quick_sweep_passes(self, capsys):
        assert main(["check", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "max_rel=" in out

    def test_weights_validation_ok(self, tmp_path, capsys):
        path = tmp_path / "w.lpscw"
        save_lpsc_weights(
            path,
            LpscWeights(center=np.zeros((1, 2)), regions=np.zeros((2, 6, 1, 2))),
        )
        assert main(["check", "--weights", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_corrupted_weights_names_file(self, tmp_path, capsys):
        path = tmp_path / "broken.lpscw"
        path.write_bytes(b"garbage")
        assert main(["check", "--weights", str(path)]) == 1
        assert "broken.lpscw" in capsys.readouterr().err

    def test_gradient_checks_identical_across_hash_seeds(self):
        # str hashes are salted per process, so the check's seeds must not use them
        script = (
            "from logpolar.checks import gradient_checks\n"
            "for r in gradient_checks():\n"
            "    print(r.name, repr(r.value))\n"
        )
        src = str(Path(logpolar.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(run.stdout)
        assert outputs[0].count("gradient") == 6
        assert outputs[0] == outputs[1]

    def test_nan_forward_fails_every_check(self, monkeypatch, capsys):
        # Python's max(worst, err) drops a NaN; every check must keep it and fail
        real = checks.lpsc_forward_fast
        monkeypatch.setattr(checks, "lpsc_forward_fast",
                            lambda *args, **kwargs: np.full_like(real(*args, **kwargs), np.nan))
        for sweep, count in ((checks.equivalence_sweep, 64), (checks.sum_mean_identity_sweep, 32)):
            results = sweep(seed=0, full=False)
            assert len(results) == count
            assert all(np.isnan(r.value) and not r.passed for r in results)
            assert all("max_rel=nan" in r.line() and r.line().endswith("FAIL") for r in results)
        assert main(["check"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert all(line.endswith("FAIL") for line in out[:3])
        assert out[3] == "102 checks, 102 failed"

    @pytest.mark.parametrize("target", ["input", "regions"])
    def test_nan_gradient_fails_every_gradient_check(self, monkeypatch, capsys, target):
        real = checks.lpsc_backward

        def nan_backward(*args, **kwargs):
            gx, gw = real(*args, **kwargs)
            if target == "input":
                return np.full_like(gx, np.nan), gw
            return gx, dataclasses.replace(gw, regions=np.full_like(gw.regions, np.nan))

        monkeypatch.setattr(checks, "lpsc_backward", nan_backward)
        results = checks.gradient_checks()
        assert len(results) == 6
        assert all(np.isnan(r.value) and not r.passed for r in results)
        assert main(["check"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[2].startswith("gradient ") and out[2].endswith("FAIL")
        assert out[3] == "102 checks, 6 failed"


class TestTrainEval:
    def test_train_writes_history_and_checkpoint(self, tmp_path, lpsc_cfg, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
             "--n-per-class", "8", "--epochs", "2", "--seed", "1"]
        )
        assert code == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,train_acc"
        assert len(history) == 3
        assert (out / "checkpoint" / "manifest.txt").exists()

    def test_train_deterministic(self, tmp_path, lpsc_cfg):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
                 "--n-per-class", "8", "--epochs", "2", "--seed", "7"]
            )
            outs.append((out / "history.csv").read_text())
        assert outs[0] == outs[1]

    def test_eval_roundtrip(self, tmp_path, lpsc_cfg, capsys):
        out = tmp_path / "run"
        main(
            ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
             "--n-per-class", "8", "--epochs", "2", "--seed", "1"]
        )
        capsys.readouterr()
        code = main(
            ["eval", "--net", str(lpsc_cfg), "--checkpoint", str(out / "checkpoint"),
             "--data", "edges", "--n-per-class", "8", "--seed", "1"]
        )
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_eval_refuses_partial_checkpoint(self, tmp_path, lpsc_cfg, capsys):
        out = tmp_path / "run"
        main(
            ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
             "--n-per-class", "8", "--epochs", "1", "--seed", "1"]
        )
        manifest = out / "checkpoint" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("".join(f"{line}\n" for line in lines if " lpsc " not in line))
        capsys.readouterr()
        code = main(
            ["eval", "--net", str(lpsc_cfg), "--checkpoint", str(out / "checkpoint"),
             "--data", "edges", "--n-per-class", "8", "--seed", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "manifest.txt" in captured.err and "accuracy=" not in captured.out

    def test_missing_net_file(self, tmp_path, capsys):
        assert main(["train", "--net", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 1

    def test_full_edges_run_reaches_ninety_percent(self, tmp_path, lpsc_cfg, capsys):
        # the end-to-end command-line training run: 64 samples per class,
        # 200 epochs, seed 1, final train accuracy at or above 0.90
        out = tmp_path / "full"
        code = main(
            ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
             "--n-per-class", "64", "--epochs", "200", "--seed", "1"]
        )
        assert code == 0
        last = (out / "history.csv").read_text().splitlines()[-1]
        final_acc = float(last.split(",")[2])
        assert final_acc >= 0.90

    def test_diverging_run_exits_2_without_checkpoint(self, tmp_path, capsys):
        # one batch of 16 per epoch: with 3 epochs the second epoch's loss
        # catches the divergence; with 1 the final evaluate (or the
        # validation pass) does
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(LPSC_CFG.replace("learning_rate = 0.05", "learning_rate = 1e300"))
        for flags, where in (([], "at epoch 2, batch 1"), (["--epochs", "1"], "at batch 1"),
                             (["--epochs", "1", "--val-fraction", "0.25"],
                              "at epoch 1, validation batch 1")):
            out = tmp_path / "run"
            code = main(["train", "--net", str(cfg), "--out", str(out), "--data", "edges",
                         "--n-per-class", "8", *flags])
            assert code == 2, flags
            captured = capsys.readouterr()
            assert f"loss is nan {where}" in captured.err and captured.out == "", flags
            assert not (out / "history.csv").exists() and not (out / "checkpoint").exists()
            assert not out.exists(), flags

    def test_eval_of_non_finite_loss_exits_2(self, tmp_path, lpsc_cfg):
        # 1e308 is finite, so the TNSR reader takes it; the logits overflow. The eval
        # runs in a new process, as pytest would capture numpy's warnings in this one
        out = tmp_path / "run"
        main(["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
              "--n-per-class", "4", "--epochs", "1"])
        path = out / "checkpoint" / "layer.5.weights.tnsr"
        save_tensor(path, np.full_like(load_tensor(path), 1e308))
        run = lpsc_process(["eval", "--net", str(lpsc_cfg), "--checkpoint", str(out / "checkpoint"),
                            "--data", "edges", "--n-per-class", "4"])
        assert run.returncode == 2
        assert run.stderr == "lpsc: numerical error: loss is nan at batch 1\n"
        assert run.stdout == ""

    def test_diverging_run_prints_one_stderr_line(self, tmp_path):
        # in a new process, as pytest would capture numpy's warnings in this one
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(LPSC_CFG.replace("learning_rate = 0.05", "learning_rate = 1e300"))
        run = lpsc_process(["train", "--net", str(cfg), "--out", str(tmp_path / "run"),
                            "--data", "edges", "--n-per-class", "4", "--epochs", "1"])
        assert run.returncode == 2
        assert run.stderr == "lpsc: numerical error: loss is nan at batch 1\n"
        assert run.stdout == ""

    def test_train_and_eval_identical_across_hash_seeds(self, tmp_path, lpsc_cfg):
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"run{hash_seed}"
            data = ["--data", "edges", "--n-per-class", "8"]
            train = lpsc_process(["train", "--net", str(lpsc_cfg), "--out", str(out), *data,
                                  "--epochs", "2", "--val-fraction", "0.25"], hash_seed)
            assert train.returncode == 0, train.stderr
            evaluation = lpsc_process(["eval", "--net", str(lpsc_cfg), "--checkpoint",
                                       str(out / "checkpoint"), *data], hash_seed)
            assert evaluation.returncode == 0, evaluation.stderr
            files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((files, evaluation.stdout))
        assert {"history.csv", "checkpoint/manifest.txt", "checkpoint/layer.1.lpscw"} <= set(runs[0][0])
        assert runs[0][1].startswith("loss=")
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_train_identical_for_one_blas_thread_count(self, tmp_path, threads):
        # the README promises determinism for a fixed BLAS library and thread count only.
        # The second lpsc layer's block GEMM, (8192x400) @ (400x16), is large enough for
        # OpenBLAS to split over threads: on OpenBLAS 0.3.31 this spec's checkpoints differ
        # between 1 and 2 threads, and repeat byte for byte under either
        lpsc = "kind = lpsc\nout_channels = 16\nsize = 9\nlevels_r = 3\nlevels_theta = 8\n" \
               "growth = 2\npadding = 4\n"
        cfg = tmp_path / "net.cfg"
        cfg.write_text(f"[net]\ninput = 16x16x1\nclasses = 2\n\n[layer.1]\n{lpsc}\n[layer.2]\n"
                       f"kind = relu\n\n[layer.3]\n{lpsc}\n[layer.4]\nkind = maxpool\n\n"
                       "[layer.5]\nkind = flatten\n\n[layer.6]\nkind = dense\nunits = 2\n\n"
                       "[train]\nbatch_size = 32\n")
        runs = []
        for run in ("a", "b"):
            out = tmp_path / run
            train = lpsc_process(["train", "--net", str(cfg), "--out", str(out), "--data",
                                  "edges", "--n-per-class", "16", "--epochs", "2"],
                                 OPENBLAS_NUM_THREADS=threads)
            assert train.returncode == 0, train.stderr
            files = [out / "history.csv", *(out / "checkpoint").iterdir()]
            runs.append({str(p.relative_to(out)): p.read_bytes() for p in files})
        assert {"checkpoint/manifest.txt", "checkpoint/layer.3.lpscw"} <= set(runs[0])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "data,spec_input,images",
        [("edges", "16x20x1", "16x16x1"), ("edges", "16x16x3", "16x16x1"),
         ("idx", "12x12x1", "16x16x1")],
    )
    def test_data_shape_must_match_spec(self, tmp_path, capsys, command, data, spec_input, images):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(LPSC_CFG.replace("input = 16x16x1", f"input = {spec_input}"))
        out = tmp_path / "run"
        argv = [command, "--net", str(cfg), "--data", data, "--n-per-class", "4"]
        argv += ["--out", str(out)] if command == "train" else ["--checkpoint", str(out)]
        if data == "idx":
            main(["gen-data", "--n-per-class", "4", "--size", "16", "--out", str(tmp_path)])
            argv += ["--images", str(tmp_path / "images.idx"), "--labels", str(tmp_path / "labels.idx")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"images are {images}" in err and f"input is {spec_input}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_edges_below_their_least_side_name_the_spec_input(self, tmp_path, capsys, command):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(LPSC_CFG.replace("input = 16x16x1", "input = 6x6x1"))  # builds: 6x6 in, 2 out
        out = tmp_path / "run"
        argv = [command, "--net", str(cfg), "--data", "edges", "--n-per-class", "4"]
        argv += ["--out", str(out)] if command == "train" else ["--checkpoint", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "lpsc: error: --data edges: the spec's input side must be >= 8, got 6" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("batch_size = 16", "batch_size = 2.5", "[train]: option 'batch_size' must be an integer"),
            ("epochs = 3", "epochs = true", "[train]: option 'epochs' must be an integer"),
            ("epochs = 3", "epochs = 0", "[train]: epochs must be >= 1"),
            ("seed = 1", "seed = 1.0", "[train]: option 'seed' must be an integer"),
            ("learning_rate = 0.05", "learning_rate = fast", "[train]: option 'learning_rate' must be a number"),
            ("learning_rate = 0.05", "learning_rate = inf",
             "[train]: option 'learning_rate' must be finite, got inf"),
            ("weight_decay = 0.0005", "weight_decay = nan",
             "[train]: option 'weight_decay' must be finite, got nan"),
            ("momentum = 0.9", "momentum = nan", "[train]: option 'momentum' must be finite, got nan"),
            ("classes = 2", "classes = 2.5", "[net]: option 'classes' must be an integer"),
            ("classes = 2", "classes = 1", "[net]: classes must be >= 2"),
            ("classes = 2", "classes = 0", "[net]: classes must be >= 2, got 0"),
            ("input = 16x16x1", "input = 16x0x1", "[net] input must be three dims >= 1"),
            ("input = 16x16x1", "input = 16x16x262145",
             "[net] input 16x16x262145 holds 67109120 numbers per sample, more than 67108864"),
            ("seed = 1", "seed = 1\nseed = 2", "malformed spec"),
            ("[train]", "[layer.5]\nkind = relu\n\n[train]", "malformed spec"),
            ("classes = 2", "classes = 2\nno value here", "malformed spec"),
        ],
        ids=["batch_size-float", "epochs-bool", "epochs-zero", "seed-float", "lr-word", "lr-inf",
             "weight_decay-nan", "momentum-nan", "classes-float", "classes-one", "classes-zero",
             "input-zero",
             "input-past-the-sample-bound",
             "key-twice", "section-twice", "not-key-value"],
    )
    def test_bad_net_or_train_value_exits_1(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(LPSC_CFG.replace(old, new))
        out = tmp_path / "run"
        argv = ["train", "--net", str(cfg), "--out", str(out), "--data", "edges", "--n-per-class", "4"]
        assert main(argv) == 1
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--net", "{cfg}", "--out", "{out}", "--epochs", "0"], "--epochs: must be >= 1"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--epochs", "-2"], "--epochs: must be >= 1"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--seed", "-1"], "--seed: must be >= 0"),
            (["eval", "--net", "{cfg}", "--checkpoint", "{out}", "--seed", "-1"], "--seed: must be >= 0"),
            (["check", "--seed", "-1"], "--seed: must be >= 0"),
            (["erf", "--net", "{cfg}", "--out", "{out}", "--seed", "-1"], "--seed: must be >= 0"),
            (["gen-data", "--out", "{out}", "--seed", "-1"], "--seed: must be >= 0"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--val-fraction", "-0.5"],
             "--val-fraction: must be finite in [0, 1), got -0.5"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--val-fraction", "1.5"],
             "--val-fraction: must be finite in [0, 1), got 1.5"),
            (MASK + ["--g", "inf"], "--g: must be finite, got inf"),
            (MASK + ["--g", "2", "--alpha", "inf"], "--alpha: must be finite, got inf"),
            (MASK + ["--g", "2", "--alpha", "nan"], "--alpha: must be finite, got nan"),
            (MASK + ["--g", "2", "--ecc", "nan"], "--ecc: must be finite, got nan"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--n-per-class", "0"],
             "--n-per-class: must be >= 1, got 0"),
            (["eval", "--net", "{cfg}", "--checkpoint", "{out}", "--n-per-class", "0"],
             "--n-per-class: must be >= 1, got 0"),
            (["gen-data", "--out", "{out}", "--n-per-class", "0"], "--n-per-class: must be >= 1, got 0"),
            (["gen-data", "--out", "{out}", "--size", "4"], "--size: must be >= 8, got 4"),
            # LpscConfig's own range checks, named by the flag that set the field
            (MASK + ["--g", "2", "--size", "4"], "--size: must be odd and >= 3, got 4"),
            (MASK + ["--g", "2", "--lt", "7"], "--lt: must be even and >= 2, got 7"),
            (MASK + ["--g", "1"], "--g: must be > 1, got 1.0"),
            (MASK + ["--g", "2", "--ecc", "1.5"], "--ecc: must lie in [0, 1), got 1.5"),
        ],
        ids=["train-epochs-zero", "train-epochs-negative", "train-seed", "eval-seed", "check-seed",
             "erf-seed", "gen-data-seed", "train-val-fraction-negative", "train-val-fraction-above-one",
             "mask-g-inf", "mask-alpha-inf", "mask-alpha-nan", "mask-ecc-nan",
             "train-n-per-class-zero", "eval-n-per-class-zero",
             "gen-data-n-per-class-zero", "gen-data-size-below-eight", "mask-size-even",
             "mask-lt-odd", "mask-g-one", "mask-ecc-past-one"],
    )
    def test_flag_below_its_bound_exits_1(self, tmp_path, lpsc_cfg, capsys, argv, flag):
        out = tmp_path / "run"
        assert main([a.format(cfg=lpsc_cfg, out=out) for a in argv]) == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_idx_label_past_the_spec_classes_names_the_labels_file(self, tmp_path, lpsc_cfg, capsys,
                                                                   command):
        main(["gen-data", "--n-per-class", "4", "--size", "16", "--out", str(tmp_path)])
        labels = tmp_path / "labels.idx"
        blob = bytearray(labels.read_bytes())
        blob[8] = 5  # the first label, past the header
        labels.write_bytes(blob)
        out = tmp_path / "run"
        argv = [command, "--net", str(lpsc_cfg), "--data", "idx", "--images",
                str(tmp_path / "images.idx"), "--labels", str(labels)]
        argv += ["--out", str(out)] if command == "train" else ["--checkpoint", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{labels}: label 5 is not below the spec's classes = 2" in captured.err
        assert captured.out == "" and not out.exists()

    def test_train_overrides_pass_train_config_checks(self, tmp_path, lpsc_cfg):
        out = tmp_path / "run"
        args = build_parser().parse_args(["train", "--net", str(lpsc_cfg), "--out", str(out)])
        args.epochs = 0  # argparse takes any integer; TrainConfig owns the bound
        with pytest.raises(ValueError, match="^argument --epochs: must be >= 1, got 0$"):
            cmd_train(args)
        assert not out.exists()

    def test_val_fraction_leaving_no_training_sample_exits_1(self, tmp_path, lpsc_cfg, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 1, 16, 16) + bytes(256))
        labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        out = tmp_path / "run"
        assert main(["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "idx",
                     "--images", str(images), "--labels", str(labels), "--val-fraction", "0.5"]) == 1
        assert "--val-fraction 0.5 leaves no sample to train on" in capsys.readouterr().err
        assert not out.exists()

    def test_train_on_idx_dims_past_the_payload_exits_1(self, tmp_path, lpsc_cfg, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 1, 2**32 - 1, 2**32 - 1))
        labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
        out = tmp_path / "run"
        assert main(["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "idx",
                     "--images", str(images), "--labels", str(labels)]) == 1
        expected = f"{images}: truncated payload: 0 bytes, expected {(2**32 - 1) ** 2}"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, corrupt, message",
        [
            ("layer.5.bias.tnsr", lambda b: b"TNSR v1 1 99999999999999999999\n",
             "layer.5.bias.tnsr: payload holds 0 bytes, expected 799999999999999999992"),
            ("manifest.txt", lambda b: b.replace(b"weights", b"w\xe9ights"),
             "manifest.txt: not ASCII text"),
        ],
        ids=["tnsr-overflowing-header", "manifest-non-ascii"],
    )
    def test_eval_of_corrupted_checkpoint_exits_1(self, tmp_path, lpsc_cfg, capsys, target, corrupt,
                                                  message):
        out = tmp_path / "run"
        main(["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
              "--n-per-class", "4", "--epochs", "1"])
        path = out / "checkpoint" / target
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert main(["eval", "--net", str(lpsc_cfg), "--checkpoint", str(out / "checkpoint"),
                     "--data", "edges", "--n-per-class", "4"]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and "accuracy=" not in captured.out

    def test_val_fraction_column(self, tmp_path, lpsc_cfg):
        out = tmp_path / "run"
        main(
            ["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
             "--n-per-class", "8", "--epochs", "2", "--seed", "1", "--val-fraction", "0.25"]
        )
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,train_acc,val_acc"
        assert lines[1].count(",") == 3


class TestErf:
    def test_two_conv_support(self, tmp_path, capsys):
        cfg = tmp_path / "two_conv.cfg"
        cfg.write_text(TWO_CONV_CFG)
        assert main(["erf", "--net", str(cfg), "--loc", "center"]) == 0
        assert "support 5x5" in capsys.readouterr().out

    def test_explicit_location_and_pgm(self, tmp_path, capsys):
        cfg = tmp_path / "two_conv.cfg"
        cfg.write_text(TWO_CONV_CFG)
        out = tmp_path / "rf.pgm"
        assert main(["erf", "--net", str(cfg), "--loc", "6,6", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n")

    @pytest.mark.parametrize(
        "loc, message",
        [("--loc=-1,0", "(-1, 0) is outside the 12x12 output grid"),
         ("-1,0", "(-1, 0) is outside the 12x12 output grid"),
         ("centre", "invalid I,J value: 'centre'"),
         ("6", "invalid I,J value: '6'")],
        ids=["negative", "negative-own-word", "misspelt-center", "one-number"],
    )
    def test_bad_location_is_one_stderr_line_and_writes_nothing(self, tmp_path, capsys, loc,
                                                                message):
        cfg = tmp_path / "two_conv.cfg"
        cfg.write_text(TWO_CONV_CFG)
        out = tmp_path / "rf.pgm"
        argv = [loc] if loc.startswith("--") else ["--loc", loc]
        assert main(["erf", "--net", str(cfg), *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"lpsc: error: argument --loc: {message}"]
        assert not out.exists()

    def test_location_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "two_conv.cfg"
        cfg.write_text(TWO_CONV_CFG)
        assert main(["erf", "--net", str(cfg), "--loc", "40,0"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "lpsc: error: argument --loc: (40, 0) is outside the 12x12 output grid"]


class TestCount:
    def test_lpsc_row_param_formula(self, tmp_path, lpsc_cfg, capsys):
        assert main(["count", "--net", str(lpsc_cfg)]) == 0
        out = capsys.readouterr().out
        lpsc_row = next(line for line in out.splitlines() if "lpsc" in line)
        # (levels_r * levels_theta + 1) * C_in * C_out + bias
        assert str((2 * 6 + 1) * 1 * 4 + 4) in lpsc_row

    def test_unknown_layer_option_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(LPSC_CFG.replace("padding = 2", "pading = 2"))
        assert main(["count", "--net", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "layer.1 (lpsc)" in err and "pading" in err

    def test_non_bool_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(LPSC_CFG.replace("padding = 2", "padding = 2\nbias = nope"))
        assert main(["count", "--net", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "layer.1 (lpsc): option 'bias' must be true or false, got 'nope'" in err

    @pytest.mark.parametrize(
        "old, new, layer, message",
        [
            ("units = 2", "units = 2.9", "layer.5 (dense)", "option 'units' must be"),
            ("out_channels = 4", "out_channels = on", "layer.1 (lpsc)", "option 'out_channels' must be"),
            ("padding = 2", "padding = 2\nstride = 1.5", "layer.1 (lpsc)", "option 'stride' must be"),
            ("size = 5", "size = five", "layer.1 (lpsc)", "option 'size' must be"),
            ("growth = 2", "growth = fast", "layer.1 (lpsc)", "option 'growth' must be"),
            ("padding = 2", "padding = 2,x", "layer.1 (lpsc)", "option 'padding' must be"),
            ("out_channels = 4", "out_channels = -3", "layer.1 (lpsc)", "option 'out_channels' must be"),
            ("out_channels = 4", "out_channels = 0", "layer.1 (lpsc)", "option 'out_channels' must be"),
            ("units = 2", "units = 0", "layer.5 (dense)", "option 'units' must be"),
            ("padding = 2", "padding = 2,-1", "layer.1 (lpsc)",
             "padding must be non-negative, got (2, -1)"),
            ("growth = 2", "growth = inf", "layer.1 (lpsc)", "option 'growth' must be"),
            ("growth = 2", "growth = 2\nalpha = inf", "layer.1 (lpsc)", "option 'alpha' must be"),
            (LPSC_LAYER, "kind = conv\nout_channels = 4\nkernel_size = 0", "layer.1 (conv)",
             "option 'kernel_size' must be"),
            (LPSC_LAYER, "kind = conv\nout_channels = 4\nkernel_size = 3\nstride = 0", "layer.1 (conv)",
             "stride must be positive, got (0, 0)"),
            ("size = 2", "size = 0", "layer.3 (maxpool)", "option 'size' must be"),
            (LPSC_LAYER, "kind = dilated\nout_channels = 4\nkernel_size = 4", "layer.1 (dilated)",
             "kernel_size must be odd and >= 1, got 4"),
            # LpscConfig's range errors name the spec key, not the field
            ("size = 5", "size = 4", "layer.1 (lpsc)", "size must be odd and >= 3, got 4"),
            ("padding = 2", "padding = 2\npooling = median", "layer.1 (lpsc)",
             "pooling must be one of ('mean', 'sum', 'max'), got 'median'"),
            ("size = 5", "size = 100001", "layer.1 (lpsc)",
             "size must be at most 8192, a mask of 67108864 cells, got 100001"),
        ],
        ids=["units", "out_channels", "stride", "size", "growth", "pair", "out_channels-negative",
             "out_channels-zero", "units-zero", "padding-negative", "growth-inf", "alpha-inf",
             "conv-kernel_size-zero", "conv-stride-zero", "maxpool-size-zero",
             "dilated-kernel_size-even", "size-even", "pooling-unknown", "size-past-the-mask-bound"],
    )
    def test_option_of_wrong_type_rejected(self, tmp_path, capsys, old, new, layer, message):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(LPSC_CFG.replace(old, new))
        assert main(["count", "--net", str(cfg)]) == 1
        assert f"{layer}: {message}" in capsys.readouterr().err

    def test_shell_chain_past_every_float_counts(self, tmp_path, capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(LPSC_CFG.replace("levels_r = 2", "levels_r = 1100"))
        with pytest.warns(DegenerateGeometryWarning):
            assert main(["count", "--net", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    DEGENERATE = {  # a command on a k5 geometry with 3 shells, and the warning it gives
        "count": "layer.1 (lpsc): size 5 is degenerate with levels_r=3, growth=2.0: "
                 "the R_1 floor of 2 leaves empty outer shells",
        "mask": "argument --size: 5 is degenerate with levels_r=3, growth=2.0: "
                "the R_1 floor of 2 leaves empty outer shells",
    }

    @staticmethod
    def degenerate_argv(tmp_path, command):
        if command == "mask":
            return ["mask", "--size", "5", "--lr", "3", "--lt", "8", "--g", "2"]
        cfg = tmp_path / "edges_lpsc.cfg"
        cfg.write_text(NETS[-1].read_text().replace("levels_r = 2", "levels_r = 3"))
        return ["count", "--net", str(cfg)]

    @pytest.mark.parametrize("command", ["count", "mask"])
    def test_warning_is_one_stderr_line(self, tmp_path, capsys, command):
        argv = self.degenerate_argv(tmp_path, command)
        format_warning = warnings.formatwarning
        with pytest.warns(DegenerateGeometryWarning):  # in process, a library caller's warning
            assert main(argv) == 0
        assert warnings.formatwarning is format_warning
        stdout = capsys.readouterr().out
        run = lpsc_process(argv)
        assert (run.returncode, run.stdout) == (0, stdout)
        assert run.stderr == f"lpsc: warning: {self.DEGENERATE[command]}\n"

    @pytest.mark.parametrize("command", ["count", "mask"])
    def test_warning_names_the_spec_key_or_flag(self, tmp_path, capsys, command):
        # worded as the command's errors are: the layer and its spec key, or the flag
        with pytest.warns(DegenerateGeometryWarning) as caught:
            assert main(self.degenerate_argv(tmp_path, command)) == 0
        assert [str(w.message) for w in caught] == [self.DEGENERATE[command]]

    def test_failing_layer_prints_its_error_alone(self, tmp_path):
        # the degenerate layer's warning goes with the layer's error: one stderr line
        argv = self.degenerate_argv(tmp_path, "count")
        Path(argv[-1]).write_text(Path(argv[-1]).read_text().replace("levels_r = 3",
                                                                     "levels_r = 3\nbogus = 1"))
        run = lpsc_process(argv)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "lpsc: error: layer.1 (lpsc): unknown options ['bogus']\n"

    @pytest.mark.parametrize("net", NETS, ids=lambda p: p.name)
    def test_shipped_specs_parse_and_count(self, net, capsys):
        spec, train_cfg = parse_net_file(net)
        assert spec.input_shape == (16, 16, 1) and train_cfg is not None
        assert main(["count", "--net", str(net)]) == 0

    def test_shipped_specs_present(self):
        assert [p.name for p in NETS] == ["edges_conv3x3.cfg", "edges_linear.cfg", "edges_lpsc.cfg"]

    @pytest.mark.parametrize("dims", ["16x16x0", "0x16x1", "16x16"])
    def test_input_dims_below_one_rejected(self, lpsc_cfg, capsys, dims):
        assert main(["count", "--net", str(lpsc_cfg), "--input", dims]) == 1
        captured = capsys.readouterr()
        assert f"--input must be three dims >= 1, got '{dims}'" in captured.err
        assert captured.out == ""

    # built and refused before any forward pass or data; never run
    @pytest.mark.parametrize(
        "command, new, argv, message",
        [(command, *row) for row in (
            (CONV_PADDED, [], "layer.1 (conv): output 400014x400014x1 holds 160011200196"),
            (LPSC_LAYER.replace("padding = 2", "padding = 20000"), [],
             "layer.1 (lpsc): output 40012x40012x4 holds 6403840576"),
        ) for command in ("count", "train")]
        + [("count", LPSC_LAYER, ["--input", "100000x100000x8"],
            "--input 100000x100000x8 holds 80000000000")],
        ids=["count-conv-padding", "train-conv-padding", "count-lpsc-padding",
             "train-lpsc-padding", "count-input-flag"],
    )
    def test_array_past_the_sample_bound_exits_1(self, tmp_path, capsys, command, new, argv,
                                                 message):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(LPSC_CFG.replace(LPSC_LAYER, new))
        out = tmp_path / "out"
        written = ["--csv", str(out)] if command == "count" else ["--out", str(out)]
        assert main([command, "--net", str(cfg), *written, *argv]) == 1
        captured = capsys.readouterr()
        assert f"{message} numbers per sample, more than 67108864" in captured.err
        assert captured.out == "" and not out.exists()

    # 512x512 positions x 16 input channels x 16 pooled slots is exactly 2**26
    @pytest.mark.parametrize("center, code", [("true", 1), ("false", 0)])
    def test_lpsc_window_cells_count_the_center_slot_only_when_set(self, tmp_path, capsys,
                                                                    center, code):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(LPSC_CFG.replace("levels_theta = 6", f"levels_theta = 8\ncenter_conv = {center}"))
        assert main(["count", "--net", str(cfg), "--input", "512x512x16"]) == code
        captured = capsys.readouterr()
        if code:
            assert "layer.1 (lpsc): pooled tensor 512x512x17x16 holds 71303168" in captured.err
        else:
            lpsc_row = next(line for line in captured.out.splitlines() if "lpsc" in line)
            assert lpsc_row.split()[-1] == "67108864"

    def test_parameter_array_past_the_bound_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "dense.cfg"
        cfg.write_text("[net]\ninput = 256x256x4\nclasses = 300\n\n"
                       "[layer.1]\nkind = conv\nout_channels = 4\nkernel_size = 3\npadding = 1\n\n"
                       "[layer.2]\nkind = flatten\n\n[layer.3]\nkind = dense\nunits = 300\n")
        assert main(["count", "--net", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("lpsc: error: layer.3 (dense): weight array 262144x300 holds "
                                "78643200 numbers, more than 67108864\n")

    def test_expanded_kernel_past_the_bound_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "square.cfg"
        cfg.write_text("[net]\ninput = 64x64x64\nclasses = 2\n\n"
                       "[layer.1]\nkind = square_share\nout_channels = 512\nkernel_size = 64\n"
                       "pool_size = 64\n\n[layer.2]\nkind = flatten\n\n"
                       "[layer.3]\nkind = dense\nunits = 2\n")
        assert main(["count", "--net", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("lpsc: error: layer.1 (square_share): expanded kernel 64x64x64x512 "
                                "holds 134217728 numbers, more than 67108864\n")

    def test_csv_output(self, tmp_path, lpsc_cfg):
        csv = tmp_path / "costs.csv"
        assert main(["count", "--net", str(lpsc_cfg), "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("layer,kind,output,params")


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["mask", "--size", "5", "--lr", "2", "--lt", "8", "--g", "2", "--out"], None),
        (["count", "--net", "{net}", "--csv"], LPSC_CFG),
        (["erf", "--net", "{net}", "--out"], TWO_CONV_CFG),
    ],
    ids=["mask", "count", "erf"],
)
def test_unwritable_output_exits_1_before_any_report(tmp_path, capsys, argv, spec):
    net = tmp_path / "net.cfg"
    if spec:
        net.write_text(spec)
    unwritable = tmp_path / "missing" / "out"
    assert main([a.format(net=net) for a in argv] + [str(unwritable)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lpsc: error: [Errno 2]")


class TestGenData:
    def test_writes_idx_pair(self, tmp_path):
        out = tmp_path / "data"
        assert main(
            ["gen-data", "--n-per-class", "4", "--size", "16",
             "--seed", "3", "--out", str(out)]
        ) == 0
        ds = load_idx(out / "images.idx", out / "labels.idx")
        assert len(ds) == 8
        assert ds.images.shape == (8, 16, 16, 1)

    def test_unknown_task(self, tmp_path, capsys):
        assert main(["gen-data", "--task", "spirals", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_data_past_any_address_space_is_one_stderr_line(self, tmp_path, lpsc_cfg, capsys,
                                                             command):
        # 2e12 16x16 images are 3.64 PiB, past any 64-bit user address space: refused at once
        argv = ["--net", str(lpsc_cfg)] if command == "train" else []
        out = tmp_path / "out"
        assert main([command, *argv, "--n-per-class", "1000000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lpsc: error: Unable to allocate"), err
        assert not out.exists()


def viz_weights(path, regions_shape):
    """Write an LPSCW file of random weights whose region block is *regions_shape*."""
    rng = np.random.default_rng(0)
    save_lpsc_weights(path, LpscWeights(center=rng.normal(size=regions_shape[2:]),
                                        regions=rng.normal(size=regions_shape)))
    return path


class TestViz:
    def test_writes_rasters(self, tmp_path, lpsc_cfg, capsys):
        wpath = viz_weights(tmp_path / "w.lpscw", (2, 6, 1, 4))
        out = tmp_path / "viz"
        assert main(
            ["viz", "--net", str(lpsc_cfg), "--layer", "1", "--weights", str(wpath), "--out", str(out)]
        ) == 0
        assert len(list(out.glob("kernel_ci*_co*.pgm"))) == 4

    def test_pair_out_of_range_writes_nothing(self, tmp_path, lpsc_cfg, capsys):
        wpath = viz_weights(tmp_path / "w.lpscw", (2, 6, 1, 4))
        out = tmp_path / "vz"
        assert main(
            ["viz", "--net", str(lpsc_cfg), "--layer", "1", "--weights", str(wpath),
             "--pair", "3,4", "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err.splitlines() == [
            "lpsc: error: argument --pair: layer.1 (lpsc) has no channel pair (3, 4)"]
        assert not out.exists()

    def test_mismatched_mask_rejected(self, tmp_path, lpsc_cfg, capsys):
        wpath = viz_weights(tmp_path / "w.lpscw", (3, 8, 1, 4))
        out = tmp_path / "v"
        assert main(
            ["viz", "--net", str(lpsc_cfg), "--layer", "1", "--weights", str(wpath), "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"lpsc: error: {wpath}: regions (3, 8, 1, 4) do not match layer.1 (lpsc)'s (2, 6, 1, 4)"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["--layer", "6"], "argument --layer: {cfg} has no lpsc layer.6"),
         (["--layer", "0"], "argument --layer: {cfg} has no lpsc layer.0"),
         (["--layer", "2"], "argument --layer: {cfg} has no lpsc layer.2"),
         (["--layer", "1", "--weights", "{w2}"],
          "{w2}: regions (2, 6, 1, 2) do not match layer.1 (lpsc)'s (2, 6, 1, 4)"),
         (["--layer", "1", "--size", "5"], "unrecognized arguments: --size 5"),
         (["--layer", "1", "--pair", "0;1"], "argument --pair: invalid I,J value: '0;1'"),
         (["--layer", "1", "--pair", "0,1,2"], "argument --pair: invalid I,J value: '0,1,2'"),
         (["--layer", "1", "--pair", "-1,0"],
          "argument --pair: layer.1 (lpsc) has no channel pair (-1, 0)")],
        ids=["no-such-layer", "layer-zero", "relu-layer", "channels", "mask-flag", "pair-malformed",
             "pair-of-three", "pair-negative"],
    )
    def test_refusal_is_one_stderr_line_and_writes_nothing(self, tmp_path, lpsc_cfg, capsys, argv,
                                                           message):
        paths = {"cfg": lpsc_cfg, "w2": viz_weights(tmp_path / "w2.lpscw", (2, 6, 1, 2))}
        wpath = viz_weights(tmp_path / "w.lpscw", (2, 6, 1, 4))
        out = tmp_path / "v"
        argv = ["viz", "--net", str(lpsc_cfg), "--weights", str(wpath), "--out", str(out)] + argv
        assert main([a.format(**paths) for a in argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"lpsc: error: {message.format(**paths)}"]
        assert not out.exists()

    @pytest.mark.parametrize("center_conv", [True, False])
    def test_center_free_layer_paints_no_center(self, tmp_path, capsys, center_conv):
        cfg = tmp_path / "net.cfg"
        cfg.write_text(LPSC_CFG.replace("padding = 2", f"padding = 2\ncenter_conv = {center_conv}"))
        run, out = tmp_path / "run", tmp_path / "viz"
        assert main(["train", "--net", str(cfg), "--out", str(run), "--n-per-class", "4",
                     "--epochs", "1"]) == 0
        assert main(["viz", "--net", str(cfg), "--layer", "1", "--weights",
                     str(run / "checkpoint" / "layer.1.lpscw"), "--pair", "0,0", "--out", str(out)]) == 0
        pixels = np.frombuffer((out / "kernel_ci0_co0.pgm").read_bytes()[-25:], np.uint8).reshape(5, 5)
        # every cell of the filled k5 kernel carries a weight (gray >= 32) but a center-free
        # layer's center, which paints the sentinel (0)
        assert pixels[2, 2] >= 32 if center_conv else pixels[2, 2] == 0
        assert (np.delete(pixels.ravel(), 12) >= 32).all()


def test_readme_module_table_names_every_module():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    modules = sorted(p.stem for p in (root / "src" / "logpolar").glob("*.py"))
    missing = [m for m in modules if m not in ("__init__", "__main__")
               and f"| `logpolar.{m}` |" not in readme]
    assert not missing


def test_readme_cli_examples_parse():
    # every documented `lpsc ...` line names only flags its command takes (nothing runs)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("lpsc ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line
