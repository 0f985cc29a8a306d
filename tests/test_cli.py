"""CLI subcommands: output formats, exit codes, file artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logpolar
from logpolar.cli import main
from logpolar.data import load_idx
from logpolar.network import parse_net_file

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


@pytest.fixture
def lpsc_cfg(tmp_path):
    path = tmp_path / "lpsc_small.cfg"
    path.write_text(LPSC_CFG)
    return path


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
        from logpolar.lpsc import LpscWeights, save_lpsc_weights

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_2_without_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(LPSC_CFG.replace("learning_rate = 0.05", "learning_rate = 1e300"))
        out = tmp_path / "run"
        code = main(["train", "--net", str(cfg), "--out", str(out), "--data", "edges",
                     "--n-per-class", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert "epoch" in err and "batch" in err
        assert not (out / "checkpoint" / "manifest.txt").exists()

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

    def test_location_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "two_conv.cfg"
        cfg.write_text(TWO_CONV_CFG)
        assert main(["erf", "--net", str(cfg), "--loc", "40,0"]) == 1


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

    @pytest.mark.parametrize("net", NETS, ids=lambda p: p.name)
    def test_shipped_specs_parse_and_count(self, net, capsys):
        spec, train_cfg = parse_net_file(net)
        assert spec.input_shape == (16, 16, 1) and train_cfg is not None
        assert main(["count", "--net", str(net)]) == 0

    def test_shipped_specs_present(self):
        assert [p.name for p in NETS] == ["edges_conv3x3.cfg", "edges_linear.cfg", "edges_lpsc.cfg"]

    def test_csv_output(self, tmp_path, lpsc_cfg):
        csv = tmp_path / "costs.csv"
        assert main(["count", "--net", str(lpsc_cfg), "--csv", str(csv)]) == 0
        assert csv.read_text().startswith("layer,kind,output,params")


class TestGenData:
    def test_writes_idx_pair(self, tmp_path):
        out = tmp_path / "data"
        assert main(
            ["gen-data", "--task", "edges", "--n-per-class", "4", "--size", "16",
             "--seed", "3", "--out", str(out)]
        ) == 0
        ds = load_idx(out / "images.idx", out / "labels.idx")
        assert len(ds) == 8
        assert ds.images.shape == (8, 16, 16, 1)

    def test_unknown_task(self, tmp_path, capsys):
        assert main(["gen-data", "--task", "spirals", "--out", str(tmp_path / "d")]) == 1


class TestViz:
    def test_writes_rasters(self, tmp_path, capsys):
        from logpolar.lpsc import LpscWeights, save_lpsc_weights

        rng = np.random.default_rng(0)
        wpath = tmp_path / "w.lpscw"
        save_lpsc_weights(
            wpath,
            LpscWeights(center=rng.normal(size=(2, 3)), regions=rng.normal(size=(2, 6, 2, 3))),
        )
        out = tmp_path / "viz"
        assert main(
            ["viz", "--weights", str(wpath), "--size", "5", "--lr", "2", "--lt", "6",
             "--g", "2", "--out", str(out)]
        ) == 0
        assert len(list(out.glob("kernel_ci*_co*.pgm"))) == 6

    def test_mismatched_mask_rejected(self, tmp_path, capsys):
        from logpolar.lpsc import LpscWeights, save_lpsc_weights

        wpath = tmp_path / "w.lpscw"
        save_lpsc_weights(
            wpath, LpscWeights(center=np.zeros((1, 1)), regions=np.zeros((2, 6, 1, 1)))
        )
        assert main(
            ["viz", "--weights", str(wpath), "--size", "7", "--lr", "3", "--lt", "8",
             "--g", "2", "--out", str(tmp_path / "v")]
        ) == 1
