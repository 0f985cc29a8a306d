"""CLI subcommands: output formats, exit codes, file artifacts."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logpolar
from logpolar.cli import build_parser, cmd_train, main
from logpolar.data import load_idx
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

# mask flags for `mask` (and, without the command, `viz`), ending where --g goes
MASK = ["mask", "--out", "{out}", "--size", "5", "--lr", "2", "--lt", "6"]

LPSC_LAYER = LPSC_CFG[LPSC_CFG.index("kind = lpsc") : LPSC_CFG.index("\n\n[layer.2]")]
CONV_PADDED = "kind = conv\nout_channels = 1\nkernel_size = 3\npadding = 200000"


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eval_of_non_finite_loss_exits_2(self, tmp_path, lpsc_cfg, capsys):
        # 1e308 is finite, so the TNSR reader takes it; the logits overflow
        out = tmp_path / "run"
        main(["train", "--net", str(lpsc_cfg), "--out", str(out), "--data", "edges",
              "--n-per-class", "4", "--epochs", "1"])
        path = out / "checkpoint" / "layer.5.weights.tnsr"
        save_tensor(path, np.full_like(load_tensor(path), 1e308))
        capsys.readouterr()
        assert main(["eval", "--net", str(lpsc_cfg), "--checkpoint", str(out / "checkpoint"),
                     "--data", "edges", "--n-per-class", "4"]) == 2
        captured = capsys.readouterr()
        assert "lpsc: numerical error: loss is nan at batch 1" in captured.err
        assert "loss=" not in captured.out

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

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("batch_size = 16", "batch_size = 2.5", "[train]: option 'batch_size' must be an integer"),
            ("epochs = 3", "epochs = true", "[train]: option 'epochs' must be an integer"),
            ("epochs = 3", "epochs = 0", "[train]: epochs must be >= 1"),
            ("seed = 1", "seed = 1.0", "[train]: option 'seed' must be an integer"),
            ("learning_rate = 0.05", "learning_rate = fast", "[train]: option 'learning_rate' must be a number"),
            ("learning_rate = 0.05", "learning_rate = inf", "[train]: learning_rate must be finite"),
            ("weight_decay = 0.0005", "weight_decay = nan", "[train]: weight_decay must be finite"),
            ("momentum = 0.9", "momentum = nan", "[train]: momentum must lie in [0, 1)"),
            ("classes = 2", "classes = 2.5", "[net]: option 'classes' must be an integer"),
            ("classes = 2", "classes = 1", "[net]: classes must be >= 2"),
            ("input = 16x16x1", "input = 16x0x1", "[net] input must be three dims >= 1"),
            ("input = 16x16x1", "input = 16x16x262145",
             "[net] input 16x16x262145 holds 67109120 numbers per sample, more than 67108864"),
            ("seed = 1", "seed = 1\nseed = 2", "malformed spec"),
            ("[train]", "[layer.5]\nkind = relu\n\n[train]", "malformed spec"),
            ("classes = 2", "classes = 2\nno value here", "malformed spec"),
        ],
        ids=["batch_size-float", "epochs-bool", "epochs-zero", "seed-float", "lr-word", "lr-inf",
             "weight_decay-nan", "momentum-nan", "classes-float", "classes-one", "input-zero",
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
            (["viz", "--weights", "{cfg}"] + MASK[1:] + ["--g", "inf"], "--g: must be finite, got inf"),
            (["viz", "--weights", "{cfg}"] + MASK[1:] + ["--g", "2", "--alpha", "inf"],
             "--alpha: must be finite, got inf"),
            (["train", "--net", "{cfg}", "--out", "{out}", "--n-per-class", "0"],
             "--n-per-class: must be >= 1, got 0"),
            (["eval", "--net", "{cfg}", "--checkpoint", "{out}", "--n-per-class", "0"],
             "--n-per-class: must be >= 1, got 0"),
            (["gen-data", "--out", "{out}", "--n-per-class", "0"], "--n-per-class: must be >= 1, got 0"),
            (["gen-data", "--out", "{out}", "--size", "4"], "--size: must be >= 8, got 4"),
        ],
        ids=["train-epochs-zero", "train-epochs-negative", "train-seed", "eval-seed", "check-seed",
             "erf-seed", "gen-data-seed", "train-val-fraction-negative", "train-val-fraction-above-one",
             "mask-g-inf", "mask-alpha-inf", "mask-alpha-nan", "mask-ecc-nan", "viz-g-inf",
             "viz-alpha-inf", "train-n-per-class-zero", "eval-n-per-class-zero",
             "gen-data-n-per-class-zero", "gen-data-size-below-eight"],
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
        args.epochs = 0  # past the flag's own bound
        with pytest.raises(ValueError, match="epochs must be >= 1"):
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
            ("padding = 2", "padding = 2,-1", "layer.1 (lpsc)", "option 'padding' must be"),
            ("growth = 2", "growth = inf", "layer.1 (lpsc)", "option 'growth' must be"),
            ("growth = 2", "growth = 2\nalpha = inf", "layer.1 (lpsc)", "option 'alpha' must be"),
            (LPSC_LAYER, "kind = conv\nout_channels = 4\nkernel_size = 0", "layer.1 (conv)",
             "option 'kernel_size' must be"),
            (LPSC_LAYER, "kind = conv\nout_channels = 4\nkernel_size = 3\nstride = 0", "layer.1 (conv)",
             "option 'stride' must be"),
            ("size = 2", "size = 0", "layer.3 (maxpool)", "option 'size' must be"),
            (LPSC_LAYER, "kind = dilated\nout_channels = 4\nkernel_size = 4", "layer.1 (dilated)",
             "kernel_size must be odd and >= 1, got 4"),
        ],
        ids=["units", "out_channels", "stride", "size", "growth", "pair", "out_channels-negative",
             "out_channels-zero", "units-zero", "padding-negative", "growth-inf", "alpha-inf",
             "conv-kernel_size-zero", "conv-stride-zero", "maxpool-size-zero",
             "dilated-kernel_size-even"],
    )
    def test_option_of_wrong_type_rejected(self, tmp_path, capsys, old, new, layer, message):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(LPSC_CFG.replace(old, new))
        assert main(["count", "--net", str(cfg)]) == 1
        assert f"{layer}: {message}" in capsys.readouterr().err

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

    def test_pair_out_of_range_writes_nothing(self, tmp_path, capsys):
        from logpolar.lpsc import LpscWeights, save_lpsc_weights

        wpath = tmp_path / "w.lpscw"
        save_lpsc_weights(wpath, LpscWeights(center=np.ones((1, 1)), regions=np.ones((2, 6, 1, 1))))
        out = tmp_path / "vz"
        assert main(
            ["viz", "--weights", str(wpath), "--size", "5", "--lr", "2", "--lt", "6",
             "--g", "2", "--pair", "3,3", "--out", str(out)]
        ) == 1
        assert "channel pair (3,3) out of range" in capsys.readouterr().err
        assert not out.exists()

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
