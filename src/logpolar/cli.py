"""Command-line entry point.

Subcommands: mask, check, train, eval, erf, viz, count, gen-data. Every
command is deterministic given its flags and --seed, for a fixed BLAS
library and thread count. Exit codes: 0 on success, 1 on validation
errors (bad flags, bad configs, bad files), 2 on numerical failures (a
failed check, a non-finite loss in training or evaluation). An error, and
each warning (say, a degenerate geometry), is one stderr line. A failing
command writes nothing; a command writes its files before it prints its
report, so one that cannot write prints none.

All file outputs land under explicit --out paths; nothing writes to the
working directory implicitly. ``viz`` takes the lpsc layer it draws from a
spec (--net, --layer), whose config alone fixes the mask and the center.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import checks
from .analysis import count_costs, estimate_rf, kernel_to_pgm, rf_to_pgm, visualize_kernel
from .conv import renamed
from .data import Dataset, load_idx, make_oriented_edges, save_idx
from .geometry import LpscConfig, build_mask, mask_to_pgm, mask_to_text
from .lpsc import load_lpsc_weights
from .network import (
    TrainConfig,
    build_network,
    evaluate,
    load_checkpoint,
    parse_dims,
    parse_net_file,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are validation errors: main prints them as any other."""

    def _parse_optional(self, arg_string):
        # "-<digit>..." is a value, never a flag (no lpsc flag starts so): ``--loc -1,0``
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


def _at_least(least):
    """An argparse type: an integer >= *least*; argparse names the flag."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse words a non-integer as "invalid int value"
    return parse


def _int_pair(word=None):
    """An argparse type: 'I,J' as an int pair, or None for *word*; argparse names the flag."""

    def parse(text):
        if text == word:
            return None
        i, j = (int(p) for p in text.split(","))
        return i, j

    parse.__name__ = "I,J"  # argparse words a malformed pair as "invalid I,J value"
    return parse


def _fmt(value: float) -> str:
    return f"{value:g}"


_MASK_FLAGS = {"kernel_size": "size", "levels_r": "lr", "levels_theta": "lt", "growth": "g",
               "alpha": "alpha", "eccentricity": "ecc"}


def _mask_config(args) -> LpscConfig:
    """The config of the mask flags (``_MASK_FLAGS``: field -> flag); its errors and
    warnings name the flag."""
    names = {f: f"argument --{flag}:" for f, flag in _MASK_FLAGS.items()}
    with renamed(names):
        return LpscConfig(**{field: getattr(args, flag) for field, flag in _MASK_FLAGS.items()})


def cmd_mask(args) -> int:
    mask = build_mask(_mask_config(args))
    if args.out:
        Path(args.out).write_bytes(mask_to_pgm(mask))
    print(" ".join(f"R{i + 1}={_fmt(r)}" for i, r in enumerate(mask.radii)))
    print(mask_to_text(mask))
    print("counts:")
    for level, row in enumerate(mask.counts.tolist(), start=1):
        print(f"level {level}: {' '.join(map(str, row))}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.weights:
        weights = load_lpsc_weights(args.weights)
        print(
            f"{args.weights}: ok "
            f"({weights.regions.shape[0]}x{weights.regions.shape[1]} regions, "
            f"{weights.in_channels}->{weights.out_channels} channels, "
            f"bias={'yes' if weights.bias is not None else 'no'})"
        )
        return EXIT_OK
    sweeps = [
        checks.equivalence_sweep(seed=args.seed, full=args.full),
        checks.sum_mean_identity_sweep(seed=args.seed, full=args.full),
        checks.gradient_checks(seed=args.seed),
    ]
    results = [r for sweep in sweeps for r in sweep]
    failed = [r for r in results if not r.passed]
    for sweep in sweeps:  # its worst result: a failure first, then the largest error
        print(max(sweep, key=lambda r: (not r.passed, r.value)).line())
    print(f"{len(results)} checks, {len(failed)} failed")
    if failed:
        for r in failed:
            print(r.line())
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_dataset(args, spec, seed):
    """The --data samples: images of the spec's input shape, labels below its classes."""
    if args.data == "edges":
        with renamed({"size": "--data edges: the spec's input side"}):
            dataset = make_oriented_edges(args.n_per_class, size=spec.input_shape[0], seed=seed)
    else:
        if not args.images or not args.labels:
            raise ValueError("--data idx needs --images and --labels")
        dataset = load_idx(args.images, args.labels)
        if dataset.num_classes > spec.num_classes:
            raise ValueError(f"{args.labels}: label {dataset.num_classes - 1} is not below "
                             f"the spec's classes = {spec.num_classes}")
    if dataset.images.shape[1:] != spec.input_shape:
        got, want = ("x".join(map(str, s)) for s in (dataset.images.shape[1:], spec.input_shape))
        raise ValueError(f"--data {args.data} images are {got} but the spec's input is {want}")
    return dataset


def _setup(args, **flags):
    """(config, network, dataset) of a train or eval run: the spec's [train]
    with the flags that were given, the network, then the --data samples."""
    spec, cfg = parse_net_file(args.net)
    given = {key: value for key, value in flags.items() if value is not None}
    with renamed({key: f"argument --{key}:" for key in given}):
        cfg = dataclasses.replace(cfg or TrainConfig(), **given)  # runs TrainConfig's checks
    network = build_network(spec, seed=cfg.seed)
    return cfg, network, _load_dataset(args, spec, cfg.seed)


def _write_history(path, history):
    has_val = history and len(history[0]) == 4
    header = "epoch,loss,train_acc" + (",val_acc" if has_val else "")
    lines = [header]
    for row in history:
        lines.append(",".join(_fmt(v) if i else str(v) for i, v in enumerate(row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def cmd_train(args) -> int:
    if not 0 <= args.val_fraction < 1:
        raise ValueError(
            f"argument --val-fraction: must be finite in [0, 1), got {args.val_fraction}")
    cfg, network, dataset = _setup(args, epochs=args.epochs, seed=args.seed)
    val = None
    if args.val_fraction > 0:
        n_val = max(1, int(len(dataset) * args.val_fraction))
        if n_val >= len(dataset):
            raise ValueError(f"--val-fraction {args.val_fraction:g} leaves no sample to train on")
        val, dataset = [Dataset(dataset.images[part], dataset.labels[part], dataset.num_classes)
                        for part in (np.s_[-n_val:], np.s_[:-n_val])]  # the tail is held out
    history = train(network, dataset, cfg, val=val)
    loss, acc = evaluate(network, dataset)  # a non-finite loss stops the run before any write
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_history(out / "history.csv", history)
    save_checkpoint(network, out / "checkpoint")
    print(f"trained {cfg.epochs} epochs: loss={loss:.6f} train_acc={acc:.4f}")
    print(f"wrote {out / 'history.csv'} and {out / 'checkpoint'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _, network, dataset = _setup(args, seed=args.seed)
    load_checkpoint(network, args.checkpoint)
    loss, acc = evaluate(network, dataset)
    print(f"loss={loss:.6f} accuracy={acc:.4f}")
    return EXIT_OK


def cmd_erf(args) -> int:
    spec, _ = parse_net_file(args.net)
    network = build_network(spec, seed=args.seed, require_logits=False)
    with renamed({"output_location": "argument --loc:"}):
        report = estimate_rf(network, output_location=args.loc, seed=args.seed)
    if args.out:
        Path(args.out).write_bytes(rf_to_pgm(report))
    print(f"location {report.location[0]},{report.location[1]}")
    print(f"support {report.bbox[0]}x{report.bbox[1]}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_viz(args) -> int:
    layers = build_network(parse_net_file(args.net)[0], require_logits=False).layers
    if not (0 < args.layer <= len(layers) and layers[args.layer - 1].kind == "lpsc"):
        raise ValueError(f"argument --layer: {args.net} has no lpsc layer.{args.layer}")
    layer = layers[args.layer - 1]
    weights = load_lpsc_weights(args.weights)
    if weights.regions.shape != layer.weights.regions.shape:
        raise ValueError(f"{args.weights}: regions {weights.regions.shape} do not match "
                         f"{layer.describe()}'s {layer.weights.regions.shape}")
    images = visualize_kernel(weights, layer.config, fill_corners=not args.no_fill)
    pairs = [(ci, co) for ci in range(weights.in_channels) for co in range(weights.out_channels)]
    if args.pair:
        if args.pair not in pairs:
            raise ValueError(f"argument --pair: {layer.describe()} has no channel pair {args.pair}")
        pairs = [args.pair]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ci, co in pairs:
        (out / f"kernel_ci{ci}_co{co}.pgm").write_bytes(kernel_to_pgm(images[ci, co]))
    print(f"wrote {len(pairs)} kernel raster(s) to {out}")
    return EXIT_OK


def cmd_count(args) -> int:
    spec, _ = parse_net_file(args.net)
    input_shape = parse_dims(args.input, "--input") if args.input else None
    report = count_costs(spec, input_shape=input_shape)
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="ascii")
    print(report.to_text())
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    dataset = make_oriented_edges(args.n_per_class, size=args.size, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_idx(dataset, out / "images.idx", out / "labels.idx")
    print(f"wrote {len(dataset)} samples to {out / 'images.idx'} and {out / 'labels.idx'}")
    return EXIT_OK


def _add_data_flags(p):
    p.add_argument("--data", default="edges", choices=("edges", "idx"), help="data source")
    p.add_argument("--images", help="IDX image file (with --data idx)")
    p.add_argument("--labels", help="IDX label file (with --data idx)")
    p.add_argument("--n-per-class", type=_at_least(1), default=64, help="samples per class (edges)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lpsc", description="log-polar space convolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("mask", help="print a kernel mask, its radii, and region counts")
    p.add_argument("--size", type=int, required=True, help="kernel size 2R+1 (odd)")
    p.add_argument("--lr", type=int, required=True, help="number of distance levels")
    p.add_argument("--lt", type=int, required=True, help="number of direction levels (even)")
    p.add_argument("--g", type=float, required=True, help="radial growth rate (> 1)")
    p.add_argument("--alpha", type=float, default=0.0, help="initial angle in radians")
    p.add_argument("--ecc", type=float, default=0.0, help="ellipse eccentricity in [0, 1)")
    p.add_argument("--out", help="optional PGM output path")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("check", help="run operator equivalence and gradient checks")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--full", action="store_true", help="run the full configuration sweep")
    p.add_argument("--weights", help="validate a LPSCW weight file instead")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="train a network from a spec file")
    p.add_argument("--net", required=True, help="network spec file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, help="override [train] epochs")
    p.add_argument("--seed", type=int, help="override [train] seed")
    p.add_argument("--val-fraction", type=float, default=0.0, help="tail fraction held out")
    _add_data_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--net", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int)
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("erf", help="estimate a receptive field by backpropagation")
    p.add_argument("--net", required=True)
    p.add_argument("--loc", type=_int_pair("center"), help="'center' (default) or an I,J location")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", help="optional PGM of the gradient map")
    p.set_defaults(func=cmd_erf)

    p = sub.add_parser("viz", help="render learned kernel weights as rasters")
    p.add_argument("--net", required=True, help="network spec file")
    p.add_argument("--layer", type=int, required=True, help="N of the spec's lpsc [layer.N]")
    p.add_argument("--weights", required=True, help="that layer's LPSCW weight file")
    p.add_argument("--no-fill", action="store_true", help="leave corner cells unfilled")
    p.add_argument("--pair", type=_int_pair(), help="render a single CI,CO channel pair")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("count", help="parameter and operation counts for a spec")
    p.add_argument("--net", required=True)
    p.add_argument("--input", help="override input shape, e.g. 32x32x3")
    p.add_argument("--csv", help="also write a CSV report")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset as IDX files")
    p.add_argument("--n-per-class", type=_at_least(1), default=64)
    p.add_argument("--size", type=_at_least(8), default=16, help="image side (>= 8)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    format_warning = warnings.formatwarning  # a run's warning is one line naming the tool
    warnings.formatwarning = lambda message, *_: f"lpsc: warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a non-finite result exits 2 with one line, not warnings
            return args.func(args)
    except SystemExit as exc:  # -h prints its help and exits 0
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a flag asked for too much
        print(f"lpsc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"lpsc: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:  # a library caller's warnings keep their form
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
