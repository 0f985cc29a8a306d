"""Command-line entry point.

Subcommands: mask, check, train, eval, erf, viz, count, gen-data. Every
command is deterministic given its flags and --seed. Exit codes: 0 on
success, 1 on validation errors (bad flags, bad configs, bad files), 2 on
numerical failures (a failed check, a non-finite loss in training or
evaluation). A failing command writes nothing.

All file outputs land under explicit --out paths; nothing writes to the
working directory implicitly.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import checks
from .analysis import count_costs, estimate_rf, kernel_to_pgm, rf_to_pgm, visualize_kernel
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
    """argparse that treats usage problems as validation errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_VALIDATION


def _at_least(least):
    """An argparse type: an integer >= *least*; argparse names the flag."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse words a non-integer as "invalid int value"
    return parse


def _finite(least=-math.inf, below=math.inf):
    """An argparse type: a finite number in [least, below); argparse names the flag."""

    def parse(text):
        value = float(text)
        if not (math.isfinite(value) and least <= value < below):
            bounds = f" in [{least:g}, {below:g})" if math.isfinite(below) else ""
            raise argparse.ArgumentTypeError(f"must be finite{bounds}, got {text}")
        return value

    parse.__name__ = "float"  # argparse words a non-number as "invalid float value"
    return parse


def _fmt(value: float) -> str:
    return f"{value:g}"


def _mask_config(args) -> LpscConfig:
    return LpscConfig(
        kernel_size=args.size,
        levels_r=args.lr,
        levels_theta=args.lt,
        growth=args.g,
        alpha=args.alpha,
        eccentricity=args.ecc,
    )


def cmd_mask(args) -> int:
    config = _mask_config(args)
    mask = build_mask(config)
    print(" ".join(f"R{i + 1}={_fmt(r)}" for i, r in enumerate(mask.radii)))
    print(mask_to_text(mask))
    print("counts:")
    for level in range(mask.levels_r):
        row = " ".join(str(int(c)) for c in mask.counts[level])
        print(f"level {level + 1}: {row}")
    if args.out:
        Path(args.out).write_bytes(mask_to_pgm(mask))
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
    results = []
    results += checks.equivalence_sweep(
        seed=args.seed, full=args.full, inputs_per_config=10 if args.full else 2
    )
    results += checks.sum_mean_identity_sweep(seed=args.seed, full=args.full)
    results += checks.gradient_checks(seed=args.seed)
    failed = [r for r in results if not r.passed]
    worst = {}
    for r in results:
        group = r.name.split()[0]
        if group not in worst or r.value > worst[group].value:
            worst[group] = r
    for r in worst.values():
        print(r.line())
    print(f"{len(results)} checks, {len(failed)} failed")
    if failed:
        for r in failed:
            print(r.line())
        return EXIT_NUMERICAL
    return EXIT_OK


def _load_dataset(args, spec, seed):
    """The --data samples: images of the spec's input shape, labels below its classes."""
    if args.data == "edges":
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
    cfg, network, dataset = _setup(args, epochs=args.epochs, seed=args.seed)
    val = None
    if args.val_fraction > 0:
        n_val = max(1, int(len(dataset) * args.val_fraction))
        if n_val >= len(dataset):
            raise ValueError(f"--val-fraction {args.val_fraction:g} leaves no sample to train on")
        val = Dataset(
            images=dataset.images[-n_val:], labels=dataset.labels[-n_val:],
            num_classes=dataset.num_classes,
        )
        dataset = Dataset(
            images=dataset.images[:-n_val], labels=dataset.labels[:-n_val],
            num_classes=dataset.num_classes,
        )
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
    if args.loc == "center":
        location = None
    else:
        try:
            i, j = (int(p) for p in args.loc.split(","))
        except ValueError:
            raise ValueError(f"--loc must be 'center' or 'I,J', got {args.loc!r}") from None
        location = (i, j)
    report = estimate_rf(network, spec.input_shape, output_location=location, seed=args.seed)
    print(f"location {report.location[0]},{report.location[1]}")
    print(f"support {report.bbox[0]}x{report.bbox[1]}")
    if args.out:
        Path(args.out).write_bytes(rf_to_pgm(report))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_viz(args) -> int:
    weights = load_lpsc_weights(args.weights)
    config = _mask_config(args)
    mask = build_mask(config)
    images = visualize_kernel(weights, mask, fill_corners=not args.no_fill)
    if args.pair:
        try:
            ci, co = (int(p) for p in args.pair.split(","))
        except ValueError:
            raise ValueError(f"--pair must be CI,CO, got {args.pair!r}") from None
        if not (0 <= ci < weights.in_channels and 0 <= co < weights.out_channels):
            raise ValueError(f"channel pair ({ci},{co}) out of range")
        pairs = [(ci, co)]
    else:
        pairs = [(ci, co) for ci in range(weights.in_channels) for co in range(weights.out_channels)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ci, co in pairs:
        path = out / f"kernel_ci{ci}_co{co}.pgm"
        path.write_bytes(kernel_to_pgm(images[ci, co]))
    print(f"wrote {len(pairs)} kernel raster(s) to {out}")
    return EXIT_OK


def cmd_count(args) -> int:
    spec, _ = parse_net_file(args.net)
    input_shape = parse_dims(args.input, "--input") if args.input else None
    report = count_costs(spec, input_shape=input_shape)
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="ascii")
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    dataset = make_oriented_edges(args.n_per_class, size=args.size, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_idx(dataset, out / "images.idx", out / "labels.idx")
    print(f"wrote {len(dataset)} samples to {out / 'images.idx'} and {out / 'labels.idx'}")
    return EXIT_OK


def _add_mask_flags(p, required=True):
    p.add_argument("--size", type=int, required=required, help="kernel size 2R+1 (odd)")
    p.add_argument("--lr", type=int, required=required, help="number of distance levels")
    p.add_argument("--lt", type=int, required=required, help="number of direction levels (even)")
    p.add_argument("--g", type=_finite(), required=required, help="radial growth rate (> 1)")
    p.add_argument("--alpha", type=_finite(), default=0.0, help="initial angle in radians")
    p.add_argument("--ecc", type=_finite(), default=0.0, help="ellipse eccentricity in [0, 1)")


def _add_data_flags(p):
    p.add_argument("--data", default="edges", choices=("edges", "idx"), help="data source")
    p.add_argument("--images", help="IDX image file (with --data idx)")
    p.add_argument("--labels", help="IDX label file (with --data idx)")
    p.add_argument("--n-per-class", type=_at_least(1), default=64, help="samples per class (edges)")


def build_parser() -> _Parser:
    parser = _Parser(prog="lpsc", description="log-polar space convolution toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("mask", help="print a kernel mask, its radii, and region counts")
    _add_mask_flags(p)
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
    p.add_argument("--epochs", type=_at_least(1), help="override [train] epochs")
    p.add_argument("--seed", type=_at_least(0), help="override [train] seed")
    p.add_argument("--val-fraction", type=_finite(0, 1), default=0.0, help="tail fraction held out")
    _add_data_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--net", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=_at_least(0))
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("erf", help="estimate a receptive field by backpropagation")
    p.add_argument("--net", required=True)
    p.add_argument("--loc", default="center", help="'center' or 'I,J' output location")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", help="optional PGM of the gradient map")
    p.set_defaults(func=cmd_erf)

    p = sub.add_parser("viz", help="render learned kernel weights as rasters")
    p.add_argument("--weights", required=True, help="LPSCW weight file")
    _add_mask_flags(p)
    p.add_argument("--no-fill", action="store_true", help="leave corner cells unfilled")
    p.add_argument("--pair", help="render a single CI,CO channel pair")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("count", help="parameter and operation counts for a spec")
    p.add_argument("--net", required=True)
    p.add_argument("--input", help="override input shape, e.g. 32x32x3")
    p.add_argument("--csv", help="also write a CSV report")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset as IDX files")
    p.add_argument("--task", default="edges", choices=("edges",))
    p.add_argument("--n-per-class", type=_at_least(1), default=64)
    p.add_argument("--size", type=_at_least(8), default=16, help="image side (>= 8)")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"lpsc: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"lpsc: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
