"""Command-line front end: funcs dump, generate, train, eval, experiment.

Each flag's default is declared once, on the flag.  A JSON config file
(``--config``) replaces those defaults, so a value comes from, in order of
precedence: the flag on the command line, then the config file, then the
flag's default.  Config keys are the flags' destination names (``per_class``
for ``--per-class``).  A key that no flag of the subcommand reads is an error,
and so is a value that the flag would reject on the command line.
Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, nn, rng
from .datasets import NoiseKind, NoiseSpec, Regime, build_dataset, load, save
from .encoder import DomainMap, ImageType, pillow_image, write_png
from .experiments import (
    PRESET_NAMES,
    SCALES,
    ExperimentPreset,
    dataset_spec,
    run_preset,
    score,
    train_config,
)
from .nn import init_model, load_model, save_model, train
from .suite import Suite, evaluate, list_functions, make_instance, problem


class CliError(ValueError):
    pass


def _config_value(flag: argparse.Action, key: str, value):
    """A config value, checked and converted as the flag's own argument would be."""
    if flag.type is not None:
        try:
            value = flag.type(str(value))
        except ValueError:
            raise CliError(f"config {key}={value!r} is not a valid {flag.type.__name__}") from None
    elif isinstance(flag.default, bool):
        if not isinstance(value, bool):
            raise CliError(f"config {key}={value!r} must be true or false")
    elif isinstance(flag.default, list):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise CliError(f"config {key}={value!r} must be a list of strings")
    elif not isinstance(value, str):
        raise CliError(f"config {key}={value!r} must be a string")
    if flag.choices is not None and value not in flag.choices:
        raise CliError(f"config {key}={value!r} is not one of {list(flag.choices)}")
    return value


def _apply_config(parser: argparse.ArgumentParser, argv, args) -> argparse.Namespace:
    """Re-parse argv with the config file's values as the subcommand's defaults."""
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CliError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object of flag values")
    sub = args.sub
    flags = {a.dest: a for a in sub._actions if a.option_strings}
    del flags["help"], flags["config"]
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise CliError(f"unknown config key(s) {unknown}; {sub.prog} reads {sorted(flags)}")
    sub.set_defaults(**{key: _config_value(flags[key], key, v) for key, v in config.items()})
    return parser.parse_args(argv)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub.add_argument("--seed", type=int, default=0, help="master seed")


# -- funcs dump --------------------------------------------------------------


def _cmd_funcs_dump(args) -> int:
    prob = problem(Suite(args.suite), args.k)
    inst = make_instance(prob, args.dim, args.seed)
    if args.at is None:
        raise CliError("--at x1,x2,... is required")
    try:
        x = np.array([float(v) for v in str(args.at).split(",")])
    except ValueError as exc:
        raise CliError(f"--at {args.at!r} is not a comma-separated point: {exc}") from None
    if not np.isfinite(x).all():
        raise CliError(f"--at {args.at!r} has a non-finite coordinate")
    value = evaluate(inst, x)
    print(f"{prob.display_name} (k={prob.index}, d={args.dim}, seed={args.seed})")
    print(f"f({','.join(repr(float(v)) for v in x)}) = {value!r}")
    print(f"f_offset = {inst.f_offset!r}")
    return 0


def _cmd_funcs_list(args) -> int:
    for prob in list_functions(Suite(args.suite)):
        print(f"{prob.index:2d}  {prob.display_name}")
    return 0


# -- generate ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    spec = dataset_spec(
        {**vars(args), "per_class_train": args.per_class},
        Suite(args.suite),
        args.seed,
        ImageType(args.type),
        Regime(args.regime),
        NoiseSpec(NoiseKind(args.noise), args.uniform_lo, args.uniform_hi),
    )
    if args.export_png:
        pillow_image()  # fail before anything is built or written
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    splits = build_dataset(spec)
    for name, ds in splits.items():
        if len(ds) == 0 and name != "train":
            continue
        save(ds, out / f"{name}.limg")
        print(f"{name}: {len(ds)} images, digest {ds.manifest.digest[:16]}...")
    if args.export_png:
        preview = out / "preview"
        preview.mkdir(exist_ok=True)
        train_ds, image_type = splits["train"], int(spec.encoder.image_type)
        # One preview per class: its first image in the shuffled train order.
        classes, first = np.unique(train_ds.labels, return_index=True)
        for label, i in zip(classes + 1, first):
            write_png(preview / f"class_{label:02d}_type{image_type}.png", train_ds.pixels[i])
        print(f"previews: {preview}")
    return 0


# -- train -------------------------------------------------------------------


def _cmd_train(args) -> int:
    if not args.data:
        raise CliError("--data is required")
    cfg = train_config(vars(args), seed=rng.derive_seed(args.seed, rng.BATCH_ORDER))
    train_ds = load(args.data)
    val_ds = load(args.val) if args.val else None
    meta = train_ds.manifest
    frame = meta.spec.encoder.frame_size
    if val_ds is not None:
        val = val_ds.manifest.spec
        if val.suite is not meta.spec.suite:
            raise CliError(
                f"--val {args.val} holds {val.suite.value} images but"
                f" --data {args.data} holds {meta.spec.suite.value} images"
            )
        m = val.encoder.frame_size
        if m != frame:
            raise CliError(
                f"--val {args.val} holds {m}x{m} images but --data {args.data} holds"
                f" {frame}x{frame} images"
            )
    model = init_model(
        args.preset,
        class_count=meta.class_count,
        frame_size=frame,
        seed=args.seed,
        activation=args.activation,
        input_norm=args.input_norm,
    )
    best, report = train(model, train_ds, val_ds, cfg)
    save_model(best, args.out)
    if args.report:
        report.to_csv(args.report)
    last = report.val_acc[-1] if report.has_validation else report.train_acc[-1]
    print(
        f"trained {args.preset} for {args.epochs} epochs; best epoch {report.best_epoch}"
        f" (loss {report.best_selection_loss():.6g}), final acc {last:.4f}"
    )
    print(f"checkpoint: {args.out}")
    return 0


# -- eval --------------------------------------------------------------------


def _cmd_eval(args) -> int:
    if not args.model or not args.data:
        raise CliError("--model and --data are required")
    model = load_model(args.model)
    ds = load(args.data)
    if model.meta.class_count != ds.manifest.class_count:
        raise CliError(
            f"--model {args.model} has {model.meta.class_count} classes but"
            f" --data {args.data} has {ds.manifest.class_count}"
        )
    m, frame = model.meta.frame_size, ds.manifest.spec.encoder.frame_size
    if m != frame:
        raise CliError(
            f"--model {args.model} takes {m}x{m} images but --data {args.data} holds"
            f" {frame}x{frame} images"
        )
    acc = score(model, ds, args.out)
    if args.out:
        print(f"breakdown: {args.out}")
    print(f"accuracy: {acc:.4f} over {len(ds)} images")
    return 0


# -- experiment ---------------------------------------------------------------


def _parse_override(item: str):
    if "=" not in item:
        raise CliError(f"override {item!r} is not key=value")
    key, raw = item.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_experiment(args) -> int:
    overrides = dict(_parse_override(item) for item in args.set)
    preset = ExperimentPreset(args.preset, scale=args.scale, overrides=overrides)
    run_dir = run_preset(preset, output_root=args.out, master_seed=args.seed)
    results = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
    print(f"run dir: {run_dir}")
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


# Generation is serial; the flag stays so that scripts and config files that
# pass it still work.
_JOBS_HELP = "ignored: generation runs in one thread"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funcid",
        description="Landscape-image function identification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"funcid {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    funcs = subs.add_parser("funcs", help="inspect benchmark functions")
    funcs_subs = funcs.add_subparsers(dest="funcs_command", required=True)
    dump = funcs_subs.add_parser("dump", help="evaluate one instance at a point")
    dump.add_argument("--suite", choices=[s.value for s in Suite], default="bbob")
    dump.add_argument("--k", type=int, default=1, help="function index within the suite")
    dump.add_argument("--dim", type=int, default=2)
    dump.add_argument("--at", help="comma-separated point, e.g. 0.5,0.5")
    _add_common(dump)
    dump.set_defaults(fn=_cmd_funcs_dump, sub=dump)
    listing = funcs_subs.add_parser("list", help="list suite functions in order")
    listing.add_argument("--suite", choices=[s.value for s in Suite], default="bbob")
    listing.set_defaults(fn=_cmd_funcs_list)

    gen = subs.add_parser("generate", help="build a labeled landscape-image dataset")
    gen.add_argument("--suite", choices=[s.value for s in Suite], default="bbob")
    gen.add_argument("--dim", type=int, default=22)
    gen.add_argument("--n", type=int, default=24, help="sample vectors per image")
    gen.add_argument("--type", type=int, choices=[int(t) for t in ImageType], default=1,
                     help="image layout type")
    gen.add_argument("--frame", type=int, default=32, help="frame size M")
    gen.add_argument("--domain", choices=[d.value for d in DomainMap],
                     default=DomainMap.UNIT_CUBE.value)
    gen.add_argument("--regime", choices=[r.value for r in Regime], default=Regime.L1.value)
    gen.add_argument("--per-class", dest="per_class", type=int, default=200)
    gen.add_argument("--per-class-val", dest="per_class_val", type=int, default=0)
    gen.add_argument("--per-class-test", dest="per_class_test", type=int, default=50)
    gen.add_argument("--instances", type=int, default=1)
    gen.add_argument("--unseen-instances", dest="unseen_instances", type=int, default=0)
    gen.add_argument("--noise", choices=[n.value for n in NoiseKind], default=NoiseKind.NONE.value)
    gen.add_argument("--uniform-lo", dest="uniform_lo", type=float, default=-2.5)
    gen.add_argument("--uniform-hi", dest="uniform_hi", type=float, default=2.5)
    gen.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    gen.add_argument("--out", default="dataset", help="output directory")
    gen.add_argument("--export-png", dest="export_png", action="store_true")
    _add_common(gen)
    gen.set_defaults(fn=_cmd_generate, sub=gen)

    tr = subs.add_parser("train", help="train a classifier on a dataset")
    tr.add_argument("--data", help="training dataset (.limg)")
    tr.add_argument("--val", help="optional validation dataset (.limg)")
    tr.add_argument("--preset", choices=nn.PRESETS, default="perceptron3")
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    tr.add_argument("--momentum", type=float, default=0.0)
    tr.add_argument("--optimizer", choices=nn.training.OPTIMIZERS, default="adam")
    tr.add_argument("--activation", choices=list(nn.network.ACTIVATIONS), default="relu")
    tr.add_argument("--input-norm", dest="input_norm", choices=nn.network.INPUT_NORMS,
                    default="minmax")
    tr.add_argument("--out", default="model.lmdl", help="checkpoint path (.lmdl)")
    tr.add_argument("--report", help="training report CSV path")
    _add_common(tr)
    tr.set_defaults(fn=_cmd_train, sub=tr)

    ev = subs.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--model", help="checkpoint path (.lmdl)")
    ev.add_argument("--data", help="dataset path (.limg)")
    ev.add_argument("--out", help="breakdown CSV path")
    ev.add_argument("--config", help="JSON file of flag defaults (flags override)")
    ev.set_defaults(fn=_cmd_eval, sub=ev)

    ex = subs.add_parser("experiment", help="run a reproducible experiment preset")
    ex.add_argument("preset", choices=list(PRESET_NAMES))
    ex.add_argument("--scale", choices=SCALES, default="desk")
    ex.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    ex.add_argument("--out", help="output root (default $FUNCID_OUT or ./funcid_runs)")
    ex.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="preset override; an unknown key's error lists the preset's keys")
    _add_common(ex)
    ex.set_defaults(fn=_cmd_experiment, sub=ex)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every funcid configuration error is a ValueError, every runtime failure a RuntimeError.
    try:
        if getattr(args, "config", None):
            args = _apply_config(parser, argv, args)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
