"""Reproducible experiment presets wiring the full pipeline.

Each preset mirrors one of the study's protocols at desk scale: generate
datasets from a master seed, train a classifier, evaluate, and write CSV
reports plus checkpoints under one output directory.  A run manifest
records the resolved configuration and a SHA-256 digest of every artifact,
so reruns with the same seed are verifiable bit-for-bit.

``PRESETS`` is the one place a preset and its override keys are declared:
each row holds the preset's runner, its own defaults and its desk-scale
data/epoch overrides.  A run resolves its settings once, in this order: the
scale's training and data defaults with the preset's own, then the desk
overrides at desk scale, then the user's overrides.  The keys of the resolved
settings are the override keys the preset accepts, and each override must
have the type of the value it replaces.

Desk scale keeps every generated dataset at <= 20,000 images and every
training run at <= 300 epochs.  Paper scale restores the original heavy
settings (tens of thousands of images, thousands of epochs) and is only
practical on serious hardware.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import nn, rng
from .datasets import (
    Dataset,
    DatasetSpec,
    NoiseKind,
    NoiseSpec,
    Regime,
    add_uniform_noise,
    build_dataset,
    check_uniform_range,
)
from .encoder import DomainMap, EncoderConfig, ImageType
from .metrics import (
    accuracy,
    aggregate_runs,
    confusion,
    emit_boxplot,
    emit_breakdown,
    emit_sweep_curve,
)
from .nn import TrainConfig, init_model, predict, save_model, train
from .suite import Suite, list_functions

MAX_DESK_DATASET_IMAGES = 20_000
MAX_DESK_EPOCHS = 300


class ExperimentError(ValueError):
    """Unknown preset or invalid override."""


# Training and data defaults per scale.  The desk settings replace the original
# 3000-epoch schedule at learning rate 1e-6: an SGD step there moves each
# weight by 1e-6 times its gradient, too little for the at most 300 desk
# epochs to get near the desk accuracy targets.  Adam's step is about the
# learning rate per weight whatever the gradient's scale, so desk runs default
# to Adam at 1e-3.
_SCALE_DEFAULTS = {
    "desk": {
        "model": "perceptron3",
        "optimizer": "adam",
        "lr": 1e-3,
        "momentum": 0.0,
        "batch_size": 64,
        "epochs": 150,
        "per_class_train": 200,
        "per_class_val": 0,
        "per_class_test": 50,
    },
    "paper": {
        "model": "lenet5",
        "optimizer": "sgd",
        "lr": 1e-6,
        "momentum": 0.0,
        "batch_size": 64,
        "epochs": 3000,
        "per_class_train": 1001,
        "per_class_val": 501,
        "per_class_test": 498,
    },
}
SCALES = tuple(_SCALE_DEFAULTS)


def _fits(value, default) -> bool:
    """Whether an override has its default's type; an int passes for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def _type_name(default) -> str:
    if isinstance(default, list):
        return f"list of {_type_name(default[0])}"
    return "number" if isinstance(default, float) else type(default).__name__


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    scale: str = "desk"  # one of SCALES
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in PRESETS:
            raise ExperimentError(f"unknown preset {self.name!r}; choose from {PRESET_NAMES}")
        if self.scale not in SCALES:
            scales = " or ".join(map(repr, SCALES))
            raise ExperimentError(f"scale must be {scales}, got {self.scale!r}")
        self.settings()

    def settings(self) -> dict:
        """The resolved settings.

        An unknown or mistyped override, a model that is not an ``nn.PRESETS``
        name, a domain that is not a ``DomainMap`` value, a sweep list that is
        empty or repeats a value, fewer than one run, a training setting that
        TrainConfig rejects, a uniform noise range that the noise would
        reject, a spec that ``dataset_spec`` rejects for any sweep point and
        variant, or a desk-scale setting beyond the desk caps raises
        ExperimentError, so a run fails before it makes its directory.
        """
        row = PRESETS[self.name]
        base = {**_SCALE_DEFAULTS[self.scale], **row.defaults}
        if self.scale == "desk":
            base.update(row.desk)
        unknown = sorted(set(self.overrides) - set(base))
        if unknown:
            raise ExperimentError(
                f"unknown override(s) {unknown}; {self.name} reads {sorted(base)}"
            )
        for key, value in self.overrides.items():
            if not _fits(value, base[key]):
                raise ExperimentError(
                    f"override {key}={value!r} must be of type {_type_name(base[key])}"
                )
        s = {**base, **self.overrides}
        if s["model"] not in nn.PRESETS:
            raise ExperimentError(f"override model={s['model']!r} is not one of {nn.PRESETS}")
        if "domain" in s and s["domain"] not in _DOMAINS:
            raise ExperimentError(f"override domain={s['domain']!r} is not one of {_DOMAINS}")
        if s.get("runs", 1) < 1:
            raise ExperimentError(f"override runs={s['runs']} must be at least 1")
        try:
            points = [s]
            for swept in _SWEPT.keys() & s.keys():
                if not s[swept] or len(set(s[swept])) < len(s[swept]):
                    raise ValueError(
                        f"override {swept}={s[swept]} must list one or more distinct values"
                    )
                points = [{**s, _SWEPT[swept]: v} for v in s[swept]]
            for point, variant in itertools.product(points, row.variants):
                dataset_spec(point, row.suite, 0, **variant)
            train_config(s, seed=0)
            if "uniform_lo" in s:
                check_uniform_range(s["uniform_lo"], s["uniform_hi"])
        except ValueError as exc:
            raise ExperimentError(str(exc)) from None
        if self.scale == "desk":
            per_class = s["per_class_train"] + s["per_class_val"] + s["per_class_test"]
            total = per_class * len(list_functions(row.suite))
            if total > MAX_DESK_DATASET_IMAGES:
                raise ExperimentError(
                    f"desk-scale dataset of {total} images exceeds the "
                    f"{MAX_DESK_DATASET_IMAGES} cap"
                )
            if s["epochs"] > MAX_DESK_EPOCHS:
                raise ExperimentError(
                    f"desk-scale training of {s['epochs']} epochs exceeds {MAX_DESK_EPOCHS}"
                )
        return s


@dataclass(frozen=True)
class _Run:
    """What every stage of one preset run shares."""

    out_dir: Path
    master_seed: int
    suite: Suite  # the preset row's suite
    variants: tuple[dict, ...]  # the preset row's variants


def train_config(s: dict, seed: int) -> TrainConfig:
    """The TrainConfig of the settings ``s`` (lr, epochs, batch_size, momentum, optimizer)."""
    return TrainConfig(learning_rate=s["lr"], epochs=s["epochs"], batch_size=s["batch_size"],
                       seed=seed, momentum=s["momentum"], optimizer=s["optimizer"])


def _train_stage(
    spec: DatasetSpec, s: dict, run: _Run, tag: str, model_seed: int, save_checkpoint: bool = True
):
    """Build datasets and train; returns (best_model, splits)."""
    splits = build_dataset(spec)
    model = init_model(
        s["model"],
        class_count=spec.class_count,
        frame_size=spec.encoder.frame_size,
        seed=model_seed,
    )
    cfg = train_config(s, seed=rng.derive_seed(spec.master_seed, rng.BATCH_ORDER, 0))
    val = splits["val"] if len(splits["val"]) else None
    best, report = train(model, splits["train"], val, cfg)
    report.to_csv(run.out_dir / f"train_report_{tag}.csv")
    if save_checkpoint:
        save_model(best, run.out_dir / f"model_{tag}.lmdl")
    return best, splits


def score(model, dataset: Dataset, breakdown: str | Path | None) -> float:
    """Accuracy on one dataset; writes the per-class breakdown CSV to ``breakdown`` if given."""
    predictions = predict(model, dataset)
    cm = confusion(dataset.labels, predictions, dataset.manifest.class_count)
    if breakdown:
        names = [p.display_name for p in list_functions(dataset.manifest.spec.suite)]
        emit_breakdown(names, cm, breakdown)
    return accuracy(dataset.labels, predictions)


def _run_cycle(
    spec: DatasetSpec, s: dict, run: _Run, tag: str, model_seed: int, save_checkpoint: bool = True
) -> float:
    """Build datasets, train, write artifacts; returns the test-split accuracy."""
    best, splits = _train_stage(spec, s, run, tag, model_seed, save_checkpoint)
    return score(best, splits["test"], run.out_dir / f"breakdown_{tag}.csv")


def dataset_spec(
    s: dict,
    suite: Suite,
    master_seed: int,
    image_type: ImageType = ImageType.TYPE1,
    regime: Regime = Regime.L1,
    noise: NoiseSpec = NoiseSpec(),
) -> DatasetSpec:
    """The dataset spec that the settings ``s`` describe.

    ``s`` gives the dimension ``dim``, the sample size ``n`` (24 if unset),
    the frame size ``frame`` (32 if unset), ``instances`` and
    ``unseen_instances`` per function (1 and 0 if unset), the ``domain`` (the
    unit cube if unset; bitstring sampling ignores it) and the
    ``per_class_train``/``per_class_val``/``per_class_test`` split sizes.
    """
    dim = s["dim"]
    return DatasetSpec(
        suite=suite,
        dim=dim,
        encoder=EncoderConfig(dim=dim, sample_size=s.get("n", 24), image_type=image_type,
                              frame_size=s.get("frame", 32),
                              domain_map=DomainMap(s.get("domain", _UNIT_CUBE))),
        regime=regime,
        per_class_train=s["per_class_train"],
        per_class_val=s["per_class_val"],
        per_class_test=s["per_class_test"],
        instances_per_function=s.get("instances", 1),
        unseen_instances_per_function=s.get("unseen_instances", 0),
        master_seed=master_seed,
        noise=noise,
    )


# The setting that each value of a swept list fills in at its sweep point.
_SWEPT = {"dims": "dim", "n_values": "n"}


def _sweep(s: dict, run: _Run, swept: str, letter: str, seed_tag: int) -> dict:
    """One L1 training cycle per value of the setting ``s[swept]``; writes the
    test accuracy curve.  Each value's dataset and model seeds derive from
    ``seed_tag`` and ``seed_tag + 1``."""
    (variant,) = run.variants
    rows = []
    for v in s[swept]:
        point = {**s, _SWEPT[swept]: v}
        spec = dataset_spec(point, run.suite, rng.derive_seed(run.master_seed, seed_tag, v),
                            **variant)
        acc = _run_cycle(
            spec, s, run, f"{letter}{v:02d}", rng.derive_seed(run.master_seed, seed_tag + 1, v),
            save_checkpoint=False,
        )
        rows.append((float(v), acc))
    emit_sweep_curve(rows, run.out_dir / "sweep_curve.csv")
    return {"curve": rows}


def _type_comparison(s: dict, run: _Run) -> dict:
    """``runs`` training cycles per image type variant; writes the accuracy boxplot."""
    groups = []
    per_type: dict[int, list[float]] = {}
    for variant in run.variants:
        t = int(variant["image_type"])
        accs = []
        for r in range(s["runs"]):
            spec = dataset_spec(s, run.suite, rng.derive_seed(run.master_seed, 121, t, r),
                                **variant)
            accs.append(_run_cycle(
                spec, s, run, f"type{t}_run{r}", rng.derive_seed(run.master_seed, 122, t, r),
                save_checkpoint=False,
            ))
        per_type[t] = accs
        groups.append((f"type{t}", aggregate_runs(accs)))
    emit_boxplot(groups, run.out_dir / "boxplot.csv")
    return {"per_type": per_type}


def _cycles(s: dict, run: _Run, seed_tag: int, keys: dict[str, str]) -> dict:
    """One training cycle per variant, from the dataset and model seeds of
    ``seed_tag`` and ``seed_tag + 1``.  ``keys`` maps each variant's artifact
    tag to the result key of its test accuracy, in variant order."""
    seed, model_seed = (rng.derive_seed(run.master_seed, t) for t in (seed_tag, seed_tag + 1))
    return {
        key: _run_cycle(dataset_spec(s, run.suite, seed, **variant), s, run, tag, model_seed)
        for (tag, key), variant in zip(keys.items(), run.variants, strict=True)
    }


def _unseen_l3(s: dict, run: _Run) -> dict:
    (variant,) = run.variants
    spec = dataset_spec(s, run.suite, rng.derive_seed(run.master_seed, 141), **variant)
    best, splits = _train_stage(spec, s, run, "l3", rng.derive_seed(run.master_seed, 142))
    out = {"clean_accuracy": score(best, splits["test"], run.out_dir / "breakdown_l3_clean.csv")}
    if "uniform_lo" in s:  # UnseenL3Noisy: also score the test split under uniform noise
        noisy_test = add_uniform_noise(
            splits["test"], s["uniform_lo"], s["uniform_hi"],
            rng.derive_seed(spec.master_seed, rng.NOISE, 2),
        )
        out["noisy_accuracy"] = score(best, noisy_test, run.out_dir / "breakdown_l3_noisy.csv")
    return out


class _Preset(NamedTuple):
    runner: Callable[[dict, _Run], dict]
    defaults: dict  # the preset's own settings, at both scales
    desk: dict  # data/epoch settings that replace the scale defaults at desk scale
    suite: Suite = Suite.CONTINUOUS_BBOB  # whose functions are the classes
    # The ``dataset_spec`` keywords (image_type, regime, noise) of each spec
    # the runner trains on, in the runner's order; ``settings()`` builds each.
    variants: tuple[dict, ...] = ({},)


_UNIT_CUBE = DomainMap.UNIT_CUBE.value
_DOMAINS = tuple(m.value for m in DomainMap)
# The +/-2.5 noise protocol presumes the [-5, 5] data range; unseen-instance
# runs therefore sample the mapped box rather than the unit cube.
_L3 = {"dim": 22, "instances": 5, "unseen_instances": 5,
       "domain": DomainMap.AFFINE_TO_BBOB_BOX.value}
_L3_DESK = {"per_class_train": 400, "per_class_test": 100}
_L3_VARIANTS = ({"regime": Regime.L3},)

# The one place a preset is declared.  A runner calls the pipeline functions
# through this module's globals, so a wrapper set on the module sees the call.
PRESETS = {
    "BaseL1DimSweep": _Preset(
        functools.partial(_sweep, swept="dims", letter="d", seed_tag=101),
        {"dims": list(range(2, 31, 2)), "domain": _UNIT_CUBE},
        # Many small runs: shrink the per-dimension datasets and epochs.
        {"epochs": 60, "per_class_train": 30, "per_class_test": 10},
    ),
    "NSweep": _Preset(
        functools.partial(_sweep, swept="n_values", letter="n", seed_tag=111),
        {"n_values": [1, 8, 16, 24, 32], "dim": 22, "domain": _UNIT_CUBE},
        {"per_class_train": 120, "per_class_test": 30},
    ),
    "TypeComparison": _Preset(
        _type_comparison, {"runs": 5, "dim": 22, "domain": _UNIT_CUBE},
        {"epochs": 100, "per_class_train": 50, "per_class_test": 15},
        variants=tuple({"image_type": t} for t in ImageType),
    ),
    "MultiInstanceL2": _Preset(
        functools.partial(_cycles, seed_tag=131, keys={"l2": "test_accuracy"}),
        {"dim": 22, "instances": 5, "domain": _UNIT_CUBE},
        {"per_class_train": 500, "per_class_test": 100},
        variants=({"regime": Regime.L2},),
    ),
    "UnseenL3": _Preset(_unseen_l3, _L3, _L3_DESK, variants=_L3_VARIANTS),
    "UnseenL3Noisy": _Preset(
        _unseen_l3, {**_L3, "uniform_lo": -2.5, "uniform_hi": 2.5}, _L3_DESK,
        variants=_L3_VARIANTS,
    ),
    "GaussianNoiseL1": _Preset(
        functools.partial(
            _cycles, seed_tag=151, keys={"clean": "clean_accuracy", "noisy": "noisy_accuracy"}
        ),
        {"dim": 22, "domain": _UNIT_CUBE}, {},
        variants=({}, {"noise": NoiseSpec(kind=NoiseKind.GAUSSIAN_HALF_MAX)}),
    ),
    "DiscreteL1": _Preset(
        functools.partial(_cycles, seed_tag=161, keys={"discrete": "test_accuracy"}),
        {"dim": 16, "n": 24}, {}, Suite.DISCRETE_PB,
    ),
}
PRESET_NAMES = tuple(PRESETS)


def _new_run_dir(root: Path, name: str) -> Path:
    """Create ``<name>-<timestamp>`` under root; ``-2``, ``-3``, ... on a collision.

    Each candidate is claimed by an exclusive ``mkdir``, so two runs never
    share a directory.
    """
    root.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-{time.strftime('%Y%m%d-%H%M%S')}"
    for i in itertools.count(1):
        run_dir = root / (stem if i == 1 else f"{stem}-{i}")
        try:
            run_dir.mkdir()
            return run_dir
        except FileExistsError:
            continue


def run_preset(
    preset: ExperimentPreset,
    output_root: str | Path | None = None,
    master_seed: int = 0,
) -> Path:
    """Execute a preset; returns the timestamped run directory.

    The directory holds the stage CSVs/checkpoints, a ``results.json`` with
    headline numbers, and a ``run_manifest.json`` with the resolved settings
    plus a digest of every artifact (the manifest itself excluded).  A run
    that fails before it writes its first artifact leaves no directory.
    """
    settings = preset.settings()
    row = PRESETS[preset.name]
    run_dir = _new_run_dir(Path(output_root) if output_root else default_output_root(), preset.name)
    try:
        results = row.runner(settings, _Run(run_dir, master_seed, row.suite, row.variants))
    except BaseException:
        if not any(run_dir.iterdir()):
            run_dir.rmdir()
        raise

    (run_dir / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True), encoding="utf-8"
    )
    manifest = {
        "preset": preset.name,
        "scale": preset.scale,
        "overrides": preset.overrides,
        "master_seed": master_seed,
        "settings": settings,
        "artifacts": artifact_digests(run_dir),
    }
    (run_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return run_dir


def artifact_digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact in the run directory (manifest excluded)."""
    digests = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            digests[str(path.relative_to(run_dir))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def default_output_root() -> Path:
    import os

    return Path(os.environ.get("FUNCID_OUT", "funcid_runs"))
