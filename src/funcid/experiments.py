"""Reproducible experiment presets wiring the full pipeline.

Each preset mirrors one of the study's protocols at desk scale: generate
datasets from a master seed, train a classifier, evaluate, and write CSV
reports plus checkpoints under one output directory.  A run manifest
records the resolved configuration and a SHA-256 digest of every artifact,
so reruns with the same seed are verifiable bit-for-bit.

Desk scale keeps every generated dataset at <= 20,000 images and every
training run at <= 300 epochs.  Paper scale restores the original heavy
settings (tens of thousands of images, thousands of epochs) and is only
practical on serious hardware.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .datasets import (
    Dataset,
    DatasetSpec,
    NoiseKind,
    NoiseSpec,
    Regime,
    add_uniform_noise,
    build_dataset,
    spec_to_dict,
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

PRESET_NAMES = (
    "BaseL1DimSweep",
    "NSweep",
    "TypeComparison",
    "MultiInstanceL2",
    "UnseenL3",
    "UnseenL3Noisy",
    "GaussianNoiseL1",
    "DiscreteL1",
)

MAX_DESK_DATASET_IMAGES = 20_000
MAX_DESK_EPOCHS = 300


class ExperimentError(ValueError):
    """Unknown preset or invalid override."""


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    scale: str = "desk"  # "desk" | "paper"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ExperimentError(f"unknown preset {self.name!r}; choose from {PRESET_NAMES}")
        if self.scale not in ("desk", "paper"):
            raise ExperimentError(f"scale must be 'desk' or 'paper', got {self.scale!r}")
        unknown = sorted(set(self.overrides) - OVERRIDE_KEYS)
        if unknown:
            raise ExperimentError(
                f"unknown override(s) {unknown}; choose from {sorted(OVERRIDE_KEYS)}"
            )


# Training defaults per scale.  The desk settings replace the original
# 3000-epoch schedule at learning rate 1e-6: an SGD step there moves each
# weight by 1e-6 times its gradient, too little for the at most 300 desk
# epochs to get near the desk accuracy targets.  Adam's step is about the
# learning rate per weight whatever the gradient's scale, so desk runs default
# to Adam at 1e-3.
_TRAIN_DEFAULTS = {
    "desk": {
        "model": "perceptron3",
        "optimizer": "adam",
        "lr": 1e-3,
        "momentum": 0.0,
        "batch_size": 64,
        "epochs": 150,
    },
    "paper": {
        "model": "lenet5",
        "optimizer": "sgd",
        "lr": 1e-6,
        "momentum": 0.0,
        "batch_size": 64,
        "epochs": 3000,
    },
}

_DATA_DEFAULTS = {
    "desk": {"per_class_train": 200, "per_class_val": 0, "per_class_test": 50},
    "paper": {"per_class_train": 1001, "per_class_val": 501, "per_class_test": 498},
}

# Every key some preset reads from its overrides.
OVERRIDE_KEYS = frozenset(_TRAIN_DEFAULTS["desk"]) | frozenset(_DATA_DEFAULTS["desk"]) | {
    "dim", "dims", "domain", "instances", "n", "n_values", "runs",
    "uniform_lo", "uniform_hi", "unseen_instances",
}


def _setting(preset: ExperimentPreset, key: str, default):
    return preset.overrides.get(key, default)


def _train_settings(preset: ExperimentPreset) -> dict:
    base = dict(_TRAIN_DEFAULTS[preset.scale])
    for key in base:
        base[key] = _setting(preset, key, base[key])
    return base


def _data_settings(preset: ExperimentPreset) -> dict:
    base = dict(_DATA_DEFAULTS[preset.scale])
    for key in base:
        base[key] = _setting(preset, key, base[key])
    return base


def _check_desk_bounds(preset: ExperimentPreset, spec: DatasetSpec, epochs: int) -> None:
    if preset.scale != "desk":
        return
    total = (spec.per_class_train + spec.per_class_val + spec.per_class_test) * spec.class_count
    if total > MAX_DESK_DATASET_IMAGES:
        raise ExperimentError(
            f"desk-scale dataset of {total} images exceeds the {MAX_DESK_DATASET_IMAGES} cap"
        )
    if epochs > MAX_DESK_EPOCHS:
        raise ExperimentError(f"desk-scale training of {epochs} epochs exceeds {MAX_DESK_EPOCHS}")


@dataclass
class StageResult:
    """One train/eval cycle within a preset."""

    tag: str
    test_accuracy: float
    best_epoch: int
    dataset_digests: dict[str, str]


def _class_names(suite: Suite) -> list[str]:
    return [p.display_name for p in list_functions(suite)]


def _train_stage(
    spec: DatasetSpec,
    train_cfg: dict,
    out_dir: Path,
    tag: str,
    model_seed: int,
    jobs: int,
    save_checkpoint: bool = True,
):
    """Build datasets and train; returns (best_model, splits, report)."""
    splits = build_dataset(spec, jobs=jobs)
    model = init_model(
        train_cfg["model"],
        class_count=spec.class_count,
        frame_size=spec.encoder.frame_size,
        seed=model_seed,
    )
    cfg = TrainConfig(
        learning_rate=train_cfg["lr"],
        epochs=train_cfg["epochs"],
        batch_size=train_cfg["batch_size"],
        seed=rng.derive_seed(spec.master_seed, rng.BATCH_ORDER, 0),
        momentum=train_cfg["momentum"],
        optimizer=train_cfg["optimizer"],
    )
    val = splits["val"] if len(splits["val"]) else None
    best, report = train(model, splits["train"], val, cfg)
    report.to_csv(out_dir / f"train_report_{tag}.csv")
    if save_checkpoint:
        save_model(best, out_dir / f"model_{tag}.lmdl")
    return best, splits, report


def _eval_stage(model, dataset: Dataset, out_dir: Path, tag: str) -> float:
    """Predict on one dataset; writes the per-class breakdown CSV."""
    predictions = predict(model, dataset)
    cm = confusion(dataset.labels, predictions, dataset.manifest.class_count)
    emit_breakdown(
        _class_names(dataset.manifest.spec.suite), cm, out_dir / f"breakdown_{tag}.csv"
    )
    return accuracy(dataset.labels, predictions)


def _run_cycle(
    spec: DatasetSpec,
    train_cfg: dict,
    out_dir: Path,
    tag: str,
    model_seed: int,
    jobs: int,
    save_checkpoint: bool = True,
) -> StageResult:
    """Build datasets, train, evaluate on the test split, write artifacts."""
    best, splits, report = _train_stage(
        spec, train_cfg, out_dir, tag, model_seed, jobs, save_checkpoint
    )
    test_acc = _eval_stage(best, splits["test"], out_dir, tag)
    return StageResult(
        tag=tag,
        test_accuracy=test_acc,
        best_epoch=report.best_epoch,
        dataset_digests={name: ds.manifest.digest for name, ds in splits.items()},
    )


def _bbob_spec(
    preset: ExperimentPreset,
    dim: int,
    master_seed: int,
    image_type: ImageType = ImageType.TYPE1,
    sample_size: int = 24,
    regime: Regime = Regime.L1,
    instances: int = 1,
    unseen: int = 0,
    noise: NoiseSpec = NoiseSpec(),
    domain: DomainMap = DomainMap.UNIT_CUBE,
) -> DatasetSpec:
    data = _data_settings(preset)
    return DatasetSpec(
        suite=Suite.CONTINUOUS_BBOB,
        dim=dim,
        encoder=EncoderConfig(
            dim=dim,
            sample_size=sample_size,
            image_type=image_type,
            frame_size=32,
            domain_map=DomainMap(_setting(preset, "domain", domain.value)),
        ),
        regime=regime,
        per_class_train=data["per_class_train"],
        per_class_val=data["per_class_val"],
        per_class_test=data["per_class_test"],
        instances_per_function=instances,
        unseen_instances_per_function=unseen,
        master_seed=master_seed,
        noise=noise,
    )


def _preset_base_l1_dim_sweep(preset, out_dir, master_seed, jobs) -> dict:
    dims = _setting(preset, "dims", list(range(2, 31, 2)))
    tr = _train_settings(preset)
    if preset.scale == "desk":
        # Many small runs: shrink the per-dimension datasets and epochs.
        tr["epochs"] = _setting(preset, "epochs", 60)
        data_over = {"per_class_train": 30, "per_class_val": 0, "per_class_test": 10}
        preset = ExperimentPreset(
            preset.name, preset.scale, {**data_over, **preset.overrides}
        )
    rows = []
    for d in dims:
        spec = _bbob_spec(preset, dim=d, master_seed=rng.derive_seed(master_seed, 101, d))
        _check_desk_bounds(preset, spec, tr["epochs"])
        result = _run_cycle(
            spec, tr, out_dir, tag=f"d{d:02d}", model_seed=rng.derive_seed(master_seed, 102, d),
            jobs=jobs, save_checkpoint=False,
        )
        rows.append((float(d), result.test_accuracy))
    emit_sweep_curve(rows, out_dir / "sweep_curve.csv")
    return {"curve": rows}


def _preset_n_sweep(preset, out_dir, master_seed, jobs) -> dict:
    n_values = _setting(preset, "n_values", [1, 8, 16, 24, 32])
    dim = _setting(preset, "dim", 22)
    tr = _train_settings(preset)
    if preset.scale == "desk":
        data_over = {"per_class_train": 120, "per_class_val": 0, "per_class_test": 30}
        preset = ExperimentPreset(
            preset.name, preset.scale, {**data_over, **preset.overrides}
        )
    rows = []
    for n in n_values:
        spec = _bbob_spec(
            preset, dim=dim, master_seed=rng.derive_seed(master_seed, 111, n), sample_size=n
        )
        _check_desk_bounds(preset, spec, tr["epochs"])
        result = _run_cycle(
            spec, tr, out_dir, tag=f"n{n:02d}", model_seed=rng.derive_seed(master_seed, 112, n),
            jobs=jobs, save_checkpoint=False,
        )
        rows.append((float(n), result.test_accuracy))
    emit_sweep_curve(rows, out_dir / "sweep_curve.csv")
    return {"curve": rows}


def _preset_type_comparison(preset, out_dir, master_seed, jobs) -> dict:
    runs = _setting(preset, "runs", 5)
    dim = _setting(preset, "dim", 22)
    tr = _train_settings(preset)
    if preset.scale == "desk":
        tr["epochs"] = _setting(preset, "epochs", 100)
        data_over = {"per_class_train": 50, "per_class_val": 0, "per_class_test": 15}
        preset = ExperimentPreset(
            preset.name, preset.scale, {**data_over, **preset.overrides}
        )
    groups = []
    per_type: dict[int, list[float]] = {}
    for t in (1, 2, 3, 4, 5):
        accs = []
        for run in range(runs):
            spec = _bbob_spec(
                preset,
                dim=dim,
                master_seed=rng.derive_seed(master_seed, 121, t, run),
                image_type=ImageType(t),
            )
            _check_desk_bounds(preset, spec, tr["epochs"])
            result = _run_cycle(
                spec, tr, out_dir, tag=f"type{t}_run{run}",
                model_seed=rng.derive_seed(master_seed, 122, t, run),
                jobs=jobs, save_checkpoint=False,
            )
            accs.append(result.test_accuracy)
        per_type[t] = accs
        groups.append((f"type{t}", aggregate_runs(accs)))
    emit_boxplot(groups, out_dir / "boxplot.csv")
    return {"per_type": per_type}


def _preset_multi_instance_l2(preset, out_dir, master_seed, jobs) -> dict:
    dim = _setting(preset, "dim", 22)
    instances = _setting(preset, "instances", 5)
    tr = _train_settings(preset)
    if preset.scale == "desk":
        data_over = {"per_class_train": 500, "per_class_val": 0, "per_class_test": 100}
        preset = ExperimentPreset(
            preset.name, preset.scale, {**data_over, **preset.overrides}
        )
    spec = _bbob_spec(
        preset, dim=dim, master_seed=rng.derive_seed(master_seed, 131),
        regime=Regime.L2, instances=instances,
    )
    _check_desk_bounds(preset, spec, tr["epochs"])
    result = _run_cycle(
        spec, tr, out_dir, tag="l2", model_seed=rng.derive_seed(master_seed, 132), jobs=jobs
    )
    return {"test_accuracy": result.test_accuracy}


def _preset_unseen_l3(preset, out_dir, master_seed, jobs, noisy: bool) -> dict:
    dim = _setting(preset, "dim", 22)
    instances = _setting(preset, "instances", 5)
    unseen = _setting(preset, "unseen_instances", 5)
    tr = _train_settings(preset)
    if preset.scale == "desk":
        data_over = {"per_class_train": 400, "per_class_val": 0, "per_class_test": 100}
        preset = ExperimentPreset(
            preset.name, preset.scale, {**data_over, **preset.overrides}
        )
    # The +/-2.5 noise protocol presumes the [-5, 5] data range; unseen-
    # instance runs therefore sample the mapped box rather than the unit cube.
    spec = _bbob_spec(
        preset, dim=dim, master_seed=rng.derive_seed(master_seed, 141),
        regime=Regime.L3, instances=instances, unseen=unseen,
        domain=DomainMap.AFFINE_TO_BBOB_BOX,
    )
    _check_desk_bounds(preset, spec, tr["epochs"])
    best, splits, _report = _train_stage(
        spec, tr, out_dir, tag="l3", model_seed=rng.derive_seed(master_seed, 142), jobs=jobs
    )
    out = {"clean_accuracy": _eval_stage(best, splits["test"], out_dir, "l3_clean")}
    if noisy:
        lo = _setting(preset, "uniform_lo", -2.5)
        hi = _setting(preset, "uniform_hi", 2.5)
        noisy_test = add_uniform_noise(
            splits["test"], lo, hi, rng.derive_seed(spec.master_seed, rng.NOISE, 2)
        )
        out["noisy_accuracy"] = _eval_stage(best, noisy_test, out_dir, "l3_noisy")
    return out


def _preset_gaussian_noise_l1(preset, out_dir, master_seed, jobs) -> dict:
    dim = _setting(preset, "dim", 22)
    tr = _train_settings(preset)
    clean_spec = _bbob_spec(preset, dim=dim, master_seed=rng.derive_seed(master_seed, 151))
    _check_desk_bounds(preset, clean_spec, tr["epochs"])
    clean = _run_cycle(
        clean_spec, tr, out_dir, tag="clean",
        model_seed=rng.derive_seed(master_seed, 152), jobs=jobs,
    )
    noisy_spec = _bbob_spec(
        preset, dim=dim, master_seed=rng.derive_seed(master_seed, 151),
        noise=NoiseSpec(kind=NoiseKind.GAUSSIAN_HALF_MAX),
    )
    noisy = _run_cycle(
        noisy_spec, tr, out_dir, tag="noisy",
        model_seed=rng.derive_seed(master_seed, 152), jobs=jobs,
    )
    return {"clean_accuracy": clean.test_accuracy, "noisy_accuracy": noisy.test_accuracy}


def _preset_discrete_l1(preset, out_dir, master_seed, jobs) -> dict:
    dim = _setting(preset, "dim", 16)
    tr = _train_settings(preset)
    data = _data_settings(preset)
    spec = DatasetSpec(
        suite=Suite.DISCRETE_PB,
        dim=dim,
        encoder=EncoderConfig(dim=dim, sample_size=_setting(preset, "n", 24), frame_size=32),
        regime=Regime.L1,
        per_class_train=data["per_class_train"],
        per_class_val=data["per_class_val"],
        per_class_test=data["per_class_test"],
        master_seed=rng.derive_seed(master_seed, 161),
    )
    _check_desk_bounds(preset, spec, tr["epochs"])
    result = _run_cycle(
        spec, tr, out_dir, tag="discrete", model_seed=rng.derive_seed(master_seed, 162), jobs=jobs
    )
    return {"test_accuracy": result.test_accuracy}


def run_preset(
    preset: ExperimentPreset,
    output_root: str | Path | None = None,
    master_seed: int = 0,
    jobs: int = 1,
) -> Path:
    """Execute a preset; returns the timestamped run directory.

    The directory holds the stage CSVs/checkpoints, a ``results.json`` with
    headline numbers, and a ``run_manifest.json`` with the resolved config
    plus a digest of every artifact (the manifest itself excluded).
    """
    root = Path(output_root) if output_root else default_output_root()
    run_dir = root / f"{preset.name}-{time.strftime('%Y%m%d-%H%M%S')}"
    run_dir.mkdir(parents=True, exist_ok=False)

    runners = {
        "BaseL1DimSweep": _preset_base_l1_dim_sweep,
        "NSweep": _preset_n_sweep,
        "TypeComparison": _preset_type_comparison,
        "MultiInstanceL2": _preset_multi_instance_l2,
        "UnseenL3": lambda p, o, s, j: _preset_unseen_l3(p, o, s, j, noisy=False),
        "UnseenL3Noisy": lambda p, o, s, j: _preset_unseen_l3(p, o, s, j, noisy=True),
        "GaussianNoiseL1": _preset_gaussian_noise_l1,
        "DiscreteL1": _preset_discrete_l1,
    }
    results = runners[preset.name](preset, run_dir, master_seed, jobs)

    (run_dir / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True), encoding="utf-8"
    )
    manifest = {
        "preset": preset.name,
        "scale": preset.scale,
        "overrides": preset.overrides,
        "master_seed": master_seed,
        "train_defaults": _TRAIN_DEFAULTS[preset.scale],
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
