"""Smoke runs of the 8 experiment presets through ``funcid.cli.main``.

Every preset runs at a tiny scale (one image per class and split, one epoch,
one sweep point, small dimension) and must exit 0 with its expected artifact
files and ``results.json`` keys.  A spy on the module attributes that
``funcid.experiments`` calls records what each preset hands to
``build_dataset``, ``init_model``, ``train`` and ``add_uniform_noise``: the
dataset specs, the model, the ``TrainConfig`` fields and the noise bounds.
These values involve no floating-point arithmetic, so they are pinned as one
SHA-256 per preset, at the tiny overrides and at each scale's defaults with no
overrides.  The default runs stub out the heavy calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import funcid.experiments as experiments
from funcid.cli import main
from funcid.codec import encode
from funcid.nn import TrainReport

COMMON_TINY = ("per_class_train=1", "per_class_test=1", "epochs=1")

TINY = {
    "BaseL1DimSweep": ("dims=[2]",),
    "NSweep": ("n_values=[4]", "dim=2"),
    "TypeComparison": ("runs=1", "dim=2"),
    "MultiInstanceL2": ("dim=2", "instances=2"),
    "UnseenL3": ("dim=2", "instances=1", "unseen_instances=1"),
    "UnseenL3Noisy": ("dim=2", "instances=1", "unseen_instances=1",
                      "uniform_lo=-1.5", "uniform_hi=1.5"),
    "GaussianNoiseL1": ("dim=2",),
    "DiscreteL1": ("dim=4", "n=4"),
}


def _cycle(tag: str, checkpoint: bool = True) -> set[str]:
    files = {f"train_report_{tag}.csv", f"breakdown_{tag}.csv"}
    return files | {f"model_{tag}.lmdl"} if checkpoint else files


EXPECTED_ARTIFACTS = {
    "BaseL1DimSweep": {"sweep_curve.csv"} | _cycle("d02", checkpoint=False),
    "NSweep": {"sweep_curve.csv"} | _cycle("n04", checkpoint=False),
    "TypeComparison": {"boxplot.csv"}.union(
        *(_cycle(f"type{t}_run0", checkpoint=False) for t in range(1, 6))
    ),
    "MultiInstanceL2": _cycle("l2"),
    "UnseenL3": {"train_report_l3.csv", "model_l3.lmdl", "breakdown_l3_clean.csv"},
    "UnseenL3Noisy": {"train_report_l3.csv", "model_l3.lmdl", "breakdown_l3_clean.csv",
                      "breakdown_l3_noisy.csv"},
    "GaussianNoiseL1": _cycle("clean") | _cycle("noisy"),
    "DiscreteL1": _cycle("discrete"),
}

EXPECTED_RESULT_KEYS = {
    "BaseL1DimSweep": ["curve"],
    "NSweep": ["curve"],
    "TypeComparison": ["per_type"],
    "MultiInstanceL2": ["test_accuracy"],
    "UnseenL3": ["clean_accuracy"],
    "UnseenL3Noisy": ["clean_accuracy", "noisy_accuracy"],
    "GaussianNoiseL1": ["clean_accuracy", "noisy_accuracy"],
    "DiscreteL1": ["test_accuracy"],
}

# SHA-256 of the recorded calls (see ``_Spy.digest``) at seed 3 with the TINY
# overrides, and at seed 0 with each scale's defaults and no overrides.
TINY_CALLS = {
    "BaseL1DimSweep": "1f5cb52c7b148f242b966b1d9c776b120f998de1db381a498953ebb1c1db7497",
    "NSweep": "72e8fd7af7914607e06673d396c56b57c15c36fef3e975db7ff6f005e7f700ba",
    "TypeComparison": "127f936507c23146345e375f418b25c38efda2b7e53f9fd76ec8e22397e8b49e",
    "MultiInstanceL2": "cd4df90996e1e761108655d941938b43aa9d761df2330ef8ae97f38922ad8fec",
    "UnseenL3": "444bbd75254c8e4c5b5a80dc705ee15169accbe5a91c5383df680da28697939a",
    "UnseenL3Noisy": "1a7b20c5af652a931952e8dc90cdff32ac6f6894345701d2e3893425256b8f8b",
    "GaussianNoiseL1": "f4344c5458dce3e6ab2e0b9d367f982215a85d3ef1f569af33fea2d4640614ab",
    "DiscreteL1": "dd19e34402bd1a74f37f53b5831e8d8077184c59e354eaf335745d050e4ba644",
}
DEFAULT_CALLS = {
    "desk": {
        "BaseL1DimSweep": "f1fb1cde8e0d7460a655583c9acb91767e10ede71603b9d2c008124d09fd6eab",
        "NSweep": "b36c17e23bd6969e912a334103a7994d4a9c7f093ef970f3cbc8b9fc47ab77c4",
        "TypeComparison": "ea889ed42be25ff1e04bf7052e8baafe3c7176cf93cffb79f628946ef6437e98",
        "MultiInstanceL2": "f4760fa5c1a38fa66763318fe7745f600254ba43951c0435451275d6b44a8572",
        "UnseenL3": "07700a2724f31d1a26bc53af31391923a83e603e72990de028aae4d22d214bc3",
        "UnseenL3Noisy": "8f8f36d4e71f4ba17a4ffa0c7be570296423f8c35d51b5f310531ce1b5c6b2fc",
        "GaussianNoiseL1": "42a58da08f51d9822eb6db5efa444910b5328829521f6d105a8a56458fead693",
        "DiscreteL1": "92a37a943582861980abaa437fd8ec55e75dcac36328458dc5b03d4397982091",
    },
    "paper": {
        "BaseL1DimSweep": "21b5ee711e6f1fe5e30eec1d96f6f8c393a53b4d63e4bbfd78281ac4a794f3e1",
        "NSweep": "22e4c42f5f68a58db6272383b46325feb76dc6bb0c1076ed46385f5e839907a3",
        "TypeComparison": "6f8602f8ce28dfbc26d86d3e58b0142de242f0961c12378c30a71ced52cd93dc",
        "MultiInstanceL2": "bb13b6a1432920489f64608329c31eec64702a26d6e7f3b40cd2721c81b49508",
        "UnseenL3": "65d7997a85acd34f2fed1c58a085f0977d1fcc8b79f771901e9d16e234e10eac",
        "UnseenL3Noisy": "875855f3184d7ae1c82bfb544ce65d9e594d438b0dfe12d9d6df8713b6576d12",
        "GaussianNoiseL1": "d2281210043ab7daa84485b62c9837ff1fabb31fe3381e4569ffe555feb3dd6b",
        "DiscreteL1": "f6d9f78941db5f5adbf60b286cb78859dd129ef727810a567d2cf8782058171b",
    },
}

# The desk defaults in readable form: build_dataset calls, the
# (train, val, test) images per class, epochs and model of every call.
DESK_SHAPE = {
    "BaseL1DimSweep": (15, (30, 0, 10), 60, "perceptron3"),
    "NSweep": (5, (120, 0, 30), 150, "perceptron3"),
    "TypeComparison": (25, (50, 0, 15), 100, "perceptron3"),
    "MultiInstanceL2": (1, (500, 0, 100), 150, "perceptron3"),
    "UnseenL3": (1, (400, 0, 100), 150, "perceptron3"),
    "UnseenL3Noisy": (1, (400, 0, 100), 150, "perceptron3"),
    "GaussianNoiseL1": (2, (200, 0, 50), 150, "perceptron3"),
    "DiscreteL1": (1, (200, 0, 50), 150, "perceptron3"),
}


class _Spy:
    """Records the calls ``funcid.experiments`` makes; optionally stubs them."""

    def __init__(self, monkeypatch, stub: bool):
        self.calls: list[list] = []
        real = {name: getattr(experiments, name) for name in
                ("build_dataset", "init_model", "train", "add_uniform_noise")}

        def build_dataset(spec):
            # The pins were taken while build_dataset still took a jobs
            # argument, always 1 here; it is recorded as it was.
            self.calls.append(["build_dataset", encode(spec), 1])
            if stub:
                return {"train": _FakeSplit(spec, 1), "val": _FakeSplit(spec, 0),
                        "test": _FakeSplit(spec, 1)}
            return real["build_dataset"](spec)

        def init_model(name, class_count, frame_size, seed, **kwargs):
            self.calls.append(["init_model", name, class_count, frame_size, seed, kwargs])
            return object() if stub else real["init_model"](
                name, class_count=class_count, frame_size=frame_size, seed=seed, **kwargs
            )

        def train(model, train_ds, val_ds, cfg):
            # The pins were taken while TrainConfig still had a checkpoint_policy
            # field, whose one accepted value was "min_loss"; minimal-loss
            # selection is now fixed, and the field is recorded as it was.
            fields = {**dataclasses.asdict(cfg), "checkpoint_policy": "min_loss"}
            self.calls.append(["train", fields, val_ds is not None])
            return (model, TrainReport(best_epoch=1)) if stub else real["train"](
                model, train_ds, val_ds, cfg
            )

        def add_uniform_noise(ds, lo, hi, seed):
            self.calls.append(["add_uniform_noise", lo, hi, seed])
            return ds if stub else real["add_uniform_noise"](ds, lo, hi, seed)

        monkeypatch.setattr(experiments, "build_dataset", build_dataset)
        monkeypatch.setattr(experiments, "init_model", init_model)
        monkeypatch.setattr(experiments, "train", train)
        monkeypatch.setattr(experiments, "add_uniform_noise", add_uniform_noise)
        if stub:
            monkeypatch.setattr(experiments, "save_model", lambda model, path: None)
            monkeypatch.setattr(
                experiments, "predict", lambda model, ds: np.asarray(ds.labels)
            )

    def digest(self) -> str:
        blob = json.dumps(self.calls, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


class _FakeSplit:
    """A stand-in dataset of ``n`` images of class 0."""

    def __init__(self, spec, n: int):
        self.labels = [0] * n
        self.manifest = SimpleNamespace(class_count=spec.class_count, spec=spec, digest="stub")

    def __len__(self) -> int:
        return len(self.labels)


def _run(preset: str, root: Path, capsys, *argv: str) -> Path:
    code = main(["experiment", preset, "--out", str(root), *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    (line,) = [ln for ln in captured.out.splitlines() if ln.startswith("run dir: ")]
    run_dir = Path(line[len("run dir: "):])
    assert run_dir.parent == root
    return run_dir


@pytest.mark.parametrize("preset", list(TINY))
def test_tiny_preset_run(preset, tmp_path, capsys, monkeypatch):
    spy = _Spy(monkeypatch, stub=False)
    sets = [arg for item in (*COMMON_TINY, *TINY[preset]) for arg in ("--set", item)]
    run_dir = _run(preset, tmp_path, capsys, "--seed", "3", *sets)

    on_disk = {p.name for p in run_dir.iterdir()}
    assert on_disk == EXPECTED_ARTIFACTS[preset] | {"results.json", "run_manifest.json"}
    manifest = json.loads((run_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["artifacts"] == experiments.artifact_digests(run_dir)
    assert sorted(manifest["artifacts"]) == sorted(on_disk - {"run_manifest.json"})
    results = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
    assert sorted(results) == EXPECTED_RESULT_KEYS[preset]
    assert spy.digest() == TINY_CALLS[preset], json.dumps(spy.calls, indent=1)


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("preset", list(TINY))
def test_default_calls(preset, scale, tmp_path, capsys, monkeypatch):
    spy = _Spy(monkeypatch, stub=True)
    _run(preset, tmp_path, capsys, "--scale", scale)

    if scale == "desk":
        builds = [c[1] for c in spy.calls if c[0] == "build_dataset"]
        trains = [c[1] for c in spy.calls if c[0] == "train"]
        models = {c[1] for c in spy.calls if c[0] == "init_model"}
        count, per_class, epochs, model = DESK_SHAPE[preset]
        assert len(builds) == len(trains) == count
        assert {(b["per_class_train"], b["per_class_val"], b["per_class_test"])
                for b in builds} == {per_class}
        assert {t["epochs"] for t in trains} == {epochs}
        assert models == {model}
    assert spy.digest() == DEFAULT_CALLS[scale][preset], json.dumps(spy.calls, indent=1)
