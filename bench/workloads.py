"""The benchmark's workloads: inputs made from a seed, a timed body, output checks.

Each workload drives funcid only through its public API and looks every
funcid function up on its module at call time, so the traced repetitions see
the recorder's wrappers.  ``setup`` builds the fixtures once per set-up
repetition; ``run`` is one timed repetition and returns

* ``outputs``: a JSON-able fingerprint of everything the repetition produced
  (split digests, weight hashes, predictions, artifact digests),
  compared across repetitions and, at the default seed, with pinned values;
* ``stages``: untraced stage figures (samples/s, images/s, predict latencies).

A broken invariant raises ``OutputMismatch``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import struct
import tempfile
import time
from pathlib import Path

import numpy as np

import funcid.cli
import funcid.datasets as datasets
import funcid.nn as nn
import funcid.rng as rng
from funcid.encoder import EncoderConfig, ImageType
from funcid.suite import Suite


class OutputMismatch(RuntimeError):
    """A workload produced output that breaks one of its invariants."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OutputMismatch(message)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_split(ds, per_class: int, class_count: int) -> str:
    """Size, class balance, pixel format and manifest digest of one split."""
    pixels, labels = ds.arrays()
    _check(len(ds) == per_class * class_count, f"split has {len(ds)} images")
    _check(
        np.array_equal(np.bincount(labels, minlength=class_count), np.full(class_count, per_class)),
        "classes are not balanced",
    )
    _check(pixels.dtype == np.float32 and bool(np.isfinite(pixels).all()), "bad pixels")
    h = hashlib.sha256()
    for label, image in zip(labels, pixels):
        h.update(struct.pack("<H", int(label)))
        h.update(image.astype("<f4").tobytes())
    _check(h.hexdigest() == ds.manifest.digest, "manifest digest does not match the pixels")
    return ds.manifest.digest


def _weights_sha(model) -> str:
    return _sha256(b"".join(p.astype("<f4").tobytes() for _, _, p in model.parameters()))


class TrainLenet5:
    """Load a saved d=22 Type-1 dataset, train LeNet-5, round-trip it, predict."""

    name = "train-lenet5"
    epochs = 1
    single_predicts = 200

    def setup(self, seed: int, tmp: Path):
        spec = datasets.DatasetSpec(
            suite=Suite.CONTINUOUS_BBOB,
            dim=22,
            encoder=EncoderConfig(dim=22, sample_size=24, image_type=ImageType.TYPE1),
            regime=datasets.Regime.L1,
            per_class_train=40,
            per_class_test=10,
            master_seed=seed,
        )
        splits = datasets.build_dataset(spec)
        fixture = {"seed": seed, "spec": spec, "tmp": tmp, "digests": {}}
        for split in ("train", "test"):
            datasets.save(splits[split], tmp / f"{split}.limg")
            fixture["digests"][split] = splits[split].manifest.digest
        warm = nn.init_model("lenet5", spec.class_count, spec.encoder.frame_size, seed=seed)
        nn.predict(warm, splits["test"].arrays()[0][:1])
        return fixture

    def run(self, fixture):
        spec, tmp, seed = fixture["spec"], fixture["tmp"], fixture["seed"]
        train_ds = datasets.load(tmp / "train.limg")
        test_ds = datasets.load(tmp / "test.limg")
        outputs = {}
        for split, ds, per_class in (
            ("train", train_ds, spec.per_class_train),
            ("test", test_ds, spec.per_class_test),
        ):
            outputs[split] = _check_split(ds, per_class, spec.class_count)
            _check(outputs[split] == fixture["digests"][split], f"{split}: LIMG round trip")

        model = nn.init_model("lenet5", spec.class_count, spec.encoder.frame_size, seed=seed)
        cfg = nn.TrainConfig(
            learning_rate=1e-3,
            epochs=self.epochs,
            batch_size=64,
            seed=rng.derive_seed(seed, rng.BATCH_ORDER),
            optimizer="adam",
        )
        started = time.perf_counter()
        best, report = nn.train(model, train_ds, None, cfg)
        train_s = time.perf_counter() - started
        _check(all(math.isfinite(v) for v in report.train_loss), "non-finite training loss")

        checkpoint = tmp / "lenet5.lmdl"
        nn.save_model(best, checkpoint)
        loaded = nn.load_model(checkpoint)
        outputs["weights_sha256"] = _weights_sha(best)
        _check(_weights_sha(loaded) == outputs["weights_sha256"], "checkpoint round trip")

        started = time.perf_counter()
        predictions = nn.predict(loaded, test_ds)
        predict_s = time.perf_counter() - started
        labels = np.asarray(test_ds.labels)
        _check(predictions.shape == labels.shape, "prediction count")
        outputs["predictions_sha256"] = _sha256(predictions.astype("<i8").tobytes())
        outputs["accuracy"] = float((predictions == labels).mean())

        pixels = test_ds.arrays()[0]
        singles = np.empty(self.single_predicts, dtype=np.int64)
        latencies_us = []
        for i in range(self.single_predicts):
            image = pixels[i % len(pixels)][None]
            t0 = time.perf_counter()
            singles[i] = nn.predict(loaded, image)[0]
            latencies_us.append((time.perf_counter() - t0) * 1e6)
        outputs["single_predictions_sha256"] = _sha256(singles.tobytes())
        outputs["best_epoch"] = report.best_epoch
        outputs["train_loss"] = report.train_loss

        stages = {
            "train_samples_per_s": self.epochs * len(train_ds) / train_s,
            "predict_img_per_s": len(test_ds) / predict_s,
            "latencies_us": latencies_us,
        }
        return outputs, stages


class PresetL3Noisy:
    """The UnseenL3Noisy preset through ``funcid.cli.main``, shrunk to seconds."""

    name = "preset-l3-noisy"
    overrides = ("per_class_train=10", "per_class_test=5", "epochs=10")
    artifacts = (
        "breakdown_l3_clean.csv",
        "breakdown_l3_noisy.csv",
        "model_l3.lmdl",
        "results.json",
        "train_report_l3.csv",
    )

    def _experiment(self, seed: int, tmp: Path, overrides) -> dict:
        """One CLI experiment under a fresh output root; removes the root after."""
        root = Path(tempfile.mkdtemp(dir=tmp))
        try:
            argv = ["experiment", "UnseenL3Noisy", "--out", str(root), "--seed", str(seed)]
            argv += ["--jobs", "1"]
            for item in overrides:
                argv += ["--set", item]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = funcid.cli.main(argv)
            _check(code == 0, f"CLI exit code {code}")
            lines = [ln for ln in stdout.getvalue().splitlines() if ln.startswith("run dir: ")]
            _check(len(lines) == 1, "CLI printed no run dir")
            run_dir = Path(lines[0][len("run dir: "):])
            _check(run_dir.parent == root, "run dir outside the output root")
            manifest = json.loads((run_dir / "run_manifest.json").read_text(encoding="utf-8"))
            results = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
            on_disk = {
                str(p.relative_to(run_dir)): _sha256(p.read_bytes())
                for p in sorted(run_dir.rglob("*"))
                if p.is_file() and p.name != "run_manifest.json"
            }
            _check(manifest["artifacts"] == on_disk, "run manifest digests do not match the files")
            _check(tuple(sorted(on_disk)) == self.artifacts, f"artifacts {sorted(on_disk)}")
            _check(sorted(results) == ["clean_accuracy", "noisy_accuracy"], "results keys")
            _check(all(0.0 <= v <= 1.0 for v in results.values()), "accuracy out of range")
            return {"artifacts": manifest["artifacts"], "results": results}
        finally:
            shutil.rmtree(root)

    def setup(self, seed: int, tmp: Path):
        warm = ("per_class_train=1", "per_class_test=1", "epochs=1")
        self._experiment(seed, tmp, warm)
        return {"seed": seed, "tmp": tmp}

    def run(self, fixture):
        return self._experiment(fixture["seed"], fixture["tmp"], self.overrides), {}


WORKLOADS = {w.name: w for w in (TrainLenet5(), PresetL3Noisy())}
