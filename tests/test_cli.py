"""Tests of the command-line front end (``funcid.cli.main``)."""

from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import funcid
import funcid.cli
import funcid.experiments
from funcid import rng
from funcid.cli import main
from funcid.datasets import DatasetSpec, NoiseKind, NoiseSpec, Regime, load
from funcid.encoder import DomainMap, EncoderConfig, ImageType
from funcid.experiments import ExperimentError, ExperimentPreset
from funcid.metrics import accuracy, confusion, emit_breakdown
from funcid.nn import TrainConfig, init_model, load_model, predict, save_model
from funcid.suite import Suite, evaluate, list_functions, make_instance, problem


class TestFuncsDump:
    def test_dump_prints_the_evaluate_value(self, capsys):
        code = main(
            ["funcs", "dump", "--suite", "bbob", "--k", "15", "--dim", "3", "--seed", "7",
             "--at", "0.1,0.2,0.3"]
        )
        out = capsys.readouterr().out.splitlines()
        inst = make_instance(problem(Suite.CONTINUOUS_BBOB, 15), 3, 7)
        value = evaluate(inst, np.array([0.1, 0.2, 0.3]))
        assert code == 0
        assert out[0] == "Rastrigin Rotated (k=15, d=3, seed=7)"
        assert out[1] == f"f(0.1,0.2,0.3) = {value!r}"
        assert out[2] == f"f_offset = {inst.f_offset!r}"

    def test_dump_discrete_point(self, capsys):
        code = main(["funcs", "dump", "--suite", "discrete", "--k", "3", "--dim", "4",
                     "--at", "1,0,0,1"])
        assert code == 0
        assert "= 5.0" in capsys.readouterr().out

    def test_wrong_length_point_exits_2(self, capsys):
        code = main(["funcs", "dump", "--suite", "bbob", "--k", "1", "--dim", "3",
                     "--at", "0.1,0.2"])
        assert code == 2
        assert "do not match instance dimension 3" in capsys.readouterr().err

    def test_non_binary_discrete_point_exits_2(self, capsys):
        code = main(["funcs", "dump", "--suite", "discrete", "--k", "1", "--dim", "3",
                     "--at", "1,0.5,0"])
        assert code == 2
        assert "0/1" in capsys.readouterr().err

    def test_missing_point_exits_2(self, capsys):
        assert main(["funcs", "dump", "--k", "1", "--dim", "2"]) == 2
        assert "--at" in capsys.readouterr().err

    @pytest.mark.parametrize("at, bad", [("a,b", "a"), ("0.5,,0.5", ""), ("0.5;0.5", "0.5;0.5")])
    def test_unparsable_point_names_the_flag(self, at, bad, capsys):
        assert main(["funcs", "dump", "--k", "1", "--dim", "2", "--at", at]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"error: --at {at!r} is not a comma-separated point:"
                        f" could not convert string to float: {bad!r}")

    @pytest.mark.parametrize("at", ["nan,1", "1,inf"])
    def test_non_finite_point_names_the_flag(self, at, capsys):
        assert main(["funcs", "dump", "--k", "1", "--dim", "2", "--at", at]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --at {at!r} has a non-finite coordinate\n"
        assert captured.out == ""

    def test_discrete_function_takes_a_length_its_suite_does_not(self, capsys):
        # d=22 is no square lattice for IsingTriangular, but OneMax takes it.
        at = ",".join("1" * 22)
        assert main(["funcs", "dump", "--suite", "discrete", "--k", "1", "--dim", "22",
                     "--at", at]) == 0
        assert "f_offset = 0.0" in capsys.readouterr().out


class TestFuncsList:
    def test_lists_suite_in_order(self, capsys):
        assert main(["funcs", "list", "--suite", "discrete"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["1", "2", "3", "4", "5", "6"]
        assert lines[0].split()[1] == "OneMax"


# A tiny UnseenL3Noisy run: one image per class and split, one epoch.
TINY_L3 = ["--set", "per_class_train=1", "--set", "per_class_test=1", "--set", "epochs=1"]


class TestExperiment:
    def _run_manifest(self, root, capsys) -> dict:
        code = main(["experiment", "UnseenL3Noisy", "--out", str(root), "--seed", "3", *TINY_L3])
        out = capsys.readouterr().out
        assert code == 0
        (line,) = [ln for ln in out.splitlines() if ln.startswith("run dir: ")]
        run_dir = Path(line[len("run dir: "):])
        assert run_dir.parent == root
        return json.loads((run_dir / "run_manifest.json").read_text(encoding="utf-8"))

    def test_one_seed_reproduces_artifact_digests(self, tmp_path, capsys):
        first = self._run_manifest(tmp_path / "a", capsys)
        second = self._run_manifest(tmp_path / "b", capsys)
        assert sorted(first["artifacts"]) == [
            "breakdown_l3_clean.csv",
            "breakdown_l3_noisy.csv",
            "model_l3.lmdl",
            "results.json",
            "train_report_l3.csv",
        ]
        assert first["artifacts"] == second["artifacts"]

    def test_back_to_back_runs_get_distinct_dirs(self, tmp_path, capsys, monkeypatch):
        # Pin the clock so that all three runs want the same directory name.
        monkeypatch.setattr(funcid.experiments.time, "strftime", lambda fmt: "20260101-000000")
        argv = ["experiment", "UnseenL3Noisy", "--out", str(tmp_path), "--seed", "3", *TINY_L3,
                "--set", "dim=2", "--set", "instances=1", "--set", "unseen_instances=1"]
        assert [main(argv) for _ in range(3)] == [0, 0, 0]
        capsys.readouterr()
        stem = "UnseenL3Noisy-20260101-000000"
        run_dirs = sorted(tmp_path.iterdir())
        assert [d.name for d in run_dirs] == [stem, f"{stem}-2", f"{stem}-3"]
        manifests = [json.loads((d / "run_manifest.json").read_text(encoding="utf-8"))
                     for d in run_dirs]
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"] == manifests[2]["artifacts"]

    @pytest.mark.parametrize("preset, item, message", [
        ("UnseenL3Noisy", "epoch=1", "unknown override(s) ['epoch']; UnseenL3Noisy reads ["),
        ("UnseenL3Noisy", "dims=[2]", "unknown override(s) ['dims']"),
        ("BaseL1DimSweep", "dims=5", "override dims=5 must be of type list of int"),
        ("BaseL1DimSweep", "dims=[2.5]", "override dims=[2.5] must be of type list of int"),
        ("UnseenL3", "lr=\"abc\"", "override lr='abc' must be of type number"),
        ("UnseenL3", "epochs=true", "override epochs=True must be of type int"),
    ])
    def test_unknown_override_exits_2(self, preset, item, message, tmp_path, capsys):
        code = main(["experiment", preset, "--out", str(tmp_path), "--set", item])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset, item, message", [
        ("MultiInstanceL2", "per_class_train=1000",
         "desk-scale dataset of 26400 images exceeds the 20000 cap"),
        ("BaseL1DimSweep", "epochs=301", "desk-scale training of 301 epochs exceeds 300"),
        ("DiscreteL1", "per_class_train=3400",
         "desk-scale dataset of 20700 images exceeds the 20000 cap"),
    ])
    def test_desk_cap_exits_2_without_a_run_dir(self, preset, item, message, tmp_path, capsys):
        code = main(["experiment", preset, "--out", str(tmp_path), "--set", item])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_momentum_with_adam_exits_2_without_a_run_dir(self, tmp_path, capsys):
        # Desk scale trains with Adam, which has no momentum term.
        code = main(["experiment", "UnseenL3", "--out", str(tmp_path), "--set", "momentum=0.9"])
        assert code == 2
        assert "momentum 0.9 needs optimizer 'sgd'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_learning_rate_exits_2_without_a_run_dir(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3Noisy", "--out", str(tmp_path), "--set", "lr=NaN"])
        assert code == 2
        assert capsys.readouterr().err == "error: learning rate must be finite, got nan\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_noise_range_exits_2_without_a_run_dir(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3Noisy", "--out", str(tmp_path),
                     "--set", "uniform_lo=NaN"])
        assert code == 2
        assert "uniform noise range [nan, 2.5] needs finite bounds" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset, item, message", [
        ("MultiInstanceL2", "model=lenet",
         "override model='lenet' is not one of ('perceptron1', 'perceptron3', 'lenet5')"),
        ("UnseenL3", "domain=foo",
         "override domain='foo' is not one of ('unit_cube', 'bbob_box')"),
        ("BaseL1DimSweep", "dims=[1]", "continuous suite needs d >= 2, got 1"),
        ("MultiInstanceL2", "instances=0", "need at least one instance per function"),
        ("NSweep", "n_values=[40]", "N=40 sample rows do not fit in M=32 for Types 1-4"),
        ("UnseenL3", "unseen_instances=0", "L3 needs unseen instances for the test split"),
        ("UnseenL3", "dim=1", "continuous suite needs d >= 2, got 1"),
        ("GaussianNoiseL1", "dim=1", "continuous suite needs d >= 2, got 1"),
        ("TypeComparison", "dim=40", "d'=41 exceeds frame width M=32 for TYPE1"),
        ("DiscreteL1", "dim=70", "d'=71 exceeds frame width M=32 for TYPE1"),
    ], ids=["model", "domain", "dims", "instances", "n_values", "unseen_instances", "l3-dim",
            "noise-dim", "types-dim", "discrete-dim"])
    def test_failing_override_leaves_no_run_dir(self, preset, item, message, tmp_path, capsys,
                                                monkeypatch):
        # Every spec the preset's runner would build is checked before the
        # run directory is made.
        calls, new_run_dir = [], funcid.experiments._new_run_dir
        monkeypatch.setattr(funcid.experiments, "_new_run_dir",
                            lambda *a: calls.append(a) or new_run_dir(*a))
        monkeypatch.setattr(funcid.experiments, "build_dataset", calls.append)
        code = main(["experiment", preset, "--out", str(tmp_path), "--set", item])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset, item, message", [
        ("BaseL1DimSweep", "dims=[2,4,40]", "d'=41 exceeds frame width M=32 for TYPE1"),
        ("NSweep", "n_values=[8,40]", "N=40 sample rows do not fit in M=32 for Types 1-4"),
        ("BaseL1DimSweep", "dims=[2,4,1]", "continuous suite needs d >= 2, got 1"),
        ("BaseL1DimSweep", "dims=[]", "override dims=[] must list one or more distinct values"),
        ("NSweep", "n_values=[]", "override n_values=[] must list one or more distinct values"),
        ("BaseL1DimSweep", "dims=[2,2]",
         "override dims=[2, 2] must list one or more distinct values"),
        ("NSweep", "n_values=[8,16,8]",
         "override n_values=[8, 16, 8] must list one or more distinct values"),
        ("TypeComparison", "runs=0", "override runs=0 must be at least 1"),
    ], ids=["dims", "n_values", "dims-below-2", "dims-empty", "n_values-empty",
            "dims-repeated", "n_values-repeated", "runs-0"])
    def test_bad_late_sweep_point_fails_before_the_first_build(
        self, preset, item, message, tmp_path, capsys, monkeypatch
    ):
        builds = []
        monkeypatch.setattr(funcid.experiments, "build_dataset", builds.append)
        code = main(["experiment", preset, "--out", str(tmp_path), "--set", item])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert builds == [] and list(tmp_path.iterdir()) == []

    def test_failure_after_an_artifact_keeps_the_run_dir(self, tmp_path, capsys, monkeypatch):
        def score(model, dataset, breakdown):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(funcid.experiments, "score", score)
        assert main(["experiment", "UnseenL3", "--out", str(tmp_path), *TINY_L3]) == 1
        assert capsys.readouterr().err == "runtime failure: scoring failed\n"
        (run_dir,) = tmp_path.iterdir()
        assert sorted(p.name for p in run_dir.iterdir()) == ["model_l3.lmdl",
                                                             "train_report_l3.csv"]

    def test_paper_scale_sgd_takes_momentum(self):
        preset = ExperimentPreset("UnseenL3", scale="paper", overrides={"momentum": 0.9})
        assert (preset.settings()["optimizer"], preset.settings()["momentum"]) == ("sgd", 0.9)

    def test_desk_cap_counts_the_preset_suite_classes(self):
        # 1050 images per class: over the cap for 24 BBOB classes, not for 6 discrete ones.
        ExperimentPreset("DiscreteL1", overrides={"per_class_train": 1000})
        ExperimentPreset("MultiInstanceL2", scale="paper", overrides={"per_class_train": 1000})
        with pytest.raises(ExperimentError, match="26400 images"):
            ExperimentPreset("MultiInstanceL2", overrides={"per_class_train": 1000})

    def test_int_override_accepted_for_float(self):
        preset = ExperimentPreset("UnseenL3Noisy", overrides={"lr": 1, "uniform_lo": -2})
        settings = preset.settings()
        assert (settings["lr"], settings["uniform_lo"]) == (1, -2)

    def test_override_without_equals_exits_2_without_a_run_dir(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3", "--out", str(tmp_path), "--set", "epochs"])
        assert code == 2
        assert capsys.readouterr().err == "error: override 'epochs' is not key=value\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_json_override_stays_a_string(self, tmp_path, preset_calls):
        assert main(["experiment", "UnseenL3", "--out", str(tmp_path),
                     "--set", "domain=bbob_box", "--set", "epochs=2"]) == 0
        assert preset_calls[0][0].overrides == {"domain": "bbob_box", "epochs": 2}

    def test_unknown_optimizer_exits_2_without_a_run_dir(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3", "--out", str(tmp_path),
                     "--set", "optimizer=rmsprop"])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown optimizer 'rmsprop'\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ExperimentError) as info:
            ExperimentPreset("UnseenL4")
        assert str(info.value) == (
            "unknown preset 'UnseenL4'; choose from ('BaseL1DimSweep', 'NSweep',"
            " 'TypeComparison', 'MultiInstanceL2', 'UnseenL3', 'UnseenL3Noisy',"
            " 'GaussianNoiseL1', 'DiscreteL1')"
        )

    def test_unknown_scale_is_rejected(self):
        with pytest.raises(ExperimentError) as info:
            ExperimentPreset("UnseenL3", scale="huge")
        assert str(info.value) == "scale must be 'desk' or 'paper', got 'huge'"


# A tiny d=2 BBOB dataset: 24 classes, one image per class in train and test.
TINY_GEN = ["--dim", "2", "--per-class", "1", "--per-class-test", "1"]


def _write_config(path: Path, config) -> str:
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def _split_sizes(out: str) -> dict[str, int]:
    """{split: image count} from the ``<split>: <n> images, ...`` lines."""
    return {ln.split(":")[0]: int(ln.split()[1]) for ln in out.splitlines() if " images, " in ln}


def _generate(out: Path, argv: list[str]) -> Path:
    assert main(["generate", *argv, "--out", str(out)]) == 0
    return out


# A tiny discrete dataset: 6 classes, one image per class in train and test.
TINY_PB = ["--suite", "discrete", "--dim", "9", "--per-class", "1", "--per-class-test", "1"]


@pytest.fixture
def tiny_data(tmp_path, capsys) -> Path:
    out = _generate(tmp_path / "data", TINY_GEN)
    capsys.readouterr()
    return out


class TestGenerateTrainEval:
    def test_pipeline_exits_0(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1",
                     "--preset", "perceptron1", "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(tiny_data / "test.limg"),
                     "--out", str(tmp_path / "breakdown.csv")]) == 0
        out = capsys.readouterr().out
        assert "accuracy: " in out and "over 24 images" in out
        assert (tmp_path / "breakdown.csv").is_file()

    def test_eval_matches_a_reference_score(self, tiny_data, tmp_path, capsys):
        model_path, out = tmp_path / "model.lmdl", tmp_path / "breakdown.csv"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "2",
                     "--preset", "perceptron3", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--data", str(tiny_data / "test.limg"),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()

        ds = load(tiny_data / "test.limg")
        predictions = predict(load_model(model_path), ds)
        names = [p.display_name for p in list_functions(Suite.CONTINUOUS_BBOB)]
        reference = tmp_path / "reference.csv"
        emit_breakdown(names, confusion(ds.labels, predictions, 24), reference)
        assert out.read_bytes() == reference.read_bytes()
        acc = accuracy(ds.labels, predictions)
        assert lines == [f"breakdown: {out}", f"accuracy: {acc:.4f} over 24 images"]

    @pytest.mark.parametrize("discrete_val", [True, False], ids=["bbob-data", "discrete-data"])
    def test_val_from_another_suite_exits_2(self, discrete_val, tiny_data, tmp_path, capsys):
        bbob = tiny_data / "train.limg"
        discrete = _generate(tmp_path / "pb", TINY_PB) / "train.limg"
        data, val = (bbob, discrete) if discrete_val else (discrete, bbob)
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(data), "--val", str(val), "--epochs", "1",
                     "--out", str(model)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(data) in line and str(val) in line
        assert not model.exists()

    def test_val_of_another_dim_trains(self, tiny_data, tmp_path, capsys):
        val = _generate(tmp_path / "d5", ["--dim", "5", "--per-class", "1",
                                          "--per-class-test", "0"])
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(tiny_data / "train.limg"),
                     "--val", str(val / "train.limg"), "--epochs", "1", "--out", str(model)]) == 0
        assert model.is_file()

    def test_val_of_another_frame_size_exits_2(self, tiny_data, tmp_path, capsys):
        data = tiny_data / "train.limg"
        val = _generate(tmp_path / "m16", [*TINY_GEN, "--frame", "16", "--n", "8"]) / "test.limg"
        model = tmp_path / "model.lmdl"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--val", str(val), "--epochs", "1",
                     "--out", str(model)]) == 2
        assert capsys.readouterr().err == (
            f"error: --val {val} holds 16x16 images but --data {data} holds 32x32 images\n"
        )
        assert not model.exists()

    def test_model_of_another_frame_size_exits_2(self, tiny_data, tmp_path, capsys):
        model, out = tmp_path / "model.lmdl", tmp_path / "breakdown.csv"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1",
                     "--out", str(model)]) == 0
        data = _generate(tmp_path / "m16", [*TINY_GEN, "--frame", "16", "--n", "8"]) / "test.limg"
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --model {model} takes 32x32 images but --data {data} holds 16x16 images\n"
        )
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("discrete_model", [True, False], ids=["6-on-24", "24-on-6"])
    def test_model_of_another_class_count_exits_2(self, discrete_model, tiny_data, tmp_path,
                                                  capsys):
        pb = _generate(tmp_path / "pb", TINY_PB)
        train_dir, test_dir = (pb, tiny_data) if discrete_model else (tiny_data, pb)
        model, out = tmp_path / "model.lmdl", tmp_path / "breakdown.csv"
        assert main(["train", "--data", str(train_dir / "train.limg"), "--epochs", "1",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        data = test_dir / "test.limg"
        assert main(["eval", "--model", str(model), "--data", str(data), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(model) in line and str(data) in line
        assert captured.out == "" and not out.exists()

    def test_model_of_another_dim_scores(self, tmp_path, capsys):
        d22 = _generate(tmp_path / "d22", ["--dim", "22", "--per-class", "1",
                                           "--per-class-test", "0"])
        d10 = _generate(tmp_path / "d10", ["--dim", "10", "--per-class", "1",
                                           "--per-class-test", "1"])
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(d22 / "train.limg"), "--epochs", "1",
                     "--out", str(model)]) == 0
        assert main(["eval", "--model", str(model), "--data", str(d10 / "test.limg")]) == 0
        assert "over 24 images" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["eval", "--data", "test.limg"],
        ["eval", "--model", "model.lmdl"],
    ])
    def test_missing_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate"], ["train"], ["eval"],
                                         ["experiment", "UnseenL3"]])
    @pytest.mark.parametrize("config, message, names_file", [
        (None, "config file not found", True),
        ("[1, 2]", "must hold a JSON object", True),
        ("{not json", "Expecting property name", True),
        ("", "is not valid JSON: Expecting value", True),
        ('{"dim": "\xe9"}', "is not valid JSON: 'utf-8' codec can't decode byte 0xe9", True),
        ('{"per-class": 3, "bogus": 1}', "unknown config key(s) ['bogus', 'per-class']", False),
    ])
    def test_bad_config_exits_2(self, command, config, message, names_file, tmp_path, capsys,
                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        if config is not None:
            # Latin-1, so that a non-ASCII character is a byte UTF-8 cannot decode.
            path.write_bytes(config.encode("latin-1"))
        assert main([*command, "--config", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert (str(path) in line) == names_file
        assert list(tmp_path.iterdir()) == ([path] if config is not None else [])

    @pytest.mark.parametrize("command, config, message", [
        (["generate"], {"dim": 2.5}, "config dim=2.5 is not a valid int"),
        (["generate"], {"dim": True}, "config dim=True is not a valid int"),
        (["generate"], {"type": 9}, "config type=9 is not one of [1, 2, 3, 4, 5]"),
        (["generate"], {"export_png": "yes"}, "config export_png='yes' must be true or false"),
        (["generate"], {"out": 5}, "config out=5 must be a string"),
        (["experiment", "UnseenL3"], {"set": "epochs=1"}, "must be a list of strings"),
        (["experiment", "UnseenL3"], {"scale": "huge"}, "config scale='huge' is not one of"),
    ])
    def test_mistyped_config_value_exits_2(self, command, config, message, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write_config(tmp_path / "config.json", config)
        assert main([*command, "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("bounds, message", [
        (["--uniform-lo=nan"], "[nan, 2.5]"),
        (["--uniform-lo=-1e308", "--uniform-hi=1e308"], "[-1e+308, 1e+308]"),
    ])
    def test_non_finite_noise_range_exits_2_before_building(self, bounds, message, tmp_path,
                                                            capsys, monkeypatch):
        built = []
        monkeypatch.setattr(funcid.cli, "build_dataset", lambda spec: built.append(spec) or {})
        out = tmp_path / "data"
        assert main(["generate", *TINY_GEN, "--noise", "uniform_range", *bounds,
                     "--out", str(out)]) == 2
        assert f"uniform noise range {message} needs finite bounds" in capsys.readouterr().err
        assert built == [] and list(tmp_path.iterdir()) == []

    def test_discrete_dim_no_function_takes_exits_2_before_building(self, tmp_path, capsys,
                                                                    monkeypatch):
        built = []
        monkeypatch.setattr(funcid.datasets, "make_instance", lambda *a: built.append(a))
        out = tmp_path / "pb22"
        assert main(["generate", "--suite", "discrete", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: IsingTriangular needs a square lattice; d=22 is not a perfect square"
        assert built == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("config, argv, expected", [
        (None,
         ["--dim", "2", "--per-class", "1", "--per-class-test", "1", "--frame", "16", "--n", "8",
          "--type", "3", "--regime", "L3", "--instances", "2", "--unseen-instances", "1",
          "--domain", "bbob_box", "--noise", "uniform_range", "--uniform-lo", "-1",
          "--uniform-hi", "1", "--per-class-val", "1", "--seed", "7"],
         DatasetSpec(
             suite=Suite.CONTINUOUS_BBOB, dim=2,
             encoder=EncoderConfig(dim=2, sample_size=8, image_type=ImageType.TYPE3,
                                   frame_size=16, domain_map=DomainMap.AFFINE_TO_BBOB_BOX),
             regime=Regime.L3, per_class_train=1, per_class_val=1, per_class_test=1,
             instances_per_function=2, unseen_instances_per_function=1, master_seed=7,
             noise=NoiseSpec(kind=NoiseKind.UNIFORM_RANGE, uniform_lo=-1.0, uniform_hi=1.0),
         )),
        ({"suite": "discrete", "dim": 9, "type": 4, "n": 16, "per_class": 2,
          "per_class_test": 1, "regime": "L2", "instances": 2, "noise": "gaussian_half_max"},
         ["--per-class", "1", "--seed", "5"],
         DatasetSpec(
             suite=Suite.DISCRETE_PB, dim=9,
             encoder=EncoderConfig(dim=9, sample_size=16, image_type=ImageType.TYPE4,
                                   frame_size=32, domain_map=DomainMap.UNIT_CUBE),
             regime=Regime.L2, per_class_train=1, per_class_val=0, per_class_test=1,
             instances_per_function=2, unseen_instances_per_function=0, master_seed=5,
             noise=NoiseSpec(kind=NoiseKind.GAUSSIAN_HALF_MAX, uniform_lo=-2.5,
                             uniform_hi=2.5),
         )),
    ], ids=["flags", "config"])
    def test_generate_spec_reads_every_flag(self, config, argv, expected, tmp_path, capsys):
        if config is not None:
            argv = ["--config", _write_config(tmp_path / "gen.json", config), *argv]
        out = _generate(tmp_path / "data", argv)
        splits = sorted(p.name for p in out.glob("*.limg"))
        assert splits == (["test.limg", "train.limg", "val.limg"] if config is None
                          else ["test.limg", "train.limg"])
        for name in splits:
            assert load(out / name).manifest.spec == expected

    def test_train_config_reads_every_flag(self, tiny_data, tmp_path, capsys, monkeypatch):
        configs = []
        real_train = funcid.cli.train

        def train(model, train_ds, val_ds, cfg):
            configs.append(cfg)
            return real_train(model, train_ds, val_ds, cfg)

        monkeypatch.setattr(funcid.cli, "train", train)
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--lr", "0.05",
                     "--epochs", "2", "--batch-size", "5", "--optimizer", "sgd",
                     "--momentum", "0.9", "--seed", "4", "--out", str(tmp_path / "m.lmdl")]) == 0
        assert configs == [TrainConfig(learning_rate=0.05, epochs=2, batch_size=5,
                                       seed=rng.derive_seed(4, rng.BATCH_ORDER), momentum=0.9,
                                       optimizer="sgd")]

    def test_report_holds_one_row_per_epoch(self, tiny_data, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "3",
                     "--out", str(tmp_path / "model.lmdl"), "--report", str(report)]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        header, *rows = report.read_text(encoding="utf-8").splitlines()
        assert header == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
        # No --val: the printed final accuracy is the last epoch's train_acc.
        assert all(row.endswith(",,") for row in rows)
        assert summary.endswith(f"final acc {float(rows[-1].split(',')[2]):.4f}")

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "-0.5"], "learning rate must be >= 0"),
        (["--lr", "nan"], "learning rate must be finite, got nan"),
        (["--lr", "inf"], "learning rate must be finite, got inf"),
        (["--batch-size", "0"], "batch_size and epochs must be >= 1"),
        (["--epochs", "0"], "batch_size and epochs must be >= 1"),
    ], ids=["negative-lr", "nan-lr", "inf-lr", "batch-size-0", "epochs-0"])
    def test_train_config_rejection_exits_2(
        self, flags, message, tiny_data, tmp_path, capsys, monkeypatch
    ):
        # The training settings are checked before any split is loaded.
        loads = []
        monkeypatch.setattr(funcid.cli, "load", loads.append)
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1", *flags,
                     "--out", str(model)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []
        assert not model.exists()

    def test_momentum_with_adam_exits_2(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1",
                     "--optimizer", "adam", "--momentum", "0.9", "--out", str(model)]) == 2
        assert "momentum 0.9 needs optimizer 'sgd'" in capsys.readouterr().err
        assert not model.exists()

    def test_truncated_dataset_exits_1(self, tiny_data, tmp_path, capsys):
        train_limg = tiny_data / "train.limg"
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(train_limg), "--epochs", "1",
                     "--preset", "perceptron1", "--out", str(model)]) == 0
        test_limg = tiny_data / "test.limg"
        test_limg.write_bytes(test_limg.read_bytes()[:-5])
        train_limg.write_bytes(train_limg.read_bytes()[:20])
        assert main(["train", "--data", str(train_limg), "--epochs", "1"]) == 1
        assert main(["eval", "--model", str(model), "--data", str(test_limg)]) == 1
        err = capsys.readouterr().err
        assert err.count("runtime failure: ") == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text[: len(text) // 2], "unreadable manifest"),
        (lambda text: text.replace('"noise"', '"noise_"'), "manifest lacks spec.noise"),
        (lambda text: text.replace('"image_type": 1', '"image_type": 9'),
         "spec.encoder.image_type: 9 is not a valid ImageType"),
    ], ids=["truncated-json", "no-spec-noise", "image-type-9"])
    def test_malformed_sidecar_exits_1(self, edit, message, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.lmdl"
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1",
                     "--preset", "perceptron1", "--out", str(model)]) == 0
        capsys.readouterr()
        for split in ("train", "test"):
            sidecar = tiny_data / f"{split}.limg.manifest.json"
            sidecar.write_text(edit(sidecar.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["train", "--data", str(tiny_data / "train.limg"), "--epochs", "1"]) == 1
        assert main(["eval", "--model", str(model), "--data", str(tiny_data / "test.limg")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line, split in zip(lines, ("train", "test")):
            assert line.startswith(f"runtime failure: {tiny_data / split}.limg.manifest.json: ")
            assert message in line

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("dtype"), "descriptor lacks dtype"),
        (lambda d: d.update(activation="sigmoid"), "unsupported activation 'sigmoid'"),
        (lambda d: d.update(class_count="3"), "descriptor class_count must be int, got '3'"),
        (lambda d: d.update(init_seed="x"), "descriptor init_seed must be int, got 'x'"),
        (lambda d: d.update(frame_size=8.0), "descriptor frame_size must be int, got 8.0"),
        (lambda d: [d], "descriptor is not a JSON object"),
    ], ids=["missing-key", "unknown-value", "str-class-count", "str-init-seed",
            "float-frame-size", "list-descriptor"])
    def test_bad_checkpoint_exits_1(self, edit, message, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.lmdl"
        save_model(init_model("perceptron1", 24, 8, seed=0), model)
        raw = model.read_bytes()
        (blob_len,) = struct.unpack("<I", raw[6:10])
        descriptor = json.loads(raw[10 : 10 + blob_len])
        # An edit that returns a list replaces the descriptor with it.
        replaced = edit(descriptor)
        if isinstance(replaced, list):
            descriptor = replaced
        blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
        body = raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + blob_len : -32]
        model.write_bytes(body + hashlib.sha256(body).digest())
        assert main(["eval", "--model", str(model), "--data", str(tiny_data / "test.limg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and message in err


def _funcid_errors() -> list[type]:
    """Every exception class defined in a funcid module."""
    for info in pkgutil.walk_packages(funcid.__path__, "funcid."):
        importlib.import_module(info.name)
    return sorted({
        obj for name, module in sys.modules.items()
        if name == "funcid" or name.startswith("funcid.")
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == name
    }, key=lambda cls: cls.__qualname__)


FUNCID_ERRORS = _funcid_errors()


class TestErrorClasses:
    """A configuration error is a ValueError (exit 2), a runtime failure a RuntimeError (exit 1)."""

    def test_every_error_is_a_value_error_or_a_runtime_error(self):
        names = {cls.__name__ for cls in FUNCID_ERRORS}
        assert names >= {"CliError", "ExperimentError", "DatasetFormatError", "CheckpointError"}
        for cls in FUNCID_ERRORS:
            assert issubclass(cls, ValueError) != issubclass(cls, RuntimeError), cls

    @pytest.mark.parametrize("error", FUNCID_ERRORS, ids=lambda cls: cls.__name__)
    def test_main_maps_the_error_to_its_exit_code(self, error, monkeypatch, capsys):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(funcid.cli, "_cmd_funcs_list", fail)
        code = main(["funcs", "list"])
        if issubclass(error, ValueError):
            assert (code, capsys.readouterr().err) == (2, "error: boom\n")
        else:
            assert (code, capsys.readouterr().err) == (1, "runtime failure: boom\n")


class TestJobsFlag:
    """``--jobs`` still parses on generate and experiment, and changes nothing."""

    def test_generate_writes_the_same_bytes_for_any_jobs(self, tmp_path, capsys):
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["generate", *TINY_GEN, "--jobs", jobs, "--out", str(out)]) == 0
            written[jobs] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(written["1"]) == ["test.limg", "test.limg.manifest.json",
                                        "train.limg", "train.limg.manifest.json"]
        assert written["2"] == written["1"]

    def test_experiment_accepts_jobs(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3Noisy", "--out", str(tmp_path), *TINY_L3,
                     "--jobs", "2"])
        assert code == 0, capsys.readouterr().err
        (run_dir,) = tmp_path.iterdir()
        assert (run_dir / "results.json").is_file()


class TestExportPng:
    def test_one_preview_per_class_from_its_first_train_image(self, tmp_path, monkeypatch,
                                                              capsys):
        # A stand-in pillow and a recording write_png: only the selection of
        # the previews is under test here.
        fake = types.ModuleType("PIL")
        fake.Image = types.ModuleType("PIL.Image")
        monkeypatch.setitem(sys.modules, "PIL", fake)
        written: list[tuple[Path, np.ndarray]] = []
        monkeypatch.setattr(funcid.cli, "write_png",
                            lambda path, pixels: written.append((Path(path), np.array(pixels))))
        out = tmp_path / "data"
        assert main(["generate", "--dim", "2", "--n", "4", "--frame", "8", "--type", "3",
                     "--per-class", "3", "--per-class-test", "1",
                     "--out", str(out), "--export-png"]) == 0
        assert f"previews: {out / 'preview'}" in capsys.readouterr().out

        pixels, labels = load(out / "train.limg").arrays()
        expected = {}
        for label, image in zip(labels, pixels):  # shuffled train order
            expected.setdefault(f"class_{label + 1:02d}_type3.png", image)
        assert len(expected) == 24
        assert sorted(path.name for path, _ in written) == sorted(expected)
        for path, image in written:
            assert path.parent == out / "preview"
            assert image.dtype == np.float32
            assert image.tobytes() == expected[path.name].tobytes()

    def test_missing_pillow_exits_2_before_anything_is_written(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setitem(sys.modules, "PIL", None)  # makes `import PIL` fail
        built = []
        monkeypatch.setattr(funcid.cli, "build_dataset",
                            lambda spec: built.append(spec) or {})
        out = tmp_path / "data"
        assert main(["generate", *TINY_GEN, "--out", str(out), "--export-png"]) == 2
        assert "PNG export needs pillow" in capsys.readouterr().err
        assert built == []
        assert list(tmp_path.iterdir()) == []


class TestConfigPrecedence:
    def test_generate_flag_beats_config_beats_default(self, tmp_path, capsys):
        config = _write_config(tmp_path / "gen.json", {
            "dim": 2, "per_class": 2, "per_class_test": 1, "jobs": 1,
            "out": str(tmp_path / "from_config"),
        })
        assert main(["generate", "--config", config, "--per-class", "1"]) == 0
        # --per-class beats the config's 2; per_class_test 1 and out come from
        # the config instead of the defaults 50 and ./dataset.
        assert _split_sizes(capsys.readouterr().out) == {"train": 24, "test": 24}
        assert (tmp_path / "from_config" / "train.limg").is_file()

    def test_experiment_flag_beats_config_beats_default(self, tmp_path, preset_calls):
        config = _write_config(tmp_path / "ex.json", {
            "scale": "paper", "seed": 5, "jobs": 2, "out": str(tmp_path / "cfg"),
        })
        assert main(["experiment", "UnseenL3", "--config", config, "--seed", "7"]) == 0
        assert main(["experiment", "UnseenL3", "--config", config, "--scale", "desk",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["experiment", "UnseenL3", "--out", str(tmp_path / "plain")]) == 0
        assert [(p.name, p.scale, Path(root), seed)
                for p, root, seed in preset_calls] == [
            ("UnseenL3", "paper", tmp_path / "cfg", 7),
            ("UnseenL3", "desk", tmp_path / "flag", 5),
            ("UnseenL3", "desk", tmp_path / "plain", 0),
        ]

    def test_config_set_list_precedes_set_flags(self, tmp_path, preset_calls):
        config = _write_config(tmp_path / "ex.json", {"set": ["epochs=1", "dim=2"]})
        assert main(["experiment", "UnseenL3", "--config", config, "--set", "dim=3",
                     "--out", str(tmp_path)]) == 0
        assert preset_calls[0][0].overrides == {"epochs": 1, "dim": 3}


@pytest.fixture
def preset_calls(monkeypatch) -> list:
    """Replaces the CLI's run_preset; records (preset, output_root, master_seed)."""
    calls = []

    def run_preset(preset, output_root, master_seed):
        calls.append((preset, output_root, master_seed))
        run_dir = Path(output_root) / "run"
        run_dir.mkdir(parents=True)
        (run_dir / "results.json").write_text("{}", encoding="utf-8")
        return run_dir

    monkeypatch.setattr(funcid.cli, "run_preset", run_preset)
    return calls
