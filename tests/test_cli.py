"""Tests of the command-line front end (``funcid.cli.main``)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from funcid.cli import main
from funcid.suite import Suite, evaluate, make_instance, problem


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


class TestFuncsList:
    def test_lists_suite_in_order(self, capsys):
        assert main(["funcs", "list", "--suite", "discrete"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["1", "2", "3", "4", "5", "6"]
        assert lines[0].split()[1] == "OneMax"


# A tiny UnseenL3Noisy run: one image per class and split, one epoch.
TINY_L3 = ["--set", "per_class_train=1", "--set", "per_class_test=1", "--set", "epochs=1",
           "--jobs", "1"]


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

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code = main(["experiment", "UnseenL3Noisy", "--out", str(tmp_path),
                     "--set", "epoch=1"])
        assert code == 2
        assert "unknown override(s) ['epoch']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
