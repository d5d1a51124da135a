"""Command-line runner: exit codes, output files, config overlay, and
byte-identical reproducibility."""

import argparse
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from circuit_reference import random_circuit

import qmfslab
from qmfslab import cli, models
from qmfslab.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    _build_bundle,
    _grid_horizon,
    _write_csv,
    build_parser,
    main,
    parse_args,
)
from qmfslab.models import model_from_json, model_to_json
from qmfslab.phase_space import (
    transfer_matrix,
    trusted_horizon,
    two_time_commutator,
)

# a model-file key with this value is left out of the file
ABSENT = object()


def read_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as fh:
        return json.load(fh)


def four_pairs(observables):
    """Model document of four +/- mass pairs, omega in {1, 1.7, 2.4, 3},
    with (Q_k, Pi_k) rows if ``observables`` is "collective", else the
    physical (q_k, p_k) rows of each positive-mass oscillator."""
    omegas = [1.0, 1.7, 2.4, 3.0]
    d = 4 * len(omegas)
    G = np.zeros((d, d))
    rows = []
    for k, w in enumerate(omegas):
        i = 4 * k
        G[i:i + 4, i:i + 4] = np.diag([w * w, 1.0, -w * w, -1.0])
        first, second = np.zeros(d), np.zeros(d)
        if observables == "collective":
            first[[i, i + 2]] = 1.0
            second[[i + 1, i + 3]] = [1.0, -1.0]
            labels = (f"Q{k + 1}", f"Pi{k + 1}")
        else:
            first[i] = second[i + 1] = 1.0
            labels = (f"q{k + 1}", f"p{k + 1}")
        rows += [{"label": labels[0], "s": first.tolist()},
                 {"label": labels[1], "s": second.tolist()}]
    return {"n_modes": 2 * len(omegas), "hbar": 1.0, "G": G.tolist(),
            "observables": rows}


class TestCheck:
    def test_pair_model_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model", "pair"]) == EXIT_OK
        summary = read_summary(out)
        assert summary["passed"] is True
        verdicts = {tuple(s["labels"]): s["verdict"] for s in summary["sets"]}
        assert verdicts[("Q", "Pi")] == "QMFS"
        assert verdicts[("Phi", "P")] == "QMFS"
        assert (out / "check.csv").exists()

    def test_single_oscillator_not_qmfs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model", "single"]) == EXIT_OK
        summary = read_summary(out)
        assert summary["sets"][0]["verdict"] == "NOT_QMFS"

    def test_summary_metadata(self, tmp_path):
        out = tmp_path / "run"
        main(["--out", str(out), "check", "--model", "pair"])
        summary = read_summary(out)
        assert summary["tool"] == "qmfslab"
        assert "config_hash" in summary
        assert "tolerances" in summary
        assert "tol_scale" not in summary["config"]

    @pytest.mark.parametrize("observables", ["collective", "physical"])
    def test_grid_is_the_pairwise_maximum(self, tmp_path, observables):
        # one broadcast kernel call over the grid gives exactly the
        # maximum of the per-pair commutators
        fixture = tmp_path / "four_pairs.json"
        fixture.write_text(json.dumps(four_pairs(observables)))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_OK
        bundle = model_from_json(fixture.read_text())
        model, (obs,) = bundle.model, bundle.observables
        ts = np.linspace(0.0, _grid_horizon(model), 20)
        expected = max(
            float(np.max(np.abs(two_time_commutator(model, obs, t, tp))))
            for t in ts for tp in ts)
        (entry,) = read_summary(out)["sets"]
        assert entry["grid_commutator_max"] == expected
        assert (entry["verdict"] == "QMFS") == (observables == "collective")


class TestCappedGrid:
    """The grid horizon capped at the expm bound is one the guard takes."""

    # at this omega the capped horizon of single, pair and sideband,
    # times ||A||_2 again, rounded above the bound: check rejected its
    # own grid with exit 2
    OMEGA = "6.007713856928464"

    @pytest.mark.parametrize("model", ["single", "pair", "sideband"])
    def test_rounded_horizon_accepted(self, tmp_path, capsys, model):
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model", model,
                     "--omega", self.OMEGA]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("model", ["single", "pair", "sideband"])
    def test_accepted_over_omega(self, model):
        for omega in np.linspace(5.0, 40.0, 200):
            bundle = _build_bundle(parse_args(
                ["check", "--model", model, "--omega", repr(float(omega))]))
            transfer_matrix(bundle.model,
                            np.linspace(0.0, _grid_horizon(bundle.model), 20))

    def test_grid_above_the_bound_still_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(cli, "_grid_horizon",
                            lambda model: trusted_horizon(model) * (1 + 1e-12))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model", "pair",
                     "--omega", self.OMEGA]) == EXIT_BAD_INPUT
        assert "exceeds the trusted expm bound" in capsys.readouterr().err
        assert not (out / "check.csv").exists()


class TestSimulate:
    def common(self, out, extra=()):
        return [
            "--out", str(out), "--seed", "7", "simulate",
            "--model", "pair", "--k", "2.0", "--dt", "1e-3", "--T", "0.5",
            "--batch", "3", *extra,
        ]

    def test_outputs_per_trajectory(self, tmp_path):
        out = tmp_path / "run"
        assert main(self.common(out)) == EXIT_OK
        for i in range(3):
            assert (out / f"trajectory_{i:04d}.csv").exists()
            assert (out / f"covariance_{i:04d}.csv").exists()

    def test_serial_parallel_bit_identical(self, tmp_path):
        out_s = tmp_path / "serial"
        out_p = tmp_path / "parallel"
        assert main(self.common(out_s)) == EXIT_OK
        assert main(self.common(out_p, ("--parallel", "4"))) == EXIT_OK
        for i in range(3):
            name = f"trajectory_{i:04d}.csv"
            assert (out_s / name).read_bytes() == (out_p / name).read_bytes()
            name = f"covariance_{i:04d}.csv"
            assert (out_s / name).read_bytes() == (out_p / name).read_bytes()

    def test_rerun_bit_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(self.common(out1))
        main(self.common(out2))
        assert (out1 / "trajectory_0000.csv").read_bytes() == (
            out2 / "trajectory_0000.csv"
        ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(self.common(out1))
        args = self.common(out2)
        args[args.index("7")] = "8"
        main(args)
        assert (out1 / "trajectory_0000.csv").read_bytes() != (
            out2 / "trajectory_0000.csv"
        ).read_bytes()

    @pytest.mark.parametrize("flag", ["--batch", "--parallel", "--cov-stride"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_count_below_one_is_bad_input(self, tmp_path, flag, value, capsys):
        argv = self.common(tmp_path / "run", (flag, value))
        assert main(argv) == EXIT_BAD_INPUT
        assert f"{flag} must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "summary.json").exists()

    def test_count_from_config_checked(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch": -1}))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "run"),
                "simulate", "--T", "0.1"]
        assert main(argv) == EXIT_BAD_INPUT


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.fixture
def writers(monkeypatch):
    """The threads started during the test, recorded as each starts;
    they run as they would unrecorded."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return started


def assert_no_writer_left(writers):
    assert not [thread for thread in writers if thread.is_alive()]


class TestParallelWriters:
    def run(self, out, batch, parallel):
        return main(["--out", str(out), "--seed", "5", "simulate",
                     "--model", "pair", "--k", "2", "--T", "0.2",
                     "--force-amp", "1", "--batch", str(batch),
                     "--parallel", str(parallel)])

    def assert_same_files(self, out_a, out_b, batch):
        for i in range(batch):
            for stem in ("trajectory", "covariance"):
                name = f"{stem}_{i:04d}.csv"
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("parallel", [2, 3, 64])
    def test_split_writes_the_serial_bytes(self, tmp_path, writers,
                                           parallel, batch):
        assert self.run(tmp_path / "p1", batch, 1) == EXIT_OK
        assert writers == []
        assert self.run(tmp_path / "pn", batch, parallel) == EXIT_OK
        assert len(writers) == min(parallel, batch, usable_cpus()) - 1
        assert_no_writer_left(writers)
        self.assert_same_files(tmp_path / "p1", tmp_path / "pn", batch)

    def test_uneven_split_over_three_writers(self, tmp_path, monkeypatch,
                                             writers):
        # 5 trajectories over 3 writers: shares of 2, 2 and 1
        assert self.run(tmp_path / "p1", 5, 1) == EXIT_OK
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert self.run(tmp_path / "p3", 5, 3) == EXIT_OK
        assert len(writers) == 2
        assert_no_writer_left(writers)
        self.assert_same_files(tmp_path / "p1", tmp_path / "p3", 5)

    def test_writes_without_fork(self, tmp_path, monkeypatch, writers):
        # the writers are threads: a platform without fork splits too
        def no_fork():
            raise OSError("fork is not available")

        assert self.run(tmp_path / "p1", 3, 1) == EXIT_OK
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert self.run(tmp_path / "p2", 3, 2) == EXIT_OK
        assert len(writers) == 1
        assert_no_writer_left(writers)
        self.assert_same_files(tmp_path / "p1", tmp_path / "p2", 3)

    @pytest.mark.parametrize("parallel", [2, 1])
    def test_failed_writer_is_bad_input(self, tmp_path, capsys, parallel,
                                        writers):
        out = tmp_path / "run"
        (out / "trajectory_0001.csv").mkdir(parents=True)
        assert self.run(out, 2, parallel) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trajectory_0001.csv" in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert_no_writer_left(writers)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_rerun_creates_each_file_new(self, tmp_path, parallel, writers):
        # a hard link to each old output keeps the first run's file: the
        # rerun unlinks and creates its files, it truncates none in place
        out, links = tmp_path / "run", tmp_path / "links"
        assert self.run(out, 2, parallel) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(first) == 5 and "summary.json" in first
        links.mkdir()
        for name in first:
            os.link(out / name, links / name)
        assert self.run(out, 2, parallel) == EXIT_OK
        assert_no_writer_left(writers)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        for name, data in first.items():
            assert not (links / name).samefile(out / name)
            assert (links / name).stat().st_nlink == 1
            assert (links / name).read_bytes() == data


class TestStaleOutputs:
    """A run removes every file a command writes from its --out first,
    so no output of an earlier run stays; other files stay."""

    def simulate(self, out, seed, batch):
        return main(["--out", str(out), "--seed", str(seed), "simulate",
                     "--T", "0.05", "--batch", str(batch)])

    def test_smaller_batch_leaves_no_old_trajectory(self, tmp_path):
        out = tmp_path / "run"
        assert self.simulate(out, 3, 4) == EXIT_OK
        assert self.simulate(out, 4, 2) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "covariance_0000.csv", "covariance_0001.csv", "summary.json",
            "trajectory_0000.csv", "trajectory_0001.csv"]
        assert read_summary(out)["n_trajectories"] == 2

    def test_check_after_simulate(self, tmp_path):
        out = tmp_path / "run"
        assert self.simulate(out, 3, 2) == EXIT_OK
        assert main(["--out", str(out), "check"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "check.csv", "summary.json"]

    def test_other_files_stay(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        kept = ["notes.txt", "trajectory_00a1.csv", "trajectory_0001.txt",
                "covariance_.csv", "check.csv.bak", "run_0001.csv"]
        for name in kept:
            (out / name).write_text("kept")
        (out / "covariance_0007.csv").mkdir()
        assert self.simulate(out, 3, 2) == EXIT_OK
        for name in kept:
            assert (out / name).read_text() == "kept"
        assert (out / "covariance_0007.csv").is_dir()

    def test_link_to_a_directory_is_replaced(self, tmp_path):
        # the link is removed, not followed: the run writes a new file
        # at its name, and the directory it pointed to stays as it was
        out, target = tmp_path / "run", tmp_path / "target"
        out.mkdir()
        target.mkdir()
        (target / "kept.txt").write_text("kept")
        (out / "trajectory_0000.csv").symlink_to(target)
        assert self.simulate(out, 3, 1) == EXIT_OK
        assert not (out / "trajectory_0000.csv").is_symlink()
        assert (out / "trajectory_0000.csv").read_text().startswith("time,")
        assert [p.name for p in target.iterdir()] == ["kept.txt"]

    def test_every_command_removes_the_last_ones_files(self, tmp_path):
        # each command in turn into one --out, every old file first
        # marked stale: a file a command writes and the list does not
        # name would stay marked
        circuit = tmp_path / "toffoli.txt"
        circuit.write_text("bits 3\nCCX 0 1 2\n")
        out = tmp_path / "run"
        for argv in (["simulate", "--T", "0.05", "--batch", "2"], ["check"],
                     ["force", "--T", "1"],
                     ["koopman", "--n-levels", "4", "--epsilon", "0"],
                     ["spin", "--j0-list", "2"],
                     ["circuit", "--file", str(circuit)],
                     ["simulate", "--T", "0.05", "--batch", "1"]):
            for path in out.glob("*"):
                path.write_text("stale")
            assert main(["--out", str(out), *argv]) == EXIT_OK
            names = sorted(p.name for p in out.iterdir())
            assert len(names) >= 2 and "summary.json" in names
            assert [n for n in names if (out / n).read_text() == "stale"] == []


class TestConfigHash:
    def run(self, out, seed="7", parallel="1"):
        assert main(["--out", str(out), "--seed", seed, "simulate",
                     "--T", "0.05", "--batch", "2",
                     "--parallel", parallel]) == EXIT_OK
        return read_summary(out)["config_hash"]

    def test_out_and_parallel_do_not_change_hash(self, tmp_path):
        assert self.run(tmp_path / "a") == self.run(tmp_path / "b", parallel="2")

    def test_seed_changes_hash(self, tmp_path):
        assert self.run(tmp_path / "a") != self.run(tmp_path / "b", seed="8")

    @staticmethod
    def check(out, *flags):
        assert main(["--out", str(out), "check", *flags]) == EXIT_OK
        return read_summary(out)["config_hash"]

    def test_options_the_model_does_not_take_leave_it(self, tmp_path):
        # pair takes m, omega and hbar; spin-hp takes gamma_b0 and hbar
        runs = {name: self.check(tmp_path / name, *flags) for name, flags in [
            ("pair", ["--model", "pair"]),
            ("pair-gamma", ["--model", "pair", "--gamma-b0", "3"]),
            ("pair-m", ["--model", "pair", "--m", "2"]),
            ("spin", ["--model", "spin-hp"]),
            ("spin-m", ["--model", "spin-hp", "--m", "2", "--omega", "3"]),
            ("spin-gamma", ["--model", "spin-hp", "--gamma-b0", "3"]),
        ]}
        assert runs["pair"] == runs["pair-gamma"] != runs["pair-m"]
        assert runs["spin"] == runs["spin-m"] != runs["spin-gamma"]
        assert ((tmp_path / "pair" / "check.csv").read_bytes()
                == (tmp_path / "pair-gamma" / "check.csv").read_bytes())
        # the summary's config keeps every option
        assert read_summary(tmp_path / "pair-gamma")["config"]["gamma_b0"] == 3

    @staticmethod
    def one_mode(path, g00):
        path.write_text(json.dumps({"n_modes": 1, "hbar": 1.0,
                                    "G": [[g00, 0.0], [0.0, 1.0]]}))
        return path

    def test_model_file_hashed_by_its_content(self, tmp_path):
        fixture = tmp_path / "model.json"
        self.one_mode(fixture, 1.0)
        first = self.check(tmp_path / "a", "--model-file", str(fixture))
        self.one_mode(fixture, 4.0)
        second = self.check(tmp_path / "b", "--model-file", str(fixture))
        assert ((tmp_path / "a" / "check.csv").read_bytes()
                != (tmp_path / "b" / "check.csv").read_bytes())
        assert first != second

    def test_model_file_not_hashed_by_its_path(self, tmp_path):
        # nor by --model and the model options, which a file overrides
        a = self.one_mode(tmp_path / "a.json", 4.0)
        b = self.one_mode(tmp_path / "b.json", 4.0)
        assert (self.check(tmp_path / "a", "--model-file", str(a))
                == self.check(tmp_path / "b", "--model-file", str(b),
                              "--model", "single", "--omega", "2"))


class TestCsv:
    def test_values_written_as_repr_of_float(self, tmp_path):
        rows = [[-0.0, 1e-5, 1e16, math.nan], [0.1, -2.5, 3.0, 1 / 3]]
        path = tmp_path / "x.csv"
        _write_csv(path, ["a", "b", "c", "d"], rows)
        expected = "a,b,c,d\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in rows
        )
        assert path.read_bytes() == expected.encode()
        assert path.read_text().splitlines()[1] == "-0.0,1e-05,1e+16,nan"


class TestForce:
    def test_pair_beats_single(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "--out", str(out), "force", "--model", "pair",
                "--k", "5.0", "--dt", "2e-3", "--T", "10.0",
                "--compare-single",
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(out)
        assert summary["force"]["ratio_pair_over_single"] < 1.0

    def test_spin_hp_template_at_its_pair_frequency(self, tmp_path):
        # spin-hp at gamma B0 = 2 is the pair at m = 1/2, omega = 2 (same
        # G), so the resonant template and the posterior spread agree
        spin, pair = tmp_path / "spin", tmp_path / "pair"
        assert main(["--out", str(spin), "force", "--model", "spin-hp",
                     "--gamma-b0", "2", "--T", "5"]) == EXIT_OK
        assert main(["--out", str(pair), "force", "--model", "pair",
                     "--m", "0.5", "--omega", "2", "--T", "5"]) == EXIT_OK
        assert (read_summary(spin)["force"]["posterior_std"]
                == read_summary(pair)["force"]["posterior_std"])
        assert ((spin / "force.csv").read_text()
                == (pair / "force.csv").read_text())

    def test_model_file_template_at_the_model_frequency(self, tmp_path):
        # G = diag(9, 1) with coupling (0, 1) is single at m = 1,
        # omega = 3: the template of the file's model is tuned to 3 too
        fixture = tmp_path / "single.json"
        fixture.write_text(json.dumps(
            {"n_modes": 1, "hbar": 1.0, "G": [[9.0, 0.0], [0.0, 1.0]],
             "force_couplings": [[0.0, 1.0]]}))
        runs = {"file": ["--model-file", str(fixture)],
                "single": ["--model", "single", "--m", "1", "--omega", "3"]}
        for name, argv in runs.items():
            assert main(["--out", str(tmp_path / name), "force", *argv,
                         "--T", "5"]) == EXIT_OK
        assert ((tmp_path / "file" / "force.csv").read_bytes()
                == (tmp_path / "single" / "force.csv").read_bytes())

    def test_summary_names_the_model_that_ran(self, tmp_path):
        # a model file is named as the file, not as the default --model
        fixture = tmp_path / "single.json"
        fixture.write_text(json.dumps(
            {"n_modes": 1, "hbar": 1.0, "G": [[9.0, 0.0], [0.0, 1.0]],
             "force_couplings": [[0.0, 1.0]]}))
        runs = {f"model from {fixture}": ["--model-file", str(fixture)],
                "positive-mass oscillator, m=1.0, omega=3.0":
                    ["--model", "single", "--omega", "3"],
                "positive/negative-mass oscillator pair, m=1.0, omega=1.0":
                    ["--model", "pair"]}
        for i, (name, argv) in enumerate(runs.items()):
            out = tmp_path / f"run{i}"
            assert main(["--out", str(out), "force", *argv,
                         "--T", "2"]) == EXIT_OK
            assert read_summary(out)["force"]["model"] == name

    @pytest.mark.parametrize("model, flags, pair_flags", [
        ("sideband", ["--omega", "1.5"], ["--m", "1", "--omega", "1.5"]),
        ("spin-hp", ["--gamma-b0", "2"], ["--m", "0.5", "--omega", "2"]),
    ])
    def test_compare_single_on_every_pair_model(self, tmp_path, model,
                                                flags, pair_flags):
        # each model is compared with the single oscillator of the pair
        # it maps to, so its table is the pair's
        runs = {}
        for name, argv in ((model, ["--model", model, *flags]),
                           ("pair", ["--model", "pair", *pair_flags])):
            runs[name] = tmp_path / name
            assert main(["--out", str(runs[name]), "force", *argv,
                         "--T", "2", "--compare-single"]) == EXIT_OK
        table = (runs[model] / "force.csv").read_text()
        assert table.splitlines()[0].endswith(",ratio_pair_over_single")
        assert table == (runs["pair"] / "force.csv").read_text()
        assert read_summary(runs[model])["force"]["ratio_pair_over_single"] < 1

    @pytest.mark.parametrize("source", ["single", "file"])
    def test_compare_single_needs_a_pair_model(self, tmp_path, capsys,
                                               source):
        # a model file has no single oscillator to compare with, even
        # when it holds the pair
        fixture = tmp_path / "pair.json"
        fixture.write_text(model_to_json(models.oscillator_pair(1, 1).model))
        model = (["--model", "single"] if source == "single"
                 else ["--model-file", str(fixture)])
        out = tmp_path / "run"
        assert main(["--out", str(out), "force", *model, "--T", "2",
                     "--compare-single"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --compare-single needs a pair model")
        assert "Traceback" not in err
        assert not (out / "force.csv").exists()
        assert not (out / "summary.json").exists()


class TestUnknownFlag:
    @pytest.mark.parametrize("argv", [["--bogus", "2", "check"],
                                      ["check", "--bogus", "2"],
                                      ["--bogus=2", "check"],
                                      ["--n-levels", "32", "koopman"]],
                             ids=["before", "after", "equals", "sub-flag"])
    def test_named_on_one_error_line(self, tmp_path, capsys, argv):
        # before the subcommand argparse would take the flag's value as
        # the subcommand; after it, print its usage and exit itself
        out = tmp_path / "run"
        assert main(["--out", str(out), *argv]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: ")
        assert captured.err.count("\n") == 1
        assert argv[0 if argv[0] != "check" else 1].split("=")[0] \
            in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "simulate", "force"])
    def test_j0_is_not_a_model_option(self, tmp_path, capsys, command):
        # no model of check, simulate or force reads J0: spin-hp is the
        # large-spin limit, in which it drops out
        out = tmp_path / "run"
        assert main(["--out", str(out), command, "--model", "spin-hp",
                     "--j0", "3"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --j0 3\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j0": 3}))
        assert main(["--config", str(cfg), "--out", str(out),
                     command]) == EXIT_BAD_INPUT
        assert "unknown config keys: ['j0']" in capsys.readouterr().err
        assert not out.exists()

    def test_known_flags_and_prefixes_still_parse(self, tmp_path):
        out = tmp_path / "run"
        args = parse_args(["--se", "4", "--out=" + str(out), "check"])
        assert args.seed == 4 and args.out == str(out)

    def test_double_dash_before_the_subcommand(self, tmp_path):
        # "--" ends the root options; argparse alone would take it as the
        # subcommand's name
        out = tmp_path / "run"
        assert main(["--out", str(out), "--", "check"]) == EXIT_OK
        assert read_summary(out)["config"]["command"] == "check"


class TestKoopman:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "koopman"]) == EXIT_OK
        summary = read_summary(out)
        assert summary["oracle_residual"] < summary["tolerances"]["oracle_residual"]
        assert (out / "classical.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--m", "2"],
        ["--omega", "2"],
        ["--m", "3", "--epsilon", "0"],
        ["--m", "1e-150", "--epsilon", "0"],
    ], ids=["m", "omega", "linear", "tiny-mass-linear"])
    def test_oracle_at_the_flow_scale(self, tmp_path, argv):
        # the ladder at reference scale |m| omega: at scale 1 the first
        # three exit 1 with residuals 0.011, 0.0037 and 0.28; the tiny
        # mass needs the observables in natural units as well (1.1e135
        # without them)
        out = tmp_path / "run"
        assert main(["--out", str(out), "koopman", *argv]) == EXIT_OK
        summary = read_summary(out)
        assert summary["oracle_residual"] < 1e-6


class TestRunTimeBadInput:
    """Input that only fails once the run starts: exit 2 with the
    message, no traceback and no summary."""

    def check_bad_input(self, out, argv, capsys, message):
        assert main(["--out", str(out), *argv]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert not (out / "classical.csv").exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--q0"])
    def test_flow_divergence(self, tmp_path, capsys, flag):
        self.check_bad_input(tmp_path / "run", ["koopman", flag, "1e6"],
                             capsys, "trajectory norm exceeded")

    def test_step_too_coarse(self, tmp_path, capsys):
        self.check_bad_input(tmp_path / "run", ["koopman", "--dt", "3"],
                             capsys, "step-halving error")

    def test_failed_rerun_leaves_no_summary(self, tmp_path, capsys):
        # the first run's summary does not outlive a rerun that fails
        out = tmp_path / "run"
        assert main(["--out", str(out), "simulate", "--model", "pair",
                     "--k", "2", "--T", "0.5", "--batch", "2"]) == EXIT_OK
        assert read_summary(out)["passed"] is True
        self.check_bad_input(out, ["simulate", "--model", "pair", "--k",
                                   "1e300", "--T", "0.01", "--batch", "2"],
                             capsys, "covariance step(s)")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "pair", "--k", "1e12", "--T", "0.01"],
        ["force", "--model", "pair", "--k", "1e12"],
        ["simulate", "--k", "1e6"],  # 161 restarts in each of 1e4 steps
    ])
    def test_too_many_covariance_restarts(self, tmp_path, capsys, argv):
        # these ran for minutes, splitting every step into up to 1.6e8 parts
        start = time.perf_counter()
        self.check_bad_input(tmp_path / "run", argv, capsys, "h ||H||_2 = ")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [
        pytest.param(["check", "--omega", "1e300"], id="check-omega"),
        pytest.param(["check", "--model", "single", "--omega", "1e160"],
                     id="check-single-omega"),
        pytest.param(["check", "--model", "sideband", "--omega", "1e200"],
                     id="check-sideband-omega"),
        pytest.param(["simulate", "--T", "0.01", "--omega", "1e160"],
                     id="simulate-omega"),
        pytest.param(["force", "--omega", "1e160"], id="force-omega"),
        pytest.param(["spin", "--gamma-b0", "1e160"], id="spin-gamma-b0"),
        pytest.param(["simulate", "--T", "0.01", "--hbar", "1e300"],
                     id="simulate-hbar"),
        pytest.param(["force", "--hbar", "1e300"], id="force-hbar"),
        pytest.param(["koopman", "--omega", "1e160"], id="koopman-omega"),
    ])
    def test_square_overflows_a_float(self, tmp_path, capsys, argv):
        # x**2 of a finite float raised OverflowError: a traceback, exit 1
        flag, value = argv[-2:]
        name = {"--gamma-b0": "gamma_B0"}.get(flag, flag[2:])
        assert main(["--out", str(tmp_path / "run"), *argv]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: {name} is too large: {name}**2 overflows a float, got "
            f"{float(value)!r}\n")
        assert not (tmp_path / "run" / "summary.json").exists()

    @pytest.mark.parametrize("argv, message", [
        # 0.7 / gamma_b0 was inf: two RuntimeWarnings, then "SVD did not
        # converge"
        pytest.param(["spin", "--gamma-b0", "1e-320"],
                     "gamma_b0 is too small: the period 2 pi / gamma_b0 "
                     "overflows a float, got 1e-320", id="spin-gamma-b0"),
        # a harmonic flow whose H has an overflowing norm: an overflow
        # warning, then exit 1 with oracle_residual 5.13
        pytest.param(["koopman", "--m", "1e-200", "--epsilon", "0"],
                     "(1/m) is too large: (1/m)**2 overflows a float, got "
                     "1e+200", id="koopman-small-m"),
        # named before the flow runs, where Pi passed the divergence guard
        pytest.param(["koopman", "--m", "1e200", "--epsilon", "0"],
                     "(m*omega**2) is too large: (m*omega**2)**2 overflows a "
                     "float, got 1e+200", id="koopman-large-m"),
        # the oracle's scale |m| omega underflowed to 0.0: "ref_scale must
        # be positive", naming no flag, after classical.csv was written
        pytest.param(["koopman", "--m", "1e-150", "--omega", "1e-300"],
                     "--m and --omega are too small: the oracle's scale "
                     "|m|*omega underflows to 0.0, got --m 1e-150 and "
                     "--omega 1e-300", id="koopman-scale"),
    ])
    def test_derived_value_overflows_a_float(self, tmp_path, capsys, argv,
                                             message):
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--out", str(out), *argv]) == EXIT_BAD_INPUT
        assert not caught
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "summary.json").exists()
        assert not (out / "classical.csv").exists()

    def test_restart_count_is_short(self, tmp_path, capsys):
        # the count was printed as a 297-digit integer
        self.check_bad_input(tmp_path / "run",
                             ["simulate", "--k", "1e300", "--T", "0.01"],
                             capsys, " into 1.6e+296 restarts, ")

    @pytest.mark.parametrize("argv, message", [
        # a stage's Q**2 overflowed: a traceback, exit 1
        (["--epsilon", "1e300"], "trajectory norm exceeded 1e+12 at t = 0.001"),
        # m omega^2 = inf: a classical.csv of nan, then exit 2 from the
        # Fock build
        (["--m", "1e300", "--omega", "1e10"], "coefficients must be finite"),
    ])
    def test_overflowing_flow_writes_nothing(self, tmp_path, capsys, argv,
                                             message):
        self.check_bad_input(tmp_path / "run", ["koopman", *argv], capsys,
                             message)

    def test_zero_force_coupling(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "n_modes": 1, "hbar": 1.0, "G": [[1.0, 0.0], [0.0, 1.0]],
            "force_couplings": [[0.0, 0.0]]}))
        self.check_bad_input(tmp_path / "run",
                             ["force", "--model-file", str(path)],
                             capsys, "zero force coupling")


# every command at smoke size, writing under argv[1]; prints, after
# each, its exit code and whether scipy is loaded
IMPORT_PROBE = """
import json, sys
from pathlib import Path
from qmfslab import cli
out = Path(sys.argv[1])
(out / "toffoli.txt").write_text("bits 3\\nCCX 0 1 2\\n")
runs = [
    ["check", "--model", "pair"],
    ["check", "--model", "spin-hp"],
    ["--seed", "3", "simulate", "--model", "pair", "--k", "2", "--T", "0.5",
     "--batch", "2", "--force-amp", "1"],
    ["force", "--model", "pair", "--compare-single", "--T", "2"],
    ["koopman"],
    ["circuit", "--file", str(out / "toffoli.txt"), "--verify"],
    ["spin", "--j0-list", "2,4"],
]
report = []
for i, argv in enumerate(runs):
    code = cli.main(["--out", str(out / str(i)), *argv])
    report.append([argv, code, "scipy" in sys.modules])
print(json.dumps(report))
"""


class TestImportBoundary:
    """Every command runs on numpy alone: scipy (0.2-0.3 s to import) is
    a test dependency only."""

    def test_no_command_loads_scipy(self, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(qmfslab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        for argv, code, scipy_loaded in report:
            assert code == EXIT_OK, argv
            assert not scipy_loaded, argv

    def test_import_builds_no_formatter_table(self):
        # the CSV formatter's tables are built on its first call
        env = {**os.environ,
               "PYTHONPATH": str(Path(qmfslab.__file__).parents[1])}
        probe = ("import sys; from qmfslab import cli, csvtext; "
                 "print(csvtext._tables.cache_info().currsize, "
                 "'scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]


# public functions that no command runs, each with what plans its caller
NOT_RUN_BY_A_COMMAND = {
    "conditional.riccati_evolve": "ROADMAP items 3 and 14",
    "conditional.estimate_force_batch": "ROADMAP item 4",
    "conditional.symplectic_eigenvalues": "ROADMAP item 6",
    "conditional.partial_transpose_cov": "ROADMAP item 6",
    "conditional.evolve_conditional": "a layer benchmarks/harness.py binds",
    "fock.top_level_population": "ROADMAP item 7",
    "koopman.integrate_with_tangent": "ROADMAP item 7",
    "models.model_to_json": "the model-file writer the README and CI use",
    "phase_space.two_time_commutator":
        "BENCHMARK.json's per-layer metrics name it (ROADMAP item 10)",
}


class TestLibraryIsWhatCommandsRun:
    """Every function a module of ``src/`` exports in ``__all__`` runs
    in some command, or is kept for the caller that NOT_RUN_BY_A_COMMAND
    names."""

    def test_every_public_function_runs(self, tmp_path):
        (tmp_path / "toffoli.txt").write_text("bits 3\nCCX 0 1 2\n")
        pair = models.oscillator_pair(1.0, 1.0)
        (tmp_path / "pair.json").write_text(models.model_to_json(
            pair.model, pair.qmfs_sets[0], monitor=models.ROW_Q))
        runs = [
            ["check", "--model", "sideband"],
            ["check", "--model-file", str(tmp_path / "pair.json")],
            ["--seed", "3", "simulate", "--model", "pair", "--k", "2",
             "--T", "0.5", "--batch", "2", "--force-amp", "1",
             "--parallel", "1"],
            ["force", "--model", "pair", "--compare-single", "--T", "2"],
            ["koopman"],
            ["spin", "--j0-list", "2,4"],
            ["circuit", "--file", str(tmp_path / "toffoli.txt"), "--verify"],
        ]
        ran = set()

        def record(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            codes = [main(["--out", str(tmp_path / str(i)), *argv])
                     for i, argv in enumerate(runs)]
        finally:
            sys.setprofile(previous)
        assert codes == [EXIT_OK] * len(runs)
        not_run = set()
        for info in pkgutil.iter_modules(qmfslab.__path__):
            module = importlib.import_module(f"qmfslab.{info.name}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if (isinstance(obj, types.FunctionType)
                        and obj.__code__ not in ran):
                    not_run.add(f"{info.name}.{name}")
        assert not_run == set(NOT_RUN_BY_A_COMMAND)


class TestSpin:
    def test_sweep(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "spin", "--j0-list", "2,4"]) == EXIT_OK
        lines = (out / "spin_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two rows

    def test_beyond_the_old_dense_cap(self, tmp_path):
        # J0 = 32 is dimension 65^2 = 4225, above the old dense cap 4096
        out = tmp_path / "run"
        assert main(["--out", str(out), "spin", "--j0-list", "4,32"]) == EXIT_OK
        summary = read_summary(out)
        rows = np.loadtxt(out / "spin_sweep.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == [4.0, 32.0]
        assert np.all(rows[:, 1] < summary["tolerances"]["identity_residual"])

    @pytest.mark.parametrize("j0_list", ["4,200", "0.7", "4,-2", "-1"])
    def test_j0_outside_the_block_path_is_bad_input(self, tmp_path, capsys,
                                                    j0_list):
        out = tmp_path / "run"
        assert main(["--out", str(out), "spin",
                     "--j0-list", j0_list]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --j0-list ") and "J0" in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()


class TestCircuit:
    def test_file_from_config(self, tmp_path):
        circ = tmp_path / "toffoli.txt"
        circ.write_text("bits 3\nCCX 0 1 2\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"file": str(circ), "verify": True}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out),
                     "circuit"]) == EXIT_OK
        assert read_summary(out)["n_bits"] == 3
        assert read_summary(out)["dense_deviation"] == 0

    def test_file_flag_beats_config(self, tmp_path):
        toffoli, cnot = tmp_path / "toffoli.txt", tmp_path / "cnot.txt"
        toffoli.write_text("bits 3\nCCX 0 1 2\n")
        cnot.write_text("bits 2\nCX 0 1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"file": str(toffoli)}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "circuit",
                     "--file", str(cnot)]) == EXIT_OK
        assert read_summary(out)["n_bits"] == 2

    @pytest.mark.parametrize("doc", [None, {"file": None}, {"verify": True}])
    def test_file_still_required(self, tmp_path, capsys, doc):
        argv = ["--out", str(tmp_path / "run"), "circuit"]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = ["--config", str(cfg), *argv]
        # one error line from main on every Python: argparse before 3.13
        # would print its usage and exit by itself
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the following arguments are "
                                "required: --file\n")
        assert not (tmp_path / "run").exists()

    def test_truth_tables_and_verify(self, tmp_path):
        circ = tmp_path / "toffoli.txt"
        circ.write_text("bits 3\nCCX 0 1 2\n")
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "circuit", "--file", str(circ), "--verify"]
        )
        assert code == EXIT_OK
        summary = read_summary(out)
        assert summary["dense_deviation"] == 0
        lines = (out / "truth_tables.csv").read_text().strip().splitlines()
        assert len(lines) == 9

    def test_one_permutation_per_table_and_per_oracle(self, tmp_path,
                                                      monkeypatch):
        # the truth tables of every bit come from one permutation, and
        # the dense oracle builds its U from one more
        from qmfslab import circuits

        circuit = random_circuit(8, 64, np.random.default_rng(7))
        circ = tmp_path / "eight.txt"
        circ.write_text(circuit.to_text())
        calls = []
        honest = circuits.circuit_permutation

        def counted(c):
            calls.append(c)
            return honest(c)

        monkeypatch.setattr(circuits, "circuit_permutation", counted)
        argv = ["--out", str(tmp_path / "run"), "circuit", "--file", str(circ)]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1
        tables = circuits.propagate_z(circuit)
        calls.clear()
        assert circuits._dense_deviations(circuit, tables) == (0, 0, 0)
        assert len(calls) == 1
        calls.clear()
        assert main([*argv, "--verify"]) == EXIT_OK
        assert read_summary(tmp_path / "run")["dense_deviation"] == 0
        assert len(calls) == 2

    def test_missing_file_is_bad_input(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "circuit", "--file", str(tmp_path / "nope")]
        )
        assert code == EXIT_BAD_INPUT

    @pytest.mark.parametrize("data, message", [
        (b"bits 3 4\nCCX 0 1 2\n", "line 1: 'bits 3 4': expected \"bits N\""),
        (b"CCX 0 1 2\n", 'circuit text must start with "bits N"'),
        (b"bits 3\nCX 0 x\n", "line 2: 'CX 0 x': expected integers"),
        (b"bits 3\nCCX 0 1 7\n", "out of range for 3 bits"),
        (b"bits 3\nCCX 0 1 \xff\n", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_bad_file_names_itself(self, tmp_path, capsys, data, message):
        circ = tmp_path / "circ.txt"
        circ.write_bytes(data)
        out = tmp_path / "run"
        for verify in ([], ["--verify"]):
            argv = ["--out", str(out), "circuit", "--file", str(circ), *verify]
            assert main(argv) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith(f"error: circuit from {circ}: ")
            assert message in err and err.count("\n") == 1
            assert not (out / "truth_tables.csv").exists()
            assert not (out / "summary.json").exists()

    def test_verify_past_the_dense_limit_writes_nothing(self, tmp_path,
                                                        capsys):
        # the dense oracle's limit is checked before any table is made
        circ = tmp_path / "nine.txt"
        circ.write_text("bits 9\nCCX 0 1 8\n")
        out = tmp_path / "run"
        argv = ["--out", str(out), "circuit", "--file", str(circ)]
        assert main([*argv, "--verify"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            "error: dense oracle limited to 8 bits\n")
        assert not (out / "truth_tables.csv").exists()
        assert not (out / "summary.json").exists()
        assert main(argv) == EXIT_OK
        assert read_summary(out)["n_bits"] == 9


class TestOneParserPerProcess:
    """``build_parser`` is built once; parses in a row do not share
    state."""

    def test_parses_in_a_row_equal_fresh_parses(self, tmp_path):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"seed": 3, "batch": 2, "T": 0.5,
                                   "model": "sideband"}))
        circ = tmp_path / "circ.json"
        circ.write_text(json.dumps({"file": "c.txt", "verify": True}))
        argvs = [
            ["check", "--model", "sideband", "--omega", "2"],
            ["--config", str(sim), "simulate"],
            ["--config", str(sim), "simulate", "--batch", "4", "--T=0.25"],
            ["--seed", "9", "simulate"],
            ["--config", str(circ), "circuit"],
            ["circuit", "--file", "d.txt"],
            ["--config", str(sim), "--seed", "5", "simulate", "--model",
             "pair"],
            ["koopman", "--n-levels", "24"],
            ["check"],
        ]
        bad = [["check", "--bogus", "1"], ["circuit"],
               ["--config", str(sim), "check"]]
        build_parser.cache_clear()
        assert build_parser() is build_parser()
        in_a_row = []
        for argv in argvs + argvs[::-1]:
            in_a_row.append(vars(parse_args(argv)))
            for wrong in bad:  # failed parses in between change nothing
                with pytest.raises((argparse.ArgumentError, ValueError)):
                    parse_args(wrong)
        fresh = []
        for argv in argvs + argvs[::-1]:
            build_parser.cache_clear()
            fresh.append(vars(parse_args(argv)))
        assert in_a_row == fresh
        # the config's value, a flag over it, and the defaults after both
        assert fresh[1]["model"] == "sideband" and fresh[6]["model"] == "pair"
        assert (fresh[1]["batch"], fresh[2]["batch"], fresh[3]["batch"]) \
            == (2, 4, 1)

    def test_mains_in_a_row_equal_fresh_mains(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sideband", "omega": 2}))
        argvs = [["--config", str(cfg), "check"], ["check"],
                 ["check", "--model", "single"],
                 ["--config", str(cfg), "check", "--omega", "3"]]

        def configs(tag, fresh):
            out = []
            for i, argv in enumerate(argvs):
                if fresh:
                    build_parser.cache_clear()
                run = tmp_path / f"{tag}{i}"
                assert main(["--out", str(run), *argv]) == EXIT_OK
                summary = read_summary(run)
                summary["config"].pop("out")
                out.append((summary["config"], summary["config_hash"],
                            (run / "check.csv").read_bytes()))
            return out

        assert configs("row", False) == configs("fresh", True)


class TestBadRealFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spin", "--gamma-b0", "0"], "--gamma-b0"),
            (["spin", "--gamma-b0", "nan"], "--gamma-b0"),
            (["koopman", "--omega", "0"], "--omega"),
            (["koopman", "--omega", "inf"], "--omega"),
            (["koopman", "--m", "0"], "--m"),
            (["force", "--k", "0"], "--k"),
            (["force", "--k", "-1"], "--k"),
            (["spin", "--gamma-b0", "-1"], "--gamma-b0"),
            (["check", "--model", "spin-hp", "--gamma-b0", "-1"], "--gamma-b0"),
            (["simulate", "--model", "spin-hp", "--gamma-b0", "-1"],
             "--gamma-b0"),
            (["force", "--model", "spin-hp", "--gamma-b0", "-1"], "--gamma-b0"),
            # omega enters the koopman flow only as omega^2, but the
            # oracle's time grid runs to 2/omega
            (["koopman", "--omega", "-1"], "--omega"),
            (["check", "--model", "spin-hp", "--gamma-b0", "nan"],
             "--gamma-b0"),
            (["force", "--model", "spin-hp", "--hbar", "-1"], "--hbar"),
            (["simulate", "--eta", "1.5"], "--eta"),
            (["force", "--eta", "0"], "--eta"),
            (["simulate", "--eta", "nan"], "--eta"),
            (["simulate", "--dt", "-1"], "--dt"),
            (["force", "--dt", "0"], "--dt"),
            (["simulate", "--T", "-2"], "--T"),
            (["force", "--T", "nan"], "--T"),
            # model values the model builders would reject after the
            # output directory is made
            (["check", "--model", "pair", "--omega", "-1"], "--omega"),
            (["check", "--model", "single", "--hbar", "0"], "--hbar"),
            (["check", "--model", "single", "--m", "0"], "--m"),
            (["check", "--model", "sideband", "--omega", "0"], "--omega"),
        ],
    )
    def test_bad_value_is_bad_input(self, tmp_path, argv, flag, capsys):
        out = tmp_path / "run"
        assert main(["--out", str(out), *argv]) == EXIT_BAD_INPUT
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not out.exists()  # rejected while parsing, before any run

    def test_value_from_config_checked(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma_b0": 0.0}))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "run"), "spin"]
        assert main(argv) == EXIT_BAD_INPUT


class TestNonFiniteOrNegativeValues:
    """Bad real values exit 2 before any output, on the CLI and via config."""

    CASES = [
        ("simulate", "k", "-1", "--k must be"),
        ("simulate", "k", "nan", "--k must be"),
        ("simulate", "force_amp", "nan", "--force-amp must be"),
        ("simulate", "force_freq", "inf", "--force-freq must be"),
        ("simulate", "force_phase", "nan", "--force-phase must be"),
        ("simulate", "dt", "nan", "--dt must be"),
        ("simulate", "T", "inf", "--T must be"),
        ("force", "dt", "nan", "--dt must be"),
        ("force", "T", "inf", "--T must be"),
        ("check", "gamma_b0", "inf", "--gamma-b0 must be"),
        ("check", "hbar", "nan", "--hbar must be"),
        ("check", "omega", "nan", "--omega must be"),
        ("check", "m", "inf", "--m must be"),
        ("simulate", "omega", "nan", "--omega must be"),
        ("force", "hbar", "inf", "--hbar must be"),
        ("koopman", "dt", "nan", "--dt must be"),
        ("koopman", "dt", "0", "--dt must be"),
        ("koopman", "T", "inf", "--T must be"),
        ("koopman", "epsilon", "nan", "--epsilon must be"),
        ("koopman", "q0", "inf", "--q0 must be"),
        ("koopman", "pi0", "nan", "--pi0 must be"),
        ("koopman", "n_levels", "1", "--n-levels must be"),
        ("koopman", "n_levels", "2", "--n-levels must be"),
        ("koopman", "n_levels", "100", "--n-levels must be"),
        ("koopman", "n_levels", "2.5", "--n-levels must be"),
    ]
    BASE = {"simulate": {"T": "0.05", "force_amp": "1"},
            "force": {"T": "0.5"}, "check": {"model": "spin-hp"},
            "koopman": {"n_levels": "8"}}

    def base_argv(self, command, key):
        """Short-run flags for command, leaving key to the test."""
        return [arg for k, v in self.BASE[command].items() if k != key
                for arg in ("--" + k.replace("_", "-"), v)]

    @pytest.mark.parametrize("command, key, value, message", CASES)
    def test_on_the_command_line(self, tmp_path, capsys, command, key,
                                 value, message):
        out = tmp_path / "run"
        flag = "--" + key.replace("_", "-")
        argv = ["--out", str(out), command, *self.base_argv(command, key),
                flag, value]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command, key, value, message", CASES)
    def test_from_config(self, tmp_path, capsys, command, key, value,
                         message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        out = tmp_path / "run"
        argv = ["--config", str(cfg), "--out", str(out), command,
                *self.base_argv(command, key)]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_k_zero_is_an_unmonitored_run(self, tmp_path):
        out = tmp_path / "run"
        argv = ["--out", str(out), "simulate", "--T", "0.05", "--k", "0"]
        assert main(argv) == EXIT_OK
        header = (out / "trajectory_0000.csv").read_text().splitlines()[0]
        assert "yrecord" not in header


class TestModelChoices:
    def test_choices_are_the_builders(self):
        (choices,) = {tuple(a.choices) for a in
                      subcommand_parsers()["check"]._actions
                      if a.dest == "model"}
        assert list(choices) == list(models.BUILDERS)

    # each model as the runner built it before it dispatched on BUILDERS
    EXPECTED = {
        "single": lambda a: models.single_oscillator(a.m, a.omega, a.hbar),
        "pair": lambda a: models.oscillator_pair(a.m, a.omega, a.hbar),
        "sideband": lambda a: models.sideband_model(a.omega, a.hbar),
        "spin-hp": lambda a: models.spin_pair_hp(a.gamma_b0, a.hbar),
    }

    @pytest.mark.parametrize("name", list(models.BUILDERS))
    def test_every_builder_gets_its_options(self, name):
        args = build_parser().parse_args([
            "check", "--model", name, "--m", "2", "--omega", "1.5",
            "--hbar", "0.5", "--gamma-b0", "0.7",
        ])
        bundle = _build_bundle(args)
        expected = self.EXPECTED[name](args)
        assert bundle.description == expected.description
        assert np.array_equal(bundle.model.G, expected.model.G)
        assert bundle.model.hbar == expected.model.hbar
        assert (bundle.omega, bundle.m) == (expected.omega, expected.m)


def subcommand_parsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return sub.choices


class TestConfig:
    @pytest.mark.parametrize("command", sorted(subcommand_parsers()))
    def test_every_option_is_a_config_key(self, tmp_path, command):
        options = {
            a.dest: a.default
            for a in subcommand_parsers()[command]._actions
            if a.option_strings and a.dest != "help"
        }
        assert options
        argv = [command] + (["--file", "c.txt"] if command == "circuit" else [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, **options}))
        args = parse_args(["--config", str(cfg), *argv])
        assert args.seed == 3

    @pytest.mark.parametrize("command", sorted(subcommand_parsers()))
    def test_unknown_key_exits_2(self, tmp_path, command):
        # tol_scale / --tol-scale: an option that was removed
        argv = ["--out", str(tmp_path / "run"), command]
        if command == "circuit":
            argv += ["--file", str(tmp_path / "c.txt")]
        cfg = tmp_path / "cfg.json"
        for doc in ({"not_a_key": 1}, {"tol_scale": 1}):
            cfg.write_text(json.dumps(doc))
            assert main(["--config", str(cfg), *argv]) == EXIT_BAD_INPUT
        for flagged in (["--tol-scale", "2", *argv],
                        [*argv, "--tol-scale", "2"]):
            assert main(flagged) == EXIT_BAD_INPUT
        assert "--tol-scale" not in build_parser().format_help()

    def test_other_subcommand_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch": 2}))
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "check"])
        assert code == EXIT_BAD_INPUT

    def test_config_overlay(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "single", "omega": 2.0}))
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "check"])
        assert code == EXIT_OK
        summary = read_summary(out)
        assert summary["config"]["model"] == "single"
        assert summary["config"]["omega"] == 2.0

    def test_explicit_flag_wins_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "single"}))
        out = tmp_path / "run"
        main(["--config", str(cfg), "--out", str(out), "check",
              "--model", "pair"])
        assert read_summary(out)["config"]["model"] == "pair"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"not_a_key": 1}))
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "check"])
        assert code == EXIT_BAD_INPUT

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "check"])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: config from {cfg}: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("data, message", [
        (b'{"seed": 3,}', "Expecting property name enclosed in double quotes"),
        (b'{"seed": 3\xff}', "'utf-8' codec can't decode byte 0xff"),
        (b"[3]", "config must be a JSON object"),
        (b'{"sed": 3}', "unknown config keys: ['sed']"),
    ])
    def test_bad_file_names_itself(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        out = tmp_path / "run"
        code = main(["--config", str(cfg), "--out", str(out), "check"])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: config from {cfg}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestModelFile:
    def test_model_fixture_round_trip(self, tmp_path):
        bundle = models.oscillator_pair(1.0, 1.0)
        fixture = tmp_path / "model.json"
        fixture.write_text(model_to_json(bundle.model, bundle.qmfs_sets[0]))
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "check", "--model-file", str(fixture)]
        )
        assert code == EXIT_OK
        (entry,) = read_summary(out)["sets"]
        assert entry["verdict"] == "QMFS"

    def test_several_modes_need_observables(self, tmp_path, capsys):
        # a 2-mode file without observables has nothing to check
        fixture = tmp_path / "no_observables.json"
        fixture.write_text(json.dumps(
            {"n_modes": 2, "hbar": 1.0, "G": np.eye(4).tolist()}))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2 modes and no 'observables'" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"hbar": math.nan}, "hbar must be finite and positive, got nan"),
        ({"G": [[math.inf, 0.0], [0.0, 1.0]]},
         "G must be finite, got inf at entry [0, 0]"),
        ({"G": [[1.0, math.nan], [math.nan, 1.0]]},
         "G must be finite, got nan at entry [0, 1]"),
        ({"observables": [{"label": "a", "s": [1.0, math.nan]}]},
         "observables must be finite, got nan at entry [0, 1]"),
    ], ids=["hbar-nan", "G-inf", "G-nan", "row-nan"])
    def test_non_finite_value_is_bad_input(self, tmp_path, capsys, doc,
                                           message):
        # json reads NaN and Infinity; each is named on one error line
        # with the file
        fixture = tmp_path / "model.json"
        fixture.write_text(json.dumps({**self.NO_COUPLING, **doc}))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: model from {fixture}: {message}\n")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"n_modes": 1.5}, ": 'n_modes' must be an integer >= 1, got 1.5"),
        ({"n_modes": "2"}, ": 'n_modes' must be an integer >= 1, got '2'"),
        ({"n_modes": True}, ": 'n_modes' must be an integer >= 1, got True"),
        ({"n_modes": 0}, ": 'n_modes' must be an integer >= 1, got 0"),
        ({"n_modes": ABSENT}, " has no 'n_modes'"),
        ({"G": ABSENT}, " has no 'G'"),
        ({"observables": [{"s": [1.0, 0.0]}]},
         ": observable 0 has no 'label'"),
        ({"observables": [{"label": "q", "s": [1.0, 0.0]}, {"label": "p"}]},
         ": observable 1 has no 's'"),
        ({"observables": [5]}, ": observable 0 has no 's'"),
        # a row of the wrong length names the key, the row and 2 n_modes
        ({"observables": [{"label": "q", "s": [1.0, 0.0]},
                          {"label": "p", "s": [1.0]}]},
         ": observables row 1 must be a list of 2 numbers, got [1.0]"),
        ({"observables": [{"label": "q", "s": [1.0, 0.0, 0.0]}]},
         ": observables row 0 must be a list of 2 numbers, got [1.0, 0.0, 0.0]"),
        ({"observables": [{"label": "q", "s": [[1.0, 0.0]]}]},
         ": observables row 0 must be a list of 2 numbers, got [[1.0, 0.0]]"),
        ({"force_couplings": [[0.0, 1.0], [1.0]]},
         ": force_couplings row 1 must be a list of 2 numbers, got [1.0]"),
        ({"monitor": [1.0]}, ": monitor must be a list of 2 numbers, got [1.0]"),
        ({"observables": 5}, ": observables must be a list, got 5"),
        ({"force_couplings": 5}, ": force_couplings must be a list, got 5"),
        ({"hbar": [1]}, ": 'hbar' must be a number > 0, got [1]"),
        ({"hbar": None}, ": 'hbar' must be a number > 0, got None"),
        ({"hbar": "2"}, ": 'hbar' must be a number > 0, got '2'"),
        ({"hbar": True}, ": 'hbar' must be a number > 0, got True"),
        ({"hbar": 0}, ": 'hbar' must be a number > 0, got 0"),
        ({"G": [[1, 0], [0]]},
         ": G must be a 2 x 2 list of numbers, got [[1, 0], [0]]"),
        ({"G": [[1, 0], [0, "a"]]},
         ": G must be a 2 x 2 list of numbers, got [[1, 0], [0, 'a']]"),
        ({"G": 5}, ": G must be a 2 x 2 list of numbers, got 5"),
        ({"G": [[1]]}, ": G must be a 2 x 2 list of numbers, got [[1]]"),
        # a number is a JSON int or float: no numeric text, bool or null
        ({"G": [["1", 0], [0, "2"]], "monitor": ["1", "0"]},
         ": G must be a 2 x 2 list of numbers, got [['1', 0], [0, '2']]"),
        ({"monitor": ["1", "0"]},
         ": monitor must be a list of 2 numbers, got ['1', '0']"),
        ({"G": [[True, 0], [0, 1]]},
         ": G must be a 2 x 2 list of numbers, got [[True, 0], [0, 1]]"),
        ({"G": [[1, None], [None, 1]]},
         ": G must be a 2 x 2 list of numbers, got [[1, None], [None, 1]]"),
        ({"observables": [{"label": "a", "s": [True, False]}]},
         ": observables row 0 must be a list of 2 numbers, got [True, False]"),
        ({"observables": [{"label": 3, "s": [1, 0]}]},
         ": observable 0's label must be a string, got 3"),
        ({"hbar": 10**400}, ": 'hbar' has a number too large for a float"),
        ({"G": [[10**400, 0], [0, 1]]},
         ": G has a number too large for a float"),
        ({"monitr": [0, 1]}, ": unknown keys ['monitr']"),
        ({"G": [[1, 2], [0, 1]]}, ": G must be exactly symmetric"),
    ], ids=["n_modes-float", "n_modes-str", "n_modes-bool", "n_modes-zero",
            "no-n_modes", "no-G", "no-label", "no-s", "number-row",
            "observable-short", "observable-long", "observable-nested",
            "coupling-short", "monitor-short", "observables-number",
            "couplings-number", "hbar-list", "hbar-null", "hbar-str",
            "hbar-bool", "hbar-zero", "G-ragged", "G-text", "G-number",
            "G-small", "G-numeric-text", "monitor-numeric-text", "G-bool",
            "G-null", "row-bool", "label-number", "hbar-huge", "G-huge",
            "unknown-key", "G-asymmetric"])
    def test_bad_or_missing_key_is_bad_input(self, tmp_path, capsys, doc,
                                             message):
        # one error line naming the file and the key; ABSENT drops the key
        merged = {**self.NO_COUPLING, **doc}
        fixture = tmp_path / "model.json"
        fixture.write_text(json.dumps(
            {key: value for key, value in merged.items() if value is not ABSENT}))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: model from {fixture}{message}\n")
        assert not (out / "summary.json").exists()

    def test_file_that_is_no_object_is_bad_input(self, tmp_path, capsys):
        fixture = tmp_path / "model.json"
        fixture.write_text("[1, 2]")
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: model from {fixture} has no 'n_modes'\n")

    def test_file_that_is_no_json_is_bad_input(self, tmp_path, capsys):
        fixture = tmp_path / "model.json"
        fixture.write_text('{"n_modes": 1,}')
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: model from {fixture}: Expecting property name enclosed "
            "in double quotes: line 1 column 15 (char 14)\n")
        assert not (out / "summary.json").exists()

    def test_file_that_is_no_utf8_is_bad_input(self, tmp_path, capsys):
        fixture = tmp_path / "model.json"
        fixture.write_bytes(b'{"n_modes": 1,\xff}')
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == (
            f"error: model from {fixture}: 'utf-8' codec can't decode byte "
            "0xff in position 14: invalid start byte\n")
        assert not (out / "summary.json").exists()

    def test_one_mode_checks_q_and_p(self, tmp_path):
        fixture = tmp_path / "one_mode.json"
        fixture.write_text(json.dumps(self.NO_COUPLING))
        out = tmp_path / "run"
        assert main(["--out", str(out), "check", "--model-file",
                     str(fixture)]) == EXIT_OK
        (entry,) = read_summary(out)["sets"]
        assert entry["labels"] == ["q", "p"]
        assert entry["verdict"] == "NOT_QMFS"

    def test_four_pairs_up_to_omega_three(self, tmp_path):
        # the commutator grid horizon follows the model's own spectrum;
        # a fixed omega = 1 would push ||A t|| past the trusted expm bound
        doc = four_pairs("collective")
        observables = doc["observables"]
        fixture = tmp_path / "four_pairs.json"
        fixture.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(
            ["--out", str(out), "check", "--model-file", str(fixture)]
        )
        assert code == EXIT_OK
        sets = read_summary(out)["sets"]
        assert [label for s in sets for label in s["labels"]] == [
            o["label"] for o in observables
        ]
        for entry in sets:
            assert entry["verdict"] == "QMFS"
            assert entry["grid_consistent"] is True

    @pytest.mark.parametrize("command", ["simulate", "force"])
    def test_monitor_needs_one_or_two_modes(self, tmp_path, capsys, command):
        # only a 1-mode file has a default monitor row (q): a 2-mode
        # file (once measured as Q = q + q') and a 4-pair file need the
        # "monitor" key, and without it exit 2 on one line naming it
        for n_pairs in (1, 4):
            d = 4 * n_pairs
            G = np.kron(np.eye(n_pairs), np.diag([1.0, 1.0, -1.0, -1.0]))
            fixture = tmp_path / f"pairs_{n_pairs}.json"
            fixture.write_text(json.dumps(
                {"n_modes": 2 * n_pairs, "hbar": 1.0, "G": G.tolist(),
                 "force_couplings": [np.eye(d)[1].tolist()]}))
            out = tmp_path / f"run_{n_pairs}"
            assert main(["--out", str(out), command, "--model-file",
                         str(fixture), "--T", "0.1"]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err == (f"error: model from {fixture} names no row to "
                           "measure; a model file gives it under "
                           "\"monitor\"\n")
            assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "force"])
    def test_pair_file_with_monitor_writes_the_pair_bytes(self, tmp_path,
                                                          command):
        # the pair builder's model and monitor row, read from a file,
        # give the builder's CSVs byte for byte
        bundle = models.oscillator_pair(1.0, 1.0)
        fixture = tmp_path / "pair.json"
        fixture.write_text(model_to_json(bundle.model, monitor=models.ROW_Q))
        argv = {"simulate": ["simulate", "--k", "2", "--T", "0.5",
                             "--batch", "2", "--force-amp", "1"],
                "force": ["force", "--T", "2"]}[command]
        runs = {"file": ["--model-file", str(fixture)],
                "pair": ["--model", "pair"]}
        for name, model in runs.items():
            assert main(["--out", str(tmp_path / name), "--seed", "3",
                         *argv, *model]) == EXIT_OK
        names = sorted(f.name for f in (tmp_path / "pair").glob("*.csv"))
        assert names == sorted(f.name for f in (tmp_path / "file").glob("*.csv"))
        assert len(names) == (4 if command == "simulate" else 1)
        for name in names:
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "pair" / name).read_bytes())

    def test_four_pairs_simulated_with_a_monitor_row(self, tmp_path):
        # monitoring pair 0's Q squeezes its (Q, Pi) block below the
        # Heisenberg product, as for the 2-mode pair
        doc = four_pairs("collective")
        d = 4 * 4
        q, pi = np.zeros(d), np.zeros(d)
        q[[0, 2]] = 1.0
        pi[[1, 3]] = [1.0, -1.0]
        doc["monitor"] = q.tolist()
        fixture = tmp_path / "four_pairs.json"
        fixture.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["--out", str(out), "simulate", "--model-file",
                     str(fixture), "--k", "2", "--T", "2"]) == EXIT_OK
        header, *rows = (out / "covariance_0000.csv").read_text().splitlines()
        time_, *values = (float(x) for x in rows[-1].split(","))
        assert time_ == 2.0
        V = np.zeros((d, d))
        V[np.triu_indices(d)] = values
        V = V + np.triu(V, 1).T
        S = np.array([q, pi])
        assert np.linalg.det(S @ V @ S.T) < 0.25  # (hbar / 2)^2
        trajectory = (out / "trajectory_0000.csv").read_text()
        assert trajectory.splitlines()[0].endswith(",mean_15,yrecord_0")

    def test_unmonitored_run_needs_no_monitor_row(self, tmp_path):
        fixture = tmp_path / "four_pairs.json"
        fixture.write_text(json.dumps(four_pairs("collective")))
        out = tmp_path / "run"
        assert main(["--out", str(out), "simulate", "--model-file",
                     str(fixture), "--k", "0", "--T", "0.1"]) == EXIT_OK
        assert (out / "trajectory_0000.csv").exists()

    @pytest.mark.parametrize("monitor, message", [
        ([1.0, 0.0],
         "{file}: monitor must be a list of 4 numbers, got [1.0, 0.0]"),
        ([[1.0, 0.0, 1.0, 0.0]], "{file}: monitor must be a list of 4 "
                                 "numbers, got [[1.0, 0.0, 1.0, 0.0]]"),
        (1.0, "{file}: monitor must be a list of 4 numbers, got 1.0"),
        (["q", 0.0, 1.0, 0.0], "{file}: monitor must be a list of 4 numbers, "
                               "got ['q', 0.0, 1.0, 0.0]"),
        ([0.0, 0.0, 0.0, 0.0], "{file}: monitor must be nonzero"),
        ([1.0, 0.0, math.nan, 0.0],
         "{file}: monitor must be finite, got nan at entry [2]"),
        ([1.0, math.inf, 1.0, 0.0],
         "{file}: monitor must be finite, got inf at entry [1]"),
    ], ids=["short", "nested", "number", "text", "zero", "nan", "inf"])
    @pytest.mark.parametrize("command", ["check", "simulate", "force"])
    def test_bad_monitor_is_bad_input(self, tmp_path, capsys, monitor,
                                      message, command):
        doc = json.loads(model_to_json(models.oscillator_pair(1, 1).model))
        fixture = tmp_path / "pair.json"
        fixture.write_text(json.dumps({**doc, "monitor": monitor}))
        # the file is rejected as it is read, before any run
        out = tmp_path / "run"
        assert main(["--out", str(out), command, "--model-file",
                     str(fixture)]) == EXIT_BAD_INPUT
        message = message.format(file=f"model from {fixture}")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "summary.json").exists()

    # a 1-mode model with no force port
    NO_COUPLING = {"n_modes": 1, "hbar": 1.0, "G": [[1.0, 0.0], [0.0, 1.0]]}

    @pytest.mark.parametrize("argv", [["force"],
                                      ["simulate", "--force-amp", "1"]])
    def test_force_needs_a_coupling(self, tmp_path, capsys, argv):
        fixture = tmp_path / "no_coupling.json"
        fixture.write_text(json.dumps(self.NO_COUPLING))
        out = tmp_path / "run"
        assert main(["--out", str(out), *argv, "--model-file", str(fixture),
                     "--T", "0.1"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: the model has no force coupling")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_unforced_run_needs_no_coupling(self, tmp_path):
        fixture = tmp_path / "no_coupling.json"
        fixture.write_text(json.dumps(self.NO_COUPLING))
        out = tmp_path / "run"
        assert main(["--out", str(out), "simulate", "--model-file",
                     str(fixture), "--T", "0.1"]) == EXIT_OK
        assert (out / "trajectory_0000.csv").exists()


# a valid non-default value for each option that takes text
OTHER_TEXT = {"out": "elsewhere", "model_file": "m.json", "j0_list": "3,5"}
# ... and for each number option whose default + 1 is out of range
OTHER_NUMBER = {"eta": 0.5}


def other_value(action):
    """A valid value of an option that differs from its default."""
    if action.nargs == 0:
        return True
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    if action.dest in OTHER_NUMBER:
        return OTHER_NUMBER[action.dest]
    if isinstance(action.default, (int, float)):
        return action.default + 1
    return OTHER_TEXT[action.dest]


def option_cases():
    """(command, is_root, action) for every option but --help, --config
    and required ones (those come from the command line)."""
    root = build_parser()
    cases = []
    for command, sub in subcommand_parsers().items():
        for is_root, parser in ((True, root), (False, sub)):
            cases += [pytest.param(command, is_root, a,
                                   id=f"{command}-{a.dest}")
                      for a in parser._actions
                      if a.option_strings and a.dest not in ("help", "config")
                      and not a.required]
    return cases


class TestConfigIsParsedLikeFlags:
    """A --config value is converted and checked as the flag would be."""

    @staticmethod
    def parsed(tmp_path, argv, doc=None):
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = ["--config", str(cfg), *argv]
        items = vars(parse_args(argv)).items()
        return [(key, value) for key, value in items if key != "config"]

    @pytest.mark.parametrize("command, is_root, action", option_cases())
    def test_flag_and_config_parse_alike(self, tmp_path, command, is_root,
                                         action):
        value = other_value(action)
        required = ["--file", "c.txt"] if command == "circuit" else []
        flag = [action.option_strings[0]]
        if action.nargs != 0:
            flag.append(str(value))
        argv = ([*flag, command, *required] if is_root
                else [command, *required, *flag])
        by_flag = self.parsed(tmp_path, argv)
        by_config = self.parsed(tmp_path, [command, *required],
                                {action.dest: value})
        assert by_flag == by_config
        assert dict(by_flag)[action.dest] != action.default

    @pytest.mark.parametrize("flags, key, given", [
        (["--bat", "4"], "batch", 4),
        (["--k=3"], "k", 3.0),
        (["--batch=4"], "batch", 4),
    ])
    def test_given_flag_beats_config(self, tmp_path, flags, key, given):
        parsed = dict(self.parsed(tmp_path, ["simulate", *flags],
                                  {"batch": 2, "k": 5}))
        assert parsed[key] == given

    @pytest.mark.parametrize("flags", [["--seed", "4"], ["--se=4"]])
    def test_given_root_flag_beats_config(self, tmp_path, flags):
        for argv in ([*flags, "check"], ["--out", "x", *flags, "check"]):
            parsed = dict(self.parsed(tmp_path, argv, {"seed": 3}))
            assert parsed["seed"] == 4

    def test_values_that_start_with_a_dash(self, tmp_path, monkeypatch):
        by_flag = self.parsed(tmp_path, ["simulate", "--force-phase=-1.5"])
        assert by_flag == self.parsed(tmp_path, ["simulate"],
                                      {"force_phase": -1.5})
        monkeypatch.chdir(tmp_path)
        assert (self.parsed(tmp_path, ["--out=-run", "check"])
                == self.parsed(tmp_path, ["check"], {"out": "-run"}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": "-run"}))
        assert main(["--config", str(cfg), "check"]) == EXIT_OK
        assert read_summary(tmp_path / "-run")["config"]["out"] == "-run"

    @pytest.mark.parametrize("argv", [["--config={}", "simulate"],
                                      ["--conf", "{}", "simulate"],
                                      ["--config", "{}", "--", "simulate"]],
                             ids=["equals", "prefix", "double-dash"])
    def test_every_form_of_the_config_flag(self, tmp_path, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "batch": 4}))
        expected = parse_args(["--config", str(cfg), "simulate"])
        assert (expected.seed, expected.batch) == (3, 4)
        assert parse_args([a.format(cfg) for a in argv]) == expected

    def test_null_keeps_the_default(self, tmp_path):
        parsed = dict(self.parsed(tmp_path, ["check"], {"omega": None}))
        assert parsed["omega"] == 1.0

    @pytest.mark.parametrize("command, doc, flags", [
        ("check", {"omega": "2"}, ["--omega", "2"]),
        ("simulate", {"dt": "0.001", "T": 0.05}, ["--dt", "0.001",
                                                  "--T", "0.05"]),
        ("spin", {"j0_list": 4}, ["--j0-list", "4"]),
    ])
    def test_valid_text_runs_as_the_flag(self, tmp_path, command, doc,
                                         flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "by_config", tmp_path / "by_flag"
        assert main(["--config", str(cfg), "--out", str(a), command]) == EXIT_OK
        assert main(["--out", str(b), command, *flags]) == EXIT_OK
        assert (read_summary(a)["config_hash"]
                == read_summary(b)["config_hash"])
        for path in a.glob("*.csv"):
            assert path.read_bytes() == (b / path.name).read_bytes()

    def test_int_in_config_hashes_as_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 2}))
        a, b = tmp_path / "by_config", tmp_path / "by_flag"
        assert main(["--config", str(cfg), "--out", str(a), "check"]) == EXIT_OK
        assert main(["--out", str(b), "check", "--omega", "2"]) == EXIT_OK
        assert read_summary(a)["config"]["omega"] == 2.0
        assert (read_summary(a)["config_hash"]
                == read_summary(b)["config_hash"])

    @pytest.mark.parametrize("command, doc, flag", [
        ("check", {"seed": "a"}, "--seed"),
        ("check", {"omega": True}, "--omega"),
        ("koopman", {"n_levels": 2.5}, "--n-levels"),
        ("simulate", {"seed": 1.5}, "--seed"),
        ("simulate", {"batch": 0}, "--batch"),
        ("spin", {"j0_list": [2, 4]}, "--j0-list"),
        ("spin", {"j0_list": "2,x"}, "--j0-list"),
        ("circuit", {"verify": "no"}, "--verify"),
        ("force", {"compare_single": 1}, "--compare-single"),
        ("check", {"model": "nope"}, "--model"),
        # J0 values that spins.build_spin_pair rejects
        ("spin", {"j0_list": "4,200"}, "--j0-list"),
        ("spin", {"j0_list": 0.7}, "--j0-list"),
        ("spin", {"j0_list": "4,-2"}, "--j0-list"),
        ("spin", {"j0_list": -1}, "--j0-list"),
        # level counts that fock.TruncationSpec rejects for two modes
        ("koopman", {"n_levels": 1}, "--n-levels"),
        ("koopman", {"n_levels": 100}, "--n-levels"),
        # a core of one state per mode: a residual that cannot fail
        ("koopman", {"n_levels": 2}, "--n-levels"),
    ])
    def test_bad_value_exits_2_naming_the_flag(self, tmp_path, capsys,
                                               command, doc, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        argv = ["--config", str(cfg), "--out", str(out), command]
        if command == "circuit":
            circ = tmp_path / "c.txt"
            circ.write_text("bits 1\nX 0\n")
            argv += ["--file", str(circ)]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_config_model_gets_the_flag_message(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "nope"}))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out),
                     "check"]) == EXIT_BAD_INPUT
        by_config = capsys.readouterr().err
        assert main(["--out", str(out), "check",
                     "--model", "nope"]) == EXIT_BAD_INPUT
        assert by_config == capsys.readouterr().err
        assert all(name in by_config for name in models.BUILDERS)


class TestUnallocatableRun:
    def test_huge_horizon_is_bad_input(self, tmp_path, capsys):
        # 1e15 steps: numpy refuses the petabyte noise array at once
        out = tmp_path / "run"
        assert main(["--out", str(out), "simulate",
                     "--T", "1e12"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
