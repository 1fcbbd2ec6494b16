import argparse
import configparser
import json
import re
from pathlib import Path

import numpy as np
import pytest

from flowattack import cli
from flowattack import io as flowio
from flowattack.cli import main
from flowattack.core import FlowField, Perturbation, PerturbMode
from flowattack.diffflow import EstimatorConfig, FlowEstimator, builtin_estimators
from flowattack.synthetic import make_pair


@pytest.fixture
def tiny_manifest(tmp_path):
    """Two 24x24 frame pairs on disk plus one ground-truth flow."""
    root = tmp_path / "data"
    root.mkdir()
    lines = []
    for k in range(2):
        f1, f2, gt = make_pair(50 + k, 24, 24)
        flowio.write_image_png(root / f"p{k}_1.png", f1, bit_depth=16)
        flowio.write_image_png(root / f"p{k}_2.png", f2, bit_depth=16)
        if k == 0:
            flowio.write_flo(root / f"p{k}.flo", gt)
            lines.append(f"p{k}_1.png p{k}_2.png p{k}.flo")
        else:
            lines.append(f"p{k}_1.png p{k}_2.png")
    manifest = root / "pairs.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def run(args):
    return main([str(a) for a in args])


class TestAttackCommand:
    def test_synthetic_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run(["--out", out, "--seed", 3, "--deterministic", "attack",
                    "--eps2", "5e-3", "--steps", "3"])
        assert code == 0
        report = (out / "report.jsonl").read_text().strip().splitlines()
        assert len(report) == 1
        record = json.loads(report[0])
        assert record["mu"] == 5e5  # default pairing applied and echoed
        assert record["runtime_ms"] == 0.0
        trace = record["trace"]
        # the start and every accepted step but the last permitted one
        assert trace["stop_reason"] == "max_steps"
        assert trace["grad_evals"] == trace["steps_taken"]
        assert trace["value_evals"] >= trace["steps_taken"]
        for suffix in ("flow_init", "flow_adv", "flow_target", "delta1",
                       "delta2", "img_adv1", "img_adv2"):
            assert (out / f"pair000_{suffix}.png").is_file()
        assert (out / "config_echo.ini").is_file()

    def test_report_backtracks_account_for_value_evals(self, tmp_path):
        from flowattack.optim import LbfgsParams
        out = tmp_path / "out"
        assert run(["--out", out, "--seed", 3, "--deterministic", "attack",
                    "--eps2", "5e-3", "--steps", "3"]) == 0
        trace = json.loads((out / "report.jsonl").read_text())["trace"]
        assert len(trace["backtracks"]) == trace["steps_taken"]
        failed = (LbfgsParams().max_backtracks
                  if trace["stop_reason"] == "line_search" else 0)
        assert trace["value_evals"] == sum(b + 1 for b in trace["backtracks"]) + failed

    @pytest.mark.parametrize("method", ["pcfa", "ifgsm"])
    def test_report_loss_init(self, tmp_path, method):
        """The report holds the objective at the start, which an L-BFGS
        step only lowers, and I-FGSM's first step records as its first."""
        out = tmp_path / "out"
        assert run(["--out", out, "--seed", 3, "--deterministic", "attack",
                    "--method", method, "--eps2", "5e-3", "--steps", "2"]) == 0
        trace = json.loads((out / "report.jsonl").read_text())["trace"]
        assert isinstance(trace["loss_init"], float)
        if method == "pcfa":
            assert trace["loss_init"] > trace["loss_first"]
        else:
            assert trace["loss_init"] == trace["loss_first"]

    def test_deterministic_reports_byte_identical(self, tmp_path,
                                                  tiny_manifest):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(["--out", out, "--seed", 11, "--deterministic",
                        "attack", "--manifest", tiny_manifest,
                        "--eps2", "5e-3", "--steps", "3"])
            assert code == 0
            outs.append((out / "report.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_jobs_parallel_matches_serial(self, tmp_path, tiny_manifest):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        base = ["--seed", 4, "--deterministic", "attack", "--manifest",
                tiny_manifest, "--eps2", "1e-3", "--steps", "2"]
        assert run(["--out", serial] + base) == 0
        assert run(["--out", parallel, "--jobs", 2] + base) == 0
        assert (serial / "report.jsonl").read_bytes() == \
            (parallel / "report.jsonl").read_bytes()

    def test_jobs_capped_at_pair_count(self, tmp_path, tiny_manifest,
                                       monkeypatch):
        pools = []

        class SerialPool:
            """Records the worker count asked for; maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert run(["--out", tmp_path / "two", "--jobs", 64, "attack",
                    "--manifest", tiny_manifest, "--steps", 1]) == 0
        assert pools == [2]
        # a single pair runs in this process, without a pool
        assert run(["--out", tmp_path / "one", "--jobs", 64, "attack",
                    "--steps", 1]) == 0
        assert pools == [2]

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        assert run(["--out", out, "--jobs", jobs, "attack"]) == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_target_grid_mismatch_is_exit_2(self, tmp_path, capsys,
                                                   tiny_manifest):
        flo = tmp_path / "small.flo"
        flowio.write_flo(flo, FlowField(np.zeros((2, 5, 5))))
        frames = [tiny_manifest.parent / "p0_1.png",
                  tiny_manifest.parent / "p0_2.png"]
        assert run(["--out", tmp_path / "out", "attack", "--frames", *frames,
                    "--target", "custom", "--target-file", flo,
                    "--steps", 1]) == 2
        err = capsys.readouterr().err
        assert err == ("shape mismatch: custom target does not match "
                       "the frame grid\n")
        assert not (tmp_path / "out").exists()

    def test_corrupt_target_file_is_io_error(self, tmp_path, capsys):
        flo = tmp_path / "bad.flo"
        flo.write_bytes(b"PIEH\x02\x00\x00\x00\x02")
        assert run(["--out", tmp_path / "out", "attack", "--target", "custom",
                    "--target-file", flo, "--steps", 1]) == 2
        err = capsys.readouterr().err
        assert err == f"i/o error: {flo}: truncated flow file header\n"

    def test_missing_input_no_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run(["--out", out, "attack", "--frames", tmp_path / "no1.png",
                    tmp_path / "no2.png"])
        assert code == 2
        assert not out.exists()

    def test_corrupt_input_is_io_error(self, tmp_path):
        bad1 = tmp_path / "bad1.png"
        bad1.write_bytes(b"\x89PNG\r\n\x1a\n" + b"junk")
        bad2 = tmp_path / "bad2.png"
        bad2.write_bytes(b"\x89PNG\r\n\x1a\n" + b"junk")
        code = run(["--out", tmp_path / "out", "attack", "--frames", bad1, bad2])
        assert code == 2

    @pytest.mark.parametrize("command", ["attack", "universal"])
    @pytest.mark.parametrize("blob", [b"a.png b.png c.flo d.png\n",
                                      b"\xff\xfe a.png b.png\n"])
    def test_malformed_manifest_is_io_error(self, tmp_path, capsys, command,
                                            blob):
        manifest = tmp_path / "pairs.txt"
        manifest.write_bytes(blob)
        out = tmp_path / "out"
        assert run(["--out", out, command, "--manifest", manifest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert not out.exists()

    def test_unreadable_universal_pairs_are_io_error(self, tmp_path, capsys):
        for name in ("a.ppm", "b.ppm"):
            (tmp_path / name).write_bytes(b"P6 0 5 255 ")
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("a.ppm b.ppm\n")
        with pytest.warns(UserWarning):
            code = run(["--out", tmp_path / "out", "universal",
                        "--manifest", manifest])
        assert code == 2
        assert "no readable pairs" in capsys.readouterr().err

    def test_ifgsm_method(self, tmp_path, tiny_manifest):
        out = tmp_path / "out"
        code = run(["--out", out, "--deterministic", "attack", "--manifest",
                    tiny_manifest, "--method", "ifgsm", "--eps2", "5e-3",
                    "--steps", "4"])
        assert code == 0
        record = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert record["mu"] is None
        assert record["linf"] <= 5e-3 + 1e-12
        assert record["trace"]["grad_evals"] == 4
        assert record["trace"]["value_evals"] == 0
        assert record["trace"]["stop_reason"] == "max_steps"
        assert record["initial_quality"] is not None  # pair 0 carries a gt

    def test_ifgsm_budget_needs_no_mu(self, tmp_path):
        # eps2 is I-FGSM's L-infinity budget, which no penalty weight
        # goes with: a budget with no finite default mu for PCFA runs
        out = tmp_path / "out"
        assert run(["--out", out, "attack", "--method", "ifgsm",
                    "--eps2", "1e-300", "--steps", 1]) == 0
        record = json.loads((out / "report.jsonl").read_text())
        assert record["eps2"] == 1e-300 and record["mu"] is None
        assert record["linf"] <= 1e-300

    def test_initial_quality_never_uses_attacked_flow(self, tmp_path,
                                                      tiny_manifest):
        # quality is measured on the unattacked prediction only, so it
        # cannot depend on the attack budget
        values = []
        for name, eps2 in (("big", "5e-2"), ("tiny", "5e-5")):
            out = tmp_path / name
            assert run(["--out", out, "--deterministic", "attack",
                        "--manifest", tiny_manifest, "--eps2", eps2,
                        "--steps", "3"]) == 0
            first = json.loads((out / "report.jsonl").read_text().splitlines()[0])
            values.append(first["initial_quality"])
        assert values[0] == values[1]
        assert values[0] is not None


class TestConfigFile:
    def test_config_drives_attack(self, tmp_path, tiny_manifest):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[attack]\neps2 = 1e-3\nsteps = 2\nloss = mse\n"
                       f"[dataset]\nmanifest = {tiny_manifest}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "--deterministic",
                    "attack"]) == 0
        record = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert record["eps2"] == 1e-3
        assert record["loss"] == "mse"

    def test_cli_overrides_config(self, tmp_path, tiny_manifest):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[attack]\neps2 = 1e-3\nsteps = 2\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "--deterministic", "attack",
                    "--manifest", tiny_manifest, "--eps2", "5e-4"]) == 0
        record = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert record["eps2"] == 5e-4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[attack]\nepsilon = 1e-3\n")
        assert run(["--config", cfg, "attack"]) == 1

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[attacker]\neps2 = 1e-3\n")
        assert run(["--config", cfg, "attack"]) == 1

    @pytest.mark.parametrize("text", [
        b"eps2 = 1e-3\n",
        b"[attack]\neps2 = 1e-3\neps2 = 2e-3\n",
        b"[attack]\neps2 = 1e-3\n[attack]\nsteps = 2\n",
        b"[dataset]\nmanifest = a%b\n",
        b"[attack]\neps2 = \xff\n",
    ], ids=["no-section-header", "duplicate-option", "duplicate-section",
            "bad-interpolation", "not-utf8"])
    def test_unparsable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "attack"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: config file {cfg}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "universal", "transfer"])
    def test_unknown_estimator_label_rejected(self, tmp_path, tiny_manifest,
                                              capsys, command):
        # hs_pyr is a typo of hs-pyr and sets no solver key; transfer reads
        # no [estimator] section, only one per label it names
        cfg = tmp_path / "run.ini"
        cfg.write_text("[estimator.hs_pyr]\n" if command == "transfer"
                       else "[estimator]\nlabel = hs_pyr\n")
        pert = tmp_path / "zero.npz"
        flowio.write_perturbation(
            pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        extra = {"attack": [],
                 "universal": ["--manifest", tiny_manifest],
                 "transfer": ["--estimators", "hs_pyr", "--perturbations",
                              pert, "--manifest", tiny_manifest]}[command]
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, command, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unknown estimator 'hs_pyr'")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_new_estimator_label_with_solver_key(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[estimator]\nlabel = coarse\niterations = 5\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "attack", "--steps", 1]) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "config_echo.ini")
        assert dict(echo["estimator"]) == {
            "label": "coarse", "alpha": "0.05", "iterations": "5",
            "levels": "1", "warp": "false"}

    @pytest.mark.parametrize("line", ["iterations = abc", "alpha = -1",
                                      "levels = 0", "warp = maybe"])
    def test_bad_solver_value_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[estimator]\nlabel = hs\n{line}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "attack"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags,text", [
        (["--eps2", "nan"], None), (["--eps2", "inf"], None),
        (["--mu", "inf"], None), ([], "[estimator]\nalpha = inf\n"),
        # budgets whose default mu overflows (aee) or is inf (mse)
        (["--eps2", "1e-300"], None), (["--eps2", "1e-310", "--loss", "mse"], None)])
    def test_nonfinite_setting_is_usage_error(self, tmp_path, capsys, flags,
                                              text):
        cfg = tmp_path / "run.ini"
        argv = []
        if text is not None:
            cfg.write_text(text)
            argv = ["--config", cfg]
        out = tmp_path / "out"
        assert run([*argv, "--out", out, "attack", "--steps", 2, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "universal"])
    def test_target_file_needs_custom_target(self, tmp_path, capsys,
                                             tiny_manifest, command):
        out = tmp_path / "out"
        assert run(["--out", out, command, "--manifest", tiny_manifest,
                    "--target", "zero", "--target-file",
                    tmp_path / "nonexistent.flo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "target_file" in err
        assert not out.exists()

    def test_echo_records_target_file(self, tmp_path):
        flo = tmp_path / "zero.flo"
        flowio.write_flo(flo, FlowField(np.zeros((2, 64, 64))))
        out = tmp_path / "out"
        assert run(["--out", out, "attack", "--target", "custom",
                    "--target-file", flo, "--steps", 1]) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "config_echo.ini")
        assert echo["attack"]["target"] == "custom"
        assert echo["attack"]["target_file"] == str(flo)


# Settings each run does not read: (run, config file text, flags, what the
# error line names). `ifgsm` is `attack --method ifgsm`; the flags --mu,
# --box and --mode exist for `attack` but an I-FGSM run reads none of them.
UNREAD = [
    ("attack", "[universal]\nepochs = 7\n", [], "[universal] epochs"),
    ("attack", "[transfer]\nestimators = hs\n", [], "[transfer] estimators"),
    ("attack", "[estimator.fast]\niterations = 3\n", [],
     "[estimator.fast] iterations"),
    ("attack", "[universal]\n", [], "section [universal]"),
    ("attack", "[DEFAULT]\neps2 = 1e-3\n", [], "[DEFAULT] eps2"),
    ("ifgsm", "[attack]\nmu = 7\n", [], "[attack] mu"),
    ("ifgsm", "[attack]\nbox = cov\n", [], "[attack] box"),
    ("ifgsm", "[attack]\nmode = joint\n", [], "[attack] mode"),
    ("ifgsm", None, ["--mu", "7"], "[attack] mu"),
    ("ifgsm", None, ["--box", "cov"], "[attack] box"),
    ("ifgsm", None, ["--mode", "joint"], "[attack] mode"),
    ("ifgsm", "[universal]\nbatch_size = 2\n", [], "[universal] batch_size"),
    ("ifgsm", "[estimator.fast]\niterations = 3\n", [],
     "[estimator.fast] iterations"),
    ("universal", "[attack]\nsteps = 7\n", [], "[attack] steps"),
    ("universal", "[attack]\nmethod = pcfa\n", [], "[attack] method"),
    ("universal", "[transfer]\nperturbations = a.npz\n", [],
     "[transfer] perturbations"),
    ("universal", "[estimator.fast]\niterations = 3\n", [],
     "[estimator.fast] iterations"),
    ("transfer", "[estimator]\niterations = 7\n", [], "[estimator] iterations"),
    ("transfer", "[estimator]\nlabel = hs\n", [], "[estimator] label"),
    ("transfer", "[attack]\nbox = cov\n", [], "[attack] box"),
    ("transfer", "[attack]\neps2 = 1e-3\n", [], "[attack] eps2"),
    ("transfer", "[universal]\nepochs = 2\n", [], "[universal] epochs"),
    # a section for a label the run does not name (it names only hs)
    ("transfer", "[estimator.fast]\niterations = 3\n", [],
     "[estimator.fast] iterations"),
    ("transfer", "[estimator.hs-pyr]\n", [], "section [estimator.hs-pyr]"),
    # label is not a solver key: it would rename the row
    ("transfer", "[estimator.hs]\nlabel = hs-pyr\n", [],
     "[estimator.hs] label"),
]


@pytest.fixture
def run_argv(tmp_path, tiny_manifest):
    """The command line after the global options that makes each run
    succeed on valid inputs."""
    pert = tmp_path / "zero.npz"
    flowio.write_perturbation(
        pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
    frames = [tiny_manifest.parent / "p0_1.png", tiny_manifest.parent / "p0_2.png"]
    return {"attack": ["attack", "--steps", 1],
            "frames": ["attack", "--frames", *frames, "--steps", 1],
            "ifgsm": ["attack", "--method", "ifgsm", "--steps", 1],
            "universal": ["universal", "--manifest", tiny_manifest,
                          "--epochs", 1],
            "transfer": ["transfer", "--estimators", "hs", "--perturbations",
                         pert, "--manifest", tiny_manifest]}


class TestSettingsTable:
    @pytest.mark.parametrize("name,text,flags,named", UNREAD, ids=[
        f"{name}-{'flag' if flags else 'file'}-{named}"
        for name, _, flags, named in UNREAD])
    def test_unread_setting_is_usage_error(self, tmp_path, run_argv, capsys,
                                           name, text, flags, named):
        cfg = tmp_path / "run.ini"
        config = []
        if text is not None:
            cfg.write_text(text)
            config = ["--config", cfg]
        out = tmp_path / "out"
        assert run([*config, "--out", out, *run_argv[name], *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {name} reads no {named}; "
                              "it reads ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,attack_keys", [
        ("attack", {"method", "eps2", "mu", "loss", "target", "box", "mode",
                    "steps"}),
        ("ifgsm", {"method", "eps2", "loss", "target", "steps"}),
        ("universal", {"eps2", "mu", "loss", "target", "box", "mode"}),
    ])
    def test_echo_holds_only_what_the_run_reads(self, tmp_path, run_argv,
                                                name, attack_keys):
        out = tmp_path / "out"
        assert run(["--out", out, *run_argv[name]]) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "config_echo.ini")
        assert set(echo["attack"]) == attack_keys
        for section in echo.sections():
            assert set(echo[section]) <= set(cli._table(name)[section])

    def test_transfer_estimator_section_sets_solver_keys(self, tmp_path,
                                                         run_argv):
        cfg = tmp_path / "tr.ini"
        cfg.write_text("[estimator.fast]\niterations = 3\n")
        argv = run_argv["transfer"]
        argv[argv.index("hs")] = "fast"
        out = tmp_path / "tr"
        assert run(["--config", cfg, "--out", out, *argv]) == 0
        assert (out / "transfer.txt").read_text().splitlines()[1] \
            .startswith("fast ")
        row = json.loads((out / "transfer.jsonl").read_text())
        assert row["estimator"] == "fast"
        echo = configparser.ConfigParser()
        echo.read(out / "config_echo.ini")
        assert dict(echo["estimator.fast"]) == {"iterations": "3"}

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_frames_with_manifest_is_usage_error(self, tmp_path, tiny_manifest,
                                                 capsys, source):
        frames = [tiny_manifest.parent / "p0_1.png",
                  tiny_manifest.parent / "p0_2.png"]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[dataset]\nmanifest = {tiny_manifest}\n")
        given = ["--manifest", tiny_manifest] if source == "flag" else []
        config = ["--config", cfg] if source == "file" else []
        out = tmp_path / "out"
        assert run([*config, "--out", out, "attack", "--frames", *frames,
                    *given, "--steps", 1]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --frames and a dataset manifest")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["a.png", "a.png, b.png, c.png"])
    def test_frames_names_two_files(self, tmp_path, capsys, frames):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[dataset]\nframes = {frames}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, "attack", "--steps", 1]) == 1
        count = len(frames.split(","))
        assert capsys.readouterr().err == (
            f"usage error: [dataset] frames names {count} files, not the two "
            "frames of one pair\n")
        assert not out.exists()

    @pytest.mark.parametrize("exists", [True, False])
    @pytest.mark.parametrize("command", ["viz", "checkgrad"])
    def test_viz_and_checkgrad_reject_config(self, tmp_path, capsys, command,
                                             exists):
        flo = tmp_path / "f.flo"
        flowio.write_flo(flo, FlowField(np.zeros((2, 6, 6))))
        argv = {"viz": ["--flow", flo], "checkgrad": ["--pairs", 1]}[command]
        cfg = tmp_path / "run.ini"
        if exists:
            cfg.write_text("[attack]\neps2 = 1e-3\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", out, command, *argv]) == 1
        assert capsys.readouterr().err == \
            f"usage error: {command} reads no configuration file\n"
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_settings() -> dict[str, dict[str, set[str]]]:
    """The README's settings table as run -> section -> keys. A
    parenthesized note is not a key, and `as for PCFA` stands for the
    PCFA row's keys of that section."""
    text = README.read_text()
    rows = text[text.index("| run | sections and keys it reads |"):]
    table = {}
    for row in rows.splitlines()[2:]:
        if not row.startswith("|"):
            break
        run_cell, keys_cell = (cell.strip() for cell in row.strip("|").split("|"))
        if "[" not in keys_cell:
            continue  # the commands that read no configuration file
        name = "ifgsm" if "ifgsm" in run_cell else run_cell.split("`")[1]
        table[name] = {}
        for part in re.sub(r"\([^)]*\)", "", keys_cell).split(";"):
            section, rest = re.search(r"`\[([^\]]+)\]`(.*)", part).groups()
            table[name][section] = (table["attack"][section] if "as for PCFA" in rest
                                    else set(re.findall(r"`([^`]+)`", rest)))
    return table


class TestEchoAndDocs:
    @pytest.mark.parametrize("name,flags", [
        ("attack", ["--eps2", "1e-2", "--box", "cov", "--target", "negative"]),
        ("ifgsm", ["--eps2", "1e-2", "--loss", "mse"]),
        ("universal", ["--eps2", "5e-2", "--mode", "joint", "--batch-size", 1]),
        ("transfer", []),
        ("frames", []),
    ])
    def test_echo_reruns_byte_identically(self, tmp_path, run_argv, name,
                                          flags):
        """config_echo.ini holds every setting the run used, defaults
        included (`mu = auto` among them), and the inputs it named
        (`--frames` as `[dataset] frames`), as --config reads it: the run
        again from the echo alone, with the same seed, writes the same
        bytes."""
        first, again = tmp_path / "first", tmp_path / "again"
        common = ["--seed", 5, "--deterministic"]
        assert run(["--out", first, *common, *run_argv[name], *flags]) == 0
        assert run(["--config", first / "config_echo.ini", "--out", again,
                    *common, run_argv[name][0]]) == 0
        files = sorted(p.relative_to(first) for p in first.iterdir())
        assert files == sorted(p.relative_to(again) for p in again.iterdir())
        for path in files:
            assert (first / path).read_bytes() == (again / path).read_bytes(), path

    def test_readme_table_lists_what_each_run_reads(self):
        documented = readme_settings()
        expected = {name: {section: set(keys)
                           for section, keys in cli._table(name).items()}
                    for name in ("attack", "ifgsm", "universal", "transfer")}
        expected["transfer"]["estimator.<label>"] = set(
            cli._keys(EstimatorConfig))
        assert documented == expected


class TestUniversalAndTransfer:
    def test_universal_then_transfer(self, tmp_path, tiny_manifest):
        out = tmp_path / "uni"
        code = run(["--out", out, "--seed", 2, "--deterministic", "universal",
                    "--manifest", tiny_manifest, "--eps2", "5e-3",
                    "--mode", "joint", "--epochs", "2", "--batch-size", "2"])
        assert code == 0
        assert (out / "universal_delta.npz").is_file()
        assert (out / "universal_delta1.png").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["l2"] > 0

        tr_out = tmp_path / "tr"
        code = run(["--out", tr_out, "transfer", "--estimators", "hs",
                    "--perturbations", out / "universal_delta.npz",
                    "--manifest", tiny_manifest])
        assert code == 0
        table = (tr_out / "transfer.txt").read_text()
        assert "hs" in table
        rows = [json.loads(line) for line in
                (tr_out / "transfer.jsonl").read_text().splitlines()]
        assert rows[0]["robustness"] is not None
        echo = configparser.ConfigParser()
        echo.read(tr_out / "config_echo.ini")
        assert dict(echo["transfer"]) == {
            "estimators": "hs",
            "perturbations": str(out / "universal_delta.npz")}
        assert echo["dataset"]["manifest"] == str(tiny_manifest)

    def test_disjoint_summary_linf_covers_both_fields(self, tmp_path,
                                                      tiny_manifest):
        out = tmp_path / "uni"
        assert run(["--out", out, "--deterministic", "universal",
                    "--manifest", tiny_manifest, "--eps2", "5e-2",
                    "--mode", "disjoint", "--epochs", 2]) == 0
        summary = json.loads((out / "summary.json").read_text())
        pert = flowio.read_perturbation(out / "universal_delta.npz")
        assert summary["linf"] == max(float(np.abs(pert.first).max()),
                                      float(np.abs(pert.second).max()))

    def test_universal_steps_are_per_batch(self, tmp_path, tiny_manifest):
        deltas = {}
        for steps in (1, 3):
            out = tmp_path / f"steps{steps}"
            assert run(["--out", out, "--deterministic", "universal",
                        "--manifest", tiny_manifest, "--eps2", "5e-3",
                        "--epochs", "1", "--steps", steps]) == 0
            deltas[steps] = flowio.read_perturbation(out / "universal_delta.npz")
            summary = json.loads((out / "summary.json").read_text())
            assert summary["steps_per_batch"] == steps
            echo = configparser.ConfigParser()
            echo.read(out / "config_echo.ini")
            assert echo["universal"]["steps_per_batch"] == str(steps)
            assert echo["universal"]["epochs"] == "1"
            assert echo["universal"]["batch_size"] == "4"
            assert echo["attack"]["box"] == "clipping"
            assert echo["attack"]["mu"] == "auto"
            assert echo["dataset"]["manifest"] == str(tiny_manifest)
        assert not np.array_equal(deltas[1].first, deltas[3].first)

    def test_transfer_grid_mismatch_renders_na(self, tmp_path, tiny_manifest):
        from flowattack.core import Perturbation, PerturbMode
        pert_path = tmp_path / "bad.npz"
        flowio.write_perturbation(
            pert_path, Perturbation.zeros(PerturbMode.JOINT, (1, 8, 8)))
        out = tmp_path / "tr"
        assert run(["--out", out, "transfer", "--estimators", "hs",
                    "--perturbations", pert_path,
                    "--manifest", tiny_manifest]) == 0
        assert "n/a" in (out / "transfer.txt").read_text()

    @pytest.mark.parametrize("line", ["steps = 7", "method = ifgsm",
                                      "box = cov"])
    def test_universal_rejects_ignored_attack_keys(self, tmp_path,
                                                   tiny_manifest, capsys, line):
        cfg = tmp_path / "uni.ini"
        cfg.write_text(f"[attack]\n{line}\n")
        out = tmp_path / "uni"
        assert run(["--config", cfg, "--out", out, "universal",
                    "--manifest", tiny_manifest, "--epochs", "1"]) == 1
        assert not out.exists()
        if line.startswith("steps"):
            assert "steps_per_batch" in capsys.readouterr().err

    def test_universal_accepts_clipping_box(self, tmp_path, tiny_manifest):
        cfg = tmp_path / "uni.ini"
        cfg.write_text("[attack]\nbox = clipping\n")
        assert run(["--config", cfg, "--out", tmp_path / "uni", "universal",
                    "--manifest", tiny_manifest, "--epochs", "1"]) == 0

    def test_universal_grid_mismatch_is_exit_2(self, tmp_path, capsys):
        lines = []
        for k, size in enumerate((24, 32)):
            f1, f2, _ = make_pair(60 + k, size, size)
            flowio.write_image_png(tmp_path / f"q{k}_1.png", f1)
            flowio.write_image_png(tmp_path / f"q{k}_2.png", f2)
            lines.append(f"q{k}_1.png q{k}_2.png")
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("\n".join(lines) + "\n")
        assert run(["--out", tmp_path / "uni", "universal", "--manifest",
                    manifest, "--epochs", 1]) == 2
        err = capsys.readouterr().err
        assert err == ("shape mismatch: frame shapes differ: (1, 24, 24) vs "
                       "(1, 32, 32)\n")
        assert not (tmp_path / "uni").exists()

    @pytest.mark.parametrize("command", ["universal", "transfer"])
    def test_gray_and_rgb_pairs_are_exit_2(self, tmp_path, capsys, command):
        """A manifest mixing a gray and an RGB pair of one grid size is one
        shape-mismatch line and no --out, for training and for transfer."""
        lines = []
        for k, channels in enumerate((1, 3)):
            f1, f2, _ = make_pair(70 + k, 24, 24, channels)
            flowio.write_image_png(tmp_path / f"c{k}_1.png", f1)
            flowio.write_image_png(tmp_path / f"c{k}_2.png", f2)
            lines.append(f"c{k}_1.png c{k}_2.png")
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("\n".join(lines) + "\n")
        pert = tmp_path / "zero.npz"
        flowio.write_perturbation(
            pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        argv = {"universal": ["--epochs", 1],
                "transfer": ["--estimators", "hs", "--perturbations", pert]}
        out = tmp_path / "out"
        assert run(["--out", out, command, "--manifest", manifest,
                    *argv[command]]) == 2
        assert capsys.readouterr().err == ("shape mismatch: frame shapes "
                                           "differ: (1, 24, 24) vs (3, 24, 24)\n")
        assert not out.exists()

    @pytest.mark.parametrize("keys", ["estimators = ,\nperturbations = {pert}",
                                      "estimators = hs\nperturbations = ,"])
    def test_transfer_needs_estimator_and_perturbation(self, tmp_path,
                                                       tiny_manifest, capsys,
                                                       keys):
        pert = tmp_path / "zero.npz"
        flowio.write_perturbation(
            pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        cfg = tmp_path / "tr.ini"
        cfg.write_text("[transfer]\n" + keys.format(pert=pert) + "\n")
        out = tmp_path / "tr"
        assert run(["--config", cfg, "--out", out, "transfer",
                    "--manifest", tiny_manifest]) == 1
        err = capsys.readouterr().err
        assert err == ("usage error: transfer needs at least one estimator "
                       "and one perturbation file\n")
        assert not out.exists()

    def test_transfer_hostile_perturbation_is_io_error(self, tmp_path,
                                                       capsys, tiny_manifest):
        pert = tmp_path / "bogus.npz"
        np.savez(pert, mode=np.array("bogus"), first=np.zeros((1, 24, 24)))
        out = tmp_path / "out"
        assert run(["--out", out, "transfer", "--estimators", "hs",
                    "--perturbations", pert, "--manifest", tiny_manifest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {pert}") and err.count("\n") == 1
        assert not out.exists()

    def test_transfer_refuses_perturbations_of_one_stem(self, tmp_path,
                                                         capsys,
                                                         tiny_manifest):
        """A file's stem names its matrix column, so two files of one stem
        would give two columns of one name."""
        paths = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            paths.append(tmp_path / name / "universal_delta.npz")
            flowio.write_perturbation(
                paths[-1], Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        out = tmp_path / "out"
        assert run(["--out", out, "transfer", "--estimators", "hs",
                    "--perturbations", *paths, "--manifest", tiny_manifest]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: perturbation files share the "
                              "stem 'universal_delta'") and err.count("\n") == 1
        assert not out.exists()

    def test_universal_requires_manifest(self, tmp_path):
        assert run(["--out", tmp_path / "x", "universal"]) == 1


class TestVizAndCheckgrad:
    def test_viz_flow_file(self, tmp_path):
        flo = tmp_path / "f.flo"
        flowio.write_flo(flo, FlowField(np.zeros((2, 6, 6))))
        out = tmp_path / "viz"
        assert run(["--out", out, "viz", "--flow", flo]) == 0
        img = flowio.read_image(out / "f_flow.png")
        assert np.all(img.data == 1.0)  # zero flow renders white

    def test_viz_needs_an_input(self, tmp_path):
        assert run(["--out", tmp_path / "v", "viz"]) == 1
        assert not (tmp_path / "v").exists()

    def test_viz_missing_flow_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert run(["--out", out, "viz", "--flow", tmp_path / "nothere.flo"]) == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert not out.exists()

    def test_viz_corrupt_pert_leaves_no_output(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        flowio.write_flo(flo, FlowField(np.zeros((2, 6, 6))))
        pert = tmp_path / "p.npz"
        np.savez(pert, mode=np.array("joint"), first=np.full((1, 6, 6), np.nan))
        out = tmp_path / "v"
        assert run(["--out", out, "viz", "--flow", flo, "--pert", pert]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {pert}") and err.count("\n") == 1
        assert not out.exists()

    def test_checkgrad_h_zero_rejected(self):
        assert run(["checkgrad", "--h", "0"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["--tol", "nan", "--pairs", 1], "--tol must be finite and positive, got nan"),
        (["--tol", "inf"], "--tol must be finite and positive, got inf"),
        (["--tol", "0"], "--tol must be finite and positive, got 0.0"),
        (["--pairs", 0], "--pairs must be >= 1, got 0"),
        (["--pairs", -3], "--pairs must be >= 1, got -3"),
        (["--h", "nan"], "--h must be finite and positive, got nan"),
        (["--h=-inf"], "--h must be finite and positive, got -inf"),
    ])
    def test_checkgrad_fails_closed(self, tmp_path, capsys, argv, message):
        """The gradient gate checks at least one pair against a finite
        positive tolerance with a finite positive step, or runs nothing."""
        out = tmp_path / "cg"
        assert run(["--out", out, "checkgrad", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_viz_max_mag_must_be_finite_and_positive(self, tmp_path, capsys,
                                                     value):
        flo = tmp_path / "f.flo"
        flowio.write_flo(flo, FlowField(np.ones((2, 6, 6))))
        out = tmp_path / "v"
        assert run(["--out", out, "viz", "--flow", flo, f"--max-mag={value}"]) == 1
        err = capsys.readouterr().err
        assert err == ("usage error: --max-mag must be finite and positive, "
                       f"got {float(value)}\n")
        assert not out.exists()

    def test_checkgrad_passes(self, capsys):
        assert run(["checkgrad", "--pairs", "1"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "hs-pyr" in out


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    @pytest.mark.parametrize("command",
                             ["universal", "transfer", "viz", "checkgrad"])
    def test_jobs_below_one_is_usage_error_for_every_command(
            self, tmp_path, capsys, tiny_manifest, command):
        pert = tmp_path / "zero.npz"
        flowio.write_perturbation(
            pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        argv = {"universal": ["--manifest", tiny_manifest, "--epochs", 1],
                "transfer": ["--estimators", "hs", "--perturbations", pert,
                             "--manifest", tiny_manifest],
                "viz": ["--pert", pert],
                "checkgrad": ["--pairs", 1]}[command]
        out = tmp_path / "out"
        assert run(["--out", out, "--jobs", 0, command, *argv]) == 1
        assert capsys.readouterr().err == \
            "usage error: --jobs must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["attack", "universal", "transfer",
                                         "viz", "checkgrad"])
    def test_negative_seed_is_usage_error_for_every_command(
            self, tmp_path, capsys, tiny_manifest, command):
        pert = tmp_path / "zero.npz"
        flowio.write_perturbation(
            pert, Perturbation.zeros(PerturbMode.JOINT, (1, 24, 24)))
        argv = {"attack": ["--steps", 1],
                "universal": ["--manifest", tiny_manifest, "--epochs", 1],
                "transfer": ["--estimators", "hs", "--perturbations", pert,
                             "--manifest", tiny_manifest],
                "viz": ["--pert", pert],
                "checkgrad": ["--pairs", 1]}[command]
        out = tmp_path / "out"
        assert run(["--out", out, "--seed", -1, command, *argv]) == 1
        assert capsys.readouterr().err == \
            "usage error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_bad_flag_value(self):
        assert run(["attack", "--box", "quantum"]) == 1

    def test_every_configuration_flag_has_a_schema_key(self):
        # a flag's value is merged only as the one key of its command's
        # settings table that equals its dest
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("attack", "universal", "transfer"):
            for action in sub.choices[command]._actions:
                if action.dest == "help":
                    continue
                sections = [section for section, keys in
                            cli._table(command).items() if action.dest in keys]
                assert len(sections) == 1, (command, action.dest)


def table_numeric_settings():
    """Every numeric key of the CLI's settings table, as (command,
    `section.key`, fixed lines of its section). [estimator] is read alike
    by every run, so it is drawn for PCFA only, once per built-in label."""
    numeric = (int, float, float | None)
    settings = []
    for name, lines in (("attack", ""), ("ifgsm", "method = ifgsm"),
                        ("universal", "")):
        command = "universal" if name == "universal" else "attack"
        for section, keys in cli._table(name).items():
            for key in (key for key, hint in keys.items() if hint in numeric):
                if section != "estimator":
                    settings.append((command, f"{section}.{key}",
                                     lines if section == "attack" else ""))
                elif name == "attack":
                    settings += [(command, f"estimator.{key}", f"label = {label}")
                                 for label in builtin_estimators()]
    return settings


# Every numeric setting: (command, setting, fixed lines of its section).
# A `section.key` setting is drawn in a config file, a `--flag` on the
# command line.
NUMERIC_SETTINGS = [
    *table_numeric_settings(),
    ("viz", "--max-mag", ""),
    *[("checkgrad", flag, "") for flag in ("--h", "--tol", "--pairs")],
    ("attack", "--seed", ""), ("attack", "--jobs", ""),
]
NUMERIC_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "abc"]
# Each command's smallest run, keyed by the setting each flag sets, so
# that a drawn setting replaces the flag that would override it.
SMALL_RUNS = {
    "attack": {"frames": ["--frames", "a.png", "b.png"], "steps": ["--steps", 1]},
    "universal": {"manifest": ["--manifest", "pairs.txt"],
                  "epochs": ["--epochs", 1], "steps_per_batch": ["--steps", 1]},
    "viz": {"flow": ["--flow", "gt.flo"]},
    "checkgrad": {"pairs": ["--pairs", 1]},
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """One 16x16 pair, a manifest naming it and its true flow."""
    root = tmp_path_factory.mktemp("small")
    f1, f2, gt = make_pair(1, 16, 16)
    flowio.write_image_png(root / "a.png", f1, bit_depth=16)
    flowio.write_image_png(root / "b.png", f2, bit_depth=16)
    flowio.write_flo(root / "gt.flo", gt)
    (root / "pairs.txt").write_text("a.png b.png\n")
    return root


def _setting_id(case):
    command, setting, lines = case
    return "-".join([command, *lines.split(" = ")[1:], setting])


class TestNumericSettings:
    def test_table_holds_every_numeric_config_key(self):
        """The 22 numeric settings of the attack, I-FGSM and universal
        runs and of the flags are all drawn."""
        guarded = {
            *[("attack", f"attack.{key}", "") for key in ("eps2", "mu", "steps")],
            *[("attack", f"estimator.{key}", f"label = {label}")
              for label in ("hs", "hs-pyr")
              for key in ("alpha", "iterations", "levels")],
            *[("attack", f"attack.{key}", "method = ifgsm")
              for key in ("eps2", "steps")],
            *[("universal", f"attack.{key}", "") for key in ("eps2", "mu")],
            *[("universal", f"universal.{key}", "")
              for key in ("epochs", "batch_size", "steps_per_batch")],
            ("viz", "--max-mag", ""),
            *[("checkgrad", flag, "") for flag in ("--h", "--tol", "--pairs")],
            ("attack", "--seed", ""), ("attack", "--jobs", ""),
        }
        assert len(guarded) == 22
        assert guarded <= set(NUMERIC_SETTINGS)

    @pytest.mark.parametrize("value", NUMERIC_VALUES, ids=lambda v: v or "empty")
    @pytest.mark.parametrize("case", NUMERIC_SETTINGS, ids=_setting_id)
    def test_fails_closed(self, tmp_path, capsys, monkeypatch, small_inputs,
                          case, value):
        """Any value of any numeric setting runs, or exits 1-3 with one
        stderr line and no --out: never a traceback."""
        command, setting, lines = case
        monkeypatch.chdir(small_inputs)
        small = dict(SMALL_RUNS[command])
        out = tmp_path / "out"
        before, after = ["--out", out], []
        if setting in ("--seed", "--jobs"):
            before.append(f"{setting}={value}")
        elif setting.startswith("--"):
            small.pop(setting[2:], None)
            after.append(f"{setting}={value}")
        else:
            section, key = setting.split(".")
            small.pop(key, None)
            config = tmp_path / "run.ini"
            config.write_text(f"[{section}]\n{lines}\n{key} = {value}\n")
            before += ["--config", config]
        code = run([*before, command, *sum(small.values(), []), *after])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert not out.exists()
        if value == "abc":  # a value that does not parse names its setting
            named = (setting if setting.startswith("--")
                     else "[{}] {}: ".format(*setting.split(".")))
            assert code == 1 and named in err, err
        if code == 3:  # a failed solve or gradient gate names its estimator
            labels = lines.split(" = ")[1:] or list(builtin_estimators())
            assert any(f"estimator {label!r}" in err for label in labels), err


class TestMemoryRefusal:
    """A run whose Jacobi tape exceeds physical memory is refused before
    it solves anything, where numpy would fail to allocate it."""

    @pytest.mark.skipif(cli._physical_memory() is None,
                        reason="sysconf does not report physical memory")
    @pytest.mark.parametrize("command,inputs", [
        ("attack", []),  # the seeded 64x64 synthetic pair
        ("attack", SMALL_RUNS["attack"]["frames"]),
        ("universal", SMALL_RUNS["universal"]["manifest"]),
    ])
    def test_huge_iterations_refused(self, tmp_path, capsys, monkeypatch,
                                     small_inputs, command, inputs):
        import time
        monkeypatch.chdir(small_inputs)
        config = tmp_path / "run.ini"
        config.write_text("[estimator]\niterations = 1000000000\n")
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run(["--config", config, "--out", out, command, *inputs])
        took = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1 and took < 10
        assert err.startswith("usage error: [estimator] iterations = 1000000000: "
                              "the Jacobi tape of one "), err
        assert "GiB" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.skipif(cli._physical_memory() is None,
                        reason="sysconf does not report physical memory")
    def test_transfer_names_the_estimator_section(self, tmp_path, capsys,
                                                  monkeypatch, small_inputs):
        monkeypatch.chdir(small_inputs)
        delta = tmp_path / "delta.npz"
        flowio.write_perturbation(delta, Perturbation(PerturbMode.JOINT,
                                                      np.zeros((1, 16, 16))))
        config = tmp_path / "run.ini"
        config.write_text("[estimator.big]\niterations = 1000000000\n")
        out = tmp_path / "out"
        code = run(["--config", config, "--out", out, "transfer", "--estimators",
                    "hs,big", "--perturbations", delta, "--manifest", "pairs.txt"])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("usage error: [estimator.big] iterations = 1000000000: "), err
        assert not out.exists()

    def test_unknown_memory_refuses_nothing(self, monkeypatch):
        def no_sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")
        monkeypatch.setattr(cli.os, "sysconf", no_sysconf)
        assert cli._physical_memory() is None
        huge = FlowEstimator(EstimatorConfig(iterations=10 ** 9), label="huge")
        cli._check_fits(huge, (3, 375, 1242))  # no usage error

    def test_tape_within_memory_runs(self, monkeypatch):
        est = builtin_estimators()["hs"]
        need = est.tape_bytes((64, 64))
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        cli._check_fits(est, (1, 64, 64))
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        with pytest.raises(cli.UsageError, match=r"\[estimator\] iterations = 60"):
            cli._check_fits(est, (1, 64, 64))
