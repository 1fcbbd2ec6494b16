import configparser
import json

import numpy as np
import pytest

from flowattack import cli
from flowattack import io as flowio
from flowattack.cli import main
from flowattack.core import FlowField
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
        assert err == "shape mismatch: pair grid 32x32 != declared 24x24\n"
        assert not (tmp_path / "uni").exists()

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

    def test_checkgrad_h_zero_rejected(self):
        assert run(["checkgrad", "--h", "0"]) == 1

    def test_checkgrad_passes(self, capsys):
        assert run(["checkgrad", "--pairs", "1"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "hs-pyr" in out


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_bad_flag_value(self):
        assert run(["attack", "--box", "quantum"]) == 1
