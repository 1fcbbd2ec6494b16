"""flowattack benchmark: end-to-end run or traced per-layer run of a workload.

Usage, from the repository root:

    python3 bench/run.py --workload attack-hs-64 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all

`--trace 0` times whole CLI invocations with tracing off and reports the
end-to-end metrics; `--trace 1` runs a fixed number of invocations under
span tracing and reports the per-layer metrics (see README.md). Every
run checks the program's outputs; the last line of standard output is
one JSON object, and the exit code is non-zero when a check failed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# pin native thread pools before numpy loads: one process, one thread
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pngwrite  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "pairs_per_s": "1/s", "pair_s_p50": "s",
                    "peak_rss_mb": "MB", "strength_rel": "ratio"}


def _load_program():
    """Import the package from the checkout's src/; None when it is absent."""
    if not (ROOT / "src" / "flowattack" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import flowattack.cli as cli
    return cli


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """One workload at one seed: set-up, invocations, checks, metrics."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.strength: list[float] = []
        self.unit_seconds: list[float] = []
        self.decoded: dict[str, bool] = {}      # input path -> decoded bit-exactly

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate inputs and warm up SETUP_REPEATS times; median seconds."""
        from flowattack.diffflow import builtin_estimators

        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            if self.work.exists():
                shutil.rmtree(self.work)
            self.work.mkdir(parents=True)
            self.inputs = self.wl.generate(self.wl, self.work, self.seed)
            f1, f2 = (f.data[:, :64, :64] for f in self.inputs.frames)
            builtin_estimators()[self.wl.estimator].estimate_flow(f1, f2)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    # -- one invocation -----------------------------------------------------

    def run_unit(self, index: int, tracer=None) -> float | None:
        """Run unit `index`, check it, return its seconds (None if it failed)."""
        unit = self.inputs.units[index % len(self.inputs.units)]
        out = self.work / "out" / f"u{index:04d}"
        argv = ["--out", str(out)] + unit.argv
        checks = spans.Checks(self.inputs.expected)
        patches = spans.Patches()
        main = self.cli.main
        if tracer is not None:
            tracer.unit = index
            tracer.install(patches)
            checks.tracer = tracer
            main = tracer.span("cli.main", main)
        checks.install(patches)
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            rc, error = None, traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start - checks.excluded_s
            patches.restore()
        for path, ok in checks.decoded.items():
            self.decoded[path] = self.decoded.get(path, True) and ok
        if rc == 0:
            problems, ratio = unit.check(out, checks.results)
        else:
            problems, ratio = [error or f"flowattack exited with {rc}"], None
        shutil.rmtree(out, ignore_errors=True)
        if problems or ratio is None:
            self.failed += 1
            self.problems += [f"{self.wl.name} unit {index}: {p}" for p in problems]
            return None
        self.strength.append(ratio)
        self.unit_seconds.append(elapsed)
        return elapsed

    def check_inputs(self):
        """Decode-check every generated file; one operation per file.

        Files the program read were compared by `spans.Checks` as it read
        them; the rest are decoded here, outside any timing.
        """
        from flowattack import io as flowio

        for path, want in self.inputs.expected.items():
            ok = self.decoded.get(path)
            if ok is None:
                image = not isinstance(want, tuple)
                try:
                    got = flowio.read_image(path) if image else flowio.read_flow_any(path)
                    ok = spans.inputs_match(got, want, image)
                except (OSError, ValueError):
                    ok = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{self.wl.name}: {path} does not decode bit-exactly")

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self, seconds: float, import_s: float) -> dict:
        setup_s = import_s + self.setup()
        times, pairs = [], []
        start = time.perf_counter()
        index = 0
        while True:
            took = self.run_unit(index)
            if took is not None:
                times.append(took)
                pairs.append(self.inputs.units[index % len(self.inputs.units)].pairs)
            index += 1
            if self.failed:
                break
            # strength_rel needs its leading invocations however slow the
            # machine is; past those, stop before the next would overrun
            typical = statistics.median(times)
            if len(times) >= self.wl.strength_units and \
                    time.perf_counter() - start + typical > seconds:
                break
        self.check_inputs()
        if not times:
            return {}
        # a fixed number of leading invocations, so that it does not
        # depend on how many fit in the run
        strength = statistics.fmean(self.strength[:self.wl.strength_units])
        ceiling = self.wl.strength_ceiling
        if ceiling is not None:
            self.attempted += 1
            if not strength <= ceiling:
                self.failed += 1
                self.problems.append(f"{self.wl.name}: strength_rel {strength:.5f} "
                                     f"above its ceiling {ceiling}")
        return {
            "setup_s": setup_s,
            "pairs_per_s": sum(pairs) / sum(times),
            "pair_s_p50": statistics.median(t / p for t, p in zip(times, pairs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "strength_rel": strength,
        }

    def traced(self) -> tuple[dict, list]:
        from flowattack.diffflow import builtin_estimators

        self.setup()
        # the first invocation in a process pays page faults for every new
        # array; run it once untraced so that the timed copies start warm
        self.run_unit(0)
        tracer = spans.Tracer()
        plain_s = traced_s = 0.0
        for index in range(self.wl.trace_units):
            # each invocation runs untraced and traced, alternating which
            # goes first, so that drift in machine speed cancels
            if index % 2:
                traced, plain = self.run_unit(index, tracer), self.run_unit(index)
            else:
                plain, traced = self.run_unit(index), self.run_unit(index, tracer)
            if plain and traced:
                plain_s += plain
                traced_s += traced
        self.check_inputs()
        metrics = tracer.layer_metrics()
        if plain_s > 0:
            metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        estimator = builtin_estimators()[self.wl.estimator]
        f1, f2 = self.inputs.frames
        metrics.update(probes.iteration_fit(estimator.config, f1, f2))
        metrics["diffflow.tape_peak_mb"] = probes.tape_peak_mb(estimator, f1, f2)
        return metrics, list(tracer.records())

    def metadata(self, seconds: float, trace: bool) -> dict:
        return {
            "workload": self.wl.name, "seed": self.seed, "trace": trace,
            "seconds": seconds, "commit": _commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "threads_env": {v: os.environ.get(v) for v in THREAD_ENV},
            "grid": [self.wl.height, self.wl.width], "channels": self.wl.channels,
            "estimator": self.wl.estimator, "pair_seeds": self.inputs.pair_seeds,
            "units_available": len(self.inputs.units),
            "unit_seconds": self.unit_seconds,
            "unit_strength_rel": self.strength,
            "png_filter_share": pngwrite.filter_share(self.inputs.filter_types),
        }


def run_workload(cli, workload, seed, seconds, trace, import_s) -> dict:
    work = BENCH_DIR / "work" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    runner = Runner(cli, workload, seed, work)
    try:
        if trace:
            metrics, records = runner.traced()
        else:
            metrics, records = runner.end_to_end(seconds, import_s), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "problems": runner.problems,
        "meta": runner.metadata(seconds, trace),
    }
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-s{seed}-t{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if records:
        with open(out / f"{stem}.spans.jsonl", "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    return result


def _units(name: str) -> str:
    return END_TO_END_UNITS.get(name) or spans.LAYER_UNITS[name]


def _print_result(result: dict):
    meta = result["meta"]
    print(f"== {meta['workload']}  seed {meta['seed']}  "
          f"grid {meta['grid'][0]}x{meta['grid'][1]}x{meta['channels']}  "
          f"estimator {meta['estimator']}  trace {int(meta['trace'])}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {_units(name)}")
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"  {'fail_ratio':34s} {ratio:14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"  png filter share {meta['png_filter_share']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _load_program()
    if cli is None:
        print(f"flowattack sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    import_s = time.perf_counter() - _T0
    results = []
    for name in names:
        result = run_workload(cli, workloads.WORKLOADS[name], args.seed,
                              args.seconds, bool(args.trace), import_s)
        _print_result(result)
        results.append((name, result))

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {(f"{name}/{m}" if prefix else m): {"value": v, "unit": _units(m)}
                    for name, r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
