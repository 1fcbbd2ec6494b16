"""Spans and checks installed around the program's public entry points.

The package imports functions by name (`from .attack import pcfa_attack`
in the CLI, `from .optim import lbfgs_minimize` in the attack and
universal modules), so a wrapper only takes effect where each caller
looks the name up: it is installed in that caller's module namespace.
Nothing under `src/` is edited; `Patches` restores every original.

Two kinds of wrapper exist:

* `Tracer` records spans (name, start, end, parent, unit id) in memory
  for the traced run. The layer is the span name's prefix.
* `Checks` runs in every run. It captures the few scalars the output
  checks need from attack results and compares every decoded input with
  the array the benchmark wrote. Its own time is summed in `excluded_s`
  so that callers can take it out of the measured time.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

DECODE = ("read_image", "read_flow_any")
ENCODE = ("write_image_png", "flow_to_color", "perturbation_to_image",
          "write_perturbation", "atomic_write_bytes")
FILE_WRITERS = ("io.atomic_write_bytes", "io.write_perturbation")

# every per-layer metric of a traced run, with its unit
LAYER_UNITS = {
    "io.decode_s": "s", "io.decode_mb_per_s": "MB/s", "io.files_read": "count",
    "io.encode_s": "s", "io.files_written": "count",
    "diffflow.forward_calls": "count", "diffflow.forward_s": "s",
    "diffflow.adjoint_calls": "count", "diffflow.adjoint_s": "s",
    "diffflow.adjoint_per_forward": "ratio", "diffflow.level_setup_ms": "ms",
    "diffflow.jacobi_fwd_ns_per_px_iter": "ns", "diffflow.jacobi_adj_ns_per_px_iter": "ns",
    "diffflow.tape_peak_mb": "MB",
    "attack.objective_calls": "count", "attack.objective_self_s": "s",
    "optim.self_s": "s", "optim.accepted_steps": "count",
    "optim.evals_per_accept": "ratio", "optim.accept_ratio": "ratio",
    "optim.step_len_log10_p50": "log10",
    "universal.batch_s_p50": "s", "universal.pair_evals": "count",
    "evaluation.metrics_s": "s", "cli.self_s": "s", "trace.overhead_frac": "ratio",
}


class Patches:
    """Attribute replacements undone in reverse order by `restore`."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """In-memory span recorder; spans are written out after the run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.unit = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def install(self, patches: Patches):
        import flowattack.attack as attack
        import flowattack.cli as cli
        import flowattack.diffflow as diffflow
        import flowattack.io as flowio
        import flowattack.universal as universal

        for name in DECODE:
            patches.wrap(flowio, name, self._decode_wrapper(name))
        for name in ENCODE:
            patches.wrap(flowio, name, lambda fn, n=name: self.span(f"io.{n}", fn))
        patches.wrap(diffflow.FlowEstimator, "estimate_flow",
                     lambda fn: self.span("diffflow.estimate_flow", fn))
        patches.wrap(diffflow.FlowEstimator, "value_and_vjp", self._vjp_wrapper)
        for name in ("pcfa_attack", "ifgsm_attack"):
            patches.wrap(cli, name, lambda fn, n=name: self.span(f"attack.{n}", fn))
        patches.wrap(cli, "train_universal",
                     lambda fn: self.span("universal.train_universal", fn))
        for name in ("attack_strength", "adversarial_robustness", "masked_aee"):
            patches.wrap(cli, name, lambda fn, n=name: self.span(f"evaluation.{n}", fn))
        patches.wrap(attack, "lbfgs_minimize",
                     lambda fn: self._lbfgs_wrapper(fn, "attack.objective"))
        patches.wrap(universal, "lbfgs_minimize",
                     lambda fn: self._lbfgs_wrapper(fn, "universal.objective"))
        patches.wrap(universal, "penalty_value_grad",
                     lambda fn: self.span("universal.penalty_value_grad", fn))

    def _decode_wrapper(self, name):
        def make(fn):
            @functools.wraps(fn)
            def traced(path, *args, **kwargs):
                idx = self.open(f"io.{name}")
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    self.close(idx)
                    self.attrs[idx] = {"bytes": os.path.getsize(path)}
            return traced
        return make

    def _vjp_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(estimator, frame1, frame2):
            idx = self.open("diffflow.value_and_vjp")
            try:
                flow, vjp = fn(estimator, frame1, frame2)
            finally:
                self.close(idx)
            return flow, self.span("diffflow.vjp", vjp)
        return traced

    def _lbfgs_wrapper(self, fn, objective_name):
        @functools.wraps(fn)
        def traced(objective, x0, params=None):
            idx = self.open("optim.lbfgs_minimize")
            try:
                x, trace = fn(self.span(objective_name, objective), x0, params)
            finally:
                self.close(idx)
            self.attrs[idx] = {"accepted": len(trace),
                               "step_lengths": list(trace.step_lengths)}
            return x, trace
        return traced

    # -- summaries -----------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its direct children cover.

        The program is single-threaded, so children never overlap and the
        covered part is the sum of their durations.
        """
        dur = self.durations()
        own = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def records(self):
        for idx, name in enumerate(self.names):
            yield {"id": idx, "name": name, "start": self.starts[idx],
                   "end": self.ends[idx], "parent": self.parents[idx],
                   "unit": self.units[idx], **self.attrs.get(idx, {})}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans."""
        names = np.asarray(self.names, dtype=object)
        dur = self.durations()
        own = self.self_times()
        parents = np.asarray(self.parents)
        if len(names) == 0:
            return {}

        def count(*which):
            return int(np.isin(names, which).sum())

        def total(values, *which):
            return float(values[np.isin(names, which)].sum())

        encode = np.isin(names, [f"io.{n}" for n in ENCODE])
        parent_encode = np.array([p >= 0 and encode[p] for p in parents], dtype=bool)
        decode_idx = [i for i, n in enumerate(self.names) if n in
                      ("io.read_image", "io.read_flow_any")]
        decode_s = float(dur[decode_idx].sum()) if decode_idx else 0.0
        decode_mb = sum(self.attrs[i]["bytes"] for i in decode_idx) / 2 ** 20

        fwd = ("diffflow.estimate_flow", "diffflow.value_and_vjp")
        vjp_calls = count("diffflow.value_and_vjp")
        adj_calls = count("diffflow.vjp")
        vjp_fwd_mean = total(dur, "diffflow.value_and_vjp") / max(vjp_calls, 1)
        adj_mean = total(dur, "diffflow.vjp") / max(adj_calls, 1)

        lbfgs = [self.attrs[i] for i, n in enumerate(self.names)
                 if n == "optim.lbfgs_minimize"]
        evals = count("attack.objective", "universal.objective")
        accepted = sum(a["accepted"] for a in lbfgs)
        steps = [s for a in lbfgs for s in a["step_lengths"] if s > 0]

        universal_pairs = 0
        batch_s = []
        for i, n in enumerate(self.names):
            if n == "diffflow.value_and_vjp" and parents[i] >= 0 \
                    and self.names[parents[i]] == "universal.objective":
                universal_pairs += 1
            if n == "optim.lbfgs_minimize" and parents[i] >= 0 \
                    and self.names[parents[i]] == "universal.train_universal":
                batch_s.append(dur[i])

        return {
            "io.decode_s": decode_s,
            "io.decode_mb_per_s": decode_mb / decode_s if decode_s > 0 else 0.0,
            "io.files_read": len(decode_idx),
            "io.encode_s": float(dur[encode & ~parent_encode].sum()),
            "io.files_written": count(*FILE_WRITERS),
            "diffflow.forward_calls": count(*fwd),
            "diffflow.forward_s": total(dur, *fwd),
            "diffflow.adjoint_calls": adj_calls,
            "diffflow.adjoint_s": total(dur, "diffflow.vjp"),
            "diffflow.adjoint_per_forward":
                adj_mean / vjp_fwd_mean if vjp_fwd_mean > 0 else 0.0,
            "attack.objective_calls": count("attack.objective"),
            "attack.objective_self_s": total(own, "attack.objective"),
            "optim.self_s": total(own, "optim.lbfgs_minimize"),
            "optim.accepted_steps": accepted,
            "optim.evals_per_accept": evals / accepted if accepted else 0.0,
            "optim.accept_ratio": accepted / evals if evals else 0.0,
            "optim.step_len_log10_p50":
                float(np.median(np.log10(steps))) if steps else 0.0,
            "universal.batch_s_p50": float(np.median(batch_s)) if batch_s else 0.0,
            "universal.pair_evals": universal_pairs,
            "evaluation.metrics_s": float(sum(
                own[i] for i, n in enumerate(self.names)
                if n.startswith("evaluation."))),
            "cli.self_s": total(own, "cli.main"),
        }


class Checks:
    """Check hooks present in every run, traced or not.

    `expected_inputs` maps an absolute input path to the array its reader
    must return: image data for frames, (flow, mask) for flow files.
    """

    def __init__(self, expected_inputs: dict):
        self.expected = expected_inputs
        self.decoded: dict[str, bool] = {}
        self.results: list[dict] = []
        self.excluded_s = 0.0
        self.tracer: Tracer | None = None

    def _check_span(self):
        return self.tracer.open("bench.check") if self.tracer else None

    def _end_check(self, idx, start):
        if idx is not None:
            self.tracer.close(idx)
        self.excluded_s += time.perf_counter() - start

    def install(self, patches: Patches):
        import flowattack.cli as cli
        import flowattack.io as flowio

        patches.wrap(flowio, "read_image", self._reader(image=True))
        patches.wrap(flowio, "read_flow_any", self._reader(image=False))
        for name in ("pcfa_attack", "ifgsm_attack"):
            patches.wrap(cli, name, self._attack)

    def _reader(self, image: bool):
        def make(fn):
            @functools.wraps(fn)
            def checked(path, *args, **kwargs):
                out = fn(path, *args, **kwargs)
                start = time.perf_counter()
                idx = self._check_span()
                key = os.path.abspath(path)
                if key in self.expected:
                    self.decoded[key] = self.decoded.get(key, True) and \
                        inputs_match(out, self.expected[key], image)
                self._end_check(idx, start)
                return out
            return checked
        return make

    def _attack(self, fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            result = fn(*args, **kwargs)
            start = time.perf_counter()
            idx = self._check_span()
            init = result.flow_init.data
            self.results.append({
                "box_min": result.box_min_seen, "box_max": result.box_max_seen,
                # every workload attacks toward zero flow, so the initial
                # distance to the target is the mean endpoint length
                "aee_init": float(np.mean(np.hypot(init[0], init[1]))),
            })
            self._end_check(idx, start)
            return result
        return checked


def inputs_match(decoded, expected, image: bool) -> bool:
    """Bit-exact comparison of a reader's output with what was written."""
    if image:
        return np.array_equal(decoded.data, expected)
    flow, mask = decoded
    want_flow, want_mask = expected
    return (mask is not None and np.array_equal(mask, want_mask)
            and np.array_equal(flow.data, want_flow))
