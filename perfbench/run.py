"""The tijepa benchmark: one command, three workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload pretrain_desk --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository. It starts several
workload processes one after another (see workload.py), each with BLAS at
one thread and pinned to one CPU, and merges what they measured. Untraced
times are scaled by a calibration burst that runs alongside (see Timeline).
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced processes and reports the per-module
metrics and the tracing overhead. Earlier lines of standard output are a readable report; the last
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. The full record, with the run environment, is written to
`.perfbench_work/results/`. See perfbench/README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_work" / "results"
WORKLOADS = ("pretrain_desk", "pretrain_unfrozen", "finetune_eval")

# Set-up is measured per process, so every run starts this many processes.
PROCESSES = 3
# One BLAS thread: with the default two threads on a shared 2-core machine
# the desk step ranged 482-1122 ms across runs, against 786-843 ms with one.
BLAS_THREADS = 1
# The whole run must end within 180 s; keep a margin for merging and clean-up.
RUN_DEADLINE_S = 170
# loss_end averages this many of the last logged losses of a call
LOSS_END_ROWS = 3
TAPE_OPS = ("matmul", "slice_cols", "add", "scale", "transpose", "softmax",
            "layer_norm", "concat_cols")
# Untraced times are scaled to a machine on which one calibration burst
# (workload.Calibration) takes this long; see Timeline.
CALIBRATION_NOMINAL_S = 0.005
# Step times are scaled by that ratio to this power. The head-training steps
# of finetune_eval, a few hundred tiny numpy ops each, slow down about 1.5
# times as much as the burst does in log terms (fitted over some 60 workload
# processes on a machine whose speed shifted between runs); wall_s, which
# mixes them with heavier work, follows the burst itself.
STEP_CALIBRATION_POWER = {"finetune_eval": 1.5}
MODULES = ("numerics", "encoders", "masking", "core", "trainer", "dataprep",
           "eval_head", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def cpu_counters() -> dict:
    """Load average and the machine's CPU steal time so far (read-only /proc/stat)."""
    out = {"loadavg": list(os.getloadavg()), "steal_s": None}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        if fields[0] == "cpu" and len(fields) > 8:
            out["steal_s"] = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        pass
    return out


def run_process(args, traced: bool, budget: float, work: Path, index: int, deadline: float):
    """Run one workload process to its end and return its result, or None if it failed."""
    result_path = work / f"process{index}.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(int(traced)),
           "--work", str(work / f"process{index}"), "--result", str(result_path)]
    # perf_counter is CLOCK_MONOTONIC on Linux, the same clock in every process
    started = time.perf_counter()
    cmd += ["--spawned", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"process {index}: timed out", flush=True)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"process {index}: exit code {proc.returncode}\n{proc.stderr[-4000:]}", flush=True)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    spans = result_path.with_suffix(".spans.jsonl")
    if spans.is_file():
        shutil.move(spans, RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    return result


class Timeline:
    """A process's time without its calibration bursts, at nominal machine speed.

    Each stretch between two bursts is scaled by CALIBRATION_NOMINAL_S over
    the median duration of the nearest bursts, to the given power. The
    bursts themselves count for nothing.
    """

    def __init__(self, bursts, power: float = 1.0):
        durations = [end - start for start, end in bursts]
        self.lo, self.hi, self.factor = [-math.inf], [], []
        for i, (start, end) in enumerate(bursts + [(math.inf, None)]):
            self.hi.append(start)
            self.lo.append(end)
            # the median of the four nearest bursts ignores a burst that an
            # interrupt happened to stretch
            near = durations[max(i - 2, 0):i + 2]
            self.factor.append((CALIBRATION_NOMINAL_S / statistics.median(near)) ** power
                               if near else 1.0)
        self.lo.pop()

    def length(self, a: float, b: float, scaled: bool = True) -> float:
        total = 0.0
        i = bisect.bisect_right(self.hi, a)
        while i < len(self.lo) and self.lo[i] < b:
            overlap = min(b, self.hi[i]) - max(a, self.lo[i])
            if overlap > 0:
                total += overlap * (self.factor[i] if scaled else 1.0)
            i += 1
        return total


def p75(values):
    """The third quartile as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def end_to_end(results, workload: str) -> tuple[dict, dict]:
    setups, walls, steps, raw_steps, examples = [], [], [], [], 0
    for result in results:
        timeline = Timeline(result["bursts"])
        step_timeline = Timeline(result["bursts"], STEP_CALIBRATION_POWER.get(workload, 1.0))
        setups.append(timeline.length(result["spawned"], result["first_call"]))
        for call in result["calls"]:
            walls.append(timeline.length(call["start"], call["end"]))
            # the first step of a call also loads the data; it is not a step sample
            stamps = call["stamps"]
            for k in range(1, min(len(stamps), len(call["step_examples"]))):
                steps.append(step_timeline.length(stamps[k - 1], stamps[k]))
                raw_steps.append(timeline.length(stamps[k - 1], stamps[k], scaled=False))
                examples += call["step_examples"][k]
    calls = [call for result in results for call in result["calls"]]
    bursts = [end - start for result in results for start, end in result["bursts"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(r["rss_kib"] for r in results) / 1024, "MiB"),
    }
    extra = {"step_samples": len(steps), "calls": len(calls),
             "calibration_burst_ms_p50": 1000 * statistics.median(bursts)}
    if steps:  # without step timestamps the step checks have already failed
        metrics["step_ms_p50"] = (1000 * statistics.median(steps), "ms")
        metrics["step_ms_p75"] = (1000 * p75(steps), "ms")
        metrics["examples_per_s"] = (examples / sum(steps), "1/s")
        extra["unscaled_step_ms_p50"] = 1000 * statistics.median(raw_steps)
    losses = [statistics.fmean(call["losses"][-LOSS_END_ROWS:]) for call in calls
              if call["losses"]]
    if losses:
        metrics["loss_end"] = (statistics.median(losses), "loss")
    return metrics, extra


def merge_traces(traces) -> dict:
    merged = {"wrapped": set(), "steps": 0, "interval_s": [], "step_self_s": 0.0,
              "max_sum_gap_s": 0.0}
    for key in ("incl", "calls", "counts", "raised", "module_self_full_s", "module_self_all_s"):
        merged[key] = {}
        for trace in traces:
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    for trace in traces:
        merged["wrapped"].update(trace["wrapped"])
        merged["steps"] += trace["steps"]
        merged["interval_s"] += trace["interval_s"]
        merged["step_self_s"] += trace["step_self_s"]
        merged["max_sum_gap_s"] = max(merged["max_sum_gap_s"], trace["max_sum_gap_s"])
    return merged


def per_layer(t, overhead_s) -> dict:
    """Per-module metrics of the traced calls.

    A metric is left out where it does not apply: its wrapped function is
    gone, never ran on this workload, or what it counts never happened here
    (a value of 0, from which no relative change can be taken).
    """
    have, incl, calls, counts = t["wrapped"], t["incl"], t["calls"], t["counts"]
    steps = t["steps"]
    full = len(t["interval_s"])
    out = {}

    def put(name, unit, needs, value):
        needs = (needs,) if isinstance(needs, str) else needs
        if value and all(n in have and not counts.get(f"hook_error.{n}")
                                     for n in needs):
            out[name] = (value, unit)

    def per_step(value):
        return value / steps if steps else None

    def ms_per_step(key):
        return per_step(1000 * incl[key]) if calls.get(key) else None

    def ms_per_call(key):
        n = calls.get(key, 0)
        return 1000 * incl[key] / n if n else None

    def frac(numerator, key):
        n = calls.get(key, 0)
        return counts.get(numerator, 0) / n if n else None

    backward = ("numerics.backward", "numerics.active_tape")
    put("numerics.tape_records_per_step", "count", backward,
        per_step(counts.get("tape_records", 0)))
    for op in TAPE_OPS:
        put(f"numerics.tape_records.{op}", "count", backward,
            per_step(counts.get(f"tape_records.{op}", 0)))
    put("numerics.op_calls_per_step", "count", "numerics._record",
        per_step(calls.get("numerics._record", 0)))
    put("numerics.backward_ms_per_step", "ms", backward[0], ms_per_step(backward[0]))
    put("numerics.check_finite_ms_per_step", "ms", "numerics._check_finite",
        ms_per_step("numerics._check_finite"))
    put("numerics.check_finite_calls_per_step", "count", "numerics._check_finite",
        per_step(calls.get("numerics._check_finite", 0)))

    text, image = "encoders.TextEncoder.encode", "encoders.ImageEncoder.encode"
    put("encoders.text_ms_per_step", "ms", text, ms_per_step(text))
    put("encoders.text_calls_per_step", "count", text, per_step(calls.get(text, 0)))
    for kind in ("full", "ctx"):
        put(f"encoders.image_{kind}_ms_per_step", "ms", image, ms_per_step(f"{image}#{kind}"))
        put(f"encoders.image_{kind}_calls_per_step", "count", image,
            per_step(calls.get(f"{image}#{kind}", 0)))
    put("encoders.text_repeat_frac", "ratio", text, frac("repeat.text", text))
    put("encoders.image_full_repeat_frac", "ratio", image,
        frac("repeat.image_full", f"{image}#full"))

    put("masking.sample_ms_per_step", "ms", "masking.sample_masks",
        ms_per_step("masking.sample_masks"))
    put("masking.skipped_examples", "count", "masking.sample_masks",
        t["raised"].get("masking.sample_masks", 0))

    fusion, predictor = "core.FusionModule.__call__", "core.Predictor.predict"
    put("core.target_path_ms_per_step", "ms", "core.make_targets", ms_per_step("core.make_targets"))
    put("core.context_path_ms_per_step", "ms", "core.make_context",
        ms_per_step("core.make_context"))
    put("core.fusion_online_ms_per_step", "ms", fusion, ms_per_step(f"{fusion}#online"))
    put("core.fusion_target_ms_per_step", "ms", fusion, ms_per_step(f"{fusion}#target"))
    put("core.predictor_ms_per_step", "ms", predictor, ms_per_step(predictor))
    put("core.predictor_calls_per_step", "count", predictor, per_step(calls.get(predictor, 0)))
    put("core.loss_ms_per_step", "ms", "core.prediction_loss", ms_per_step("core.prediction_loss"))

    put("trainer.adamw_ms_per_step", "ms", "trainer.adamw_step", ms_per_step("trainer.adamw_step"))
    put("trainer.ema_ms_per_step", "ms", "trainer.ema_update", ms_per_step("trainer.ema_update"))
    put("trainer.ckpt_save_ms", "ms", "trainer.save_checkpoint",
        ms_per_call("trainer.save_checkpoint"))
    put("trainer.ckpt_bytes", "bytes", "trainer.save_checkpoint",
        frac("ckpt_bytes", "trainer.save_checkpoint"))
    put("trainer.ckpt_load_ms", "ms", "trainer.load_checkpoint",
        ms_per_call("trainer.load_checkpoint"))
    put("trainer.step_self_ms", "ms", "trainer.adamw_step",
        1000 * t["step_self_s"] / full if full else None)

    put("dataprep.manifest_load_ms", "ms", "dataprep.load_manifest",
        ms_per_call("dataprep.load_manifest"))
    put("dataprep.split_ms", "ms", "dataprep.split_dataset", ms_per_call("dataprep.split_dataset"))

    features = "eval_head.pooled_representation"
    put("eval_head.features_ms_per_example", "ms", features, ms_per_call(features))
    n_finetune = calls.get("eval_head.finetune", 0)
    put("eval_head.head_train_ms", "ms", "eval_head.finetune",
        1000 * (incl.get("eval_head.finetune", 0.0)
                - incl.get("eval_head.features_in_finetune", 0.0)) / n_finetune
        if n_finetune else None)
    put("eval_head.evaluate_ms", "ms", "eval_head.evaluate", ms_per_call("eval_head.evaluate"))

    n_dispatch = calls.get("cli.dispatch", 0)
    put("cli.self_ms", "ms", "cli.dispatch",
        1000 * t["module_self_all_s"].get("cli", 0.0) / n_dispatch if n_dispatch else None)

    # The module split of the traced step: these add up to trace.step_ms_mean.
    # A module with no self time inside the steps is left out.
    for module in MODULES:
        self_s = t["module_self_full_s"].get(module, 0.0)
        if full and self_s:
            out[f"{module}.self_ms_per_step"] = (1000 * self_s / full, "ms")
    if full:
        out["trace.step_ms_mean"] = (1000 * statistics.fmean(t["interval_s"]), "ms")
        out["trace.step_ms_p50"] = (1000 * statistics.median(t["interval_s"]), "ms")
    if overhead_s is not None:
        out["trace.overhead_wall_s"] = (overhead_s, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "tijepa" / "__init__.py", ROOT / "configs" / "desk.cfg"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a checkout "
                  "of the tijepa repository", file=sys.stderr)
            return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan = [False] * PROCESSES if not args.trace else [False, True, False, True]
    budget = args.seconds / len(plan)
    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
           "start": cpu_counters()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(plan)} processes", flush=True)
    try:
        runs = [(traced, run_process(args, traced, budget, work, i, deadline))
                for i, traced in enumerate(plan)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["end"] = cpu_counters()
    if env["start"]["steal_s"] is not None and env["end"]["steal_s"] is not None:
        env["steal_delta_s"] = env["end"]["steal_s"] - env["start"]["steal_s"]

    ok_runs = [(traced, result) for traced, result in runs if result]
    crashed = len(runs) - len(ok_runs)
    attempted = crashed + sum(c["attempted"] for _, r in ok_runs for c in r["calls"])
    failed = crashed + sum(c["failed"] for _, r in ok_runs for c in r["calls"])
    checks = [tuple(item) for _, r in ok_runs for item in r["checks"]]
    if crashed:
        checks.append(("every workload process finished", False, f"{crashed} did not"))
    if ok_runs:
        env.update(ok_runs[0][1]["env"])
        env["pinned_cpus"] = [r["cpu"] for _, r in ok_runs]
    calls = [c for _, r in ok_runs for c in r["calls"]]
    digests = sorted({c.get("sha256") for c in calls})
    losses = sorted({tuple(c["losses"]) for c in calls})
    checks.append(("output SHA-256 equal across repeats of the seed",
                   len(digests) == 1 and digests[0] is not None, " ".join(map(str, digests))))
    checks.append(("logged losses equal across repeats of the seed", len(losses) == 1, ""))

    untraced = [r for traced, r in ok_runs if not traced]
    traced = [r for traced, r in ok_runs if traced]
    metrics, extra = {}, {}
    if untraced:
        metrics, extra = end_to_end(untraced, args.workload)
    if args.trace:
        metrics = {}
        if traced:
            trace = merge_traces([r["trace"] for r in traced])
            checks.append(("traced self times add up to each step",
                           trace["max_sum_gap_s"] < 1e-6, f"{trace['max_sum_gap_s']:.3g} s"))
            overhead = None
            if untraced:
                # both sides unscaled: the traced processes run no calibration
                plain = statistics.median(Timeline(r["bursts"]).length(c["start"], c["end"], False)
                                          for r in untraced for c in r["calls"])
                overhead = statistics.median(c["end"] - c["start"]
                                             for r in traced for c in r["calls"]) - plain
            metrics = per_layer(trace, overhead)
    f1 = [c["macro_f1"] for c in calls if "macro_f1" in c]
    if f1:
        extra["test_macro_f1"] = statistics.median(f1)

    correct = all(ok for _, ok, _ in checks) and bool(metrics)
    for name, ok, detail in checks:
        if not ok or name.startswith("output SHA"):
            print(f"check {'ok' if ok else 'FAILED'}: {name} {detail}".rstrip())
    print(f"checks: {sum(ok for _, ok, _ in checks)} of {len(checks)} passed")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in extra.items():
        print(f"{name:40s} {value:14.6g}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": {k: {"value": v, "unit": u}
                                            for k, (v, u) in metrics.items()},
              "extra": extra, "checks": checks, "env": env, "sha256": digests}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    # The result line holds the metrics BENCHMARK.json declares for this mode;
    # the ones that apply to some workloads only stay in the report and record.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {k: v for k, v in record["metrics"].items()
                                  if k in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
