"""One workload process of the benchmark.

It sets up its inputs from the seed, drives `tijepa.cli.dispatch` in-process
with the arguments a user would type until its time budget is spent, checks
the outputs, and writes one JSON result. run.py starts several of these per
run, so that set-up time and peak memory are measured per process:

    python3 perfbench/workload.py --workload pretrain_desk --seed 0 --budget 10 \
        --trace 0 --work WORKDIR --result RESULT.json --spawned START_TIME
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import logging
import math
import os
import re
import resource
import signal
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "desk.cfg"

# pretraining: 256 unlabeled pairs at the desk config; 15 steps per call give
# three calls per run 42 timed steps, enough for a p75 with 10 samples above it.
# A checkpoint every 3 steps lands in 4 of a call's 14 samples (steps 3, 6, 9
# and 12; step 15's follows the last timestamp): more than a quarter, so a
# slower save moves the p75, and fewer than half, so the p50 stays clear of it.
PRETRAIN_PAIRS = 256
PRETRAIN_STEPS = 15
PRETRAIN_SETTINGS = [f"total_steps={PRETRAIN_STEPS}", "log_interval=5", "checkpoint_interval=3"]
PRETRAIN_LOGGED_STEPS = (1, 5, 10, 15)
# fine-tune + eval: 256 labeled pairs split 8:1:1 by the CLI's default split
FINETUNE_PAIRS = 256
FINETUNE_EPOCHS = 40          # the `tijepa finetune` default
FINETUNE_BATCH = 16           # the `tijepa finetune` default

WORKLOADS = {
    "pretrain_desk": ("pretrain", []),
    "pretrain_unfrozen": ("pretrain", ["freeze_encoders=false"]),
    "finetune_eval": ("finetune_eval", []),
}


class LogCapture(logging.Handler):
    """Keeps the package's log records, which the CLI shows at the default level."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


def logged_value(record: logging.LogRecord, key: str):
    """The argument printed as `key=%...` in a %-style record, at full precision."""
    msg = record.msg if isinstance(record.msg, str) else ""
    match = re.search(rf"(?<![\w.]){re.escape(key)}=%", msg)
    if match is None or not isinstance(record.args, tuple):
        return None
    index = msg.count("%", 0, match.start()) - 2 * msg.count("%%", 0, match.start())
    return float(record.args[index])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def run(self, name: str, fn) -> None:
        """Record ``fn()``'s truth as a check; an exception fails it."""
        try:
            self.add(name, fn())
        except Exception as exc:  # a crashing check is a failed check, never a pass
            self.add(name, False, f"{type(exc).__name__}: {exc}")


class Calibration:
    """Machine-speed probe for the untraced processes.

    The effective speed of a shared machine drifts by a quarter or more
    within seconds, as other tenants come and go. A fixed burst of work that
    does not use the package runs on a timer every PERIOD_S: small numpy ops
    recorded with Python bookkeeping, like the package's tape, a plain
    dictionary loop, which tracks the interpreter-bound steps of head
    training, and a few larger matmuls. run.py leaves the bursts out of
    every measurement and scales each stretch between two bursts by a
    nominal burst time over theirs.
    """

    PERIOD_S = 0.2

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((64, 64), dtype=np.float32)
        self.b = rng.random((64, 256), dtype=np.float32)
        self.bias = rng.random(64, dtype=np.float32)
        self.bursts: list[tuple[float, float]] = []

    def burst(self, *_signal_args) -> None:
        np = self.np
        start = time.perf_counter()
        x, records = self.a, []
        for _ in range(100):
            y = x @ self.a
            y += self.bias
            if not math.isfinite(float(y.max())):
                raise ArithmeticError("calibration burst overflowed")
            records.append((y, lambda g, y=y: g * y))
            x = y * 0.01
        table, total = {}, 0
        for i in range(15000):
            table[i & 255] = i
            total += len(table)
        for _ in range(15):
            y = np.maximum((x @ self.b)[:, :64], 0.0) * 0.5 + self.a
            x = y / (1.0 + np.abs(y).max())
        self.bursts.append((start, time.perf_counter()))

    def start(self) -> None:
        self.burst()
        self.bursts.clear()  # the first burst runs cold
        self.burst()
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.burst()


def pin_to_current_cpu() -> int:
    """Pin this process to the CPU it runs on, or else to the first one allowed.

    On a shared machine the CPUs of one container are not equally contended,
    and a process the scheduler moves between them changes speed with every
    move. The benchmark's processes are single-threaded (BLAS runs one
    thread), so one CPU is all they use.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            # field 39, "processor", counted after the parenthesised name
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def quiet_dispatch(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.dispatch(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# workloads: set-up (untimed by wall_s, counted in setup_s) and one timed call


class Pretrain:
    def __init__(self, tj, work: Path, seed: int, extra: list[str]):
        self.tj = tj
        self.work = work
        self.settings = PRETRAIN_SETTINGS + extra
        examples = tj.dataprep.synth_generate(PRETRAIN_PAIRS, seed)
        self.manifest = tj.dataprep.write_synth_dataset(examples, work / "data")
        config = tj.trainer.load_config(CONFIG, self.settings)
        self.batch = min(config.batch_size, PRETRAIN_PAIRS)

    def call(self, index: int, log: LogCapture, stamps: list) -> dict:
        out = self.work / f"out{index}"
        argv = ["pretrain", "--config", str(CONFIG), "--data", str(self.manifest),
                "--out", str(out)]
        for setting in self.settings:
            argv += ["--set", setting]
        first_record, first_stamp = len(log.records), len(stamps)
        start = time.perf_counter()
        rc, _ = quiet_dispatch(self.tj.cli, argv)
        end = time.perf_counter()
        records = log.records[first_record:]
        losses = [v for v in (logged_value(r, "loss") for r in records) if v is not None]
        skipped = {}
        for r in records:
            if "skipping example" in str(r.msg):
                skipped[r.args[0]] = skipped.get(r.args[0], 0) + 1
        attempted = PRETRAIN_STEPS * self.batch
        return {
            "rc": rc, "start": start, "end": end, "stamps": stamps[first_stamp:],
            "step_examples": [self.batch - skipped.get(s, 0)
                              for s in range(1, PRETRAIN_STEPS + 1)],
            "attempted": attempted,
            "failed": attempted if rc else sum(skipped.values()),
            "losses": losses, "out": str(out),
        }

    def check(self, call: dict, checks: Checks) -> None:
        tj = self.tj
        checks.add("pretrain exits 0", call["rc"] == 0, f"exit code {call['rc']}")
        checks.add("one timestamp per step", len(call["stamps"]) == PRETRAIN_STEPS,
                   f"{len(call['stamps'])} of {PRETRAIN_STEPS}")
        checks.add("every logged loss is finite",
                   len(call["losses"]) == len(PRETRAIN_LOGGED_STEPS)
                   and all(math.isfinite(v) for v in call["losses"]), str(call["losses"]))
        final = Path(call["out"]) / "checkpoint_final.tijp"
        call["sha256"] = sha256(final) if final.is_file() else None

        def reloads_identically():
            state = tj.trainer.load_checkpoint(final)
            copy = final.with_name("resaved.tijp")
            tj.trainer.save_checkpoint(state, copy)
            return state.step == PRETRAIN_STEPS and copy.read_bytes() == final.read_bytes()

        checks.run("final checkpoint loads and re-saves byte-identically", reloads_identically)


class FinetuneEval:
    def __init__(self, tj, work: Path, seed: int, extra: list[str]):
        self.tj = tj
        self.work = work
        examples = tj.dataprep.synth_generate(FINETUNE_PAIRS, seed, labeled=True)
        self.manifest = tj.dataprep.write_synth_dataset(examples, work / "data")
        self.ckpt = work / "pretrained.tijp"
        state = tj.trainer.PretrainState.initialize(tj.trainer.load_config(CONFIG))
        tj.trainer.save_checkpoint(state, self.ckpt)
        self.n_test = FINETUNE_PAIRS // 10
        n_train = FINETUNE_PAIRS - 2 * (FINETUNE_PAIRS // 10)
        self.train_batches = [min(FINETUNE_BATCH, n_train - s)
                              for s in range(0, n_train, FINETUNE_BATCH)] * FINETUNE_EPOCHS
        self.n_train = n_train

    def call(self, index: int, log: LogCapture, stamps: list) -> dict:
        out = self.work / f"out{index}"
        first_record, first_stamp = len(log.records), len(stamps)
        start = time.perf_counter()
        rc_ft, _ = quiet_dispatch(self.tj.cli, ["finetune", "--ckpt", str(self.ckpt),
                                                "--data", str(self.manifest), "--out", str(out)])
        rc_ev, report = quiet_dispatch(self.tj.cli, [
            "eval", "--ckpt", str(self.ckpt), "--head", str(out / "head.tijp"),
            "--data", str(self.manifest), "--dump"])
        end = time.perf_counter()
        losses = [v for v in (logged_value(r, "train_loss")
                              for r in log.records[first_record:]) if v is not None]
        dump = dict(line.split("=", 1) for line in report.splitlines()
                    if re.fullmatch(r"[\w.]+=[^=\s]+", line))
        attempted = self.n_train * FINETUNE_EPOCHS + self.n_test
        return {
            "rc": rc_ft or rc_ev, "start": start, "end": end,
            "stamps": stamps[first_stamp:],
            "step_examples": self.train_batches,
            "attempted": attempted, "failed": attempted if (rc_ft or rc_ev) else 0,
            "losses": losses, "out": str(out), "dump": dump,
        }

    def check(self, call: dict, checks: Checks) -> None:
        tj = self.tj
        checks.add("finetune and eval exit 0", call["rc"] == 0, f"exit code {call['rc']}")
        checks.add("one timestamp per head step",
                   len(call["stamps"]) == len(self.train_batches),
                   f"{len(call['stamps'])} of {len(self.train_batches)}")
        checks.add("every logged epoch loss is finite",
                   len(call["losses"]) == FINETUNE_EPOCHS
                   and all(math.isfinite(v) for v in call["losses"]), str(call["losses"][-3:]))
        support = sum(int(v) for k, v in call["dump"].items() if k.endswith(".support"))
        checks.add("confusion-matrix total equals the test split size",
                   support == self.n_test, f"{support} vs {self.n_test}")
        f1 = float(call["dump"].get("macro_f1", "nan"))
        checks.add("macro F1 lies in [0, 1]", 0.0 <= f1 <= 1.0, str(f1))
        call["macro_f1"] = f1
        head = Path(call["out"]) / "head.tijp"
        call["sha256"] = sha256(head) if head.is_file() else None

        def reloads_identically():
            copy = head.with_name("resaved.tijp")
            tj.eval_head.save_head(tj.eval_head.load_head(head), copy)
            return copy.read_bytes() == head.read_bytes()

        checks.run("head loads and re-saves byte-identically", reloads_identically)


# ---------------------------------------------------------------------------


def environment(np) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.perf_counter() when the process was started")
    args = parser.parse_args(argv)

    cpu = pin_to_current_cpu()
    import numpy as np

    calibration = None if args.trace else Calibration(np)
    if calibration is not None:
        calibration.start()
    sys.path.insert(0, str(ROOT / "src"))
    import tijepa
    from tracer import Tracer, install_step_clock

    if Path(tijepa.__file__).resolve().parent != ROOT / "src" / "tijepa":
        raise SystemExit(f"imported tijepa from {tijepa.__file__}, not from this checkout")
    tj = types.SimpleNamespace(**{m: importlib.import_module(f"tijepa.{m}")
                                  for m in ("cli", "dataprep", "eval_head", "trainer")})

    tracer = None
    stamps: list[float] = []
    if args.trace:
        tracer = Tracer()
        tracer.install(tijepa)
        stamps = tracer.boundaries
    else:
        install_step_clock(tijepa, stamps)
    log = LogCapture()
    logger = logging.getLogger("tijepa")
    logger.setLevel(logging.INFO)
    logger.addHandler(log)
    logger.propagate = False

    kind, extra = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    workload = (Pretrain if kind == "pretrain" else FinetuneEval)(tj, args.work, args.seed, extra)

    # timed calls, one after another, until they have taken the budget to the
    # nearest whole call
    first_call = time.perf_counter()
    calls = []
    while True:
        if tracer is not None:
            tracer.on = True
        call = workload.call(len(calls), log, stamps)
        if tracer is not None:
            tracer.on = False
        calls.append(call)
        if call["end"] - first_call + (call["end"] - call["start"]) / 2 >= args.budget:
            break
    if calibration is not None:
        calibration.stop()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks = Checks()
    for call in calls:
        workload.check(call, checks)
    result = {"spawned": args.spawned, "first_call": first_call, "rss_kib": rss_kib,
              "calls": calls, "bursts": calibration.bursts if calibration is not None else [],
              "cpu": cpu,
              "checks": checks.items, "env": environment(np),
              "trace": tracer.summary() if tracer is not None else None}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        with open(args.result.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
