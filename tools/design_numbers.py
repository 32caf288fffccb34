"""Print the north star's two design-quality numbers and counts of fusion and keying work.

- ``src/tijepa`` lines, per module and in total;
- the tape records of one desk-config training step, by op, with frozen and
  with trainable encoders. They are counted from the tape itself just before
  ``backward`` replays it, so every op is counted under its own name;
- the MiB the tape holds at that moment: the distinct base arrays of every
  record's inputs and output and of what its backward captured. The step's
  memory peak is where ``backward`` starts, so this is the part of
  ``peak_rss_mib`` that a change to what records keep moves, with no noise;
- the (image, caption) pairs fused by one ``finetune`` plus one ``evaluate``
  call on a 256-pair labeled synthetic set in the CLI's train/val/test split,
  counted as the segments passed to ``FusionModule.__call__``. Unlike a wall
  time, this number has no noise;
- the images SHA-256-hashed by one 15-step desk pretraining call on 256
  synthetic pairs, frozen and unfrozen, in all and once its first step has
  begun, and by that ``finetune`` plus ``evaluate``;
- the MiB of image data that 256 desk pairs hold once written with
  ``write_synth_dataset`` and read back with ``load_manifest``, as a
  ``tijepa pretrain --data`` run holds them, and the MiB SHA-256-hashed by one
  15-step desk pretraining call on them. Both are byte counts, with no noise;
- the finiteness scans (``_check_finite`` calls, through every module's
  binding) per step of a 15-step desk pretraining call on those loaded pairs,
  frozen and unfrozen, as calls and as MiB scanned, and the scans that a call
  makes before its first step, on those pairs and on the same pairs in memory.

Run from the repository root (a few seconds on one core):

    PYTHONPATH=src python tools/design_numbers.py
"""

import dataclasses
import importlib
import pkgutil
import tempfile
import types
from collections import Counter
from pathlib import Path

import numpy as np

import tijepa
from tijepa import core, numerics, trainer
from tijepa.core import FusionModule
from tijepa.dataprep import load_manifest, split_dataset, synth_generate, write_synth_dataset
from tijepa.eval_head import evaluate, finetune
from tijepa.numerics import Tensor, active_tape
from tijepa.trainer import PretrainState, TiJepaConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "tijepa"


def src_lines(root: Path = SRC) -> dict[str, int]:
    """The line count of each module under ``root``, by file name."""
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(root.glob("*.py"))}


def held_arrays(tape) -> list[np.ndarray]:
    """The distinct base arrays that ``tape`` references: each record's inputs
    and output, and the arrays and tensors its backward closure captured."""
    held = {}
    for _op, inputs, output, back in tape:
        cells = [cell.cell_contents for cell in back.__closure__ or ()]
        for item in (*inputs, output, *cells):
            arr = item.data if isinstance(item, Tensor) else item
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                held[id(arr)] = arr
    return list(held.values())


def tape_at_backward(config: TiJepaConfig, dataset) -> tuple[Counter, int]:
    """The records on the tape of ``config``'s first training step, by op, and
    the bytes of the arrays they hold, taken just before ``backward`` replays it."""
    measured = []
    real_backward = trainer.backward

    def measured_backward(loss):
        tape = active_tape()
        measured.append((Counter(op for op, *_ in tape), sum(a.nbytes for a in held_arrays(tape))))
        real_backward(loss)

    trainer.backward = measured_backward
    try:
        trainer.train(dataclasses.replace(config, total_steps=1), dataset)
    finally:
        trainer.backward = real_backward
    return measured[0]


def tape_records(config: TiJepaConfig, dataset) -> Counter:
    """The records on the tape of ``config``'s first training step, by op."""
    return tape_at_backward(config, dataset)[0]


def finetune_and_eval(config: TiJepaConfig, examples) -> None:
    """A one-epoch ``finetune`` of an initialised ``config`` state on the train and
    val splits of ``examples``, then an ``evaluate`` on their test split; the epoch
    count changes only head steps, which fuse and key nothing."""
    state = PretrainState.initialize(config)
    train, val, test = split_dataset(examples)
    head, _ = finetune(state, train, val, epochs=1)
    evaluate(state, head, test)


def as_loaded(examples) -> list:
    """``examples`` as a manifest run holds them: written with ``write_synth_dataset``
    to a temporary directory and read back with ``load_manifest``."""
    with tempfile.TemporaryDirectory() as work:
        return load_manifest(write_synth_dataset(examples, work))


def image_hashes(run) -> tuple[int, int, int]:
    """The images that ``run()`` hashes, in all and once a pretraining step has
    begun (from the training loop's first ``zero_grads`` on), and the bytes hashed."""
    counts = Counter()
    real_hashlib, real_zero_grads = core.hashlib, trainer.zero_grads

    def sha256(data):
        counts["all"] += 1
        counts["in_steps"] += counts["steps"] > 0
        counts["bytes"] += memoryview(data).nbytes
        return real_hashlib.sha256(data)

    def zero_grads(params):
        counts["steps"] += 1
        real_zero_grads(params)

    core.hashlib, trainer.zero_grads = types.SimpleNamespace(sha256=sha256), zero_grads
    try:
        run()
    finally:
        core.hashlib, trainer.zero_grads = real_hashlib, real_zero_grads
    return counts["all"], counts["in_steps"], counts["bytes"]


def finiteness_scans(run) -> Counter:
    """The finiteness scans that ``run()`` makes, by key: ``before_calls`` and
    ``before_bytes`` until a pretraining step begins (the training loop's first
    ``zero_grads``), ``in_steps_calls`` and ``in_steps_bytes`` from then on, and
    ``steps``, the steps begun. Every module-level binding of ``_check_finite`` is
    wrapped, so a scan through any module's import is counted."""
    counts, real_check, real_zero_grads = Counter(), numerics._check_finite, trainer.zero_grads

    def check_finite(arr, *args):
        where = "in_steps" if counts["steps"] else "before"
        counts[f"{where}_calls"] += 1
        counts[f"{where}_bytes"] += arr.nbytes
        real_check(arr, *args)

    def zero_grads(params):
        counts["steps"] += 1
        real_zero_grads(params)

    bound = []
    for info in pkgutil.iter_modules(tijepa.__path__):
        if not info.name.startswith("_"):  # importing ``__main__`` would run the CLI
            module = importlib.import_module(f"tijepa.{info.name}")
            bound += [(module, name) for name, obj in vars(module).items() if obj is real_check]
    for module, name in bound:
        setattr(module, name, check_finite)
    trainer.zero_grads = zero_grads
    try:
        run()
    finally:
        for module, name in bound:
            setattr(module, name, real_check)
        trainer.zero_grads = real_zero_grads
    return counts


def pairs_fused(config: TiJepaConfig, examples) -> int:
    """The pairs fused by :func:`finetune_and_eval`."""
    count = 0
    real_call = FusionModule.__call__

    def counted_call(self, patch_reps, text_reps, segments=None, text_segments=None):
        nonlocal count
        count += 1 if segments is None else len(segments)
        return real_call(self, patch_reps, text_reps, segments, text_segments)

    FusionModule.__call__ = counted_call
    try:
        finetune_and_eval(config, examples)
    finally:
        FusionModule.__call__ = real_call
    return count


def main() -> None:
    lines = src_lines()
    for name, count in lines.items():
        print(f"src/tijepa/{name}\t{count}")
    print(f"src/tijepa total\t{sum(lines.values())}")
    dataset = synth_generate(16, seed=0)
    for label, frozen in (("frozen", True), ("unfrozen", False)):
        counts, held = tape_at_backward(TiJepaConfig(freeze_encoders=frozen), dataset)
        ops = ", ".join(f"{op} {n}" for op, n in counts.most_common())
        print(f"tape records per desk step, {label}\t{sum(counts.values())}\t({ops})")
        print(f"tape-held MiB at backward, {label}\t{held / 2**20:.1f}")
    labeled = synth_generate(256, seed=0, labeled=True)
    print(f"pairs fused per finetune + eval, 256 labeled pairs\t"
          f"{pairs_fused(TiJepaConfig(), labeled)}")
    pairs = synth_generate(256, seed=0)
    for label, frozen in (("frozen", True), ("unfrozen", False)):
        config = TiJepaConfig(freeze_encoders=frozen, total_steps=15)
        total, in_steps, _ = image_hashes(lambda: trainer.train(config, pairs))
        print(f"image hashes per 15-step desk pretraining call, 256 pairs, {label}\t{total}\t"
              f"({in_steps} inside steps)")
    total, _, _ = image_hashes(lambda: finetune_and_eval(TiJepaConfig(), labeled))
    print(f"image hashes per finetune + eval, 256 labeled pairs\t{total}")
    loaded = as_loaded(pairs)
    print(f"image MiB held by 256 desk pairs loaded from a manifest\t"
          f"{sum(e.image.nbytes for e in loaded) / 2**20:.1f}")
    *_, hashed = image_hashes(lambda: trainer.train(TiJepaConfig(total_steps=15), loaded))
    print(f"MiB SHA-256-hashed per 15-step desk pretraining call on them\t{hashed / 2**20:.1f}")
    for label, frozen in (("frozen", True), ("unfrozen", False)):
        config = TiJepaConfig(freeze_encoders=frozen, total_steps=15)
        scans = finiteness_scans(lambda: trainer.train(config, loaded))
        print(f"finiteness scans per desk step on them, {label}\t"
              f"{scans['in_steps_calls'] / scans['steps']:.1f}\t"
              f"({scans['in_steps_bytes'] / scans['steps'] / 2**20:.2f} MiB)")
    for label, data in (("loaded from a manifest", loaded), ("in memory", pairs)):
        scans = finiteness_scans(lambda: trainer.train(TiJepaConfig(total_steps=1), data))
        print(f"finiteness scans before step 1 of a desk pretraining call, 256 pairs {label}\t"
              f"{scans['before_calls']}\t({scans['before_bytes'] / 2**20:.1f} MiB)")


if __name__ == "__main__":
    main()
