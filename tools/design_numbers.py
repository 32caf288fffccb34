"""Print the north star's two design-quality numbers.

- ``src/tijepa`` lines, per module and in total;
- the tape records of one desk-config training step, by op, with frozen and
  with trainable encoders. They are counted from the tape itself just before
  ``backward`` replays it, so every op is counted under its own name.

Run from the repository root (a few seconds on one core):

    PYTHONPATH=src python tools/design_numbers.py
"""

import dataclasses
from collections import Counter
from pathlib import Path

from tijepa import trainer
from tijepa.dataprep import synth_generate
from tijepa.numerics import active_tape
from tijepa.trainer import TiJepaConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "tijepa"


def src_lines(root: Path = SRC) -> dict[str, int]:
    """The line count of each module under ``root``, by file name."""
    return {path.name: len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(root.glob("*.py"))}


def tape_records(config: TiJepaConfig, dataset) -> Counter:
    """The records on the tape of ``config``'s first training step, by op."""
    counts: Counter = Counter()
    real_backward = trainer.backward

    def counted_backward(loss):
        counts.update(op for op, *_ in active_tape())
        real_backward(loss)

    trainer.backward = counted_backward
    try:
        trainer.train(dataclasses.replace(config, total_steps=1), dataset)
    finally:
        trainer.backward = real_backward
    return counts


def main() -> None:
    lines = src_lines()
    for name, count in lines.items():
        print(f"src/tijepa/{name}\t{count}")
    print(f"src/tijepa total\t{sum(lines.values())}")
    dataset = synth_generate(16, seed=0)
    for label, frozen in (("frozen", True), ("unfrozen", False)):
        counts = tape_records(TiJepaConfig(freeze_encoders=frozen), dataset)
        ops = ", ".join(f"{op} {n}" for op, n in counts.most_common())
        print(f"tape records per desk step, {label}\t{sum(counts.values())}\t({ops})")


if __name__ == "__main__":
    main()
