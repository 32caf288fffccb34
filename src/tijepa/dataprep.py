"""Dataset ingestion: manifests, synthetic paired data, and the sentiment
label-reconciliation and splitting procedures used before fine-tuning.

Single-annotator pairs keep agreeing labels, drop positive/negative
conflicts, and let a non-neutral label override a neutral one. Triple
annotations are majority-voted per modality first, with perfectly split
votes discarded as ambiguous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoders import load_image, write_ppm
from .errors import DataError, read_input

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"
LABELS = (POSITIVE, NEUTRAL, NEGATIVE)
LABEL_TO_INDEX = {label: i for i, label in enumerate(LABELS)}

_STREAM_SPLIT = 4
_STREAM_SYNTH = 5


def _check_label(label: str) -> str:
    if label not in LABELS:
        raise DataError(f"unknown sentiment label '{label}'")
    return label


# ---------------------------------------------------------------------------
# label reconciliation


def reconcile_single(text_label: str, image_label: str) -> str | None:
    """Merge one text and one image label; None means discard the pair."""
    a, b = _check_label(text_label), _check_label(image_label)
    if a == b:
        return a
    if NEUTRAL not in (a, b):
        return None  # positive vs negative: contradictory, unreliable
    return a if b == NEUTRAL else b


def majority_vote(labels) -> str | None:
    """Label held by at least two of three annotators; None when all differ."""
    votes = [_check_label(l) for l in labels]
    if len(votes) != 3:
        raise DataError(f"majority_vote needs exactly 3 labels, got {len(votes)}")
    for candidate in set(votes):
        if votes.count(candidate) >= 2:
            return candidate
    return None


@dataclass(frozen=True)
class AnnotatedPair:
    identifier: str
    text_labels: tuple[str, ...]
    image_labels: tuple[str, ...]

    def validate(self) -> None:
        if len(self.text_labels) != len(self.image_labels):
            raise DataError(f"pair {self.identifier}: label arity differs between modalities")
        if len(self.text_labels) not in (1, 3):
            raise DataError(f"pair {self.identifier}: label arity must be 1 or 3")


@dataclass
class ReconcileStats:
    """Per-class retention counts plus discard reasons, Table-style."""

    counts: dict[str, int] = field(default_factory=lambda: {l: 0 for l in LABELS})
    discarded_conflict: int = 0   # non-neutral labels on both sides that disagree
    discarded_ambiguous: int = 0  # a modality's three annotators all differ
    total_input: int = 0

    @property
    def total_kept(self) -> int:
        return sum(self.counts.values())

    def format_table(self) -> str:
        lines = [
            "Positive\tNeutral\tNegative\tTotal",
            f"{self.counts[POSITIVE]}\t{self.counts[NEUTRAL]}\t"
            f"{self.counts[NEGATIVE]}\t{self.total_kept}",
            f"discarded (cross-modal conflict): {self.discarded_conflict}",
            f"discarded (ambiguous vote): {self.discarded_ambiguous}",
            f"input pairs: {self.total_input}",
        ]
        return "\n".join(lines)


def reconcile_pairs(pairs, mode: str) -> tuple[list[tuple[str, str]], ReconcileStats]:
    """Run the reconciliation for annotation arity 'single' or 'multi'."""
    if mode not in ("single", "multi"):
        raise DataError(f"mode must be 'single' or 'multi', got '{mode}'")
    stats = ReconcileStats()
    kept: list[tuple[str, str]] = []
    for pair in pairs:
        pair.validate()
        stats.total_input += 1
        if mode == "single":
            if len(pair.text_labels) != 1:
                raise DataError(f"pair {pair.identifier}: single mode needs 1 label per side")
            label = reconcile_single(pair.text_labels[0], pair.image_labels[0])
            if label is None:
                stats.discarded_conflict += 1
                continue
        else:
            if len(pair.text_labels) != 3:
                raise DataError(f"pair {pair.identifier}: multi mode needs 3 labels per side")
            text = majority_vote(pair.text_labels)
            image = majority_vote(pair.image_labels)
            if text is None or image is None:
                stats.discarded_ambiguous += 1
                continue
            label = reconcile_single(text, image)
            if label is None:
                stats.discarded_conflict += 1
                continue
        stats.counts[label] += 1
        kept.append((pair.identifier, label))
    return kept, stats


def _read_rows(path, what: str, parse_row) -> list:
    """``parse_row(*fields)`` of each non-blank line of a file of three tab-separated
    fields; a DataError in a line is prefixed with ``path:line:``."""
    rows = []
    for lineno, line in enumerate(read_input(path, what, text=True).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 3:
                raise DataError(f"expected 3 tab-separated fields, got {len(fields)}")
            rows.append(parse_row(*fields))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return rows


def load_annotations(path) -> list[AnnotatedPair]:
    """Read `id<TAB>text_labels<TAB>image_labels` lines, labels comma-separated."""
    def parse(identifier, text_part, image_part):
        pair = AnnotatedPair(identifier.strip(),
                             tuple(l.strip() for l in text_part.split(",")),
                             tuple(l.strip() for l in image_part.split(",")))
        pair.validate()
        for label in (*pair.text_labels, *pair.image_labels):
            _check_label(label)
        return pair
    return _read_rows(path, "annotation file", parse)


# ---------------------------------------------------------------------------
# splitting


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple[int, int, int] = (8, 1, 1)
    seed: int = 0


def split_dataset(examples, spec: SplitSpec = SplitSpec()):
    """Seeded shuffle, then contiguous train/val/test slices.

    Val and test get floor(n * ratio / sum) each; the remainder goes to train,
    so the partition is exact and disjoint.
    """
    if any(r <= 0 for r in spec.ratios):
        raise DataError("split ratios must be positive")
    n = len(examples)
    if n < 10:
        raise DataError(f"need at least 10 examples to split, got {n}")
    total = sum(spec.ratios)
    n_val = n * spec.ratios[1] // total
    n_test = n * spec.ratios[2] // total
    n_train = n - n_val - n_test
    order = np.random.default_rng([spec.seed, _STREAM_SPLIT]).permutation(n)
    picked = [examples[int(i)] for i in order]
    return (picked[:n_train],
            picked[n_train:n_train + n_val],
            picked[n_train + n_val:])


# ---------------------------------------------------------------------------
# paired examples, manifests, synthetic data


@dataclass
class PairedExample:
    """One (image, caption) pair. A PPM's ``image`` holds its uint8 pixels, as the file
    does; a RAWT or synthetic one holds float32 in [0, 1]."""

    image: np.ndarray | None
    caption: str
    label: str | None = None
    path: str | None = None


def load_manifest(path) -> list[PairedExample]:
    """Read `image_path<TAB>label_or_dash<TAB>caption` lines; paths resolve
    relative to the manifest file, and every image is loaded eagerly."""
    base = Path(path).parent

    def parse(rel_path, label, caption):
        label = label.strip()
        if label != "-" and label not in LABELS:
            raise DataError(f"bad label '{label}' (want -, {', '.join(LABELS)})")
        image_path = base / rel_path.strip()
        return PairedExample(load_image(image_path), caption, None if label == "-" else label,
                             str(image_path))
    return _read_rows(path, "manifest", parse)


SYNTH_COLORS = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
}
SYNTH_QUADRANTS = ("top-left", "top-right", "bottom-left", "bottom-right")
# color -> sentiment for labeled synthetic sets
SYNTH_LABELS = {"green": POSITIVE, "yellow": POSITIVE, "blue": NEUTRAL, "red": NEGATIVE}
_SYNTH_BACKGROUND = 0.5


def _synth_image(color: str, quadrant: str, image_size: int) -> np.ndarray:
    img = np.full((3, image_size, image_size), _SYNTH_BACKGROUND, dtype=np.float32)
    half = image_size // 2
    qi = SYNTH_QUADRANTS.index(quadrant)
    r0 = (qi // 2) * half
    c0 = (qi % 2) * half
    for channel, value in enumerate(SYNTH_COLORS[color]):
        img[channel, r0:r0 + half, c0:c0 + half] = value
    return img


def synth_generate(n: int, seed: int, image_size: int = 64,
                   labeled: bool = False) -> list[PairedExample]:
    """Deterministic colored-square dataset: one solid square per quadrant on a
    gray background, captioned "<color> square at <quadrant>".

    Combinations are dealt round-robin from a fresh shuffle every 16 examples,
    so any 16 consecutive examples cover all (color, quadrant) pairs.
    """
    if n < 1:
        raise DataError("synth_generate needs n >= 1")
    if image_size < 2 or image_size % 2 != 0:
        raise DataError(f"synthetic image size must be a positive even number, got {image_size}")
    combos = list(itertools.product(SYNTH_COLORS, SYNTH_QUADRANTS))
    rng = np.random.default_rng([seed, _STREAM_SYNTH])
    examples = []
    order: list[int] = []
    for i in range(n):
        if i % len(combos) == 0:
            order = list(rng.permutation(len(combos)))
        color, quadrant = combos[order[i % len(combos)]]
        caption = f"{color} square at {quadrant}"
        label = SYNTH_LABELS[color] if labeled else None
        examples.append(PairedExample(_synth_image(color, quadrant, image_size),
                                      caption, label))
    return examples


def write_synth_dataset(examples, out_dir) -> Path:
    """Write PPM images plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, example in enumerate(examples):
        rel = f"images/pair_{i:05d}.ppm"
        write_ppm(out / rel, example.image)
        label = example.label if example.label is not None else "-"
        lines.append(f"{rel}\t{label}\t{example.caption}")
    manifest = out / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
