"""Linear sentiment head on frozen fused representations, plus metrics.

The backbone (encoders + online fusion module) runs gradient-free; only the
single linear layer trains. A fine-tune (train and val in one pass) or an
eval call keys its examples once, in one :class:`~tijepa.core.PairInputs`
table. Because the backbone never moves, each distinct (image, caption) pair
is pooled once, ``batch_size`` pairs a forward, and reused across epochs.
A head step, validation and evaluation each run on a whole batch of features.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FusionModule, PairInputs, distinct_rows, fuse_image
from .dataprep import LABELS, LABEL_TO_INDEX
from .errors import DataError, ShapeError
from .numerics import (INIT_STD, Module, Tensor, _check_finite, _wrap, backward,
                       cross_entropy_logits, linear, no_grad, scale, zero_grads)
from .trainer import (AdamWState, PretrainState, _file_tensors, _keep_freed_memory,
                      _load_tensors, _tensor_views, adamw_step, write_tensor_file)

logger = logging.getLogger(__name__)

_STREAM_HEAD = 6


class ClassifierHead(Module):
    """One linear layer from pooled fused features to three class logits."""

    PREFIX = "head"

    def __init__(self, feature_dim: int, rng: np.random.Generator | None = None):
        self.feature_dim = feature_dim
        self.weight = self._param("weight", (feature_dim, len(LABELS)), rng, INIT_STD)
        self.bias = self._param("bias", (len(LABELS),), rng)

    def logits(self, pooled: Tensor) -> Tensor:
        """(B, feature_dim) pooled features to (B, 3) class logits."""
        return linear(pooled, self.weight, self.bias)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """The highest-scoring class index of every row of ``features``, which
        :func:`pooled_representation` has checked: they are used as they are."""
        with no_grad():
            return np.argmax(self.logits(_wrap(np.asarray(features))).data, axis=1)


def pooled_representation(table: PairInputs, rows, fusion: FusionModule) -> np.ndarray:
    """The mean over each of ``table``'s pairs ``rows`` of its fused full-image patch
    rows, (B, D), gradient-free; no loss guards them, so non-finite features raise
    ``NumericalError``."""
    with no_grad():
        fused, sizes = fuse_image(table, rows, fusion)
    pooled = fused.data.reshape(len(sizes), sizes[0], -1).mean(axis=1)
    _check_finite(pooled, "pooled features")
    return pooled


def _pooled_features(state: PretrainState, examples) -> tuple[np.ndarray, np.ndarray]:
    """Pooled features and label indices of labeled examples: each distinct
    (image, caption) pair is pooled once, in chunks of ``batch_size`` pairs.
    A missing or wrong-size image raises ``DataError`` at its position in
    ``examples`` before any pooling."""
    if any(example.label is None for example in examples):
        raise DataError("fine-tuning and evaluation require labeled examples")
    # each distinct pair is fused once, so stored encodings would only hold memory
    table = PairInputs([e.image for e in examples], [e.caption for e in examples],
                       state.config.image_size, state.image_encoder, state.text_encoder,
                       stored=False)
    first, inverse = distinct_rows(table.ids)
    step = state.config.batch_size
    pooled = [pooled_representation(table, table.ids[first[lo:lo + step]], state.fusion)
              for lo in range(0, len(first), step)]
    features = (np.concatenate(pooled)[inverse] if pooled
                else np.zeros((0, state.config.embed_dim), dtype=np.float32))
    return features, np.array([LABEL_TO_INDEX[e.label] for e in examples], dtype=np.int64)


# ---------------------------------------------------------------------------
# fine-tuning


@dataclass
class FinetuneHistory:
    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)


def finetune(state: PretrainState, train_examples, val_examples=(), epochs: int = 40,
             lr: float = 0.001, batch_size: int = 16, seed: int = 0,
             head: ClassifierHead | None = None) -> tuple[ClassifierHead, FinetuneHistory]:
    """Train the head with Adam (no weight decay) on frozen backbone features."""
    _keep_freed_memory()
    if not train_examples:
        raise DataError("fine-tuning train split is empty")
    if epochs < 1 or batch_size < 1:
        raise DataError(f"epochs and batch size must be positive, got {epochs} and {batch_size}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise DataError(f"learning rate must be finite and >= 0, got {lr}")
    if head is None:
        head = ClassifierHead(state.config.embed_dim, np.random.default_rng([seed, _STREAM_HEAD]))
    elif head.feature_dim != state.config.embed_dim:
        raise DataError(f"head width {head.feature_dim} != checkpoint width "
                        f"{state.config.embed_dim}")
    n = len(train_examples)
    features, labels = _pooled_features(state, [*train_examples, *val_examples])
    (features, val_features), (labels, val_labels) = np.split(features, [n]), np.split(labels, [n])

    params = head.named_parameters()
    opt = AdamWState.create(params)
    history = FinetuneHistory()
    batch_size = min(batch_size, n)
    for epoch in range(epochs):
        order = np.random.default_rng([seed, _STREAM_HEAD, epoch + 1]).permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            zero_grads(params)
            # the gather is the batch's one copy; pooled_representation checked it
            total = cross_entropy_logits(head.logits(_wrap(features[batch])), labels[batch])
            loss = scale(total, 1.0 / len(batch))
            epoch_losses.append(loss.item())
            backward(loss)
            adamw_step(params, opt, lr, weight_decay=0.0)
        history.train_losses.append(float(np.mean(epoch_losses)))
        if len(val_labels):
            acc = float(np.mean(head.predict(val_features) == val_labels))
            history.val_accuracies.append(acc)
            logger.info("epoch %d: train_loss=%.4f val_acc=%.4f",
                        epoch + 1, history.train_losses[-1], acc)
        else:
            logger.info("epoch %d: train_loss=%.4f", epoch + 1, history.train_losses[-1])
    return head, history


def save_head(head: ClassifierHead, path) -> None:
    write_tensor_file(path, _file_tensors(head.named_parameters()))


def load_head(path) -> ClassifierHead:
    tensors = _tensor_views(path)
    weight = tensors.get("head.weight")
    if weight is None or weight.ndim != 2:
        raise DataError(f"not a classifier head checkpoint: {path}")
    head = ClassifierHead(weight.shape[0])
    _load_tensors(head.named_parameters(), None, tensors, path)
    return head


# ---------------------------------------------------------------------------
# metrics


class ConfusionMatrix:
    """3x3 counts, rows = true class, cols = predicted class."""

    def __init__(self, counts=None):
        if counts is None:
            self.counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
        else:
            arr = np.asarray(counts, dtype=np.int64)
            if arr.shape != (len(LABELS), len(LABELS)) or (arr < 0).any():
                raise ShapeError("confusion matrix must be 3x3 with non-negative counts")
            self.counts = arr.copy()

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    macro_f1: float
    weighted_f1: float
    zero_division_hit: bool  # some class had a 0/0 precision/recall, reported as 0


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """One-vs-rest precision/recall/F1 per class, accuracy, and F1 aggregates.

    0/0 ratios are defined as 0 and flagged in the report.
    """
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise DataError("cannot compute metrics over an empty confusion matrix")
    zero_hit = False
    per_class = []
    for c in range(len(LABELS)):
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        fn = int(counts[c, :].sum()) - tp
        if tp + fp == 0 or tp + fn == 0:
            zero_hit = True
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassMetrics(precision, recall, f1, tp + fn))
    accuracy = float(np.trace(counts)) / total
    macro_f1 = float(np.mean([m.f1 for m in per_class]))
    weighted_f1 = float(sum(m.f1 * m.support for m in per_class)) / total
    return MetricsReport(tuple(per_class), accuracy, macro_f1, weighted_f1, zero_hit)


def evaluate(state: PretrainState, head: ClassifierHead, examples) -> ConfusionMatrix:
    _keep_freed_memory()
    if head.feature_dim != state.config.embed_dim:
        raise DataError(f"head width {head.feature_dim} != checkpoint width "
                        f"{state.config.embed_dim}")
    features, labels = _pooled_features(state, examples)
    cm = ConfusionMatrix()
    np.add.at(cm.counts, (labels, head.predict(features)), 1)
    return cm


def format_report(report: MetricsReport) -> str:
    lines = [
        "Accuracy (%)\tMacro-F1 (%)\tWeighted-F1 (%)",
        f"{report.accuracy * 100:.2f}\t{report.macro_f1 * 100:.2f}\t"
        f"{report.weighted_f1 * 100:.2f}",
        "",
        "class\tprecision\trecall\tf1\tsupport",
    ]
    for label, m in zip(LABELS, report.per_class):
        lines.append(f"{label}\t{m.precision:.4f}\t{m.recall:.4f}\t{m.f1:.4f}\t{m.support}")
    if report.zero_division_hit:
        lines.append("note: some 0/0 precision/recall values reported as 0")
    return "\n".join(lines)


def dump_report(report: MetricsReport) -> str:
    """Machine-readable key=value lines."""
    pairs = [
        ("accuracy", report.accuracy),
        ("macro_f1", report.macro_f1),
        ("weighted_f1", report.weighted_f1),
    ]
    for label, m in zip(LABELS, report.per_class):
        pairs.extend([(f"{label}.precision", m.precision), (f"{label}.recall", m.recall),
                      (f"{label}.f1", m.f1), (f"{label}.support", m.support)])
    return "\n".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in pairs)
