"""Pretraining loop: AdamW on the online fusion module and predictor, an EMA
momentum ramp for the target fusion twin, collapse diagnostics, and versioned
binary checkpoints.

All randomness derives from counter-based seeds (global seed, stream, epoch,
example index), so runs are bitwise reproducible and a resumed run replays
exactly like an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import logging
import math
import os
import platform
import struct
import zlib
from pathlib import Path

import numpy as np

from .core import CrossAttnConfig, FusionModule, PairInputs, Predictor, example_loss, make_targets
from .encoders import ImageEncoder, TextEncoder
from .errors import DataError, MaskSamplingError, NumericalError, ShapeError, read_input
from .masking import MaskSet, sample_masks
from .numerics import Module, Tensor, _check_finite, active_tape, backward, no_grad, zero_grads

logger = logging.getLogger(__name__)

# sub-stream tags so every random draw is a pure function of (seed, purpose, ...)
_STREAM_INIT = 0
_STREAM_SHUFFLE = 1
_STREAM_MASK = 2
_STREAM_SENSITIVITY = 3


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class TiJepaConfig:
    """Every architecture and training hyperparameter, flat for `key = value` files,
    validated when it is built (``__post_init__``): an invalid config cannot exist."""

    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    text_embed_dim: int = 64
    encoder_depth: int = 2
    encoder_heads: int = 4
    max_text_len: int = 32
    freeze_encoders: bool = True
    fusion_layers: int = 2
    fusion_heads: int = 4
    fusion_hidden: int = 64
    mlp_ratio: int = 4
    predictor_depth: int = 2
    predictor_heads: int = 4
    predictor_width: int = 64
    freeze_predictor: bool = False
    num_targets: int = 4
    ctx_scale_lo: float = 0.85
    ctx_scale_hi: float = 1.0
    tgt_scale_lo: float = 0.15
    tgt_scale_hi: float = 0.2
    tgt_aspect_lo: float = 0.75
    tgt_aspect_hi: float = 1.5
    mask_max_retries: int = 20
    ema_start: float = 0.996
    ema_end: float = 1.0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.05
    batch_size: int = 16
    total_steps: int = 200
    log_interval: int = 10
    checkpoint_interval: int = 100
    loss_type: str = "l2"
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for key in ("image_size", "embed_dim", "text_embed_dim", "encoder_heads", "fusion_layers",
                    "fusion_heads", "fusion_hidden", "mlp_ratio", "predictor_heads",
                    "predictor_width", "num_targets", "batch_size", "total_steps", "log_interval",
                    "checkpoint_interval"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} must be >= 1, got {getattr(self, key)}")
        for key in ("encoder_depth", "predictor_depth", "mask_max_retries", "seed"):
            if getattr(self, key) < 0:
                raise DataError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key, heads in (("embed_dim", "encoder_heads"), ("text_embed_dim", "encoder_heads"),
                           ("fusion_hidden", "fusion_heads"),
                           ("predictor_width", "predictor_heads")):
            if getattr(self, key) % getattr(self, heads) != 0:
                raise DataError(f"{key} {getattr(self, key)} not divisible by "
                                f"{heads} {getattr(self, heads)}")
        for key, quantum in (("embed_dim", 4), ("text_embed_dim", 2), ("predictor_width", 4)):
            if getattr(self, key) % quantum != 0:
                raise DataError(f"{key} must be divisible by {quantum} for sin-cos positions, "
                                f"got {getattr(self, key)}")
        if self.max_text_len < 2:
            raise DataError("max_text_len must be >= 2 (room for BOS and EOS), "
                            f"got {self.max_text_len}")
        if self.patch_size < 1 or self.image_size % self.patch_size != 0:
            raise DataError("image_size must be divisible by a positive patch_size")
        if self.image_size // self.patch_size < 2:
            raise DataError("image_size / patch_size gives a 1x1 patch grid: a target block "
                            "covers its one patch and leaves no context")
        if self.loss_type not in ("l2", "l1"):
            raise DataError(f"loss_type must be 'l2' or 'l1', got '{self.loss_type}'")
        if not (0.0 <= self.ema_start <= self.ema_end <= 1.0):
            raise DataError("need 0 <= ema_start <= ema_end <= 1")
        if not all(math.isfinite(x) and x >= 0.0 for x in (self.learning_rate, self.weight_decay)):
            raise DataError("learning_rate and weight_decay must be finite and >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DataError("need 0 <= beta1, beta2 < 1")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0.0):
            raise DataError("adam_eps must be finite and positive")
        for name in ("ctx_scale", "tgt_scale"):
            lo, hi = getattr(self, f"{name}_lo"), getattr(self, f"{name}_hi")
            if not (0.0 < lo <= hi <= 1.0):
                raise DataError(f"need 0 < {name}_lo <= {name}_hi <= 1")
        if not (0.0 < self.tgt_aspect_lo <= self.tgt_aspect_hi < math.inf):
            raise DataError("need 0 < tgt_aspect_lo <= tgt_aspect_hi, both finite")

    def grid(self) -> tuple[int, int]:
        side = self.image_size // self.patch_size
        return side, side

    def mask_args(self) -> dict:
        """Keyword arguments of ``sample_masks`` other than its ``rng``."""
        return dict(grid=self.grid(), num_targets=self.num_targets,
                    ctx_scale=(self.ctx_scale_lo, self.ctx_scale_hi),
                    tgt_scale=(self.tgt_scale_lo, self.tgt_scale_hi),
                    tgt_aspect=(self.tgt_aspect_lo, self.tgt_aspect_hi),
                    max_retries=self.mask_max_retries)

    def ema_schedule(self) -> "EmaSchedule":
        return EmaSchedule(self.ema_start, self.ema_end, self.total_steps)

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            text = ("true" if value else "false") if isinstance(value, bool) else repr(value) \
                if isinstance(value, float) else str(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "TiJepaConfig":
        kwargs = {}
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for key, raw in mapping.items():
            if key not in types:
                raise DataError(f"unknown config key '{key}'")
            kwargs[key] = _coerce(key, raw, types[key])
        return cls(**kwargs)

    @classmethod
    def from_text(cls, text: str) -> "TiJepaConfig":
        return cls.from_mapping(parse_config_text(text))


def _coerce(key: str, raw: str, type_name: str):
    raw = raw.strip()
    try:
        if type_name == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if type_name == "int":
            return int(raw)
        if type_name == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise DataError(f"bad value for config key '{key}': {raw!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if not key:
            raise DataError(f"config line {lineno}: empty key")
        if key in out:
            raise DataError(f"config line {lineno}: duplicate key '{key}'")
        out[key] = value.strip()
    return out


def load_config(path, overrides=()) -> TiJepaConfig:
    mapping = parse_config_text(read_input(path, "config file", text=True))
    for item in overrides:
        if "=" not in item:
            raise DataError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        mapping[key.strip()] = value.strip()
    return TiJepaConfig.from_mapping(mapping)


# ---------------------------------------------------------------------------
# optimizer


@dataclasses.dataclass
class AdamWState:
    """The step count and AdamW's moments: one flat buffer each over all parameters in
    sorted-name order, whose views ``m[name]`` and ``v[name]`` have each one's shape."""

    t: int
    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def create(cls, params: dict[str, Tensor]) -> "AdamWState":
        names = sorted(params)
        dtypes = sorted({str(params[n].data.dtype) for n in names}) or ["float32"]
        if len(dtypes) > 1:
            raise ShapeError(f"AdamW parameters must share one dtype, got {dtypes}")
        ends = np.cumsum([0] + [params[n].data.size for n in names])
        m, v = np.zeros(ends[-1], dtypes[0]), np.zeros(ends[-1], dtypes[0])
        return cls(0, m, v, *({n: flat[a:b].reshape(params[n].shape)
                               for n, a, b in zip(names, ends, ends[1:])} for flat in (m, v)))


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float,
               beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
               weight_decay: float = 0.0) -> None:
    """One bias-corrected AdamW update with decoupled weight decay, in place.

    Missing gradients count as zeros. Every gradient is checked before any
    parameter or optimizer byte moves: a shape mismatch, a non-finite
    gradient, or one whose square would overflow the moments' dtype aborts
    the whole step with the offending parameter's name.
    """
    names = sorted(params)
    if names != list(state.m):
        raise ShapeError("optimizer state and parameters hold different names")
    grads = []
    for name in names:
        p = params[name]
        if p.data.shape != state.m[name].shape:
            raise ShapeError(f"optimizer state shape mismatch for '{name}'")
        grads.append((p.grad if p.grad is not None else np.zeros_like(p.data)).ravel())
    g = np.concatenate(grads or [state.m_flat])
    # v <= bc2 * max(g^2), so v and v / bc2 stay finite while |g| < 2^(maxexp/2 - 1)
    # (2^63 in float32); past it v / bc2 or v turns Inf and the parameter stops moving
    limit = 2.0 ** (np.finfo(state.v_flat.dtype).maxexp // 2 - 1)
    try:
        _check_finite(g, "gradients", NumericalError, limit)
    except NumericalError:
        for name, grad in zip(names, grads):  # name the first bad parameter
            _check_finite(grad, f"gradient for parameter '{name}'", NumericalError, limit)
        raise
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v = state.m_flat, state.v_flat
    # one pass over all parameters: ``term`` is the scratch array of every term,
    # and the ufuncs apply the operations of the expressions in the comments, in order
    term = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += term  # m = beta1 * m + (1 - beta1) * g
    v *= beta2
    np.multiply(g, 1.0 - beta2, term)
    term *= g
    v += term  # v = beta2 * v + (1 - beta2) * g * g
    denom = v / bc2
    np.sqrt(denom, denom)
    denom += eps
    np.divide(m, bc1, term)
    term /= denom
    term *= lr  # lr * (m / bc1) / (sqrt(v / bc2) + eps)
    start = 0
    for name in names:
        p = params[name].data
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        p -= term[start:start + p.size].reshape(p.shape)
        start += p.size


# ---------------------------------------------------------------------------
# EMA schedule and update


@dataclasses.dataclass(frozen=True)
class EmaSchedule:
    m_start: float = 0.996
    m_end: float = 1.0
    total_steps: int = 200


def momentum_at(step: int, sched: EmaSchedule) -> float:
    """Linear ramp from m_start to m_end; out-of-range steps clamp with a warning."""
    if step < 0 or step > sched.total_steps:
        logger.warning("EMA momentum queried at step %d outside [0, %d]; clamping",
                       step, sched.total_steps)
        step = min(max(step, 0), sched.total_steps)
    if sched.total_steps == 0:
        return sched.m_end
    return sched.m_start + (sched.m_end - sched.m_start) * (step / sched.total_steps)


def ema_update(target_params: dict[str, Tensor], online_params: dict[str, Tensor],
               m: float) -> None:
    """theta_tgt <- m * theta_tgt + (1 - m) * theta_online, elementwise in place.

    Computed incrementally as theta_tgt += (1-m)*(theta_online - theta_tgt) so
    equal parameters stay bitwise fixed; m=1 and m=0 are exact no-op and copy.
    """
    if set(target_params) != set(online_params):
        raise ShapeError("EMA parameter names differ between target and online modules")
    for name in sorted(target_params):
        tgt, src = target_params[name], online_params[name]
        if tgt.data.shape != src.data.shape:
            raise ShapeError(f"EMA shape mismatch for '{name}'")
        if m == 1.0:
            continue
        if m == 0.0:
            tgt.data[...] = src.data
        else:
            tgt.data += (1.0 - m) * (src.data - tgt.data)


# ---------------------------------------------------------------------------
# collapse diagnostic


def collapse_metric(target_reps) -> float:
    """Mean over embedding dims of the per-dim std across all B*P tokens.

    Zero means every token representation is identical (full collapse).
    """
    arr = target_reps.data if isinstance(target_reps, Tensor) else np.asarray(target_reps)
    if arr.ndim != 3:
        raise ShapeError(f"collapse_metric expects a (B, P, d) array, got {arr.shape}")
    if arr.shape[0] < 2:
        raise ShapeError("collapse_metric needs at least 2 examples")
    tokens = arr.reshape(-1, arr.shape[-1])
    return float(tokens.std(axis=0).mean())


# ---------------------------------------------------------------------------
# training state


class PretrainState(Module):
    """All modules plus optimizer state, whose step count starting at zero is ``step``, built
    like every module from ``config``'s sizes and ``rng`` (``None``: the layout that
    ``load_checkpoint`` fills); the target twin is a clone of the online fusion module."""

    def __init__(self, config: TiJepaConfig, rng: np.random.Generator | None):
        c, trainable = config, not config.freeze_encoders
        self.config = config
        self.image_encoder = self._add("image_encoder", ImageEncoder(
            c.patch_size, c.embed_dim, c.encoder_depth, c.encoder_heads, rng
        ).requires_grad_(trainable))
        self.text_encoder = self._add("text_encoder", TextEncoder(
            c.text_embed_dim, c.encoder_depth, c.encoder_heads, c.max_text_len, rng
        ).requires_grad_(trainable))
        self.fusion = self._add("fusion", FusionModule(CrossAttnConfig(
            c.fusion_layers, c.fusion_heads, c.fusion_hidden, c.mlp_ratio,
            patch_dim=c.embed_dim, text_dim=c.text_embed_dim), rng))
        self.target_fusion = self._add("target_fusion", self.fusion.clone())
        self.predictor = self._add("predictor", Predictor(
            c.predictor_depth, c.predictor_heads, c.predictor_width, c.embed_dim, rng
        ).requires_grad_(not c.freeze_predictor))
        self.opt = AdamWState.create(self.trainable_parameters())

    @property
    def step(self) -> int:
        """Steps taken: the optimizer's count, which advances exactly when a step lands."""
        return self.opt.t

    @classmethod
    def initialize(cls, config: TiJepaConfig) -> "PretrainState":
        return cls(config, np.random.default_rng([config.seed, _STREAM_INIT]))

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {n: p for n, p in self.named_parameters().items() if p.requires_grad}


@dataclasses.dataclass
class MetricsRow:
    step: int
    loss: float
    collapse: float
    ema_m: float

    def format(self) -> str:
        return f"{self.step}\t{self.loss:.6f}\t{self.collapse:.6f}\t{self.ema_m:.6f}"


@dataclasses.dataclass
class TrainResult:
    state: PretrainState
    rows: list[MetricsRow]
    losses: list[float]
    skipped_examples: int


def _drop_rows_after(log: Path, step: int) -> None:
    """Keep only a metrics log's whole rows (ending in a newline) up to ``step``; a run resumed
    from the checkpoint of ``step`` is about to log the rest again. A torn last row lies past
    ``step`` too, since rows are written before their step's checkpoint."""
    if not log.exists():
        return
    lines = read_input(log, "metrics log", text=True).splitlines(keepends=True)
    kept = []
    for lineno, line in enumerate(lines, start=1):
        field = line.rstrip("\r\n").split("\t", 1)[0]
        if not field.isdecimal():
            raise DataError(f"{log}:{lineno}: expected a step number, got {field!r}")
        if int(field) <= step and line.endswith("\n"):
            kept.append(line)
    if len(kept) != len(lines):
        with _replacing(log) as fh:
            fh.write("".join(kept).encode("utf-8"))


def _keep_freed_memory() -> None:
    """On glibc, keep freed heap memory in the process; elsewhere do nothing.

    ``backward`` frees a step's activations as it replays the tape. Under
    glibc's adaptive thresholds that memory went back to the kernel and was
    faulted in again: ~20,000 minor faults per desk step, ~10 with these.
    ``finetune`` and ``evaluate`` call it too, for their gradient-free passes.
    Where memory comes from changes, not what is computed.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: return the heap top only past 1 GiB free


def step_gradients(config: TiJepaConfig, state: PretrainState, table: PairInputs, pairs,
                   masks: list[MaskSet]) -> tuple[float, Tensor]:
    """The gradient half of step ``state.step + 1``: the checked loss of ``table``'s ``pairs``
    under ``masks``, backpropagated into zeroed gradients, and the target twin's fused rows.
    No parameter or optimizer byte moves, so a second call leaves the same gradients."""
    active_tape().clear()
    zero_grads(state.trainable_parameters())
    targets, fused = make_targets(table, pairs, masks, state.target_fusion)
    batch_loss = example_loss(table, pairs, state.fusion, state.predictor, masks, targets,
                              config.loss_type)
    _check_finite(batch_loss.data, f"loss at step {state.step + 1}")
    loss_value = batch_loss.item()
    backward(batch_loss)
    return loss_value, fused


def step_update(config: TiJepaConfig, state: PretrainState) -> float:
    """The update half: AdamW on the trainable parameters, then the target twin's EMA
    at the momentum of the step that just landed, which it returns."""
    adamw_step(state.trainable_parameters(), state.opt, config.learning_rate, config.beta1,
               config.beta2, config.adam_eps, config.weight_decay)
    m = momentum_at(state.step, config.ema_schedule())
    ema_update(state.target_fusion.named_parameters("m"), state.fusion.named_parameters("m"), m)
    return m


def train(config: TiJepaConfig, dataset, out_dir=None,
          state: PretrainState | None = None) -> TrainResult:
    """Run pretraining until ``config.total_steps``; resumes when given a state.

    Batches come from a per-epoch seeded shuffle and masks from per-example
    seeds, so results depend only on (config, dataset), not wall clock. On
    glibc it first fixes the process's allocator thresholds (see
    :func:`_keep_freed_memory`).
    """
    _keep_freed_memory()
    if not dataset:
        raise DataError("dataset is empty")
    if state is None:
        state = PretrainState.initialize(config)

    # one table per call checks and keys every example once, before anything under
    # ``out_dir`` is touched; while no gradient reaches the encoders it stores their
    # encodings, which never outlive the call, so a resumed run starts clean
    trainable = state.trainable_parameters()
    frozen = not any(name.startswith(("image_encoder.", "text_encoder.")) for name in trainable)
    table = PairInputs([example.image for example in dataset],
                       [example.caption for example in dataset], config.image_size,
                       state.image_encoder, state.text_encoder, stored=frozen)

    n = len(dataset)
    batch_size = min(config.batch_size, n)
    batches_per_epoch = max(1, n // batch_size)

    def draw(s: int) -> tuple[list[int], list[MaskSet], int]:
        """Step ``s``'s examples that could be masked, their masks, and how many were not."""
        epoch, batch_index = divmod(s, batches_per_epoch)
        order = np.random.default_rng([config.seed, _STREAM_SHUFFLE, epoch]).permutation(n)
        batch = order[batch_index * batch_size:(batch_index + 1) * batch_size]
        picked, masks = [], []
        for example_index in batch:
            mask_rng = np.random.default_rng(
                [config.seed, _STREAM_MASK, epoch, int(example_index)])
            try:
                masks.append(sample_masks(rng=mask_rng, **config.mask_args()))
            except MaskSamplingError as exc:
                mask_failure = exc
                logger.warning("step %d: skipping example %d (%s)", s + 1,
                               int(example_index), exc)
                continue
            picked.append(example_index)
        if not picked:
            # a masking config that fails for a whole batch is a config error
            raise DataError(
                f"step {s + 1}: no example of the batch could be masked ({mask_failure}); "
                "num_targets, ctx_scale_lo/hi, tgt_scale_lo/hi, tgt_aspect_lo/hi and "
                "mask_max_retries leave no context on this grid")
        return picked, masks, len(batch) - len(picked)

    # step one is drawn before ``out_dir``: a mask config that leaves no context writes nothing
    drawn = [draw(state.step)] if state.step < config.total_steps else []
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        _drop_rows_after(out_path / "metrics.log", state.step)

    rows: list[MetricsRow] = []
    losses: list[float] = []
    skipped = 0

    while state.step < config.total_steps:
        picked, masks, dropped = drawn.pop() if drawn else draw(state.step)
        skipped += dropped
        loss_value, fused = step_gradients(config, state, table, table.ids[picked], masks)
        m = step_update(config, state)
        losses.append(loss_value)

        done = state.step
        if done == 1 or done % config.log_interval == 0 or done == config.total_steps:
            collapse = collapse_metric(fused.data.reshape(len(picked), -1, fused.shape[1])) \
                if len(picked) >= 2 else 0.0
            row = MetricsRow(done, loss_value, collapse, m)
            rows.append(row)
            logger.info("step %d: loss=%.6f collapse=%.6f ema_m=%.6f",
                        done, loss_value, collapse, m)
            if out_path is not None:
                with open(out_path / "metrics.log", "a", encoding="utf-8") as fh:
                    fh.write(row.format() + "\n")
        if out_path is not None and done % config.checkpoint_interval == 0:
            save_checkpoint(state, out_path / f"checkpoint_{done:06d}.tijp")

    if out_path is not None:
        save_checkpoint(state, out_path / "checkpoint_final.tijp")
    if skipped:
        logger.warning("skipped %d examples due to mask sampling failures", skipped)
    return TrainResult(state, rows, losses, skipped)


def caption_sensitivity(state: PretrainState, dataset,
                        limit: int | None = None) -> tuple[float, float]:
    """Mean prediction loss with true captions vs captions shifted by one example.

    Target representations always come from the example's own caption; the
    permutation corrupts only the caption feeding the prediction pathway.
    A positive (permuted - true) margin means predictions exploit the text.
    """
    config = state.config
    n = len(dataset) if limit is None else min(limit, len(dataset))
    if n < 2:
        raise DataError("caption sensitivity needs at least 2 examples")
    # no weight moves here, so the encodings are stored even when the encoders train
    table = PairInputs([dataset[i].image for i in range(n)], [dataset[i].caption for i in range(n)],
                       config.image_size, state.image_encoder, state.text_encoder, stored=True)
    masks = [sample_masks(rng=np.random.default_rng([config.seed, _STREAM_SENSITIVITY, 0, i]),
                          **config.mask_args()) for i in range(n)]
    permuted = np.column_stack([table.ids[:, 0], np.roll(table.ids[:, 1], -1)])
    totals = [0.0, 0.0]
    with no_grad():
        # batches of the training size bound the memory of one forward
        for lo in range(0, n, config.batch_size):
            part = slice(lo, lo + config.batch_size)
            targets, _ = make_targets(table, table.ids[part], masks[part], state.target_fusion)
            for j, shown in enumerate((table.ids, permuted)):
                loss = example_loss(table, shown[part], state.fusion, state.predictor,
                                    masks[part], targets, config.loss_type)
                _check_finite(loss.data, f"caption sensitivity loss from example {lo}")
                totals[j] += loss.item() * len(masks[part])
    return totals[0] / n, totals[1] / n


# ---------------------------------------------------------------------------
# checkpoint format: "TIJP", u32 version, u32 count, sorted named tensors,
# trailing u64 CRC (zlib.crc32 of all preceding bytes, zero-extended)

CHECKPOINT_MAGIC = b"TIJP"
CHECKPOINT_VERSION = 1
_DTYPE_F32 = 0


@contextlib.contextmanager
def _replacing(path: Path):
    """A binary file beside ``path``, fsynced and renamed over it when the block ends: a write
    that fails part-way leaves any previous ``path`` untouched and no temporary file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb", buffering=1 << 20) as fh:  # a write call per MiB, not per array
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensor_file(path, tensors: dict[str, np.ndarray]) -> None:
    # the file's pieces in order: each header, and each array's bytes as a view, not a copy
    pieces = [CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], dtype="<f4")
        encoded = name.encode("utf-8")
        pieces += [struct.pack(f"<I{len(encoded)}sBI{arr.ndim}I", len(encoded), encoded,
                               _DTYPE_F32, arr.ndim, *arr.shape),
                   memoryview(np.ascontiguousarray(arr).reshape(-1)).cast("B")]
    with _replacing(Path(path)) as fh:
        crc = 0
        for piece in pieces:  # checksummed and written in turn
            crc = zlib.crc32(piece, crc)
            fh.write(piece)
        fh.write(struct.pack("<Q", crc))


def _tensor_views(path) -> dict[str, np.ndarray]:
    """The tensors of a TIJP file by name, each a read-only view of the bytes read."""
    blob = read_input(path, "checkpoint")
    if len(blob) < 20:
        raise DataError(f"truncated checkpoint: {path}")
    body = memoryview(blob)[:-8]
    (stored_crc,) = struct.unpack_from("<Q", blob, len(body))
    if (zlib.crc32(body) & 0xFFFFFFFF) != stored_crc:
        raise DataError(f"checkpoint CRC mismatch: {path}")
    if body[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"bad checkpoint magic: {path}")
    version, count = struct.unpack_from("<II", body, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}: {path}")
    offset = 12
    tensors: dict[str, np.ndarray] = {}
    previous_name = None
    try:
        # each header in the writer's groups: name length; name, dtype tag, rank; dims
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, offset)
            offset += 4
            encoded, dtype_tag, rank = struct.unpack_from(f"<{name_len}sBI", body, offset)
            name = encoded.decode("utf-8")  # ``offset`` is still the name's first byte
            offset += name_len + 5
            if dtype_tag != _DTYPE_F32:
                raise DataError(f"unknown dtype tag {dtype_tag} for '{name}': {path}")
            dims = struct.unpack_from(f"<{rank}I", body, offset)
            offset += 4 * rank
            size = math.prod(dims)
            if offset + 4 * size > len(body):
                raise DataError(f"truncated tensor payload for '{name}': {path}")
            if previous_name is not None and name <= previous_name:
                raise DataError(f"tensor names out of order at '{name}': {path}")
            previous_name = name
            arr = np.frombuffer(body, dtype="<f4", count=size, offset=offset)
            tensors[name] = arr.reshape(dims)
            offset += 4 * size
    except struct.error as exc:
        raise DataError(f"truncated checkpoint: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"tensor name at byte {offset} is not UTF-8: {path}") from exc
    if offset != len(body):
        raise DataError(f"trailing bytes after tensor table: {path}")
    return tensors


def read_tensor_file(path) -> dict[str, np.ndarray]:
    """The tensors of a TIJP file by name, each its own writable array."""
    return {name: arr.copy() for name, arr in _tensor_views(path).items()}


def _file_tensors(params: dict[str, Tensor], opt=None) -> dict[str, np.ndarray]:
    """The arrays of a model file by name: each parameter's data and, given
    ``opt``, its AdamW moments. A save writes them; a load fills them in place."""
    tensors = {name: p.data for name, p in params.items()}
    if opt is not None:
        for name in opt.m:
            tensors[f"optimizer.m.{name}"] = opt.m[name]
            tensors[f"optimizer.v.{name}"] = opt.v[name]
    return tensors


def _load_tensors(params: dict[str, Tensor], opt, tensors: dict[str, np.ndarray], path,
                  other: tuple[str, ...] = ()) -> None:
    """Copy the tensors read from ``path`` into ``params`` and ``opt``'s moments (see
    :func:`_file_tensors`) once the file holds exactly their names and ``other`` (left
    to the caller) in their shapes; then every value must be finite, each parameter
    scanned alone and each moment buffer at once. Else a ``DataError``."""
    targets = _file_tensors(params, opt)
    actual, expected = set(tensors), set(targets).union(other)
    if actual != expected:
        detail = [f"{kind} tensors: {', '.join(sorted(names)[:5])}" for kind, names
                  in (("unknown", actual - expected), ("missing", expected - actual)) if names]
        raise DataError(f"checkpoint does not match model ({'; '.join(detail)}): {path}")
    for name, dst in targets.items():
        arr = tensors[name]
        if arr.shape != dst.shape:
            raise DataError(f"tensor '{name}' has shape {arr.shape}, expected {dst.shape}: {path}")
        dst[...] = arr
    for name, p in params.items():
        _check_finite(p.data, f"values in tensor '{name}': {path}", DataError)
    if opt is None:
        return
    for kind, flat, moments in (("m", opt.m_flat, opt.m), ("v", opt.v_flat, opt.v)):
        try:
            _check_finite(flat, f"optimizer.{kind}", DataError)
        except DataError:  # name the first bad tensor
            for name, arr in moments.items():
                _check_finite(arr, f"values in tensor 'optimizer.{kind}.{name}': {path}",
                              DataError)
            raise


def save_checkpoint(state: PretrainState, path) -> None:
    tensors = _file_tensors(state.named_parameters(), state.opt)
    tensors["optimizer.t"] = np.array([state.opt.t], dtype=np.float32)
    tensors["meta.step"] = np.array([state.step], dtype=np.float32)
    config_bytes = state.config.to_text().encode("utf-8")
    tensors["meta.config"] = np.frombuffer(config_bytes, dtype=np.uint8).astype(np.float32)
    write_tensor_file(path, tensors)


def load_checkpoint(path) -> PretrainState:
    tensors = _tensor_views(path)
    if "meta.config" not in tensors:
        raise DataError(f"checkpoint lacks a config snapshot: {path}")
    codes = tensors["meta.config"].reshape(-1)
    if not np.all((codes >= 0) & (codes <= 255) & (codes == np.floor(codes))):
        raise DataError(f"'meta.config' must hold integer byte values 0..255: {path}")
    try:
        config_text = codes.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"'meta.config' is not UTF-8 text: {path}") from exc
    config = TiJepaConfig.from_text(config_text)
    # names and shapes come from the modules' own constructors, built without a
    # generator; every value is then taken from the file and checked there
    state = PretrainState(config, None)
    # files written before the attention key bias was removed still hold it
    _load_tensors(state.named_parameters(), state.opt,
                  {name: arr for name, arr in tensors.items() if not name.endswith(".bk")},
                  path, ("optimizer.t", "meta.step", "meta.config"))
    counters = {}
    for name in ("optimizer.t", "meta.step"):
        arr = tensors[name]
        value = float(arr[0]) if arr.shape == (1,) else math.nan
        if not (value >= 0 and value.is_integer()):
            raise DataError(f"'{name}' must be one non-negative integer, got {arr.tolist()}: "
                            f"{path}")
        counters[name] = int(value)
    if counters["optimizer.t"] != counters["meta.step"]:
        raise DataError(f"optimizer.t {counters['optimizer.t']} != meta.step "
                        f"{counters['meta.step']}: {path}")
    state.opt.t = counters["meta.step"]
    return state
