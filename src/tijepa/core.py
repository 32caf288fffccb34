"""Fusion modules, the masked-patch predictor, and the prediction objective.

Two structurally identical text-to-image fusion modules exist per model: the
online one trained by gradient descent and a target twin updated only by EMA.
Patch tokens are the attention queries and text tokens the keys/values, so
the fused output stays per-patch and can be indexed by block masks. The
predictor fills masked grid positions with one shared learnable token plus
positional encoding and reads its outputs back at those slots.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from .encoders import ImageEncoder, TextEncoder, TransformerBlock, sincos_pos_2d, tokenize_text
from .errors import DataError, ShapeError
from .masking import MaskSet, sample_masks
from .numerics import (
    INIT_STD,
    Module,
    Tensor,
    _check_finite,
    _wrap,
    add,
    block_distance,
    check_gradients,
    concat_rows,
    gather_rows,
    linear,
    no_grad,
    scale,
)


@dataclasses.dataclass(frozen=True)
class CrossAttnConfig:
    layers: int
    heads: int
    hidden: int
    mlp_ratio: int = 4
    # the encoders' widths: a projection is made only where one differs from ``hidden``
    patch_dim: int | None = None
    text_dim: int | None = None


# cross-attention projections start 10x louder than the usual 0.02 so the
# text pathway carries usable signal from step one; with frozen random
# encoders a quiet init leaves nothing for its gradients to latch onto
CROSS_ATTN_INIT_STD = 10 * INIT_STD


def param_count(cfg: CrossAttnConfig) -> int:
    """Exact learned-parameter count of one fusion module at ``cfg``; layers=0
    counts the projections alone."""
    h = cfg.hidden
    mlp_hidden = cfg.mlp_ratio * h
    attn = 4 * h * h + 3 * h
    norms = 3 * 2 * h
    mlp = h * mlp_hidden + mlp_hidden + mlp_hidden * h + h
    per_layer = 2 * attn + norms + mlp
    total = cfg.layers * per_layer
    if cfg.patch_dim is not None and cfg.patch_dim != h:
        total += cfg.patch_dim * h + h        # patch tokens in
        total += h * cfg.patch_dim + cfg.patch_dim  # fused tokens out
    if cfg.text_dim is not None and cfg.text_dim != h:
        total += cfg.text_dim * h + h
    return total


class FusionModule(Module):
    """Stack of fusion layers, with input/output projections when widths differ.

    Each layer is a :class:`TransformerBlock` whose cross-attention sublayer
    reads the text tokens.
    """

    PREFIX = "fusion"

    def __init__(self, cfg: CrossAttnConfig, rng: np.random.Generator | None):
        h = cfg.hidden

        def proj(name, d_in, d_out):
            return (self._param(f"{name}.weight", (d_in, d_out), rng, INIT_STD),
                    self._param(f"{name}.bias", (d_out,), rng))

        patch_proj = cfg.patch_dim not in (None, h)
        self.patch_in = proj("patch_in", cfg.patch_dim, h) if patch_proj else None
        self.text_in = proj("text_in", cfg.text_dim, h) if cfg.text_dim not in (None, h) else None
        self.patch_out = proj("patch_out", h, cfg.patch_dim) if patch_proj else None
        self.layers = [self._add(f"layers.{i}", TransformerBlock(
            h, cfg.heads, rng, cfg.mlp_ratio, cross_std=CROSS_ATTN_INIT_STD))
            for i in range(cfg.layers)]

    def __call__(self, patch_reps: Tensor, text_reps: Tensor, segments=None,
                 text_segments=None) -> Tensor:
        """Run patch tokens through the fusion stack conditioned on text tokens.

        ``segments`` and ``text_segments`` give each example's patch and text
        row counts when several examples are stacked; the patches of one
        example attend only to each other and to that example's text.
        """
        tokens = linear(patch_reps, *self.patch_in) if self.patch_in else patch_reps
        text = linear(text_reps, *self.text_in) if self.text_in else text_reps
        for layer in self.layers:
            tokens = layer(tokens, segments, context=text, context_segments=text_segments)
        return linear(tokens, *self.patch_out) if self.patch_out else tokens


class Predictor(Module):
    """Shallow transformer over context tokens plus position-tagged mask tokens."""

    PREFIX = "predictor"

    def __init__(self, depth: int, heads: int, width: int, fused_dim: int,
                 rng: np.random.Generator | None):
        self.width = width
        self.in_w = self._param("in.weight", (fused_dim, width), rng, INIT_STD)
        self.in_b = self._param("in.bias", (width,), rng)
        self.mask_token = self._param("mask_token", (width,), rng, INIT_STD)
        self.blocks = [self._add(f"blocks.{i}", TransformerBlock(width, heads, rng))
                       for i in range(depth)]
        self.out_w = self._param("out.weight", (width, fused_dim), rng, INIT_STD)
        self.out_b = self._param("out.bias", (fused_dim,), rng)

    def predict(self, context_reps: Tensor, context_positions, target_blocks,
                grid: tuple[int, int]) -> Tensor:
        """Predict every target block of every example in a single pass.

        ``context_positions`` holds one sequence of grid positions per
        example, and ``context_reps`` their rows stacked example by example.
        ``target_blocks`` holds, per example, one sequence of grid positions
        per block. Each (example, block) pair is its own attention segment,
        the example's context tokens followed by the block's mask tokens, so
        no block sees another block or another example. Returns the predicted
        rows stacked example by example, blocks in order.

        Only the mask tokens are read back, so the last block computes only
        their rows: its queries, output projection and MLP skip the context
        rows, which serve it as keys and values alone.
        """
        ctx_pos = [np.asarray(p, dtype=np.int64).reshape(-1) for p in context_positions]
        blocks = [[np.asarray(b, dtype=np.int64).reshape(-1) for b in ex] for ex in target_blocks]
        if len(ctx_pos) != len(blocks) or not blocks or not all(blocks):
            raise ShapeError("need target blocks for every example")
        # one attention segment per (example, block); owner[j] is segment j's example
        owner = np.repeat(np.arange(len(blocks)), [len(ex) for ex in blocks])
        flat_blocks = [b for ex in blocks for b in ex]
        ctx_sizes = np.array([p.size for p in ctx_pos])
        block_sizes = np.array([b.size for b in flat_blocks])
        ctx_idx, tgt_idx = np.concatenate(ctx_pos), np.concatenate(flat_blocks)
        # give each example its own grid so that overlaps are found per example
        cells = grid[0] * grid[1]
        if np.intersect1d(ctx_idx + cells * np.repeat(np.arange(len(ctx_pos)), ctx_sizes),
                          tgt_idx + cells * np.repeat(owner, block_sizes)).size:
            raise ShapeError("target positions overlap context positions")
        n_ctx = ctx_idx.size
        if context_reps.shape[0] != n_ctx:
            raise ShapeError("context rows do not match context positions")
        pos = sincos_pos_2d(grid[0], grid[1], self.width, self.in_w.dtype)
        ctx = add(linear(context_reps, self.in_w, self.in_b), _wrap(pos[ctx_idx]))
        masks = add(_wrap(pos[tgt_idx]), self.mask_token)
        # rows of concat_rows([ctx, masks]) that make up each segment
        ctx_starts = np.cumsum(ctx_sizes) - ctx_sizes
        block_starts = n_ctx + np.cumsum(block_sizes) - block_sizes
        layout = np.concatenate([np.r_[ctx_starts[i]:ctx_starts[i] + ctx_sizes[i], start:start + size]
                                 for i, start, size in zip(owner, block_starts, block_sizes)])
        tokens = gather_rows(concat_rows([ctx, masks]), layout)
        segments = ctx_sizes[owner] + block_sizes
        slots = np.flatnonzero(layout >= n_ctx)
        for block in self.blocks[:-1]:
            tokens = block(tokens, segments)
        tokens = self.blocks[-1](tokens, segments, keep=slots, keep_segments=block_sizes) \
            if self.blocks else gather_rows(tokens, slots)
        return linear(tokens, self.out_w, self.out_b)


# ---------------------------------------------------------------------------
# forward paths


class PairInputs:
    """The (image, caption) pairs of one call, each checked and each distinct input keyed once.

    Every image must be a ``(3, image_size, image_size)`` array: before any
    hashing, a missing or wrong-size one raises ``DataError``, and a float one
    with a non-finite pixel ``NumericalError`` (a uint8 one is finite by type),
    each naming its example's position. ``ids`` holds one (image id, caption id)
    row per pair: an image is keyed by its dtype and the SHA-256 of its stored
    pixels, a caption by its token ids, each numbered by first appearance
    (``images[i]`` and ``tokens[j]`` are the first of each). ``stored`` promises
    that no encoder weight moves while the table is in use: each distinct full
    image and caption is then encoded once, on first use, and kept gradient-free
    and read-only. The encodings of ``visible`` patches are never stored.
    """

    def __init__(self, images, captions, image_size: int, image_encoder: ImageEncoder,
                 text_encoder: TextEncoder, stored: bool):
        for i, image in enumerate(images):
            if image is None:
                raise DataError(f"example {i} has no image data")
            if image.shape != (3, image_size, image_size):
                raise DataError(f"example {i}: image shape {image.shape} "
                                f"does not match configured size {image_size}")
            if image.dtype != np.uint8:
                _check_finite(image, f"pixels in example {i}")
        self.encoders = (image_encoder, text_encoder)
        max_len = text_encoder.max_text_len
        image_ids, caption_ids = {}, {}
        self.ids = np.array([
            (image_ids.setdefault((image.dtype.str,
                                   hashlib.sha256(np.ascontiguousarray(image)).digest()),
                                  len(image_ids)),
             caption_ids.setdefault(tuple(tokenize_text(caption, max_len)), len(caption_ids)))
            for image, caption in zip(images, captions)], dtype=np.int64).reshape(-1, 2)
        self.images = [images[i] for i in np.unique(self.ids[:, 0], return_index=True)[1]]
        self.tokens = list(caption_ids)
        self._stores = ({}, {}) if stored else None

    def _run(self, column: int, ids, visible=None) -> tuple[Tensor, list[int]]:
        if column == 0:
            return self.encoders[0].encode([self.images[i] for i in ids], visible=visible)
        seqs = [self.tokens[i] for i in ids]
        return self.encoders[1].encode([t for seq in seqs for t in seq], [len(s) for s in seqs])

    def encode(self, column: int, ids, visible=None) -> tuple[Tensor, list[int]]:
        """The encoded rows of the images (``column`` 0) or captions (1) ``ids``, input
        by input, and each one's row count; ``visible`` as in ``ImageEncoder.encode``.
        A stored input missing from the store is encoded with the request's others."""
        if self._stores is None or visible is not None:
            return self._run(column, ids, visible)
        store, ids = self._stores[column], np.asarray(ids).tolist()
        missing = [i for i in dict.fromkeys(ids) if i not in store]
        if missing:
            with no_grad():
                rows, counts = self._run(column, missing)
            for i, part in zip(missing, np.split(rows.data, np.cumsum(counts)[:-1])):
                store[i] = _wrap(part)
                store[i].data.setflags(write=False)
        parts = [store[i] for i in ids]
        return (parts[0] if len(parts) == 1 else concat_rows(parts)), [p.shape[0] for p in parts]


def distinct_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct row's first position, in order of appearance, and every row's
    number among the distinct ones."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def fuse_image(table: PairInputs, rows, fusion: FusionModule,
               visible=None) -> tuple[Tensor, list[int]]:
    """Encode the captions and images of ``table``'s pairs ``rows`` and fuse each pair.

    ``visible`` limits the image encoder to one set of patches per image
    (rows follow ascending patch index); by default every patch is encoded.
    Returns the fused rows, pair by pair, and each pair's row count.
    Gradients flow wherever parameters require them.
    """
    text_reps, text_sizes = table.encode(1, rows[:, 1])
    patch_reps, sizes = table.encode(0, rows[:, 0], visible)
    return fusion(patch_reps, text_reps, sizes, text_sizes), sizes


def make_targets(table: PairInputs, rows, masks: list[MaskSet],
                 target_fusion: FusionModule) -> tuple[Tensor, Tensor]:
    """Fused full-image representations of ``table``'s pairs ``rows`` and their
    target-block rows, gradient-free.

    Returns ``(targets, fused)``: ``fused`` stacks every example's patch
    rows, each distinct pair fused once; ``targets`` its target-block rows,
    example by example, blocks in order, each block's patches in ``indices()``
    order, matching the rows ``Predictor.predict`` returns.
    """
    first, inverse = distinct_rows(rows)
    with no_grad():
        fused, sizes = fuse_image(table, rows[first], target_fusion)
        fused = gather_rows(fused, (inverse[:, None] * sizes[0] + np.arange(sizes[0])).ravel())
        targets = gather_rows(fused, [e * sizes[0] + i for e, m in enumerate(masks)
                                      for block in m.targets for i in block.indices()])
    return targets, fused


def make_context(table: PairInputs, rows, masks: list[MaskSet], fusion: FusionModule) -> Tensor:
    """Fused representations of every example's visible context patches, stacked; gradients flow."""
    return fuse_image(table, rows, fusion, visible=[m.context for m in masks])[0]


def prediction_loss(predictions: Tensor, targets: Tensor, block_sizes,
                    kind: str = "l2") -> Tensor:
    """Mean over examples of each example's per-block distances averaged over blocks.

    Rows hold each example's target blocks stacked in order; ``block_sizes``
    lists, per example, the row count of each of its blocks. ``l2``
    (default) sums squared differences; ``l1`` sums absolute ones. Each
    row's distance is weighted by one over its example's block count.
    ``block_distance`` refuses an unknown ``kind`` or unequal shapes.
    """
    sizes = [[int(n) for n in example] for example in block_sizes]
    if not sizes or not all(sizes):
        raise ShapeError("no prediction blocks")
    rows = [sum(example) for example in sizes]
    if sum(rows) != predictions.shape[0]:
        raise ShapeError(f"block sizes {sizes} do not add up to {predictions.shape[0]} rows")
    row_weight = np.repeat([1.0 / len(example) for example in sizes], rows)
    return scale(block_distance(predictions, targets, row_weight, kind), 1.0 / len(sizes))


def example_loss(table: PairInputs, rows, fusion: FusionModule, predictor: Predictor,
                 masks: list[MaskSet], targets: Tensor, kind: str) -> Tensor:
    """Prediction loss of the batch of ``table``'s pairs ``rows``, whose context
    path reads each row's caption.

    ``targets`` are the rows :func:`make_targets` returns for ``masks``. A
    single example is a batch of one.
    """
    context = make_context(table, rows, masks, fusion)
    preds = predictor.predict(context, [m.context for m in masks],
                              [[block.indices() for block in m.targets] for m in masks],
                              (masks[0].grid_h, masks[0].grid_w))
    return prediction_loss(preds, targets, [[block.area for block in m.targets] for m in masks],
                           kind)


# ---------------------------------------------------------------------------
# composite gradient checks (the primitive suite lives in numerics)


def fusion_gradient_check(seed: int = 0) -> float:
    """Finite-difference check of one fusion layer stack in float64."""
    rng = np.random.default_rng(seed)
    cfg = CrossAttnConfig(layers=1, heads=2, hidden=8)
    module = FusionModule(cfg, rng).astype(np.float64)
    patches = Tensor(rng.uniform(-1, 1, (2, 8)), requires_grad=True, dtype=np.float64)
    text = Tensor(rng.uniform(-1, 1, (3, 8)), requires_grad=True, dtype=np.float64)
    params = [patches, text] + list(module.named_parameters().values())
    return check_gradients(lambda: module(patches, text), params)


def pipeline_gradient_check(seed: int = 0) -> float:
    """Finite-difference check of the composed prediction loss in float64.

    Targets are precomputed constants (they are gradient-free in training),
    so the check covers the context, predictor, and loss paths, including
    unfrozen encoders and one batched pass over two examples, on 16 evenly
    spaced coordinates of each parameter.
    """
    rng = np.random.default_rng(seed)
    image_encoder = ImageEncoder(4, 8, 1, 2, rng).astype(np.float64)
    text_encoder = TextEncoder(8, 1, 2, 8, rng).astype(np.float64)
    fusion = FusionModule(CrossAttnConfig(layers=1, heads=2, hidden=8), rng).astype(np.float64)
    target_fusion = fusion.clone()
    predictor = Predictor(1, 2, 8, 8, rng).astype(np.float64)

    # two examples on a 3x3 grid, each with two target blocks (usually of
    # unequal size), captions of unequal length and, at seed 0, contexts of 3
    # and 6 patches, so the padded and masked attention paths are checked
    images = rng.uniform(0, 1, (2, 3, 12, 12))
    captions = ["ab", "wxyz"]
    masks = [sample_masks((3, 3), 2, (0.85, 1.0), (0.15, 0.3), (1.0, 1.0),
                          np.random.default_rng(seed + i)) for i in (1, 2)]
    table = PairInputs(images, captions, 12, image_encoder, text_encoder, stored=False)
    targets, _ = make_targets(table, table.ids, masks, target_fusion)

    def build():
        return example_loss(table, table.ids, fusion, predictor, masks, targets, "l2")

    params = {name: p for module in (image_encoder, text_encoder, fusion, predictor)
              for name, p in module.named_parameters().items()}
    ordered = [params[name] for name in sorted(params)]
    return check_gradients(build, ordered, max_coords=16)
