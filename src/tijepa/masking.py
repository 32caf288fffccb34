"""Block mask sampling over the patch grid.

One large context block (unit aspect ratio) plus M smaller target blocks are
drawn per example; any context patches covered by a target are removed so the
prediction task can't be solved by copying visible tokens. Target blocks may
overlap each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaskSamplingError, ShapeError


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BlockMask:
    """A rectangular block of patches on a grid_h x grid_w grid."""

    grid_h: int
    grid_w: int
    row: int
    col: int
    height: int
    width: int
    # patch count drawn from the scale range, before aspect/clamp rounding
    requested_area: int

    def indices(self) -> tuple[int, ...]:
        return tuple(r * self.grid_w + c
                     for r in range(self.row, self.row + self.height)
                     for c in range(self.col, self.col + self.width))

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class MaskSet:
    grid_h: int
    grid_w: int
    context_block: BlockMask
    context: tuple[int, ...]  # sorted context indices after overlap removal
    targets: tuple[BlockMask, ...]


def sample_block(grid: tuple[int, int], scale_range, aspect_range,
                 rng: np.random.Generator) -> BlockMask:
    """Sample one block: area from ``scale_range`` * N, shape from ``aspect_range``."""
    grid_h, grid_w = grid
    n_patches = grid_h * grid_w
    if n_patches <= 0:
        raise ShapeError("degenerate patch grid")
    lo, hi = scale_range
    alo, ahi = aspect_range
    if not (0.0 < lo <= hi <= 1.0):
        raise ShapeError(f"bad scale range [{lo}, {hi}]")
    if alo > ahi:
        raise ShapeError(f"bad aspect range [{alo}, {ahi}]")
    s = rng.uniform(lo, hi)
    a = rng.uniform(alo, ahi)
    area = max(1, _round_half_up(s * n_patches))
    h = min(max(_round_half_up(math.sqrt(area * a)), 1), grid_h)
    w = min(max(_round_half_up(area / h), 1), grid_w)
    row = int(rng.integers(0, grid_h - h + 1))
    col = int(rng.integers(0, grid_w - w + 1))
    return BlockMask(grid_h, grid_w, row, col, h, w, area)


def sample_masks(grid: tuple[int, int], num_targets: int, ctx_scale, tgt_scale,
                 tgt_aspect, rng: np.random.Generator, max_retries: int = 20) -> MaskSet:
    """Draw the target blocks, then a unit-aspect context block minus target overlap.

    The targets stay fixed; only the context block is redrawn when subtraction
    empties it. After ``max_retries`` failed redraws the sampler raises rather
    than degrade silently.
    """
    if num_targets < 1:
        raise ShapeError("need at least one target block")
    grid_h, grid_w = grid
    targets = tuple(sample_block(grid, tgt_scale, tgt_aspect, rng) for _ in range(num_targets))
    covered = set()
    for block in targets:
        covered.update(block.indices())
    for _ in range(max_retries + 1):
        ctx_block = sample_block(grid, ctx_scale, (1.0, 1.0), rng)
        remaining = sorted(set(ctx_block.indices()) - covered)
        if remaining:
            return MaskSet(grid_h, grid_w, ctx_block, tuple(remaining), targets)
    raise MaskSamplingError(
        f"context block empty after {max_retries} retries on {grid_h}x{grid_w} grid")
