import numpy as np
import pytest

from tijepa.errors import MaskSamplingError, ShapeError
from tijepa.masking import BlockMask, MaskSet, sample_block, sample_masks

CTX_SCALE = (0.85, 1.0)
TGT_SCALE = (0.15, 0.2)
TGT_ASPECT = (0.75, 1.5)


def render_mask_set(masks: MaskSet) -> str:
    """Text grid for golden tests: 'C' context, 'T' target, '.' neither."""
    cells = ["."] * (masks.grid_h * masks.grid_w)
    for block in masks.targets:
        for i in block.indices():
            cells[i] = "T"
    for i in masks.context:
        cells[i] = "C"
    rows = ("".join(cells[r * masks.grid_w:(r + 1) * masks.grid_w])
            for r in range(masks.grid_h))
    return "\n".join(rows)


class TestSampleBlock:
    def test_forced_full_grid(self):
        block = sample_block((8, 8), (1.0, 1.0), (1.0, 1.0), np.random.default_rng(0))
        assert (block.row, block.col) == (0, 0)
        assert (block.height, block.width) == (8, 8)

    def test_requested_area_range_on_14x14(self):
        # round(s * 196) for s in [0.15, 0.2] stays within [29, 40]
        rng = np.random.default_rng(1)
        for _ in range(2000):
            block = sample_block((14, 14), TGT_SCALE, TGT_ASPECT, rng)
            assert 29 <= block.requested_area <= 40

    def test_context_scale_monte_carlo_8x8(self):
        # at scale [0.85, 1] on 64 patches every block keeps area >= round(0.85*64)=54
        # up to the rounding/clamping of its height and width
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            block = sample_block((8, 8), CTX_SCALE, (1.0, 1.0), rng)
            assert block.area >= 54
            assert block.requested_area >= 54

    def test_scale_soundness_invariant(self):
        rng = np.random.default_rng(3)
        n = 8 * 8
        for _ in range(5000):
            block = sample_block((8, 8), TGT_SCALE, TGT_ASPECT, rng)
            assert TGT_SCALE[0] * n <= block.requested_area + 0.5
            assert block.requested_area - 0.5 <= TGT_SCALE[1] * n

    def test_block_fits_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            block = sample_block((6, 10), TGT_SCALE, TGT_ASPECT, rng)
            assert 1 <= block.height <= 6 and 1 <= block.width <= 10
            assert 0 <= block.row <= 6 - block.height
            assert 0 <= block.col <= 10 - block.width

    def test_indices_match_rectangle(self):
        block = BlockMask(4, 5, row=1, col=2, height=2, width=3, requested_area=6)
        assert block.indices() == (7, 8, 9, 12, 13, 14)

    def test_degenerate_grid(self):
        with pytest.raises(ShapeError):
            sample_block((0, 4), TGT_SCALE, TGT_ASPECT, np.random.default_rng(0))

    def test_bad_scale_range(self):
        with pytest.raises(ShapeError):
            sample_block((4, 4), (0.0, 0.5), TGT_ASPECT, np.random.default_rng(0))


class TestSampleMasks:
    def test_context_disjoint_from_targets(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            masks = sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT, rng)
            covered = set()
            for block in masks.targets:
                covered.update(block.indices())
            assert not covered & set(masks.context)
            assert masks.context

    def test_ten_thousand_draws_all_non_empty(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            masks = sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT, rng,
                                 max_retries=20)
            assert len(masks.context) > 0
            assert len(masks.targets) == 4

    def test_forced_failure(self):
        rng = np.random.default_rng(2)
        with pytest.raises(MaskSamplingError):
            sample_masks((4, 4), 1, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), rng,
                         max_retries=5)

    def test_seed_determinism(self):
        a = sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT,
                         np.random.default_rng(42))
        b = sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT,
                         np.random.default_rng(42))
        assert a == b

    def test_target_coverage_over_many_samples(self):
        # no dead zones: every patch of a 4x4 grid lands in some target block;
        # on a grid this small four targets can occasionally tile everything,
        # which correctly raises and is discarded here
        rng = np.random.default_rng(3)
        seen = set()
        failures = 0
        for _ in range(3000):
            try:
                masks = sample_masks((4, 4), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT, rng)
            except MaskSamplingError:
                failures += 1
                continue
            for block in masks.targets:
                seen.update(block.indices())
        assert seen == set(range(16))
        assert failures < 100

    def test_needs_at_least_one_target(self):
        with pytest.raises(ShapeError):
            sample_masks((8, 8), 0, CTX_SCALE, TGT_SCALE, TGT_ASPECT,
                         np.random.default_rng(0))


class TestRender:
    def test_hand_built_grid(self):
        target = BlockMask(4, 4, row=0, col=0, height=2, width=2, requested_area=4)
        ctx_block = BlockMask(4, 4, row=1, col=1, height=3, width=3, requested_area=9)
        context = tuple(sorted(set(ctx_block.indices()) - set(target.indices())))
        masks = MaskSet(4, 4, ctx_block, context, (target,))
        assert render_mask_set(masks) == "TT..\nTTCC\n.CCC\n.CCC"

    def test_render_deterministic_for_seeded_sample(self):
        masks = sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE, TGT_ASPECT,
                             np.random.default_rng(7))
        first = render_mask_set(masks)
        again = render_mask_set(sample_masks((8, 8), 4, CTX_SCALE, TGT_SCALE,
                                             TGT_ASPECT, np.random.default_rng(7)))
        assert first == again
        assert set(first) <= {".", "C", "T", "\n"}
