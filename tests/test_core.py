import types

import numpy as np
import pytest

import tijepa.core as core_module
from tijepa.core import (
    CrossAttnConfig,
    FusionModule,
    PairInputs,
    Predictor,
    distinct_rows,
    example_loss,
    fusion_gradient_check,
    make_context,
    make_targets,
    param_count,
    pipeline_gradient_check,
    prediction_loss,
)
from tijepa.encoders import ImageEncoder, TextEncoder, TransformerBlock, tokenize_text
from tijepa.errors import DataError, ShapeError
from tijepa.masking import BlockMask, MaskSet, sample_masks
from tijepa.numerics import (
    Tensor,
    add,
    attention,
    backward,
    concat_rows,
    gather_rows,
    layer_norm,
    linear,
    mlp,
)

DIM = 16
GRID = (2, 2)


def small_fusion(layers=1, rng=None, requires_grad=True):
    rng = rng or np.random.default_rng(0)
    return FusionModule(CrossAttnConfig(layers=layers, heads=2, hidden=DIM),
                        rng).requires_grad_(requires_grad)


def small_encoders(frozen=True, seed=0):
    rng = np.random.default_rng(seed)
    return (ImageEncoder(8, DIM, 1, 2, rng).requires_grad_(not frozen),
            TextEncoder(DIM, 1, 2, 16, rng).requires_grad_(not frozen))


def small_image(seed=1):
    return np.random.default_rng(seed).uniform(0, 1, (3, 16, 16)).astype(np.float32)


def mask_set():
    return sample_masks(GRID, 2, (0.85, 1.0), (0.15, 0.3), (1.0, 1.0),
                        np.random.default_rng(3))


def pairs(images, captions, image_encoder, text_encoder, stored=False, image_size=16):
    """A table of the pairs and all its id rows: the forward paths' first two arguments."""
    table = PairInputs(images, captions, image_size, image_encoder, text_encoder, stored)
    return table, table.ids


class TestFuse:
    def test_matches_hand_composition(self):
        module = small_fusion()
        layer = module.layers[0]
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, DIM)).astype(np.float32))
        text = Tensor(np.random.default_rng(2).uniform(-1, 1, (1, DIM)).astype(np.float32))

        normed = layer_norm(x, layer.ln1_g, layer.ln1_b)
        h = add(x, attention(normed, normed, layer.attn, layer.heads))
        normed = layer_norm(h, layer.ln_cross_g, layer.ln_cross_b)
        h = add(h, attention(normed, text, layer.cross_attn, layer.heads))
        expected = add(h, mlp(layer_norm(h, layer.ln2_g, layer.ln2_b), layer.mlp_w1,
                              layer.mlp_b1, layer.mlp_w2, layer.mlp_b2)).data

        out = module(x, text).data
        assert np.abs(out - expected).max() < 1e-5

    def test_zeroed_output_projections_give_identity(self):
        module = small_fusion(layers=2)
        for layer in module.layers:
            for tensor in (layer.attn.wo, layer.attn.bo,
                           layer.cross_attn.wo, layer.cross_attn.bo,
                           layer.mlp_w2, layer.mlp_b2):
                tensor.data[...] = 0.0
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (5, DIM)).astype(np.float32))
        text = Tensor(np.random.default_rng(5).uniform(-1, 1, (3, DIM)).astype(np.float32))
        np.testing.assert_array_equal(module(x, text).data, x.data)

    def test_row_count_preserved(self):
        module = small_fusion(layers=2)
        for rows in (1, 4, 9):
            x = Tensor(np.zeros((rows, DIM), dtype=np.float32))
            text = Tensor(np.zeros((2, DIM), dtype=np.float32))
            assert module(x, text).shape == (rows, DIM)

    def test_pair_rows_do_not_depend_on_a_longer_caption_in_the_batch(self):
        # the batch pads the text keys to the longer caption; a pair run alone
        # pads them to its own, and its fused rows must keep every bit
        module = small_fusion(layers=2)
        rng = np.random.default_rng(6)
        patches = rng.uniform(-1, 1, (2 * 16, DIM)).astype(np.float32)
        text = rng.uniform(-1, 1, (5 + 13, DIM)).astype(np.float32)
        batched = module(Tensor(patches), Tensor(text), [16, 16], [5, 13]).data
        alone = module(Tensor(patches[:16]), Tensor(text[:5])).data
        assert batched[:16].tobytes() == alone.tobytes()

    def test_width_mismatch(self):
        module = small_fusion()
        with pytest.raises(ShapeError):
            module(Tensor(np.zeros((2, DIM + 4))), Tensor(np.zeros((2, DIM))))
        # text of another width, without and with a text_in projection
        with pytest.raises(ShapeError):
            module(Tensor(np.zeros((2, DIM))), Tensor(np.zeros((2, DIM + 4))))
        projected = FusionModule(CrossAttnConfig(layers=1, heads=2, hidden=DIM, text_dim=20),
                                 np.random.default_rng(0))
        assert projected.text_in is not None
        with pytest.raises(ShapeError):
            projected(Tensor(np.zeros((2, DIM))), Tensor(np.zeros((2, 24))))

    def test_projections_reconcile_differing_widths(self):
        cfg = CrossAttnConfig(layers=1, heads=2, hidden=DIM, patch_dim=12, text_dim=20)
        module = FusionModule(cfg, np.random.default_rng(0))
        out = module(Tensor(np.zeros((4, 12), dtype=np.float32)),
                     Tensor(np.zeros((3, 20), dtype=np.float32)))
        assert out.shape == (4, 12)


    def test_layer_tensor_names_keep_the_checkpoint_spelling(self):
        names = set(small_fusion().named_parameters("f"))
        sublayers = {"ln_self.gain", "ln_self.bias", "ln_cross.gain", "ln_cross.bias",
                     "ln_mlp.gain", "ln_mlp.bias", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"}
        for attn in ("self_attn", "cross_attn"):
            sublayers |= {f"{attn}.{w}" for w in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
        assert names == {f"f.layers.0.{name}" for name in sublayers}
        block = TransformerBlock(DIM, 2, np.random.default_rng(0))
        assert {name.split(".")[1] for name in block.named_parameters("b")} == \
            {"ln1", "attn", "ln2", "mlp"}

    def test_context_goes_only_to_a_cross_attention_block(self):
        x = Tensor(np.zeros((3, DIM), dtype=np.float32))
        with pytest.raises(ShapeError):
            small_fusion().layers[0](x)
        with pytest.raises(ShapeError):
            TransformerBlock(DIM, 2, np.random.default_rng(0))(x, context=x)


class TestParamCount:
    SMALL = CrossAttnConfig(layers=4, heads=8, hidden=768)
    MEDIUM = CrossAttnConfig(layers=6, heads=10, hidden=768)
    LARGE = CrossAttnConfig(layers=8, heads=12, hidden=1024)

    @pytest.mark.parametrize("cfg,target", [
        (SMALL, 39_000_000), (MEDIUM, 58_000_000), (LARGE, 131_000_000)])
    def test_reference_sizes_within_ten_percent(self, cfg, target):
        count = param_count(cfg)
        assert abs(count - target) <= 0.10 * target

    def test_zero_layers_counts_only_projections(self):
        assert param_count(CrossAttnConfig(layers=0, heads=2, hidden=DIM)) == 0
        with_proj = param_count(CrossAttnConfig(layers=0, heads=2, hidden=DIM,
                                                patch_dim=8, text_dim=12))
        expected = (8 * DIM + DIM) + (DIM * 8 + 8) + (12 * DIM + DIM)
        assert with_proj == expected

    def test_matches_instantiated_module(self):
        for cfg in (CrossAttnConfig(layers=1, heads=2, hidden=DIM),
                    CrossAttnConfig(layers=3, heads=4, hidden=32, patch_dim=16, text_dim=24)):
            module = FusionModule(cfg, np.random.default_rng(0))
            actual = sum(p.size for p in module.named_parameters().values())
            assert actual == param_count(cfg)


class TestMakeTargets:
    def test_one_group_per_target_block(self):
        image_encoder, text_encoder = small_encoders()
        target_fusion = small_fusion(requires_grad=False)
        masks = mask_set()
        targets, fused = make_targets(*pairs([small_image()], ["cap"], image_encoder,
                                             text_encoder), [masks], target_fusion)
        assert targets.shape == (sum(block.area for block in masks.targets), DIM)
        assert not targets.requires_grad
        row = 0
        for block in masks.targets:
            np.testing.assert_array_equal(targets.data[row:row + block.area],
                                          fused.data[list(block.indices())])
            row += block.area

    def test_singleton_block_is_a_fused_row(self):
        image_encoder, text_encoder = small_encoders()
        target_fusion = small_fusion(requires_grad=False)
        single = BlockMask(2, 2, row=1, col=0, height=1, width=1, requested_area=1)
        masks = MaskSet(2, 2, single, (0, 1, 3), (single,))
        targets, fused = make_targets(*pairs([small_image()], ["cap"], image_encoder,
                                             text_encoder), [masks], target_fusion)
        np.testing.assert_array_equal(targets.data, fused.data[2:3])

    def test_context_pixels_influence_targets(self):
        # the target path encodes the full image, so pixels outside every
        # target block still move the fused target representations
        image_encoder, text_encoder = small_encoders()
        target_fusion = small_fusion(requires_grad=False)
        target = BlockMask(2, 2, row=0, col=0, height=1, width=1, requested_area=1)
        ctx = BlockMask(2, 2, row=1, col=1, height=1, width=1, requested_area=1)
        masks = MaskSet(2, 2, ctx, (3,), (target,))
        img = small_image()
        first = make_targets(*pairs([img], ["cap"], image_encoder, text_encoder), [masks],
                             target_fusion)[0].data
        img2 = img.copy()
        img2[:, 8:, 8:] = 1.0 - img2[:, 8:, 8:]  # patch 3 only (context area)
        second = make_targets(*pairs([img2], ["cap"], image_encoder, text_encoder), [masks],
                              target_fusion)[0].data
        assert np.abs(first - second).max() > 1e-6


class CountingEncoder:
    """Forwards to an encoder and records the ``visible`` of every call."""

    def __init__(self, encoder):
        self.inner = encoder
        self.calls = []

    def encode(self, images, visible=None):
        self.calls.append(visible)
        return self.inner.encode(images, visible=visible)


def distinct(images, captions, max_text_len=16):
    """The table's distinct pairs: each one's first example and every example's pair."""
    text_encoder = TextEncoder(DIM, 1, 2, max_text_len, None)
    table = PairInputs(images, captions, 16, None, text_encoder, stored=False)
    return distinct_rows(table.ids)


class TestPairInputs:
    def test_all_distinct_input_keeps_its_order(self):
        images = [small_image(seed) for seed in range(4)]
        table = PairInputs(images, ["a", "b", "a", "c"], 16, *small_encoders(), stored=False)
        # images and captions are each numbered by first appearance
        np.testing.assert_array_equal(table.ids, [[0, 0], [1, 1], [2, 0], [3, 2]])
        assert all(a is b for a, b in zip(table.images, images))
        assert table.tokens == [(256, 97, 257), (256, 98, 257), (256, 99, 257)]
        first, inverse = distinct_rows(table.ids)
        np.testing.assert_array_equal(first, np.arange(4))
        np.testing.assert_array_equal(inverse, np.arange(4))

    def test_repeats_map_to_their_first_example(self):
        a, b = small_image(1), small_image(2)
        # a copy of an image's bytes is the same image
        first, inverse = distinct([a, b, a.copy(), b, a], ["x", "y", "x", "y", "x"])
        np.testing.assert_array_equal(first, [0, 1])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 1, 0])

    def test_a_pair_needs_both_its_image_and_its_caption(self):
        a, b = small_image(1), small_image(2)
        first, inverse = distinct([a, a.copy(), a, b], ["x", "y", "x", "x"])
        np.testing.assert_array_equal(first, [0, 1, 3])
        np.testing.assert_array_equal(inverse, [0, 1, 0, 2])

    def test_captions_are_keyed_by_their_token_ids(self):
        # both captions truncate to the same ids, BOS and "a", at a 2-token limit
        first, inverse = distinct([small_image()] * 2, ["ab", "ac"], max_text_len=2)
        np.testing.assert_array_equal(first, [0])
        np.testing.assert_array_equal(inverse, [0, 0])

    def test_a_shuffled_batch_gives_its_distinct_rows_in_order_of_first_appearance(self):
        rows = np.array([[3, 1], [0, 2], [3, 1], [1, 0], [0, 2], [0, 0], [1, 0], [2, 2]])
        rows = rows[np.random.default_rng(5).permutation(len(rows))]
        seen = {}
        for i, row in enumerate(map(tuple, rows)):
            seen.setdefault(row, i)
        first, inverse = distinct_rows(rows)
        np.testing.assert_array_equal(first, list(seen.values()))
        np.testing.assert_array_equal(rows[first][inverse], rows)

    def test_key_separates_values_and_dtypes(self):
        image_encoder, text_encoder = small_encoders()
        counting = CountingEncoder(image_encoder)
        img = small_image(3)
        images = [img, small_image(4), img.astype(np.float64),
                  np.ascontiguousarray(img.transpose(0, 2, 1)), img]
        table = PairInputs(images, ["c"] * 5, 16, counting, text_encoder, stored=True)
        np.testing.assert_array_equal(table.ids[:, 0], [0, 1, 2, 3, 0])
        for i in (0, 1, 2, 3, 0):
            table.encode(0, [i])
        assert counting.calls == [None] * 4

    @pytest.mark.parametrize("bad, message", [
        (None, "example 2 has no image data"),
        (small_image(4)[:, :8], r"example 2: image shape \(3, 8, 16\) does not match "
                                "configured size 16"),
        (small_image(4)[None], r"example 2: image shape \(1, 3, 16, 16\) does not match"),
    ], ids=["missing", "another_shape", "batched"])
    def test_a_missing_or_wrong_size_image_is_rejected_before_any_hashing(self, bad, message,
                                                                          monkeypatch):
        def refuse(*args):
            raise AssertionError("hashed an image before every image was checked")

        monkeypatch.setattr(core_module, "hashlib", types.SimpleNamespace(sha256=refuse))
        with pytest.raises(DataError, match=message):
            PairInputs([small_image(), small_image(3), bad], ["a", "b", "c"], 16,
                       *small_encoders(), stored=False)

    def test_one_request_encodes_each_missing_input_once(self):
        image_encoder, text_encoder = small_encoders()
        counting = CountingEncoder(image_encoder)
        images = [small_image(seed) for seed in (3, 4, 3)]
        table = PairInputs(images, ["c"] * 3, 16, counting, text_encoder, stored=True)
        rows, sizes = table.encode(0, table.ids[:, 0])
        assert sizes == [4, 4, 4] and len(counting.calls) == 1
        assert rows.data[:4].tobytes() == rows.data[8:].tobytes()
        single, _ = table.encode(0, [1])
        assert single.data.tobytes() == rows.data[4:8].tobytes()
        assert len(counting.calls) == 1

    def test_text_hit_is_bitwise_equal_to_fresh_encode(self):
        image_encoder, text_encoder = small_encoders()
        table = PairInputs([small_image()] * 2, ["red square", "blue square"], 16,
                           image_encoder, text_encoder, stored=True)
        ids = tokenize_text("red square", 16)
        first, sizes = table.encode(1, [0])
        again, _ = table.encode(1, np.array([0]))
        assert again is first
        assert sizes == [len(ids)]
        assert again.data.tobytes() == text_encoder.encode(ids)[0].data.tobytes()
        assert table.encode(1, [1])[0] is not first

    def test_image_hit_is_bitwise_equal_to_fresh_encode(self):
        image_encoder, text_encoder = small_encoders()
        img = small_image(3)
        # equal bytes in another array are the same image
        table = PairInputs([img, img.copy()], ["c", "c"], 16, image_encoder, text_encoder,
                           stored=True)
        first, _ = table.encode(0, table.ids[:1, 0])
        again, _ = table.encode(0, table.ids[1:, 0])
        assert again is first
        assert again.data.tobytes() == image_encoder.encode([img])[0].data.tobytes()
        assert not again.requires_grad

    def test_stored_array_rejects_writes(self):
        table = PairInputs([small_image()], ["abc"], 16, *small_encoders(), stored=True)
        for column in (0, 1):
            out, _ = table.encode(column, [0])
            with pytest.raises(ValueError):
                out.data[0, 0] = 1.0
            with pytest.raises(ValueError):
                out.data += 1.0

    def test_visible_calls_run_the_encoder_and_are_never_stored(self):
        image_encoder, text_encoder = small_encoders()
        counting = CountingEncoder(image_encoder)
        img = small_image(3)
        table = PairInputs([img], ["c"], 16, counting, text_encoder, stored=True)
        a, _ = table.encode(0, [0], visible=[[0, 2]])
        b, _ = table.encode(0, [0], visible=[[0, 2]])
        assert a is not b
        assert a.shape == (2, DIM)
        np.testing.assert_array_equal(a.data,
                                      image_encoder.encode([img], visible=[[0, 2]])[0].data)
        assert a.data.flags.writeable
        assert counting.calls == [[[0, 2]], [[0, 2]]]
        # a full encode afterwards is still a first sighting
        table.encode(0, [0])
        table.encode(0, [0])
        assert counting.calls == [[[0, 2]], [[0, 2]], None]

    def test_without_a_store_every_request_runs_the_encoder(self):
        image_encoder, text_encoder = small_encoders()
        counting = CountingEncoder(image_encoder)
        table = PairInputs([small_image()], ["c"], 16, counting, text_encoder, stored=False)
        a, _ = table.encode(0, [0])
        b, _ = table.encode(0, [0])
        assert a is not b and a.data.tobytes() == b.data.tobytes()
        assert a.data.flags.writeable and counting.calls == [None, None]

    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
    def test_targets_equal_those_of_fusing_every_example(self, frozen, monkeypatch):
        image_encoder, text_encoder = small_encoders(frozen=frozen)
        target_fusion = small_fusion(requires_grad=False)
        images = [small_image(seed) for seed in (1, 2, 1, 1, 2, 3)]
        captions = ["red", "blue", "red", "a longer caption", "blue", "red"]
        masks = [sample_masks(GRID, 2, (0.85, 1.0), (0.15, 0.3), (1.0, 1.0),
                              np.random.default_rng(seed)) for seed in range(6)]
        fused_pairs, real_call = [], FusionModule.__call__

        def counted_call(self, patch_reps, text_reps, segments=None, text_segments=None):
            fused_pairs.append(len(segments))
            return real_call(self, patch_reps, text_reps, segments, text_segments)

        monkeypatch.setattr(FusionModule, "__call__", counted_call)
        batch = pairs(images, captions, image_encoder, text_encoder, stored=frozen)
        targets, fused = make_targets(*batch, masks, target_fusion)
        monkeypatch.setattr(core_module, "distinct_rows",
                            lambda rows: (np.arange(len(rows)), np.arange(len(rows))))
        every_targets, every_fused = make_targets(*batch, masks, target_fusion)
        assert fused_pairs == [4, 6]
        assert targets.data.tobytes() == every_targets.data.tobytes()
        assert fused.data.tobytes() == every_fused.data.tobytes()
        assert fused.shape == every_fused.shape and not targets.requires_grad


class TestMakeContext:
    def test_row_count_matches_context(self):
        image_encoder, text_encoder = small_encoders()
        fusion = small_fusion()
        masks = mask_set()
        out = make_context(*pairs([small_image()], ["cap"], image_encoder, text_encoder),
                           [masks], fusion)
        assert out.shape == (len(masks.context), DIM)

    def test_equals_target_path_when_modules_match_and_all_visible(self):
        image_encoder, text_encoder = small_encoders()
        fusion = small_fusion()
        twin = fusion.clone()
        full_block = BlockMask(2, 2, 0, 0, 2, 2, 4)
        dummy_target = BlockMask(2, 2, 0, 0, 1, 1, 1)
        masks = MaskSet(2, 2, full_block, (0, 1, 2, 3), (dummy_target,))
        img = small_image()
        context = make_context(*pairs([img], ["cap"], image_encoder, text_encoder), [masks],
                               fusion)
        _, fused = make_targets(*pairs([img], ["cap"], image_encoder, text_encoder), [masks], twin)
        np.testing.assert_allclose(context.data, fused.data, atol=1e-6)

    def test_masking_changes_representation(self):
        image_encoder, text_encoder = small_encoders()
        fusion = small_fusion()
        partial = MaskSet(2, 2, BlockMask(2, 2, 0, 0, 2, 2, 4), (0, 1),
                          (BlockMask(2, 2, 1, 0, 1, 2, 2),))
        full = MaskSet(2, 2, BlockMask(2, 2, 0, 0, 2, 2, 4), (0, 1, 2, 3),
                       (BlockMask(2, 2, 0, 0, 1, 1, 1),))
        img = small_image()
        seen_partial = make_context(*pairs([img], ["cap"], image_encoder, text_encoder),
                                    [partial], fusion).data
        seen_full = make_context(*pairs([img], ["cap"], image_encoder, text_encoder),
                                 [full], fusion).data
        assert np.abs(seen_partial - seen_full[:2]).max() > 1e-6

    def test_empty_context_rejected(self):
        image_encoder, text_encoder = small_encoders()
        fusion = small_fusion()
        masks = MaskSet(2, 2, BlockMask(2, 2, 0, 0, 1, 1, 1), (),
                        (BlockMask(2, 2, 0, 0, 2, 2, 4),))
        with pytest.raises(ShapeError):
            make_context(*pairs([small_image()], ["cap"], image_encoder, text_encoder),
                         [masks], fusion)


class TestPredict:
    def make_predictor(self, depth=1, seed=0):
        return Predictor(depth, 2, DIM, DIM, np.random.default_rng(seed))

    def test_one_prediction_row_per_mask_token(self):
        predictor = self.make_predictor()
        ctx = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, DIM)).astype(np.float32))
        out = predictor.predict(ctx, [[0, 1]], [[[2, 3]]], GRID)
        assert out.shape == (2, DIM)

    def test_positions_differentiate_predictions(self):
        predictor = self.make_predictor()
        ctx = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, DIM)).astype(np.float32))
        out = predictor.predict(ctx, [[0]], [[[1, 2]]], GRID).data
        assert np.abs(out[0] - out[1]).max() > 1e-6

    def test_depth_zero_is_affine_and_ignores_context(self):
        predictor = self.make_predictor(depth=0)
        rng = np.random.default_rng(2)
        ctx_a = Tensor(rng.uniform(-1, 1, (2, DIM)).astype(np.float32))
        ctx_b = Tensor(rng.uniform(-1, 1, (2, DIM)).astype(np.float32))
        out_a = predictor.predict(ctx_a, [[0, 1]], [[[3]]], GRID).data
        out_b = predictor.predict(ctx_b, [[0, 1]], [[[3]]], GRID).data
        np.testing.assert_array_equal(out_a, out_b)

        from tijepa.encoders import sincos_pos_2d
        token = predictor.mask_token.data + sincos_pos_2d(*GRID, DIM)[3]
        expected = token @ predictor.out_w.data + predictor.out_b.data
        np.testing.assert_allclose(out_a[0], expected, rtol=1e-5, atol=1e-6)

    def test_row_order_follows_position_enumeration(self):
        predictor = self.make_predictor()
        ctx = Tensor(np.random.default_rng(3).uniform(-1, 1, (1, DIM)).astype(np.float32))
        forward = predictor.predict(ctx, [[0]], [[[1, 2, 3]]], GRID).data
        permuted = predictor.predict(ctx, [[0]], [[[3, 1, 2]]], GRID).data
        np.testing.assert_allclose(permuted, forward[[2, 0, 1]], atol=1e-6)

    def test_position_overlap_rejected(self):
        predictor = self.make_predictor()
        ctx = Tensor(np.zeros((2, DIM), dtype=np.float32))
        with pytest.raises(ShapeError):
            predictor.predict(ctx, [[0, 1]], [[[1, 2]]], GRID)
        with pytest.raises(ShapeError):
            predictor.predict(ctx, [[0, 1]], [[[2], [3, 0]]], GRID)

    @pytest.mark.parametrize("blocks", [[], [[]], [[[2]], [[3]]]],
                             ids=["no_examples", "no_blocks", "more_examples_than_contexts"])
    def test_an_example_without_target_blocks_is_refused(self, blocks):
        ctx = Tensor(np.zeros((2, DIM), dtype=np.float32))
        with pytest.raises(ShapeError, match="need target blocks for every example"):
            self.make_predictor().predict(ctx, [[0, 1]], blocks, GRID)

    def test_context_rows_that_do_not_match_the_positions_are_refused(self):
        ctx = Tensor(np.zeros((3, DIM), dtype=np.float32))
        with pytest.raises(ShapeError, match="context rows do not match context positions"):
            self.make_predictor().predict(ctx, [[0, 1]], [[[2]]], GRID)

    def test_multi_block_pass_matches_single_block_calls(self, inner):
        grid = (4, 4)
        predictor = Predictor(2, 2, DIM, DIM, np.random.default_rng(11))
        params = predictor.named_parameters()
        ctx = Tensor(np.random.default_rng(12).uniform(-1, 1, (6, DIM)).astype(np.float32),
                     requires_grad=True)
        ctx_pos = [0, 1, 4, 5, 8, 9]
        blocks = [[2, 3, 6], [15], [10, 11, 14, 7], [3, 7]]
        weights = np.random.default_rng(13).uniform(-1, 1, (10, DIM)).astype(np.float32)

        def run(pieces):
            for p in [ctx, *params.values()]:
                p.grad = None
            out = pieces()
            backward(inner(out, weights))
            return out.data, {n: p.grad.copy() for n, p in [("ctx", ctx), *params.items()]}

        joint, joint_grads = run(lambda: predictor.predict(ctx, [ctx_pos], [blocks], grid))
        single, single_grads = run(lambda: concat_rows(
            [predictor.predict(ctx, [ctx_pos], [[block]], grid) for block in blocks]))
        assert joint.shape == (10, DIM)
        assert np.abs(joint - single).max() < 1e-5
        for name, grad in single_grads.items():
            assert np.abs(joint_grads[name] - grad).max() < 1e-5, name


class TestPredictorKeptRows:
    """The last block computes only the mask rows that ``predict`` returns."""

    GRID4 = (4, 4)
    CTX_POS = [[0, 1, 4, 5, 8], [0, 1, 2, 4, 5, 6, 12, 13]]
    BLOCKS = [[[2, 3, 6, 7], [15]], [[10, 11], [3, 7, 14, 15, 9]]]

    def inputs(self, depth):
        predictor = Predictor(depth, 2, DIM, DIM, np.random.default_rng(31))
        ctx = Tensor(np.random.default_rng(32).uniform(-1, 1, (13, DIM)).astype(np.float32),
                     requires_grad=True)
        return predictor, ctx

    def all_rows(self, predictor, ctx):
        """Every block on every row of each (example, block) segment, then the mask rows."""
        from tijepa.encoders import sincos_pos_2d
        pos = sincos_pos_2d(*self.GRID4, DIM)
        ctx = add(linear(ctx, predictor.in_w, predictor.in_b),
                  Tensor(pos[np.concatenate(self.CTX_POS)]))
        starts = np.cumsum([0] + [len(p) for p in self.CTX_POS])
        parts, segments, slots = [], [], []
        for e, blocks in enumerate(self.BLOCKS):
            example = gather_rows(ctx, np.arange(starts[e], starts[e + 1]))
            for block in blocks:
                masks = add(Tensor(pos[block]), predictor.mask_token)
                row = sum(segments) + example.shape[0]
                parts += [example, masks]
                segments.append(example.shape[0] + len(block))
                slots += range(row, row + len(block))
        tokens = concat_rows(parts)
        for block in predictor.blocks:
            tokens = block(tokens, segments)
        return linear(gather_rows(tokens, slots), predictor.out_w, predictor.out_b)

    def run(self, predictor, ctx, forward, inner):
        params = {"ctx": ctx, **predictor.named_parameters()}
        weights = np.random.default_rng(33).uniform(-1, 1, (12, DIM)).astype(np.float32)
        for p in params.values():
            p.grad = None
        out = forward()
        backward(inner(out, weights))
        return out.data, {name: p.grad.copy() for name, p in params.items()}

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_equals_the_all_rows_computation(self, depth, inner):
        predictor, ctx = self.inputs(depth)
        kept, kept_grads = self.run(predictor, ctx, lambda: predictor.predict(
            ctx, self.CTX_POS, self.BLOCKS, self.GRID4), inner)
        full, full_grads = self.run(predictor, ctx, lambda: self.all_rows(predictor, ctx), inner)
        assert kept.shape == (12, DIM)
        assert np.abs(kept - full).max() <= 1e-6
        for name, grad in full_grads.items():
            assert np.abs(kept_grads[name] - grad).max() <= 1e-5 * np.abs(grad).max(), name

    def test_last_block_mlp_sees_only_the_mask_rows(self, monkeypatch):
        from tijepa import encoders
        rows = []

        def counted_mlp(x, *weights):
            rows.append(x.shape[0])
            return mlp(x, *weights)

        monkeypatch.setattr(encoders, "mlp", counted_mlp)
        predictor, ctx = self.inputs(2)
        predictor.predict(ctx, self.CTX_POS, self.BLOCKS, self.GRID4)
        block_rows = [len(b) for blocks in self.BLOCKS for b in blocks]
        segment_rows = sum(len(p) * len(b) for p, b in zip(self.CTX_POS, self.BLOCKS))
        assert rows == [segment_rows + sum(block_rows), sum(block_rows)]


class TestPredictionLoss:
    def test_zero_when_equal(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32))
        assert prediction_loss(x, Tensor(x.data), [[3]]).item() == 0.0

    def test_three_four_five(self):
        pred = Tensor(np.array([[3.0, 4.0]]))
        tgt = Tensor(np.array([[0.0, 0.0]]))
        assert prediction_loss(pred, tgt, [[1]]).item() == pytest.approx(25.0)

    def test_hand_evaluated_two_blocks(self):
        # blocks of 2 and 3 patches, one dim, unit differences -> (2 + 3) / 2
        pred, tgt = Tensor(np.ones((5, 1))), Tensor(np.zeros((5, 1)))
        loss = prediction_loss(pred, tgt, [[2, 3]])
        assert loss.item() == pytest.approx(2.5)

    def test_l1_variant(self):
        pred = Tensor(np.array([[3.0, -4.0]]))
        tgt = Tensor(np.zeros((1, 2)))
        assert prediction_loss(pred, tgt, [[1]], kind="l1").item() == pytest.approx(7.0)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pred = Tensor(rng.uniform(-2, 2, (4, 3)).astype(np.float32))
            tgt = Tensor(rng.uniform(-2, 2, (4, 3)).astype(np.float32))
            assert prediction_loss(pred, tgt, [[1, 3]]).item() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            prediction_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))), [[2]])

    def test_block_count_mismatch(self):
        x = Tensor(np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            prediction_loss(x, x, [[1, 1]])
        with pytest.raises(ShapeError):
            prediction_loss(x, x, [])
        with pytest.raises(ShapeError):
            prediction_loss(x, x, [[]])

    def test_unknown_kind(self):
        x = Tensor(np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            prediction_loss(x, x, [[1]], kind="huber")

    def test_kind_and_shapes_are_checked_by_block_distance(self):
        x = Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="block_distance: unknown kind 'huber'"):
            prediction_loss(x, x, [[2]], kind="huber")
        with pytest.raises(ShapeError, match=r"block_distance: incompatible shapes \(2, 2\) and "
                                             r"\(2, 3\)"):
            prediction_loss(x, Tensor(np.zeros((2, 3))), [[2]])

    @staticmethod
    def composed_reference(pred, tgt, sizes, kind):
        """The loss and prediction gradient of the float32 op chain the loss
        once ran as: sub, mul (or abs), mul by a (rows, D) weight array, sum,
        scale, each backward step as that op's own."""
        rows = [sum(example) for example in sizes]
        row_weight = np.repeat([1.0 / len(example) for example in sizes], rows)
        weights = np.repeat(row_weight[:, None], pred.shape[1], axis=1).astype(np.float32)
        c = 1.0 / len(sizes)
        diff = pred - tgt
        per_entry = diff * diff if kind == "l2" else np.abs(diff)
        loss = (per_entry * weights).sum() * np.asarray(c, dtype=np.float32)
        g_entry = np.full_like(per_entry, np.ones_like(loss) * c) * weights
        grad = g_entry * diff + g_entry * diff if kind == "l2" else g_entry * np.sign(diff)
        return loss, grad

    @pytest.mark.parametrize("kind", ["l2", "l1"])
    def test_loss_and_gradient_bitwise_equal_the_composed_chain(self, kind):
        # two examples with two and three target blocks of unequal sizes
        sizes = [[3, 2], [4, 1, 2]]
        rng = np.random.default_rng(12)
        pred = rng.uniform(-2, 2, (12, 6)).astype(np.float32)
        tgt = rng.uniform(-2, 2, (12, 6)).astype(np.float32)
        pt = Tensor(pred, requires_grad=True)
        loss = prediction_loss(pt, Tensor(tgt), sizes, kind)
        backward(loss)
        ref_loss, ref_grad = self.composed_reference(pred, tgt, sizes, kind)
        assert loss.data.dtype == np.float32 and pt.grad.dtype == np.float32
        assert np.asarray(loss.data).tobytes() == np.asarray(ref_loss).tobytes()
        assert pt.grad.tobytes() == ref_grad.tobytes()

    def test_l1_subgradient_is_zero_at_equality(self):
        tgt = np.random.default_rng(13).uniform(-1, 1, (4, 3)).astype(np.float32)
        pred = tgt.copy()
        pred[1] += 0.5
        pt = Tensor(pred, requires_grad=True)
        backward(prediction_loss(pt, Tensor(tgt), [[1, 3]], kind="l1"))
        np.testing.assert_array_equal(pt.grad[[0, 2, 3]], 0.0)
        np.testing.assert_array_equal(pt.grad[1], np.float32(1.0 / 2))


class TestExampleLoss:
    @pytest.mark.parametrize("kind", ["l2", "l1"])
    def test_equals_context_predict_loss_composition(self, kind):
        encoders = small_encoders(frozen=False)
        fusion = small_fusion()
        predictor = Predictor(1, 2, DIM, DIM, np.random.default_rng(9))
        masks = mask_set()
        img = small_image()
        targets, _ = make_targets(*pairs([img], ["cap"], *encoders), [masks], fusion.clone())
        context = make_context(*pairs([img], ["cap"], *encoders), [masks], fusion)
        preds = predictor.predict(context, [masks.context],
                                  [[block.indices() for block in masks.targets]], GRID)
        expected = prediction_loss(preds, targets, [[block.area for block in masks.targets]], kind)
        loss = example_loss(*pairs([img], ["cap"], *encoders), fusion, predictor, [masks],
                            targets, kind)
        assert loss.data.tobytes() == expected.data.tobytes()
        assert loss.requires_grad


class TestStopGradient:
    def test_gradients_reach_only_online_modules(self):
        image_encoder, text_encoder = small_encoders(frozen=True)
        fusion = small_fusion()
        target_fusion = fusion.clone()
        predictor = Predictor(1, 2, DIM, DIM, np.random.default_rng(9))
        masks = mask_set()
        img = small_image()

        batch = pairs([img], ["cap"], image_encoder, text_encoder)
        targets, _ = make_targets(*batch, [masks], target_fusion)
        context = make_context(*batch, [masks], fusion)
        preds = predictor.predict(context, [masks.context],
                                  [[block.indices() for block in masks.targets]], GRID)
        backward(prediction_loss(preds, targets, [[block.area for block in masks.targets]]))

        for p in {**image_encoder.named_parameters(), **text_encoder.named_parameters(),
                  **target_fusion.named_parameters("target")}.values():
            assert p.grad is None
        fusion_grads = [p.grad for p in fusion.named_parameters().values()]
        predictor_grads = [p.grad for p in predictor.named_parameters().values()]
        assert any(g is not None and np.abs(g).max() > 0 for g in fusion_grads)
        assert any(g is not None and np.abs(g).max() > 0 for g in predictor_grads)

    def test_self_prediction_loss_is_finite(self):
        # online == target and full visibility: the loss reduces to the
        # predictor reconstructing its own input's fused targets
        image_encoder, text_encoder = small_encoders()
        fusion = small_fusion()
        twin = fusion.clone()
        predictor = Predictor(1, 2, DIM, DIM, np.random.default_rng(10))
        target = BlockMask(2, 2, 1, 1, 1, 1, 1)
        masks = MaskSet(2, 2, BlockMask(2, 2, 0, 0, 2, 2, 4), (0, 1, 2), (target,))
        img = small_image()
        batch = pairs([img], ["cap"], image_encoder, text_encoder)
        targets, _ = make_targets(*batch, [masks], twin)
        context = make_context(*batch, [masks], fusion)
        preds = predictor.predict(context, [masks.context],
                                  [[block.indices() for block in masks.targets]], GRID)
        loss = prediction_loss(preds, targets, [[block.area for block in masks.targets]])
        assert np.isfinite(loss.item())


class TestCompositeGradients:
    def test_fusion_stack_fd(self):
        assert fusion_gradient_check(seed=0) < 1e-4

    def test_pipeline_fd(self):
        assert pipeline_gradient_check(seed=0) < 1e-4


class TestBatchedForward:
    """One batched pass equals the examples run as batches of one."""

    GRID3 = (3, 3)
    CAPTIONS = ["red", "a long caption", "xy"]

    def build(self, frozen=True):
        rng = np.random.default_rng(21)
        encoders = (ImageEncoder(4, DIM, 1, 2, rng).requires_grad_(not frozen),
                    TextEncoder(DIM, 1, 2, 16, rng).requires_grad_(not frozen))
        fusion = small_fusion(rng=rng)
        predictor = Predictor(1, 2, DIM, DIM, rng)
        images = [np.random.default_rng(30 + i).uniform(0, 1, (3, 12, 12)).astype(np.float32)
                  for i in range(3)]
        masks = [sample_masks(self.GRID3, 2, (0.85, 1.0), (0.15, 0.3), (1.0, 1.0),
                              np.random.default_rng(40 + i)) for i in range(3)]
        assert len({len(m.context) for m in masks}) > 1  # padding is real
        return encoders, fusion, predictor, images, masks

    def predictions(self, encoders, fusion, predictor, images, captions, masks):
        context = make_context(*pairs(images, captions, *encoders, image_size=12), masks, fusion)
        preds = predictor.predict(context, [m.context for m in masks],
                                  [[b.indices() for b in m.targets] for m in masks], self.GRID3)
        sizes = np.cumsum([0] + [sum(b.area for b in m.targets) for m in masks])
        return [preds.data[lo:hi] for lo, hi in zip(sizes[:-1], sizes[1:])]

    def test_changing_one_example_leaves_the_others_bitwise_unchanged(self):
        encoders, fusion, predictor, images, masks = self.build()
        base = self.predictions(encoders, fusion, predictor, images, self.CAPTIONS, masks)
        other_image = [images[0], 1.0 - images[1], images[2]]
        # a caption of the same token count keeps every padded width as it was
        other_caption = [self.CAPTIONS[0], "A LONG CAPTION", self.CAPTIONS[2]]
        for imgs, caps in ((other_image, self.CAPTIONS), (images, other_caption)):
            changed = self.predictions(encoders, fusion, predictor, imgs, caps, masks)
            assert changed[1].tobytes() != base[1].tobytes()
            for i in (0, 2):
                assert changed[i].tobytes() == base[i].tobytes()

    def losses(self, encoders, fusion, predictor, images, masks, after=lambda loss: None):
        """The batched loss, then each batch-of-one loss; ``after`` sees each as it is made."""
        out = []
        for picked in (slice(0, 3), slice(0, 1), slice(1, 2), slice(2, 3)):
            batch = pairs(images[picked], self.CAPTIONS[picked], *encoders, image_size=12)
            targets, _ = make_targets(*batch, masks[picked], fusion.clone())
            out.append(example_loss(*batch, fusion, predictor, masks[picked], targets, "l2"))
            after(out[-1])
        return out[0], out[1:]

    def test_batched_loss_is_the_mean_of_batch_of_one_losses(self):
        batched, singles = self.losses(*self.build())
        mean = np.mean([loss.item() for loss in singles])
        assert abs(batched.item() - mean) <= 1e-6 * abs(mean)

    def test_batched_gradients_match_batch_of_one_gradients(self):
        encoders, fusion, predictor, images, masks = self.build(frozen=False)
        params = {}
        for prefix, module in zip(("img", "txt", "fusion", "predictor"),
                                  (*encoders, fusion, predictor)):
            params.update(module.named_parameters(prefix))
        grads = []

        def collect(loss):
            for p in params.values():
                p.grad = None
            backward(loss)
            grads.append({name: p.grad.copy() for name, p in params.items()})

        self.losses(encoders, fusion, predictor, images, masks, after=collect)
        joint = grads[0]
        summed = {name: sum(g[name] for g in grads[1:]) / 3 for name in params}
        for name, grad in summed.items():
            assert np.abs(joint[name] - grad).max() <= 1e-5 * np.abs(grad).max(), name
