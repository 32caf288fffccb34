import struct

import numpy as np
import pytest

from tijepa.encoders import (
    BOS_ID,
    EOS_ID,
    ImageEncoder,
    TextEncoder,
    load_image,
    patchify,
    sincos_pos_1d,
    sincos_pos_2d,
    tokenize_text,
    write_ppm,
    write_rawt,
)
from tijepa.errors import DataError, ShapeError


def small_image_encoder(rng, depth=1, requires_grad=False):
    return ImageEncoder(8, 16, depth, 2, rng).requires_grad_(requires_grad)


def small_text_encoder(rng, max_text_len=16):
    return TextEncoder(16, 1, 2, max_text_len, rng).requires_grad_(False)


class TestPatchify:
    def test_paper_scale_grid(self):
        img = np.random.default_rng(0).uniform(0, 1, (3, 224, 224)).astype(np.float32)
        patches = patchify(img, 16)
        assert patches.shape == (196, 768)

    def test_desk_scale_grid(self):
        img = np.zeros((3, 64, 64), dtype=np.float32)
        assert patchify(img, 8).shape == (64, 192)

    def test_constant_image_gives_identical_rows(self):
        img = np.full((3, 16, 16), 0.25, dtype=np.float32)
        patches = patchify(img, 8)
        for row in patches:
            np.testing.assert_array_equal(row, patches[0])

    def test_roundtrip_bit_exact(self):
        img = np.random.default_rng(1).uniform(0, 1, (3, 24, 40)).astype(np.float32)
        patches = patchify(img, 8)
        assert patches.shape == (3 * 5, 3 * 8 * 8)
        for row, col in np.ndindex(3, 5):
            tile = img[:, row * 8:(row + 1) * 8, col * 8:(col + 1) * 8]
            np.testing.assert_array_equal(patches[row * 5 + col], tile.reshape(-1))

    def test_non_divisible_dimensions(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((3, 30, 32), dtype=np.float32), 8)


class TestPositions:
    def test_components_bounded(self):
        pos = sincos_pos_2d(6, 9, 16)
        assert pos.min() >= -1.0 and pos.max() <= 1.0

    def test_no_collisions_up_to_64x64(self):
        pos = sincos_pos_2d(64, 64, 16).astype(np.float64)
        unique = {row.tobytes() for row in pos}
        assert len(unique) == 64 * 64

    def test_single_cell_grid(self):
        pos = sincos_pos_2d(1, 1, 8)
        assert pos.shape == (1, 8)
        half = 4
        np.testing.assert_array_equal(pos[0, :half], sincos_pos_1d(1, half)[0])

    def test_dim_must_divide_by_four(self):
        with pytest.raises(ShapeError):
            sincos_pos_2d(2, 2, 6)


class TestTokenizer:
    def test_empty_caption(self):
        assert tokenize_text("", 16) == [BOS_ID, EOS_ID]

    def test_byte_values(self):
        assert tokenize_text("ab", 16) == [256, 97, 98, 257]

    def test_truncation_cuts_mid_sequence(self):
        ids = tokenize_text("x" * 1000, 16)
        assert len(ids) == 16
        assert ids[-1] != EOS_ID

    def test_roundtrip(self):
        text = "a red square"
        assert tokenize_text(text, 32) == [BOS_ID, *text.encode(), EOS_ID]

    def test_roundtrip_truncated(self):
        assert tokenize_text("abcdef", 4) == [BOS_ID, *b"abc"]


class TestImageEncoder:
    def test_output_shape_full_visibility(self):
        enc = small_image_encoder(np.random.default_rng(0))
        img = np.random.default_rng(1).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        out, sizes = enc.encode([img])
        assert out.shape == (64, 16)
        assert sizes == [64]

    def test_subset_matches_full_at_depth_zero(self):
        enc = small_image_encoder(np.random.default_rng(0), depth=0)
        img = np.random.default_rng(1).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        full = enc.encode([img])[0].data
        subset = enc.encode([img], visible=[range(10)])[0].data
        np.testing.assert_array_equal(subset, full[:10])

    def test_subset_differs_from_full_with_depth(self):
        enc = small_image_encoder(np.random.default_rng(0), depth=1)
        img = np.random.default_rng(1).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        full = enc.encode([img])[0].data
        subset = enc.encode([img], visible=[range(10)])[0].data
        assert np.abs(subset - full[:10]).max() > 1e-6

    def test_visible_rows_follow_ascending_patch_index(self):
        enc = small_image_encoder(np.random.default_rng(0), depth=0)
        img = np.random.default_rng(2).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        shuffled = enc.encode([img], visible=[[9, 3, 27]])[0].data
        ordered = enc.encode([img], visible=[[3, 9, 27]])[0].data
        np.testing.assert_array_equal(shuffled, ordered)

    def test_out_of_range_patch_index(self):
        enc = small_image_encoder(np.random.default_rng(0))
        img = np.zeros((3, 64, 64), dtype=np.float32)
        with pytest.raises(ShapeError):
            enc.encode([img], visible=[[64]])

    def test_frozen_parameters_not_trainable(self):
        enc = small_image_encoder(np.random.default_rng(0), requires_grad=False)
        assert all(not p.requires_grad for p in enc.named_parameters().values())

    def test_unfrozen_parameters_trainable(self):
        enc = small_image_encoder(np.random.default_rng(0), requires_grad=True)
        assert all(p.requires_grad for p in enc.named_parameters().values())

    def test_deterministic(self):
        img = np.random.default_rng(3).uniform(0, 1, (3, 64, 64)).astype(np.float32)
        a = small_image_encoder(np.random.default_rng(5)).encode([img])[0].data
        b = small_image_encoder(np.random.default_rng(5)).encode([img])[0].data
        np.testing.assert_array_equal(a, b)


class TestTextEncoder:
    def test_one_row_per_token(self):
        enc = small_text_encoder(np.random.default_rng(0))
        ids = tokenize_text("hello", 16)
        out, sizes = enc.encode(ids)
        assert out.shape == (len(ids), 16)
        assert sizes == [len(ids)]

    def test_identical_captions_identical_outputs(self):
        enc = small_text_encoder(np.random.default_rng(0))
        ids = tokenize_text("same text", 16)
        np.testing.assert_array_equal(enc.encode(ids)[0].data, enc.encode(ids)[0].data)

    def test_position_sensitivity(self):
        enc = small_text_encoder(np.random.default_rng(0))
        a = enc.encode(tokenize_text("ab", 16))[0].data
        b = enc.encode(tokenize_text("ba", 16))[0].data
        assert np.abs(a - b).max() > 1e-6

    def test_rejects_empty_ids(self):
        enc = small_text_encoder(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc.encode([])

    def test_rejects_out_of_range_ids(self):
        enc = small_text_encoder(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            enc.encode([258, 0])


class TestBatchedEncode:
    def test_caption_rows_do_not_depend_on_the_batch(self):
        # widely spread lengths: a short caption's attention is padded to the
        # batch's longest, and the key-major layout must keep its rows bitwise
        enc = small_text_encoder(np.random.default_rng(0), max_text_len=64)
        ids = [tokenize_text(c, 64) for c in ("ab", "twenty-one characters", "x" * 60, "xyz")]
        rows, sizes = enc.encode([i for seq in ids for i in seq], [len(seq) for seq in ids])
        assert sizes == [len(seq) for seq in ids]
        row = 0
        for seq in ids:
            alone = enc.encode(seq)[0].data
            assert rows.data[row:row + len(seq)].tobytes() == alone.tobytes()
            row += len(seq)

    def test_image_rows_do_not_depend_on_the_batch(self):
        enc = small_image_encoder(np.random.default_rng(0))
        images = np.random.default_rng(1).uniform(0, 1, (3, 3, 16, 16)).astype(np.float32)
        rows, sizes = enc.encode(images)
        assert sizes == [4, 4, 4]
        for i in range(3):
            alone = enc.encode(images[i:i + 1])[0].data
            assert rows.data[4 * i:4 * i + 4].tobytes() == alone.tobytes()

    def test_each_image_keeps_its_visible_patches(self):
        enc = small_image_encoder(np.random.default_rng(0), depth=1)
        images = np.random.default_rng(2).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
        visible = [[5, 1, 9], list(range(20))]
        rows, sizes = enc.encode(images, visible=visible)
        assert sizes == [3, 20]
        first = enc.encode(images[:1], visible=visible[:1])[0].data
        second = enc.encode(images[1:], visible=visible[1:])[0].data
        assert np.abs(rows.data[:3] - first).max() < 1e-6
        assert np.abs(rows.data[3:] - second).max() < 1e-6
        with pytest.raises(ShapeError):
            enc.encode(images, visible=visible[:1])
        with pytest.raises(ShapeError):
            enc.encode(images, visible=[[0], []])

    def test_rejects_sizes_that_do_not_tile_the_ids(self):
        enc = small_text_encoder(np.random.default_rng(0))
        ids = tokenize_text("ab", 16) + tokenize_text("cd", 16)
        for sizes in ([4], [4, 3], [1, 7], []):
            with pytest.raises(ShapeError):
                enc.encode(ids, sizes)
        with pytest.raises(ShapeError):
            enc.encode(list(range(17)))  # longer than max_text_len


class TestImageFiles:
    def test_ppm_roundtrip(self, tmp_path):
        img = (np.arange(3 * 4 * 4).reshape(3, 4, 4) % 256 / 255.0).astype(np.float32)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        loaded = load_image(path)
        assert loaded.dtype == np.uint8
        # compared as the encoder widens it
        np.testing.assert_allclose(loaded.astype(np.float32) / 255.0, img, atol=1 / 255.0 / 2)

    def test_ppm_loads_and_writes_its_stored_bytes(self, tmp_path):
        pixels = np.random.default_rng(2).integers(0, 256, (3, 5, 4), dtype=np.uint8)
        blob = b"P6\n4 5\n255\n" + pixels.transpose(1, 2, 0).tobytes()
        path = tmp_path / "img.ppm"
        path.write_bytes(blob)
        loaded = load_image(path)
        assert loaded.dtype == np.uint8 and loaded.nbytes == pixels.nbytes
        np.testing.assert_array_equal(loaded, pixels)
        write_ppm(tmp_path / "again.ppm", loaded)
        assert (tmp_path / "again.ppm").read_bytes() == blob

    def test_ppm_and_rawt_of_the_same_values_encode_to_equal_bits(self, tmp_path):
        # the PPM's uint8 pixels are widened by the encoder, the RAWT holds k / 255 already
        pixels = np.random.default_rng(3).integers(0, 256, (3, 16, 16), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", pixels)
        write_rawt(tmp_path / "a.rawt", pixels.astype(np.float32) / 255.0)
        ppm, rawt = load_image(tmp_path / "a.ppm"), load_image(tmp_path / "a.rawt")
        assert (ppm.dtype, rawt.dtype) == (np.uint8, np.float32)
        enc = small_image_encoder(np.random.default_rng(0))
        for visible in (None, [[0, 3]]):
            assert enc.encode([ppm], visible)[0].data.tobytes() == \
                enc.encode([rawt], visible)[0].data.tobytes()
        # one batch of both: stacking before widening would read the PPM as 0..255
        for visible in (None, [[0, 3], [1, 2]]):
            assert enc.encode([ppm, rawt], visible)[0].data.tobytes() == \
                enc.encode([rawt, rawt], visible)[0].data.tobytes()
            assert enc.encode([rawt, ppm], visible)[0].data.tobytes() == \
                enc.encode([rawt, rawt], visible)[0].data.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0], ids=["nan", "inf", "two"])
    def test_ppm_refuses_a_float_pixel_a_rawt_load_refuses(self, tmp_path, bad):
        img = np.full((3, 2, 2), 0.5, dtype=np.float32)
        img[1, 0, 1] = bad
        rawt, ppm = tmp_path / "a.rawt", tmp_path / "a.ppm"
        write_rawt(rawt, img)
        with pytest.raises(DataError) as loaded:
            load_image(rawt)
        with pytest.raises(DataError) as written:
            write_ppm(ppm, img)
        assert str(written.value) == str(loaded.value).replace(str(rawt), str(ppm))
        assert not ppm.exists()

    def test_ppm_writes_floats_within_the_rawt_tolerance_clipped(self, tmp_path):
        img = np.array([-5e-7, 0.0, 0.5, 1.0, 1.0 + 5e-7, 1.0]).reshape(3, 1, 2)
        write_ppm(tmp_path / "a.ppm", img)
        assert (tmp_path / "a.ppm").read_bytes() == b"P6\n2 1\n255\n" + bytes(
            [0, 128, 255, 0, 255, 255])

    def test_ppm_with_header_comment(self, tmp_path):
        path = tmp_path / "c.ppm"
        pixels = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + pixels)
        img = load_image(path)
        assert img.shape == (3, 2, 2)

    def test_ppm_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n000")
        with pytest.raises(DataError):
            load_image(path)

    def test_ppm_truncated(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(DataError):
            load_image(path)

    def test_rawt_roundtrip_bit_exact(self, tmp_path):
        arr = np.random.default_rng(0).uniform(0, 1, (3, 8, 8)).astype(np.float32)
        path = tmp_path / "img.rawt"
        write_rawt(path, arr)
        np.testing.assert_array_equal(load_image(path), arr)

    def test_rawt_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rawt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_image(path)

    def test_load_image_dispatches_by_magic(self, tmp_path):
        arr = np.random.default_rng(1).uniform(0, 1, (3, 4, 4)).astype(np.float32)
        ppm, rawt = tmp_path / "a.ppm", tmp_path / "b.rawt"
        write_ppm(ppm, arr)
        write_rawt(rawt, arr)
        assert load_image(ppm).shape == (3, 4, 4)
        np.testing.assert_array_equal(load_image(rawt), arr)

    def test_load_image_rejects_out_of_range_rawt(self, tmp_path):
        path = tmp_path / "big.rawt"
        write_rawt(path, np.full((3, 2, 2), 7.0, dtype=np.float32))
        with pytest.raises(DataError):
            load_image(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_load_image_rejects_non_finite_rawt_naming_the_file(self, tmp_path, bad):
        # NaN fails no comparison of the [0, 1] range check, so it is tested first
        img = np.full((3, 2, 2), 0.5, dtype=np.float32)
        img[1, 0, 1] = bad
        path = tmp_path / "bad_pixel.rawt"
        write_rawt(path, img)
        with pytest.raises(DataError, match="non-finite.*bad_pixel.rawt"):
            load_image(path)

    def test_load_image_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_image(tmp_path / "absent.ppm")

    @pytest.mark.parametrize("blob", [
        b"P6\n0 0\n255\n", b"P6\n4 0\n255\n", b"P6\n0 4\n255\n",
        b"RAWT" + struct.pack("<4I", 3, 3, 0, 0), b"RAWT" + struct.pack("<4I", 3, 3, 4, 0),
    ], ids=["ppm_0x0", "ppm_4x0", "ppm_0x4", "rawt_0x0", "rawt_4x0"])
    def test_load_image_rejects_an_empty_side_naming_the_file(self, tmp_path, blob):
        path = tmp_path / "empty.img"
        path.write_bytes(blob)
        with pytest.raises(DataError, match="empty side.*empty.img"):
            load_image(path)

    @pytest.mark.parametrize("header", [b"P6\n-2 -2\n255\n", b"P6\n+2 2\n255\n"])
    def test_load_image_rejects_a_signed_ppm_size(self, tmp_path, header):
        # int() reads a sign, and two negative sides would multiply to a positive size
        path = tmp_path / "signed.ppm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(DataError, match="bad PPM header field"):
            load_image(path)
