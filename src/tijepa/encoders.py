"""Patchification, positional encodings, and the small image/text encoders.

Both encoders are plain pre-norm transformers built on :mod:`tijepa.numerics`.
They stand in for large pretrained backbones at desk scale, expose the same
interfaces (patch tokens in, per-token representations out), and are frozen
by default during pretraining.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import DataError, ShapeError, read_input
from .numerics import (
    DEFAULT_DTYPE,
    INIT_STD,
    AttentionParams,
    Module,
    Tensor,
    _check_finite,
    _wrap,
    add,
    attention,
    gather_rows,
    layer_norm,
    linear,
    mlp,
)

BOS_ID = 256
EOS_ID = 257
VOCAB_SIZE = 258


# ---------------------------------------------------------------------------
# tokenizer (byte-level, lossless)


def tokenize_text(caption: str | bytes, max_len: int) -> list[int]:
    """Byte ids 0-255 wrapped in BOS/EOS, truncated to ``max_len``."""
    data = caption.encode("utf-8") if isinstance(caption, str) else bytes(caption)
    ids = [BOS_ID, *data, EOS_ID]
    return ids[:max_len]


# ---------------------------------------------------------------------------
# fixed sine-cosine positional encodings


@functools.lru_cache(maxsize=64)
def sincos_pos_1d(n: int, dim: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Fixed 1-D encoding, one read-only row per position, cached."""
    if dim % 2 != 0:
        raise ShapeError("1-D sin-cos encoding needs an even dim")
    pos = np.arange(n, dtype=np.float64)[:, None]
    freqs = np.arange(dim // 2, dtype=np.float64)
    omega = 1.0 / (10000.0 ** (2.0 * freqs / dim))
    angles = pos * omega[None, :]
    out = np.concatenate([np.sin(angles), np.cos(angles)], axis=1).astype(dtype)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=64)
def sincos_pos_2d(grid_h: int, grid_w: int, dim: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Fixed 2-D encoding, one read-only row per grid cell in row-major order, cached."""
    if grid_h < 1 or grid_w < 1:
        raise ShapeError("positional grid must be at least 1x1")
    if dim % 4 != 0:
        raise ShapeError("2-D sin-cos encoding needs dim divisible by 4")
    rows = sincos_pos_1d(grid_h, dim // 2, np.float64)
    cols = sincos_pos_1d(grid_w, dim // 2, np.float64)
    # row r * grid_w + c holds rows[r] then cols[c]
    out = np.hstack([np.repeat(rows, grid_w, axis=0), np.tile(cols, (grid_h, 1))]).astype(dtype)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# patchification


def patchify(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Split a (3, H, W) image into N x (3*p*p) rows in row-major grid order.

    A (B, 3, H, W) batch gives one such (N, 3*p*p) block per image.
    """
    img = np.asarray(image)
    if img.ndim not in (3, 4) or img.shape[-3] != 3:
        raise ShapeError(f"expected a (3, H, W) image or a batch of them, got {img.shape}")
    *lead, _, h, w = img.shape
    p = patch_size
    if h % p != 0 or w % p != 0:
        raise ShapeError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    b = len(lead)
    tiles = img.reshape(*lead, 3, gh, p, gw, p).transpose(*range(b), b + 1, b + 3, b, b + 2, b + 4)
    return np.ascontiguousarray(tiles.reshape(*lead, gh * gw, 3 * p * p))


# ---------------------------------------------------------------------------
# transformer blocks and the two encoders


class TransformerBlock(Module):
    """Pre-norm residual block: self-attention, optional cross-attention, MLP.

    The cross-attention sublayer exists when ``cross_std`` (its projections'
    init std) is given; it reads the ``context`` tokens passed to each call.
    Fusion layers have it, encoder and predictor blocks do not. The MLP
    sublayer is one ``mlp`` record, which keeps its pre-activation and tanh.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None,
                 mlp_ratio: int = 4, cross_std: float | None = None):
        self.heads = heads
        hidden = mlp_ratio * dim
        # checkpoint names: a fusion layer spells out its sublayers
        ln1, attn, ln2 = ("ln1", "attn", "ln2") if cross_std is None else \
            ("ln_self", "self_attn", "ln_mlp")

        def norm(name):
            return (self._param(f"{name}.gain", (dim,), rng, fill=1.0),
                    self._param(f"{name}.bias", (dim,), rng))

        self.ln1_g, self.ln1_b = norm(ln1)
        self.attn = self._add(attn, AttentionParams(dim, rng))
        self.cross_attn = None
        if cross_std is not None:
            self.ln_cross_g, self.ln_cross_b = norm("ln_cross")
            self.cross_attn = self._add("cross_attn", AttentionParams(dim, rng, cross_std))
        self.ln2_g, self.ln2_b = norm(ln2)
        self.mlp_w1 = self._param("mlp.w1", (dim, hidden), rng, INIT_STD)
        self.mlp_b1 = self._param("mlp.b1", (hidden,), rng)
        self.mlp_w2 = self._param("mlp.w2", (hidden, dim), rng, INIT_STD)
        self.mlp_b2 = self._param("mlp.b2", (dim,), rng)

    def __call__(self, x: Tensor, segments=None, context: Tensor | None = None,
                 context_segments=None, keep=None, keep_segments=None) -> Tensor:
        """``segments``: row counts of independent sequences stacked in ``x``;
        ``context_segments``: those of the same sequences' context tokens.

        ``keep`` limits the output to those rows of ``x``, sequence by
        sequence, ``keep_segments`` per sequence: they alone are queries and
        go through the MLP, while every row stays a key and value.
        """
        if (context is None) != (self.cross_attn is None):
            raise ShapeError("context tokens go with a cross-attention sublayer, and only there")
        normed = layer_norm(x, self.ln1_g, self.ln1_b)
        queries, q_segments = normed, segments
        if keep is not None:
            x, queries, q_segments = gather_rows(x, keep), gather_rows(normed, keep), keep_segments
        x = add(x, attention(queries, normed, self.attn, self.heads, q_segments, segments))
        if context is not None:
            normed = layer_norm(x, self.ln_cross_g, self.ln_cross_b)
            x = add(x, attention(normed, context, self.cross_attn, self.heads, q_segments,
                                 context_segments))
        h = mlp(layer_norm(x, self.ln2_g, self.ln2_b), self.mlp_w1, self.mlp_b1,
                self.mlp_w2, self.mlp_b2)
        return add(x, h)


class ImageEncoder(Module):
    """Linear patch embedding + fixed 2-D positions + transformer blocks.

    ``encode`` runs a batch of images, each one attention segment, and accepts
    an optional set of visible patch indices per image.
    """

    PREFIX = "image_encoder"

    def __init__(self, patch_size: int, dim: int, depth: int, heads: int,
                 rng: np.random.Generator | None):
        self.patch_size, self.dim = patch_size, dim
        self.patch_w = self._param("patch_embed.weight", (3 * patch_size ** 2, dim), rng,
                                   INIT_STD)
        self.patch_b = self._param("patch_embed.bias", (dim,), rng)
        self.blocks = [self._add(f"blocks.{i}", TransformerBlock(dim, heads, rng))
                       for i in range(depth)]
        self.norm_g = self._param("norm.gain", (dim,), rng, fill=1.0)
        self.norm_b = self._param("norm.bias", (dim,), rng)

    def encode(self, images, visible=None) -> tuple[Tensor, list[int]]:
        """Encode a batch of (3, H, W) images as one stack of rows.

        A uint8 image (a PPM's pixels) is widened to ``pixels / 255`` here, image
        by image: stacking first would upcast 0..255 without the ``/ 255``.
        ``visible`` holds one collection of patch indices per image; only
        those patches are encoded, each image's rows in ascending patch index.
        By default every patch is. Returns the rows, image by image, and each
        image's row count.
        """
        batch = np.asarray([img.astype(np.float32) / 255.0 if img.dtype == np.uint8 else img
                            for img in map(np.asarray, images)])
        if batch.ndim != 4:
            raise ShapeError(f"encode takes a batch of (3, H, W) images, got {batch.shape}")
        patches = patchify(batch, self.patch_size)
        b, n = patches.shape[:2]
        if visible is None:
            idx = [np.arange(n)] * b
        else:
            if len(visible) != b:
                raise ShapeError(f"{len(visible)} visible patch sets for {b} images")
            idx = [np.asarray(sorted(v), dtype=np.int64) for v in visible]
        sizes = [i.size for i in idx]
        if min(sizes) == 0:
            raise ShapeError("visible patch set is empty")
        flat = np.concatenate(idx)
        if flat.min() < 0 or flat.max() >= n:
            raise ShapeError(f"visible patch index out of range [0, {n})")
        rows = np.repeat(np.arange(b) * n, sizes) + flat
        gh, gw = batch.shape[2] // self.patch_size, batch.shape[3] // self.patch_size
        dtype = self.patch_w.dtype
        pos = sincos_pos_2d(gh, gw, self.dim, dtype)
        x = linear(_wrap(patches.reshape(b * n, -1)[rows].astype(dtype, copy=False)),
                   self.patch_w, self.patch_b)
        x = add(x, _wrap(pos[flat]))
        for block in self.blocks:
            x = block(x, sizes)
        return layer_norm(x, self.norm_g, self.norm_b), sizes


class TextEncoder(Module):
    """Token embedding + fixed 1-D positions + transformer blocks."""

    PREFIX = "text_encoder"

    def __init__(self, dim: int, depth: int, heads: int, max_text_len: int,
                 rng: np.random.Generator | None):
        self.dim, self.max_text_len = dim, max_text_len
        self.embed = self._param("embed.weight", (VOCAB_SIZE, dim), rng, INIT_STD)
        self.blocks = [self._add(f"blocks.{i}", TransformerBlock(dim, heads, rng))
                       for i in range(depth)]
        self.norm_g = self._param("norm.gain", (dim,), rng, fill=1.0)
        self.norm_b = self._param("norm.bias", (dim,), rng)

    def encode(self, token_ids, sizes=None) -> tuple[Tensor, list[int]]:
        """Encode a batch of token-id sequences as one stack of rows.

        ``token_ids`` holds the sequences back to back, ``sizes`` their
        lengths (one sequence when omitted). Returns the rows, sequence by
        sequence, and ``sizes``. Attention pads each sequence to the batch's
        longest, and those trailing zeros change no bit of a caption's rows.
        """
        ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
        sizes = [ids.size] if sizes is None else [int(n) for n in sizes]
        if not sizes or min(sizes) < 2 or sum(sizes) != ids.size:
            raise ShapeError("each token id sequence must hold at least BOS and EOS")
        if max(sizes) > self.max_text_len:
            raise ShapeError(f"token id sequence longer than max_text_len={self.max_text_len}")
        if ids.min() < 0 or ids.max() >= VOCAB_SIZE:
            raise ShapeError(f"token id out of range [0, {VOCAB_SIZE})")
        starts = np.cumsum(sizes) - sizes
        pos = sincos_pos_1d(self.max_text_len, self.dim, self.embed.dtype)
        offsets = np.arange(ids.size) - np.repeat(starts, sizes)
        x = add(gather_rows(self.embed, ids), _wrap(pos[offsets]))
        for block in self.blocks:
            x = block(x, sizes)
        return layer_norm(x, self.norm_g, self.norm_b), sizes


# ---------------------------------------------------------------------------
# image file formats: binary P6 PPM and the RAWT raw tensor container


def _decode_ppm(blob: bytes, path) -> np.ndarray:
    """8-bit binary P6 PPM bytes to a (3, H, W) uint8 image, the pixels as stored."""
    fields: list[int] = []
    i = 2
    while len(fields) < 3:
        while i < len(blob) and blob[i:i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i:i + 1] == b"#":
            while i < len(blob) and blob[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i:i + 1].isspace():
            i += 1
        if start == i:
            raise DataError(f"truncated PPM header: {path}")
        if not blob[start:i].isdigit():
            raise DataError(f"bad PPM header field in {path}")
        fields.append(int(blob[start:i]))
    i += 1  # exactly one whitespace byte separates header and pixels
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"only 8-bit PPM supported (maxval 255), got {maxval}: {path}")
    expected = width * height * 3
    pixels = blob[i:i + expected]
    if len(pixels) != expected:
        raise DataError(f"truncated PPM pixel data: {path}")
    arr = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return np.ascontiguousarray(arr.transpose(2, 0, 1))


def _check_unit_range(img: np.ndarray, path) -> None:
    """``DataError`` naming ``path`` unless every value is finite and in [0, 1], up to 1e-6."""
    _check_finite(img, f"values in image: {path}", DataError)
    if img.size and (img.min() < -1e-6 or img.max() > 1.0 + 1e-6):
        raise DataError(f"image values outside [0, 1]: {path}")


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) image as 8-bit P6: uint8 pixels as they are, [0, 1] floats rounded."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected a (3, H, W) image, got {img.shape}")
    _, h, w = img.shape
    if img.dtype != np.uint8:
        _check_unit_range(img, path)  # before the file is opened, as a RAWT load would
        img = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    pixels = img.transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


RAWT_MAGIC = b"RAWT"


def _decode_rawt(blob: bytes, path) -> np.ndarray:
    """RAWT container: magic, u32 rank, u32 dims..., little-endian f32 payload."""
    try:
        (rank,) = struct.unpack_from("<I", blob, 4)
        dims = struct.unpack_from(f"<{rank}I", blob, 8)
    except struct.error as exc:
        raise DataError(f"truncated RAWT header in {path}") from exc
    offset, size = 8 + 4 * rank, 4 * math.prod(dims)
    payload = blob[offset:offset + size]
    if len(payload) != size:
        raise DataError(f"truncated RAWT payload in {path}")
    return np.frombuffer(payload, dtype="<f4").reshape(dims)


def write_rawt(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(RAWT_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes())


def load_image(path) -> np.ndarray:
    """Read a (3, H, W) image, H and W positive, from one read of a PPM or RAWT file: a
    PPM's uint8 pixels, which ``ImageEncoder.encode`` widens, or RAWT float32 in [0, 1]."""
    blob = read_input(path, "image file")
    if blob[:2] == b"P6":
        img = _decode_ppm(blob, path)
    elif blob[:4] == RAWT_MAGIC:
        img = _decode_rawt(blob, path)
    else:
        raise DataError(f"unrecognized image format (want P6 PPM or RAWT): {path}")
    if img.ndim != 3 or img.shape[0] != 3 or 0 in img.shape:
        raise DataError(f"image must be (3, H, W) with no empty side, got {img.shape}: {path}")
    if blob[:2] == b"P6":  # any byte is a valid 8-bit pixel
        return img
    _check_unit_range(img, path)
    return np.clip(img, 0.0, 1.0).astype(np.float32)
