"""Dense tensors with tape-based reverse-mode differentiation.

Forward arithmetic runs in float32. Every op also accepts float64 so the
finite-difference checker can rebuild its graphs in 64-bit, where a central
difference at h=1e-4 is trustworthy.

Ops record onto a single module-level tape (define-by-run) whenever an input
requires grad; ``backward`` replays the tape in reverse, popping each record as
it goes, so one tape serves one training step and a step's activations and
intermediate gradients are freed during the replay, not all at its end. The
tape must stay on one thread.

:func:`_check_finite` checks values where they enter (the ``Tensor`` constructor,
the file loaders, ``core.PairInputs`` for in-memory pixels) and where a step or a
gradient check ends (the loss, every gradient), not op outputs: a non-finite value
that arises in the graph reaches the loss or a gradient before any weight moves.
"""

from __future__ import annotations

import contextlib
import copy
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, ShapeError

DEFAULT_DTYPE = np.float32
# default std of a learned weight's normal init
INIT_STD = 0.02
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _check_finite(arr: np.ndarray, what: str, error: type[Exception] = NumericalError,
                  limit: float = math.inf) -> None:
    """Raise ``error("non-finite <what>")`` unless every value of ``arr`` is
    finite, or ``error("<what> reaches ...")`` when a magnitude reaches ``limit``."""
    if not arr.size:
        return
    # min/max propagate NaN and expose Inf without allocating a bool array
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise error(f"non-finite {what}")
    if max(-lo, hi) >= limit:
        raise error(f"{what} reaches {max(-lo, hi):.3g}, past the limit {limit:.3g}")


class Tensor:
    """A dense float array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        arr = np.array(data, dtype=dtype)
        _check_finite(arr, "values in tensor data")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Module:
    """A node of the model's tree of named parameters.

    ``__init__`` takes sizes and a generator only. It makes each parameter,
    float32 and trainable, with ``_param`` and records each submodule with
    ``_add``, under its checkpoint name, so a name is given only where its
    tensor is made. A parameter is made once and then updated in place (by
    AdamW, EMA and checkpoint loads), never rebound except by ``astype``
    before first use, so the records stay the tensors the attributes hold.
    ``requires_grad_`` and ``clone`` act on the built tree. Given no
    generator, a constructor builds the layout alone: names and shapes, every
    value its ``fill``, for a checkpoint load to overwrite.
    """

    PREFIX = ""

    def _add(self, name: str, item):
        """Record ``item``, a ``Tensor`` or a ``Module``, under ``name``; returns it."""
        vars(self).setdefault("_named", {})[name] = item
        return item

    def _param(self, name: str, shape, rng: np.random.Generator | None,
               std: float | None = None, fill: float = 0.0) -> Tensor:
        """Record a trainable parameter under ``name``: ``rng``'s N(0, ``std``) draw, or
        ``fill`` everywhere when ``std`` or ``rng`` is None. Both are finite (every ``std``
        and ``fill`` is a code constant), so the tensor wraps its array unscanned."""
        if rng is None or std is None:
            arr = np.full(shape, fill, dtype=DEFAULT_DTYPE)
        else:
            arr = rng.normal(0.0, std, shape).astype(DEFAULT_DTYPE, copy=False)
        return self._add(name, _wrap(arr, requires_grad=True))

    def named_parameters(self, prefix: str | None = None) -> dict[str, Tensor]:
        """Every parameter in creation order, named ``prefix.name`` (``PREFIX``
        by default); a submodule's parameters carry its name in between."""
        prefix = self.PREFIX if prefix is None else prefix
        out = {}
        for name, item in vars(self).get("_named", {}).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(item, Module):
                out.update(item.named_parameters(full))
            else:
                out[full] = item
        return out

    def astype(self, dtype) -> Module:
        """Rebind every parameter's array to a ``dtype`` copy, before first use; the
        tensors stay the same objects. Returns ``self``."""
        for p in self.named_parameters().values():
            p.data = p.data.astype(dtype)
        return self

    def requires_grad_(self, flag: bool) -> Module:
        """Set whether every parameter is trained; returns ``self``."""
        for p in self.named_parameters().values():
            p.requires_grad = flag
        return self

    def clone(self) -> Module:
        """An independent, bitwise-equal copy of the tree, its parameters gradient-free,
        e.g. to initialize the EMA target twin."""
        twin = copy.deepcopy(self).requires_grad_(False)
        zero_grads(twin.named_parameters())
        return twin


# one (op, inputs, output, backward) tuple per recorded op; backward maps the
# output gradient to one gradient (or None) per input
_TAPE: list[tuple] = []
_GRAD_ENABLED = True


def active_tape() -> list[tuple]:
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _wrap(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    """A tensor around ``arr`` itself, without the constructor's copy and finiteness scan:
    for op outputs (see the module docstring), parameters (see ``Module._param``), constant
    sin-cos position rows, pixel rows checked as they entered, and arrays already checked."""
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad = arr, requires_grad, None
    return out


def _record(op: str, inputs: Sequence[Tensor], arr: np.ndarray, backward) -> Tensor:
    needs = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = _wrap(arr, needs)
    if needs:
        _TAPE.append((op, tuple(inputs), out, backward))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # no gradient array is ever written in place, so the first one is kept as
    # it is even when it is shared (``add`` hands one array to both inputs)
    t.grad = np.asarray(g, dtype=t.data.dtype) if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    Replays the active tape once in reverse and empties it. Each record is
    popped before its backward runs and each intermediate output's gradient
    is dropped once it has been passed on, so the arrays that only later
    records hold (activations, their gradients) are freed during the replay
    and intermediate outputs end with ``grad`` None. A gradient that never
    arrives stays None, which ``adamw_step`` and ``check_gradients`` read as zeros.
    """
    if loss.data.ndim != 0:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = _TAPE
    if loss.requires_grad:
        _accumulate(loss, np.ones_like(loss.data))
        while tape:
            _op, inputs, output, back = tape.pop()
            g, output.grad = output.grad, None
            if g is not None:
                for t, gi in zip(inputs, back(g)):
                    if gi is not None and t.requires_grad:
                        _accumulate(t, gi)
    tape.clear()


def zero_grads(tensors) -> None:
    values = tensors.values() if isinstance(tensors, dict) else tensors
    for t in values:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise and structural ops


def _plus_bias(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``y + b`` in ``y``'s own array, unless a wider bias widens the sum, as in ``add``."""
    return np.add(y, b, out=y if y.dtype == b.dtype else None)


def _add_back(a: Tensor, b: Tensor):
    """The backward of ``add(a, b)``; ``ShapeError`` for shapes ``add`` does not take."""
    if a.shape == b.shape:
        return lambda g: (g, g)
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return lambda g: (g, np.ones(g.shape[0], dtype=g.dtype) @ g)
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Same-shape add, or bias-add of a 1-D ``b`` over the leading axis of 2-D ``a``."""
    return _record("add", (a, b), a.data + b.data, _add_back(a, b))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not math.isfinite(c):
        raise NumericalError("scale: non-finite coefficient")

    def back(g):
        return (g * c,)

    return _record("scale", (a,), a.data * np.asarray(c, dtype=a.dtype), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")

    def back(g):
        return g @ b.data.T, a.data.T @ g

    return _record("matmul", (a, b), a.data @ b.data, back)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; duplicate indices accumulate gradient."""
    if a.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    # rows of g grouped by the row of ``a`` they came from, in order
    order = np.argsort(idx, kind="stable")
    firsts = np.flatnonzero(np.diff(idx[order], prepend=-1))

    def back(g):
        ga = np.zeros_like(a.data)
        if idx.size:
            ga[idx[order[firsts]]] = np.add.reduceat(g[order], firsts, axis=0)
        return (ga,)

    return _record("gather_rows", (a,), a.data[idx], back)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows: empty input")
    width = parts[0].shape[-1]
    for p in parts:
        if p.ndim != 2 or p.shape[1] != width:
            raise ShapeError("concat_rows: all parts must be 2-D with equal width")
    sizes = [p.shape[0] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, bounds, axis=0))

    return _record("concat_rows", tuple(parts), np.concatenate([p.data for p in parts], axis=0), back)


def block_distance(a: Tensor, b: Tensor, row_weights, kind: str = "l2") -> Tensor:
    """Weighted distance between the rows of ``a`` and ``b`` as one scalar.

    ``l2`` sums squared differences and ``l1`` absolute ones; row i's sum is
    multiplied by ``row_weights[i]``. The ``l1`` subgradient is 0 where the
    rows are equal.
    """
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"block_distance: incompatible shapes {a.shape} and {b.shape}")
    if kind not in ("l2", "l1"):
        raise ShapeError(f"block_distance: unknown kind '{kind}'")
    w = np.asarray(row_weights, dtype=a.dtype)
    if w.shape != (a.shape[0],):
        raise ShapeError(f"block_distance: {w.shape} row weights for {a.shape[0]} rows")
    d = a.data - b.data
    per_entry = d * d if kind == "l2" else np.abs(d)
    per_entry *= w[:, None]

    def back(g):
        gw = (g * w)[:, None]
        if kind == "l2":
            ga = gw * d
            ga += ga  # the two d factors of d * d each contribute g * w * d
        else:
            ga = gw * np.sign(d)
        return ga, -ga

    return _record("block_distance", (a, b), per_entry.sum(), back)


# ---------------------------------------------------------------------------
# nonlinearities


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Row means and row dot products are einsum contractions over the last
    axis: one pass per row, and each row's sum is the same wherever the row
    sits, so a row's output does not depend on the other rows of the input
    (a BLAS ``x @ ones`` rounds a row by its position in the matrix). The
    backward's column sums for ``gain`` and ``bias`` run as ``ones @ rows``.
    """
    if eps <= 0:
        raise ShapeError("layer_norm: eps must be positive")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    ones = np.ones(d, dtype=x.dtype)
    xh = x.data - (np.einsum("...i,i->...", x.data, ones) / d)[..., None]
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xh, xh) / d + eps)[..., None]
    xh *= inv
    y = xh * gain.data
    y += bias.data

    def back(g):
        dxh = g * gain.data
        proj = xh * (np.einsum("...i,...i->...", dxh, xh) / d)[..., None]
        dxh -= (np.einsum("...i,i->...", dxh, ones) / d)[..., None]
        dxh -= proj
        dxh *= inv
        rows = g.reshape(-1, d)
        column_ones = np.ones(rows.shape[0], dtype=g.dtype)
        return dxh, column_ones @ (rows * xh.reshape(-1, d)), column_ones @ rows

    return _record("layer_norm", (x, gain, bias), y, back)


def _gelu_output(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU of ``h``, ``0.5 * h * (1 + t)``, from its tanh ``t``."""
    u = t + 1.0
    u *= h
    u *= 0.5
    return u


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(x, w1, b1)``, tanh-approximation GELU and ``linear(., w2, b2)`` as one record
    of the same ops in the same order. It keeps the pre-activation ``h`` and the tanh ``t``;
    the backward rebuilds GELU's output from them, then GELU's derivative in its buffer."""
    if (x.ndim, w1.ndim, b1.ndim, w2.ndim, b2.ndim) != (2, 2, 1, 2, 1) or \
            w1.shape + w2.shape != (x.shape[1], *b1.shape * 2, *b2.shape):
        raise ShapeError(f"mlp: incompatible shapes {[a.shape for a in (x, w1, b1, w2, b2)]}")
    h = _plus_bias(x.data @ w1.data, b1.data)
    t = h * h
    t *= _GELU_C * _GELU_K
    t += _GELU_C
    t *= h
    np.tanh(t, out=t)  # tanh(C * (h + K * h^3))

    def back(g):
        d = _gelu_output(h, t)
        gw2, gb2, gu = d.T @ g, np.ones(len(g), g.dtype) @ g, g @ w2.data.T
        d_inner = h * h
        d_inner *= 3.0 * _GELU_C * _GELU_K
        d_inner += _GELU_C  # C * (1 + 3K * h^2)
        np.subtract(1.0, np.multiply(t, t, out=d), out=d)
        d *= h
        d *= d_inner
        d += t
        d += 1.0
        d *= 0.5  # 0.5 * (1 + t) + 0.5 * h * (1 - t^2) * d_inner
        d *= gu
        return d @ w1.data.T, x.data.T @ d, np.ones(len(d), d.dtype) @ d, gw2, gb2

    y = _plus_bias(_gelu_output(h, t) @ w2.data, b2.data)
    return _record("mlp", (x, w1, b1, w2, b2), y, back)


def cross_entropy_logits(logits: Tensor, labels) -> Tensor:
    """Summed negative log softmax probability of each row's label, via log-sum-exp."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (rows, classes) logits, got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: {labels.shape} labels for {n} rows")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"cross_entropy: labels out of range [0, {k})")
    z = logits.data
    rows = np.arange(n)
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = m[:, 0] + np.log(np.exp(shifted).sum(axis=1))
    loss = np.asarray((lse - z[rows, labels]).sum(), dtype=z.dtype)

    def back(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        return (g * p,)

    return _record("cross_entropy", (logits,), loss, back)


# ---------------------------------------------------------------------------
# attention


class AttentionParams(Module):
    """Learned Q/K/V/output projections; K has no bias, which softmax would cancel."""

    def __init__(self, dim: int, rng: np.random.Generator | None, std: float = INIT_STD):
        def w(name):
            return self._param(name, (dim, dim), rng, std)

        def b(name):
            return self._param(name, (dim,), rng)

        self.wq, self.bq, self.wk = w("wq"), b("bq"), w("wk")
        self.wv, self.bv, self.wo, self.bo = w("wv"), b("bv"), w("wo"), b("bo")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(x, w), b)``, with the bias added into the product's array:
    only that ``add`` reads the product, and matmul's backward reads ``x`` and
    ``w``, so the two records stay and one step-sized array goes."""
    y = matmul(x, w)
    back = _add_back(y, b)
    return _record("add", (y, b), _plus_bias(y.data, b.data), back)


def _padded_rows(sizes: np.ndarray, width: int) -> np.ndarray | None:
    """Row of each stacked row in a (segments * width) padding, or None when
    every segment fills its width and a reshape pads it."""
    if sizes.min() == width:
        return None
    starts = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(np.arange(sizes.size) * width - starts, sizes)


def _to_heads(x: np.ndarray, rows, segments: int, width: int, heads: int) -> np.ndarray:
    """Stacked rows (N, heads * dh) to a padded (segments, heads, width, dh) view."""
    if rows is not None:
        padded = np.zeros((segments * width, x.shape[1]), dtype=x.dtype)
        padded[rows] = x
        x = padded
    return x.reshape(segments, width, heads, x.shape[1] // heads).transpose(0, 2, 1, 3)


def _matmul_rows(a: np.ndarray, b: np.ndarray, rows) -> np.ndarray:
    """``a @ b`` of (segments, heads, width, dh), written through a view straight
    into the stacked (segments * width, heads * dh) rows; padding dropped."""
    segments, heads, width, dh = *a.shape[:3], b.shape[-1]
    out = np.empty((segments * width, heads * dh), dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.reshape(segments, width, heads, dh).transpose(0, 2, 1, 3))
    return out if rows is None else out[rows]


def _folded_scores(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a @ b^T`` of (segments, heads, kv_width, q_width), written through its
    view into a (segments, kv_width, heads * q_width) array; both are returned."""
    segments, heads, kv_width, q_width = *a.shape[:3], b.shape[2]
    folded = np.empty((segments, kv_width, heads * q_width), dtype=np.result_type(a, b))
    view = folded.reshape(segments, kv_width, heads, q_width).transpose(0, 2, 1, 3)
    np.matmul(a, b.transpose(0, 1, 3, 2), out=view)
    return folded, view


def _segment_sizes(sizes, rows: int, what: str) -> np.ndarray:
    out = np.asarray([rows] if sizes is None else sizes, dtype=np.int64).reshape(-1)
    if not out.size or out.min() < 1 or out.sum() != rows:
        raise ShapeError(f"attention: {what} segments {out.tolist()} do not tile {rows} rows")
    return out


def _attention_heads(q: Tensor, k: Tensor, v: Tensor, heads: int, segments,
                     kv_segments) -> Tensor:
    """softmax(Q K^T / sqrt(dh)) V of every head of every segment, as one tape op.

    All segments run as one padded batch: queries as (segments, heads,
    q_width, dh) and keys and values as (segments, heads, kv_width, dh), each
    side padded to its own longest segment. Scores and softmax weights are
    key-major and fold the heads into each key's row, (segments, kv_width,
    heads * q_width): the softmax max and sum reduce over axis 1, which numpy
    runs as elementwise passes along runs of ``heads * q_width`` contiguous
    floats, where a reduction along each short key row would cost several
    times the ``exp``. Padded keys' rows are set to -inf. Outputs and
    gradients are written straight into row order (see :func:`_matmul_rows`).
    The backward keeps only the softmax weights and re-pads Q/K/V from the
    op's inputs. Padding adds exact zeros at the end of each sum over keys or
    queries (the softmax reductions, the in-order K loop of BLAS), so it
    changes no bit of a segment's rows.
    """
    # self-attention keeps the query geometry for its keys: sizes and padded rows
    q_sizes = kv_sizes = _segment_sizes(segments, q.shape[0], "query")
    if not (kv_segments is None or kv_segments is segments) or k.shape[0] != q.shape[0]:
        kv_sizes = _segment_sizes(segments if kv_segments is None else kv_segments,
                                  k.shape[0], "key/value")
    if q_sizes.size != kv_sizes.size:
        raise ShapeError(f"attention: {q_sizes.size} query segments vs {kv_sizes.size} key/value")
    # numpy hands a product with one row or column to gemv, which rounds unlike gemm
    q_width, kv_width = max(q_sizes.max(), 2), max(kv_sizes.max(), 2)
    q_rows = _padded_rows(q_sizes, q_width)
    kv_rows = q_rows if kv_sizes is q_sizes else _padded_rows(kv_sizes, kv_width)
    s = q_sizes.size
    c = 1.0 / math.sqrt(q.shape[1] // heads)
    qh = _to_heads(q.data * np.asarray(c, dtype=q.dtype), q_rows, s, q_width, heads)
    kh, vh = (_to_heads(t.data, kv_rows, s, kv_width, heads) for t in (k, v))
    scores, p = _folded_scores(kh, qh)
    if kv_rows is not None:
        scores[np.arange(kv_width) >= kv_sizes[:, None]] = -np.inf
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    out = _matmul_rows(p.transpose(0, 1, 3, 2), vh, q_rows)

    def back(g):
        qh, kh, vh, gh = (_to_heads(a, rows, s, width, heads) for a, rows, width in
                          ((q.data, q_rows, q_width), (k.data, kv_rows, kv_width),
                           (v.data, kv_rows, kv_width), (g, q_rows, q_width)))
        # rowsum(dP * P) equals rowsum(dO * O), which sums a head width, not a key count
        dh = g.shape[1] // heads
        rowdot = _to_heads(np.einsum("nhd,nhd->nh", g.reshape(-1, heads, dh),
                                     out.reshape(-1, heads, dh)), q_rows, s, q_width, heads)
        dv = _matmul_rows(p, gh, kv_rows)
        ds_t, ds_t_view = _folded_scores(vh, gh)  # dS^T, folded like the scores
        ds_t -= rowdot.reshape(s, 1, heads * q_width)
        ds_t *= scores
        ds_t *= c
        dq = _matmul_rows(ds_t_view.transpose(0, 1, 3, 2), kh, q_rows)
        return dq, _matmul_rows(ds_t_view, qh, kv_rows), dv

    return _record("attention", (q, k, v), out, back)


def attention(q_src: Tensor, kv_src: Tensor, params: AttentionParams, heads: int,
              segments=None, kv_segments=None) -> Tensor:
    """Multi-head scaled dot-product attention over stacked independent sequences.

    Self-attention when ``q_src is kv_src``, cross-attention otherwise; the
    output keeps ``q_src``'s rows. ``segments`` lists the row counts of the
    sequences stacked in ``q_src`` and ``kv_segments`` those of the same
    sequences in ``kv_src`` (``segments`` again by default; one sequence each
    when both are None). Sequence i's queries attend only to sequence i's keys.

    Queries are padded to the longest query sequence, keys and values to the
    longest key sequence. Padding changes no bit of any sequence's rows, so a
    sequence's output does not depend on the other sequences of its batch.
    All heads of all sequences run as one tape op with key-major scores (see
    :func:`_attention_heads`).
    """
    d = params.wq.shape[0]  # the projections' matmul refuses inputs of any other width
    if d % heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by {heads} heads")
    q = linear(q_src, params.wq, params.bq)
    k = matmul(kv_src, params.wk)
    v = linear(kv_src, params.wv, params.bv)
    merged = _attention_heads(q, k, v, heads, segments, kv_segments)
    return linear(merged, params.wo, params.bo)


# ---------------------------------------------------------------------------
# gradient verification

FD_STEP = 1e-4
FD_TOLERANCE = 1e-4
# below this magnitude, compare absolutely instead of relatively
_FD_FLOOR = 1e-3


def _fd_head(out: Tensor) -> Callable[[Tensor], Tensor]:
    """The loss ``check_gradients`` makes of each output of ``build``, given the first."""
    if out.ndim == 0:
        return lambda t: t
    rng = np.random.default_rng(0)
    target = _wrap(rng.uniform(-1.0, 1.0, out.shape))
    weights = rng.uniform(0.5, 1.5, out.shape[0])
    return lambda t: block_distance(t, target, weights)


def check_gradients(build: Callable[[], Tensor], params: Sequence[Tensor],
                    max_coords: int | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    ``build`` must reconstruct its output from ``params``, which must all hold
    float64 data. A scalar output is the loss checked as it is. A non-scalar
    output must be 2-D: the loss is then its l2 ``block_distance`` to a
    target drawn from U(-1, 1), with row weights from U(0.5, 1.5), both drawn
    once per call from one fixed seed, so every coordinate of the output
    carries its own gradient. ``max_coords`` caps the checked coordinates per
    tensor (evenly spaced) for larger composites. A non-finite loss or
    analytic gradient raises ``NumericalError``: ``max`` would drop a NaN error.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("check_gradients requires float64 parameters")
    zero_grads(params)
    out = build()
    head = _fd_head(out)
    loss = head(out)
    _check_finite(loss.data, "loss in gradient check")
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    with no_grad():
        for p, ga in zip(params, analytic):
            _check_finite(ga, "analytic gradient in gradient check")
            flat = p.data.reshape(-1)
            gflat = ga.reshape(-1)
            n = flat.size
            if max_coords is not None and n > max_coords:
                coords = np.linspace(0, n - 1, max_coords).astype(np.int64)
            else:
                coords = np.arange(n)
            for i in coords:
                orig = flat[i]
                flat[i] = orig + FD_STEP
                f_plus = float(head(build()).data)
                flat[i] = orig - FD_STEP
                f_minus = float(head(build()).data)
                flat[i] = orig
                _check_finite(np.array([f_plus, f_minus]), "loss in gradient check")
                numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
                denom = max(abs(gflat[i]), abs(numeric), _FD_FLOOR)
                worst = max(worst, abs(gflat[i] - numeric) / denom)
    zero_grads(params)
    return worst


def _rand64(rng: np.random.Generator, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True, dtype=np.float64)


def gradient_suite(seed: int = 0) -> list[tuple[str, float]]:
    """Finite-difference checks for every primitive op, each non-scalar output scored
    through ``check_gradients``' l2 head; returns (name, max rel err)."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float]] = []

    a, b = _rand64(rng, (3, 4)), _rand64(rng, (4, 2))
    checks.append(("matmul", check_gradients(lambda: matmul(a, b), [a, b])))

    x, bias = _rand64(rng, (3, 4)), _rand64(rng, (4,))
    checks.append(("add_bias", check_gradients(lambda: add(x, bias), [x, bias])))

    u, v = _rand64(rng, (2, 3)), _rand64(rng, (2, 3))
    checks.append(("elementwise", check_gradients(lambda: scale(add(u, v), 0.7), [u, v])))

    x, g_, b_ = _rand64(rng, (4, 6)), _rand64(rng, (6,), 0.5, 1.5), _rand64(rng, (6,))
    checks.append(("layer_norm", check_gradients(lambda: layer_norm(x, g_, b_), [x, g_, b_])))

    mp = [_rand64(rng, s) for s in ((3, 4), (4, 6), (6,), (6, 5), (5,))]
    checks.append(("mlp", check_gradients(lambda: mlp(*mp), mp)))

    x = _rand64(rng, (5, 3))
    checks.append(("gather_rows", check_gradients(lambda: gather_rows(x, [0, 2, 2, 4]), [x])))

    p1, p2 = _rand64(rng, (2, 4)), _rand64(rng, (3, 4))
    checks.append(("concat_rows", check_gradients(lambda: concat_rows([p1, p2]), [p1, p2])))

    z = _rand64(rng, (4, 5), -2.0, 2.0)
    checks.append(("cross_entropy", check_gradients(
        lambda: cross_entropy_logits(z, [2, 0, 2, 4]), [z])))

    ap = AttentionParams(8, rng).astype(np.float64)
    x = _rand64(rng, (3, 8))
    sp = [x] + list(ap.named_parameters().values())
    checks.append(("attention_self", check_gradients(lambda: attention(x, x, ap, 2), sp)))

    ap = AttentionParams(8, rng).astype(np.float64)
    q, kv = _rand64(rng, (3, 8)), _rand64(rng, (5, 8))
    cp = [q, kv] + list(ap.named_parameters().values())
    checks.append(("attention_cross", check_gradients(lambda: attention(q, kv, ap, 2), cp)))

    x = _rand64(rng, (7, 8))
    checks.append(("attention_segments", check_gradients(
        lambda: attention(x, x, ap, 2, segments=(2, 4, 1)), [x] + cp[2:])))

    # example i's queries against example i's keys, with unequal counts on both sides
    q, kv = _rand64(rng, (7, 8)), _rand64(rng, (6, 8))
    checks.append(("attention_cross_segments", check_gradients(
        lambda: attention(q, kv, ap, 2, (2, 4, 1), (3, 1, 2)), [q, kv] + cp[2:])))

    # queries padded narrower than keys, as the predictor's last block runs them
    q, kv = _rand64(rng, (6, 8)), _rand64(rng, (12, 8))
    checks.append(("attention_query_rows", check_gradients(
        lambda: attention(q, kv, ap, 2, (1, 3, 2), (4, 5, 3)), [q, kv] + cp[2:])))

    a, b = _rand64(rng, (5, 4)), _rand64(rng, (5, 4))
    w = rng.uniform(0.5, 1.5, 5)
    for kind in ("l2", "l1"):
        checks.append((f"block_distance_{kind}", check_gradients(
            lambda: block_distance(a, b, w, kind), [a, b])))

    return checks
