"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything the credibility model trains is a small dense matrix, so the
substrate stays deliberately simple: a Tensor wraps a numpy array (float64
by default, float32 for reduced-precision runs) and a Tape records every
primitive applied while it is active, to be replayed in reverse when
gradients are needed.  Vectors are column matrices of shape (n, 1) and
scalars are (1, 1); keeping a single layout avoids a family of transpose
bugs in the recurrent code.

Columns are batch items: a batch of B feature vectors is an (n, B)
matrix, and elementwise ops, ``softmax`` and matmuls by a weight on the
left act on every column at once.  A batch of sequences padded to T steps
is stored step-major, as an (n, T*B) matrix whose column t*B + b holds
step t of item b; ``lstm`` produces that layout and ``step_weighted_sum``
reduces it.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "add",
    "mul",
    "mul_const",
    "affine",
    "tanh",
    "sigmoid",
    "relu",
    "log",
    "clip",
    "softmax",
    "sum_all",
    "transpose",
    "vstack",
    "slice_rows",
    "take_rows",
    "reshape",
    "lstm",
    "step_weighted_sum",
    "zero_grads",
    "glorot_uniform",
]

_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_matrix(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in _FLOAT_TYPES:
        arr = arr.astype(np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


class Tensor:
    """A rows x cols matrix of reals, optionally tracked for gradients.

    ``data`` is mutated in place only by the optimizer; every operation in
    this module allocates a fresh output.  ``grad`` accumulates across
    backward passes until the caller clears it.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        self.data = _as_matrix(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


# --- tape ------------------------------------------------------------------

_STATE = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of one differentiable computation.

    Use as a context manager; operations executed inside the block are
    recorded whenever their output depends on a gradient-tracked tensor.
    A tape belongs to the thread that opened it.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise ContractError("tapes must be closed in the order they were opened")
        return False

    def __len__(self) -> int:
        return len(self._ops)

    def _record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, backward))
        self._produced.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into ``grad`` of every recorded input.

        ``loss`` must be a scalar produced while this tape was active.
        Tensors that do not influence the loss keep a ``grad`` of None,
        which readers must treat as zero.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise ContractError("loss was not produced while this tape was active")
        loss.grad = np.ones_like(loss.data)
        for out, backward in reversed(self._ops):
            if out.grad is not None:
                backward(out.grad)


def _register(out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape._record(out, backward)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# --- primitives ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"cannot matrix-multiply {a.shape} by {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            # Summing into the fresh product spares one weight-sized buffer per step.
            ga = g @ b.data.T
            a.grad = ga if a.grad is None else np.add(ga, a.grad, out=ga)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    _register(out, backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a scalar, column, or row to broadcast."""
    sa, sb = a.shape, b.shape
    if sb != sa:
        scalar = sb == (1, 1)
        column = sb == (sa[0], 1)
        row_vec = sb == (1, sa[1])
        if not (scalar or column or row_vec):
            raise ShapeError(f"cannot add {sa} and {sb}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            if sb == sa:
                gb = g
            elif sb == (1, 1):
                gb = g.sum().reshape(1, 1)
            elif sb == (sa[0], 1):
                gb = g.sum(axis=1, keepdims=True)
            else:
                gb = g.sum(axis=0, keepdims=True)
            _accumulate(b, gb)

    _register(out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply elementwise {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    _register(out, backward)
    return out


def mul_const(a: Tensor, factor) -> Tensor:
    """Multiply by a fixed array or scalar that never receives gradient."""
    out = Tensor(a.data * factor, requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * factor)

    _register(out, backward)
    return out


def affine(a: Tensor, mul_by, add_to=0.0) -> Tensor:
    """``a * mul_by + add_to``; either may be an array that broadcasts to ``a``."""
    out = Tensor(a.data * mul_by + add_to, requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * mul_by)

    _register(out, backward)
    return out


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - out.data * out.data))

    _register(out, backward)
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp() only ever sees -|x|: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below, without the cost of splitting the array on sign.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_stable_sigmoid(a.data), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * out.data * (1.0 - out.data))

    _register(out, backward)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        # Subgradient at exactly zero is taken as zero.
        _accumulate(a, g * (a.data > 0.0))

    _register(out, backward)
    return out


def log(a: Tensor) -> Tensor:
    """Natural log; callers are responsible for keeping inputs positive."""
    out = Tensor(np.log(a.data), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g / a.data)

    _register(out, backward)
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through unclamped entries."""
    out = Tensor(np.clip(a.data, lo, hi), requires_grad=a.requires_grad)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * inside)

    _register(out, backward)
    return out


def softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Masked softmax down each column.

    ``mask`` holds one flag per score (any shape with that many entries).
    Masked positions come out exactly zero and receive no gradient; each
    column's unmasked entries are shifted by their max before
    exponentiation so the result is finite for any finite scores.
    """
    x = scores.data
    if mask is None:
        keep = np.ones(x.shape, dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool)
        if keep.size != x.size:
            raise ShapeError(
                f"mask of {keep.size} entries does not match {x.shape} scores")
        keep = keep.reshape(x.shape)
    if not keep.any(axis=0).all():
        raise DegenerateInputError("softmax: every position of a column is masked")

    shift = np.where(keep, x, -np.inf).max(axis=0, keepdims=True)
    e = np.exp(x - shift, where=keep, out=np.zeros_like(x))
    out = Tensor(e / e.sum(axis=0, keepdims=True), requires_grad=scores.requires_grad)

    def backward(g: np.ndarray) -> None:
        y = out.data
        # Masked entries have y == 0, so they get exactly zero gradient.
        _accumulate(scores, y * (g - (g * y).sum(axis=0, keepdims=True)))

    _register(out, backward)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.array([[a.data.sum()]], dtype=a.data.dtype),
                 requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, g[0, 0]))

    _register(out, backward)
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T.copy(), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    _register(out, backward)
    return out


def vstack(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DegenerateInputError("vstack of no tensors")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"vstack column mismatch: {p.shape} vs ({parts[0].rows}, {cols})")
    out = Tensor(np.vstack([p.data for p in parts]),
                 requires_grad=any(p.requires_grad for p in parts))
    offsets = np.cumsum([0] + [p.rows for p in parts])

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[lo:hi, :])

    _register(out, backward)
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start`` .. ``stop - 1`` as a tensor; gradient lands in those rows."""
    if not 0 <= start < stop <= a.rows:
        raise ShapeError(f"rows {start}:{stop} out of range for shape {a.shape}")
    out = Tensor(a.data[start:stop, :].copy(), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[start:stop, :] = g
        _accumulate(a, full)

    _register(out, backward)
    return out


def take_rows(a: Tensor, index: Sequence[int]) -> Tensor:
    """Rows ``index`` of ``a`` in that order, repeats allowed (a gather).

    Gradient of every picked row is summed back into its source row.
    """
    idx = np.asarray(index, dtype=np.intp).reshape(-1)
    if idx.size == 0 or idx.min() < 0 or idx.max() >= a.rows:
        raise ShapeError(f"row index out of range for shape {a.shape}")
    out = Tensor(a.data[idx], requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    _register(out, backward)
    return out


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    """Same entries in row-major order, read as a rows x cols matrix."""
    if rows * cols != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    out = Tensor(a.data.reshape(rows, cols), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    _register(out, backward)
    return out


# Steps whose gate gradients are gathered before they enter the weight
# gradient as one product; bounds that buffer at (4H, 16 B).
_BPTT_BLOCK = 16


def lstm(x: np.ndarray, lengths: np.ndarray, w: Tensor, b: Tensor,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over a padded batch, recorded as a single op.

    ``x`` is (T, B, d): item b holds ``lengths[b]`` real steps, then
    padding.  ``w`` is the fused (4H, d+H) gate matrix acting on
    [x_t; h_prev], its row blocks input, forget, output, cell, and ``b``
    the (4H, 1) bias.  Each step is one (4H, d+H) @ (d+H, B) product for
    the whole batch.  The forward direction runs t = 0..T-1 with h_prev =
    h_{t-1}; ``reverse`` runs t = T-1..0 with h_prev = h_{t+1}.  Cell
    states of padding steps are held at zero, so their hidden states are
    zero and every item starts from zero states in either direction.
    Returns the (H, T*B) step-major states.

    The op keeps ``x`` itself (not a copy) plus the hidden and cell state
    of every step; the hand-written backward (BPTT) recomputes the gates
    from them.
    """
    steps, batch, dim = x.shape
    size = w.rows // 4
    if w.cols != dim + size or b.shape != (4 * size, 1):
        raise ShapeError(f"gate weights {w.shape} and bias {b.shape} do not fit "
                         f"{dim}-dimensional inputs")
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > steps:
        raise ShapeError(f"lengths {lengths} do not fit {steps} padded steps")
    dtype = w.data.dtype
    live = (np.arange(steps)[:, None] < lengths).astype(dtype)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    # Column block s + shift of ``hs`` holds h_prev of step s, and h_s
    # lands in block s + 1 - shift; the extra block is the zero start.
    shift = 1 if reverse else 0

    def cols(block: int) -> slice:
        return slice(block * batch, (block + 1) * batch)

    def gates(s: int, xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sigmoid input, forget, output rows and tanh candidate of step s."""
        xh[:dim] = x[s].T
        xh[dim:] = hs[:, cols(s + shift)]
        z = w.data @ xh
        z += b.data
        return _stable_sigmoid(z[:3 * size]), np.tanh(z[3 * size:])

    hs = np.zeros((size, (steps + 1) * batch), dtype=dtype)
    cells = np.empty((size, steps * batch), dtype=dtype)
    xh = np.empty((dim + size, batch), dtype=dtype)
    c = np.zeros((size, batch), dtype=dtype)
    for s in order:
        ifo, cand = gates(s, xh)
        c = (ifo[size:2 * size] * c + ifo[:size] * cand) * live[s]
        cells[:, cols(s)] = c
        hs[:, cols(s + 1 - shift)] = ifo[2 * size:] * np.tanh(c)
    out = Tensor(hs[:, (1 - shift) * batch:(1 - shift + steps) * batch],
                 requires_grad=w.requires_grad or b.requires_grad)

    def backward(g: np.ndarray) -> None:
        w_h = w.data[:, dim:].T
        gw = np.zeros_like(w.data)
        gb = np.zeros_like(b.data)
        dz = np.empty((4 * size, _BPTT_BLOCK * batch), dtype=dtype)
        dh = np.zeros((size, batch), dtype=dtype)
        dc = np.zeros((size, batch), dtype=dtype)
        for s in reversed(order):
            ifo, cand = gates(s, xh)
            i, f, o = ifo[:size], ifo[size:2 * size], ifo[2 * size:]
            tc = np.tanh(cells[:, cols(s)])
            t = s + 1 if reverse else s - 1
            c_prev = cells[:, cols(t)] if 0 <= t < steps else 0.0
            dh = dh + g[:, cols(s)]
            dc = (dc + dh * o * (1.0 - tc * tc)) * live[s]
            step = dz[:, cols(s % _BPTT_BLOCK)]
            step[:size] = dc * cand * i * (1.0 - i)
            step[size:2 * size] = dc * c_prev * f * (1.0 - f)
            step[2 * size:3 * size] = dh * tc * o * (1.0 - o)
            step[3 * size:] = dc * i * (1.0 - cand * cand)
            dc = dc * f
            dh = w_h @ step
            # Steps first..last share dz in step order; fold them into the
            # weight gradient once this pass has filled them all.
            first = s - s % _BPTT_BLOCK
            last = min(first + _BPTT_BLOCK, steps) - 1
            if s == (last if reverse else first):
                block = dz[:, :(last - first + 1) * batch]
                gw[:, :dim] += block @ x[first:last + 1].reshape(-1, dim)
                gw[:, dim:] += block @ hs[:, (first + shift) * batch:
                                         (last + 1 + shift) * batch].T
                gb += block.sum(axis=1, keepdims=True)
        if w.requires_grad:
            w.grad = gw if w.grad is None else np.add(gw, w.grad, out=gw)
        _accumulate(b, gb)

    _register(out, backward)
    return out


def step_weighted_sum(values: Tensor, weights: Tensor) -> Tensor:
    """Per item, the weighted sum of its steps: (n, T*B) and (T, B) to (n, B).

    ``values`` is step-major (column t*B + b is step t of item b) and
    ``weights[t, b]`` weighs that column.
    """
    steps, batch = weights.shape
    if values.cols != steps * batch:
        raise ShapeError(f"{values.cols} step columns but weights for "
                         f"{steps} x {batch} steps")
    v = values.data.reshape(values.rows, steps, batch)
    out = Tensor(np.einsum("ntb,tb->nb", v, weights.data),
                 requires_grad=values.requires_grad or weights.requires_grad)

    def backward(g: np.ndarray) -> None:
        if values.requires_grad:
            _accumulate(values, (g[:, None, :] * weights.data).reshape(values.shape))
        if weights.requires_grad:
            _accumulate(weights, np.einsum("ntb,nb->tb", v, g))

    _register(out, backward)
    return out


# --- initialization --------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Uniform fan-balanced initialization used for every trained matrix."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
