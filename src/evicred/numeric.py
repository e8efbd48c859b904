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
step t of item b; ``bilstm`` produces that layout and ``step_weighted_sum``
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
    "bilstm",
    "step_weighted_sum",
    "zero_grads",
    "glorot_uniform",
]

_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Padded tokens per input-projection product in ``bilstm``: 32 steps of a
# batch of 8.  An untaped pass keeps only one block of gates, 1 MB at H=64
# in float64 (more only for batches over 256 items, at one step a block).
_BLOCK_TOKENS = 256


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
        self._replayed = False

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
        which readers must treat as zero.  A tape is replayed once: ops may
        reuse what they kept for it (``bilstm`` overwrites its gates).
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
        if id(loss) not in self._produced:
            raise ContractError("loss was not produced while this tape was active")
        if self._replayed:
            raise ContractError("a tape can be replayed only once")
        self._replayed = True
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


def bilstm(x: np.ndarray, lengths: np.ndarray, w_fw: Tensor, b_fw: Tensor,
           w_bw: Tensor, b_bw: Tensor) -> Tensor:
    """Both LSTM directions over a padded batch, recorded as a single op.

    ``x`` is (T, B, d): item b holds ``lengths[b]`` real steps, then
    padding.  Each direction has a fused (4H, d+H) gate matrix on
    [x_t; h_prev], row blocks input, forget, output, cell, and a (4H, 1)
    bias.  The backward direction reads each item reversed within its own
    length, so both run t = 0..T-1 from zero states.  Items step longest
    first, so step t runs only the items still live there and padding costs
    no step-loop work; its states are exactly zero.  The input half of the
    gates is one product per block of steps (``_BLOCK_TOKENS`` padded
    tokens, at least one step), made when the step loop reaches the block;
    the step loop adds only the recurrent product of the live items.  The
    sigmoid gates are 1 / (1 + exp(-a)): their weight and bias rows are
    negated, exactly, so the product is -a and three in-place calls finish
    the gate.  Returns the (2H, T*B) step-major states, forward half over
    backward half: column t*B + b has read steps 0..t of item b forward and
    t..k-1 backward.  Under an active tape the blocks fill one (2, T*B, 4H)
    buffer that keeps every step's gates and cell states for the
    hand-written backward (BPTT), which overwrites the gates with their
    gradients, so the tape can be replayed only once.  Without a tape every
    block reuses one block-sized buffer, so the op holds only its inputs,
    hidden states and outputs.
    """
    steps, batch, dim = x.shape
    size = w_fw.rows // 4
    params = (w_fw, b_fw, w_bw, b_bw)
    shapes = [(4 * size, dim + size), (4 * size, 1)] * 2
    if any(p.shape != shape for p, shape in zip(params, shapes)):
        raise ShapeError(f"gate weights and biases do not fit {dim}-dimensional inputs")
    lengths = np.asarray(lengths)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > steps:
        raise ShapeError(f"lengths {lengths} do not fit {steps} padded steps")
    requires_grad = any(p.requires_grad for p in params)
    taped = requires_grad and active_tape() is not None
    dtype = w_fw.data.dtype
    # Slot j holds item order[j], longest first, so the items live at step
    # t are slots 0..live[t]-1 and a step's work is a prefix of its slab.
    order = np.argsort(-lengths, kind="stable")
    t_col = np.arange(steps)[:, None]
    live = (t_col < lengths).sum(axis=1)
    # rows[:, t*B + j] is the row of x, and the output column, of slot j at
    # step t in each direction: the backward direction's step t of an item
    # of length k is its step k-1-t.  Dead slots point at their padding.
    k = lengths[order]
    step_read = np.where(t_col < k, k - 1 - t_col, t_col)
    rows = np.stack([t_col.repeat(batch, axis=1), step_read]) * batch + order
    rows = rows.reshape(2, -1)

    def inputs(span: slice = slice(None)) -> np.ndarray:
        # (2, n, d): the rows of x each direction reads at the steps of
        # ``span``, in order.  Only the products need it, so it is gathered
        # for each, not kept.
        return x.reshape(-1, dim)[rows[:, span]].astype(dtype, copy=False)

    sig = 3 * size
    w = np.stack([w_fw.data, w_bw.data])
    w[:, :sig] *= -1
    w_x_t = w[:, :, :dim].transpose(0, 2, 1)
    w_h_t = np.ascontiguousarray(w[:, :, dim:].transpose(0, 2, 1))
    bias = np.stack([b_fw.data, b_bw.data]).transpose(0, 2, 1)
    bias[:, :, :sig] *= -1
    block = min(steps, max(1, _BLOCK_TOKENS // batch))
    # z[:, t*B + j] holds the (2, 4H) gates of slot j at step t in both
    # directions, so each step's gates are one contiguous (2, B, 4H) slab.
    # Untaped, z holds one block and step t sits at its place in the block.
    z = np.empty((2, (steps if taped else block) * batch, 4 * size), dtype=dtype)
    # hs[:, t] is the (2, B, H) hidden state step t reads; hs[:, 0] is zero.
    # Taped, cells[t + 1] is the cell state of step t; untaped, cells[0] is
    # overwritten by each step.
    hs = np.zeros((2, steps + 1, batch, size), dtype=dtype)
    cells = np.zeros((steps + 1 if taped else 1, 2, batch, size), dtype=dtype)
    with np.errstate(over="ignore"):  # exp(-a) = inf makes a gate of exactly 0
        for t in range(steps):
            if t % block == 0:
                span = slice(t * batch, min(t + block, steps) * batch)
                gates = z[:, span] if taped else z[:, :span.stop - span.start]
                np.matmul(inputs(span), w_x_t, out=gates)
                gates += bias
            n = live[t]
            at = t % block * batch
            slab = gates[:, at:at + n]
            slab += hs[:, t, :n] @ w_h_t
            s = slab[:, :, :sig]
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(slab[:, :, sig:], out=slab[:, :, sig:])
            i, f = slab[:, :, :size], slab[:, :, size:2 * size]
            o, cand = slab[:, :, 2 * size:sig], slab[:, :, sig:]
            c = cells[t + 1 if taped else 0, :, :n]
            np.multiply(f, cells[t if taped else 0, :, :n], out=c)
            c += i * cand
            h = hs[:, t + 1, :n]
            np.tanh(c, out=h)
            h *= o
    # States go back into step order item by item, so no second copy of a
    # half is made; padding columns stay zero.
    states = np.zeros((2 * size, steps * batch), dtype=dtype)
    halves = states.reshape(2, size, steps, batch)
    for j, (b, n) in enumerate(zip(order, k)):
        halves[0, :, :n, b] = hs[0, 1:n + 1, j].T
        halves[1, :, :n, b] = hs[1, n:0:-1, j].T
    out = Tensor(states, requires_grad=requires_grad)

    def backward(g: np.ndarray) -> None:
        # ``rows`` also picks each slot's output gradient, in the order its
        # steps ran.  Slots past live[t] keep zero dh and dc: a slot dead at
        # step t is dead at every later step, so no gradient reaches it.
        g_rows = g.reshape(2, size, -1).transpose(0, 2, 1)
        both = np.arange(2)[:, None]
        # The recurrent weights as given, not negated: the forward pass
        # keeps no copy of them.
        w_h = np.stack([w_fw.data[:, dim:], w_bw.data[:, dim:]])
        dh = np.zeros((2, batch, size), dtype=dtype)
        dc = np.zeros((2, batch, size), dtype=dtype)
        d_sig = np.empty((2, batch, sig), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            n = live[t]
            at = t * batch
            z[:, at + n:at + batch] = 0.0
            slab = z[:, at:at + n]
            s = slab[:, :, :sig]
            i, f = slab[:, :, :size], slab[:, :, size:2 * size]
            o, cand = slab[:, :, 2 * size:sig], slab[:, :, sig:]
            tc = np.tanh(cells[t + 1, :, :n])
            h_grad, c_grad, d = dh[:, :n], dc[:, :n], d_sig[:, :n]
            h_grad += g_rows[both, rows[:, at:at + n]]
            c_grad += h_grad * o * (1.0 - tc * tc)
            np.multiply(c_grad, cand, out=d[:, :, :size])
            np.multiply(c_grad, cells[t, :, :n], out=d[:, :, size:2 * size])
            np.multiply(h_grad, tc, out=d[:, :, 2 * size:])
            d *= s
            cand[:] = c_grad * i * (1.0 - cand * cand)
            c_grad *= f
            np.subtract(1.0, s, out=s)
            np.multiply(d, s, out=s)
            np.matmul(slab, w_h, out=h_grad)
        # z now holds every step's gate gradients: one product per weight
        # block (input, recurrent) and a column sum for the bias.  They are
        # gradients of a, so the negated sigmoid rows need no correction.
        z_t = z.transpose(0, 2, 1)
        gw = np.concatenate(
            [z_t @ inputs(), z_t @ hs[:, :steps].reshape(2, -1, size)], axis=2)
        gb = z.sum(axis=1)[:, :, None]
        for p, grad in zip(params, (gw[0], gb[0], gw[1], gb[1])):
            if p.requires_grad:
                p.grad = grad if p.grad is None else np.add(grad, p.grad, out=grad)

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
