"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything the credibility model trains is a small dense matrix, so the
substrate stays deliberately simple: a Tensor wraps a 2-D float32 or
float64 array, and nothing else, and a Tape records every primitive
applied while it is active, to be replayed in reverse when gradients are
needed.  Vectors are column matrices of shape (n, 1) and scalars are
(1, 1); keeping a single layout avoids a family of transpose bugs in the
recurrent code.

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
    "take_rows",
    "reshape",
    "bilstm",
    "step_weighted_sum",
    "zero_grads",
    "glorot_uniform",
]

_FLOAT_TYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Padded tokens per input-projection product in ``bilstm``: 32 steps of a
# batch of 8.  An untaped pass keeps only one block of input products, 1 MB
# at H=64 in float64 (more only for batches over 256 items, at one step a
# block).
_BLOCK_TOKENS = 256


class Tensor:
    """A rows x cols matrix of reals, optionally tracked for gradients.

    ``data`` is mutated in place only by the optimizer; every operation in
    this module allocates a fresh output.  ``grad`` accumulates across
    backward passes until the caller clears it.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        try:
            data = np.asarray(data)
        except ValueError as e:  # a ragged nested sequence
            raise ShapeError(f"a tensor is 2-D, got a ragged sequence ({e})") from None
        if data.dtype not in _FLOAT_TYPES:
            raise ContractError(f"a tensor holds float32 or float64, got {data.dtype}")
        if data.ndim != 2:
            raise ShapeError(f"a tensor is 2-D, got shape {data.shape}")
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

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


# --- tape ------------------------------------------------------------------

_STATE = threading.local()


def active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


class Tape:
    """Ordered record of one differentiable computation.

    Use as a context manager; operations executed inside the block are
    recorded whenever their output depends on a gradient-tracked tensor.
    A tape belongs to the thread that opened it, and a thread holds one
    open tape at a time.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise ContractError("another tape is already open in this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None

    def __len__(self) -> int:
        return len(self._ops)

    def _record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into ``grad`` of every recorded input.

        ``loss`` must be a scalar produced while this tape was active.
        Tensors that do not influence the loss keep a ``grad`` of None,
        which readers must treat as zero.  A tape is replayed once: ops may
        reuse what they kept for it (``bilstm`` overwrites its gates).
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be a scalar, got shape {loss.data.shape}")
        if not any(out is loss for out, _ in reversed(self._ops)):
            raise ContractError("loss was not produced while this tape was active")
        if self._replayed:
            raise ContractError("a tape can be replayed only once")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        for out, backward in reversed(self._ops):
            if out.grad is not None:
                backward(out.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _op(value: np.ndarray,
        *inputs: tuple[Tensor, Callable[[np.ndarray, np.ndarray], np.ndarray]]) -> Tensor:
    """The output of a primitive: ``value``, and per input its gradient rule.

    Each rule maps the output's gradient ``g`` and value ``y`` to its
    input's gradient.  The output tracks gradients if any input does, and
    only then is it recorded on the open tape; backward runs the rules of
    the inputs that track gradients, in order.
    """
    out = Tensor(value, requires_grad=any(t.requires_grad for t, _ in inputs))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        def backward(g: np.ndarray) -> None:
            for t, grad in inputs:
                if t.requires_grad:
                    _accumulate(t, grad(g, out.data))

        tape._record(out, backward)
    return out


# --- primitives ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"cannot matrix-multiply {a.shape} by {b.shape}")
    return _op(a.data @ b.data,
               (a, lambda g, y: g @ b.data.T),
               (b, lambda g, y: a.data.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be a scalar, column, or row to broadcast."""
    sa, sb = a.shape, b.shape
    if sb != sa:
        scalar = sb == (1, 1)
        column = sb == (sa[0], 1)
        row_vec = sb == (1, sa[1])
        if not (scalar or column or row_vec):
            raise ShapeError(f"cannot add {sa} and {sb}")

    def grad_b(g: np.ndarray, y: np.ndarray) -> np.ndarray:
        if sb == sa:
            return g
        if sb == (1, 1):
            return g.sum().reshape(1, 1)
        if sb == (sa[0], 1):
            return g.sum(axis=1, keepdims=True)
        return g.sum(axis=0, keepdims=True)

    return _op(a.data + b.data, (a, lambda g, y: g), (b, grad_b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply elementwise {a.shape} and {b.shape}")
    return _op(a.data * b.data,
               (a, lambda g, y: g * b.data),
               (b, lambda g, y: g * a.data))


def affine(a: Tensor, mul_by, add_to=0.0) -> Tensor:
    """``a * mul_by + add_to``; either may be an array that broadcasts to ``a``."""
    return _op(a.data * mul_by + add_to, (a, lambda g, y: g * mul_by))


def tanh(a: Tensor) -> Tensor:
    return _op(np.tanh(a.data), (a, lambda g, y: g * (1.0 - y * y)))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp() only ever sees -|x|: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x)
    # below, without the cost of splitting the array on sign.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def sigmoid(a: Tensor) -> Tensor:
    return _op(_stable_sigmoid(a.data), (a, lambda g, y: g * y * (1.0 - y)))


def relu(a: Tensor) -> Tensor:
    # Subgradient at exactly zero is taken as zero.
    return _op(np.maximum(a.data, 0.0), (a, lambda g, y: g * (a.data > 0.0)))


def log(a: Tensor) -> Tensor:
    """Natural log; callers are responsible for keeping inputs positive."""
    return _op(np.log(a.data), (a, lambda g, y: g / a.data))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through unclamped entries."""
    return _op(np.clip(a.data, lo, hi),
               (a, lambda g, y: g * ((a.data >= lo) & (a.data <= hi))))


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
    # Masked entries have y == 0, so they get exactly zero gradient.
    return _op(e / e.sum(axis=0, keepdims=True),
               (scores, lambda g, y: y * (g - (g * y).sum(axis=0, keepdims=True))))


def sum_all(a: Tensor) -> Tensor:
    return _op(np.array([[a.data.sum()]], dtype=a.data.dtype),
               (a, lambda g, y: np.full_like(a.data, g[0, 0])))


def transpose(a: Tensor) -> Tensor:
    return _op(a.data.T.copy(), (a, lambda g, y: g.T))


def vstack(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DegenerateInputError("vstack of no tensors")
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"vstack column mismatch: {p.shape} vs ({parts[0].rows}, {cols})")
    offsets = np.cumsum([0] + [p.rows for p in parts])
    return _op(np.vstack([p.data for p in parts]),
               *[(p, lambda g, y, lo=lo, hi=hi: g[lo:hi, :])
                 for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])])


def take_rows(a: Tensor, index: Sequence[int]) -> Tensor:
    """Rows ``index`` of ``a`` in that order, repeats allowed (a gather).

    Gradient of every picked row is summed back into its source row.
    """
    idx = np.asarray(index).reshape(-1)
    # An empty index reads as floats; it is refused as out of range below.
    if idx.size and idx.dtype.kind not in "iu":
        raise ContractError(f"row indices must be integers, got {idx.dtype}")
    if idx.size == 0 or idx.min() < 0 or idx.max() >= a.rows:
        raise ShapeError(f"row index out of range for shape {a.shape}")

    def grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return full

    return _op(a.data[idx], (a, grad))


def reshape(a: Tensor, rows: int, cols: int) -> Tensor:
    """Same entries in row-major order, read as a rows x cols matrix."""
    if rows * cols != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to ({rows}, {cols})")
    return _op(a.data.reshape(rows, cols), (a, lambda g, y: g.reshape(a.shape)))


def bilstm(x: np.ndarray, lengths: np.ndarray, w_fw: Tensor, b_fw: Tensor,
           w_bw: Tensor, b_bw: Tensor) -> Tensor:
    """Both LSTM directions over a padded batch, recorded as a single op.

    ``x`` is (T, B, d): item b holds ``lengths[b]`` real steps, then
    padding.  Each direction has a fused (4H, d+H) gate matrix on
    [x_t; h_prev], row blocks input, forget, output, cell, and a (4H, 1)
    bias.  The backward direction reads each item reversed within its own
    length, so both run t = 0..T-1 from zero states.  Items step longest
    first, so step t runs only the n items still live there and padding
    costs no step-loop work; its states are exactly zero.  The input half
    of the gates is one product per block of steps (``_BLOCK_TOKENS``
    padded tokens, at least one step); the step loop adds the recurrent
    product.  Both keep each direction's fused 4H-wide layout, as per-gate
    products round differently; each step copies its gates, recurrent +
    (input + bias), into one gate-major (4, n, 2, H) slab and keeps its
    states slot-major, (B, 2, H), so each elementwise call acts on one
    contiguous block.  The sigmoid gates are 1 / (1 + exp(-a)): their
    weight and bias rows are negated, exactly, so the sum is -a; then
    c = f*c_prev + i*g and h = tanh(c)*o.  Returns the (2H, T*B) step-major
    states, forward half over backward half: column t*B + b has read steps
    0..t of item b forward and t..k-1 backward.  Under an active tape the
    op keeps every step's cell states and, per direction, its gates for the
    hand-written backward (BPTT), which overwrites them with gradients in
    the (B, 4H) layout of the recurrent product, so the tape can be
    replayed only once.  Untaped, one block of input products and one slab
    are reused, so the op holds only its inputs, states and outputs.

    Each length is an integer from 1 to T; other inputs are refused.
    """
    if x.ndim != 3:
        raise ShapeError(f"inputs must be (T, B, d), got shape {x.shape}")
    steps, batch, dim = x.shape
    size = w_fw.rows // 4
    params = (w_fw, b_fw, w_bw, b_bw)
    shapes = [(4 * size, dim + size), (4 * size, 1)] * 2
    if any(p.shape != shape for p, shape in zip(params, shapes)):
        raise ShapeError(f"gate weights and biases do not fit {dim}-dimensional inputs")
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu":
        raise ContractError(f"lengths must be integers, got {lengths.dtype}")
    if lengths.shape != (batch,) or lengths.max(initial=0) > steps:
        raise ShapeError(f"lengths {lengths} do not fit {steps} padded steps")
    if batch == 0 or lengths.min() < 1:
        raise DegenerateInputError("cannot encode an empty batch or item")
    requires_grad = any(p.requires_grad for p in params)
    tape = active_tape() if requires_grad else None
    taped = tape is not None
    dtype = w_fw.data.dtype
    # Slot j holds item order[j], longest first, so the items live at step
    # t are slots 0..live[t]-1 and a step's work is a prefix of its slab.
    order = np.argsort(-lengths, kind="stable")
    t_col = np.arange(steps)[:, None]
    live = (t_col < lengths).sum(axis=1).tolist()
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
    # hs[t] is the (B, 2, H) hidden state step t reads; hs[0] is zero.
    # Taped, cells[t + 1] is the cell state of step t and kept[:, t] keeps
    # step t's gates, (4, n, H) per direction; untaped, cells[0] is
    # overwritten by each step.
    hs = np.zeros((steps + 1, batch, 2, size), dtype=dtype)
    cells = np.zeros((steps + 1 if taped else 1, batch, 2, size), dtype=dtype)
    kept = np.zeros((2, steps, 4 * batch * size), dtype=dtype) if taped else None

    def run_steps() -> None:
        # proj[:, t*B + j] holds the input half of the (2, 4H) gates of slot
        # j at step t, at its place in the current block; work[:8nH] is the
        # slab of a step with n live slots.  Both go on return.
        proj = np.empty((2, block * batch, 4 * size), dtype=dtype)
        work = np.empty(8 * batch * size, dtype=dtype)
        n = 0
        for t in range(steps):
            if t % block == 0:
                span = slice(t * batch, min(t + block, steps) * batch)
                gates = proj[:, :span.stop - span.start]
                np.matmul(inputs(span), w_x_t, out=gates)
                gates += bias
            if live[t] != n:  # views of the slab, made when n changes
                n = live[t]
                # The recurrent product lands in the slab, read as
                # (2, n, 4H), before the sum overwrites it gate-major.
                recurrent = work[:8 * n * size].reshape(2, n, 4 * size)
                slab = work[:8 * n * size].reshape(4, n, 2, size)
                s = slab[:3]
                i, f, o, cand = slab
            at = t % block * batch
            fused = gates[:, at:at + n]
            np.matmul(hs[t, :n].transpose(1, 0, 2), w_h_t, out=recurrent)
            fused += recurrent
            slab[...] = fused.reshape(2, n, 4, size).transpose(2, 1, 0, 3)
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            np.tanh(cand, out=cand)
            c = cells[t + 1 if taped else 0, :n]
            np.multiply(f, cells[t if taped else 0, :n], out=c)
            c += i * cand
            h = hs[t + 1, :n]
            np.tanh(c, out=h)
            h *= o
            if taped:
                kept_t = kept[:, t, :4 * n * size].reshape(2, 4, n, size)
                kept_t[...] = slab.transpose(2, 0, 1, 3)

    with np.errstate(over="ignore"):  # exp(-a) = inf makes a gate of exactly 0
        run_steps()
    # Per direction ``rows`` is a permutation of the output columns, and a
    # dead slot's state is exactly zero: one scatter each fills every column.
    states = np.empty((2 * size, steps * batch), dtype=dtype)
    for d, half in enumerate(states.reshape(2, size, -1)):
        half[:, rows[d]] = hs[1:, :, d].reshape(-1, size).T
    out = Tensor(states, requires_grad=requires_grad)

    def run_bptt(g: np.ndarray) -> None:
        # g_steps[t*B + j] is the (2, H) output gradient of slot j at step t:
        # ``rows`` picks it, in the order the steps ran.  Slots past live[t]
        # keep zero dh and dc: a slot dead at step t is dead at every later
        # step, so no gradient reaches it.
        g_steps = g.reshape(2, size, -1).transpose(0, 2, 1)[np.arange(2), rows.T]
        # The recurrent weights as given, not negated: the forward pass
        # keeps no copy of them.
        w_h = np.stack([w_fw.data[:, dim:], w_bw.data[:, dim:]])
        dh = np.zeros((batch, 2, size), dtype=dtype)
        dc = np.zeros((batch, 2, size), dtype=dtype)
        work = np.empty(14 * batch * size, dtype=dtype)
        n = 0
        for t in range(steps - 1, -1, -1):
            if live[t] != n:
                n = live[t]
                slab = work[:8 * n * size].reshape(4, n, 2, size)
                s = slab[:3]
                i, f, o, cand = slab
                d = work[8 * n * size:14 * n * size].reshape(3, n, 2, size)
                h_grad, c_grad = dh[:n], dc[:n]
            slab[...] = kept[:, t, :4 * n * size].reshape(2, 4, n, size).transpose(1, 2, 0, 3)
            # Step t's gate gradients replace its gates in kept, as (B, 4H)
            # per direction: the layout of the recurrent product.  Rows past
            # live[t] were never written, so they are zero.
            dz = kept[:, t].reshape(2, batch, 4 * size)[:, :n]
            dz_gates = dz.reshape(2, n, 4, size).transpose(2, 1, 0, 3)
            tc = np.tanh(cells[t + 1, :n])
            h_grad += g_steps[t * batch:t * batch + n]
            c_grad += h_grad * o * (1.0 - tc * tc)
            np.multiply(c_grad, cand, out=d[0])
            np.multiply(c_grad, cells[t, :n], out=d[1])
            np.multiply(h_grad, tc, out=d[2])
            d *= s
            np.multiply(c_grad * i, 1.0 - cand * cand, out=dz_gates[3])
            c_grad *= f
            np.subtract(1.0, s, out=s)
            np.multiply(d, s, out=dz_gates[:3])
            np.matmul(dz, w_h, out=h_grad.transpose(1, 0, 2))

    def backward(g: np.ndarray) -> None:
        run_bptt(g)
        # kept now holds every step's gate gradients in the row order of
        # ``inputs()``: one product per weight block (input, recurrent) and
        # a column sum for the bias.  They are gradients of a, so the
        # negated sigmoid rows need no correction.
        dz = kept.reshape(2, steps * batch, 4 * size)
        dz_t = dz.transpose(0, 2, 1)
        # The recurrent product reads the hidden states in place, as
        # (2, T*B, H) rows 2H apart.
        gw = np.concatenate(
            [dz_t @ inputs(),
             dz_t @ hs[:steps].reshape(-1, 2, size).transpose(1, 0, 2)], axis=2)
        gb = dz.sum(axis=1)[:, :, None]
        for p, grad in zip(params, (gw[0], gb[0], gw[1], gb[1])):
            if p.requires_grad:
                _accumulate(p, grad)

    if taped:
        tape._record(out, backward)
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
    return _op(np.einsum("ntb,tb->nb", v, weights.data),
               (values, lambda g, y: (g[:, None, :] * weights.data).reshape(values.shape)),
               (weights, lambda g, y: np.einsum("ntb,nb->tb", v, g)))


# --- initialization --------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Uniform fan-balanced initialization used for every trained matrix."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
