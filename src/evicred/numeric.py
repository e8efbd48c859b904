"""Dense 2-D tensors with tape-based reverse-mode differentiation.

Everything the credibility model trains is a small dense matrix, so the
substrate stays deliberately simple: a Tensor wraps a numpy array (float64
by default, float32 for reduced-precision runs) and a Tape records every
primitive applied while it is active, to be replayed in reverse when
gradients are needed.  Vectors are column matrices of shape (n, 1) and
scalars are (1, 1); keeping a single layout avoids a family of transpose
bugs in the recurrent code.
"""
from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "constant",
    "parameter",
    "matmul",
    "add",
    "mul",
    "mul_const",
    "affine",
    "tanh",
    "sigmoid",
    "relu",
    "exp",
    "log",
    "clip",
    "softmax",
    "sum_all",
    "transpose",
    "vstack",
    "hstack",
    "slice_rows",
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


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def parameter(data, name: str | None = None, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


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


def affine(a: Tensor, mul_by: float, add_to: float = 0.0) -> Tensor:
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
    # Split on sign so exp() never sees a large positive argument.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data), requires_grad=a.requires_grad)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * out.data)

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
    """Masked softmax over a column vector.

    Masked positions come out exactly zero and receive no gradient; the
    unmasked entries are shifted by their max before exponentiation so the
    result is finite for any finite scores.
    """
    x = scores.data
    if x.shape[1] != 1:
        raise ShapeError(f"softmax expects a column vector, got {x.shape}")
    if mask is None:
        keep = np.ones(x.shape[0], dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool).reshape(-1)
        if keep.shape[0] != x.shape[0]:
            raise ShapeError(
                f"mask length {keep.shape[0]} does not match {x.shape[0]} scores")
    if not keep.any():
        raise DegenerateInputError("softmax: every position is masked")

    sel = x[keep, 0]
    e = np.exp(sel - sel.max())
    y = np.zeros_like(x)
    y[keep, 0] = e / e.sum()
    out = Tensor(y, requires_grad=scores.requires_grad)

    def backward(g: np.ndarray) -> None:
        yy = out.data[keep, 0]
        gg = g[keep, 0]
        inner = float(np.dot(gg, yy))
        gx = np.zeros_like(x)
        gx[keep, 0] = yy * (gg - inner)
        _accumulate(scores, gx)

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


def hstack(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise DegenerateInputError("hstack of no tensors")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError(f"hstack row mismatch: {p.shape} vs ({rows}, {parts[0].cols})")
    out = Tensor(np.hstack([p.data for p in parts]),
                 requires_grad=any(p.requires_grad for p in parts))
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[:, lo:hi])

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


# --- initialization --------------------------------------------------------

def glorot_uniform(rows: int, cols: int, rng: np.random.Generator,
                   dtype=np.float64) -> np.ndarray:
    """Uniform fan-balanced initialization used for every trained matrix."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
