"""Minimal reverse-mode automatic differentiation on dense 2-D tensors.

The machinery of the composed oracle in `composed_scorer`: the library
trains on plain arrays (`diverank.autodiff`), and the tests hold its
analytic backwards bit for bit to graphs recorded and replayed here.

Everything is float64 and strictly two-dimensional: vectors are 1 x n or
n x 1.  Operations executed inside an active Tape record backward
closures; `backward` replays them in exact reverse recording order, so
gradient accumulation is deterministic and bit-reproducible.  An op with a
hand-written backward is built with `record`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from diverank.data import ValidationError

_TAPE_STACK: list["Tape"] = []
_GRAD_DISABLED = 0


class Tape:
    """Ordered log of recorded operations; context manager activates it."""

    def __init__(self):
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.records)


class no_grad:
    """Context manager that suspends recording entirely."""

    def __enter__(self) -> None:
        global _GRAD_DISABLED
        _GRAD_DISABLED += 1

    def __exit__(self, *exc) -> None:
        global _GRAD_DISABLED
        _GRAD_DISABLED -= 1


class Tensor:
    """Dense 2-D float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValidationError(f"tensors are 2-D; got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValidationError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate(self, grad: np.ndarray) -> None:
        # The first gradient is copied: it may be a view of a buffer that
        # is accumulated into later.
        if self.grad is not None:
            self.grad += grad
        elif grad.shape != self.data.shape:
            raise ValidationError(f"gradient shape {grad.shape} does not match tensor {self.data.shape}")
        else:
            self.grad = np.array(grad, dtype=np.float64)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _out(arr: np.ndarray) -> Tensor:
    """An op's result: `arr` is already 2-D float64, so skip the checks."""
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = False
    out.grad = None
    out._tape = None
    return out


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Log `backward` only if an input needs a gradient, which one-input ops' closures assume."""
    if not any([t.requires_grad for t in inputs]):
        return out
    out.requires_grad = True
    if _TAPE_STACK and not _GRAD_DISABLED:
        tape = _TAPE_STACK[-1]
        out._tape = tape
        tape.records.append((out, backward))
    return out


def backward(loss: Tensor) -> None:
    """Populate gradients of every recorded tensor reachable from `loss`.

    `loss` must be 1x1 and must have been produced under an active Tape.
    Records are replayed newest-first; records whose output never received
    a gradient are skipped.
    """
    if loss.shape != (1, 1):
        raise ValidationError(f"backward needs a scalar 1x1 loss, got {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ValidationError("loss was not recorded on a tape (no grad path)")
    loss.accumulate(np.ones((1, 1)))
    for out, back in reversed(tape.records):
        if out.grad is None:
            continue
        back(out.grad)


def record(data: np.ndarray, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """An op's result: `data` is a new 2-D float64 array computed from `inputs`.

    `backward(g)` receives the result's gradient and must accumulate into
    every input that requires one.  The op is logged only if some input does.
    """
    return _record(_out(data), inputs, backward)


# ----- primitives -----


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ValidationError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = _out(a.data @ b.data)

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _record(out, (a, b), back)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    (ar, ac), (br, bc) = a.data.shape, b.data.shape
    if (ar, ac) != (br, bc) and not (ac == bc and (ar == 1 or br == 1)):
        raise ValidationError(f"{op} shape mismatch: {a.data.shape} vs {b.data.shape}")


def _reduce_to(shape: tuple[int, int], g: np.ndarray) -> np.ndarray:
    if g.shape == shape:
        return g
    return g.sum(axis=0, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; one operand may be a broadcast 1 x n row."""
    _binary_shapes(a, b, "add")
    out = _out(a.data + b.data)

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_reduce_to(a.data.shape, g))
        if b.requires_grad:
            b.accumulate(_reduce_to(b.data.shape, g))

    return _record(out, (a, b), back)


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; one operand may be a broadcast 1 x n row."""
    _binary_shapes(a, b, "mul_elementwise")
    out = _out(a.data * b.data)

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_reduce_to(a.data.shape, g * b.data))
        if b.requires_grad:
            b.accumulate(_reduce_to(b.data.shape, g * a.data))

    return _record(out, (a, b), back)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to one."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    y = ex / ex.sum(axis=1, keepdims=True)
    out = _out(y)

    def back(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=1, keepdims=True)
        a.accumulate(y * (g - inner))

    return _record(out, (a,), back)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = _out(np.where(mask, a.data, 0.0))

    def back(g: np.ndarray) -> None:
        a.accumulate(g * mask)

    return _record(out, (a,), back)


def sum_all(a: Tensor) -> Tensor:
    """Collapse everything to a 1 x 1 scalar."""
    out = _out(np.array([[a.data.sum()]]))

    def back(g: np.ndarray) -> None:
        a.accumulate(np.full_like(a.data, g[0, 0]))

    return _record(out, (a,), back)

