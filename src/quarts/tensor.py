"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays, float32 by default for training speed. Gradient
checking runs the engine in float64 (``with using_dtype(np.float64)``).
A ``Tape`` is opened on the parameters a step differentiates, its
leaves. A tensor is tracked while it is registered on the current tape,
as a leaf or as an output of a recorded op; an op with a tracked input
records its backward rule there, and any other op is a plain forward
computation, which is how evaluation runs.

Every op goes through ``record``: it wraps the forward result and, when
an input is tracked, appends one record holding the backward rule. A
rule computes what only the backward pass needs, such as a local
derivative, when it runs, so an op that is not recorded does no backward
work. Fused ops (the LSTM scan, word-by-word attention) run a whole
recurrence in plain numpy and record it once; a record may have several
outputs, whose rule then receives one gradient per output (None for an
output nothing differentiated). Fused ops ask ``needs_grad`` first and
keep no backward cache when nothing will be recorded, which is the
no-grad path of evaluation and beam search.

The engine keeps only the forms the model runs:

- ``matmul`` multiplies 2-D operands, or stacks with equal leading axes;
- elementwise ops (``add``, ``sub``, ``mul``) take equal shapes, a
  scalar, or a trailing row vector (n,) against a stack whose last axis
  is n.

Any other pair of operands raises ``ShapeError`` naming both shapes.
``Tensor`` defines only ``+`` and ``*``; the rest of the arithmetic is
spelled as functions (``sub``, ``scale``; negation is ``scale(x, -1.0)``).
``lookup``'s backward assigns the gathered rows' gradients when no id
repeats and scatter-adds them otherwise.

``Tape.backward`` returns the gradients as a map from each leaf the loss
reached to its gradient; no tensor stores one. The sweep pops each record
before running its rule, so the arrays an op saved for its backward pass
are freed as soon as that rule has returned, not when the tape closes.
Tensors are immutable values once created (the optimizer mutates leaf
parameter storage between tapes, never inside one). A Tape is
single-owner and must not be shared across threads.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class VocabularyError(ValueError):
    """Raised when a token id falls outside its embedding table."""


_DEFAULT_DTYPE = np.float32


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def using_dtype(dtype):
    """Switch the engine storage dtype (np.float32 or np.float64) for the
    block, restoring the previous one on exit."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    prev, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dtype
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


class Tensor:
    """A dense array value in the engine dtype, tracked while it is
    registered on the current tape. Hashed by identity, so it keys the
    gradient map ``Tape.backward`` returns."""

    __slots__ = ("data", "node_id", "_tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.node_id: int | None = None
        self._tape: "Tape | None" = None

    @staticmethod
    def _wrap(arr: np.ndarray) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = arr
        t.node_id = None
        t._tape = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # the operators model code writes; scalars become untracked tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)


class Tape:
    """Ordered record of operations supporting one reverse sweep.

    ``Tape(params)`` registers ``params``, the tensors a step
    differentiates, as its only leaves. Records are appended in creation
    order, which is a topological order by construction. ``backward``
    pops them once in reverse, so each record, with the activations its
    rule holds, dies as soon as that rule has run; a swept tape is empty.
    Leaving the ``with`` block drops any records left (a tape never swept)
    and detaches the leaves, so the step's cached activations are freed
    there at the latest, even while its loss lives on. A record's output
    is one node id, or a tuple of ids for a multi-output op.
    """

    _stack: list["Tape"] = []

    def __init__(self, params: Iterable[Tensor]):
        self._records: list[tuple[int | tuple, tuple, Callable]] = []
        self._next_id = 0
        self._leaves: dict[int, Tensor] = {self._register(p): p for p in params}

    @staticmethod
    def current() -> "Tape | None":
        return Tape._stack[-1] if Tape._stack else None

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._stack.pop()
        for t in self._leaves.values():
            if t._tape is self:
                t._tape = None
                t.node_id = None
        self._records.clear()
        self._leaves.clear()
        return False

    def __len__(self):
        return len(self._records)

    def _register(self, t: Tensor) -> int:
        t.node_id, t._tape = self._next_id, self
        self._next_id += 1
        return t.node_id

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """d(loss)/d(leaf) for every leaf the loss reached, by leaf.

        A leaf the loss does not depend on is absent from the map.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not self._records:
            raise ValueError("backward on an empty tape")
        if loss._tape is not self or loss.node_id is None:
            raise ValueError("loss was not recorded on this tape")

        grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
        while self._records:
            out_id, in_ids, rule = self._records.pop()
            if type(out_id) is tuple:
                g = tuple(grads.pop(o, None) for o in out_id)
                if all(x is None for x in g):
                    continue
            else:
                g = grads.pop(out_id, None)
                if g is None:
                    continue
            g_in = rule(g)
            del rule, g   # the op's saved arrays go before the gradients are summed
            for iid, gin in zip(in_ids, g_in):
                if iid is None or gin is None:
                    continue
                acc = grads.get(iid)
                grads[iid] = gin if acc is None else acc + gin
        return {leaf: grads[nid] for nid, leaf in self._leaves.items() if nid in grads}


def _tracked(t: Tensor | None, tape: Tape) -> bool:
    return t is not None and t._tape is tape


def needs_grad(*inputs: Tensor | None) -> bool:
    """Whether an op on ``inputs`` would be recorded: whether one of them
    is registered on the current tape (None inputs ignored).

    Fused ops check this before their forward pass, so that without a
    tape they keep nothing for a backward pass that will not run.
    """
    tape = Tape.current()
    return tape is not None and any(_tracked(t, tape) for t in inputs)


def record(out_data, inputs: Sequence[Tensor | None], rule: Callable):
    """Wrap a forward result, recording the backward rule if needed.

    ``rule(g)`` returns one gradient (or None) per entry of ``inputs``;
    None inputs are untracked, and ``rule`` may be None when
    ``needs_grad(*inputs)`` is false. ``out_data`` may be a tuple of
    arrays: the op then returns a tuple of tensors and ``rule`` receives a
    tuple of gradients, None where an output received none.
    """
    multi = isinstance(out_data, tuple)
    out = tuple(map(Tensor._wrap, out_data)) if multi else Tensor._wrap(out_data)
    tape = Tape.current()
    if tape is not None and any(_tracked(t, tape) for t in inputs):
        in_ids = tuple(t.node_id if _tracked(t, tape) else None for t in inputs)
        out_id = tuple(map(tape._register, out)) if multi else tape._register(out)
        tape._records.append((out_id, in_ids, rule))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the leading axes a scalar or row operand was
    broadcast along (``_operands`` admits no other broadcast)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of an elementwise op as tensors, which must have equal
    shapes, or be a scalar, or a trailing row vector (n,) against a stack
    whose last axis is n."""
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    row = sa[-1:] == sb[-1:] and min(len(sa), len(sb)) == 1
    if not (sa == sb or () in (sa, sb) or row):
        raise ShapeError(f"elementwise shapes {sa} and {sb}: only equal shapes, a scalar "
                         "or a trailing row vector broadcast")
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    sa, sb = a.shape, b.shape
    return record(a.data + b.data, (a, b),
                  lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    sa, sb = a.shape, b.shape
    return record(a.data - b.data, (a, b),
                  lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    da, db, sa, sb = a.data, b.data, a.shape, b.shape
    return record(da * db, (a, b),
                  lambda g: (_unbroadcast(g * db, sa), _unbroadcast(g * da, sb)))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return record(a.data * np.asarray(c, dtype=a.data.dtype), (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product of 2-D operands, or of stacks whose leading axes are
    equal: (..., n, p) x (..., p, q)."""
    a, b = _as_tensor(a), _as_tensor(b)
    da, db = a.data, b.data
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] \
            or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul takes 2-D operands or equal stacks with agreeing "
                         f"inner dimensions, got {a.shape} x {b.shape}")
    return record(np.matmul(da, db), (a, b),
                  lambda g: (np.matmul(g, np.swapaxes(db, -1, -2)),
                             np.matmul(np.swapaxes(da, -1, -2), g)))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return record(y, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # 0.5 * (1 + tanh(x / 2)) is the logistic function, stable in both tails
    y = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return record(y, (a,), lambda g: (g * (y * (1.0 - y)),))


def absval(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    # sign(0) = 0, the subgradient convention
    return record(np.abs(x), (a,), lambda g: (g * np.sign(x),))


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return record(np.log(x), (a,), lambda g: (g * (1.0 / x),))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)
    return record(y, (a,), lambda g: (g * y,))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return record(np.clip(x, lo, hi), (a,),
                  lambda g: (g * ((x > lo) & (x < hi)).astype(x.dtype),))


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Zero entries with probability p, scaling survivors by 1/(1-p).

    Identity (same object, no rng draw) at p=0, so that disabling dropout
    cannot shift other random streams. In eval mode the caller skips it
    (``classifier.head_logit``).
    """
    a = _as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p).astype(a.data.dtype)
    m = keep / np.asarray(1.0 - p, dtype=a.data.dtype)
    return record(a.data * m, (a,), lambda g: (g * m,))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of a plain array, in its own dtype;
    the forward of ``log_softmax_rows``."""
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def log_softmax_rows(a) -> Tensor:
    a = _as_tensor(a)
    out = log_softmax(a.data)
    return record(out, (a,),
                  lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),))


def concat(tensors: Sequence, axis: int) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of zero tensors")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat axis={axis} shapes disagree: {[t.shape for t in ts]}") from None
    sizes = [t.shape[axis] for t in ts]
    return record(out, ts,
                  lambda g: tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis)))


def pick_columns(a, cols: np.ndarray) -> Tensor:
    """Select one column per row of a 2-D tensor: out[i] = a[i, cols[i]]."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"pick_columns expects 2-D input, got {a.shape}")
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(a.shape[0])
    shape = a.shape

    def rule(g):
        z = np.zeros(shape, dtype=g.dtype)
        z[rows, cols] = g
        return (z,)

    return record(a.data[rows, cols], (a,), rule)


def lookup(table, ids: np.ndarray) -> Tensor:
    """Row gather (embedding retrieval). The backward assigns the rows'
    gradients when no id repeats, and scatter-adds them otherwise; both
    give the same bits on unique ids."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise VocabularyError(
            f"id out of range for table of {table.shape[0]} rows: "
            f"[{ids.min()}, {ids.max()}]")
    shape = table.shape

    def rule(g):
        s = np.sort(ids, axis=None)
        repeats = (s[1:] == s[:-1]).any()
        # freed before the table-sized gradient is allocated: left live, it
        # doubled the page faults of an e2e phase at k=300
        del s
        z = np.zeros(shape, dtype=g.dtype)
        if repeats:
            np.add.at(z, ids, g)
        else:
            z[ids] = g
        return (z,)

    return record(table.data[ids], (table,), rule)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.size
    shape = a.shape

    def rule(g):
        return (np.full(shape, float(g) / n, dtype=g.dtype),)

    return record(np.asarray(a.data.mean(), dtype=a.data.dtype), (a,), rule)


def sum_axis(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    if axis is None:
        out = np.asarray(a.data.sum(), dtype=a.data.dtype)

        def rule(g):
            return (np.full(shape, float(g), dtype=g.dtype),)
    else:
        out = a.data.sum(axis=axis)

        def rule(g):
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return record(out, (a,), rule)


def transpose_last2(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose needs >= 2 dims, got {a.shape}")
    return record(np.swapaxes(a.data, -1, -2), (a,),
                  lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    orig = a.shape
    return record(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))
