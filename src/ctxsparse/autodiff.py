"""Minimal reverse-mode automatic differentiation over numpy arrays.

Each Tensor records its parents and one vector-Jacobian closure per parent;
``backward()`` walks the recorded graph in reverse topological order and
accumulates adjoints. Graph construction order is deterministic, so gradient
accumulation order is fixed and runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import ContractViolation


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the gradient tape wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "_parents", "requires_grad")

    def __init__(self, data, parents=(), requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        # parents: tuple of (Tensor, vjp) where vjp maps out-grad -> parent-grad
        self._parents = tuple(parents)
        # a result needs a gradient only if some parent does, so backward
        # never runs vjps into subgraphs that end at constants alone
        if self._parents:
            requires_grad = requires_grad and any(p.requires_grad for p, _ in self._parents)
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data)

    # -- graph walk ---------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ContractViolation("backward() requires a scalar output")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.grad is None:
                continue
            for parent, vjp in node._parents:
                if not parent.requires_grad:
                    continue
                g = vjp(node.grad)
                if parent.grad is None:
                    # may alias another node's grad (e.g. pass-through ops);
                    # accumulation below is out-of-place, so that is safe
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out_data = self.data + other.data
        return Tensor(out_data, (
            (self, lambda g: _unbroadcast(g, self.data.shape)),
            (other, lambda g: _unbroadcast(g, other.data.shape)),
        ))

    __radd__ = __add__

    def __mul__(self, other):
        other = _wrap(other)
        out_data = self.data * other.data
        return Tensor(out_data, (
            (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
            (other, lambda g: _unbroadcast(g * self.data, other.data.shape)),
        ))

    __rmul__ = __mul__

    def __neg__(self):
        return Tensor(-self.data, ((self, lambda g: -g),))

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.number)):
            # a true division, as ndarray.mean does: x * (1 / n) differs
            # from x / n in the last bit unless n is a power of two
            return Tensor(self.data / other, ((self, lambda g: g / other),))
        return self * _wrap(other) ** -1.0

    def __pow__(self, exponent: float):
        out_data = self.data ** exponent
        def vjp(g, x=self.data, p=exponent):
            return g * p * x ** (p - 1.0)
        return Tensor(out_data, ((self, vjp),))

    def __matmul__(self, other):
        other = _wrap(other)
        out_data = self.data @ other.data
        def vjp_a(g, b=other.data, sh=self.data.shape):
            return _unbroadcast(g @ np.swapaxes(b, -1, -2), sh)
        def vjp_b(g, a=self.data, sh=other.data.shape):
            return _unbroadcast(np.swapaxes(a, -1, -2) @ g, sh)
        return Tensor(out_data, ((self, vjp_a), (other, vjp_b)))

    # -- elementwise --------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor(out_data, ((self, lambda g, o=out_data: g * o),))

    def log(self):
        return Tensor(np.log(self.data), ((self, lambda g, x=self.data: g / x),))

    def sigmoid(self):
        out_data = _sigmoid(self.data)
        return Tensor(out_data, ((self, lambda g, o=out_data: g * o * (1.0 - o)),))

    def abs(self):
        # subgradient at 0 is taken as 0
        return Tensor(np.abs(self.data), ((self, lambda g, x=self.data: g * np.sign(x)),))

    # -- reductions and shape ops -------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        def vjp(g, sh=self.data.shape, ax=axis, kd=keepdims):
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            return np.broadcast_to(g, sh).copy()
        return Tensor(out_data, ((self, vjp),))

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) / int(n)

    def reshape(self, *shape):
        out_data = self.data.reshape(*shape)
        return Tensor(out_data, ((self, lambda g, sh=self.data.shape: g.reshape(sh)),))

    def swapaxes(self, a: int, b: int):
        return Tensor(self.data.swapaxes(a, b), ((self, lambda g: g.swapaxes(a, b)),))

    def __getitem__(self, idx):
        """numpy indexing. A basic index (ints, slices, ``...``, ``None``)
        gives a view with no entry twice, so its backward assigns, and one
        that views the whole array returns ``self``. Any other index may
        repeat entries, and its backward accumulates with ``np.add.at``."""
        out_data = self.data[idx]
        parts = idx if isinstance(idx, tuple) else (idx,)
        basic = all(p is None or p is Ellipsis
                    or (isinstance(p, (slice, int, np.integer)) and not isinstance(p, bool))
                    for p in parts)
        if basic and out_data.__array_interface__ == self.data.__array_interface__:
            return self
        def vjp(g, sh=self.data.shape, ix=idx):
            full = np.zeros(sh)
            if basic:
                full[ix] = g
            else:
                np.add.at(full, ix, g)
            return full
        return Tensor(out_data, ((self, vjp),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid as ``exp(min(x, 0)) / (1 + exp(-|x|))``.

    Bit for bit the branch form ``1 / (1 + t)`` for x >= 0 and
    ``t / (1 + t)`` for x < 0, with ``t = exp(-|x|)``, on every non-NaN
    float64, ±0, ±inf and |x| large enough for ``t`` to underflow to 0
    included: exp(0) is exactly 1, and for x < 0, min(x, 0) is exactly
    -|x|. Neither exp can overflow, so no floating-point warning is
    raised. No branch is computed and thrown away: two float64 buffers of
    ``x``'s shape are filled in place, and ``x`` is never written.
    """
    # fresh out= buffers keep even 0-d input an array for the in-place steps
    den = np.abs(x, out=np.empty_like(x, dtype=np.float64))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(den))
    np.exp(num, out=num)
    num /= den
    return num


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False)


def constant(x) -> Tensor:
    """A tensor that never receives gradient."""
    return _wrap(x)


def concat(tensors, axis=0) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        n = t.data.shape[axis]
        sl = [slice(None)] * out_data.ndim
        sl[axis] = slice(offset, offset + n)
        parents.append((t, lambda g, s=tuple(sl): g[s]))
        offset += n
    return Tensor(out_data, tuple(parents))


def silu(x):
    """x * sigmoid(x), on a Tensor or an array."""
    return x * (x.sigmoid() if isinstance(x, Tensor) else _sigmoid(x))


def rms_norm(x, gain, eps: float = 1e-6):
    """RMS norm over the last axis times ``gain``, on Tensors or arrays.

    The mean of squares is a sum divided by the width: on arrays the same
    reduce-then-divide as ``ndarray.mean``, so the bits are the same,
    without its per-call overhead. ``Tensor`` division by a Python scalar
    is a true division too, so on Tensors the values equal those on
    arrays bit for bit at any width.
    """
    scale = ((x * x).sum(axis=-1, keepdims=True) / x.shape[-1] + eps) ** -0.5
    return x * scale * gain


def exp_rows_lastdim(x: Tensor, mask=None):
    """Tape twin of ``kernels.exp_rows``: ``(e, e.sum(-1, keepdims=True))``,
    with ``e / sums`` the softmax, differentiable in the scores and the mask
    (a Tensor or array that ``kernels._hidden`` checks against ``x``; None
    hides nothing). The shift, a constant, is the row max over unmasked
    entries; only masked entries lie above it, and their exp is capped at 1.
    """
    if mask is None:
        live_max = x.data.max(axis=-1, keepdims=True)
    else:
        mask = _wrap(mask)
        hidden = kernels._hidden(x.data, mask.data)
        live_max = np.where(hidden, -np.inf, x.data).max(axis=-1, keepdims=True)
    z = x.data - live_max
    e_data = np.exp(np.minimum(z, 0.0))
    e = Tensor(e_data, ((x, lambda g, o=e_data, live=z <= 0.0: g * o * live),))
    if mask is not None:
        e = e * mask
    return e, e.sum(axis=-1, keepdims=True)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis; the max shift is treated as a constant."""
    e, sums = exp_rows_lastdim(x)
    return e / sums


def ste_hard_decision(relaxed: Tensor) -> Tensor:
    """Hard one-hot argmax over the last axis with a pass-through adjoint.

    Forward emits exact {0,1} one-hot rows (ties toward the lower index);
    backward copies the incoming adjoint onto the relaxed input unchanged.
    """
    idx = np.argmax(relaxed.data, axis=-1)
    hard = np.zeros_like(relaxed.data)
    np.put_along_axis(hard, idx[..., None], 1.0, axis=-1)
    return Tensor(hard, ((relaxed, lambda g: g),))


def gradcheck(fn, tensors, step: float = 1e-5, rtol: float = 1e-4,
              atol: float = 1e-7, rng=None, probes_per_input: int = 3):
    """Compare reverse-mode gradients against central finite differences.

    ``fn`` maps the given leaf tensors to a scalar Tensor. A few random
    coordinates per input are probed. Returns the worst relative error.
    """
    rng = rng or np.random.default_rng(0)
    for t in tensors:
        t.grad = None
    out = fn(*tensors)
    out.backward()
    worst = 0.0
    for t in tensors:
        if not t.requires_grad:
            continue
        flat = t.data.ravel()
        n_probe = min(probes_per_input, flat.size)
        coords = rng.choice(flat.size, size=n_probe, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            hi = fn(*tensors).item()
            flat[c] = orig - step
            lo = fn(*tensors).item()
            flat[c] = orig
            numeric = (hi - lo) / (2.0 * step)
            analytic = t.grad.ravel()[c]
            err = abs(analytic - numeric) / max(abs(numeric), abs(analytic), atol / rtol)
            worst = max(worst, err)
            if err > rtol:
                raise AssertionError(
                    f"gradient mismatch at coord {c}: analytic {analytic!r} "
                    f"vs numeric {numeric!r} (rel err {err:.3e})"
                )
    return worst
