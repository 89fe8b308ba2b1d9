"""Deterministic dense numeric primitives the rest of the engine is built on.

Every kernel but the in-place ``exp_rows`` is a pure function over float64
arrays. Reduction orders are fixed, so repeated calls on equal inputs are
bit-identical. Ties in the argmax family always break toward the lower index.

``exp_rows`` exponentiates scores of any rank >= 2 in place, zeroing what a
mask hides, and returns the row sums, so ``model.layer_forward`` divides
``exp_scores @ v`` rather than the scores. A mask broadcasts to the scores
and is never copied per head or per sample. By default each row is shifted
by its visible max before ``exp``; with ``shift=False`` it is not, which
saves two passes over the scores and is as precise only when the caller
knows every score is small enough for ``exp`` to neither overflow nor
underflow (``model.layer_forward`` proves this per block with a
Cauchy-Schwarz bound).
``softmax_rows`` and ``masked_softmax`` always shift: they run the same
kernel on a C-contiguous copy of their input (into ``out=`` if given,
possibly the input itself) and divide, so every row is reduced in the same
order whatever the input's layout.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolation(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _softmax_input(x, out, g=None):
    """``x`` as float64 scores of rank >= 2 copied into ``out`` (a C-contiguous
    float64 array of their shape, possibly ``x`` itself) or, without ``out``,
    into a fresh one, and what the mask ``g`` hides (None without a mask).
    ``g`` is checked first, so a rejected one leaves ``out`` unwritten."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ContractViolation(f"expected rank >= 2 scores, got shape {x.shape}")
    hidden = None if g is None else _hidden(x, g)
    if out is None:
        return np.array(x, order="C"), hidden
    if not (isinstance(out, np.ndarray) and out.shape == x.shape
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ContractViolation(
            f"softmax out= must be a C-contiguous float64 array of shape {x.shape}")
    if out is not x:
        np.copyto(out, x)
    return out, hidden


def _hidden(x: np.ndarray, g) -> np.ndarray:
    """``logical_not(g)``, once ``g`` is checked against the scores ``x``."""
    hidden = np.logical_not(g)
    if not 1 <= hidden.ndim <= x.ndim or any(
            m not in (1, n) for m, n in zip(hidden.shape[::-1], x.shape[::-1])):
        raise ContractViolation(
            f"mask of shape {np.shape(g)} does not broadcast to scores {x.shape}")
    if x.shape[-1] == 0 or hidden.all(axis=-1).any():
        raise ContractViolation("masked_softmax: a mask row is all zeros")
    return hidden


def _exp_rows(x: np.ndarray, hidden, shift: bool = True) -> np.ndarray:
    """``exp_rows`` on checked scores and a checked ``hidden`` (or None)."""
    if hidden is not None:
        np.copyto(x, -np.inf, where=hidden)
    if shift:
        x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)  # exp(-inf) == 0.0 exactly
    return x.sum(axis=-1, keepdims=True)


def exp_rows(x: np.ndarray, g=None, *, shift: bool = True) -> np.ndarray:
    """Unnormalized softmax over the last axis, in place; returns the row sums.

    ``x``: a writable C-contiguous float64 array of rank >= 2. Entries the
    mask ``g`` hides (it broadcasts to ``x``; None hides none) become 0.0,
    the rest exp(x - their row's visible max); ``x / sums`` is the softmax.
    The mask is checked before anything is written.

    ``shift=False`` skips the max subtraction and writes exp(x) itself. The
    caller guarantees that every visible score lies in a range where that
    is as exact as the shifted form: ``model.layer_forward`` passes it only
    when a bound puts every score of the block in [-64, 64], so no
    exponential overflows or is subnormal. Outside such a range ``x`` may
    hold inf or 0.0 and ``x / sums`` NaN.
    """
    if not (isinstance(x, np.ndarray) and x.ndim >= 2 and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        raise ContractViolation("exp_rows works in place on a writable "
                                "C-contiguous float64 array of rank >= 2")
    return _exp_rows(x, None if g is None else _hidden(x, g), shift)


def softmax_rows(x, out=None) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability:
    ``exp_rows`` on a copy of ``x`` (see the module note on ``out=``),
    divided by the row sums. Rows sum to 1 within 1e-12."""
    e, _ = _softmax_input(x, out)
    e /= _exp_rows(e, None)
    return e


def masked_softmax(x, g, out=None) -> np.ndarray:
    """Softmax over the last axis restricted to entries where the mask ``g``
    (it broadcasts to ``x``) is nonzero: ``exp_rows`` on a copy of ``x``,
    divided by the row sums. Masked entries are exactly 0. ``g`` is checked
    once, before anything, ``out=`` included, is written. An all-ones mask
    gives the values of ``softmax_rows`` bit for bit."""
    e, hidden = _softmax_input(x, out, g)
    e /= _exp_rows(e, hidden)
    return e


def argmax_lastdim(d) -> np.ndarray:
    """Per-row index of the maximum value; ties break toward the lower index."""
    d = as_matrix(d)
    if d.shape[1] < 1:
        raise ContractViolation("argmax_lastdim: need at least one column")
    return np.argmax(d, axis=-1)


def topk_argmax(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, sorted ascending.

    Ties break toward the lower index, matching a stable descending sort.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    if k > s.size:
        raise ContractViolation(f"topk_argmax: k={k} exceeds {s.size} scores")
    if k < 0:
        raise ContractViolation("topk_argmax: k must be non-negative")
    # lexsort's last key is primary: descending score, then ascending index.
    order = np.lexsort((np.arange(s.size), -s))
    return np.sort(order[:k])
