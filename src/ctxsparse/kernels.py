"""Deterministic dense numeric primitives the rest of the engine is built on.

Every kernel but the in-place ``exp_rows`` is a pure function over float64
arrays. Reduction orders are fixed, so repeated calls on equal inputs are
bit-identical. Ties in the argmax family always break toward the lower index.

``exp_rows`` exponentiates scores of any rank >= 2 in place, zeroing what a
mask hides, and returns the row sums, so ``model.layer_forward`` divides
``exp_scores @ v`` rather than the scores. A mask broadcasts to the scores
and is never copied per head or per sample. ``softmax_rows`` and
``masked_softmax`` run it on a C-contiguous copy of their input (into
``out=`` if given, possibly the input itself) and divide, so every row is
reduced in the same order whatever the input's layout.
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


def _softmax_input(x, out, g=None) -> np.ndarray:
    """``x`` as float64 scores of rank >= 2 copied into ``out`` (a C-contiguous
    float64 array of their shape, possibly ``x`` itself) or, without ``out``,
    into a fresh one. A mask ``g`` is checked first, so a rejected one leaves
    ``out`` unwritten."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ContractViolation(f"expected rank >= 2 scores, got shape {x.shape}")
    if g is not None:
        _hidden(x, g)
    if out is None:
        return np.array(x, order="C")
    if not (isinstance(out, np.ndarray) and out.shape == x.shape
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ContractViolation(
            f"softmax out= must be a C-contiguous float64 array of shape {x.shape}")
    if out is not x:
        np.copyto(out, x)
    return out


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


def exp_rows(x: np.ndarray, g=None) -> np.ndarray:
    """Unnormalized softmax over the last axis, in place; returns the row sums.

    ``x``: a writable C-contiguous float64 array of rank >= 2. Entries the
    mask ``g`` hides (it broadcasts to ``x``; None hides none) become 0.0,
    the rest exp(x - their row's visible max); ``x / sums`` is the softmax.
    The mask is checked before anything is written.
    """
    if not (isinstance(x, np.ndarray) and x.ndim >= 2 and x.dtype == np.float64
            and x.flags.c_contiguous and x.flags.writeable):
        raise ContractViolation("exp_rows works in place on a writable "
                                "C-contiguous float64 array of rank >= 2")
    if g is not None:
        np.copyto(x, -np.inf, where=_hidden(x, g))
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)  # exp(-inf) == 0.0 exactly
    return x.sum(axis=-1, keepdims=True)


def softmax_rows(x, out=None) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability:
    ``exp_rows`` on a copy of ``x`` (see the module note on ``out=``),
    divided by the row sums. Rows sum to 1 within 1e-12."""
    e = _softmax_input(x, out)
    e /= exp_rows(e)
    return e


def masked_softmax(x, g, out=None) -> np.ndarray:
    """Softmax over the last axis restricted to entries where the mask ``g``
    (it broadcasts to ``x``) is nonzero: ``exp_rows`` on a copy of ``x``,
    divided by the row sums. Masked entries are exactly 0. ``g`` is checked
    before anything, ``out=`` included, is written. An all-ones mask gives
    the values of ``softmax_rows`` bit for bit."""
    e = _softmax_input(x, out, g)
    e /= exp_rows(e, g)
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
