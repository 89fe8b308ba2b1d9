"""Deterministic dense numeric primitives the rest of the engine is built on.

Every kernel is a pure function over float64 arrays. Reduction orders are
fixed, so repeated calls on equal inputs are bit-identical. Ties in the
argmax family always break toward the lower index.

The two softmax kernels work over the last axis of scores of any rank >= 2.
``masked_softmax`` takes a mask that broadcasts to the scores, so a shared
(N, N) mask is never copied per head or per sample. Each kernel does its
arithmetic in place on one C-contiguous result array, so every row is
reduced in the same order whatever the input's memory layout. Without
``out=`` that array is allocated by the call and the input is never
mutated; with ``out=`` the result is written into ``out``, which may be the
input itself, and nothing score-sized is allocated.
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


def _scores(x) -> np.ndarray:
    """Coerce softmax input to a float64 array of rank >= 2."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim < 2:
        raise ContractViolation(f"expected rank >= 2 scores, got shape {a.shape}")
    return a


def _check_out(x: np.ndarray, out):
    """Raise unless ``out`` is None or a C-contiguous float64 array shaped
    like ``x`` that a softmax can write its result into."""
    if out is None:
        return
    if not (isinstance(out, np.ndarray) and out.shape == x.shape
            and out.dtype == np.float64 and out.flags.c_contiguous):
        raise ContractViolation(
            f"softmax out= must be a C-contiguous float64 array of shape {x.shape}")


def softmax_rows(x, out=None) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability.

    ``x`` has rank >= 2; every slice along the last axis is one row. The
    result goes to ``out`` (a C-contiguous float64 array shaped like ``x``,
    possibly ``x`` itself) and is returned; without ``out`` it is a fresh
    C-contiguous array, the only full-size allocation, and ``x`` is never
    written. Each output row sums to 1 within 1e-12 in double precision.
    """
    x = _scores(x)
    _check_out(x, out)
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out, order="C")
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def masked_softmax(x, g, out=None) -> np.ndarray:
    """Softmax over the last axis restricted to entries where the mask is
    nonzero.

    ``x`` has rank >= 2 and ``g`` broadcasts to ``x.shape`` (e.g. an (N, N)
    mask over (H, N, N) head scores), so callers never expand the mask.
    Entry (..., i, j) is exp(x_ij)*g_ij / sum_k exp(x_ik)*g_ik. Masked
    entries are exactly 0 in the output. The result goes to ``out`` (a
    C-contiguous float64 array shaped like ``x``, possibly ``x`` itself) and
    is returned; without ``out`` it is a fresh C-contiguous array, the only
    full-size allocation, and ``x`` is never written. The mask is checked
    before anything is written. With an all-ones mask each element takes
    the same operations as in ``softmax_rows``, so the values are
    bit-identical.
    """
    x = _scores(x)
    hidden = np.logical_not(g)
    if not 1 <= hidden.ndim <= x.ndim or any(
            m not in (1, n) for m, n in zip(hidden.shape[::-1], x.shape[::-1])):
        raise ContractViolation(
            f"mask of shape {np.shape(g)} does not broadcast to scores {x.shape}")
    if x.shape[-1] == 0 or hidden.all(axis=-1).any():
        raise ContractViolation("masked_softmax: a mask row is all zeros")
    _check_out(x, out)
    e = np.empty(x.shape) if out is None else out
    if e is not x:
        np.copyto(e, x)
    np.copyto(e, -np.inf, where=hidden)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # exp(-inf) == 0.0 exactly
    e /= e.sum(axis=-1, keepdims=True)
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
