"""Deterministic dense numeric primitives the rest of the engine is built on.

Every kernel is a pure function over float64 arrays. Reduction orders are
fixed, so repeated calls on equal inputs are bit-identical. Ties in the
argmax family always break toward the lower index.

The two softmax kernels work over the last axis of scores of any rank >= 2.
``masked_softmax`` takes a mask that broadcasts to the scores, so a shared
(N, N) mask is never copied per head or per sample. Each call allocates one
C-contiguous result array and does the rest of its arithmetic in place on
it, so every row is reduced in the same order whatever the input's memory
layout; the input is never mutated.
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


def softmax_rows(x) -> np.ndarray:
    """Softmax over the last axis with max subtraction for stability.

    ``x`` has rank >= 2; every slice along the last axis is one row. The
    result is a fresh C-contiguous array, the only full-size allocation,
    and ``x`` is never written. Each output row sums to 1 within 1e-12 in
    double precision.
    """
    x = _scores(x)
    e = np.subtract(x, x.max(axis=-1, keepdims=True), order="C")
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def masked_softmax(x, g) -> np.ndarray:
    """Softmax over the last axis restricted to entries where the mask is
    nonzero.

    ``x`` has rank >= 2 and ``g`` broadcasts to ``x.shape`` (e.g. an (N, N)
    mask over (H, N, N) head scores), so callers never expand the mask.
    Entry (..., i, j) is exp(x_ij)*g_ij / sum_k exp(x_ik)*g_ik. Masked
    entries are exactly 0 in the output. The result is a fresh C-contiguous
    array, the only full-size allocation unless ``x`` is not C-ordered, and
    ``x`` is never written. With an all-ones mask each element takes the
    same operations as in ``softmax_rows``, so the values are bit-identical.
    """
    x = _scores(x)
    keep = np.asarray(g) != 0.0
    if not 1 <= keep.ndim <= x.ndim or any(
            m not in (1, n) for m, n in zip(keep.shape[::-1], x.shape[::-1])):
        raise ContractViolation(
            f"mask of shape {np.shape(g)} does not broadcast to scores {x.shape}")
    if x.shape[-1] == 0 or not keep.any(axis=-1).all():
        raise ContractViolation("masked_softmax: a mask row is all zeros")
    e = np.ascontiguousarray(np.where(keep, x, -np.inf))
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
