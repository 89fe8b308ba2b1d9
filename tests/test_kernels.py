import math

import numpy as np
import pytest

from ctxsparse import kernels
from ctxsparse.errors import ContractViolation
from ctxsparse.model import _UNSHIFTED_LIMIT


def test_softmax_symmetry():
    out = kernels.softmax_rows([[0.0, 0.0]])
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = kernels.softmax_rows([[1000.0, 1000.0]])
    assert np.isfinite(out).all()
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_direct_arithmetic():
    out = kernels.softmax_rows([[math.log(1.0), math.log(3.0)]])
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=10.0, size=(50, 31))
    out = kernels.softmax_rows(x)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


def test_masked_softmax_all_ones_equals_softmax():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=5.0, size=(20, 13))
    plain = kernels.softmax_rows(x)
    masked = kernels.masked_softmax(x, np.ones_like(x))
    assert np.array_equal(plain, masked)


def test_masked_softmax_direct_arithmetic():
    x = np.zeros((2, 2))
    g = np.array([[1.0, 0.0], [1.0, 1.0]])
    out = kernels.masked_softmax(x, g)
    assert np.allclose(out, [[1.0, 0.0], [0.5, 0.5]], atol=1e-15)


def test_masked_softmax_identity_mask():
    rng = np.random.default_rng(4)
    x = rng.normal(scale=20.0, size=(6, 6))
    out = kernels.masked_softmax(x, np.eye(6))
    assert np.array_equal(out, np.eye(6))


def test_masked_softmax_exact_zeros_and_row_sums():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(scale=8.0, size=(9, 9))
        g = (rng.random((9, 9)) < 0.5).astype(np.float64)
        np.fill_diagonal(g, 1.0)
        out = kernels.masked_softmax(x, g)
        assert (out[g == 0.0] == 0.0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


def test_masked_softmax_rejects_all_zero_row():
    with pytest.raises(ContractViolation):
        kernels.masked_softmax(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_argmax_lastdim():
    assert kernels.argmax_lastdim([[0.1, 0.9]]).tolist() == [1]
    assert kernels.argmax_lastdim([[0.5, 0.5]]).tolist() == [0]  # tie -> lower
    assert kernels.argmax_lastdim([[2.0, 1.0], [0.0, 3.0]]).tolist() == [0, 1]


def test_topk_argmax_examples():
    assert kernels.topk_argmax([0.9, 0.1, 0.7, 0.3], 2).tolist() == [0, 2]
    assert kernels.topk_argmax([0.9, 0.1, 0.7, 0.3], 4).tolist() == [0, 1, 2, 3]
    assert kernels.topk_argmax([1.0, 1.0, 1.0], 2).tolist() == [0, 1]  # ties -> lower


def test_topk_argmax_k_too_large():
    with pytest.raises(ContractViolation):
        kernels.topk_argmax([1.0, 2.0], 3)


def test_topk_matches_stable_sort_oracle():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        # coarse values force frequent ties
        scores = rng.integers(0, 5, size=n).astype(np.float64)
        k = int(rng.integers(0, n + 1))
        oracle = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
        got = kernels.topk_argmax(scores, k).tolist()
        assert got == oracle


# -- N-D scores and broadcast masks --------------------------------------------


def reference_softmax(x):
    """Plain out-of-place formulation the kernels must match bit for bit."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_masked_softmax(x, g):
    z = np.where(np.broadcast_to(g, x.shape) != 0.0, x, -np.inf)
    return reference_softmax(z)


def per_slice_masked_softmax(x, g):
    """The kernel applied one 2-D slice at a time on an expanded mask."""
    full = np.broadcast_to(g, x.shape)
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape[:-2]):
        out[idx] = kernels.masked_softmax(x[idx], full[idx])
    return out


def caller_masks(rng):
    """(scores, mask) pairs in every mask shape the engine's callers pass."""
    b, h, n, m = 3, 4, 7, 9
    causal = np.tril(np.ones((n, n)))
    valid = np.ones((b, n), dtype=bool)
    valid[0, :3] = False
    valid[2, :1] = False
    padded = (np.tril(np.ones((n, n), dtype=bool))[None] & valid[:, None, :]
              | np.eye(n, dtype=bool)[None])
    kvalid = np.ones((b, m), dtype=bool)
    kvalid[1, :4] = False
    return [
        (rng.normal(scale=6.0, size=(h, n, n)), causal),                 # heads
        (rng.normal(scale=6.0, size=(b, h, n, n)), padded[:, None]),     # padded
        (rng.normal(scale=6.0, size=(b, h, n, n)), valid[:, None, None, :]),
        (rng.normal(scale=6.0, size=(b, h, m)), kvalid[:, None, :]),     # decode
    ]


def test_masked_softmax_nd_matches_per_slice_and_reference():
    rng = np.random.default_rng(10)
    for scores, mask in caller_masks(rng):
        got = kernels.masked_softmax(scores, mask)
        assert got.shape == scores.shape
        assert np.array_equal(got, per_slice_masked_softmax(scores, mask))
        assert np.array_equal(got, reference_masked_softmax(scores, mask))
        assert (got[np.broadcast_to(mask, scores.shape) == 0] == 0.0).all()


def test_softmax_rows_nd_matches_per_slice_and_reference():
    x = np.random.default_rng(11).normal(scale=6.0, size=(2, 3, 5, 8))
    got = kernels.softmax_rows(x)
    assert np.array_equal(got, reference_softmax(x))
    for idx in np.ndindex(x.shape[:-2]):
        assert np.array_equal(got[idx], kernels.softmax_rows(x[idx]))


def test_softmax_result_independent_of_input_layout():
    rng = np.random.default_rng(12)
    base = rng.normal(scale=6.0, size=(3, 40, 4))
    strided = base.transpose(0, 2, 1)  # last axis not contiguous
    mask = (rng.random((3, 1, 40)) < 0.7)
    mask[..., -1] = True
    dense = np.ascontiguousarray(strided)
    assert np.array_equal(kernels.softmax_rows(strided), kernels.softmax_rows(dense))
    got = kernels.masked_softmax(strided, mask)
    assert got.flags.c_contiguous
    assert np.array_equal(got, kernels.masked_softmax(dense, mask))


def test_softmax_kernels_leave_input_unchanged():
    rng = np.random.default_rng(13)
    for scores, mask in caller_masks(rng):
        before, mask_before = scores.copy(), mask.copy()
        kernels.masked_softmax(scores, mask)
        kernels.softmax_rows(scores)
        assert np.array_equal(scores, before)
        assert np.array_equal(mask, mask_before)


def test_masked_softmax_rejects_non_broadcasting_mask():
    x = np.zeros((2, 3, 4))
    for bad in (np.ones((3, 5)), np.ones((2, 1, 3, 4)), np.ones((3, 3, 4)),
                np.ones(())):
        with pytest.raises(ContractViolation):
            kernels.masked_softmax(x, bad)


def test_masked_softmax_rejects_all_zero_row_in_broadcast_mask():
    x = np.zeros((2, 4, 3, 3))
    mask = np.ones((2, 1, 1, 3))
    mask[1] = 0.0  # one sample's only mask row is empty for every head
    with pytest.raises(ContractViolation):
        kernels.masked_softmax(x, mask)
    with pytest.raises(ContractViolation):
        kernels.masked_softmax(np.zeros((2, 0)), np.ones((1, 1)))


def test_softmax_kernels_reject_rank_below_two():
    with pytest.raises(ContractViolation):
        kernels.softmax_rows([1.0, 2.0])
    with pytest.raises(ContractViolation):
        kernels.masked_softmax([1.0, 2.0], [1.0, 1.0])


def test_softmax_kernels_equal_function_reduction_formula_bit_for_bit():
    """The kernels reduce with ``ndarray.max`` / ``ndarray.sum``; pin them to
    the ``np.max`` / ``np.sum`` form of the same in-place formula, on one-row
    cached-step scores and on rows long enough for pairwise summation."""
    def by_functions(x, keep=None):
        e = np.ascontiguousarray(x if keep is None else np.where(keep, x, -np.inf))
        e = e - np.max(e, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.sum(e, axis=-1, keepdims=True)
        return e

    rng = np.random.default_rng(14)
    for shape in ((4, 1, 37), (2, 4, 1, 300), (3, 70, 129), (64, 608)):
        x = rng.normal(scale=6.0, size=shape)
        keep = rng.random((1,) * (len(shape) - 1) + shape[-1:]) < 0.6
        keep[..., -1] = True
        assert np.array_equal(kernels.softmax_rows(x), by_functions(x))
        assert np.array_equal(kernels.masked_softmax(x, keep), by_functions(x, keep))


# -- exp_rows: the in-place kernel the softmaxes wrap -----------------------------


def out_cases(rng):
    """(scores, mask) pairs: 2-D scores under an (N, N) mask, then every
    caller shape, 4-D ones under (B, 1, N, N) and (B, 1, 1, M)."""
    n = 6
    causal = np.tril(np.ones((n, n)))
    return [(rng.normal(scale=6.0, size=(n, n)), causal)] + caller_masks(rng)


def test_softmax_kernels_equal_exp_rows_then_divide_bit_for_bit():
    rng = np.random.default_rng(17)
    for scores, mask in out_cases(rng):
        for g, softmax in ((None, kernels.softmax_rows(scores)),
                           (mask, kernels.masked_softmax(scores, mask))):
            e = scores.copy()
            sums = kernels.exp_rows(e, g)
            assert sums.shape == scores.shape[:-1] + (1,)
            assert np.array_equal(softmax, e / sums)
        hidden = e[np.broadcast_to(mask, e.shape) == 0]
        assert hidden.size and (hidden == 0.0).all() and not np.signbit(hidden).any()


def test_exp_rows_leaves_scores_unwritten_when_the_mask_is_rejected():
    x = np.random.default_rng(18).normal(size=(2, 3, 4))
    before = x.copy()
    empty_row = np.ones((3, 4))
    empty_row[1] = 0.0
    for bad in (np.ones((3, 5)), np.ones((2, 1, 3, 4)), np.ones(()), empty_row):
        with pytest.raises(ContractViolation):
            kernels.exp_rows(x, bad)
        assert np.array_equal(x, before)


def test_exp_rows_rejects_scores_it_cannot_work_in_place():
    read_only = np.zeros((3, 4))
    read_only.flags.writeable = False
    for x in ([[0.0] * 4] * 3, np.zeros((3, 4), dtype=np.float32),
              np.zeros((4, 3)).T, np.zeros(4), read_only):
        with pytest.raises(ContractViolation, match="in place"):
            kernels.exp_rows(x)


def test_exp_rows_without_the_shift_matches_the_softmaxes():
    rng = np.random.default_rng(19)
    for scores, mask in caller_masks(rng):
        assert np.abs(scores).max() <= _UNSHIFTED_LIMIT
        for g, softmax in ((None, kernels.softmax_rows(scores)),
                           (mask, kernels.masked_softmax(scores, mask))):
            e = scores.copy()
            sums = kernels.exp_rows(e, g, shift=False)
            assert np.abs(e / sums - softmax).max() <= 1e-15
        hidden = e[np.broadcast_to(mask, e.shape) == 0]
        assert hidden.size and (hidden == 0.0).all() and not np.signbit(hidden).any()


def test_exp_rows_without_the_shift_leaves_scores_unwritten_on_a_rejected_mask():
    x = np.random.default_rng(20).normal(size=(2, 3, 4))
    before = x.copy()
    empty_row = np.ones((3, 4))
    empty_row[1] = 0.0
    for bad, message in ((np.ones((3, 5)), "broadcast"), (np.ones((2, 1, 3, 4)), "broadcast"),
                         (np.ones(()), "broadcast"), (empty_row, "all zeros")):
        with pytest.raises(ContractViolation, match=message):
            kernels.exp_rows(x, bad, shift=False)
        assert np.array_equal(x, before)


def test_masked_softmax_checks_its_mask_once(monkeypatch):
    checks = []

    def counting(x, g, _real=kernels._hidden):
        checks.append(g)
        return _real(x, g)

    monkeypatch.setattr(kernels, "_hidden", counting)
    scores, mask = caller_masks(np.random.default_rng(21))[1]
    kernels.masked_softmax(scores, mask)
    kernels.masked_softmax(scores, mask)
    assert len(checks) == 2
