import numpy as np
import pytest

from ctxsparse import autodiff as ad
from ctxsparse.errors import ContractViolation


def leaf(rng, *shape, scale=1.0):
    return ad.Tensor(rng.normal(scale=scale, size=shape))


def masked_softmax(x, mask):
    """The tape's masked softmax, as training builds it: ``e / sums``."""
    e, sums = ad.exp_rows_lastdim(x, mask)
    return e / sums


def test_add_mul_matmul_grads():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, 4, 3), leaf(rng, 3, 5)
    c = leaf(rng, 4, 5)
    ad.gradcheck(lambda a, b, c: ((a @ b) * c + c).sum(), [a, b, c], rng=rng)


def test_batched_matmul_broadcast_grads():
    rng = np.random.default_rng(1)
    a = leaf(rng, 2, 3, 4, 5)
    b = leaf(rng, 5, 6)
    ad.gradcheck(lambda a, b: (a @ b).sum(), [a, b], rng=rng)


def test_elementwise_grads():
    rng = np.random.default_rng(2)
    x = leaf(rng, 6, scale=0.5)
    ad.gradcheck(lambda x: (x.exp() + x.sigmoid() + (x * x + 1.0).log()).sum(),
                 [x], rng=rng)
    y = ad.Tensor(np.abs(rng.normal(size=5)) + 0.5)
    ad.gradcheck(lambda y: (y ** -0.5).sum(), [y], rng=rng)


def test_abs_grad_and_zero_subgradient():
    x = ad.Tensor(np.array([-2.0, 0.0, 3.0]))
    out = x.abs().sum()
    out.backward()
    assert x.grad.tolist() == [-1.0, 0.0, 1.0]


def test_reduction_and_shape_grads():
    rng = np.random.default_rng(3)
    x = leaf(rng, 3, 4, 5)
    ad.gradcheck(lambda x: (x.mean(axis=-1, keepdims=True) * x).sum(), [x], rng=rng)
    ad.gradcheck(lambda x: x.reshape(12, 5).swapaxes(0, 1).sum(axis=1).mean(),
                 [x], rng=rng)


def test_getitem_gather_grads():
    rng = np.random.default_rng(4)
    table = leaf(rng, 7, 3)
    idx = np.array([1, 1, 4, 6])
    ad.gradcheck(lambda t: (t[idx] * t[idx]).sum(), [table], rng=rng)


def test_getitem_basic_index_grads():
    rng = np.random.default_rng(11)
    x = leaf(rng, 6, 5, 4)
    c = rng.normal(size=(1, 5, 4))
    ad.gradcheck(lambda x: (x[::2, ::-1] ** 2.0).sum()
                 + (x[None, 1] * ad.constant(c)).sum()
                 + x[..., 2].exp().sum() + x[-1, 1:4:2].sigmoid().sum(),
                 [x], rng=rng, probes_per_input=30)


def test_getitem_whole_array_returns_same_tensor():
    x = ad.Tensor(np.zeros((3, 4)))
    assert x[...] is x and x[:] is x and x[..., 0:4] is x and x[:, :] is x
    for part in (x[::-1], x[:, :3], x[None], x[np.arange(3)], x[[0, 1, 2]]):
        assert part is not x


def test_concat_grads():
    rng = np.random.default_rng(5)
    a, b = leaf(rng, 2, 3), leaf(rng, 4, 3)
    ad.gradcheck(lambda a, b: (ad.concat([a, b], axis=0) ** 2.0).sum(), [a, b], rng=rng)


def test_softmax_and_masked_softmax_grads():
    rng = np.random.default_rng(6)
    x = leaf(rng, 5, 4)
    ad.gradcheck(lambda x: (ad.softmax_lastdim(x) ** 2.0).sum(), [x], rng=rng)
    g = (rng.random((5, 4)) < 0.6).astype(np.float64)
    g[:, 0] = 1.0
    gt = ad.Tensor(g)
    w = np.arange(20.0).reshape(5, 4)
    ad.gradcheck(
        lambda x, gt: (masked_softmax(x, gt) * ad.constant(w)).sum(),
        [x, gt], rng=rng)


def test_masked_softmax_fixed_mask_matches_kernel():
    from ctxsparse import kernels
    rng = np.random.default_rng(7)
    x = rng.normal(scale=4.0, size=(8, 8))
    g = (rng.random((8, 8)) < 0.5).astype(np.float64)
    np.fill_diagonal(g, 1.0)
    soft = masked_softmax(ad.Tensor(x), ad.constant(g)).data
    hard = kernels.masked_softmax(x, g)
    assert (soft[g == 0.0] == 0.0).all()
    assert np.abs(soft - hard).max() <= 1e-15


def test_masked_softmax_all_zero_row_rejected():
    with pytest.raises(ContractViolation):
        masked_softmax(ad.Tensor(np.zeros((1, 2))), ad.constant(np.zeros((1, 2))))


def test_masked_softmax_rejects_a_mask_that_does_not_broadcast_to_the_scores():
    """The tape checks a mask as the array kernel does: a (2, 1, 3, 4) mask
    on (2, 3, 4) scores would broadcast the output up to 4-D."""
    x = ad.Tensor(np.zeros((2, 3, 4)))
    for bad in (np.ones((3, 5)), np.ones((2, 1, 3, 4)), np.ones((3, 3, 4)), np.ones(())):
        with pytest.raises(ContractViolation, match="broadcast"):
            ad.exp_rows_lastdim(x, ad.constant(bad))


def test_rms_norm_silu_grads():
    rng = np.random.default_rng(8)
    x, gain = leaf(rng, 3, 6), ad.Tensor(np.ones(6))
    ad.gradcheck(lambda x, gain: (ad.rms_norm(x, gain) ** 2.0).sum(), [x, gain], rng=rng)
    ad.gradcheck(lambda x: ad.silu(x).sum(), [x], rng=rng)


def test_ste_forward_hard_and_tie_rule():
    d = ad.Tensor(np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]))
    hard = ad.ste_hard_decision(d)
    assert hard.data.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


def test_ste_backward_is_exact_passthrough():
    rng = np.random.default_rng(9)
    d = ad.Tensor(rng.normal(size=(6, 2)))
    w = rng.normal(size=(6, 2))
    out = (ad.ste_hard_decision(d) * ad.constant(w)).sum()
    out.backward()
    assert np.array_equal(d.grad, w)


def test_ste_argmax_shift_invariance():
    rng = np.random.default_rng(10)
    d = rng.normal(size=(5, 2))
    base = ad.ste_hard_decision(ad.Tensor(d)).data
    shifted = ad.ste_hard_decision(ad.Tensor(d + 3.7)).data
    assert np.array_equal(base, shifted)


def test_backward_requires_scalar():
    with pytest.raises(ContractViolation):
        ad.Tensor(np.zeros(3)).backward()


def test_backward_accumulates_shared_subgraph():
    x = ad.Tensor(np.array(2.0))
    y = x * x + x
    y.backward()
    assert x.grad == pytest.approx(5.0)


def test_ops_over_constants_need_no_gradient():
    rng = np.random.default_rng(9)
    w = leaf(rng, 3)
    c = ad.constant(rng.normal(size=3))
    shifted = -c * 2.0 + 1.0  # constants only
    assert not shifted.requires_grad
    loss = (w * shifted + (w - c).exp()).sum()
    assert loss.requires_grad
    loss.backward()
    assert shifted.grad is None and c.grad is None
    assert np.allclose(w.grad, shifted.data + np.exp(w.data - c.data))


# -- elementwise bodies: pinned to the textbook formulas, bit for bit ---------------


def branch_sigmoid(x):
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def mean_rms_norm(x, gain, eps=1e-6):
    return x * ((x * x).mean(axis=-1, keepdims=True) + eps) ** -0.5 * gain


EDGES = [0.0, -0.0, np.inf, -np.inf, 1e3, -1e3, 800.0, -800.0, 745.2, -745.2,
         36.8, -36.8, 1e-300, -1e-300, 5e-324, -5e-324]
WIDTHS = (8, 12, 48, 64, 96)


def spread(width, edges=EDGES):
    """(2, 4, width) values: normal draws at scales 1e-3 to 1e2, with the
    edge values laid over the first rows; read-only, so a write raises."""
    rng = np.random.default_rng(width)
    x = rng.normal(size=(2, 4, width)) * np.array([1e-3, 1.0, 10.0, 1e2])[:, None]
    flat = x.reshape(-1)
    flat[:len(edges)] = edges
    x.flags.writeable = False
    return x


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.filterwarnings("error")
def test_sigmoid_and_silu_equal_branch_formula_bit_for_bit():
    # silu(-inf) is -inf * 0 = NaN (an invalid-value warning) in any
    # formula, so silu's spread leaves -inf out
    finite_silu = [e for e in EDGES if e != -np.inf]
    for width in WIDTHS:
        x = spread(width)
        assert same_bits(ad._sigmoid(x), branch_sigmoid(x))
        y = spread(width, finite_silu)
        assert same_bits(ad.silu(y), y * branch_sigmoid(y))
    raw = np.random.default_rng(1).integers(-2**63, 2**63 - 1, size=4096, dtype=np.int64)
    bits = raw.view(np.float64)
    bits = bits[~np.isnan(bits)]
    assert same_bits(ad._sigmoid(bits), branch_sigmoid(bits))
    assert same_bits(ad._sigmoid(np.array(-2.0)), branch_sigmoid(np.array(-2.0)))


@pytest.mark.filterwarnings("error")
def test_rms_norm_equals_mean_formula_bit_for_bit():
    # a row holding inf norms to inf * 0 = NaN in any formula, so the
    # norm's spread stops at the finite edges
    finite = [e for e in EDGES if np.isfinite(e)]
    for width in WIDTHS:
        x = spread(width, finite)
        gain = np.random.default_rng(width).normal(size=width)
        assert same_bits(ad.rms_norm(x, gain), mean_rms_norm(x, gain))
        zeros = np.zeros((3, width))
        assert same_bits(ad.rms_norm(zeros, gain), mean_rms_norm(zeros, gain))


def test_tensor_sigmoid_saves_an_output_apart_from_its_input():
    x = ad.Tensor(spread(12).copy())
    s = x.sigmoid()
    assert not np.shares_memory(s.data, x.data)
    want = branch_sigmoid(x.data)
    want = want * (1.0 - want)
    x.data[...] = 7.0  # the saved output must not see this
    s.sum().backward()
    assert same_bits(x.grad, want)


def test_tensor_rms_norm_and_mean_equal_arrays_at_any_width():
    rng = np.random.default_rng(12)
    for width in (12, 48, 96):
        x, gain = rng.normal(size=(3, 5, width)), rng.normal(size=width)
        assert same_bits(ad.rms_norm(ad.Tensor(x), ad.Tensor(gain)).data,
                         ad.rms_norm(x, gain))
        t = ad.Tensor(x)
        assert same_bits(t.mean(axis=-1, keepdims=True).data, x.mean(axis=-1, keepdims=True))
        assert same_bits((t / 3.0).data, x / 3.0)
        t.mean().backward()
        assert same_bits(t.grad, np.ones_like(x) / x.size)


def test_exp_rows_twin_matches_kernel_and_gradchecks_scores_and_mask():
    from ctxsparse import kernels
    rng = np.random.default_rng(19)
    x = rng.normal(scale=3.0, size=(2, 3, 5, 6))
    g = (rng.random((2, 1, 5, 6)) < 0.5).astype(np.float64)
    g[..., 0] = 1.0
    e, sums = ad.exp_rows_lastdim(ad.Tensor(x), ad.Tensor(g))
    want = x.copy()
    want_sums = kernels.exp_rows(want, g)
    assert np.array_equal(e.data, want) and np.array_equal(sums.data, want_sums)
    assert (e.data[np.broadcast_to(g, x.shape) == 0.0] == 0.0).all()
    e, sums = ad.exp_rows_lastdim(ad.Tensor(x))
    want = x.copy()
    assert np.array_equal(sums.data, kernels.exp_rows(want)) and np.array_equal(e.data, want)

    # the layer's deferred normalization: (exp_scores @ v) / row sums. A
    # hidden entry above its row's live max has a capped adjoint, so column
    # 0, always visible, holds each row's max and a probe of the mask never
    # moves the shift.
    x = rng.normal(size=x.shape)
    x[..., 0] = x.max(axis=-1) + 0.1
    v = rng.normal(size=(2, 3, 6, 4))
    w = rng.normal(size=(2, 3, 5, 4))
    xt, gt = ad.Tensor(x), ad.Tensor(g)

    def attend(xt, gt):
        e, sums = ad.exp_rows_lastdim(xt, gt)
        return ((e @ ad.constant(v)) / sums * ad.constant(w)).sum()
    ad.gradcheck(attend, [xt, gt], rng=rng, probes_per_input=20)
