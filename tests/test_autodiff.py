import numpy as np
import pytest

from ctxsparse import autodiff as ad
from ctxsparse.errors import ContractViolation


def leaf(rng, *shape, scale=1.0):
    return ad.Tensor(rng.normal(scale=scale, size=shape))


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
    ad.gradcheck(lambda x: x.reshape(12, 5).transpose(1, 0).sum(axis=1).mean(),
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
        lambda x, gt: (ad.masked_softmax_lastdim(x, gt) * ad.constant(w)).sum(),
        [x, gt], rng=rng)


def test_masked_softmax_fixed_mask_matches_kernel():
    from ctxsparse import kernels
    rng = np.random.default_rng(7)
    x = rng.normal(scale=4.0, size=(8, 8))
    g = (rng.random((8, 8)) < 0.5).astype(np.float64)
    np.fill_diagonal(g, 1.0)
    soft = ad.masked_softmax_lastdim(ad.Tensor(x), ad.constant(g)).data
    hard = kernels.masked_softmax(x, g)
    assert (soft[g == 0.0] == 0.0).all()
    assert np.abs(soft - hard).max() <= 1e-15


def test_masked_softmax_all_zero_row_rejected():
    with pytest.raises(ContractViolation):
        ad.masked_softmax_lastdim(ad.Tensor(np.zeros((1, 2))),
                                  ad.constant(np.zeros((1, 2))))


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
