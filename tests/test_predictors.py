import numpy as np
import pytest

from ctxsparse import predictors as pr
from ctxsparse.errors import ContractViolation
from ctxsparse.model import ModelConfig, make_model


def make(seed=0, input_dim=64):
    return pr.make_predictors(pr.PredictorConfig(input_dim=input_dim), seed=seed)


def test_image_decisions_shapes_and_determinism():
    p = make()
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(12, 64))
    first = pr.image_decisions(p, tokens)
    second = pr.image_decisions(p, tokens)
    assert first.shape == (12, 2)
    assert np.array_equal(first, second)
    assert pr.image_decisions(p, np.zeros((0, 64))).shape == (0, 2)


def test_image_decisions_zero_weights_all_drop():
    p = make()
    for arr in p.parameters().values():
        arr[...] = 0.0
    tokens = np.random.default_rng(1).normal(size=(7, 64))
    decisions = pr.image_decisions(p, tokens)
    assert np.array_equal(decisions[:, 0], decisions[:, 1])
    mask = pr.decisions_to_mask(decisions)
    assert mask.tolist() == [0] * 7  # ties resolve toward drop


def test_output_decisions_per_token_locality():
    p = make(2)
    rng = np.random.default_rng(2)
    tokens = rng.normal(size=(9, 64))
    base = pr.output_decisions(p, tokens)
    bumped = tokens.copy()
    bumped[4] += rng.normal(size=64)
    moved = pr.output_decisions(p, bumped)
    changed = np.abs(moved - base).max(axis=1) > 0
    assert changed.tolist() == [False] * 4 + [True] + [False] * 4


def test_output_decisions_permutation_equivariance():
    p = make(3)
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(8, 64))
    perm = rng.permutation(8)
    assert np.array_equal(pr.output_decisions(p, tokens)[perm],
                          pr.output_decisions(p, tokens[perm]))


def test_output_decisions_single_matches_batched_row():
    p = make(4)
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(6, 64))
    batch = pr.output_decisions(p, tokens)
    for i in range(6):
        solo = pr.output_decisions(p, tokens[i:i + 1])
        # BLAS picks different kernels for 1-row and n-row products; the
        # results agree to the last couple of ulps
        assert np.abs(solo[0] - batch[i]).max() <= 1e-12
    assert pr.output_decisions(p, np.zeros((0, 64))).shape == (0, 2)


def test_decisions_to_mask_examples():
    rows = np.array([[0.2, 0.8], [0.9, 0.1]])
    assert pr.decisions_to_mask(rows).tolist() == [1, 0]
    assert pr.decisions_to_mask(np.zeros((0, 2))).tolist() == []


def test_select_topk_keep_counts_and_errors():
    rng = np.random.default_rng(5)
    d = rng.normal(size=(576, 2))
    assert pr.select_topk_keep(d, 0.2).size == 115
    assert pr.select_topk_keep(d, 1.0).size == 576
    small = np.array([[0.0, 0.9], [0.0, 0.1], [0.0, 0.7], [0.0, 0.3]])
    assert pr.select_topk_keep(small, 0.5).tolist() == [0, 2]
    # floor(0.3) == 0, so the single best token is kept
    assert pr.select_topk_keep(np.array([[0.0, 0.1], [0.0, 0.7], [0.0, 0.3]]),
                               0.1).tolist() == [1]
    assert pr.select_topk_keep(np.zeros((0, 2)), 0.1).tolist() == []
    with pytest.raises(ContractViolation):
        pr.select_topk_keep(d, 0.0)


def test_select_topk_cardinality_sweep():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 7, 64, 377, 1000):
        d = rng.normal(size=(n, 2))
        for r10 in range(1, 11):
            r = r10 / 10.0
            k = int(np.floor(r * n))
            if k == 0:
                continue
            assert pr.select_topk_keep(d, r).size == k


def test_predictor_params_under_one_percent_of_default_model():
    model = make_model(ModelConfig(), seed=0)
    preds = make(0, input_dim=model.config.hidden_dim)
    def size(owner):
        return sum(a.size for a in owner.parameters().values())
    assert size(preds) < 0.01 * size(model)


def test_batched_image_decisions_mask_pads():
    p = make(7)
    rng = np.random.default_rng(7)
    rows = [rng.normal(size=(n, 64)) for n in (5, 9, 3)]
    from ctxsparse.sparsify import left_pad
    padded, valid = left_pad(rows)
    batched = pr.image_decisions_batched(p, padded, valid)
    for b, r in enumerate(rows):
        solo = pr.image_decisions(p, r)
        got = batched[b, padded.shape[1] - r.shape[0]:]
        assert np.abs(solo - got).max() <= 1e-9


@pytest.mark.parametrize("field, value", [
    ("input_dim", 2.5), ("input_dim", -8), ("hidden", 8.0), ("num_heads", True),
    ("keep_bias_init", float("nan")), ("keep_bias_init", "2.0"),
    ("hidden", 2), ("hidden", 6),
])
def test_predictor_config_rejects_a_field_of_the_wrong_kind(field, value):
    """Integer fields are integers, not bools (``input_dim`` and
    ``num_heads`` >= 1, ``hidden`` >= 0, and a given ``hidden`` >= 4 and
    divisible by ``num_heads``), and ``keep_bias_init`` is a finite real,
    all checked before any weight is drawn."""
    with pytest.raises(ContractViolation, match=f"PredictorConfig.{field}"):
        pr.make_predictors(pr.PredictorConfig(**{"input_dim": 64, field: value}), seed=0)
