import numpy as np

from ctxsparse import autodiff as ad
from ctxsparse import model as m
from ctxsparse import sparsify as sp
from ctxsparse import training as tr
from ctxsparse.predictors import PredictorConfig, make_predictors

CFG = m.ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                    vocab_size=96, max_seq_len=256, image_feature_dim=32)


def masked_training_logits(model, batch, sparsity, masks, hard_drop=False):
    """Next-token logits of every output position from the final-layer rows
    of ``training_forward`` run with fixed keep flags."""
    params = {name: ad.Tensor(arr) for name, arr in model.parameters().items()}
    hidden = []
    tr.training_forward(params, model.config, batch, sparsity, tr.TrainConfig(),
                        tau=1.0, forced_masks=masks, hard_drop=hard_drop,
                        trace_hidden=hidden)
    n_prefill = batch.image_feats.shape[1] + batch.text_ids.shape[1]
    return [m._logits_at(model, row) for row in hidden[-1][0, n_prefill:]]


def test_masked_training_equals_hard_drop_inference():
    # 72 image + 4 text + 6 output tokens: past one 64-row attention block
    model = m.make_model(CFG, seed=40)
    preds = make_predictors(PredictorConfig(input_dim=64, keep_bias_init=0.0), seed=41)
    sparsity = sp.SparsityConfig(sparsify_layer=2, image_keep_rate=0.25)
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(72, 32))
    text_ids = rng.integers(1, CFG.vocab_size, size=4)
    output_ids = rng.integers(1, CFG.vocab_size, size=6)
    state = m.embed_inputs(model, feats, text_ids)
    for token in output_ids:
        m.append_output(model, state, int(token))
    _, image_keep, out_flags = sp.sparse_decode_no_cache(
        model, preds, state, sparsity, return_decisions=True)
    assert 0 < out_flags.sum() < len(out_flags)  # some outputs dropped, some kept
    m_img = np.zeros((1, 72))
    m_img[0, image_keep] = 1.0
    masks = (m_img, out_flags[None].astype(np.float64))
    batch = tr.TrainBatch(feats[None], text_ids[None], output_ids[None])

    # the row of output j sees what step j of no-cache decoding keeps
    inference = []
    for j in range(len(output_ids)):
        step = m.SequenceState(state.image, state.text, state.output[:j + 1],
                               list(output_ids[:j + 1]))
        inference.append(sp.sparse_decode_no_cache(model, preds, step, sparsity))
    masked = masked_training_logits(model, batch, sparsity, masks)
    for got, want in zip(masked, inference):
        assert np.abs(got - want).max() <= 1e-9
    # zeroing dropped tokens instead of masking them (the negative control)
    hard = masked_training_logits(model, batch, sparsity, masks, hard_drop=True)
    assert max(np.abs(got - want).max() for got, want in zip(hard, inference)) > 1e-3
