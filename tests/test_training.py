import numpy as np
import pytest

from ctxsparse import autodiff as ad
from ctxsparse import model as m
from ctxsparse import sparsify as sp
from ctxsparse import tasks
from ctxsparse import training as tr
from ctxsparse.errors import ContractViolation
from ctxsparse.predictors import PredictorConfig, image_decisions, make_predictors

CFG = m.ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                    vocab_size=96, max_seq_len=256, image_feature_dim=32)


def masked_training_logits(model, preds, batch, sparsity, masks, hard_drop=False):
    """Next-token logits of every output position from the final-layer rows
    of ``training_forward`` run with fixed keep flags."""
    _, tape_model, tape_preds = tr._tape_copies(model, preds)
    hidden = []
    tr.training_forward(tape_model, tape_preds, batch, sparsity, tr.TrainConfig(),
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
    masked = masked_training_logits(model, preds, batch, sparsity, masks)
    for got, want in zip(masked, inference):
        assert np.abs(got - want).max() <= 1e-9
    # zeroing dropped tokens instead of masking them (the negative control)
    hard = masked_training_logits(model, preds, batch, sparsity, masks, hard_drop=True)
    assert max(np.abs(got - want).max() for got, want in zip(hard, inference)) > 1e-3


def test_autodiff_image_predictor_matches_numpy_predictor():
    preds = make_predictors(PredictorConfig(input_dim=64), seed=43)
    _, _, tape_preds = tr._tape_copies(m.make_model(CFG), preds)
    hidden = np.random.default_rng(44).normal(size=(3, 150, 64))
    got = image_decisions(tape_preds, ad.Tensor(hidden)).data
    for b in range(3):
        assert np.abs(got[b] - image_decisions(preds, hidden[b])).max() <= 1e-12


def test_sgd_momentum_steps():
    model = m.make_model(CFG, seed=45)
    preds = make_predictors(PredictorConfig(input_dim=64), seed=46)
    cfg = tr.TrainConfig(optimizer="sgd", lr_model=0.25, lr_predictor=0.125,
                         momentum=0.5)
    opt = tr.make_optimizer(model, preds, cfg)
    assert isinstance(opt, tr.SgdMomentum)
    arrays = {"model.lm_head": model.lm_head, "predictor.output.proj": preds.output_proj}
    untouched = {"model.token_emb": model.token_emb, "predictor.image.proj": preds.image_proj}
    lrs = {"model.lm_head": cfg.lr_model, "predictor.output.proj": cfg.lr_predictor}
    before = {name: arr.copy() for name, arr in {**arrays, **untouched}.items()}
    rng = np.random.default_rng(47)
    g1 = {name: rng.normal(size=arr.shape) for name, arr in arrays.items()}
    opt.step(g1)
    for name, arr in arrays.items():
        assert np.array_equal(arr, before[name] - lrs[name] * g1[name])
    after1 = {name: arr.copy() for name, arr in arrays.items()}
    g2 = {name: rng.normal(size=arr.shape) for name, arr in arrays.items()}
    opt.step(g2)
    for name, arr in arrays.items():
        velocity = cfg.momentum * -(lrs[name] * g1[name]) - lrs[name] * g2[name]
        assert np.allclose(arr, after1[name] + velocity, rtol=0.0, atol=1e-15)
    for name, arr in untouched.items():
        assert np.array_equal(arr, before[name])


def test_training_forward_gradcheck_past_one_query_block():
    # 60 image + 4 text + 6 output rows: layer_forward runs two query
    # blocks, joins them with ad.concat and slices the Tensor mask per block
    cfg = m.ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                        vocab_size=16, max_seq_len=80, image_feature_dim=4)
    model = m.make_model(cfg, seed=48)
    rng = np.random.default_rng(49)
    batch = tr.TrainBatch(rng.normal(size=(2, 60, 4)), rng.integers(1, 16, size=(2, 4)),
                          rng.integers(1, 16, size=(2, 6)))
    masks = ((rng.random((2, 60)) < 0.3).astype(np.float64),
             np.array([[1.0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]]))
    _, tape_model, tape_preds = tr._tape_copies(
        model, make_predictors(PredictorConfig(input_dim=8), seed=48))
    leaves = list(tape_model.parameters().values())
    sparsity = sp.SparsityConfig(sparsify_layer=1)

    def loss(*tensors):  # gradcheck perturbs the leaves inside tape_model
        return tr.training_forward(tape_model, tape_preds, batch, sparsity,
                                   tr.TrainConfig(), tau=1.0, forced_masks=masks)[0]
    ad.gradcheck(loss, leaves, rng=rng)

    # the flags' adjoint through the per-block mask slices
    flags = ad.Tensor(rng.uniform(0.2, 1.0, size=(2, 70)))
    x = ad.Tensor(rng.normal(size=(2, 70, 8)))
    layer = model.layers[1]
    ad.gradcheck(lambda flags, x: (m.layer_forward(
        layer, x, tr._mask_matrix_t(flags, 70).reshape(2, 1, 70, 70), 2)[0] ** 2.0).sum(),
        [flags, x], rng=rng, probes_per_input=20)


def keyed_lookup_setup():
    """A small keyed-lookup task, model, predictors and three-step config."""
    task = tasks.KeyedLookupTask()
    cfg = m.ModelConfig(num_layers=2, hidden_dim=32, num_heads=2, ffn_dim=64,
                        vocab_size=task.min_vocab, max_seq_len=64,
                        image_feature_dim=task.feat_dim)
    model = m.make_model(cfg, seed=50)
    preds = make_predictors(PredictorConfig(input_dim=32), seed=51)
    train_cfg = tr.TrainConfig(total_steps=3, batch_size=2, min_output_len=0,
                               tau_initial=2.0, seed=52)
    return task, model, preds, train_cfg


def tiny_training_run(random_mask_control=False):
    """Three ``run_training`` steps of a small keyed-lookup model. Returns
    the log, the config and every weight (by optimizer name) before and
    after."""
    task, model, preds, train_cfg = keyed_lookup_setup()

    def weights():
        return {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    before = weights()
    log = tr.run_training(model, preds, task, train_cfg,
                          sp.SparsityConfig(sparsify_layer=1),
                          random_mask_control=random_mask_control)
    return log, train_cfg, before, weights()


def test_run_training_is_reproducible_and_logs_each_step():
    log, train_cfg, _, after = tiny_training_run()
    again, _, _, after_again = tiny_training_run()
    assert log == again
    assert all(np.array_equal(arr, after_again[name]) for name, arr in after.items())
    keys = {"step", "tau", "cross_entropy", "regularizer", "total",
            "image_keep_fraction", "output_keep_fraction"}
    assert [record["step"] for record in log] == list(range(train_cfg.total_steps))
    assert all(set(record) == keys for record in log)
    assert all(np.isfinite(list(record.values())).all() for record in log)
    assert log[0]["tau"] == train_cfg.tau_initial


def test_run_training_random_control_freezes_predictors():
    _, _, before, after = tiny_training_run(random_mask_control=True)
    moved = {name for name, arr in before.items() if not np.array_equal(arr, after[name])}
    assert moved and all(name.startswith("model.") for name in moved)


def test_run_training_updates_the_live_weights_in_place():
    task, model, preds, train_cfg = keyed_lookup_setup()
    live = dict(tr._grouped_arrays(model, preds))
    before = {name: arr.copy() for name, arr in live.items()}
    tr.run_training(model, preds, task, train_cfg, sp.SparsityConfig(sparsify_layer=1))
    after = dict(tr._grouped_arrays(model, preds))
    assert after.keys() == live.keys()
    for name, arr in after.items():
        assert arr is live[name]
        assert not np.array_equal(arr, before[name]), name
    # no autodiff copy of a weight is left behind in the live objects
    for weights in model.layers + preds.image_blocks:
        assert all(type(arr) is np.ndarray for arr in vars(weights).values())


def teacher_forced_dense_loss(model, samples):
    """Mean next-token cross-entropy of every sample's outputs, read off
    ``full_logits`` of the whole sequence."""
    losses = []
    for sample in samples:
        state = m.embed_inputs(model, sample.image_feats, sample.text_ids)
        for token in sample.output_ids:
            m.append_output(model, state, int(token))
        rows = m.full_logits(model, state)[state.n_prefill - 1:-1]
        shift = rows.max(axis=1)
        log_z = np.log(np.exp(rows - shift[:, None]).sum(axis=1)) + shift
        losses.extend(log_z - rows[np.arange(len(rows)), sample.output_ids])
    return float(np.mean(losses))


def test_evaluate_policy_loss_at_keep_all_is_the_dense_loss():
    task, model, preds, _ = keyed_lookup_setup()
    samples = task.eval_samples(np.random.default_rng(53), 2)
    keep_all = sp.SparsityConfig(sparsify_layer=0, image_keep_rate=1.0,
                                 output_keep_rate=1.0)
    got = tr.evaluate_policy_loss(model, preds, samples, keep_all)
    assert abs(got - teacher_forced_dense_loss(model, samples)) <= 1e-9
    sparse = tr.evaluate_policy_loss(model, preds, samples,
                                     sp.SparsityConfig(sparsify_layer=1))
    assert np.isfinite(sparse)


def test_evaluate_policy_loss_rejects_a_sample_without_outputs():
    task, model, preds, _ = keyed_lookup_setup()
    samples = task.eval_samples(np.random.default_rng(54), 2)
    samples[1] = tasks.Sample(samples[1].image_feats, samples[1].text_ids,
                              samples[1].output_ids[:0])
    with pytest.raises(ContractViolation, match="output token"):
        tr.evaluate_policy_loss(model, preds, samples, sp.SparsityConfig(sparsify_layer=1))


def test_random_control_keeps_one_token_of_each_non_empty_segment():
    rates = sp.SparsityConfig(image_keep_rate=0.2, output_keep_rate=0.5)
    rng = np.random.default_rng(55)
    m_img, m_out = tr._random_control_masks(rng, 2, 4, 1, rates)
    assert m_img.sum(axis=1).tolist() == [1.0, 1.0]
    assert m_out.sum(axis=1).tolist() == [1.0, 1.0]
    m_img, m_out = tr._random_control_masks(rng, 2, 12, 7, rates)  # floor(rate * n)
    assert m_img.sum(axis=1).tolist() == [2.0, 2.0]
    assert m_out.sum(axis=1).tolist() == [3.0, 3.0]
    m_img, m_out = tr._random_control_masks(rng, 2, 0, 1, rates)
    assert m_img.shape == (2, 0) and m_out.sum(axis=1).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -2),
    ("lr_model", 0.0), ("lr_model", -1e-3), ("lr_model", float("nan")),
    ("lr_model", float("inf")),
    ("lr_predictor", 0.0), ("lr_predictor", -1e-3), ("lr_predictor", float("nan")),
    ("lr_predictor", float("inf")),
])
def test_train_config_rejects_bad_batch_size_and_learning_rates(field, value):
    with pytest.raises(ContractViolation, match=field):
        tr.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("layer", [5, 2, -1])
def test_training_step_rejects_a_sparsify_layer_outside_the_model(layer):
    task, model, preds, train_cfg = keyed_lookup_setup()  # 2 layers
    batch = task.training_batch(np.random.default_rng(56), train_cfg.batch_size)
    optimizer = tr.make_optimizer(model, preds, train_cfg)
    before = {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    with pytest.raises(ContractViolation, match="sparsify_layer"):
        tr.training_step(model, preds, batch, train_cfg, sp.SparsityConfig(sparsify_layer=layer),
                         0, optimizer, np.random.default_rng(57))
    for name, arr in tr._grouped_arrays(model, preds):
        assert np.array_equal(arr, before[name]), name
