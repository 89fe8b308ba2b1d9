from dataclasses import replace

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


def test_tape_copies_name_every_leaf_in_parameters():
    model = m.make_model(CFG)
    preds = make_predictors(PredictorConfig(input_dim=CFG.hidden_dim))
    leaves, tape_model, tape_preds = tr._tape_copies(model, preds)
    for orig, copy in ((model, tape_model), (preds, tape_preds)):
        params = copy.parameters()
        assert list(params) == list(orig.parameters())
        assert all(isinstance(t, ad.Tensor) for t in params.values())
    assert len(leaves) == len(model.parameters()) + len(preds.parameters())


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


def teacher_forced_cached_loss(model, preds, samples, sparsity):
    """``evaluate_policy_loss`` written out: each target scored, in sample
    order, on the logits cached sparse decoding gives before the target is
    fed as one cached step. Returns the mean and the last sample's
    admissions."""
    total, count = 0.0, 0
    for sample in samples:
        state = m.embed_inputs(model, sample.image_feats, sample.text_ids)
        logits, cache, _ = sp.sparse_prefill(model, preds, state, sparsity)
        admissions = []
        for t, target in enumerate(sample.output_ids):
            shifted = logits - logits.max()
            total += float(np.log(np.exp(shifted).sum()) - shifted[target])
            count += 1
            if t + 1 < len(sample.output_ids):
                position = state.n_prefill + t
                vec = m.embed_output_token(model, int(target), position)
                logits, _ = sp.sparse_decode_with_cache(model, preds, cache, admissions,
                                                        vec, position, sparsity)
    return total / count, admissions


def test_evaluate_policy_loss_under_a_learned_policy_equals_cached_decoding():
    task, model, _, _ = keyed_lookup_setup()
    preds = make_predictors(PredictorConfig(input_dim=32, keep_bias_init=0.0), seed=51)
    samples = task.eval_samples(np.random.default_rng(58), 3)
    sparsity = sp.SparsityConfig(sparsify_layer=1)
    want, admissions = teacher_forced_cached_loss(model, preds, samples, sparsity)
    assert 0 < sum(r.admitted for r in admissions) < len(admissions)
    assert tr.evaluate_policy_loss(model, preds, samples, sparsity) == want


def test_evaluate_policy_loss_rejects_a_sample_without_outputs():
    task, model, preds, _ = keyed_lookup_setup()
    samples = task.eval_samples(np.random.default_rng(54), 2)
    samples[1] = tasks.Sample(samples[1].image_feats, samples[1].text_ids,
                              samples[1].output_ids[:0])
    with pytest.raises(ContractViolation, match="output token"):
        tr.evaluate_policy_loss(model, preds, samples, sp.SparsityConfig(sparsify_layer=1))


@pytest.mark.parametrize("last_id", [-1, "vocab_size", 2.5, 2.0])
def test_evaluate_policy_loss_checks_every_output_id(monkeypatch, last_id):
    """The last target is only scored, never fed, but it is checked as a
    token id like the others, for every sample before any runs. An
    integral float is that id."""
    task, model, preds, _ = keyed_lookup_setup()
    sparsity = sp.SparsityConfig(sparsify_layer=1)
    samples = task.eval_samples(np.random.default_rng(56), 2)
    ids = samples[1].output_ids.astype(np.float64)
    ids[-1] = model.config.vocab_size if last_id == "vocab_size" else last_id
    bad = samples[:1] + [tasks.Sample(samples[1].image_feats, samples[1].text_ids, ids)]
    if last_id == 2.0:
        want = replace(samples[1], output_ids=ids.astype(np.int64))
        assert (tr.evaluate_policy_loss(model, preds, bad, sparsity)
                == tr.evaluate_policy_loss(model, preds, samples[:1] + [want], sparsity))
        return
    ran = []
    monkeypatch.setattr(tr, "_cached_logits", lambda *a: ran.append(a))
    with pytest.raises(ContractViolation, match="token id"):
        tr.evaluate_policy_loss(model, preds, bad, sparsity)
    assert ran == []


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


def test_random_control_draws_the_random_policy_subsets():
    rates = sp.SparsityConfig(image_keep_rate=0.2, output_keep_rate=0.3, policy="random",
                              policy_seed=4)
    m_img, m_out = tr._random_control_masks(np.random.default_rng(4), 3, 15, 11, rates)
    rng = np.random.default_rng(4)
    for b in range(3):
        assert np.flatnonzero(m_img[b]).tolist() == sp._static_keep(15, 0.2, "random", rng).tolist()
        assert np.flatnonzero(m_out[b]).tolist() == sp._static_keep(11, 0.3, "random", rng).tolist()
    inference = sp.select_image_keep(None, np.zeros((15, 8)), rates)
    assert np.flatnonzero(m_img[0]).tolist() == inference.tolist()


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -2),
    ("lr_model", 0.0), ("lr_model", -1e-3), ("lr_model", float("nan")),
    ("lr_model", float("inf")),
    ("lr_predictor", 0.0), ("lr_predictor", -1e-3), ("lr_predictor", float("nan")),
    ("lr_predictor", float("inf")),
    ("lambda_reg", -1.0), ("tau_final", 2.0), ("optimizer", "rmsprop"),
])
def test_train_config_rejects_bad_batch_size_and_learning_rates(field, value):
    with pytest.raises(ContractViolation, match=field):
        tr.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("total_steps", 1.5), ("batch_size", 2.0), ("min_output_len", 0.5),
    ("lambda_warmup_steps", 1.5), ("total_steps", True),
    ("lambda_reg", float("nan")), ("lambda_reg", float("inf")),
    ("momentum", float("nan")), ("momentum", float("inf")),
    ("tau_initial", float("inf")), ("lambda_reg", "100"),
])
def test_training_rejects_a_train_config_of_the_wrong_kind_before_any_weight_moves(
        field, value):
    task, model, preds, train_cfg = keyed_lookup_setup()
    train_cfg = replace(train_cfg, optimizer="sgd", **{field: value})
    sparsity = sp.SparsityConfig(sparsify_layer=1)
    batch = task.training_batch(np.random.default_rng(61), 2)
    before = {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    with np.errstate(all="ignore"):
        with pytest.raises(ContractViolation, match=field):
            tr.run_training(model, preds, task, train_cfg, sparsity)
        with pytest.raises(ContractViolation, match=field):
            tr.training_step(model, preds, batch, train_cfg, sparsity, 0,
                             tr.make_optimizer(model, preds, train_cfg),
                             np.random.default_rng(62))
    for name, arr in tr._grouped_arrays(model, preds):
        assert np.array_equal(arr, before[name]), name


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


def with_first_output(batch, token):
    out = batch.output_ids.copy()
    out[0, 0] = token
    return replace(batch, output_ids=out)


def with_nan_feature(batch):
    feats = batch.image_feats.copy()
    feats[1, 3, 0] = np.nan
    return replace(batch, image_feats=feats)


# (case, fault applied to a valid batch and the model config, message)
FAULTY_BATCHES = [
    ("negative-output-id", lambda b, cfg: with_first_output(b, -1), "output_ids"),
    ("output-id-at-vocab-size", lambda b, cfg: with_first_output(b, cfg.vocab_size),
     "output_ids"),
    ("text-id-past-vocab", lambda b, cfg: replace(b, text_ids=b.text_ids + cfg.vocab_size),
     "text_ids"),
    ("float-ids", lambda b, cfg: replace(b, output_ids=b.output_ids.astype(np.float64)),
     "output_ids"),
    ("bool-ids", lambda b, cfg: replace(b, text_ids=b.text_ids > 0), "text_ids"),
    ("batch-sizes-differ", lambda b, cfg: replace(b, output_ids=b.output_ids[:1]),
     "batch size"),
    ("nan-features", lambda b, cfg: with_nan_feature(b), "finite"),
    ("feature-width", lambda b, cfg: replace(b, image_feats=b.image_feats[..., :-1]),
     "image_feature_dim"),
    ("no-outputs", lambda b, cfg: replace(b, output_ids=b.output_ids[:, :0]), "no output"),
    ("wrong-rank", lambda b, cfg: replace(b, text_ids=b.text_ids[0]), "TrainBatch shapes"),
    ("longer-than-max-seq-len", lambda b, cfg: replace(
        b, text_ids=np.ones((b.size, cfg.max_seq_len), dtype=np.int64)), "max_seq_len"),
]


@pytest.mark.parametrize("case", FAULTY_BATCHES, ids=lambda case: case[0])
def test_training_step_rejects_a_faulty_batch_before_any_weight_moves(case):
    _, fault, message = case
    task, model, preds, train_cfg = keyed_lookup_setup()
    batch = fault(task.training_batch(np.random.default_rng(58), train_cfg.batch_size),
                  model.config)
    optimizer = tr.make_optimizer(model, preds, train_cfg)
    before = {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    with np.errstate(all="ignore"), pytest.raises(ContractViolation, match=message):
        tr.training_step(model, preds, batch, train_cfg, sp.SparsityConfig(sparsify_layer=1),
                         0, optimizer, np.random.default_rng(59))
    for name, arr in tr._grouped_arrays(model, preds):
        assert np.array_equal(arr, before[name]), name


def test_training_forward_checks_the_batch_itself():
    task, model, preds, train_cfg = keyed_lookup_setup()
    batch = task.training_batch(np.random.default_rng(63), train_cfg.batch_size)
    before = {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    _, tape_model, tape_preds = tr._tape_copies(model, preds)
    for bad in (with_first_output(batch, model.config.vocab_size), with_nan_feature(batch)):
        with pytest.raises(ContractViolation, match="TrainBatch"):
            tr.training_forward(tape_model, tape_preds, bad, sp.SparsityConfig(sparsify_layer=1),
                                train_cfg, tau=1.0)
    for name, arr in tr._grouped_arrays(model, preds):
        assert np.array_equal(arr, before[name]), name


def test_train_batch_contract_accepts_the_task_batches():
    task, model, _, train_cfg = keyed_lookup_setup()
    batch = task.training_batch(np.random.default_rng(60), train_cfg.batch_size)
    assert batch.validate(model.config) is batch


@pytest.mark.parametrize("seed", [-1, 2.5, True, None])
def test_run_training_rejects_a_seed_that_is_not_an_integer_at_least_zero(seed):
    task, model, preds, train_cfg = keyed_lookup_setup()
    before = {name: arr.copy() for name, arr in tr._grouped_arrays(model, preds)}
    with pytest.raises(ContractViolation, match="seed"):
        tr.run_training(model, preds, task, replace(train_cfg, seed=seed),
                        sp.SparsityConfig(sparsify_layer=1))
    for name, arr in tr._grouped_arrays(model, preds):
        assert np.array_equal(arr, before[name]), name


def test_lambda_ramps_in_linearly_over_the_warmup():
    cfg = tr.TrainConfig(lambda_reg=100.0, lambda_warmup_steps=10)
    assert [cfg.lambda_at(step) for step in (0, 5, 10, 20)] == [0.0, 50.0, 100.0, 100.0]


def test_temperatures_outside_their_ranges_are_refused():
    cfg = tr.TrainConfig(total_steps=10)
    for step in (-1, 11, 2.5, True):
        with pytest.raises(ContractViolation, match="total_steps"):
            tr.tau_at(step, cfg)
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ContractViolation, match="temperature"):
            tr.gumbel_softmax_rows(np.zeros((2, 2)), tau, np.zeros((2, 2)))


@pytest.mark.parametrize("noise", [
    None, np.zeros((1, 1, 2)), np.zeros((2, 3)), np.full((2, 3, 2), np.nan),
    np.full((2, 3, 2), -np.inf), np.zeros((2, 3, 2), dtype=np.int64),
    np.zeros((2, 3, 2)).tolist(),
], ids=["none", "broadcast", "other-shape", "nan", "inf", "int", "list"])
def test_gumbel_noise_outside_its_contract_is_refused(noise):
    with pytest.raises(ContractViolation, match="noise"):
        tr.gumbel_softmax_rows(ad.Tensor(np.zeros((2, 3, 2))), 1.0, noise)


def test_training_forward_without_noise_or_forced_masks_is_refused():
    """Without noise the learned masks would train on NaN (a 0-d constant)."""
    task, model, preds, train_cfg = keyed_lookup_setup()
    batch = task.training_batch(np.random.default_rng(66), train_cfg.batch_size)
    _, tape_model, tape_preds = tr._tape_copies(model, preds)
    with pytest.raises(ContractViolation, match="noise"):
        tr.training_forward(tape_model, tape_preds, batch, sp.SparsityConfig(sparsify_layer=1),
                            train_cfg, tau=1.0)


def test_training_step_on_a_batch_without_image_tokens():
    task, model, preds, train_cfg = keyed_lookup_setup()
    batch = task.training_batch(np.random.default_rng(64), train_cfg.batch_size)
    batch = replace(batch, image_feats=batch.image_feats[:, :0])
    before = model.lm_head.copy()
    out = tr.training_step(model, preds, batch, train_cfg,
                           sp.SparsityConfig(sparsify_layer=1), 0,
                           tr.make_optimizer(model, preds, train_cfg), np.random.default_rng(65))
    assert np.isfinite(out.total) and np.isfinite(out.cross_entropy)
    assert np.isnan(out.image_keep_fraction)
    assert not np.array_equal(model.lm_head, before)


@pytest.mark.parametrize("field, value", [
    ("n_values", 7), ("n_values", 17), ("n_values", 8.0), ("output_len", 22),
    ("output_len", 25), ("n_keys", 0), ("n_keys", 16), ("output_len", 40.0),
    ("n_image", 0), ("n_image", 15.0), ("n_codes", 0), ("feat_dim", 0),
    ("text_len", 8), ("text_len", 12), ("text_len", -1),
])
def test_keyed_lookup_task_refuses_bad_arguments(field, value):
    with pytest.raises(ContractViolation, match=field):
        tasks.KeyedLookupTask(**{field: value})


@pytest.mark.parametrize("method, name", [("training_batch", "batch_size"),
                                          ("eval_samples", "count")])
@pytest.mark.parametrize("count", [0, -1, 2.5, 2.0, True, "2"])
def test_keyed_lookup_task_refuses_bad_counts(method, name, count):
    with pytest.raises(ContractViolation, match=name):
        getattr(tasks.KeyedLookupTask(), method)(np.random.default_rng(0), count)
