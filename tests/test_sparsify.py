import numpy as np
import pytest

from ctxsparse import model as m
from ctxsparse import sparsify as sp
from ctxsparse.errors import ContractViolation
from ctxsparse.predictors import PredictorConfig, make_predictors

CFG = m.ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                    vocab_size=96, max_seq_len=256, image_feature_dim=32)


def setup(seed=0, n_image=10, n_text=4):
    model = m.make_model(CFG, seed=seed)
    preds = make_predictors(PredictorConfig(input_dim=64), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    feats = rng.normal(size=(n_image, 32))
    ids = rng.integers(1, CFG.vocab_size, size=n_text)
    state = m.embed_inputs(model, feats, ids)
    return model, preds, state


def scfg(**kw):
    base = dict(sparsify_layer=2, image_keep_rate=0.5, output_keep_rate=0.5,
                selection_mode="topk", policy="learned", policy_seed=0)
    base.update(kw)
    return sp.SparsityConfig(**base)


# -- policies -------------------------------------------------------------------


def test_random_policy_mask_counts_and_reproducibility():
    mask = sp.random_policy_mask(10, 0.5, seed=7)
    again = sp.random_policy_mask(10, 0.5, seed=7)
    assert np.array_equal(mask, again)
    # exactly 5 ones before the forced-keep adjustment; forcing can add one
    assert mask.sum() in (5, 6) and mask[-1] == 1
    assert sp.random_policy_mask(6, 1.0, seed=0).tolist() == [1] * 6


def test_structure_policy_mask_patterns():
    assert sp.structure_policy_mask(4).tolist() == [1, 0, 1, 1]
    assert sp.structure_policy_mask(1).tolist() == [1]
    assert sp.structure_policy_mask(0).tolist() == []


# -- sparse prefill --------------------------------------------------------------


def test_sparse_prefill_keep_all_bit_identical_to_plain():
    model, preds, state = setup()
    plain_logits, plain_cache = m.prefill(model, state)
    logits, cache, keep = sp.sparse_prefill(model, preds, state,
                                            scfg(image_keep_rate=1.0))
    assert np.array_equal(plain_logits, logits)
    assert keep.tolist() == list(range(state.n_image))
    assert cache.lengths() == plain_cache.lengths()


def test_sparse_prefill_paper_token_counts():
    cfg = m.ModelConfig(num_layers=3, hidden_dim=32, num_heads=4, ffn_dim=64,
                        vocab_size=64, max_seq_len=600, image_feature_dim=16)
    model = m.make_model(cfg, seed=0)
    preds = make_predictors(PredictorConfig(input_dim=32), seed=1)
    rng = np.random.default_rng(3)
    state = m.embed_inputs(model, rng.normal(size=(576, 16)),
                           rng.integers(1, 64, size=8))
    logits, cache, keep = sp.sparse_prefill(
        model, preds, state, scfg(image_keep_rate=0.2))
    assert keep.size == 115
    assert cache.lengths() == [584, 584, 115 + 8]
    assert np.isfinite(logits).all()


def test_sparse_prefill_layers_below_split_unchanged():
    model, preds, state = setup(5)
    heads = model.config.num_heads
    x = state.prefill_tokens()
    mask = m.causal_mask(x.shape[0])
    for li in range(2):
        x = m.decoder_layer_forward(model.layers[li], x, mask, heads)
    # two different keep rates never change anything at layers <= l
    _, cache_a, _ = sp.sparse_prefill(model, preds, state, scfg(image_keep_rate=0.3))
    _, cache_b, _ = sp.sparse_prefill(model, preds, state, scfg(image_keep_rate=0.9))
    for li in range(2):
        ka, _ = cache_a.stacked(li)
        kb, _ = cache_b.stacked(li)
        assert np.array_equal(ka, kb)


def test_sparse_prefill_argmax_empty_keep_raises():
    model, preds, state = setup(6)
    # zeroed predictor weights tie keep and drop scores; ties drop everything
    for arr in preds.parameters().values():
        arr[...] = 0.0
    with pytest.raises(ContractViolation):
        sp.sparse_prefill(model, preds, state, scfg(selection_mode="argmax"))


# -- no-cache sparse decoding -----------------------------------------------------


def test_sparse_decode_no_cache_keep_all_equals_dense():
    model, preds, state = setup(7)
    m.append_output(model, state, 11)
    m.append_output(model, state, 23)
    dense = m.decode_step_no_cache(model, state)
    sparse = sp.sparse_decode_no_cache(
        model, preds, state, scfg(image_keep_rate=1.0, output_keep_rate=1.0))
    assert np.array_equal(dense, sparse)


def test_sparse_decode_no_cache_forced_keep_of_newest():
    model, preds, state = setup(8)
    for tok in (5, 9, 14):
        m.append_output(model, state, tok)
    _, _, flags = sp.sparse_decode_no_cache(
        model, preds, state, scfg(policy="structure"), return_decisions=True)
    # raw flags may drop the newest token; the effective mask must keep it
    assert flags.shape[0] == 3
    logits = sp.sparse_decode_no_cache(model, preds, state, scfg(policy="structure"))
    assert np.isfinite(logits).all()


def test_decision_stability_across_steps():
    model, preds, state = setup(9)
    cfg = scfg(selection_mode="argmax")
    history = []
    for tok in (3, 8, 2, 31, 7, 19):
        m.append_output(model, state, tok)
        _, keep, flags = sp.sparse_decode_no_cache(
            model, preds, state, cfg, return_decisions=True)
        history.append((keep.tolist(), flags.tolist()))
    for (keep_a, flags_a), (keep_b, flags_b) in zip(history, history[1:]):
        assert keep_a == keep_b
        assert flags_b[:len(flags_a)] == flags_a


# -- cached sparse decoding -------------------------------------------------------


def test_admission_counting_rules():
    model, preds, state = setup(10)
    cfg = scfg()
    logits, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    admissions = []
    below = [cache.length(li) for li in range(2)]
    beyond = [cache.length(li) for li in range(2, 4)]
    position = state.n_prefill
    for step in range(6):
        vec = m.embed_output_token(model, int(np.argmax(logits)) or 1, position)
        logits, admitted = sp.sparse_decode_with_cache(
            model, preds, cache, admissions, vec, position, cfg)
        position += 1
        for li in range(2):
            assert cache.length(li) == below[li] + step + 1
        expect_beyond = sum(1 for r in admissions if r.admitted)
        for li in range(2, 4):
            assert cache.length(li) == beyond[li - 2] + expect_beyond
    assert len(admissions) == 6
    assert all(r.step == i for i, r in enumerate(admissions))


def test_current_token_participates_even_if_rejected():
    """Logits at a step must not depend on the token's own admission."""
    model, preds, state = setup(11)
    cfg = scfg()
    logits, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    vec = m.embed_output_token(model, 4, state.n_prefill)
    admissions = []
    got, _ = sp.sparse_decode_with_cache(
        model, preds, cache, admissions, vec, state.n_prefill, cfg)
    # replay with admission forced on: same-step logits identical
    logits2, cache2, _ = sp.sparse_prefill(model, preds, state,
                                           scfg(output_keep_rate=1.0))
    got2, _ = sp.sparse_decode_with_cache(
        model, preds, cache2, [], vec, state.n_prefill,
        scfg(output_keep_rate=1.0))
    assert np.abs(got - got2).max() <= 1e-12


@pytest.mark.parametrize("policy", ["learned", "random", "structure"])
def test_mode_equivalence_policies(policy):
    model, preds, state = setup(12, n_image=8, n_text=3)
    cfg = scfg(policy=policy, selection_mode="argmax")
    a = sp.sparse_greedy_generate(model, preds, state, cfg, 12, mode="no_cache")
    b = sp.sparse_greedy_generate(model, preds, state, cfg, 12, mode="with_cache")
    assert a.token_ids == b.token_ids
    assert a.image_keep == b.image_keep
    flags_a = [r.admitted for r in a.admissions]
    flags_b = [r.admitted for r in b.admissions]
    assert flags_a == flags_b


def test_one_time_rule_no_readmission():
    model, preds, state = setup(13)
    cfg = scfg()
    trace = sp.sparse_greedy_generate(model, preds, state, cfg, 10, "with_cache")
    logits, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    admissions = []
    position = state.n_prefill
    for tok in trace.token_ids:
        if tok == m.EOS_ID:
            break
        vec = m.embed_output_token(model, tok, position)
        sp.sparse_decode_with_cache(model, preds, cache, admissions, vec,
                                    position, cfg)
        position += 1
    rejected = {r.position for r in admissions if not r.admitted}
    for li in range(2, 4):
        assert rejected.isdisjoint(cache.positions[li])


def test_trace_export_schema():
    model, preds, state = setup(14)
    trace = sp.sparse_greedy_generate(model, preds, state, scfg(), 6, "with_cache")
    blob = trace.to_dict()
    assert blob["schema_version"] == 1
    assert blob["mode"] == "with_cache"
    assert all(set(r) == {"position", "admitted", "step"} for r in blob["admissions"])


# -- batch parity -----------------------------------------------------------------


def batch_of_states(model, seeds, n_images, n_texts):
    states = []
    for seed, ni, nt in zip(seeds, n_images, n_texts):
        rng = np.random.default_rng(seed)
        states.append(m.embed_inputs(
            model, rng.normal(size=(ni, 32)),
            rng.integers(1, CFG.vocab_size, size=nt)))
    return states


def test_batch_prefill_parity_and_counts():
    model, preds, _ = setup(15)
    states = batch_of_states(model, [1, 2, 3], [10, 6, 8], [3, 5, 2])
    batch = sp.PaddedBatch([s.copy() for s in states])
    cfg = scfg(image_keep_rate=0.5)
    logits, keep_sets = sp.batch_sparse_prefill(model, preds, batch, cfg)
    for b, st in enumerate(states):
        ref_logits, _, ref_keep = sp.sparse_prefill(model, preds, st, cfg)
        assert np.abs(logits[b] - ref_logits).max() <= 1e-9
        assert keep_sets[b].tolist() == ref_keep.tolist()
        assert keep_sets[b].size == int(np.floor(0.5 * st.n_image))


def test_batch_prefill_mixed_length_keep_counts():
    cfg_model = m.ModelConfig(num_layers=3, hidden_dim=32, num_heads=4,
                              ffn_dim=64, vocab_size=64, max_seq_len=600,
                              image_feature_dim=16)
    model = m.make_model(cfg_model, seed=0)
    preds = make_predictors(PredictorConfig(input_dim=32), seed=1)
    rng = np.random.default_rng(5)
    sizes = (576, 300)
    states = [m.embed_inputs(model, rng.normal(size=(n, 16)),
                             rng.integers(1, 64, size=4)) for n in sizes]
    _, keep_sets = sp.batch_sparse_prefill(
        model, preds, sp.PaddedBatch(states), scfg(image_keep_rate=0.2))
    assert [k.size for k in keep_sets] == [115, 60]


def test_batch_of_one_matches_single():
    model, preds, state = setup(16)
    cfg = scfg()
    logits, keep_sets = sp.batch_sparse_prefill(
        model, preds, sp.PaddedBatch([state.copy()]), cfg)
    ref, _, ref_keep = sp.sparse_prefill(model, preds, state, cfg)
    assert np.abs(logits[0] - ref).max() <= 1e-9
    assert keep_sets[0].tolist() == ref_keep.tolist()


def test_pad_slots_get_exactly_zero_attention():
    valid = np.array([[False, False, True, True]])
    mask = sp._padded_causal_mask(valid)
    # no real row may attend a pad column
    assert mask[0, 2, 0] == 0.0 and mask[0, 3, 1] == 0.0
    assert mask[0, 2, 2] == 1.0 and mask[0, 3, 2] == 1.0
    from ctxsparse import kernels
    scores = np.random.default_rng(0).normal(size=(4, 4))
    probs = kernels.masked_softmax(scores, mask[0])
    assert (probs[2:, :2] == 0.0).all()


def test_batch_decode_no_cache_parity():
    model, preds, _ = setup(17)
    states = batch_of_states(model, [4, 5, 6, 7], [9, 5, 7, 6], [2, 4, 3, 5])
    rng = np.random.default_rng(33)
    for st in states:
        for tok in rng.integers(1, CFG.vocab_size, size=rng.integers(1, 6)):
            m.append_output(model, st, int(tok))
    cfg = scfg(selection_mode="argmax")
    got = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), cfg,
                                 mode="no_cache")
    for b, st in enumerate(states):
        ref = sp.sparse_decode_no_cache(model, preds, st, cfg)
        assert np.abs(got[b] - ref).max() <= 1e-9


def test_batch_decode_with_cache_parity():
    model, preds, _ = setup(18)
    states = batch_of_states(model, [8, 9, 10], [8, 5, 10], [3, 4, 2])
    rng = np.random.default_rng(44)
    for st in states:
        for tok in rng.integers(1, CFG.vocab_size, size=4):
            m.append_output(model, st, int(tok))
    cfg = scfg()
    got = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), cfg,
                                 mode="with_cache")
    for b, st in enumerate(states):
        logits, cache, _ = sp.sparse_prefill(
            model, preds,
            m.SequenceState(st.image, st.text, np.zeros((0, 64))), cfg)
        admissions = []
        for t in range(st.n_output):
            logits, _ = sp.sparse_decode_with_cache(
                model, preds, cache, admissions, st.output[t],
                st.n_prefill + t, cfg)
        assert np.abs(got[b] - logits).max() <= 1e-9


def test_batch_with_text_only_lane_matches_single():
    model, preds, _ = setup(19)
    states = batch_of_states(model, [11, 12], [10, 0], [3, 3])
    cfg = scfg()
    logits, keep_sets = sp.batch_sparse_prefill(
        model, preds, sp.PaddedBatch([s.copy() for s in states]), cfg)
    for b, st in enumerate(states):
        ref, _, ref_keep = sp.sparse_prefill(model, preds, st, cfg)
        assert np.abs(logits[b] - ref).max() <= 1e-9
        assert keep_sets[b].tolist() == ref_keep.tolist()
    assert keep_sets[1].tolist() == []
    for st in states:
        for tok in (5, 17, 29):
            m.append_output(model, st, tok)
    no_cache = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), cfg,
                                      mode="no_cache")
    with_cache = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), cfg,
                                        mode="with_cache")
    for b, st in enumerate(states):
        ref, ref_keep, _ = sp.sparse_decode_no_cache(model, preds, st, cfg,
                                                     return_decisions=True)
        assert ref_keep.tolist() == keep_sets[b].tolist()
        assert np.abs(no_cache[b] - ref).max() <= 1e-9
        prompt = m.SequenceState(st.image, st.text, np.zeros((0, 64)))
        ref, cache, _ = sp.sparse_prefill(model, preds, prompt, cfg)
        admissions = []
        for t in range(st.n_output):
            ref, _ = sp.sparse_decode_with_cache(model, preds, cache, admissions,
                                                 st.output[t], st.n_prefill + t, cfg)
        assert np.abs(with_cache[b] - ref).max() <= 1e-9


def test_generation_stop_reasons():
    cfg_model = m.ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                              vocab_size=96, max_seq_len=128, image_feature_dim=32)
    model = m.make_model(cfg_model, seed=20)
    preds = make_predictors(PredictorConfig(input_dim=64), seed=21)
    rng = np.random.default_rng(22)
    state = m.embed_inputs(model, rng.normal(size=(100, 32)),
                           rng.integers(1, 96, size=3))
    cfg = scfg()
    traces = [sp.sparse_greedy_generate(model, preds, state, cfg, 40, mode=mode)
              for mode in ("no_cache", "with_cache")]
    # tokens for input positions 103..128; the last one has no position left
    assert traces[0].token_ids == traces[1].token_ids
    assert len(traces[0].token_ids) == 128 - 103 + 1
    assert [t.to_dict()["stop_reason"] for t in traces] == ["max_seq_len"] * 2
    assert sp.sparse_greedy_generate(model, preds, state, cfg, 5).stop_reason \
        == "max_new_tokens"
    model.lm_head[...] = 0.0  # all-zero logits: argmax tie -> EOS
    assert sp.sparse_greedy_generate(model, preds, state, cfg, 5).stop_reason == "eos"


def test_sparse_greedy_generate_rejects_negative_max_new_tokens():
    model, preds, state = setup(23)
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match="max_new_tokens"):
            sp.sparse_greedy_generate(model, preds, state, scfg(), -3, mode=mode)
        with pytest.raises(ContractViolation, match="max_new_tokens"):
            m.greedy_generate(model, state, -3, mode=mode)
