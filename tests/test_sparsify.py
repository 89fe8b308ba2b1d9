import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ctxsparse import model as m
from ctxsparse import sparsify as sp
from ctxsparse.errors import ContractViolation
from ctxsparse.predictors import (PredictorConfig, _keep_count, decisions_to_mask,
                                  make_predictors, select_topk_keep)

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


BUDGET_PREDICTORS = make_predictors(PredictorConfig(input_dim=64), seed=9)


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n", [1, 4, 5, 15, 576])
@pytest.mark.parametrize("policy", sp.POLICIES)
def test_every_policy_keeps_the_keep_count_of_image_tokens(policy, n, rate):
    rows = np.random.default_rng(n).normal(size=(n, 64))

    def keep(seed=0):
        cfg = scfg(image_keep_rate=rate, policy=policy, policy_seed=seed)
        return sp.select_image_keep(BUDGET_PREDICTORS, rows, cfg)
    kept = keep()
    assert kept.size == _keep_count(n, rate)
    assert np.array_equal(kept, np.unique(kept)) and 0 <= kept[0] and kept[-1] < n
    if policy == "random":
        assert np.array_equal(kept, keep())
        sets = {tuple(keep(seed)) for seed in range(8)}
        assert (len(sets) == 1) if kept.size == n else (len(sets) > 1)


@pytest.mark.parametrize("rate", [0.2, 0.3, 0.5, 0.75])
def test_structure_outputs_keep_the_rate_of_every_prefix(rate):
    cfg = scfg(policy="structure", output_keep_rate=rate)
    flags = sp._output_flags(None, np.zeros((512, 1)), cfg)
    admitted = [sp._output_flags(None, np.zeros((1, 1)), cfg, i)[0] for i in range(512)]
    assert flags.tolist() == admitted
    kept = np.concatenate([[0], np.cumsum(flags)])  # of the first m outputs, m <= 512
    assert np.all(np.abs(kept - np.arange(513) * rate) < 1)
    model, preds, state = setup(7)
    cfg = scfg(sparsify_layer=0, policy="structure", output_keep_rate=rate)
    for mode in sp.DECODE_MODES:
        trace = sp.sparse_greedy_generate(model, preds, state, cfg, 12, mode=mode)
        assert [r.admitted for r in trace.admissions] == flags[:11].astype(bool).tolist()


@pytest.mark.parametrize("call, match", [
    (lambda: select_topk_keep(np.zeros((4, 2)), "0.5"), "keep_rate"),
    (lambda: select_topk_keep(np.zeros(4), 0.5), r"not \(n, 2\)"),
    (lambda: select_topk_keep(np.zeros((4, 3)), 0.5), r"not \(n, 2\)"),
    (lambda: decisions_to_mask(np.zeros((3, 3))), r"not \(n, 2\)"),
    (lambda: decisions_to_mask(np.zeros(4)), r"not \(n, 2\)"),
    (lambda: sp.select_image_keep(None, np.zeros((4, 64)), scfg(policy="random", policy_seed=-1)),
     "policy_seed"),
    (lambda: sp.select_image_keep(None, np.zeros((4, 64)), scfg(policy="random", policy_seed=1.5)),
     "policy_seed"),
    (lambda: sp.select_image_keep(None, np.zeros((4, 64)),
                                  scfg(policy="random", image_keep_rate="0.5")), "image_keep_rate"),
    (lambda: sp.select_image_keep(None, np.zeros((4, 64)),
                                  scfg(policy="structure", image_keep_rate="0.5")),
     "image_keep_rate"),
], ids=["topk-str-rate", "topk-1d", "topk-3-columns", "mask-3-columns", "mask-1d",
        "random-negative-seed", "random-float-seed", "random-str-rate", "structure-str-rate"])
def test_selection_helpers_refuse_a_bad_rate_shape_or_seed(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()


def test_sparsify_layer_range_includes_zero():
    for layer in (-1, CFG.num_layers):
        with pytest.raises(ContractViolation, match="sparsify_layer"):
            scfg(sparsify_layer=layer).validate(CFG.num_layers)
    assert scfg(sparsify_layer=0).validate(CFG.num_layers).sparsify_layer == 0


@pytest.mark.parametrize("field, value", [
    ("sparsify_layer", 1.5), ("sparsify_layer", "1"), ("sparsify_layer", True),
    ("image_keep_rate", "0.5"), ("output_keep_rate", "0.5"), ("output_keep_rate", True),
    ("policy_seed", -1), ("policy_seed", 1.5), ("policy_seed", "0"),
    ("selection_mode", "greedy"),
])
def test_sparsity_config_rejects_values_of_the_wrong_kind(field, value):
    for policy in sp.POLICIES:
        with pytest.raises(ContractViolation, match=field):
            scfg(policy=policy, **{field: value}).validate(CFG.num_layers)
    model, preds, state = setup(5)
    with pytest.raises(ContractViolation, match=field):
        sp.sparse_prefill(model, preds, state, scfg(policy="random", **{field: value}))


def test_sparsity_config_accepts_numpy_scalars():
    cfg = scfg(sparsify_layer=np.int64(1), image_keep_rate=np.float64(0.5),
               output_keep_rate=np.float32(0.5), policy_seed=np.int32(3))
    assert cfg.validate(CFG.num_layers) is cfg


@pytest.mark.parametrize("policy", ["learned", "random", "structure"])
def test_mode_equivalence_at_layer_zero(policy):
    admitted = set()
    for seed in range(10):
        model, preds, state = setup(60 + seed, n_image=12, n_text=3)
        for arr in (preds.image_mlp_b[-1], preds.output_mlp_b[-1]):
            arr[1] = 0.0  # no keep bias: the learned output decisions vary
        cfg = scfg(sparsify_layer=0, policy=policy)
        a = sp.sparse_greedy_generate(model, preds, state, cfg, 8, mode="no_cache")
        b = sp.sparse_greedy_generate(model, preds, state, cfg, 8, mode="with_cache")
        assert a.token_ids == b.token_ids
        assert a.image_keep == b.image_keep and len(a.image_keep) < state.n_image
        assert [r.admitted for r in a.admissions] == [r.admitted for r in b.admissions]
        admitted.update(r.admitted for r in b.admissions)
    assert admitted == {True, False}


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


def test_learned_sparse_prefill_keeps_one_of_a_few_image_tokens():
    # floor(0.2 * 4) == 0: top-k keeps the best-scored image token
    model, preds, state = setup(7, n_image=4)
    _, cache, keep = sp.sparse_prefill(model, preds, state, sp.SparsityConfig())
    assert keep.size == 1
    assert cache.lengths() == [8, 8, 5, 5]


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


def layer_snapshot(cache, li):
    k, v = cache.stacked(li)
    return k.copy(), v.copy(), list(cache.positions[li]), cache.length(li)


def assert_same_layer(a, b):
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert a[2:] == b[2:]


def test_rejected_row_is_not_kept_and_the_next_admitted_row_overwrites_it(monkeypatch):
    model, preds, state = setup(15)
    cfg = scfg(policy="structure")  # admits output tokens 0, 2, 4, ...
    logits, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    written = []
    attend = sp.attend_cached
    monkeypatch.setattr(sp, "attend_cached",
                        lambda *a: written.append(attend(*a)) or written[-1])
    admissions, position = [], state.n_prefill

    def step(token):
        nonlocal position
        written.clear()
        vec = m.embed_output_token(model, token, position)
        position += 1
        return sp.sparse_decode_with_cache(model, preds, cache, admissions, vec,
                                           position - 1, cfg)[1]

    assert step(5)
    before = [layer_snapshot(cache, li) for li in range(4)]
    assert not step(6)
    for li in range(2):
        assert cache.length(li) == before[li][3] + 1
    for li in range(2, 4):
        assert_same_layer(layer_snapshot(cache, li), before[li])
    assert step(7)
    for li in range(2, 4):
        k, v = cache.stacked(li)
        old = before[li][3]
        assert cache.length(li) == old + 1 and cache.positions[li][-1] == position - 1
        assert np.array_equal(k[:old], before[li][0]) and np.array_equal(v[:old], before[li][1])
        assert np.array_equal(k[old], written[li][1]) and np.array_equal(v[old], written[li][2])


def test_cached_step_with_conflicting_position_leaves_cache_unchanged():
    model, preds, state = setup(16)
    cfg = scfg()
    _, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    position = state.n_prefill
    # a row at a later position in the deepest layer only: the step's
    # position conflicts there and nowhere else
    k, v = cache.stacked(3)
    cache.extend(3, k[-1:] + 1.0, v[-1:] + 1.0, [position + 1])
    before = [layer_snapshot(cache, li) for li in range(4)]
    vec = m.embed_output_token(model, 5, position)
    for bad in (position, position + 1, 0):
        with pytest.raises(ContractViolation):
            sp.sparse_decode_with_cache(model, preds, cache, [], vec, bad, cfg)
        for li in range(4):
            assert_same_layer(layer_snapshot(cache, li), before[li])
    vec = m.embed_output_token(model, 5, position + 2)
    logits, admitted = sp.sparse_decode_with_cache(model, preds, cache, [], vec,
                                                   position + 2, cfg)
    assert np.isfinite(logits).all()
    for li in range(4):
        grew = li < 2 or admitted
        assert cache.length(li) == before[li][3] + grew
        assert cache.positions[li][-1] == (position + 2 if grew else before[li][2][-1])


def test_cached_step_with_malformed_token_leaves_cache_unchanged():
    model, preds, state = setup(16)
    cfg = scfg()
    _, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    _, fresh, _ = sp.sparse_prefill(model, preds, state, cfg)
    position = state.n_prefill
    before = [layer_snapshot(cache, li) for li in range(4)]
    vec = m.embed_output_token(model, 5, position)
    admissions = []
    for bad in (vec[None], np.stack([vec, vec]), vec[:32]):
        with pytest.raises(ContractViolation, match="token shape"):
            sp.sparse_decode_with_cache(model, preds, cache, admissions, bad,
                                        position, cfg)
        assert admissions == []
        for li in range(4):
            assert_same_layer(layer_snapshot(cache, li), before[li])
    got = sp.sparse_decode_with_cache(model, preds, cache, admissions, vec, position, cfg)
    ref = sp.sparse_decode_with_cache(model, preds, fresh, [], vec, position, cfg)
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    for li in range(4):
        assert_same_layer(layer_snapshot(cache, li), layer_snapshot(fresh, li))


def assert_rejected_steps_leave_the_cache_unchanged(faults, match, seed=17):
    """Each of ``faults`` maps (model, token vector, position) to the
    arguments, by name, that it changes in one valid cached step (l = 1).
    Each faulty step must raise ``ContractViolation`` matching ``match``
    before any layer writes. After them all, the cache and the admissions
    equal a clean cache's, and so does the next valid step."""
    model, preds, state = setup(seed)
    cfg = scfg(sparsify_layer=1)
    _, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    _, fresh, _ = sp.sparse_prefill(model, preds, state, cfg)
    position = state.n_prefill
    vec = m.embed_output_token(model, 5, position)
    admissions = []
    before = [layer_snapshot(cache, li) for li in range(4)]
    for fault in faults:
        args = dict(model=model, predictors=preds, cache=cache, admissions=admissions,
                    last_token=vec, position=position, cfg=cfg)
        args.update(fault(model, vec, position))
        step_cache = args["cache"]
        other = step_cache.lengths(), [list(p) for p in step_cache.positions]
        with np.errstate(all="ignore"), pytest.raises(ContractViolation, match=match):
            sp.sparse_decode_with_cache(**args)
        assert admissions == []
        assert (step_cache.lengths(), step_cache.positions) == other
        for li in range(4):
            assert_same_layer(layer_snapshot(cache, li), before[li])
    got = sp.sparse_decode_with_cache(model, preds, cache, admissions, vec, position, cfg)
    ref = sp.sparse_decode_with_cache(model, preds, fresh, [], vec, position, cfg)
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1] and len(admissions) == 1
    for li in range(4):
        assert_same_layer(layer_snapshot(cache, li), layer_snapshot(fresh, li))


def test_cached_step_with_a_non_integer_position_leaves_cache_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"position": pos + 0.5},
        lambda model, vec, pos: {"position": float(pos)},
        lambda model, vec, pos: {"position": None},
        lambda model, vec, pos: {"position": str(pos)},
    ], match="position")


def test_cached_step_at_or_past_max_seq_len_leaves_cache_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"position": model.config.max_seq_len},
        lambda model, vec, pos: {"position": 500},
    ], match="max_seq_len")


def test_cached_step_with_a_non_finite_token_leaves_cache_unchanged():
    def poisoned(value):
        def fault(model, vec, pos):
            token = vec.copy()
            token[3] = value
            return {"last_token": token}
        return fault
    assert_rejected_steps_leave_the_cache_unchanged(
        [poisoned(np.nan), poisoned(np.inf), poisoned(-np.inf)], match="finite")


def test_cached_step_with_admissions_that_are_not_a_list_leaves_cache_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"admissions": None},
        lambda model, vec, pos: {"admissions": ()},
    ], match="admissions")


def test_cached_step_with_a_cache_of_another_layer_count_leaves_it_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"cache": m.KVCacheStore(3)},
        lambda model, vec, pos: {"cache": m.KVCacheStore(5)},
    ], match="layers")


def test_cached_step_without_usable_predictors_leaves_cache_unchanged():
    """The learned policy consults the predictors at layer l = 1, after
    layer 0 has run; the check comes before layer 0."""
    narrow = make_predictors(PredictorConfig(input_dim=32), seed=19)
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"predictors": None},
        lambda model, vec, pos: {"predictors": narrow},
    ], match="predictors")


def test_cached_step_with_a_token_that_is_not_an_ndarray_leaves_cache_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"last_token": vec.tolist()},
        lambda model, vec, pos: {"last_token": tuple(vec)},
    ], match="ndarray")


def test_cached_step_with_a_token_that_is_not_real_floating_leaves_cache_unchanged():
    assert_rejected_steps_leave_the_cache_unchanged([
        lambda model, vec, pos: {"last_token": vec.astype(object)},
        lambda model, vec, pos: {"last_token": vec.astype(np.complex128)},
    ], match="real floating")


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


@pytest.mark.parametrize("mode", ["no_cache", "with_cache"])
def test_trace_to_dict_survives_json_and_names_every_field(mode):
    model, preds, state = setup(15)
    blob = sp.sparse_greedy_generate(model, preds, state, scfg(), 6, mode).to_dict()
    text = json.dumps(blob)
    assert json.loads(text) == blob and json.dumps(json.loads(text)) == text
    assert list(blob) == ["schema_version"] + [f.name for f in fields(sp.GenerationTrace)]
    assert len(blob["admissions"]) == 5
    assert all(list(r) == [f.name for f in fields(sp.AdmissionRecord)]
               for r in blob["admissions"])


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


@pytest.mark.parametrize("policy", ["learned", "random", "structure"])
def test_single_is_a_batch_of_one_bit_for_bit(policy):
    # 70 image + 4 text tokens: past one 64-row attention block
    model, preds, state = setup(20, n_image=70, n_text=4)
    preds.output_mlp_b[-1][1] = 0.0  # no keep bias: the learned flags vary
    cfg = scfg(policy=policy)
    logits, keep_sets = sp.batch_sparse_prefill(
        model, preds, sp.PaddedBatch([state.copy()]), cfg)
    ref, _, ref_keep = sp.sparse_prefill(model, preds, state, cfg)
    assert np.array_equal(logits[0], ref)
    assert np.array_equal(keep_sets[0], ref_keep)
    for tok in (5, 17, 29, 41, 53, 65):
        m.append_output(model, state, tok)
    got = sp.batch_sparse_decode(model, preds, sp.PaddedBatch([state]), cfg,
                                 mode="no_cache")
    ref, ref_keep, ref_flags = sp.sparse_decode_no_cache(model, preds, state, cfg,
                                                         return_decisions=True)
    # some outputs dropped and some kept, so equal logits need equal flags
    assert 0 < ref_flags[:-1].sum() < len(ref_flags) - 1
    assert np.array_equal(got[0], ref)
    assert np.array_equal(ref_keep, keep_sets[0])
    # the same hidden row; BLAS may round the n-row and 1-row lm_head
    # products differently in the last couple of ulps
    gap = m.full_logits(model, state)[-1] - m.decode_step_no_cache(model, state)
    assert np.abs(gap).max() <= 1e-12


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


def sequential_with_cache(model, preds, state, cfg):
    logits, cache, _ = sp.sparse_prefill(model, preds, state, cfg)
    admissions = []
    for t in range(state.n_output):
        logits, _ = sp.sparse_decode_with_cache(model, preds, cache, admissions,
                                                state.output[t], state.n_prefill + t, cfg)
    return logits


def test_batch_decode_with_cache_unequal_histories_equal_sequential():
    model, preds, _ = setup(24)
    states = batch_of_states(model, [5, 6, 7], [9, 12, 7], [4, 3, 5])
    rng = np.random.default_rng(25)
    for st, n_out in zip(states, (2, 5, 3)):
        for tok in rng.integers(1, CFG.vocab_size, size=n_out):
            m.append_output(model, st, int(tok))
    cfg = scfg()
    got = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), cfg,
                                 mode="with_cache")
    for b, st in enumerate(states):
        assert np.array_equal(got[b], sequential_with_cache(model, preds, st, cfg))


def test_batch_decode_rejects_lane_without_outputs_in_both_modes():
    model, preds, _ = setup(26)
    states = batch_of_states(model, [1, 2], [6, 8], [3, 4])
    m.append_output(model, states[0], 7)
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match="every sample needs output tokens"):
            sp.batch_sparse_decode(model, preds, sp.PaddedBatch(states), scfg(),
                                   mode=mode)


def test_decoding_a_state_without_prompt_rows_is_refused_in_both_modes():
    model, preds, _ = setup(27)
    empty = np.zeros((0, CFG.hidden_dim))
    state = m.SequenceState(empty, empty.copy(), empty.copy())
    for token in (5, 9):
        m.append_output(model, state, token)
    with pytest.raises(ContractViolation, match="empty state"):
        sp.sparse_decode_no_cache(model, preds, state, scfg())
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match="empty state"):
            sp.batch_sparse_decode(model, preds, sp.PaddedBatch([state]), scfg(), mode=mode)


def no_layer_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a layer ran")
    monkeypatch.setattr(sp, "layer_forward", refuse)
    monkeypatch.setattr(sp, "attend_cached", refuse)


@pytest.mark.parametrize("name, rows", [
    ("image", np.zeros((3, 32))), ("image", np.zeros(64)),
    ("text", np.zeros((2, 1, 64))), ("text", [[0.0] * 64]),
    ("output", np.zeros((1, 63))), ("output", np.zeros(64)),
])
def test_forwards_refuse_a_state_whose_rows_do_not_fit_the_model(monkeypatch, name, rows):
    model, preds, state = setup(28)
    for token in (5, 9):
        m.append_output(model, state, token)
    setattr(state, name, rows)
    no_layer_runs(monkeypatch)
    calls = [lambda: sp.sparse_prefill(model, preds, state, scfg()),
             lambda: sp.sparse_decode_no_cache(model, preds, state, scfg()),
             lambda: sp.batch_sparse_prefill(model, preds, sp.PaddedBatch([state]), scfg()),
             lambda: m.full_logits(model, state),
             lambda: m.decode_step_no_cache(model, state)]
    for call in calls:
        with pytest.raises(ContractViolation, match=f"state {name} rows"):
            call()


def test_forwards_refuse_a_state_longer_than_max_seq_len(monkeypatch):
    short = m.make_model(m.ModelConfig(num_layers=2, hidden_dim=64, max_seq_len=64), seed=3)
    rng = np.random.default_rng(29)
    fits = m.SequenceState(rng.normal(size=(50, 64)), rng.normal(size=(14, 64)),
                           np.zeros((0, 64)))
    assert np.isfinite(m.prefill(short, fits)[0]).all()  # 64 rows run
    long_prompt = m.SequenceState(rng.normal(size=(60, 64)), rng.normal(size=(12, 64)),
                                  np.zeros((0, 64)))
    long_outputs = m.SequenceState(fits.image, fits.text, rng.normal(size=(8, 64)),
                                   list(range(1, 9)))
    no_layer_runs(monkeypatch)
    cfg = scfg(sparsify_layer=1, policy="structure")
    for call, state in [(sp.sparse_prefill, long_prompt),
                        (sp.sparse_decode_no_cache, long_outputs)]:
        with pytest.raises(ContractViolation, match="72 rows exceeds max_seq_len 64"):
            call(short, None, state, cfg)
    for call in (m.full_logits, m.decode_step_no_cache):
        with pytest.raises(ContractViolation, match="max_seq_len"):
            call(short, long_outputs)


@pytest.mark.parametrize("name", ["image", "text", "output"])
def test_generation_and_batch_decoding_check_the_state_before_reading_it(monkeypatch, name):
    """A state whose rows are nested lists fails the state check before
    either entry point reads its token counts."""
    model, preds, prompt_only = setup(31)
    state = prompt_only.copy()
    m.append_output(model, state, 5)
    for st in (prompt_only, state):
        setattr(st, name, getattr(st, name).tolist())
    no_layer_runs(monkeypatch)
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match=f"state {name} rows"):
            sp.sparse_greedy_generate(model, preds, prompt_only, scfg(), 3, mode=mode)
        with pytest.raises(ContractViolation, match=f"state {name} rows"):
            sp.batch_sparse_decode(model, preds, sp.PaddedBatch([state]), scfg(), mode=mode)


def test_no_cache_decoding_refuses_a_prompt_only_state(monkeypatch):
    model, preds, state = setup(32)
    no_layer_runs(monkeypatch)
    with pytest.raises(ContractViolation, match="needs >= 1 output token"):
        sp.sparse_decode_no_cache(model, preds, state, scfg())


def test_an_unknown_policy_or_mode_is_refused_before_any_layer_runs(monkeypatch):
    model, preds, state = setup(33)
    no_layer_runs(monkeypatch)
    with pytest.raises(ContractViolation, match="unknown policy 'oracle'"):
        sp.sparse_prefill(model, preds, state, scfg(policy="oracle"))
    with pytest.raises(ContractViolation, match="unknown mode 'fast'"):
        sp.sparse_greedy_generate(model, preds, state, scfg(), 2, mode="fast")
    with pytest.raises(ContractViolation, match="unknown mode 'fast'"):
        sp.batch_sparse_decode(model, preds, sp.PaddedBatch([state]), scfg(), mode="fast")


@pytest.mark.parametrize("entry", [1, None, "state", (np.zeros((2, 64)),)])
def test_padded_batch_refuses_an_entry_that_is_not_a_state(entry):
    _, _, state = setup(30)
    with pytest.raises(ContractViolation, match="not a SequenceState"):
        sp.PaddedBatch([state, entry])


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


@pytest.mark.parametrize("policy", ["learned", "random", "structure"])
def test_batch_equals_its_lanes_bit_for_bit(policy):
    model, preds, _ = setup(27)
    preds.output_mlp_b[-1][1] = 0.0  # no keep bias: the learned flags vary
    # mixed lengths, one lane text-only and one past a 64-row attention block
    states = batch_of_states(model, [31, 32, 33, 34], [12, 0, 70, 5], [3, 4, 2, 6])
    cfg = scfg(policy=policy)
    logits, keep_sets = sp.batch_sparse_prefill(
        model, preds, sp.PaddedBatch([s.copy() for s in states]), cfg)
    for b, st in enumerate(states):
        ref, _, ref_keep = sp.sparse_prefill(model, preds, st, cfg)
        assert np.array_equal(logits[b], ref)
        assert np.array_equal(keep_sets[b], ref_keep)
    rng = np.random.default_rng(35)
    for st, n_out in zip(states, (1, 4, 6, 3)):
        for tok in rng.integers(1, CFG.vocab_size, size=n_out):
            m.append_output(model, st, int(tok))
    batch = [s.copy() for s in states]
    no_cache = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(batch), cfg,
                                      mode="no_cache")
    with_cache = sp.batch_sparse_decode(model, preds, sp.PaddedBatch(batch), cfg,
                                        mode="with_cache")
    for b, st in enumerate(states):
        assert np.array_equal(no_cache[b], sp.sparse_decode_no_cache(model, preds, st, cfg))
        assert np.array_equal(with_cache[b], sequential_with_cache(model, preds, st, cfg))


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


def test_generation_makes_one_step_per_fed_back_token(monkeypatch):
    model, preds, state = setup(25)  # no EOS within 9 tokens
    cfg = scfg()
    modes = ("no_cache", "with_cache")
    longer = {mode: sp.sparse_greedy_generate(model, preds, state, cfg, 9, mode=mode)
              for mode in modes}
    dense = {mode: m.greedy_generate(model, state, 9, mode=mode) for mode in modes}
    assert all(t.stop_reason == "max_new_tokens" for t in longer.values())
    steps = []
    for name in ("sparse_decode_no_cache", "sparse_decode_with_cache"):
        step = getattr(sp, name)
        monkeypatch.setattr(sp, name, lambda *a, step=step, **kw: steps.append(1) or step(*a, **kw))
    for n in (1, 6):
        for mode in modes:
            steps.clear()
            trace = sp.sparse_greedy_generate(model, preds, state, cfg, n, mode=mode)
            assert len(steps) == n - 1
            assert trace.token_ids == longer[mode].token_ids[:n]
            assert [r.position for r in trace.admissions] == \
                list(range(state.n_prefill, state.n_prefill + n - 1))
            steps.clear()
            assert m.greedy_generate(model, state, n, mode=mode) == dense[mode][:n]
            assert len(steps) == n - 1


def test_generation_rejects_a_max_new_tokens_that_is_not_an_integer():
    model, preds, state = setup(23)
    for bad in (2.5, None, "3", True):
        for mode in ("no_cache", "with_cache"):
            with pytest.raises(ContractViolation, match="max_new_tokens"):
                sp.sparse_greedy_generate(model, preds, state, scfg(), bad, mode=mode)
            with pytest.raises(ContractViolation, match="max_new_tokens"):
                m.greedy_generate(model, state, bad, mode=mode)


def test_entry_points_reject_a_learned_config_without_usable_predictors():
    """The learned policy below keep rate 1 consults the predictors: every
    entry point refuses to run without them, or with predictors of another
    width, before any work. Other configs run without predictors."""
    model, _, state = setup(24)
    narrow = make_predictors(PredictorConfig(input_dim=32), seed=25)
    with_output = state.copy()
    m.append_output(model, with_output, 7)
    batch = sp.PaddedBatch([with_output])
    calls = [
        lambda p, cfg: sp.sparse_prefill(model, p, state, cfg),
        lambda p, cfg: sp.sparse_decode_no_cache(model, p, with_output, cfg),
        lambda p, cfg: sp.batch_sparse_prefill(model, p, batch, cfg),
        lambda p, cfg: sp.batch_sparse_decode(model, p, batch, cfg, mode="no_cache"),
        lambda p, cfg: sp.batch_sparse_decode(model, p, batch, cfg, mode="with_cache"),
        lambda p, cfg: sp.sparse_greedy_generate(model, p, state, cfg, 3, mode="no_cache"),
        lambda p, cfg: sp.sparse_greedy_generate(model, p, state, cfg, 3, mode="with_cache"),
    ]
    for cfg in (scfg(), scfg(image_keep_rate=1.0), scfg(output_keep_rate=1.0)):
        for call in calls:
            for bad in (None, narrow):
                with pytest.raises(ContractViolation, match="predictors"):
                    call(bad, cfg)
    for cfg in (scfg(policy="random"), scfg(policy="structure"),
                scfg(image_keep_rate=1.0, output_keep_rate=1.0)):
        for call in calls:
            call(None, cfg)


def test_sparse_greedy_generate_rejects_negative_max_new_tokens():
    model, preds, state = setup(23)
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match="max_new_tokens"):
            sp.sparse_greedy_generate(model, preds, state, scfg(), -3, mode=mode)
        with pytest.raises(ContractViolation, match="max_new_tokens"):
            m.greedy_generate(model, state, -3, mode=mode)


def test_generation_refuses_a_state_that_already_holds_outputs(monkeypatch):
    """Generation numbers its tokens from ``n_prefill``, so a state with
    outputs is refused in both modes before any cache is built."""
    model, preds, state = setup(26)
    for token in (11, 23, 5):
        m.append_output(model, state, token)
    built = []
    monkeypatch.setattr(sp, "KVCacheStore", lambda *a: built.append(a))
    for mode in ("no_cache", "with_cache"):
        for n in (0, 3):
            with pytest.raises(ContractViolation, match="prompt-only"):
                sp.sparse_greedy_generate(model, preds, state, scfg(), n, mode=mode)
            with pytest.raises(ContractViolation, match="prompt-only"):
                m.greedy_generate(model, state, n, mode=mode)
    assert built == [] and state.n_output == 3


SMALL =m.ModelConfig(num_layers=3, hidden_dim=32, num_heads=4, ffn_dim=64,
                      vocab_size=48, max_seq_len=64, image_feature_dim=16)


def test_generation_of_zero_tokens_still_checks_the_config_and_predictors():
    model = m.make_model(SMALL, seed=28)
    preds = make_predictors(PredictorConfig(input_dim=32), seed=29)
    state = m.embed_inputs(model, np.ones((4, 16)), [3, 4])
    for mode in ("no_cache", "with_cache"):
        with pytest.raises(ContractViolation, match="sparsify_layer"):
            sp.sparse_greedy_generate(model, preds, state, scfg(sparsify_layer=7), 0,
                                      mode=mode)
        with pytest.raises(ContractViolation, match="predictors"):
            sp.sparse_greedy_generate(model, None, state, scfg(sparsify_layer=1), 0,
                                      mode=mode)
        assert sp.sparse_greedy_generate(model, preds, state, scfg(sparsify_layer=1), 0,
                                         mode=mode).token_ids == []


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2 ** 16), n_image=hs.integers(0, 16), n_text=hs.integers(1, 5),
       layer=hs.integers(0, SMALL.num_layers - 1), image_keep=hs.floats(0.1, 1.0),
       output_keep=hs.floats(0.1, 1.0), policy=hs.sampled_from(sp.POLICIES),
       selection=hs.sampled_from(sp.SELECTION_MODES), new_tokens=hs.integers(1, 8))
def test_cached_and_no_cache_generation_agree(seed, n_image, n_text, layer, image_keep,
                                              output_keep, policy, selection, new_tokens):
    model = m.make_model(SMALL, seed=seed)
    preds = make_predictors(PredictorConfig(input_dim=SMALL.hidden_dim), seed=seed + 1)
    for arr in (preds.image_mlp_b[-1], preds.output_mlp_b[-1]):
        arr[1] = 0.0  # no keep bias: the learned decisions vary
    rng = np.random.default_rng(seed + 2)
    state = m.embed_inputs(model, rng.normal(size=(n_image, SMALL.image_feature_dim)),
                           rng.integers(1, SMALL.vocab_size, size=n_text))
    cfg = sp.SparsityConfig(sparsify_layer=layer, image_keep_rate=image_keep,
                            output_keep_rate=output_keep, selection_mode=selection,
                            policy=policy, policy_seed=seed)
    runs = []
    for mode in ("no_cache", "with_cache"):
        try:
            runs.append(sp.sparse_greedy_generate(model, preds, state, cfg, new_tokens,
                                                  mode=mode))
        except ContractViolation as exc:  # e.g. a top-k keep count of 0
            runs.append(str(exc))
    a, b = runs
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.token_ids == b.token_ids
    assert a.image_keep == b.image_keep
    assert a.stop_reason == b.stop_reason
    assert [(r.position, r.admitted, r.step) for r in a.admissions] == \
        [(r.position, r.admitted, r.step) for r in b.admissions]


# -- each token is decided once per generation ------------------------------------


def count_decisions(monkeypatch):
    """Wrap the two predictors as sparsify calls them; returns the number
    of image predictor calls and the row count of each output predictor
    call, both lists that grow as they run."""
    image_calls, output_rows = [], []
    image, output = sp.image_decisions, sp.output_decisions

    def counted_image(p, rows):
        image_calls.append(rows.shape[0])
        return image(p, rows)

    def counted_output(p, rows):
        output_rows.append(rows.shape[0])
        return output(p, rows)

    monkeypatch.setattr(sp, "image_decisions", counted_image)
    monkeypatch.setattr(sp, "output_decisions", counted_output)
    return image_calls, output_rows


def test_batch_no_cache_decode_decides_each_token_once(monkeypatch):
    model, preds, _ = setup(40)
    states = batch_of_states(model, [1, 2, 3, 4], [10, 6, 8, 12], [3, 5, 2, 4])
    batch = sp.PaddedBatch(states)
    cfg = scfg()
    image_calls, output_rows = count_decisions(monkeypatch)
    logits, _ = sp.batch_sparse_prefill(model, preds, batch, cfg)
    for _ in range(6):
        for st, token in zip(states, np.argmax(logits, axis=-1)):
            m.append_output(model, st, int(token))
        logits = sp.batch_sparse_decode(model, preds, batch, cfg, mode="no_cache")
    assert len(image_calls) == 4
    assert output_rows == [1] * (4 * 6)


def test_no_cache_generation_builds_no_kv_cache(monkeypatch):
    model, preds, state = setup(42)
    built = []
    store = sp.KVCacheStore
    monkeypatch.setattr(sp, "KVCacheStore", lambda *a: built.append(a) or store(*a))
    sp.sparse_greedy_generate(model, preds, state, scfg(), 4, mode="no_cache")
    m.greedy_generate(model, state, 4, mode="no_cache")
    assert built == []
    sp.sparse_greedy_generate(model, preds, state, scfg(), 4, mode="with_cache")
    assert len(built) == 1


def test_no_cache_generation_decides_each_token_once(monkeypatch):
    model, preds, state = setup(41)
    image_calls, output_rows = count_decisions(monkeypatch)
    trace = sp.sparse_greedy_generate(model, preds, state, scfg(), 8, mode="no_cache")
    assert len(trace.token_ids) == 8
    assert len(image_calls) == 1
    assert output_rows == [1] * 7


@pytest.mark.parametrize("selection", sp.SELECTION_MODES)
def test_recorded_decisions_equal_fresh_ones_bit_for_bit(selection):
    model, preds, _ = setup(42)
    states = batch_of_states(model, [5, 6, 7], [12, 7, 9], [4, 2, 3])
    batch = sp.PaddedBatch(states)
    cfg = scfg(selection_mode=selection)
    logits, _ = sp.batch_sparse_prefill(model, preds, batch, cfg)
    for _ in range(5):
        for st, token in zip(states, np.argmax(logits, axis=-1)):
            m.append_output(model, st, int(token))
        logits = sp.batch_sparse_decode(model, preds, batch, cfg, mode="no_cache")
        for st in states:
            reused = sp.sparse_decode_no_cache(model, preds, st, cfg, return_decisions=True)
            fresh = sp.sparse_decode_no_cache(model, preds, st.copy(), cfg,
                                              return_decisions=True)
            for a, b in zip(reused, fresh):
                assert np.array_equal(a, b)


def test_stale_record_is_decided_afresh(monkeypatch):
    model, preds, state = setup(43)
    other_preds = make_predictors(PredictorConfig(input_dim=64), seed=99)
    for tok in (5, 9, 14):
        m.append_output(model, state, tok)
    cfg = scfg()
    sp.sparse_decode_no_cache(model, preds, state, cfg)
    image_calls, _ = count_decisions(monkeypatch)

    def decode_matches_fresh(p, c):
        before = len(image_calls)
        got = sp.sparse_decode_no_cache(model, p, state, c, return_decisions=True)
        assert len(image_calls) == before + 1
        want = sp.sparse_decode_no_cache(model, p, state.copy(), c, return_decisions=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    decode_matches_fresh(preds, scfg(image_keep_rate=0.3))
    decode_matches_fresh(preds, cfg)
    cfg.output_keep_rate = 0.7  # edited in place: the record holds a copy
    decode_matches_fresh(preds, cfg)
    decode_matches_fresh(other_preds, cfg)
    decode_matches_fresh(preds, cfg)
    state.output = state.output[::-1].copy()
    decode_matches_fresh(preds, cfg)
    state.output[0] += 1.0
    decode_matches_fresh(preds, cfg)
    m.full_logits(model, state)
    decode_matches_fresh(preds, cfg)
    calls = len(image_calls)
    sp.sparse_decode_no_cache(model, preds, state, cfg)
    assert len(image_calls) == calls  # a record that holds is reused


def test_static_policy_draws_each_token_once(monkeypatch):
    model, preds, state = setup(12, n_image=8, n_text=3)
    cfg = scfg(policy="random", selection_mode="argmax")
    draws = []
    admit = sp._stream_admit
    monkeypatch.setattr(sp, "_stream_admit",
                        lambda c, index: draws.append(index) or admit(c, index))
    traces = []
    for mode in ("no_cache", "with_cache"):
        draws.clear()
        traces.append(sp.sparse_greedy_generate(model, preds, state, cfg, 12, mode=mode))
        assert len(traces[-1].token_ids) == 12
        assert draws == list(range(11))
    a, b = traces
    assert [(r.position, r.admitted, r.step) for r in a.admissions] == \
        [(r.position, r.admitted, r.step) for r in b.admissions]


def test_decisions_handed_to_callers_are_read_only():
    model, preds, state = setup(44)
    m.append_output(model, state, 7)
    _, keep, flags = sp.sparse_decode_no_cache(model, preds, state, scfg(),
                                               return_decisions=True)
    for arr in (keep, flags):
        with pytest.raises(ValueError):
            arr[0] = 0


def count_layer_rows(monkeypatch, model):
    """Wrap ``kernels.exp_rows`` to count the score rows each decoder layer
    call of a forward exponentiates; returns a list that grows by one
    ``[layer index, rows]`` per call of ``layer_forward`` from sparsify."""
    from ctxsparse import kernels
    calls, inside = [], []
    exp_rows, forward = kernels.exp_rows, sp.layer_forward
    index = {id(layer): i for i, layer in enumerate(model.layers)}

    def counted(x, g=None, *, shift=True):
        if inside:  # not the image predictor's own blocks
            calls[-1][1] += x.shape[-2]
        return exp_rows(x, g, shift=shift)

    def tagged(layer, *args, **kwargs):
        calls.append([index[id(layer)], 0])
        inside.append(True)
        try:
            return forward(layer, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(kernels, "exp_rows", counted)
    monkeypatch.setattr(sp, "layer_forward", tagged)
    return calls


def test_forwards_compute_only_the_rows_a_later_layer_reads(monkeypatch):
    """The last layer runs at most 2 rows; with a record that holds, layer
    l - 1 runs the survivors and the undecided outputs (plus at most one
    row per 64-row block); a forward that decides afresh runs every row at
    layer l - 1, and ``full_logits`` every row at every layer."""
    model, preds, state = setup(45, n_image=100, n_text=8)
    cfg = scfg()  # l = 2
    calls = count_layer_rows(monkeypatch, model)
    sp.sparse_prefill(model, preds, state, cfg)  # decides afresh and records
    rows = dict(calls)
    assert rows[1] == state.n_prefill and rows[3] <= 2
    decided = 0
    for tokens in ((5, 9, 14), (3,), (7,)):
        for tok in tokens:
            m.append_output(model, state, tok)
        for st in (state, state.copy()):  # the record holds, then a fresh state
            calls.clear()
            _, keep, flags = sp.sparse_decode_no_cache(model, preds, st, cfg,
                                                       return_decisions=True)
            rows = dict(calls)
            assert sorted(rows) == [0, 1, 2, 3] and len(calls) == 4
            n, blocks = state.total, -(-state.total // 64)
            assert rows[0] == n and rows[3] <= 2
            if st is state:
                read = (len(keep) + state.n_text + int(flags[:decided].sum())
                        + state.n_output - decided)
                assert read <= rows[1] <= read + blocks < n
            else:
                assert rows[1] == n
        decided = state.n_output
    calls.clear()
    m.full_logits(model, state)
    assert calls == [[li, state.total] for li in range(4)]


def test_entry_points_refuse_foreign_objects_before_any_layer_runs(monkeypatch):
    model, preds, state = setup(60)
    monkeypatch.setattr(sp, "layer_forward", lambda *a, **k: pytest.fail("a layer ran"))
    token = np.zeros(CFG.hidden_dim)
    batch = sp.PaddedBatch([state.copy()])
    calls = [
        ("cache is a NoneType", lambda: sp.sparse_decode_with_cache(
            model, preds, None, [], token, state.n_prefill, scfg())),
        ("state is a NoneType", lambda: sp.sparse_prefill(model, preds, None, scfg())),
        ("state is a list", lambda: sp.sparse_decode_no_cache(model, preds, [state], scfg())),
        ("cfg is a NoneType", lambda: sp.sparse_greedy_generate(model, preds, state, None, 2)),
        ("cfg is a dict", lambda: sp.sparse_prefill(model, preds, state, {})),
        ("cfg is a NoneType", lambda: sp.batch_sparse_prefill(model, preds, batch, None)),
        ("batch is a list", lambda: sp.batch_sparse_decode(model, preds, [state], scfg())),
        ("batch is a list", lambda: sp.batch_sparse_prefill(model, preds, [state], scfg())),
    ]
    for message, call in calls:
        with pytest.raises(ContractViolation, match=message):
            call()
