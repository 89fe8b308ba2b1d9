from dataclasses import replace

import numpy as np
import pytest

from ctxsparse import model as m
from ctxsparse.errors import CheckpointError, ContractViolation
from ctxsparse.predictors import PredictorConfig, make_predictors

TOY = m.ModelConfig(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                    vocab_size=96, max_seq_len=128, image_feature_dim=32)


def toy_model(seed=0, config=TOY):
    return m.make_model(config, seed=seed)


def toy_state(model, seed=0, n_image=6, n_text=5):
    rng = np.random.default_rng(seed + 1000)
    feats = rng.normal(size=(n_image, model.config.image_feature_dim))
    ids = rng.integers(1, model.config.vocab_size, size=n_text)
    return m.embed_inputs(model, feats, ids)


def test_embed_inputs_counts_and_positions():
    model = toy_model()
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 32))
    ids = [9, 4, 7, 7, 2]
    state = m.embed_inputs(model, feats, ids)
    assert state.n_image == 6 and state.n_text == 5 and state.total == 11
    # text token i sits at original position n_image + i
    for i, tid in enumerate(ids):
        expect = model.token_emb[tid] + model.pos_emb[6 + i]
        assert np.array_equal(state.text[i], expect)
    assert np.array_equal(state.image, feats @ model.image_proj + model.pos_emb[:6])


def test_embed_inputs_text_only():
    model = toy_model()
    state = m.embed_inputs(model, np.zeros((0, 32)), [3, 4, 5])
    assert state.n_image == 0 and state.n_text == 3


def test_embed_inputs_paper_scale_counts():
    cfg = m.ModelConfig(num_layers=2, hidden_dim=32, num_heads=4, ffn_dim=64,
                        vocab_size=64, max_seq_len=600, image_feature_dim=16)
    model = toy_model(config=cfg)
    rng = np.random.default_rng(0)
    state = m.embed_inputs(model, rng.normal(size=(576, 16)),
                           rng.integers(1, 64, size=8))
    assert state.total == 584


def test_embed_inputs_rejects_empty_and_overflow():
    model = toy_model()
    with pytest.raises(ContractViolation):
        m.embed_inputs(model, np.zeros((0, 32)), [])
    with pytest.raises(ContractViolation):
        m.embed_inputs(model, np.zeros((200, 32)),
                       np.zeros(0, dtype=int))


def test_embed_inputs_rejects_misshapen_or_non_finite_features():
    model = toy_model()  # image_feature_dim 32
    rng = np.random.default_rng(1)
    # (10, 16) once became 5 image tokens; (3, 16) raised numpy's own error
    for feats in (rng.normal(size=(10, 16)), rng.normal(size=(3, 16)),
                  rng.normal(size=(4, 33)), rng.normal(size=32),
                  rng.normal(size=(2, 3, 32))):
        with pytest.raises(ContractViolation, match="image features"):
            m.embed_inputs(model, feats, [3])
    for bad in (np.nan, np.inf, -np.inf):
        feats = rng.normal(size=(4, 32))
        feats[2, 5] = bad
        with pytest.raises(ContractViolation, match="finite"):
            m.embed_inputs(model, feats, [3])


def test_embed_inputs_empty_features_of_any_shape():
    model = toy_model()
    for empty in ([], np.zeros((0, 5)), np.zeros((3, 0))):
        state = m.embed_inputs(model, empty, [3, 4])
        assert state.n_image == 0 and state.image.shape == (0, 64)
        assert state.n_text == 2


def test_layer_forward_shape_and_single_token():
    model = toy_model()
    rng = np.random.default_rng(7)
    x = rng.normal(size=(9, 64))
    out = m.decoder_layer_forward(model.layers[0], x, m.causal_mask(9), 4)
    assert out.shape == x.shape
    solo = m.decoder_layer_forward(model.layers[0], x[:1], m.causal_mask(1), 4)
    assert np.allclose(solo[0], out[0], atol=1e-12)


def test_layer_forward_two_identical_tokens_causality():
    model = toy_model()
    rng = np.random.default_rng(8)
    tok = rng.normal(size=64)
    pair = np.stack([tok, tok])
    out_pair = m.decoder_layer_forward(model.layers[1], pair, m.causal_mask(2), 4)
    out_solo = m.decoder_layer_forward(model.layers[1], tok[None], m.causal_mask(1), 4)
    assert np.abs(out_pair[0] - out_solo[0]).max() <= 1e-12


def test_layer_forward_diagonal_mask_isolates_tokens():
    model = toy_model()
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 64))
    full = m.decoder_layer_forward(model.layers[0], x, np.eye(5), 4)
    for i in range(5):
        solo = m.decoder_layer_forward(model.layers[0], x[i:i + 1], np.eye(1), 4)
        assert np.abs(full[i] - solo[0]).max() <= 1e-12


def test_layer_forward_padded_batch_matches_per_sample():
    from ctxsparse.sparsify import _padded_causal_mask, left_pad
    model = toy_model(4)
    rng = np.random.default_rng(10)
    rows = [rng.normal(size=(n, 64)) for n in (7, 3, 5)]
    x, valid = left_pad(rows)
    out, k, v = m.layer_forward(model.layers[2], x, _padded_causal_mask(valid)[:, None], 4)
    assert out.shape == k.shape == v.shape == x.shape
    for b, r in enumerate(rows):
        solo, k_solo, v_solo = m.layer_forward(model.layers[2], r, m.causal_mask(len(r)), 4)
        assert np.abs(out[b, valid[b]] - solo).max() <= 1e-12
        assert np.abs(k[b, valid[b]] - k_solo).max() <= 1e-12
        assert np.abs(v[b, valid[b]] - v_solo).max() <= 1e-12


def test_layer_forward_past_kv_matches_full_causal_rows():
    model = toy_model(5)
    layer = model.layers[1]
    x = np.random.default_rng(11).normal(size=(9, 64))
    full = m.decoder_layer_forward(layer, x, m.causal_mask(9), 4)
    past = m._project_kv(layer, x[:-1], 4)
    last, _, _ = m.layer_forward(layer, x[-1:], None, 4, past_kv=past)
    assert np.abs(last[0] - full[-1]).max() <= 1e-12
    # a block of new rows takes the causal mask's last rows over past + self
    past = m._project_kv(layer, x[:6], 4)
    block, _, _ = m.layer_forward(layer, x[6:], m.causal_mask(9)[6:], 4, past_kv=past)
    assert np.abs(block - full[6:]).max() <= 1e-12


def test_layer_forward_returns_the_cache_projections():
    model = toy_model(6)
    x = np.random.default_rng(12).normal(size=(8, 64))
    for layer in model.layers:
        _, k, v = m.layer_forward(layer, x, m.causal_mask(8), 4)
        k_ref, v_ref = m._project_kv(layer, x, 4)
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)


def test_predictor_blocks_are_live_layer_weights():
    from ctxsparse.predictors import image_decisions
    preds = make_predictors(PredictorConfig(input_dim=64), seed=3)
    assert all(isinstance(blk, m.LayerWeights) for blk in preds.image_blocks)
    names = list(preds.parameters())
    fields = ["w_q", "w_k", "w_v", "w_o", "ffn_in", "ffn_out",
              "attn_norm_gain", "ffn_norm_gain"]
    blocks = [f"image.block{i}.{f}" for i in range(2) for f in fields]
    assert names[4:4 + len(blocks)] == blocks
    tokens = np.random.default_rng(13).normal(size=(6, 64))
    before = image_decisions(preds, tokens)
    preds.parameters()["image.block1.w_v"] *= 2.0
    assert preds.parameters()["image.block1.w_v"] is preds.image_blocks[1].w_v
    assert not np.array_equal(before, image_decisions(preds, tokens))


# -- query-blocked attention ------------------------------------------------------


def reference_layer(layer, x, mask, num_heads, past_kv=None):
    """Unblocked layer: full (..., heads, n, m + n) scores over every key."""
    from ctxsparse import kernels
    d = x.shape[-1]
    dh = d // num_heads
    normed = m._rms_norm(x, layer.attn_norm_gain)
    q, k, v = normed @ layer.w_q, normed @ layer.w_k, normed @ layer.w_v
    if past_kv is not None:
        k = np.concatenate([past_kv[0], k], axis=-2)
        v = np.concatenate([past_kv[1], v], axis=-2)

    def heads(t):
        return t.reshape(*t.shape[:-1], num_heads, dh).swapaxes(-2, -3)

    scores = (heads(q) @ heads(k).swapaxes(-1, -2)) * dh ** -0.5
    probs = kernels.softmax_rows(scores) if mask is None \
        else kernels.masked_softmax(scores, mask)
    ctx = (probs @ heads(v)).swapaxes(-2, -3).reshape(x.shape)
    attn = x + ctx @ layer.w_o
    normed2 = m._rms_norm(attn, layer.ffn_norm_gain)
    return attn + m._silu(normed2 @ layer.ffn_in) @ layer.ffn_out


BLOCK_ROWS = (1, 63, 64, 65, 131)


def holed_causal_mask(n, rng):
    """Causal mask with random holes below the diagonal; the diagonal stays."""
    mask = m.causal_mask(n) * (rng.random((n, n)) < 0.7)
    mask[np.arange(n), np.arange(n)] = 1.0
    return mask


def test_layer_forward_blocks_match_unblocked_reference():
    from ctxsparse.sparsify import _padded_causal_mask, left_pad
    model = toy_model(9)
    layer = model.layers[1]
    rng = np.random.default_rng(30)
    for n in BLOCK_ROWS:
        x = rng.normal(size=(n, 64))
        for mask in (None, m.causal_mask(n), holed_causal_mask(n, rng)):
            out, _, _ = m.layer_forward(layer, x, mask, 4)
            assert np.abs(out - reference_layer(layer, x, mask, 4)).max() <= 1e-12
        # left-padded lanes of n, n // 2 + 1 and 1 rows
        xb, valid = left_pad([rng.normal(size=(r, 64)) for r in (n, n // 2 + 1, 1)])
        # (B, 1, n, n) padded causal mask and (B, 1, 1, n) key validity
        for mask in (_padded_causal_mask(valid)[:, None], valid[:, None, None, :]):
            out, _, _ = m.layer_forward(layer, xb, mask, 4)
            assert np.abs(out - reference_layer(layer, xb, mask, 4)).max() <= 1e-12


def test_layer_forward_blocks_with_past_kv_match_reference():
    model = toy_model(10)
    layer = model.layers[2]
    rng = np.random.default_rng(31)
    for n in BLOCK_ROWS:
        past = rng.normal(size=(40, 64)), rng.normal(size=(40, 64))
        x = rng.normal(size=(n, 64))
        tail = m.causal_mask(40 + n)[40:]
        for mask in (None, tail):
            out, _, _ = m.layer_forward(layer, x, mask, 4, past_kv=past)
            ref = reference_layer(layer, x, mask, 4, past_kv=past)
            assert np.abs(out - ref).max() <= 1e-12


def test_layer_forward_rejects_all_zero_row_in_later_block():
    model = toy_model(11)
    x = np.random.default_rng(32).normal(size=(131, 64))
    one_row = m.causal_mask(131)
    one_row[100] = 0.0
    whole_block = m.causal_mask(131)
    whole_block[64:128] = 0.0
    for mask in (one_row, whole_block, one_row[None]):
        with pytest.raises(ContractViolation, match="all zeros"):
            m.layer_forward(model.layers[0], x, mask, 4)


def test_layer_forward_in_place_softmax_aliases_nothing():
    """Blocked calls softmax their scores in place, yet share no buffer with
    their results, inputs or cache."""
    model = toy_model(14)
    layer = model.layers[0]
    rng = np.random.default_rng(33)
    x1, x2 = rng.normal(size=(131, 64)), rng.normal(size=(131, 64))
    mask = m.causal_mask(131)
    x2_before, mask_before = x2.copy(), mask.copy()
    first = m.layer_forward(layer, x1, mask, 4)
    first_before = [a.copy() for a in first]
    m.layer_forward(layer, x2, mask, 4)
    for a, before in zip(first, first_before):
        assert np.array_equal(a, before)
    assert np.array_equal(x2, x2_before) and np.array_equal(mask, mask_before)
    # over a slot: the committed rows keep their values, the tail gets k, v
    cache = m.KVCacheStore(1)
    cache.extend(0, *m._project_kv(layer, x1[:40], 4), np.arange(40))
    committed = [a.copy() for a in cache.stacked(0)]
    slot = cache.slot(0, 64, 131)
    _, k, v = m.layer_forward(layer, x2, m.causal_mask(171)[40:], 4, past_kv=slot)
    for view, before, new in zip(slot, committed, (k, v)):
        assert np.array_equal(view[:40], before)
        assert np.array_equal(view[40:], new)
    assert np.array_equal(x2, x2_before)


def test_layer_forward_rows_get_the_bits_of_the_full_output():
    """Asked rows, one per block included, get exactly their rows of the
    call that runs every row, under each mask form and over a cache."""
    from ctxsparse.sparsify import _padded_causal_mask, left_pad
    layer = toy_model(16).layers[1]
    rng = np.random.default_rng(38)
    for n in BLOCK_ROWS:
        x = rng.normal(size=(n, 64))
        asks = {(n - 1,), (0,), (0, n - 1), tuple(range(0, n, 3)),
                tuple(rng.choice(n, size=(n + 1) // 2, replace=False))}
        xb, valid = left_pad([x, x[: n // 2 + 1]])
        calls = [(x, mask, None) for mask in (None, m.causal_mask(n),
                                              holed_causal_mask(n, rng))]
        calls += [(xb, _padded_causal_mask(valid)[:, None], None),
                  (xb, valid[:, None, None, :], None),
                  (x, m.causal_mask(40 + n)[40:],
                   (rng.normal(size=(40, 64)), rng.normal(size=(40, 64))))]
        for rows in (np.unique(ask) for ask in asks):
            for xs, mask, past in calls:
                full, k, v = m.layer_forward(layer, xs, mask, 4, past_kv=past)
                part, k2, v2 = m.layer_forward(layer, xs, mask, 4, past_kv=past, rows=rows)
                assert np.array_equal(part, full[..., rows, :])
                assert np.array_equal(k2, k) and np.array_equal(v2, v)


def test_blas_gives_a_row_subset_the_bits_of_the_full_product():
    """Canary for ``layer_forward``'s ``rows``: at the model's matmul
    shapes, an ascending subset of >= 2 rows of ``a`` gives exactly those
    rows of ``a @ b``, with ``a`` laid out as the layer lays it out. One row
    is left out on purpose: numpy sends a one-row matmul to gemv, which
    rounds differently from gemm, so ``layer_forward`` never runs a single
    row of a longer block. If a numpy or BLAS change breaks this, the
    bit-for-bit tests of recorded decisions fail too, without saying why."""
    rng = np.random.default_rng(39)
    q = rng.normal(size=(200, 64))
    heads = q.reshape(200, 4, 16).swapaxes(0, 1)  # (4, 200, 16) as layer_forward splits it
    for n, start in ((2, 0), (3, 7), (17, 0), (64, 0), (64, 64), (8, 192)):
        block = slice(start, start + n)
        subsets = {(0, 1), (0, n - 1), (n - 2, n - 1), tuple(range(0, n, 2)),
                   tuple(sorted(rng.choice(n, size=max(2, n // 3), replace=False)))}
        subsets = [np.array(s) for s in subsets if len(set(s)) >= 2]
        products = [(q[block], rng.normal(size=(64, 384))),
                    (rng.normal(size=(200, 384))[block], rng.normal(size=(384, 64))),
                    (q[block], rng.normal(size=(64, 64)))]
        for kmax in (n, 150, 608):
            keys = rng.normal(size=(kmax, 64)).reshape(kmax, 4, 16).swapaxes(0, 1)
            products += [(heads[:, block], keys.swapaxes(-1, -2)),
                         (rng.random((4, n, kmax)), keys)]
        for a, b in products:
            full = a @ b
            for rows in subsets:
                assert np.array_equal(a[..., rows, :] @ b, full[..., rows, :]), (
                    f"the BLAS rounds rows {rows.tolist()} of a {a.shape} @ {b.shape} "
                    f"product differently from the full product; layer_forward's "
                    f"rows would no longer give the values of running every row")


def recording_exp_rows(monkeypatch):
    """Replace ``kernels.exp_rows`` with a pass-through that records the
    ``shift`` of every call in the returned list."""
    from ctxsparse import kernels
    shifts = []

    def recorder(x, g=None, *, shift=True, _real=kernels.exp_rows):
        shifts.append(shift)
        return _real(x, g, shift=shift)

    monkeypatch.setattr(kernels, "exp_rows", recorder)
    return shifts


def test_unshifted_blocks_match_unblocked_reference(monkeypatch):
    shifts = recording_exp_rows(monkeypatch)
    rng = np.random.default_rng(34)
    block = make_predictors(PredictorConfig(input_dim=64), seed=35).image_blocks[0]
    assert block.w_q.shape == (8, 8)  # the image predictor's shape, 4 heads
    x = rng.normal(size=(576, 8))
    out, _, _ = m.layer_forward(block, x, None, 4)
    assert shifts == [False] * 9
    assert np.abs(out - reference_layer(block, x, None, 4)).max() <= 1e-12
    shifts.clear()
    layer = toy_model(12).layers[0]
    x = rng.normal(size=(131, 64))
    out, _, _ = m.layer_forward(layer, x, m.causal_mask(131), 4)
    assert shifts == [False] * 3
    assert np.abs(out - reference_layer(layer, x, m.causal_mask(131), 4)).max() <= 1e-12


def test_blocks_past_the_unshifted_limit_keep_the_shift(monkeypatch):
    from dataclasses import replace
    shifts = recording_exp_rows(monkeypatch)
    base = toy_model(13).layers[0]
    layer = replace(base, w_q=base.w_q * 12.0, w_k=base.w_k * 12.0)
    x = np.random.default_rng(36).normal(size=(131, 64))
    q = m._rms_norm(x, layer.attn_norm_gain) @ layer.w_q
    k = m._rms_norm(x, layer.attn_norm_gain) @ layer.w_k
    top = max(np.abs(q[:, h:h + 16] @ k[:, h:h + 16].T).max() / 4.0 for h in range(0, 64, 16))
    assert top > np.log(np.finfo(np.float64).max)  # an unshifted exp would overflow
    for mask in (None, m.causal_mask(131)):
        shifts.clear()
        out, _, _ = m.layer_forward(layer, x, mask, 4)
        assert shifts == [True] * 3
        assert np.isfinite(out).all()
        assert np.abs(out - reference_layer(layer, x, mask, 4)).max() <= 1e-12


def test_a_nan_score_bound_takes_the_shifted_call(monkeypatch):
    shifts = recording_exp_rows(monkeypatch)
    layer = toy_model(15).layers[0]
    x = np.random.default_rng(37).normal(size=(131, 64))
    clean, _, _ = m.layer_forward(layer, x, m.causal_mask(131), 4)
    assert shifts == [False] * 3
    shifts.clear()
    x[100] = np.nan  # a NaN k row makes every row's bound NaN
    out, _, _ = m.layer_forward(layer, x, m.causal_mask(131), 4)
    assert shifts == [True] * 3
    # the first block sees no key past row 63, so the NaN cannot reach it
    assert np.abs(out[:64] - clean[:64]).max() <= 1e-12


def test_embed_output_token_rejects_bool_token_id():
    model = toy_model()
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ContractViolation, match="token ids"):
            m.embed_output_token(model, flag, 3)  # True once selected the whole table
        with pytest.raises(ContractViolation, match="token ids"):
            m.append_output(model, toy_state(model), flag)


def test_prefill_populates_cache_and_normalizes():
    model = toy_model()
    state = toy_state(model)
    logits, cache = m.prefill(model, state)
    assert cache.lengths() == [state.n_prefill] * model.config.num_layers
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_prefill_rejects_empty():
    model = toy_model()
    empty = m.SequenceState(np.zeros((0, 64)), np.zeros((0, 64)), np.zeros((0, 64)))
    with pytest.raises(ContractViolation):
        m.prefill(model, empty)


def test_embed_output_token_rejects_negative_token_id():
    model = toy_model()
    with pytest.raises(ContractViolation, match="vocabulary"):
        m.embed_output_token(model, -1, 5)
    with pytest.raises(ContractViolation, match="vocabulary"):
        m.append_output(model, toy_state(model), -1)


def test_embed_output_token_rejects_token_id_past_vocabulary():
    model = toy_model()
    with pytest.raises(ContractViolation, match="vocabulary"):
        m.embed_output_token(model, TOY.vocab_size, 5)
    assert np.array_equal(m.embed_output_token(model, TOY.vocab_size - 1, 5),
                          model.token_emb[-1] + model.pos_emb[5])


def test_embed_inputs_rejects_non_integral_or_non_1d_text_ids():
    model = toy_model()
    feats = np.zeros((2, 32))
    # [3.7, 2.2] once embedded tokens 3 and 2, and a (2, 2) array 4 tokens
    for ids in ([3.7, 2.2], np.array([[1, 2], [3, 4]]), np.array(5), [np.nan],
                ["a"]):
        with pytest.raises(ContractViolation, match="token ids"):
            m.embed_inputs(model, feats, ids)
    integral = m.embed_inputs(model, feats, np.array([3.0, 4.0]))
    assert np.array_equal(integral.text, m.embed_inputs(model, feats, [3, 4]).text)


def test_embed_output_token_rejects_non_integral_token_id():
    model = toy_model()
    with pytest.raises(ContractViolation, match="token ids"):
        m.embed_output_token(model, 3.7, 5)  # once numpy's own IndexError
    with pytest.raises(ContractViolation, match="token ids"):
        m.append_output(model, toy_state(model), 2.5)
    assert np.array_equal(m.embed_output_token(model, 3.0, 5),
                          m.embed_output_token(model, 3, 5))


def test_embed_output_token_rejects_negative_position():
    model = toy_model()
    with pytest.raises(ContractViolation, match="position"):
        m.embed_output_token(model, 3, -1)
    with pytest.raises(ContractViolation, match="position"):
        m.embed_output_token(model, 3, TOY.max_seq_len)


def test_embed_output_token_rejects_a_position_that_is_not_an_integer():
    model = toy_model()
    for bad in (2.5, True, None, "2", np.float64(2.0)):
        with pytest.raises(ContractViolation, match="position"):
            m.embed_output_token(model, 3, bad)
    assert np.array_equal(m.embed_output_token(model, 3, np.int64(2)),
                          m.embed_output_token(model, 3, 2))


def test_decode_no_cache_with_zero_outputs_equals_prefill():
    model = toy_model()
    state = toy_state(model)
    logits, _ = m.prefill(model, state)
    assert np.array_equal(logits, m.decode_step_no_cache(model, state))


def test_dense_forwards_refuse_a_state_without_prompt_rows():
    model = toy_model()
    empty = np.zeros((0, 64))
    state = m.SequenceState(empty, empty.copy(), empty.copy())
    for call in (m.decode_step_no_cache, m.full_logits):
        with pytest.raises(ContractViolation, match="empty state"):
            call(model, state)
    m.append_output(model, state, 7)  # outputs alone are not a prompt either
    for call in (m.decode_step_no_cache, m.full_logits):
        with pytest.raises(ContractViolation, match="empty state"):
            call(model, state)


def test_decode_no_cache_deterministic():
    model = toy_model()
    state = toy_state(model)
    m.append_output(model, state, 17)
    a = m.decode_step_no_cache(model, state)
    b = m.decode_step_no_cache(model, state)
    assert np.array_equal(a, b)


def test_cache_and_no_cache_logits_agree():
    model = toy_model(3)
    state = toy_state(model, 3)
    logits, cache = m.prefill(model, state)
    token = int(np.argmax(logits))
    vec = m.embed_output_token(model, token, state.n_prefill)
    cached_logits = m.decode_step_with_cache(model, cache, vec, state.n_prefill)
    m.append_output(model, state, token)
    full_logits = m.decode_step_no_cache(model, state)
    assert np.abs(cached_logits - full_logits).max() <= 1e-9
    assert cache.lengths() == [state.n_prefill + 1] * model.config.num_layers


def test_cache_position_conflict_rejected():
    model = toy_model()
    state = toy_state(model)
    _, cache = m.prefill(model, state)
    vec = m.embed_output_token(model, 5, state.n_prefill)
    with pytest.raises(ContractViolation):
        m.decode_step_with_cache(model, cache, vec, 0)


def test_cached_logits_finite_many_seeds():
    for seed in range(100):
        model = toy_model(seed)
        state = toy_state(model, seed, n_image=2, n_text=3)
        logits, cache = m.prefill(model, state)
        vec = m.embed_output_token(model, int(np.argmax(logits)), state.n_prefill)
        out = m.decode_step_with_cache(model, cache, vec, state.n_prefill)
        assert np.isfinite(out).all()


def test_greedy_generate_zero_tokens():
    model = toy_model()
    assert m.greedy_generate(model, toy_state(model), 0) == []


def test_greedy_generate_eos_stops():
    model = toy_model(11)
    # all-zero head gives all-zero logits; argmax tie -> id 0 == EOS
    model.lm_head[...] = 0.0
    out = m.greedy_generate(model, toy_state(model, 11), 8)
    assert out == [m.EOS_ID]


def test_greedy_generate_stops_at_max_seq_len():
    model = toy_model(12)
    state = toy_state(model, 12, n_image=100, n_text=3)
    cached = m.greedy_generate(model, state, 40, mode="with_cache")
    uncached = m.greedy_generate(model, state, 40, mode="no_cache")
    # tokens for input positions 103..128; the last one has no position left
    assert cached == uncached and len(cached) == TOY.max_seq_len - 103 + 1
    assert m.EOS_ID not in cached
    with pytest.raises(ContractViolation):
        m.embed_output_token(model, cached[-1], TOY.max_seq_len)


def test_one_layer_model_dense_prefill_and_generate():
    config = m.ModelConfig(num_layers=1, hidden_dim=64, num_heads=4, ffn_dim=128,
                           vocab_size=96, max_seq_len=128, image_feature_dim=32)
    model = toy_model(13, config)
    state = toy_state(model, 13)
    logits, cache = m.prefill(model, state)
    assert cache.lengths() == [state.n_prefill] and np.isfinite(logits).all()
    cached = m.greedy_generate(model, state, 10, mode="with_cache")
    assert cached == m.greedy_generate(model, state, 10, mode="no_cache")
    assert len(cached) == 10 or cached[-1] == m.EOS_ID


def test_greedy_mode_equivalence_over_models():
    mismatches = 0
    for seed in range(100):
        model = toy_model(seed)
        state = toy_state(model, seed, n_image=4, n_text=3)
        no_cache = m.greedy_generate(model, state, 32, mode="no_cache")
        cached = m.greedy_generate(model, state, 32, mode="with_cache")
        if no_cache != cached:
            mismatches += 1
    assert mismatches == 0


def test_per_step_logit_gap_under_1e9():
    model = toy_model(21)
    state = toy_state(model, 21)
    logits, cache = m.prefill(model, state)
    shadow = state.copy()
    worst = 0.0
    position = state.n_prefill
    for _ in range(16):
        token = int(np.argmax(logits))
        if token == m.EOS_ID:
            break
        m.append_output(model, shadow, token)
        ref = m.decode_step_no_cache(model, shadow)
        vec = m.embed_output_token(model, token, position)
        logits = m.decode_step_with_cache(model, cache, vec, position)
        worst = max(worst, float(np.abs(ref - logits).max()))
        position += 1
    assert worst <= 1e-9


def test_causality_perturbation():
    model = toy_model(31)
    rng = np.random.default_rng(31)
    state = toy_state(model, 31)
    for token in rng.integers(1, 96, size=4):
        m.append_output(model, state, int(token))
    base = m.full_logits(model, state)
    for p in (3, 7, 12):
        bumped = state.copy()
        tokens = bumped.all_tokens()
        tokens[p] += rng.normal(size=64)
        parts = np.split(tokens, [bumped.n_image, bumped.n_prefill])
        bumped.image, bumped.text, bumped.output = parts
        pert = m.full_logits(model, bumped)
        assert np.array_equal(base[:p], pert[:p])
        assert not np.allclose(base[p], pert[p])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = toy_model(5)
    preds = make_predictors(PredictorConfig(input_dim=64), seed=5)
    path = tmp_path / "ckpt.npz"
    m.save_checkpoint(path, model, preds)
    loaded, loaded_preds = m.load_checkpoint(path)
    for name, arr in model.parameters().items():
        assert np.array_equal(arr, loaded.parameters()[name])
    for name, arr in preds.parameters().items():
        assert np.array_equal(arr, loaded_preds.parameters()[name])
    assert loaded.config == model.config


def test_checkpoint_rejects_bad_version(tmp_path):
    model = toy_model(6)
    path = tmp_path / "ckpt.npz"
    m.save_checkpoint(path, model)
    import json
    data = dict(np.load(path))
    meta = json.loads(bytes(data["__meta__"]).decode())
    meta["checkpoint_version"] = 999
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(CheckpointError):
        m.load_checkpoint(path)


# -- bulk cache writes -----------------------------------------------------------


def cache_snapshot(cache, layer):
    k, v = cache.stacked(layer)
    return k.copy(), v.copy(), list(cache.positions[layer]), cache.length(layer)


def test_cache_extend_matches_row_appends_across_capacity():
    rng = np.random.default_rng(21)
    for prior in (0, 5):
        for rows in (15, 16, 17, 33):
            k = rng.normal(size=(prior + rows, 8))
            v = rng.normal(size=(prior + rows, 8))
            pos = np.cumsum(rng.integers(1, 4, size=prior + rows))
            by_row, bulk = m.KVCacheStore(1), m.KVCacheStore(1)
            for i in range(prior + rows):
                by_row.append(0, k[i], v[i], int(pos[i]))
            for i in range(prior):
                bulk.append(0, k[i], v[i], int(pos[i]))
            bulk.extend(0, k[prior:], v[prior:], pos[prior:])
            want, got = cache_snapshot(by_row, 0), cache_snapshot(bulk, 0)
            assert np.array_equal(want[0], got[0])
            assert np.array_equal(want[1], got[1])
            assert want[2:] == got[2:]
            assert all(type(p) is int for p in got[2])


def test_cache_extend_rejects_bad_order_and_leaves_cache_unchanged():
    rng = np.random.default_rng(22)
    cache = m.KVCacheStore(1)
    cache.extend(0, rng.normal(size=(16, 8)), rng.normal(size=(16, 8)),
                 np.arange(16))
    before = cache_snapshot(cache, 0)
    for block in ([16, 17, 17, 18], [16, 18, 17], [15, 20], [16] + list(range(10, 40))):
        with pytest.raises(ContractViolation):
            cache.extend(0, rng.normal(size=(len(block), 8)),
                         rng.normal(size=(len(block), 8)), block)
        after = cache_snapshot(cache, 0)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    with pytest.raises(ContractViolation):
        cache.extend(0, np.zeros((2, 8)), np.zeros((3, 8)), [20, 21])
    with pytest.raises(ContractViolation):
        cache.extend(0, np.zeros((2, 6)), np.zeros((2, 6)), [20, 21])
    assert cache_snapshot(cache, 0)[2:] == before[2:]


def test_stacked_on_unwritten_layer_raises_contract_violation():
    cache = m.KVCacheStore(2)
    cache.append(0, np.zeros(8), np.zeros(8), 0)
    with pytest.raises(ContractViolation, match="layer 1"):
        cache.stacked(1)
    k, v = cache.stacked(0)
    assert k.shape == v.shape == (1, 8)


def test_layer_forward_on_slot_equals_plain_pair_bit_for_bit():
    model = toy_model(8)
    layer = model.layers[1]
    x = np.random.default_rng(13).normal(size=(9, 64))
    for n in (1, 3):
        past = m._project_kv(layer, x[:9 - n], 4)
        mask = None if n == 1 else m.causal_mask(9)[9 - n:]
        cache = m.KVCacheStore(1)
        cache.extend(0, *past, np.arange(9 - n))
        slot = cache.slot(0, 64, n)
        assert isinstance(slot, m.KVSlot) and slot[0].shape == (9, 64)
        plain = m.layer_forward(layer, x[9 - n:], mask, 4, past_kv=past)
        in_place = m.layer_forward(layer, x[9 - n:], mask, 4, past_kv=slot)
        for a, b in zip(plain, in_place):
            assert np.array_equal(a, b)
        # the new rows went into the free tail, which is not kept until commit
        assert np.array_equal(slot[0][9 - n:], plain[1])
        assert np.array_equal(slot[1][9 - n:], plain[2])
        assert cache.length(0) == 9 - n
        cache.commit(0, list(range(9 - n, 9)))
        assert np.array_equal(cache.stacked(0)[0], np.concatenate([past[0], plain[1]]))


@pytest.mark.parametrize("n_prompt", [15, 16, 17])
def test_cached_step_leaves_earlier_stacked_views_unchanged(n_prompt):
    """A step writes past every view ``stacked`` gave out, and growing the
    capacity (16 -> 32 on the step after a 16-row prefill) moves the layer
    to new buffers instead of touching the old ones."""
    model = toy_model(9)
    state = toy_state(model, 9, n_image=n_prompt - 4, n_text=4)
    logits, cache = m.prefill(model, state)
    position = state.n_prefill
    for token in (int(np.argmax(logits)) or 1, 7):
        views = [cache.stacked(li) for li in range(cache.num_layers)]
        copies = [(k.copy(), v.copy()) for k, v in views]
        vec = m.embed_output_token(model, token, position)
        m.decode_step_with_cache(model, cache, vec, position)
        position += 1
        for li, ((k, v), (k0, v0)) in enumerate(zip(views, copies)):
            assert np.array_equal(k, k0) and np.array_equal(v, v0)
            k_now, v_now = cache.stacked(li)
            assert np.array_equal(k_now[:-1], k0) and np.array_equal(v_now[:-1], v0)
    assert cache.lengths() == [n_prompt + 2] * model.config.num_layers


# -- checkpoint defects ------------------------------------------------------------


def rewrite_checkpoint(path, edit):
    """Load the raw arrays and metadata, apply ``edit(arrays, meta)``, save."""
    import json
    data = dict(np.load(path))
    meta = json.loads(bytes(data.pop("__meta__")).decode())
    edit(data, meta)
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **data)


def saved_checkpoint(tmp_path):
    path = tmp_path / "ckpt.npz"
    m.save_checkpoint(path, toy_model(7),
                      make_predictors(PredictorConfig(input_dim=64), seed=7))
    return path


def test_checkpoint_missing_array_raises_checkpoint_error(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: arrays.pop("predictors/image.proj"))
    with pytest.raises(CheckpointError, match="missing"):
        m.load_checkpoint(path)


def test_checkpoint_wrong_shape_raises_checkpoint_error(tmp_path):
    path = saved_checkpoint(tmp_path)

    def shrink(arrays, meta):
        arrays["model/lm_head"] = arrays["model/lm_head"][:, :10]
    rewrite_checkpoint(path, shrink)
    with pytest.raises(CheckpointError, match="shape"):
        m.load_checkpoint(path)


def test_checkpoint_unknown_config_key_raises_checkpoint_error(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_checkpoint(path, lambda arrays, meta: meta["model_config"].update(bogus=1))
    with pytest.raises(CheckpointError, match="config"):
        m.load_checkpoint(path)


def test_checkpoint_non_finite_weights_rejected(tmp_path):
    model = toy_model(8)
    model.lm_head[...] = np.nan
    path = tmp_path / "ckpt.npz"
    m.save_checkpoint(path, model)
    with pytest.raises(CheckpointError, match="finite"):
        m.load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("num_layers", 2.5), ("hidden_dim", 64.0), ("num_heads", True), ("ffn_dim", 128.0),
    ("vocab_size", "96"), ("max_seq_len", np.float64(128)), ("image_feature_dim", 32.0),
])
def test_model_config_rejects_an_integer_field_that_is_not_an_integer(field, value):
    """Every integer field is an integer >= 1 and not a bool, checked before
    any weight is drawn."""
    with pytest.raises(ContractViolation, match=f"ModelConfig.{field}"):
        m.make_model(replace(TOY, **{field: value}), seed=0)
