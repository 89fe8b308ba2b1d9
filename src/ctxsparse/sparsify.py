"""Sparsified inference: prefill-time image-token reduction, output-token
reduction when decoding without a KV cache, and online KV-cache admission
when decoding with one, plus left-padded batch-parallel variants and the
Random/Structure static baselines.

Layer convention: with ``sparsify_layer = l`` the first l layers always see
the full token set and cache every token, the predictors read the l-th
layer's output, and every deeper layer sees only survivors. A decision is
made once per token and shared by all deeper layers; a dropped or
non-admitted token never reappears beyond layer l at any later step. The
newest token always takes part in its own step's attention regardless of
whether it is admitted for future steps.

Every mode and path runs its layers through ``model.layer_forward``: the
single-sample paths over (N, d) token sets or one cached row, the batched
paths over left-padded (B, N, d) sets with per-lane masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .model import (
    KVCacheStore,
    Model,
    SequenceState,
    _logits_at,
    _rms_norm,
    append_output,
    attend_cached,
    causal_mask,
    decoder_layer_forward,
    embed_output_token,
    layer_forward,
    stop_reason,
)
from .predictors import (
    Predictors,
    decisions_to_mask,
    image_decisions,
    image_decisions_batched,
    output_decisions,
    select_topk_keep,
)

POLICIES = ("learned", "random", "structure")
SELECTION_MODES = ("argmax", "topk")
_STREAM_SALT = 104729  # decouples per-token admission draws from other rng uses


@dataclass
class SparsityConfig:
    sparsify_layer: int = 2
    image_keep_rate: float = 0.2
    output_keep_rate: float = 0.5
    selection_mode: str = "topk"
    policy: str = "learned"
    policy_seed: int = 0

    def validate(self, num_layers: int):
        if not 1 <= self.sparsify_layer < num_layers:
            raise ContractViolation(
                f"sparsify_layer must be in [1, {num_layers - 1}], "
                f"got {self.sparsify_layer}"
            )
        if not 0.0 < self.image_keep_rate <= 1.0:
            raise ContractViolation("image_keep_rate must be in (0, 1]")
        if not 0.0 < self.output_keep_rate <= 1.0:
            raise ContractViolation("output_keep_rate must be in (0, 1]")
        if self.selection_mode not in SELECTION_MODES:
            raise ContractViolation(f"unknown selection_mode {self.selection_mode!r}")
        if self.policy not in POLICIES:
            raise ContractViolation(f"unknown policy {self.policy!r}")
        return self


@dataclass(frozen=True)
class AdmissionRecord:
    """One generated output token's immutable cache-admission decision."""
    position: int
    admitted: bool
    step: int


@dataclass
class GenerationTrace:
    """Structured record of one generation run: tokens, image keep set,
    per-token admissions and stop reason; ``to_dict`` gives a
    schema-versioned JSON-ready form."""
    mode: str
    token_ids: list = field(default_factory=list)
    image_keep: list = field(default_factory=list)
    n_image: int = 0
    n_text: int = 0
    admissions: list = field(default_factory=list)
    stop_reason: str = "max_new_tokens"  # or "eos", "max_seq_len"

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "token_ids": list(self.token_ids),
            "image_keep": [int(i) for i in self.image_keep],
            "n_image": self.n_image,
            "n_text": self.n_text,
            "admissions": [
                {"position": r.position, "admitted": bool(r.admitted), "step": r.step}
                for r in self.admissions
            ],
            "stop_reason": self.stop_reason,
        }


# -- static baseline masks -----------------------------------------------------


def random_policy_mask(n: int, keep_rate: float, seed: int) -> np.ndarray:
    """Seeded random keep flags: floor(keep_rate*n) ones, then the last flag
    is forced to 1."""
    flags = np.zeros(n, dtype=np.int64)
    if n == 0:
        return flags
    k = int(np.floor(keep_rate * n))
    idx = np.random.default_rng(seed).choice(n, size=k, replace=False)
    flags[idx] = 1
    flags[-1] = 1
    return flags


def structure_policy_mask(n: int) -> np.ndarray:
    """Alternating 1,0,1,0,... keep flags with the last flag forced to 1."""
    flags = np.zeros(n, dtype=np.int64)
    if n == 0:
        return flags
    flags[::2] = 1
    flags[-1] = 1
    return flags


def _stream_admit(cfg: SparsityConfig, token_index: int) -> bool:
    """Stable per-token admission draw for the static policies.

    Online decisions must not change as the sequence grows, so each output
    token's draw is keyed by its own index alone.
    """
    if cfg.policy == "random":
        coin = np.random.default_rng((cfg.policy_seed, _STREAM_SALT, token_index))
        return bool(coin.random() < cfg.output_keep_rate)
    return token_index % 2 == 0  # structure: keep every other token


# -- selection helpers ---------------------------------------------------------


def select_image_keep(predictors: Predictors, image_hidden: np.ndarray,
                      cfg: SparsityConfig) -> np.ndarray:
    """Sorted original indices of image tokens retained beyond layer l."""
    n = image_hidden.shape[0]
    if n == 0 or cfg.image_keep_rate == 1.0:
        return np.arange(n)
    if cfg.policy == "random":
        flags = random_policy_mask(n, cfg.image_keep_rate, cfg.policy_seed)
        return np.flatnonzero(flags)
    if cfg.policy == "structure":
        return np.flatnonzero(structure_policy_mask(n))
    decisions = image_decisions(predictors, image_hidden)
    if cfg.selection_mode == "topk":
        return select_topk_keep(decisions, cfg.image_keep_rate)
    keep = np.flatnonzero(decisions_to_mask(decisions))
    if keep.size == 0:
        raise ContractViolation("image sparsification kept no tokens")
    return keep


def _output_flags(predictors: Predictors, output_hidden: np.ndarray,
                  cfg: SparsityConfig) -> np.ndarray:
    """Keep flags for every output token, before the forced-keep of the
    newest token. Decisions are per-token and stable across steps."""
    n = output_hidden.shape[0]
    if cfg.output_keep_rate == 1.0:
        return np.ones(n, dtype=np.int64)
    if cfg.policy in ("random", "structure"):
        return np.array([_stream_admit(cfg, j) for j in range(n)], dtype=np.int64)
    return decisions_to_mask(output_decisions(predictors, output_hidden))


def _admit_current(predictors: Predictors, token_hidden: np.ndarray,
                   cfg: SparsityConfig, token_index: int) -> bool:
    """Cache-admission decision for the newest output token."""
    if cfg.output_keep_rate == 1.0:
        return True
    if cfg.policy in ("random", "structure"):
        return _stream_admit(cfg, token_index)
    decisions = output_decisions(predictors, token_hidden[None, :])
    return bool(decisions_to_mask(decisions)[0])


# -- single-sample sparsified modes --------------------------------------------


def sparse_prefill(model: Model, predictors: Predictors, state: SequenceState,
                   cfg: SparsityConfig, meter=None):
    """Prefill with image-token reduction after layer l.

    Returns (last-position logits, cache, kept image indices). The cache
    holds every prompt token for layers <= l and only survivors beyond.
    """
    cfg.validate(model.config.num_layers)
    if state.n_prefill == 0:
        raise ContractViolation("sparse_prefill: empty state")
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    cache = KVCacheStore(model.config.num_layers)
    x = state.prefill_tokens()
    mask = causal_mask(x.shape[0])
    for li in range(split):
        x, k, v = layer_forward(model.layers[li], x, mask, heads, meter=meter)
        cache.extend(li, k, v, np.arange(x.shape[0]))
    keep = select_image_keep(predictors, x[:state.n_image], cfg)
    if state.n_prefill > 0 and keep.size + state.n_text == 0:
        raise ContractViolation("sparse_prefill kept no tokens")
    positions = np.concatenate([keep, np.arange(state.n_image, state.n_prefill)])
    x = x[positions]
    mask = causal_mask(x.shape[0])
    for li in range(split, model.config.num_layers):
        x, k, v = layer_forward(model.layers[li], x, mask, heads, meter=meter)
        cache.extend(li, k, v, positions)
    return _logits_at(model, x[-1]), cache, keep


def sparse_decode_no_cache(model: Model, predictors: Predictors,
                           state: SequenceState, cfg: SparsityConfig,
                           return_decisions: bool = False):
    """One decoding step without a KV cache.

    The first l layers run on the full image+text+output set; beyond layer l
    only surviving image tokens, all text tokens, and surviving output
    tokens remain, with the newest output token always kept. Returns the
    newest position's logits (plus the per-token decisions on request).
    """
    cfg.validate(model.config.num_layers)
    if state.n_output < 1:
        raise ContractViolation("sparse_decode_no_cache: need >= 1 output token")
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    x = state.all_tokens()
    mask = causal_mask(x.shape[0])
    for li in range(split):
        x = decoder_layer_forward(model.layers[li], x, mask, heads)
    image_keep = select_image_keep(predictors, x[:state.n_image], cfg)
    out_flags = _output_flags(predictors, x[state.n_prefill:], cfg)
    effective = out_flags.copy()
    effective[-1] = 1  # the newest token generates the next one
    positions = np.concatenate([
        image_keep,
        np.arange(state.n_image, state.n_prefill),
        state.n_prefill + np.flatnonzero(effective),
    ])
    x = x[positions]
    mask = causal_mask(x.shape[0])
    for li in range(split, model.config.num_layers):
        x = decoder_layer_forward(model.layers[li], x, mask, heads)
    logits = _logits_at(model, x[-1])
    if return_decisions:
        return logits, image_keep, out_flags
    return logits


def sparse_decode_with_cache(model: Model, predictors: Predictors,
                             cache: KVCacheStore, admissions: list,
                             last_token: np.ndarray, position: int,
                             cfg: SparsityConfig):
    """One cached decoding step with online KV admission.

    The current token always attends over cache plus its own K/V at every
    layer. Its layer-l feature decides admission: if rejected, its K/V are
    appended only for layers <= l, and the decision is recorded once and
    shared by all deeper layers. Returns (logits, admitted flag).
    """
    cfg.validate(model.config.num_layers)
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    x = last_token
    admitted = True
    for li, layer in enumerate(model.layers):
        if cache.positions[li] and position <= cache.positions[li][-1]:
            raise ContractViolation(
                f"decode position {position} conflicts with cache at layer {li}"
            )
        if li == split:
            admitted = _admit_current(predictors, x, cfg, len(admissions))
        ck, cv = cache.stacked(li)
        out, k_self, v_self = attend_cached(layer, x, ck, cv, heads)
        if li < split or admitted:
            cache.append(li, k_self, v_self, position)
        x = out
    admissions.append(AdmissionRecord(position=position, admitted=admitted,
                                      step=len(admissions)))
    return _logits_at(model, x), admitted


def sparse_greedy_generate(model: Model, predictors: Predictors,
                           state: SequenceState, cfg: SparsityConfig,
                           max_new_tokens: int, mode: str = "with_cache"):
    """Greedy generation under sparsified inference; returns a trace.

    Both modes produce identical token sequences for the same weights; the
    no-cache trace reports the per-token keep decisions the cached mode
    records as admissions. Generation stops at EOS, after max_new_tokens,
    or after the token that has no position left below max_seq_len; the
    trace's ``stop_reason`` says which.
    """
    if mode not in ("no_cache", "with_cache"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if max_new_tokens < 0:
        raise ContractViolation("max_new_tokens must be >= 0")
    trace = GenerationTrace(mode=mode, n_image=state.n_image, n_text=state.n_text)
    work = state.copy()
    if max_new_tokens == 0:
        return trace
    if mode == "with_cache":
        logits, cache, keep = sparse_prefill(model, predictors, work, cfg)
        trace.image_keep = list(map(int, keep))
        admissions = trace.admissions
        position = work.n_prefill
        for _ in range(max_new_tokens):
            token = int(np.argmax(logits))
            trace.token_ids.append(token)
            reason = stop_reason(model, token, position)
            if reason:
                trace.stop_reason = reason
                break
            vec = embed_output_token(model, token, position)
            logits, _ = sparse_decode_with_cache(
                model, predictors, cache, admissions, vec, position, cfg)
            position += 1
        return trace
    logits, _, keep = sparse_prefill(model, predictors, work, cfg)
    trace.image_keep = list(map(int, keep))
    out_flags = np.zeros(0, dtype=np.int64)
    for _ in range(max_new_tokens):
        token = int(np.argmax(logits))
        trace.token_ids.append(token)
        reason = stop_reason(model, token, work.total)
        if reason:
            trace.stop_reason = reason
            break
        append_output(model, work, token)
        logits, keep, out_flags = sparse_decode_no_cache(
            model, predictors, work, cfg, return_decisions=True)
        trace.image_keep = list(map(int, keep))
    for j, flag in enumerate(out_flags):
        trace.admissions.append(AdmissionRecord(
            position=state.n_prefill + j, admitted=bool(flag), step=j))
    return trace


# -- batch-parallel execution ---------------------------------------------------


def left_pad(rows: list) -> tuple:
    """Left-pad per-sample (n_b, d) matrices with zero vectors.

    Returns (B, max_n, d) stacked data and a (B, max_n) validity mask; pad
    slots sit on the left so the newest token is always the last column.
    """
    if not rows:
        raise ContractViolation("left_pad: empty batch")
    d = rows[0].shape[-1]
    max_n = max(r.shape[0] for r in rows)
    out = np.zeros((len(rows), max_n, d))
    valid = np.zeros((len(rows), max_n), dtype=bool)
    for b, r in enumerate(rows):
        if r.shape[0]:
            out[b, max_n - r.shape[0]:] = r
            valid[b, max_n - r.shape[0]:] = True
    return out, valid


@dataclass
class PaddedBatch:
    """A mini-batch of independent sequences executed in lockstep."""
    states: list

    def __post_init__(self):
        if not self.states:
            raise ContractViolation("PaddedBatch: need at least one sample")

    @property
    def size(self):
        return len(self.states)


def _padded_causal_mask(valid: np.ndarray) -> np.ndarray:
    """Causal mask over left-padded rows: no attention into pad slots, and
    pad rows self-attend so every row keeps one live entry."""
    b, n = valid.shape
    tril = np.tril(np.ones((n, n), dtype=bool))
    mask = tril[None, :, :] & valid[:, None, :]
    eye = np.eye(n, dtype=bool)
    mask |= eye[None, :, :]
    return mask.astype(np.float64)


def _batch_keep_sets(predictors, x_l, batch, row_counts, cfg):
    """Per-sample kept image indices from the batched layer-l activations.

    ``row_counts[b]`` is the number of real (unpadded) rows sample b holds
    in ``x_l``. The learned top-k path batches the predictor over a padded
    image tensor of the lanes that have image tokens (a lane without any
    keeps none, as in ``sparse_prefill``); other configurations fall back
    to the per-sample selection rule on the same features.
    """
    max_rows = x_l.shape[1]
    img_rows = [x_l[b, max_rows - row_counts[b]:
                    max_rows - row_counts[b] + st.n_image]
                for b, st in enumerate(batch.states)]
    image_lanes = [b for b, r in enumerate(img_rows) if r.shape[0]]
    if not (cfg.policy == "learned" and cfg.selection_mode == "topk"
            and cfg.image_keep_rate < 1.0 and image_lanes):
        return [select_image_keep(predictors, rows, cfg) for rows in img_rows]
    img_padded, img_valid = left_pad([img_rows[b] for b in image_lanes])
    decisions = image_decisions_batched(predictors, img_padded, img_valid)
    keep_sets = [np.arange(0)] * batch.size
    for i, b in enumerate(image_lanes):
        rows = decisions[i, img_padded.shape[1] - img_rows[b].shape[0]:]
        keep_sets[b] = select_topk_keep(rows, cfg.image_keep_rate)
    return keep_sets


def batch_sparse_prefill(model: Model, predictors: Predictors,
                         batch: PaddedBatch, cfg: SparsityConfig,
                         build_caches: bool = False):
    """Left-padded batch-parallel sparse prefill.

    Keeps floor(image_keep_rate * n_image_b) image tokens per sample via
    top-k on the keep scores and re-pads survivors to the in-batch maximum.
    Per-sample outputs match the sequential single-sample path.
    """
    cfg.validate(model.config.num_layers)
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    caches = [KVCacheStore(model.config.num_layers) for _ in batch.states] \
        if build_caches else None
    x, valid = left_pad([st.prefill_tokens() for st in batch.states])
    mask = _padded_causal_mask(valid)[:, None]
    for li in range(split):
        x, k, v = layer_forward(model.layers[li], x, mask, heads)
        if build_caches:
            _cache_batched(caches, li, k, v, valid,
                           [np.arange(st.n_prefill) for st in batch.states])
    keep_sets = _batch_keep_sets(predictors, x, batch,
                                 [st.n_prefill for st in batch.states], cfg)
    survivor_rows, survivor_pos = [], []
    max_np = x.shape[1]
    for b, st in enumerate(batch.states):
        offset = max_np - st.n_prefill
        pos = np.concatenate([keep_sets[b],
                              np.arange(st.n_image, st.n_prefill)]).astype(int)
        survivor_rows.append(x[b, offset + pos])
        survivor_pos.append(pos)
    x, valid = left_pad(survivor_rows)
    mask = _padded_causal_mask(valid)[:, None]
    for li in range(split, model.config.num_layers):
        x, k, v = layer_forward(model.layers[li], x, mask, heads)
        if build_caches:
            _cache_batched(caches, li, k, v, valid, survivor_pos)
    logits = _rms_norm(x[:, -1], model.final_norm_gain) @ model.lm_head
    if build_caches:
        return logits, keep_sets, caches
    return logits, keep_sets


def _cache_batched(caches, layer_idx, k, v, valid, positions_per_sample):
    """Write each lane's unpadded (B, N, d) ``k``, ``v`` rows to its cache."""
    for b, positions in enumerate(positions_per_sample):
        rows = np.flatnonzero(valid[b])
        caches[b].extend(layer_idx, k[b, rows], v[b, rows], positions)


def batch_sparse_decode(model: Model, predictors: Predictors,
                        batch: PaddedBatch, cfg: SparsityConfig,
                        mode: str = "no_cache") -> np.ndarray:
    """Batched next-token logits over per-sample histories.

    ``no_cache`` re-runs the padded full sets with per-sample output masks;
    ``with_cache`` replays the histories through padded per-sample KV caches
    (lanes advance in lockstep, so with-cache mode requires equal history
    lengths). Per-sample results match sequential execution within 1e-9.
    """
    cfg.validate(model.config.num_layers)
    if mode == "no_cache":
        return _batch_decode_no_cache(model, predictors, batch, cfg)
    if mode == "with_cache":
        return _batch_decode_with_cache(model, predictors, batch, cfg)
    raise ContractViolation(f"unknown mode {mode!r}")


def _batch_decode_no_cache(model, predictors, batch, cfg):
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    for st in batch.states:
        if st.n_output < 1:
            raise ContractViolation("batch decode: every sample needs output tokens")
    x, valid = left_pad([st.all_tokens() for st in batch.states])
    mask = _padded_causal_mask(valid)[:, None]
    for li in range(split):
        x = decoder_layer_forward(model.layers[li], x, mask, heads)
    keep_sets = _batch_keep_sets(predictors, x, batch,
                                 [st.total for st in batch.states], cfg)
    survivor_rows = []
    max_n = x.shape[1]
    for b, st in enumerate(batch.states):
        offset = max_n - st.total
        out_rows = x[b, offset + st.n_prefill: offset + st.total]
        flags = _output_flags(predictors, out_rows, cfg)
        flags = flags.copy()
        flags[-1] = 1
        pos = np.concatenate([
            keep_sets[b],
            np.arange(st.n_image, st.n_prefill),
            st.n_prefill + np.flatnonzero(flags),
        ]).astype(int)
        survivor_rows.append(x[b, offset + pos])
    x, valid = left_pad(survivor_rows)
    mask = _padded_causal_mask(valid)[:, None]
    for li in range(split, model.config.num_layers):
        x = decoder_layer_forward(model.layers[li], x, mask, heads)
    return _rms_norm(x[:, -1], model.final_norm_gain) @ model.lm_head


def _batch_decode_with_cache(model, predictors, batch, cfg):
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    n_out = {st.n_output for st in batch.states}
    if len(n_out) != 1 or 0 in n_out:
        raise ContractViolation(
            "with-cache batch decode needs equal, nonzero history lengths")
    steps = n_out.pop()
    prompts = [SequenceState(st.image, st.text, np.zeros((0, model.config.hidden_dim)))
               for st in batch.states]
    logits, _, caches = batch_sparse_prefill(
        model, predictors, PaddedBatch(prompts), cfg, build_caches=True)
    for t in range(steps):
        x = np.stack([st.output[t] for st in batch.states])[:, None]
        positions = [st.n_prefill + t for st in batch.states]
        for li, layer in enumerate(model.layers):
            if li == split:
                admit = [_admit_current(predictors, x[b, 0], cfg, t)
                         for b in range(batch.size)]
            past_k, kvalid = left_pad([c.stacked(li)[0] for c in caches])
            past_v, _ = left_pad([c.stacked(li)[1] for c in caches])
            kvalid = np.concatenate([kvalid, np.ones((batch.size, 1), dtype=bool)],
                                    axis=1)
            x, k, v = layer_forward(layer, x, kvalid[:, None, None, :], heads,
                                    past_kv=(past_k, past_v))
            for b in range(batch.size):
                if li < split or admit[b]:
                    caches[b].append(li, k[b, 0], v[b, 0], positions[b])
        logits = _rms_norm(x[:, 0], model.final_norm_gain) @ model.lm_head
    return logits
