"""Sparsified inference: prefill-time image-token reduction, output-token
reduction when decoding without a KV cache, and online KV-cache admission
when decoding with one, plus batch entry points and the Random/Structure
static baselines.

Layer convention: with ``sparsify_layer = l`` (0 <= l < num_layers) the
first l layers always see the full token set and cache every token, the
predictors read the l-th layer's output (the embeddings when l = 0), and
layers l and beyond see only survivors. A decision is made once per token
and shared by all deeper layers; a dropped or non-admitted token never
reappears beyond layer l at any later step. The newest token always takes
part in its own step's attention regardless of whether it is admitted for
future steps.

Each token is decided once per generation in both decode modes. Cached
decoding records each output's admission as it is fed. Prefill and
no-cache decoding record each lane's kept image indices and output flags
on its ``SequenceState.decisions``, and a later forward over the same
state reuses them: the image predictor runs once per generation and the
output predictor once per output token. The record is reused only while
the model and predictors are the same objects, the sparsity config is
equal, the prompt arrays are the same and the decided output rows are
unchanged; otherwise the forward decides afresh. The record is what keeps
each decision fixed: under the causal mask a token's layer-l feature does
not depend on later tokens, but it can move in its last bits when later
rows join its partial 64-row query block, so a fresh forward over a longer
sequence may score a token ever so slightly differently.

One forward per sequence: prefill and no-cache decoding, dense or sparse,
run ``_sparse_forward``, one layer loop over one sequence's rows that
decides at layer l and carries only the survivors on. Each layer projects
k and v for all its input rows but runs attention and FFN only for the
rows a later layer reads: the last layer only for the newest row (every
row for ``model.full_logits``), and layer l - 1, when the state's record
holds, only for the record's survivors and the outputs it has not decided
yet; a forward that decides afresh runs every row there, since the image
predictor reads them all. The values are those of running every row, bit
for bit (``model.layer_forward`` says how). ``_forward`` is the
checked call of it that this module's prefill, no-cache and generation
entry points share. ``_cached_logits`` is the one teacher-forced loop over
a cache: prefill, then each output row fed as one cached step. A batch
runs its lanes one after another through the single-sequence calls, so
each lane's values are exactly its own; on one numpy thread, lanes of
mixed length also run sooner this way than left-padded in lockstep.
Cached decoding runs one new row per step through ``attend_cached``: at
each layer the row's K/V are written once, in place, into the free row of
a ``KVCacheStore.slot``, the row attends over the slot's views, and
admission is whether ``commit`` then advances that layer's length. No step
copies the cache.

Dense inference is the case l = 0 with both keep rates at 1: nothing is
dropped, no predictor is consulted, and ``model.prefill``,
``model.decode_step_no_cache``, ``model.full_logits``,
``model.decode_step_with_cache`` and ``model.greedy_generate`` are thin
calls into this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolation
from .model import (
    KVCacheStore,
    Model,
    SequenceState,
    _check_position,
    _is_int,
    _is_real,
    _logits_at,
    append_output,
    attend_cached,
    decoder_layer_forward,  # not called here; kept for the benchmark's probes
    embed_output_token,
    layer_forward,
    stop_reason,
)
from .predictors import (
    Predictors,
    decisions_to_mask,
    image_decisions,
    image_decisions_batched,  # not called here; kept for the benchmark's probes
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
        if not (_is_int(self.sparsify_layer) and 0 <= self.sparsify_layer < num_layers):
            raise ContractViolation(
                f"sparsify_layer must be an integer in [0, {num_layers - 1}], "
                f"got {self.sparsify_layer!r}"
            )
        for name in ("image_keep_rate", "output_keep_rate"):
            rate = getattr(self, name)
            if not (_is_real(rate) and 0.0 < rate <= 1.0):
                raise ContractViolation(f"{name} must be a real number in (0, 1]")
        if self.selection_mode not in SELECTION_MODES:
            raise ContractViolation(f"unknown selection_mode {self.selection_mode!r}")
        if self.policy not in POLICIES:
            raise ContractViolation(f"unknown policy {self.policy!r}")
        if not (_is_int(self.policy_seed) and self.policy_seed >= 0):
            raise ContractViolation(f"policy_seed must be an integer >= 0, "
                                    f"got {self.policy_seed!r}")
        return self


def _validate(model: Model, predictors: Predictors, cfg: SparsityConfig):
    """``cfg.validate`` for ``model``, and, when ``cfg`` consults the
    predictors (the learned policy with a keep rate below 1), a check that
    there are predictors and that they read rows of the model's width."""
    cfg.validate(model.config.num_layers)
    d = model.config.hidden_dim
    rate = min(cfg.image_keep_rate, cfg.output_keep_rate)
    consults = cfg.policy == "learned" and rate < 1.0
    if consults and (predictors is None or predictors.config.input_dim != d):
        raise ContractViolation(
            f"a learned policy below keep rate 1 needs predictors of input_dim {d}")


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
    schema-versioned JSON-ready form. Admissions cover the tokens fed back
    as input: every generated token but the last, which ends the run."""
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
                  cfg: SparsityConfig, first_index: int = 0) -> np.ndarray:
    """Keep flags for the output tokens ``first_index``, ``first_index + 1``,
    ... before the forced keep of the newest token. Each decision depends
    on its own token alone, so no-cache decoding (all outputs at once) and
    cached admission (one token per step) make the same ones."""
    n = output_hidden.shape[0]
    if cfg.output_keep_rate == 1.0:
        return np.ones(n, dtype=np.int64)
    if cfg.policy in ("random", "structure"):
        return np.array([_stream_admit(cfg, first_index + j) for j in range(n)],
                        dtype=np.int64)
    return decisions_to_mask(output_decisions(predictors, output_hidden))


@dataclass(eq=False)
class _Decisions:
    """A lane's record on ``SequenceState.decisions``: its kept image
    indices and the flags of its first ``len(output)`` outputs, with what
    they were decided from. The two decision arrays are read-only, since
    forwards hand them to callers."""
    model: Model
    predictors: Predictors
    cfg: SparsityConfig      # a copy: a later edit of the caller's is seen
    image: np.ndarray        # the state's prompt arrays themselves
    text: np.ndarray
    output: np.ndarray       # a copy of the decided output rows
    image_keep: np.ndarray
    output_flags: np.ndarray

    def holds_for(self, model, predictors, state, cfg) -> bool:
        k = self.output.shape[0]
        return (self.model is model and self.predictors is predictors
                and self.cfg == cfg and self.image is state.image
                and self.text is state.text and k <= state.n_output
                and np.array_equal(self.output, state.output[:k]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _decide(model: Model, predictors: Predictors, state: SequenceState,
            rows: np.ndarray, cfg: SparsityConfig, outputs: bool):
    """The state's kept image indices and, when ``outputs``, its output
    flags (None without output rows), given its layer-l ``rows``.

    The decisions on the state's record are reused while it holds, so only
    the outputs appended since are decided; otherwise the state is decided
    afresh. Either way the record then covers what was returned.
    """
    rec = state.decisions
    if rec is None or not rec.holds_for(model, predictors, state, cfg):
        keep = select_image_keep(predictors, rows[:state.n_image], cfg)
        rec = state.decisions = _Decisions(
            model, predictors, replace(cfg), state.image, state.text,
            state.output[:0].copy(), _read_only(keep),
            _read_only(np.zeros(0, dtype=np.int64)))
    if not outputs or not state.n_output:
        return rec.image_keep, None
    k = rec.output.shape[0]
    if k < state.n_output:  # the undecided outputs are the last rows
        new = _output_flags(predictors, rows[len(rows) - (state.n_output - k):], cfg,
                            first_index=k)
        rec.output_flags = _read_only(np.concatenate([rec.output_flags, new]))
        rec.output = state.output.copy()
    return rec.image_keep, rec.output_flags


def _survivors(state: SequenceState, image_keep: np.ndarray, out_flags=None):
    """Original positions of the tokens that layers l, l + 1, ... see: the
    kept image tokens, every text token and, given output flags, the kept
    outputs and always the newest one, which generates the next token."""
    parts = [image_keep, np.arange(state.n_image, state.n_prefill)]
    if out_flags is not None:
        kept = out_flags.copy()
        kept[-1] = 1
        parts.append(state.n_prefill + np.flatnonzero(kept))
    return np.concatenate(parts).astype(int)


# -- the one forward for prefill and no-cache decoding ---------------------------


def _read_at_split(model: Model, predictors: Predictors, state: SequenceState,
                   cfg: SparsityConfig, outputs: bool):
    """Original positions of the rows that layer l reads of layer l - 1's
    output, or None for every row: with a record that holds, its survivors
    plus the outputs it has not decided yet (the newest among them), whose
    layer-l rows the output predictor reads; otherwise every row, since
    deciding afresh runs the image predictor over all image rows."""
    rec = state.decisions
    if rec is None or not rec.holds_for(model, predictors, state, cfg):
        return None
    flags = None
    if outputs and state.n_output:
        flags = np.ones(state.n_output, dtype=np.int64)
        flags[:len(rec.output_flags)] = rec.output_flags
    return _survivors(state, rec.image_keep, flags)


def _sparse_forward(model: Model, predictors: Predictors, state: SequenceState,
                    cfg: SparsityConfig, outputs: bool, cache=None, meter=None,
                    every_row: bool = False):
    """Prefill (``outputs`` False) or no-cache decoding (``outputs`` True)
    of one sequence.

    The prompt rows, plus the output rows when ``outputs``, run through
    layers < l under a causal mask. At layer l the state's record gives the
    kept image tokens and output flags, deciding from the layer-l rows only
    what the record lacks (``_decide``), and the survivors run through
    layers l, l + 1, .... Given a ``cache``, every layer's K/V rows are
    written into it at their original positions.

    Layer l - 1 computes only the rows ``_read_at_split`` names, and the
    last layer only the newest row unless ``every_row``. Returns the final
    rows (every survivor when ``every_row``, else the newest alone), the
    kept image indices, and the output flags (None without output rows).
    A state without image or text rows is refused.
    """
    if state.n_prefill == 0:
        raise ContractViolation("empty state: no image or text rows")
    x = state.all_tokens() if outputs else state.prefill_tokens()
    positions = np.arange(x.shape[0])  # each row's original position
    split, last = cfg.sparsify_layer, len(model.layers) - 1
    read = _read_at_split(model, predictors, state, cfg, outputs) if split else None
    for li, layer in enumerate(model.layers):
        if li == split:
            keep, flags = _decide(model, predictors, state, x, cfg, outputs)
            survivors = _survivors(state, keep, flags)
            x = x[np.searchsorted(positions, survivors)]
            positions = survivors
        if li in (0, split):
            mask = np.tri(len(x), dtype=bool)  # causal; 1/8 of causal_mask's bytes
        rows = read if li == split - 1 else None
        if li == last and not every_row:
            rows = np.array([len(x) - 1])
        x, k, v = layer_forward(layer, x, mask, model.config.num_heads, meter=meter,
                                rows=rows)
        if cache is not None:
            cache.extend(li, k, v, positions)
        if rows is not None:
            positions = positions[rows]
    return x, keep, flags


def _forward(model: Model, predictors: Predictors, state: SequenceState,
             cfg: SparsityConfig, outputs: bool, cache=None, meter=None):
    """Checked ``_sparse_forward``: the newest row's logits, the kept image
    indices and the output flags (None without output rows)."""
    _validate(model, predictors, cfg)
    # a state without prompt rows is refused as empty by _sparse_forward
    if outputs and state.n_prefill and state.n_output < 1:
        raise ContractViolation("no-cache decoding needs >= 1 output token")
    x, keep, flags = _sparse_forward(model, predictors, state, cfg, outputs,
                                     cache=cache, meter=meter)
    return _logits_at(model, x[-1]), keep, flags


def sparse_prefill(model: Model, predictors: Predictors, state: SequenceState,
                   cfg: SparsityConfig, meter=None):
    """Prefill with image-token reduction after layer l.

    Returns (last-position logits, cache, kept image indices). The cache
    holds every prompt token for layers <= l and only survivors beyond.
    """
    cache = KVCacheStore(model.config.num_layers)
    logits, keep, _ = _forward(model, predictors, state, cfg, False, cache, meter)
    return logits, cache, keep


def sparse_decode_no_cache(model: Model, predictors: Predictors,
                           state: SequenceState, cfg: SparsityConfig,
                           return_decisions: bool = False):
    """One decoding step without a KV cache.

    The first l layers run on the full image+text+output set; beyond layer l
    only surviving image tokens, all text tokens, and surviving output
    tokens remain, with the newest output token always kept. The state's
    recorded decisions are reused, so a step of a generation decides only
    its new output token. Returns the newest position's logits (plus the
    kept image indices and every output's flag on request).
    """
    logits, keep, flags = _forward(model, predictors, state, cfg, True)
    return (logits, keep, flags) if return_decisions else logits


def sparse_decode_with_cache(model: Model, predictors: Predictors,
                             cache: KVCacheStore, admissions: list,
                             last_token: np.ndarray, position: int,
                             cfg: SparsityConfig):
    """One cached decoding step with online KV admission.

    At every layer the current token's K/V are written once, in place, into
    the free row of a ``cache.slot`` past the committed rows, and the token
    attends over the slot views: the cached rows plus its own, with no copy
    of the cache. Its layer-l feature decides admission. An admitted row
    is committed at every layer; a rejected one only at layers < l, and at
    the deeper layers it stays past the length, where the next step
    overwrites it. The decision is recorded once and shared by all deeper
    layers. The step is atomic on a bad input: the cache must have one
    layer per model layer, ``last_token`` must be one finite (hidden_dim,)
    ndarray of a real floating dtype and ``position`` an integer below
    max_seq_len past every layer's last cached one, all checked before any
    layer runs, so each fault raises ``ContractViolation`` with the cache
    unchanged. Returns (logits, admitted flag).
    """
    _validate(model, predictors, cfg)
    if cache.num_layers != model.config.num_layers:
        raise ContractViolation(f"cache of {cache.num_layers} layers for a "
                                f"{model.config.num_layers}-layer model")
    if not isinstance(last_token, np.ndarray):
        raise ContractViolation(f"cached step token is a {type(last_token).__name__}, "
                                f"not an ndarray")
    if last_token.dtype.kind != "f":
        raise ContractViolation(f"cached step token of dtype {last_token.dtype} "
                                f"is not real floating")
    if last_token.shape != (model.config.hidden_dim,):
        raise ContractViolation(f"cached step token shape {last_token.shape} "
                                f"is not ({model.config.hidden_dim},)")
    if not np.isfinite(last_token).all():
        raise ContractViolation("cached step token is not finite")
    _check_position(model, position)
    for li in range(model.config.num_layers):
        cache.check_position(li, position)
    split = cfg.sparsify_layer
    heads = model.config.num_heads
    x = last_token
    admitted = True
    for li, layer in enumerate(model.layers):
        if li == split:
            admitted = bool(_output_flags(predictors, x[None], cfg, len(admissions))[0])
        x = attend_cached(layer, x, *cache.slot(li, x.shape[-1]), heads)[0]
        if li < split or admitted:
            cache.commit(li, [position])
    admissions.append(AdmissionRecord(position=position, admitted=admitted,
                                      step=len(admissions)))
    return _logits_at(model, x), admitted


def sparse_greedy_generate(model: Model, predictors: Predictors,
                           state: SequenceState, cfg: SparsityConfig,
                           max_new_tokens: int, mode: str = "with_cache"):
    """Greedy generation under sparsified inference; returns a trace.

    Both modes produce identical token sequences for the same weights; the
    no-cache trace reports the per-token keep decisions, each made once as
    its token is fed, that the cached mode records as admissions.
    Generation stops at EOS, after max_new_tokens, or after the token that
    has no position left below max_seq_len; the trace's ``stop_reason``
    says which.
    """
    if mode not in ("no_cache", "with_cache"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if not (_is_int(max_new_tokens) and max_new_tokens >= 0):
        raise ContractViolation(f"max_new_tokens must be an integer >= 0, "
                                f"got {max_new_tokens!r}")
    _validate(model, predictors, cfg)
    trace = GenerationTrace(mode=mode, n_image=state.n_image, n_text=state.n_text)
    if max_new_tokens == 0:
        return trace
    work = state.copy()
    # no-cache steps re-run every row, so only the cached mode keeps K/V
    cache = KVCacheStore(model.config.num_layers) if mode == "with_cache" else None
    logits, keep, _ = _forward(model, predictors, work, cfg, False, cache)
    trace.image_keep = list(map(int, keep))
    for position in range(work.n_prefill, work.n_prefill + max_new_tokens):
        token = int(np.argmax(logits))
        trace.token_ids.append(token)
        reason = stop_reason(model, token, position)
        if reason:
            trace.stop_reason = reason
        if reason or len(trace.token_ids) == max_new_tokens:
            break  # the last token is not fed back
        if cache is None:
            append_output(model, work, token)
            logits, _, flags = sparse_decode_no_cache(model, predictors, work, cfg,
                                                      return_decisions=True)
            trace.admissions.append(AdmissionRecord(
                position=position, admitted=bool(flags[-1]), step=len(trace.admissions)))
        else:
            vec = embed_output_token(model, token, position)
            logits = sparse_decode_with_cache(model, predictors, cache, trace.admissions,
                                              vec, position, cfg)[0]
    return trace


# -- batches -------------------------------------------------------------------


# No package caller: perfbench's probes wrap it; tests pad inputs with it.
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
    """A non-empty list of independent sequences, which the batch calls run
    one after another (the name stays: perfbench's workloads build it)."""
    states: list

    def __post_init__(self):
        if not self.states:
            raise ContractViolation("PaddedBatch: need at least one sample")


# No package caller: layer tests build (B, 1, N, N) masks with it.
def _padded_causal_mask(valid: np.ndarray) -> np.ndarray:
    """Causal mask over left-padded rows: no attention into pad slots, and
    pad rows self-attend so every row keeps one live entry."""
    n = valid.shape[1]
    mask = np.tri(n, dtype=bool) & valid[:, None, :]
    mask |= np.eye(n, dtype=bool)
    return mask


def batch_sparse_prefill(model: Model, predictors: Predictors,
                         batch: PaddedBatch, cfg: SparsityConfig):
    """Sparse prefill of each lane on its own, with no cache kept: the
    (B, vocab) last-position logits and the per-lane keep sets, exactly
    those of ``sparse_prefill`` on each lane alone."""
    logits, keep_sets, _ = zip(*(_forward(model, predictors, st, cfg, False)
                                 for st in batch.states))
    return np.stack(logits), list(keep_sets)


def batch_sparse_decode(model: Model, predictors: Predictors,
                        batch: PaddedBatch, cfg: SparsityConfig,
                        mode: str = "no_cache") -> np.ndarray:
    """Next-token logits of each lane, decoded on its own, one lane at a
    time: ``sparse_decode_no_cache`` (``no_cache``), or ``sparse_prefill`` of
    its prompt then ``sparse_decode_with_cache`` over its outputs
    (``with_cache``). Lanes may hold different numbers of outputs, but each
    needs at least one."""
    if mode not in ("no_cache", "with_cache"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if any(st.n_output < 1 for st in batch.states):
        raise ContractViolation("batch decode: every sample needs output tokens")
    return np.stack([sparse_decode_no_cache(model, predictors, st, cfg) if mode == "no_cache"
                     else _cached_logits(model, predictors, st, cfg)[-1]
                     for st in batch.states])


def _cached_logits(model, predictors, state, cfg) -> list:
    """Teacher forcing over a cache: the logits after ``sparse_prefill`` of
    ``state``'s prompt, then after each of its output rows, fed in order as
    one ``sparse_decode_with_cache`` step each."""
    logits, cache, _ = sparse_prefill(model, predictors, state, cfg)
    out, admissions = [logits], []
    for t in range(state.n_output):
        out.append(sparse_decode_with_cache(model, predictors, cache, admissions,
                                            state.output[t], state.n_prefill + t, cfg)[0])
    return out
