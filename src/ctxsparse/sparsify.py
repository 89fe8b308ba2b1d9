"""Sparsified inference: prefill-time image-token reduction, output-token
reduction when decoding without a KV cache, and online KV-cache admission
when decoding with one, plus batch entry points and the Random/Structure
static baselines.

Every policy keeps ``_keep_count(n, image_keep_rate)`` of n image tokens
(learned top-k, a seeded draw or an even stride; learned argmax keeps what
its decisions keep). Structure keeps within one token of ``output_keep_rate``
of every output prefix; random keeps each output with that probability.

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
decides at layer l, carries only the survivors on and computes only the
rows a later layer reads, with the bits of running every row (its
docstring says which rows). ``_forward`` is its checked call, shared by
this module's entry points; ``_cached_logits`` is the one teacher-forced
loop over a cache. A batch runs its lanes one after another through the
single-sequence calls, so each lane's values are exactly its own; on one
numpy thread, lanes of mixed length also run sooner this way than
left-padded in lockstep. Cached decoding (``sparse_decode_with_cache``)
writes each new row's K/V once, in place, into a ``KVCacheStore.slot``, and
admission is whether ``commit`` then advances the layer's length; no step
copies the cache.

Dense inference is the case l = 0 with both keep rates at 1: nothing is
dropped, no predictor is consulted, and ``model.prefill``,
``model.decode_step_no_cache``, ``model.full_logits``,
``model.decode_step_with_cache`` and ``model.greedy_generate`` are thin
calls into this module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ContractViolation
from .model import (
    KVCacheStore,
    Model,
    SequenceState,
    _check_cache,
    _check_choice,
    _check_int,
    _check_position,
    _check_rate,
    _check_type,
    _logits_at,
    append_output,
    attend_cached,
    causal_mask,
    decoder_layer_forward,  # not called here; kept for the benchmark's probes
    embed_output_token,
    layer_forward,
    stop_reason,
)
from .predictors import (
    Predictors,
    _keep_count,
    decisions_to_mask,
    image_decisions,
    image_decisions_batched,  # not called here; kept for the benchmark's probes
    output_decisions,
    select_topk_keep,
)

POLICIES = ("learned", "random", "structure")
SELECTION_MODES = ("argmax", "topk")
DECODE_MODES = ("no_cache", "with_cache")
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
        _check_int("sparsify_layer", self.sparsify_layer, 0, num_layers)
        _check_rate("image_keep_rate", self.image_keep_rate)
        _check_rate("output_keep_rate", self.output_keep_rate)
        _check_choice("selection_mode", self.selection_mode, SELECTION_MODES)
        _check_choice("policy", self.policy, POLICIES)
        _check_int("policy_seed", self.policy_seed, 0)
        return self


def _validate(model: Model, predictors: Predictors, cfg: SparsityConfig):
    """``cfg.validate`` for ``model``, and, when ``cfg`` consults the
    predictors (the learned policy with a keep rate below 1), a check that
    there are predictors and that they read rows of the model's width."""
    _check_type("cfg", cfg, SparsityConfig)
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
        return {"schema_version": 1, **asdict(self)}


# -- static baselines ----------------------------------------------------------


def _static_keep(n: int, keep_rate: float, policy: str, rng) -> np.ndarray:
    """Sorted indices of the ``_keep_count(n, keep_rate)`` image tokens a
    static policy keeps: a draw without replacement from ``rng`` (random)
    or an even stride over the ``n`` >= 1 tokens (structure)."""
    k = _keep_count(n, keep_rate)
    if policy == "random":
        return np.sort(rng.choice(n, size=k, replace=False))
    return np.arange(k) * n // k


def _stream_admit(cfg: SparsityConfig, token_index: int) -> bool:
    """Stable per-token admission draw for the static policies, keyed by the
    token's index alone so that it does not change as the sequence grows.
    Random keeps a token with probability r = ``output_keep_rate``; structure
    keeps output i iff floor(c(i + 1)) > floor(c(i)) for c(i) = i*r + 1 - r,
    so the first m outputs keep floor(c(m)), within one of m*r."""
    r = cfg.output_keep_rate
    if cfg.policy == "random":
        coin = np.random.default_rng((cfg.policy_seed, _STREAM_SALT, token_index))
        return bool(coin.random() < r)
    return bool(np.floor((token_index + 1) * r + 1 - r) > np.floor(token_index * r + 1 - r))


# -- selection helpers ---------------------------------------------------------


def select_image_keep(predictors: Predictors, image_hidden: np.ndarray,
                      cfg: SparsityConfig) -> np.ndarray:
    """Sorted original indices of the image tokens retained beyond layer l:
    ``_keep_count(n, image_keep_rate)`` of them under every policy but
    learned argmax, which keeps those its decisions keep."""
    n = image_hidden.shape[0]
    if n == 0 or cfg.image_keep_rate == 1.0:
        return np.arange(n)
    if cfg.policy != "learned":
        _check_rate("image_keep_rate", cfg.image_keep_rate)
        _check_int("policy_seed", cfg.policy_seed, 0)
        return _static_keep(n, cfg.image_keep_rate, cfg.policy,
                            np.random.default_rng(cfg.policy_seed))
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
    forwards hand them to callers. Weights are assumed not to change in
    place between the forwards of one generation."""
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
            rec, rows: np.ndarray, cfg: SparsityConfig, outputs: bool):
    """The state's kept image indices and, when ``outputs``, its output
    flags (None without output rows), given ``rec``, the state's record if
    it holds for this forward or else None, and its layer-l ``rows``.

    Only what the record lacks is decided: without a record every image
    token, and then every output not yet decided, which are the last rows.
    The state's record then covers what was returned.
    """
    if rec is None:
        keep = select_image_keep(predictors, rows[:state.n_image], cfg)
        rec = state.decisions = _Decisions(
            model, predictors, replace(cfg), state.image, state.text,
            state.output[:0].copy(), _read_only(keep),
            _read_only(np.zeros(0, dtype=np.int64)))
    if not outputs or not state.n_output:
        return rec.image_keep, None
    k = rec.output.shape[0]
    if k < state.n_output:
        new = _output_flags(predictors, rows[len(rows) - (state.n_output - k):], cfg,
                            first_index=k)
        rec.output_flags = _read_only(np.concatenate([rec.output_flags, new]))
        rec.output = state.output.copy()
    return rec.image_keep, rec.output_flags


def _survivors(state: SequenceState, image_keep: np.ndarray, out_flags=None):
    """Original positions of the tokens that layers l, l + 1, ... see: the
    kept image tokens, every text token and, given output flags, the kept
    outputs, the outputs past the flags (not decided yet) and always the
    newest one, which generates the next token."""
    parts = [image_keep, np.arange(state.n_image, state.n_prefill)]
    if out_flags is not None:
        decided = out_flags[:state.n_output - 1]
        parts += [state.n_prefill + np.flatnonzero(decided),
                  np.arange(state.n_prefill + len(decided), state.total)]
    return np.concatenate(parts).astype(int)


# -- the one forward for prefill and no-cache decoding ---------------------------


def _check_state(model: Model, state: SequenceState, decode: bool):
    """Refuse, from shapes alone, a state ``_sparse_forward`` cannot run:
    rows that are not (n, hidden_dim) arrays, no image or text row, more
    than max_seq_len rows or, when ``decode``, no output row. A
    ``state`` that is not a ``SequenceState`` is refused first."""
    _check_type("state", state, SequenceState)
    d = model.config.hidden_dim
    for name in ("image", "text", "output"):
        rows = getattr(state, name)
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] == d):
            raise ContractViolation(f"state {name} rows are not an (n, hidden_dim {d}) array")
    if state.n_prefill == 0:
        raise ContractViolation("empty state: no image or text rows")
    if state.total > model.config.max_seq_len:
        raise ContractViolation(f"state of {state.total} rows exceeds max_seq_len "
                                f"{model.config.max_seq_len}")
    if decode and state.n_output < 1:
        raise ContractViolation("no-cache decoding needs >= 1 output token")


def _sparse_forward(model: Model, predictors: Predictors, state: SequenceState,
                    cfg: SparsityConfig, outputs: bool, cache=None, meter=None,
                    every_row: bool = False, decode: bool = False):
    """Prefill (``outputs`` False) or no-cache decoding (``outputs`` True)
    of one sequence.

    The prompt rows, plus the output rows when ``outputs``, run through
    layers < l under a causal mask. At layer l the state's record gives the
    kept image tokens and output flags, deciding from the layer-l rows only
    what the record lacks (``_decide``), and the survivors run through
    layers l, l + 1, .... Given a ``cache``, every layer's K/V rows are
    written into it at their original positions.

    The record is looked up once. While it holds, layer l - 1 computes only
    the rows layer l reads: its survivors and the outputs it has not decided
    yet (deciding afresh reads every row). The last layer computes only the
    newest row unless ``every_row``. Returns the final rows (every survivor
    when ``every_row``, else the newest alone), the kept image indices, and
    the output flags (None without output rows).
    Before any layer runs, ``_check_state`` refuses a state that does not
    fit the model and, with ``decode``, one without output rows.
    """
    _check_state(model, state, decode)
    x = state.all_tokens() if outputs else state.prefill_tokens()
    positions = np.arange(x.shape[0])  # each row's original position
    split, last = cfg.sparsify_layer, len(model.layers) - 1
    rec = state.decisions
    if rec is not None and not rec.holds_for(model, predictors, state, cfg):
        rec = None
    for li, layer in enumerate(model.layers):
        if li == split:
            keep, flags = _decide(model, predictors, state, rec, x, cfg, outputs)
            survivors = _survivors(state, keep, flags)
            x = x[np.searchsorted(positions, survivors)]
            positions = survivors
        if li in (0, split):
            mask = causal_mask(len(x))
        rows = None
        if li == split - 1 and rec is not None:
            rows = _survivors(state, rec.image_keep, rec.output_flags if outputs else None)
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
    x, keep, flags = _sparse_forward(model, predictors, state, cfg, outputs,
                                     cache=cache, meter=meter, decode=outputs)
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
    _check_cache(cache)
    if cache.num_layers != model.config.num_layers:
        raise ContractViolation(f"cache of {cache.num_layers} layers for a "
                                f"{model.config.num_layers}-layer model")
    if not isinstance(admissions, list):
        raise ContractViolation(f"admissions is a {type(admissions).__name__}, not a list")
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

    Generation starts from a prompt-only state: the first generated token
    takes position ``n_prefill``, so a state that already holds outputs, or
    one that ``_check_state`` refuses, is refused before any layer runs.
    Both modes produce identical token sequences for the same weights; the
    no-cache trace reports the per-token keep decisions, each made once as
    its token is fed, that the cached mode records as admissions.
    Generation stops at EOS, after max_new_tokens, or after the token that
    has no position left below max_seq_len; the trace's ``stop_reason``
    says which.
    """
    _check_choice("mode", mode, DECODE_MODES)
    _check_int("max_new_tokens", max_new_tokens, 0)
    _validate(model, predictors, cfg)
    _check_state(model, state, False)
    if state.n_output:
        raise ContractViolation(f"generation starts from a prompt-only state, "
                                f"got one with {state.n_output} outputs")
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
        if not all(isinstance(st, SequenceState) for st in self.states):
            raise ContractViolation("PaddedBatch: a sample is not a SequenceState")


# No package caller: layer tests build (B, 1, N, N) masks with it.
def _padded_causal_mask(valid: np.ndarray) -> np.ndarray:
    """Causal mask over left-padded rows: no attention into pad slots, and
    pad rows self-attend so every row keeps one live entry."""
    n = valid.shape[1]
    mask = causal_mask(n) & valid[:, None, :]
    mask |= np.eye(n, dtype=bool)
    return mask


def batch_sparse_prefill(model: Model, predictors: Predictors,
                         batch: PaddedBatch, cfg: SparsityConfig):
    """Sparse prefill of each lane on its own, with no cache kept: the
    (B, vocab) last-position logits and the per-lane keep sets, exactly
    those of ``sparse_prefill`` on each lane alone."""
    _check_type("batch", batch, PaddedBatch)
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
    needs at least one; every lane passes ``_check_state`` before any runs."""
    _check_choice("mode", mode, DECODE_MODES)
    _check_type("batch", batch, PaddedBatch)
    for st in batch.states:
        _check_state(model, st, False)
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
