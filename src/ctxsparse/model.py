"""Toy decoder-only transformer with multimodal token partitions.

Implements the three standard inference modes: one-pass prefill over the
image+text prompt, decoding without a KV cache (full re-run each step), and
decoding with a KV cache (single-token steps over stored activations). The
two decode modes are numerically equivalent and tested against each other.

Positions are always the ORIGINAL positions assigned at embedding time, so
removing tokens later never renumbers the survivors.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CheckpointError, ContractViolation

EOS_ID = 0  # reserved vocabulary id that terminates generation
CHECKPOINT_VERSION = 1
NORM_EPS = 1e-6


@dataclass
class ModelConfig:
    num_layers: int = 4
    hidden_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 384
    vocab_size: int = 1024
    max_seq_len: int = 512
    image_feature_dim: int = 64

    def validate(self):
        for name in ("num_layers", "hidden_dim", "num_heads", "ffn_dim",
                     "vocab_size", "max_seq_len", "image_feature_dim"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"ModelConfig.{name} must be >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise ContractViolation("hidden_dim must be divisible by num_heads")
        return self


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_in: np.ndarray
    ffn_out: np.ndarray
    attn_norm_gain: np.ndarray
    ffn_norm_gain: np.ndarray


class Model:
    """Immutable-after-construction weight container plus its config."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        d, f = config.hidden_dim, config.ffn_dim
        proj_scale = d ** -0.5
        out_scale = proj_scale / np.sqrt(2.0 * config.num_layers)
        self.token_emb = rng.normal(0.0, 0.02, (config.vocab_size, d))
        self.pos_emb = rng.normal(0.0, 0.02, (config.max_seq_len, d))
        self.image_proj = rng.normal(0.0, config.image_feature_dim ** -0.5,
                                     (config.image_feature_dim, d))
        self.layers = []
        for _ in range(config.num_layers):
            self.layers.append(LayerWeights(
                w_q=rng.normal(0.0, proj_scale, (d, d)),
                w_k=rng.normal(0.0, proj_scale, (d, d)),
                w_v=rng.normal(0.0, proj_scale, (d, d)),
                w_o=rng.normal(0.0, out_scale, (d, d)),
                ffn_in=rng.normal(0.0, proj_scale, (d, f)),
                ffn_out=rng.normal(0.0, f ** -0.5 / np.sqrt(2.0 * config.num_layers), (f, d)),
                attn_norm_gain=np.ones(d),
                ffn_norm_gain=np.ones(d),
            ))
        self.final_norm_gain = np.ones(d)
        self.lm_head = rng.normal(0.0, proj_scale, (d, config.vocab_size))

    def parameters(self) -> dict:
        """Flat name -> array mapping; arrays are the live weights."""
        params = {
            "token_emb": self.token_emb,
            "pos_emb": self.pos_emb,
            "image_proj": self.image_proj,
            "final_norm_gain": self.final_norm_gain,
            "lm_head": self.lm_head,
        }
        for i, layer in enumerate(self.layers):
            for name in ("w_q", "w_k", "w_v", "w_o", "ffn_in", "ffn_out",
                         "attn_norm_gain", "ffn_norm_gain"):
                params[f"layers.{i}.{name}"] = getattr(layer, name)
        return params

    def param_count(self) -> int:
        return sum(a.size for a in self.parameters().values())


def make_model(config: ModelConfig, seed: int = 0) -> Model:
    return Model(config, np.random.default_rng(seed))


def extend_positions(model: Model, new_max_len: int, seed: int = 0) -> Model:
    """Grow the position table so the model can run past its trained range.

    Appended rows are fresh init draws. Rows the optimizer never received
    gradient for stay at init anyway, so this is equivalent to having
    trained with the larger table from the start.
    """
    if new_max_len <= model.config.max_seq_len:
        return model
    cfg = model.config
    grown_cfg = ModelConfig(**{**cfg.__dict__, "max_seq_len": new_max_len})
    grown = make_model(grown_cfg, seed=seed)
    for name, arr in model.parameters().items():
        if name == "pos_emb":
            grown.pos_emb[:cfg.max_seq_len] = arr
        else:
            grown.parameters()[name][...] = arr
    return grown


@dataclass
class SequenceState:
    """Embedded input tokens partitioned into image / text / output segments.

    Original positions are 0..N-1 in concatenation order (image, text,
    output) and are never reassigned.
    """

    image: np.ndarray   # (n_image, d)
    text: np.ndarray    # (n_text, d)
    output: np.ndarray  # (n_output, d)
    output_ids: list = field(default_factory=list)

    @property
    def n_image(self):
        return self.image.shape[0]

    @property
    def n_text(self):
        return self.text.shape[0]

    @property
    def n_output(self):
        return self.output.shape[0]

    @property
    def n_prefill(self):
        return self.n_image + self.n_text

    @property
    def total(self):
        return self.n_prefill + self.n_output

    def prefill_tokens(self) -> np.ndarray:
        return np.concatenate([self.image, self.text], axis=0)

    def all_tokens(self) -> np.ndarray:
        return np.concatenate([self.image, self.text, self.output], axis=0)

    def copy(self) -> "SequenceState":
        return SequenceState(self.image.copy(), self.text.copy(),
                             self.output.copy(), list(self.output_ids))


class KVCacheStore:
    """Per-layer retained key/value activations with their original positions.

    Single-owner mutable state: one generation stream per store. Buffers
    grow by doubling so appends stay amortized O(1) over long generations.
    ``append`` writes one row; ``extend`` writes a block of rows and is
    atomic: it checks the whole block first, so a rejected block leaves the
    layer exactly as it was.
    """

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self._k = [None] * num_layers
        self._v = [None] * num_layers
        self._n = [0] * num_layers
        self.positions = [[] for _ in range(num_layers)]

    def _ensure_capacity(self, layer: int, dim: int, rows: int = 1):
        """Make room for ``rows`` more rows, doubling from 16 as needed."""
        n = self._n[layer]
        cap = 0 if self._k[layer] is None else self._k[layer].shape[0]
        if n + rows <= cap:
            return
        cap = max(cap, 16)
        while cap < n + rows:
            cap *= 2
        for store in (self._k, self._v):
            grown = np.empty((cap, dim))
            if n:
                grown[:n] = store[layer][:n]
            store[layer] = grown

    def _check_order(self, layer: int, position: int):
        pos = self.positions[layer]
        if pos and position <= pos[-1]:
            raise ContractViolation(
                f"cache position conflict at layer {layer}: "
                f"{position} <= {pos[-1]}"
            )

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, position: int):
        self._check_order(layer, position)
        self._ensure_capacity(layer, k.shape[-1])
        n = self._n[layer]
        self._k[layer][n] = k
        self._v[layer][n] = v
        self._n[layer] = n + 1
        self.positions[layer].append(position)

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray, positions):
        """Write rows ``k[i]``, ``v[i]`` at ``positions[i]`` in one copy.

        Positions must increase strictly, within the block and past the
        last cached one. Nothing is written unless the whole block is valid.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if k.ndim != 2 or k.shape != v.shape or positions.shape != k.shape[:1]:
            raise ContractViolation(
                f"cache block shapes k {k.shape}, v {v.shape} do not match "
                f"positions {positions.shape}")
        n = positions.size
        if n == 0:
            return
        if self._k[layer] is not None and self._k[layer].shape[1] != k.shape[1]:
            raise ContractViolation(
                f"cache block width {k.shape[1]} != layer width "
                f"{self._k[layer].shape[1]}")
        if (np.diff(positions) <= 0).any():
            raise ContractViolation(
                f"cache block positions at layer {layer} are not increasing")
        self._check_order(layer, int(positions[0]))
        self._ensure_capacity(layer, k.shape[1], n)
        start = self._n[layer]
        self._k[layer][start:start + n] = k
        self._v[layer][start:start + n] = v
        self._n[layer] = start + n
        self.positions[layer].extend(positions.tolist())

    def length(self, layer: int) -> int:
        return self._n[layer]

    def lengths(self) -> list:
        return list(self._n)

    def stacked(self, layer: int):
        n = self._n[layer]
        return self._k[layer][:n], self._v[layer][:n]


# -- forward math -------------------------------------------------------------


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    scale = (np.mean(x * x, axis=-1, keepdims=True) + NORM_EPS) ** -0.5
    return x * scale * gain


def _silu(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return x * np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular attention mask over an ordered token subset."""
    return np.tril(np.ones((n, n)))


def decoder_layer_forward(layer: LayerWeights, tokens: np.ndarray,
                          attn_mask: np.ndarray, num_heads: int,
                          meter=None) -> np.ndarray:
    """One pre-norm decoder layer: masked MHA then FFN, both residual.

    ``attn_mask`` is a binary (N, N) matrix, normally the causal mask,
    possibly intersected with a sparsification mask. Output shape equals
    input shape.
    """
    n, d = tokens.shape
    dh = d // num_heads
    normed = _rms_norm(tokens, layer.attn_norm_gain)
    q = _split_heads(normed @ layer.w_q, num_heads)
    k = _split_heads(normed @ layer.w_k, num_heads)
    v = _split_heads(normed @ layer.w_v, num_heads)
    scores = (q @ k.transpose(0, 2, 1)) * dh ** -0.5
    probs = kernels.masked_softmax(scores, attn_mask)
    ctx = _merge_heads(probs @ v)
    attn_out = tokens + ctx @ layer.w_o
    normed2 = _rms_norm(attn_out, layer.ffn_norm_gain)
    ffn = _silu(normed2 @ layer.ffn_in) @ layer.ffn_out
    if meter is not None:
        for shape in ((n, d, d), (n, d, d), (n, d, d), (n, d, d),
                      (n, d, layer.ffn_in.shape[1]),
                      (n, layer.ffn_in.shape[1], d)):
            meter.add_matmul(*shape)
        meter.add_matmul(num_heads * n, dh, n)  # q @ k^T
        meter.add_matmul(num_heads * n, n, dh)  # probs @ v
    return attn_out + ffn


def _project_kv(layer: LayerWeights, tokens: np.ndarray, num_heads: int):
    normed = _rms_norm(tokens, layer.attn_norm_gain)
    return normed @ layer.w_k, normed @ layer.w_v


def _logits_at(model: Model, hidden_row: np.ndarray) -> np.ndarray:
    return _rms_norm(hidden_row, model.final_norm_gain) @ model.lm_head


def embed_inputs(model: Model, image_features, text_ids) -> SequenceState:
    """Project image features and embed text ids into one positioned state.

    Image features map through a single linear projector; text ids go
    through the learned table. Positions are assigned 0..N-1.
    """
    cfg = model.config
    feats = np.asarray(image_features, dtype=np.float64).reshape(-1, cfg.image_feature_dim)
    ids = np.asarray(text_ids, dtype=np.int64).reshape(-1)
    n_img, n_txt = feats.shape[0], ids.shape[0]
    if n_img + n_txt == 0:
        raise ContractViolation("embed_inputs: empty image and text input")
    if n_img + n_txt > cfg.max_seq_len:
        raise ContractViolation(
            f"sequence length {n_img + n_txt} exceeds max_seq_len {cfg.max_seq_len}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ContractViolation("text id out of vocabulary range")
    image = feats @ model.image_proj + model.pos_emb[:n_img]
    text = model.token_emb[ids] + model.pos_emb[n_img:n_img + n_txt]
    d = cfg.hidden_dim
    return SequenceState(image=image, text=text, output=np.zeros((0, d)))


def embed_output_token(model: Model, token_id: int, position: int) -> np.ndarray:
    if position >= model.config.max_seq_len:
        raise ContractViolation("position exceeds max_seq_len")
    return model.token_emb[token_id] + model.pos_emb[position]


def append_output(model: Model, state: SequenceState, token_id: int):
    vec = embed_output_token(model, token_id, state.total)
    state.output = np.concatenate([state.output, vec[None, :]], axis=0)
    state.output_ids.append(int(token_id))


def forward_hidden(model: Model, tokens: np.ndarray, meter=None) -> np.ndarray:
    """Run all layers over an ordered token matrix with causal masking."""
    mask = causal_mask(tokens.shape[0])
    x = tokens
    for layer in model.layers:
        x = decoder_layer_forward(layer, x, mask, model.config.num_heads, meter)
    return x


def full_logits(model: Model, state: SequenceState) -> np.ndarray:
    """Logits at every position; used by tests and training oracles."""
    hidden = forward_hidden(model, state.all_tokens())
    return _rms_norm(hidden, model.final_norm_gain) @ model.lm_head


def prefill(model: Model, state: SequenceState, meter=None):
    """Process the full image+text prompt; return last-position logits and
    a cache populated with every prompt token's K/V at every layer."""
    if state.n_prefill == 0:
        raise ContractViolation("prefill: empty state")
    cache = KVCacheStore(model.config.num_layers)
    x = state.prefill_tokens()
    mask = causal_mask(x.shape[0])
    positions = np.arange(x.shape[0])
    for li, layer in enumerate(model.layers):
        k, v = _project_kv(layer, x, model.config.num_heads)
        cache.extend(li, k, v, positions)
        x = decoder_layer_forward(layer, x, mask, model.config.num_heads, meter)
    return _logits_at(model, x[-1]), cache


def decode_step_no_cache(model: Model, state: SequenceState) -> np.ndarray:
    """Full forward over prompt plus all generated tokens; last-row logits."""
    hidden = forward_hidden(model, state.all_tokens())
    return _logits_at(model, hidden[-1])


def attend_cached(layer: LayerWeights, token: np.ndarray, cached_k: np.ndarray,
                  cached_v: np.ndarray, num_heads: int):
    """Single-token attention over cached K/V plus the token's own K/V.

    Returns the layer output row and the token's (k, v) projections.
    """
    d = token.shape[0]
    dh = d // num_heads
    normed = _rms_norm(token, layer.attn_norm_gain)
    q = normed @ layer.w_q
    k_self = normed @ layer.w_k
    v_self = normed @ layer.w_v
    keys = np.concatenate([cached_k, k_self[None, :]], axis=0)
    vals = np.concatenate([cached_v, v_self[None, :]], axis=0)
    qh = q.reshape(num_heads, dh)
    kh = keys.reshape(-1, num_heads, dh).transpose(1, 0, 2)
    vh = vals.reshape(-1, num_heads, dh).transpose(1, 0, 2)
    scores = np.einsum("hd,hnd->hn", qh, kh) * dh ** -0.5
    probs = kernels.softmax_rows(scores)
    ctx = np.einsum("hn,hnd->hd", probs, vh).reshape(d)
    attn_out = token + ctx @ layer.w_o
    normed2 = _rms_norm(attn_out, layer.ffn_norm_gain)
    out = attn_out + _silu(normed2 @ layer.ffn_in) @ layer.ffn_out
    return out, k_self, v_self


def decode_step_with_cache(model: Model, cache: KVCacheStore,
                           last_token: np.ndarray, position: int) -> np.ndarray:
    """One cached decode step: append the token's K/V per layer, attend over
    cache plus self, return next-token logits."""
    x = last_token
    for li, layer in enumerate(model.layers):
        if cache.positions[li] and position <= cache.positions[li][-1]:
            raise ContractViolation(
                f"decode position {position} conflicts with cache at layer {li}"
            )
        ck, cv = cache.stacked(li)
        out, k_self, v_self = attend_cached(layer, x, ck, cv, model.config.num_heads)
        cache.append(li, k_self, v_self, position)
        x = out
    return _logits_at(model, x)


def greedy_generate(model: Model, state: SequenceState, max_new_tokens: int,
                    mode: str = "with_cache") -> list:
    """Greedy decoding loop; stops at EOS or after max_new_tokens.

    ``mode`` selects the no-cache or cached path; both produce identical
    token lists for the same model and state.
    """
    if mode not in ("no_cache", "with_cache"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if max_new_tokens < 0:
        raise ContractViolation("max_new_tokens must be >= 0")
    work = state.copy()
    generated = []
    if max_new_tokens == 0:
        return generated
    if mode == "with_cache":
        logits, cache = prefill(model, work)
        position = work.n_prefill
        for _ in range(max_new_tokens):
            token = int(np.argmax(logits))
            generated.append(token)
            if token == EOS_ID:
                break
            vec = embed_output_token(model, token, position)
            logits = decode_step_with_cache(model, cache, vec, position)
            position += 1
    else:
        logits, _ = prefill(model, work)
        for _ in range(max_new_tokens):
            token = int(np.argmax(logits))
            generated.append(token)
            if token == EOS_ID:
                break
            append_output(model, work, token)
            logits = decode_step_no_cache(model, work)
    return generated


# -- checkpoint container ------------------------------------------------------


def save_checkpoint(path, model: Model, predictors=None):
    """Write model (and optionally predictor) weights to an .npz container.

    The container is self-describing: it stores the config as JSON plus a
    format version, and round-trips float64 arrays bit-exactly.
    """
    arrays = {f"model/{k}": v for k, v in model.parameters().items()}
    meta = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "model_config": model.config.__dict__,
        "has_predictors": predictors is not None,
    }
    if predictors is not None:
        arrays.update({f"predictors/{k}": v for k, v in predictors.parameters().items()})
        meta["predictor_config"] = predictors.config.__dict__
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _load_arrays(data, prefix: str, params: dict):
    """Copy each stored array into the matching live parameter after
    checking that it is present, shaped alike and finite."""
    for name, arr in params.items():
        key = f"{prefix}/{name}"
        if key not in data.files:
            raise CheckpointError(f"checkpoint is missing array {key}")
        value = data[key]
        if value.shape != arr.shape:
            raise CheckpointError(
                f"checkpoint array {key} has shape {value.shape}, "
                f"expected {arr.shape}")
        if value.dtype.kind != "f" or not np.isfinite(value).all():
            raise CheckpointError(
                f"checkpoint array {key} is not finite floating point")
        arr[...] = value


def load_checkpoint(path):
    """Load a checkpoint; returns (model, predictors-or-None).

    Every defect of the file (unreadable, missing or misshapen arrays,
    non-finite weights, malformed or unknown config entries, wrong version)
    raises ``CheckpointError``.
    """
    from .predictors import PredictorConfig, Predictors

    try:
        data = np.load(path)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"checkpoint {path} is not an npz container")
    with data:
        if "__meta__" not in data.files:
            raise CheckpointError("checkpoint has no metadata record")
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
            version = meta.get("checkpoint_version")
        except (ValueError, AttributeError) as exc:
            raise CheckpointError(f"checkpoint metadata is malformed: {exc}") from exc
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} incompatible with supported "
                f"version {CHECKPOINT_VERSION}"
            )
        try:
            model = make_model(ModelConfig(**meta["model_config"]), seed=0)
            predictors = None
            if meta.get("has_predictors"):
                predictors = Predictors(
                    PredictorConfig(**meta["predictor_config"]),
                    np.random.default_rng(0))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint config is malformed: {exc!r}") from exc
        _load_arrays(data, "model", model.parameters())
        if predictors is not None:
            _load_arrays(data, "predictors", predictors.parameters())
    return model, predictors
