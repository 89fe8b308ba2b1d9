"""End-to-end sparsification training at toy scale.

Training never physically removes tokens. Every sequence runs with its full
token set; the keep/drop decisions become a binary mask matrix that
restricts the attention softmax in every layer beyond the sparsification
layer (layers at or below it use the plain causal mask). Masked-out tokens
still self-attend, so the loss can be computed at every output position,
which is exactly what naive zeroing of dropped tokens breaks (that "hard
drop" variant is kept behind a flag as a documented negative control).
The forward runs the inference functions themselves: ``model.layer_forward``
for every layer, ``predictors.image_decisions`` / ``output_decisions`` for
the keep scores and ``model._logits_at`` for the logits. It runs them on
copies of the ``Model`` and ``Predictors`` whose weights are
``autodiff.Tensor`` leaves over the live arrays, and the optimizer updates
those arrays in place from the leaves' gradients.

Discrete decisions are trained with a temperature-annealed Gumbel-Softmax
relaxation and a straight-through estimator: the forward pass uses the hard
argmax mask, the backward pass copies the mask's adjoint onto the relaxed
decisions unchanged. A keep-rate regularizer pins the realized keep
fractions to the configured targets; the output-side term is gated off for
sequences shorter than ``min_output_len``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .model import (Model, _check_choice, _check_int, _is_real, _logits_at, _token_ids,
                    append_output, causal_mask, embed_inputs, layer_forward)
from .predictors import Predictors, image_decisions, output_decisions
from .sparsify import SparsityConfig, _cached_logits, _static_keep


@dataclass
class TrainConfig:
    lambda_reg: float = 100.0
    lambda_warmup_steps: int = 0  # ramp the constraint in over these steps
    min_output_len: int = 50   # output-side keep-rate constraint gate
    tau_initial: float = 1.0
    tau_final: float = 0.1
    total_steps: int = 1000
    optimizer: str = "adam"    # "adam" or "sgd"
    lr_model: float = 3e-3
    lr_predictor: float = 2e-3
    momentum: float = 0.9      # sgd only
    batch_size: int = 4
    seed: int = 0

    def validate(self):
        for name, low in (("total_steps", 1), ("batch_size", 1), ("min_output_len", 0),
                          ("lambda_warmup_steps", 0), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        for name in ("lambda_reg", "tau_initial", "tau_final", "momentum",
                     "lr_model", "lr_predictor"):
            value = getattr(self, name)
            if not (_is_real(value) and np.isfinite(value)):
                raise ContractViolation(f"{name} must be a finite real number")
        if self.lambda_reg < 0:
            raise ContractViolation("lambda_reg must be >= 0")
        if not 0.0 < self.tau_final <= self.tau_initial:
            raise ContractViolation("need 0 < tau_final <= tau_initial")
        for name in ("lr_model", "lr_predictor"):
            if not getattr(self, name) > 0.0:
                raise ContractViolation(f"{name} must be > 0")
        _check_choice("optimizer", self.optimizer, ("adam", "sgd"))
        return self

    def lambda_at(self, step: int) -> float:
        """Constraint weight at a step; ramps linearly over the warmup so
        task circuits can form on full context before pruning starts."""
        if self.lambda_warmup_steps == 0:
            return self.lambda_reg
        return self.lambda_reg * min(1.0, step / self.lambda_warmup_steps)


@dataclass
class LossBreakdown:
    cross_entropy: float
    regularizer: float
    total: float
    image_keep_fraction: float
    output_keep_fraction: float


@dataclass
class TrainBatch:
    """Equal-shape training sequences (image features may be empty)."""
    image_feats: np.ndarray  # (B, n_image, feat_dim)
    text_ids: np.ndarray     # (B, n_text)
    output_ids: np.ndarray   # (B, n_output)

    @property
    def size(self):
        return self.text_ids.shape[0]

    def validate(self, config):
        """Check the batch against a ``ModelConfig``: one batch size B >= 1
        over the three arrays, finite features of width
        ``image_feature_dim`` (unless there are no image tokens), integer
        ids inside the vocabulary, at least one output token and no more
        than ``max_seq_len`` tokens per sequence."""
        feats = np.asarray(self.image_feats)
        text, out = np.asarray(self.text_ids), np.asarray(self.output_ids)
        if feats.ndim != 3 or text.ndim != 2 or out.ndim != 2:
            raise ContractViolation(
                f"TrainBatch shapes image_feats {feats.shape}, text_ids {text.shape}, "
                f"output_ids {out.shape} are not (B, n, d), (B, n), (B, n)")
        if not feats.shape[0] == text.shape[0] == out.shape[0] >= 1:
            raise ContractViolation(
                f"TrainBatch arrays disagree on the batch size: image_feats "
                f"{feats.shape}, text_ids {text.shape}, output_ids {out.shape}")
        if feats.shape[1] and feats.shape[2] != config.image_feature_dim:
            raise ContractViolation(
                f"TrainBatch image features of width {feats.shape[2]} are not "
                f"image_feature_dim {config.image_feature_dim}")
        if feats.dtype.kind not in "fiu" or not np.isfinite(feats).all():
            raise ContractViolation("TrainBatch image features are not finite")
        for name, ids in (("text_ids", text), ("output_ids", out)):
            if not np.issubdtype(ids.dtype, np.integer):
                raise ContractViolation(
                    f"TrainBatch {name} of dtype {ids.dtype} are not integers")
            if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
                raise ContractViolation(
                    f"TrainBatch {name} out of vocabulary range [0, {config.vocab_size})")
        if out.shape[1] < 1:
            raise ContractViolation("TrainBatch has no output tokens to train on")
        if feats.shape[1] + text.shape[1] + out.shape[1] > config.max_seq_len:
            raise ContractViolation(
                f"TrainBatch sequence length {feats.shape[1] + text.shape[1] + out.shape[1]} "
                f"exceeds max_seq_len {config.max_seq_len}")
        return self


def tau_at(step: int, cfg: TrainConfig) -> float:
    """Exponentially decayed temperature: tau(0)=tau_initial and
    tau(total_steps)=tau_final, geometric in between."""
    _check_int("step (at most total_steps)", step, 0, cfg.total_steps + 1)
    frac = step / cfg.total_steps
    return cfg.tau_initial * (cfg.tau_final / cfg.tau_initial) ** frac


def gumbel_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Gumbel(0,1) samples via the inverse CDF -ln(-ln(u))."""
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def gumbel_softmax_rows(decisions, tau: float, noise) -> ad.Tensor:
    """Row-wise softmax of (decisions + noise) / tau; rows sum to 1. The
    noise is a finite float ndarray of the decisions' shape."""
    if not tau > 0.0:  # NaN too
        raise ContractViolation("gumbel softmax temperature must be > 0")
    d = decisions if isinstance(decisions, ad.Tensor) else ad.Tensor(decisions)
    if not (isinstance(noise, np.ndarray) and noise.dtype.kind == "f"
            and noise.shape == d.shape and np.isfinite(noise).all()):
        raise ContractViolation(f"gumbel noise must be a finite float ndarray of the "
                                f"decisions' shape {d.shape}")
    return ad.softmax_lastdim((d + ad.constant(noise)) * (1.0 / tau))


def ste_mask(d_relaxed: ad.Tensor) -> ad.Tensor:
    """Hard keep flags (last-axis argmax; ties drop) with a straight-through
    backward: the flags' adjoint lands on the relaxed keep column unchanged."""
    return ad.ste_hard_decision(d_relaxed)[..., 1]


def _mask_matrix_t(flags: ad.Tensor, n: int) -> ad.Tensor:
    """Differentiable (B, N, N) training mask: the (B, N) token keep flags
    broadcast over columns, intersected with the causal mask, with the
    diagonal forced to 1 so masked-out tokens still self-attend."""
    eye = np.eye(n)
    return flags.reshape(flags.shape[0], 1, n) * ad.constant(causal_mask(n) - eye) \
        + ad.constant(eye)


# -- differentiable forward ------------------------------------------------------


def training_forward(model: Model, predictors: Predictors, batch: TrainBatch,
                     sparsity: SparsityConfig, train_cfg: TrainConfig, tau: float,
                     noise_image=None, noise_output=None,
                     forced_masks=None, hard_drop=False, trace_hidden=None,
                     lambda_weight=None):
    """Build the training graph for one equal-shape batch.

    ``model`` and ``predictors`` hold ``autodiff.Tensor`` weights (see
    ``_tape_copies``); their layers, predictors and logits head are the
    inference functions. Returns (loss Tensor, info dict).
    ``forced_masks`` bypasses the predictors with fixed (B, n_image) and
    (B, n_output) keep flags, which is how the masked-vs-hard equivalence
    suite drives this path.
    ``hard_drop`` zeroes dropped token vectors instead of masking attention
    (the documented breakage variant). The batch and the sparsity config
    are checked against the model first.
    """
    batch.validate(model.config)
    sparsity.validate(model.config.num_layers)
    bsz = batch.size
    n_img = batch.image_feats.shape[1]
    n_txt = batch.text_ids.shape[1]
    n_out = batch.output_ids.shape[1]
    n_total = n_img + n_txt + n_out
    split = sparsity.sparsify_layer
    segments = []
    if n_img:
        segments.append(ad.constant(batch.image_feats) @ model.image_proj)
    if n_txt:
        segments.append(model.token_emb[batch.text_ids])
    segments.append(model.token_emb[batch.output_ids])
    x = ad.concat(segments, axis=1) if len(segments) > 1 else segments[0]
    x = x + model.pos_emb[:n_total]
    mask = ad.constant(causal_mask(n_total)[None, None, :, :])
    if forced_masks is not None:
        m_img, m_out = (ad.constant(np.asarray(m, dtype=np.float64)) for m in forced_masks)
    for li, layer in enumerate(model.layers):
        if li == split:
            if forced_masks is None:
                # Predictors read the sparsify-layer features through a stop-gradient:
                # with the regularizer weight in the hundreds, letting its gradient
                # reach the trunk through this branch drowns the task loss at toy
                # scale. The predictors still train end-to-end through the masked
                # attention and the straight-through mask path.
                if n_img:
                    d_img = image_decisions(predictors, x[:, :n_img].detach())
                    m_img = ste_mask(gumbel_softmax_rows(d_img, tau, noise_image))
                else:
                    m_img = ad.constant(np.zeros((bsz, 0)))
                d_out = output_decisions(predictors, x[:, n_img + n_txt:].detach())
                m_out = ste_mask(gumbel_softmax_rows(d_out, tau, noise_output))
            flags = ad.concat([m_img, ad.constant(np.ones((bsz, n_txt))), m_out], axis=1)
            if hard_drop:
                x = x * flags.reshape(bsz, n_total, 1)
            else:
                mask = _mask_matrix_t(flags, n_total).reshape(bsz, 1, n_total, n_total)
        x = layer_forward(layer, x, mask, model.config.num_heads)[0]
        if trace_hidden is not None:
            trace_hidden.append(x.data)

    logits = _logits_at(model, x[:, n_img + n_txt - 1: n_total - 1])
    shift = ad.constant(np.max(logits.data, axis=-1, keepdims=True))
    lse = (logits - shift).exp().sum(axis=-1).log() + shift.reshape(bsz, n_out)
    rows = np.arange(bsz)[:, None], np.arange(n_out)[None, :], batch.output_ids
    picked = logits[rows]
    ce = (lse - picked).mean()

    reg = ad.constant(np.zeros(()))
    if n_img:
        reg = reg + (m_img.mean(axis=1) - sparsity.image_keep_rate).abs().mean()
    gated = n_out >= train_cfg.min_output_len
    if gated and n_out:
        reg = reg + (m_out.mean(axis=1) - sparsity.output_keep_rate).abs().mean()
    lam = train_cfg.lambda_reg if lambda_weight is None else lambda_weight
    loss = ce + lam * reg
    info = {
        "cross_entropy": ce.item(),
        "regularizer": reg.item(),
        "image_keep_fraction": float(m_img.data.mean()) if n_img else float("nan"),
        "output_keep_fraction": float(m_out.data.mean()) if gated else float("nan"),
    }
    return loss, info


# -- optimizer and step ----------------------------------------------------------


def _grouped_arrays(model: Model, predictors: Predictors):
    for name, arr in model.parameters().items():
        yield "model." + name, arr
    for name, arr in predictors.parameters().items():
        yield "predictor." + name, arr


def _tape_copies(model: Model, predictors: Predictors):
    """Autodiff leaves over the live weights, keyed by ``_grouped_arrays``
    name, and copies of ``model`` and ``predictors`` that hold the leaves in
    place of the arrays. The originals are left as they are."""
    arrays = dict(_grouped_arrays(model, predictors))
    leaves = {name: ad.Tensor(arr) for name, arr in arrays.items()}
    # deepcopy returns a memoised object as is, so each array becomes its leaf
    memo = {id(arrays[name]): leaf for name, leaf in leaves.items()}
    return (leaves, *copy.deepcopy((model, predictors), memo))


class SgdMomentum:
    """Plain SGD with momentum and two learning-rate groups: model weights
    and predictor weights. Update order is sorted by name, so steps are
    deterministic."""

    def __init__(self, model: Model, predictors: Predictors, cfg: TrainConfig):
        self.cfg = cfg
        self.slots = {}
        for name, arr in _grouped_arrays(model, predictors):
            lr = cfg.lr_predictor if name.startswith("predictor.") else cfg.lr_model
            self.slots[name] = (arr, np.zeros_like(arr), lr)

    def step(self, grads: dict):
        for name in sorted(self.slots):
            arr, vel, lr = self.slots[name]
            g = grads.get(name)
            if g is None:
                continue
            vel *= self.cfg.momentum
            vel -= lr * g
            arr += vel


class Adam:
    """Adam with the same two learning-rate groups; the default optimizer.

    Plain SGD with momentum stalls on the attention patterns the synthetic
    tasks need and leaves the predictors in degenerate all-keep/all-drop
    states, so the adaptive update is the configured default.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: Model, predictors: Predictors, cfg: TrainConfig):
        self.t = 0
        self.slots = {}
        for name, arr in _grouped_arrays(model, predictors):
            lr = cfg.lr_predictor if name.startswith("predictor.") else cfg.lr_model
            self.slots[name] = (arr, np.zeros_like(arr), np.zeros_like(arr), lr)

    def step(self, grads: dict):
        self.t += 1
        for name in sorted(self.slots):
            arr, m, v, lr = self.slots[name]
            g = grads.get(name)
            if g is None:
                continue
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            m_hat = m / (1.0 - self.BETA1 ** self.t)
            v_hat = v / (1.0 - self.BETA2 ** self.t)
            arr -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def make_optimizer(model: Model, predictors: Predictors, cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdMomentum(model, predictors, cfg)
    return Adam(model, predictors, cfg)


def _random_control_masks(rng, bsz, n_img, n_out, sparsity: SparsityConfig):
    """Fresh exact-count random keep flags for the frozen-predictor control:
    ``_keep_count`` of each segment, drawn as the random policy draws its
    image tokens at inference (``_static_keep``)."""
    m_img = np.zeros((bsz, n_img))
    m_out = np.zeros((bsz, n_out))
    for b in range(bsz):
        if n_img:
            m_img[b, _static_keep(n_img, sparsity.image_keep_rate, "random", rng)] = 1.0
        m_out[b, _static_keep(n_out, sparsity.output_keep_rate, "random", rng)] = 1.0
    return m_img, m_out


def training_step(model: Model, predictors: Predictors, batch: TrainBatch,
                  train_cfg: TrainConfig, sparsity: SparsityConfig,
                  step_index: int, optimizer, rng,
                  random_mask_control: bool = False) -> LossBreakdown:
    """One forward/backward/update pass; parameters are updated in place.

    With ``random_mask_control`` the predictors are frozen and every sample
    gets fresh random keep flags at the configured rates; only the model
    trains. This is the baseline the learned masks are compared against.
    """
    train_cfg.validate()
    sparsity.validate(model.config.num_layers)
    batch.validate(model.config)
    tau = tau_at(step_index, train_cfg)
    bsz = batch.size
    n_img = batch.image_feats.shape[1]
    n_out = batch.output_ids.shape[1]
    noise_image = gumbel_noise(rng, (bsz, n_img, 2)) if n_img else None
    noise_output = gumbel_noise(rng, (bsz, n_out, 2))
    leaves, tape_model, tape_predictors = _tape_copies(model, predictors)
    forced = None
    if random_mask_control:
        forced = _random_control_masks(rng, bsz, n_img, n_out, sparsity)
    lam = train_cfg.lambda_at(step_index)
    loss, info = training_forward(
        tape_model, tape_predictors, batch, sparsity, train_cfg, tau,
        noise_image=noise_image, noise_output=noise_output,
        forced_masks=forced, lambda_weight=lam)
    loss.backward()
    optimizer.step({name: leaf.grad for name, leaf in leaves.items()
                    if leaf.grad is not None})
    return LossBreakdown(total=info["cross_entropy"] + lam * info["regularizer"], **info)


def run_training(model: Model, predictors: Predictors, task,
                 train_cfg: TrainConfig, sparsity: SparsityConfig,
                 random_mask_control: bool = False) -> list:
    """Full training loop; returns one log record per step."""
    train_cfg.validate()
    sparsity.validate(model.config.num_layers)
    rng = np.random.default_rng(train_cfg.seed)
    noise_rng = np.random.default_rng((train_cfg.seed, 7))
    optimizer = make_optimizer(model, predictors, train_cfg)
    log = []
    for step in range(train_cfg.total_steps):
        batch = task.training_batch(rng, train_cfg.batch_size)
        breakdown = training_step(model, predictors, batch, train_cfg,
                                  sparsity, step, optimizer, noise_rng,
                                  random_mask_control=random_mask_control)
        log.append({"step": step, "tau": tau_at(step, train_cfg), **vars(breakdown)})
    return log


# -- sparsified evaluation --------------------------------------------------------


def evaluate_policy_loss(model: Model, predictors: Predictors, samples,
                         sparsity: SparsityConfig) -> float:
    """Teacher-forced mean cross-entropy under hard sparsified decoding.

    Each sample's prompt goes through sparse prefill; its target tokens are
    then fed one by one through cached sparse decoding, scoring every target
    against the logits produced before it is consumed. This is the same
    next-token loss the paper's static baselines are compared on, with the
    active policy deciding which tokens survive. Every sample needs at
    least one output token, and every output id of every sample is checked
    as a token id before any sample runs.
    """
    samples = list(samples)
    if not samples or any(len(sample.output_ids) == 0 for sample in samples):
        raise ContractViolation(
            "evaluate_policy_loss needs samples, each with an output token")
    targets = [_token_ids(sample.output_ids, model.config.vocab_size) for sample in samples]
    total, count = 0.0, 0
    for sample, ids in zip(samples, targets):
        state = embed_inputs(model, sample.image_feats, sample.text_ids)
        for target in ids[:-1]:
            append_output(model, state, int(target))
        for logits, target in zip(_cached_logits(model, predictors, state, sparsity), ids):
            shifted = logits - logits.max()
            log_z = np.log(np.exp(shifted).sum())
            total += float(log_z - shifted[target])
            count += 1
    return total / count
