"""Learnable keep/drop predictors for image tokens and output text tokens.

The image predictor sees all image tokens at once: a dimension-reducing
input projection, two small pre-norm transformer blocks with bidirectional
attention (``model.layer_forward`` without a causal mask), and a three-layer
decision MLP ending in 2 scores per token (column 0 = drop, column 1 = keep).

The output predictor has the same projection and decision MLP but no
attention blocks, so each token's decision depends only on its own feature
vector. That locality is what makes single-token cache-mode decisions
possible and is asserted by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import silu
from .errors import ContractViolation
from .model import LayerWeights, layer_forward


@dataclass
class PredictorConfig:
    input_dim: int
    hidden: int = 0        # 0 -> input_dim // 8, mirroring the 8x reduction
    num_heads: int = 4
    keep_bias_init: float = 2.0  # start near keep-everything; training prunes

    def __post_init__(self):
        if self.hidden == 0:
            self.hidden = max(self.input_dim // 8, self.num_heads)
        if self.hidden % self.num_heads != 0:
            raise ContractViolation("predictor hidden must divide num_heads")
        if self.hidden < 4:
            raise ContractViolation("predictor hidden must be >= 4")

    @property
    def mlp_dims(self):
        h = self.hidden
        return (h, max(h // 2, 2), max(h // 4, 2), 2)


def _mlp_weights(rng, dims):
    ws, bs = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        ws.append(rng.normal(0.0, d_in ** -0.5, (d_in, d_out)))
        bs.append(np.zeros(d_out))
    return ws, bs


class Predictors:
    """Weight container for both predictors; immutable after construction."""

    def __init__(self, config: PredictorConfig, rng: np.random.Generator):
        self.config = config
        d, h = config.input_dim, config.hidden
        self.image_proj = rng.normal(0.0, d ** -0.5, (d, h))
        self.image_proj_bias = np.zeros(h)
        self.image_blocks = []
        for _ in range(2):
            self.image_blocks.append(LayerWeights(
                w_q=rng.normal(0.0, h ** -0.5, (h, h)),
                w_k=rng.normal(0.0, h ** -0.5, (h, h)),
                w_v=rng.normal(0.0, h ** -0.5, (h, h)),
                w_o=rng.normal(0.0, h ** -0.5, (h, h)),
                ffn_in=rng.normal(0.0, h ** -0.5, (h, 2 * h)),
                ffn_out=rng.normal(0.0, (2 * h) ** -0.5, (2 * h, h)),
                attn_norm_gain=np.ones(h),
                ffn_norm_gain=np.ones(h),
            ))
        self.image_mlp_w, self.image_mlp_b = _mlp_weights(rng, config.mlp_dims)
        self.output_proj = rng.normal(0.0, d ** -0.5, (d, h))
        self.output_proj_bias = np.zeros(h)
        self.output_mlp_w, self.output_mlp_b = _mlp_weights(rng, config.mlp_dims)
        self.image_mlp_b[-1][1] = config.keep_bias_init
        self.output_mlp_b[-1][1] = config.keep_bias_init

    def parameters(self) -> dict:
        params = {
            "image.proj": self.image_proj,
            "image.proj_bias": self.image_proj_bias,
            "output.proj": self.output_proj,
            "output.proj_bias": self.output_proj_bias,
        }
        for i, blk in enumerate(self.image_blocks):
            for name, arr in vars(blk).items():
                params[f"image.block{i}.{name}"] = arr
        for i, (w, b) in enumerate(zip(self.image_mlp_w, self.image_mlp_b)):
            params[f"image.mlp{i}.w"] = w
            params[f"image.mlp{i}.b"] = b
        for i, (w, b) in enumerate(zip(self.output_mlp_w, self.output_mlp_b)):
            params[f"output.mlp{i}.w"] = w
            params[f"output.mlp{i}.b"] = b
        return params

    def param_count(self) -> int:
        return sum(a.size for a in self.parameters().values())


def make_predictors(config: PredictorConfig, seed: int = 0) -> Predictors:
    return Predictors(config, np.random.default_rng(seed))


def _decision_mlp(x, ws, bs):
    """Linear layers ``ws``, ``bs`` with SiLU between; on arrays, or on
    ``autodiff.Tensor`` rows and weights in training."""
    for i, (w, b) in enumerate(zip(ws, bs)):
        x = x @ w + b
        if i < len(ws) - 1:
            x = silu(x)
    return x


def image_decisions(p: Predictors, image_hidden: np.ndarray) -> np.ndarray:
    """Keep/drop scores for image tokens from their sparsify-layer features.

    Attention inside the predictor is bidirectional over image tokens only.
    Returns an (n_image, 2) matrix; empty input yields a (0, 2) matrix.
    """
    image_hidden = np.asarray(image_hidden, dtype=np.float64)
    if image_hidden.shape[0] == 0:
        return np.zeros((0, 2))
    x = image_hidden @ p.image_proj + p.image_proj_bias
    for blk in p.image_blocks:
        x = layer_forward(blk, x, None, p.config.num_heads)[0]
    return _decision_mlp(x, p.image_mlp_w, p.image_mlp_b)


def image_decisions_batched(p: Predictors, image_hidden: np.ndarray,
                            valid: np.ndarray) -> np.ndarray:
    """Batched, left-padded variant; pad slots never receive attention.

    Pad rows are left unconstrained since their outputs are discarded
    downstream; every lane needs at least one valid slot. No package
    caller: perfbench's probes wrap it and a test checks it per lane.
    """
    if image_hidden.shape[1] == 0:
        return np.zeros(image_hidden.shape[:2] + (2,))
    x = image_hidden @ p.image_proj + p.image_proj_bias
    mask = valid[:, None, None, :]
    for blk in p.image_blocks:
        x = layer_forward(blk, x, mask, p.config.num_heads)[0]
    return _decision_mlp(x, p.image_mlp_w, p.image_mlp_b)


def output_decisions(p: Predictors, output_hidden: np.ndarray) -> np.ndarray:
    """Keep/drop scores for output tokens; row i depends only on token i."""
    output_hidden = np.asarray(output_hidden, dtype=np.float64)
    if output_hidden.shape[0] == 0:
        return np.zeros((0, 2))
    x = output_hidden @ p.output_proj + p.output_proj_bias
    return _decision_mlp(x, p.output_mlp_w, p.output_mlp_b)


def decisions_to_mask(decisions: np.ndarray) -> np.ndarray:
    """Binary keep flags: 1 iff the keep score strictly exceeds the drop
    score (ties drop)."""
    decisions = np.asarray(decisions, dtype=np.float64)
    if decisions.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return (kernels.argmax_lastdim(decisions) == 1).astype(np.int64)


def select_topk_keep(decisions: np.ndarray, keep_rate: float) -> np.ndarray:
    """Indices of the floor(keep_rate * n) tokens with the highest keep
    scores, sorted ascending; lower index wins ties."""
    decisions = np.asarray(decisions, dtype=np.float64)
    if not 0.0 < keep_rate <= 1.0:
        raise ContractViolation(f"keep_rate must be in (0, 1], got {keep_rate}")
    n = decisions.shape[0]
    k = int(np.floor(keep_rate * n))
    if n > 0 and k == 0:
        raise ContractViolation(
            f"keep_rate {keep_rate} with {n} tokens keeps nothing"
        )
    return kernels.topk_argmax(decisions[:, 1], k)
