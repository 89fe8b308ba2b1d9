"""Toy decoder-only transformer with multimodal token partitions.

Implements the three standard inference modes: one-pass prefill over the
image+text prompt, decoding without a KV cache (full re-run each step), and
decoding with a KV cache (single-token steps over stored activations). The
two decode modes are numerically equivalent and tested against each other.
Dense inference is sparse inference that keeps everything: ``prefill``,
``decode_step_no_cache``, ``full_logits``, ``decode_step_with_cache`` and
``greedy_generate`` call the ``sparsify`` paths with ``sparsify_layer = 0``
and keep rate 1, which consult no predictor and give the same values a
separate dense path would. Prefill and no-cache decoding, dense or sparse,
are one layer loop in ``sparsify`` over one sequence's rows; a batch runs
its lanes one after another.
One layer implementation, ``layer_forward``, serves every mode: prefill and
no-cache decoding over one sequence's (N, d) rows, cached decoding over one
new row written in place into a ``KVCacheStore.slot``, the image
predictor's blocks, and training over ``autodiff.Tensor`` rows. Its
docstring says how it blocks, masks and normalizes;
``sparsify._sparse_forward`` says which rows prefill and no-cache decoding
ask of it.

Large array calls use both cores: once q, k and v are projected, a call
of more than 64 rows whose heads x rows x keys reaches ``_SPLIT_SCORES``
runs its query blocks in two halves of about equal work, the later half
on a helper thread started for that call and joined before it returns,
so no thread outlives a call. Each block reads the shared projections
and writes only its own arrays, so the values are those of the serial
loop bit for bit. Cached steps, smaller calls and the training tape stay
serial, as does every call when the process may use one CPU.

Positions are always the ORIGINAL positions assigned at embedding time, so
removing tokens later never renumbers the survivors.
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import kernels
from .errors import CheckpointError, ContractViolation

EOS_ID = 0  # reserved vocabulary id that terminates generation
CHECKPOINT_VERSION = 1
# Query rows per block in layer_forward. A (4 heads x 64 rows x ~608 keys)
# float64 score block is about 1.2 MB, which fits a 2 MB per-core L2 cache.
# Median sparse_prefill of 576 + 32 tokens (default config, one BLAS
# thread, 2-core Xeon VM with busy neighbours; 3 processes, each cycling
# the sizes 15 times) by block size: 32 -> 45-49 ms, 64 -> 46-51 ms,
# 128 -> 51-56 ms, 256 -> 65-69 ms. 64 stays: another size changes the
# lengths of the softmax and probs @ v reductions, so the values would
# move in their last bits.
_QUERY_BLOCK = 64
# Largest score bound at which layer_forward exponentiates a block without
# the row-max shift: exp of a score in [-64, 64] is neither subnormal nor
# near overflow (row sums stay below keys * e**64), so the unshifted form
# is as precise as the shifted one and skips two passes over the scores.
_UNSHIFTED_LIMIT = 64.0
# Scores (heads x query rows x keys, lanes included) from which an array
# call of layer_forward runs about half its query blocks on a helper
# thread. Two-thread / serial wall time of one call by rows n (default
# model's causal layer and unmasked image-predictor block, 4 heads, so
# 4 n**2 scores; one BLAS thread, 2-core Xeon VM; medians of 120
# interleaved calls, two runs):
#   n            128        256        384        448        512        616
#   scores     65536     262144     589824     802816    1048576    1517824
#   causal   0.84-0.92  0.83-0.92  0.79-0.88  0.73-0.75  0.73-0.80  0.72-0.75
#   predictor 1.80-1.93 1.22-1.27  0.95-1.12  0.80-0.88  0.82-0.88  0.79-0.81
# Starting and joining the helper costs about 0.1 ms, which the 8-wide
# predictor block earns back only past 384 rows; the threshold sits
# between its loss there and its win at 448, so a causal layer splits
# from 419 rows.
_SPLIT_SCORES = 700_000
# CPUs this process may run on; with one, every call stays serial.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


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
        for f in fields(self):
            _check_int(f"ModelConfig.{f.name}", getattr(self, f.name), 1)
        if self.hidden_dim % self.num_heads != 0:
            raise ContractViolation(f"ModelConfig.hidden_dim {self.hidden_dim} is not "
                                    f"divisible by ModelConfig.num_heads {self.num_heads}")
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

    @staticmethod
    def draw(rng: np.random.Generator, d: int, f: int, out_scale: float,
             ffn_out_scale: float) -> "LayerWeights":
        """A layer of width ``d`` and FFN width ``f``: q, k, v and FFN-in
        drawn at std ``d ** -0.5``, the two residual outputs at the given
        stds, in field order, and unit norm gains."""
        return LayerWeights(
            w_q=rng.normal(0.0, d ** -0.5, (d, d)),
            w_k=rng.normal(0.0, d ** -0.5, (d, d)),
            w_v=rng.normal(0.0, d ** -0.5, (d, d)),
            w_o=rng.normal(0.0, out_scale, (d, d)),
            ffn_in=rng.normal(0.0, d ** -0.5, (d, f)),
            ffn_out=rng.normal(0.0, ffn_out_scale, (f, d)),
            attn_norm_gain=np.ones(d),
            ffn_norm_gain=np.ones(d),
        )


class Model:
    """Immutable-after-construction weight container plus its config."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        d, f = config.hidden_dim, config.ffn_dim
        proj_scale = d ** -0.5
        depth = np.sqrt(2.0 * config.num_layers)
        self.token_emb = rng.normal(0.0, 0.02, (config.vocab_size, d))
        self.pos_emb = rng.normal(0.0, 0.02, (config.max_seq_len, d))
        self.image_proj = rng.normal(0.0, config.image_feature_dim ** -0.5,
                                     (config.image_feature_dim, d))
        self.layers = [LayerWeights.draw(rng, d, f, proj_scale / depth, f ** -0.5 / depth)
                       for _ in range(config.num_layers)]
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
            for name, arr in vars(layer).items():
                params[f"layers.{i}.{name}"] = arr
        return params


def make_model(config: ModelConfig, seed: int = 0) -> Model:
    return Model(config, np.random.default_rng(seed))


@dataclass
class SequenceState:
    """Embedded input tokens partitioned into image / text / output segments.

    Original positions are 0..N-1 in concatenation order (image, text,
    output) and are never reassigned.

    ``decisions`` belongs to ``sparsify``: the keep decisions its forwards
    over this state made, which a later forward reuses while
    ``sparsify._Decisions.holds_for`` says they still apply. The record
    takes no part in equality and ``copy`` leaves it behind.
    """

    image: np.ndarray   # (n_image, d)
    text: np.ndarray    # (n_text, d)
    output: np.ndarray  # (n_output, d)
    output_ids: list = field(default_factory=list)
    decisions: object = field(default=None, compare=False, repr=False)

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


class KVSlot(tuple):
    """``(k, v)`` views over one cache layer's committed rows followed by
    free rows. ``layer_forward`` given a slot as ``past_kv`` writes its new
    rows' k, v into the free tail in place and attends over the whole view,
    so no cached row is copied."""

    __slots__ = ()


class KVCacheStore:
    """Per-layer retained key/value activations with their original positions.

    Single-owner mutable state: one generation stream per store. Each layer
    owns a preallocated K and V buffer whose first ``length(layer)`` rows
    are committed; the rest is spare capacity. Every write goes through
    that capacity and lands once, in place: ``slot`` hands out views over
    the committed rows plus free rows (growing the buffers by doubling, so
    writes stay amortized O(1) over long generations), the caller writes
    the free rows, and ``commit`` keeps them by advancing the length. Rows
    written but not committed are not part of the cache, and the next slot
    of the layer overwrites them. ``append`` (one row) and ``extend`` (a
    block) are slot, write, commit; ``extend`` checks the whole block first,
    so a rejected block leaves the layer exactly as it was. Views from
    ``stacked`` never change: writes go past them, and growth moves the
    layer to new buffers.
    """

    def __init__(self, num_layers: int):
        _check_int("cache num_layers", num_layers, 1)
        self.num_layers = num_layers
        self._k = [None] * num_layers
        self._v = [None] * num_layers
        self.positions = [[] for _ in range(num_layers)]

    def _check_layer(self, layer):
        _check_int("cache layer", layer, 0, self.num_layers)

    def _ensure_capacity(self, layer: int, dim: int, rows: int):
        """Make room for ``rows`` more rows, doubling from 16 as needed."""
        n = len(self.positions[layer])
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

    def check_position(self, layer: int, position: int):
        """Raise unless ``position`` lies past the layer's last cached one."""
        self._check_layer(layer)
        pos = self.positions[layer]
        if pos and position <= pos[-1]:
            raise ContractViolation(
                f"cache position conflict at layer {layer}: "
                f"{position} <= {pos[-1]}"
            )

    def slot(self, layer: int, width: int, rows: int = 1) -> KVSlot:
        """Views over the layer's committed rows plus ``rows`` free rows of
        width ``width`` past them, for ``layer_forward`` to write in place;
        ``rows`` is an integer >= 1."""
        self._check_layer(layer)
        _check_int("slot rows", rows, 1)
        if self._k[layer] is not None and self._k[layer].shape[1] != width:
            raise ContractViolation(
                f"cache block width {width} != layer width "
                f"{self._k[layer].shape[1]}")
        self._ensure_capacity(layer, width, rows)
        end = len(self.positions[layer]) + rows
        return KVSlot((self._k[layer][:end], self._v[layer][:end]))

    def commit(self, layer: int, positions: list):
        """Keep the first ``len(positions)`` free rows of the layer's last
        slot, at these original positions (integers, not bools, strictly
        increasing and past the last cached one)."""
        self._check_layer(layer)
        if not all(map(_is_int, positions)):
            raise ContractViolation(f"cache positions at layer {layer} must be "
                                    f"integers, not bools or floats")
        self._keep(layer, positions)

    def _keep(self, layer: int, positions: list):
        """``commit`` of integer ``positions``."""
        if not positions:
            return
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ContractViolation(
                f"cache block positions at layer {layer} are not increasing")
        self.check_position(layer, positions[0])
        n = len(self.positions[layer]) + len(positions)
        if self._k[layer] is None or n > self._k[layer].shape[0]:
            raise ContractViolation(
                f"cache commit of {len(positions)} rows at layer {layer} "
                f"exceeds its slot")
        self.positions[layer].extend(positions)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray, position: int):
        self.extend(layer, k[None], v[None], [position])

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray, positions):
        """Write rows ``k[i]``, ``v[i]`` at ``positions[i]`` in one copy.

        Positions must be integers (an integer array, or integers that
        are not bools) and increase strictly, within the block and past
        the last cached one. Nothing is kept unless the whole block is
        valid.
        """
        self._check_layer(layer)
        given, positions = positions, np.asarray(positions)
        if k.ndim != 2 or k.shape != v.shape or positions.shape != k.shape[:1]:
            raise ContractViolation(
                f"cache block shapes k {k.shape}, v {v.shape} do not match "
                f"positions {positions.shape}")
        n = positions.size
        if n == 0:
            return
        # a list mixing ints and bools converts to ints, so its items are checked
        if positions.dtype.kind not in "iu" or (
                not isinstance(given, np.ndarray) and not all(map(_is_int, given))):
            raise ContractViolation(f"cache positions at layer {layer} must be "
                                    f"integers, not bools or floats")
        keys, vals = self.slot(layer, k.shape[1], n)
        keys[-n:] = k
        vals[-n:] = v
        self._keep(layer, positions.tolist())

    def length(self, layer: int) -> int:
        self._check_layer(layer)
        return len(self.positions[layer])

    def lengths(self) -> list:
        return [len(pos) for pos in self.positions]

    def stacked(self, layer: int):
        """Views over the layer's committed K and V rows."""
        self._check_layer(layer)
        if self._k[layer] is None:
            raise ContractViolation(f"cache layer {layer} has never been written")
        n = len(self.positions[layer])
        return self._k[layer][:n], self._v[layer][:n]


# -- forward math -------------------------------------------------------------


_rms_norm, _silu = ad.rms_norm, ad.silu  # on arrays too: one body, shared with training


def causal_mask(n: int) -> np.ndarray:
    """(n, n) bool lower-triangular attention mask over an ordered token
    subset: row i sees keys 0..i."""
    return np.tri(n, dtype=bool)


def _query_blocks(mask, n: int, n_keys: int):
    """Yield ``(rows, kmax, block_mask)`` for each block of at most
    ``_QUERY_BLOCK`` query rows: the row slice, how many leading keys any
    row of the block can see, and ``mask`` cut to those rows and keys.

    ``kmax`` is one past the last key column the mask leaves visible to any
    row of the block in any head or lane, read from the block's own mask
    rows; it is 0 when no row sees a key, so the softmax still rejects the
    empty rows. With ``n <= _QUERY_BLOCK`` there is one block over all keys
    and the mask is not read; the same holds for a mask whose last two axes
    do not broadcast to (n, n_keys), which the softmax then rejects.
    """
    if n <= _QUERY_BLOCK:
        yield slice(0, n), n_keys, mask
        return
    if mask is not None:
        if not isinstance(mask, ad.Tensor):
            mask = np.asarray(mask)
        values = mask.data if isinstance(mask, ad.Tensor) else mask
        mask_rows, mask_cols = ((1, 1) + values.shape)[-2:]
        if values.ndim == 0 or mask_rows not in (1, n) or mask_cols not in (1, n_keys):
            yield slice(0, n), n_keys, mask
            return
    for r0 in range(0, n, _QUERY_BLOCK):
        rows = slice(r0, min(r0 + _QUERY_BLOCK, n))
        if mask is None:
            yield rows, n_keys, None
            continue
        block = values[..., rows, :] if mask_rows == n else values
        seen = block.any(axis=tuple(range(block.ndim - 1)))  # per key column
        kmax = n_keys - int(np.argmax(seen[::-1])) if seen.any() else 0
        if mask_rows == n:
            yield rows, kmax, mask[..., rows, :kmax]
        else:
            yield rows, kmax, mask[..., :kmax]


def _block_rows(rows: np.ndarray, block: slice, block_mask):
    """What ``layer_forward`` computes of one query block for the sorted
    row indices ``rows``: ``(run, picked, run_mask)``, the rows to run, which
    of their outputs were asked for, and the block's mask cut to them.

    ``run`` is None when no row of the block is asked for, the block slice
    itself when every row is, and otherwise an index array of the asked
    rows. ``picked`` is None when every run row was asked for. A single
    asked row of a longer block runs with one more row of the block, since
    numpy sends a one-row matmul to gemv, which rounds differently from the
    gemm that runs the whole block; with two rows or more gemm gives each
    row the bits it has in the whole block's product.
    """
    asked = rows[(rows >= block.start) & (rows < block.stop)]
    if asked.size == 0:
        return None, None, None
    if asked.size == block.stop - block.start:
        return block, None, block_mask
    run, picked = asked, None
    if asked.size == 1:
        other = block.start + 1 if asked[0] == block.start else block.start
        run = np.sort([other, asked[0]])
        picked = run == asked[0]
    if np.ndim(block_mask) >= 2 and np.shape(block_mask)[-2] > 1:  # one mask row per query row
        block_mask = block_mask[..., run - block.start, :]
    return run, picked, block_mask


def _run_jobs(work, jobs) -> list:
    return [work(*job) for job in jobs]


def _run_split(work, jobs, row_keys: int) -> list:
    """``[work(*job) for job in jobs]``, the later jobs run by a helper
    thread while this one runs the earlier ones.

    A job is ``layer_forward``'s ``(block, kmax, block_mask, shift,
    picked)``; its cost is its rows x (kmax + ``row_keys``), since a row's
    output projection and FFN cost about as much as attending to an FFN
    width of keys (a least-squares fit over the blocks of a 616-row
    causal layer put one row at 413 keys; its FFN is 384 wide). The cut
    falls where the running cost comes closest to half the total. The
    helper is started for this call and joined before it returns, also
    when either half raises; an exception of the helper's half is raised
    here after the join. It runs in a copy of the caller's context, so
    ``np.errstate`` holds in both halves.
    """
    work_sums = np.cumsum([(b.stop - b.start if isinstance(b, slice) else b.size)
                           * (kmax + row_keys) for b, kmax, *_ in jobs])
    cut = int(np.argmin(np.abs(work_sums[:-1] - work_sums[-1] / 2))) + 1
    tail = []

    def helper():
        try:
            tail.append(_run_jobs(work, jobs[cut:]))
        except BaseException as exc:  # raised below, after the join
            tail.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        head = _run_jobs(work, jobs[:cut])
    finally:
        thread.join()
    if isinstance(tail[0], BaseException):
        raise tail[0]
    return head + tail[0]


def _check_rows(rows, n: int, tape: bool):
    """Raise unless ``rows`` is a non-empty 1-D integer ndarray, strictly
    increasing inside [0, n), asked of array rows (not of the tape)."""
    if tape or not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.size
                    and rows.dtype.kind in "iu" and 0 <= rows[0] and rows[-1] < n
                    and (rows[1:] > rows[:-1]).all()):
        raise ContractViolation(f"layer_forward: rows must be a strictly increasing "
                                f"integer array inside [0, {n}), not on the tape")


def layer_forward(layer: LayerWeights, x: np.ndarray, mask, num_heads: int,
                  past_kv=None, meter=None, rows=None):
    """One pre-norm decoder layer: multi-head attention then FFN, both
    residual. The one implementation behind every mode, training included.

    ``x`` is (..., n, d). Its rows attend to m cached rows and then to
    themselves. ``past_kv`` takes two forms:

    - a plain pair ``(k, v)`` of the m cached rows, each (..., m, d): the
      rows' own k, v are concatenated after them (a copy of the cache;
      this form also runs on ``autodiff.Tensor`` pairs);
    - a ``KVSlot`` from ``KVCacheStore.slot``, each (..., m + n, d): the
      rows' own k, v are written into its last n rows in place, and the
      rows attend over the slot views where they lie, copying nothing.

    Both give the same values bit for bit. ``mask`` broadcasts to the
    (..., heads, n, m + n) scores (e.g. an (n, n) causal mask, a
    (B, 1, n, n) padded one, or (B, 1, 1, m + n) key validity); ``None``
    means every key is visible. Returns the output, shaped like ``x``, and
    the rows' own (k, v) projections for the cache.

    ``rows``, a strictly increasing integer array inside [0, n) (arrays
    only, not the tape; ``_check_rows`` refuses anything else), asks for
    the output of those rows alone: q, k and v are still
    projected for all n rows, so the asked rows see the same keys, and the
    output has one row per asked row. Each block's key range, mask and
    shift choice are those of the whole block; only the asked rows of a
    block run its attention and FFN, and a single asked row runs with one
    more row of its block (``_block_rows`` says why). The asked rows get the
    bits they have when every row runs.

    After the q/k/v projections the rows run in blocks of ``_QUERY_BLOCK``
    (attention, output projection and FFN). Each block computes scores,
    their exponentials and ``exp_scores @ v`` only over the leading keys
    that the mask leaves visible to some row of the block: a causal mask
    never has its upper triangle computed, and the columns cut off are
    exactly those whose probability would be 0. Normalization is deferred:
    q is scaled once per call, ``kernels.exp_rows`` exponentiates each
    block's scores (the matmul's own result) in place and returns the row
    sums, and the (rows, dh) context is divided by them, so no pass scales
    or divides the scores and a block allocates no second score-sized array.
    With ``n > _QUERY_BLOCK`` array rows, the call bounds each head's scores
    by Cauchy-Schwarz, |q_i . k_j| <= |q_i| max_j |k_j| (q after its scale,
    k over every key, cached ones included), and a block whose bound is at
    most ``_UNSHIFTED_LIMIT`` (64) is exponentiated without the row-max
    shift, saving two passes over its scores; the limit keeps every
    exponential normal and far from overflow, so the values match the
    shifted form to the last bits. A block over the limit, or with a NaN or
    inf bound, takes the shifted path. With ``n <= _QUERY_BLOCK`` (every
    cached decode step) there is one block over all keys, the mask is not
    read and the shift is always taken, as it is on the tape, so those calls
    are unchanged bit for bit. ``meter`` still counts the analytic
    full-square q @ k^T and probabilities @ v FLOPs over all n rows, as
    the benchmark's analytic counts (``perfbench/costs.py``) do, whichever
    ``rows`` are asked for. On ``autodiff.Tensor``
    rows, weights and mask (training) it records the tape, with
    ``autodiff.exp_rows_lastdim`` in place of the kernel.

    An array call of more than ``_QUERY_BLOCK`` rows whose score count,
    heads x rows (lanes included) x keys, reaches ``_SPLIT_SCORES`` runs
    its blocks on two threads when the process may use two CPUs. The
    decision reads only those sizes, so smaller calls pay nothing for it.
    ``_run_split`` cuts the blocks that run into an earlier and a later
    half of about equal rows x (keys + FFN width), the cost of a block,
    and a helper thread started for the call runs the later half while
    the caller runs the earlier; the outputs join in block order after
    the helper is joined, and an exception from either half is raised
    then. The tape never splits, and no thread outlives the call. Every
    block reads only the shared q, k, v, ``x``, mask and bound and writes
    its own arrays, so split and serial calls agree bit for bit.
    """
    tape = isinstance(x, ad.Tensor)
    if rows is not None:
        _check_rows(rows, x.shape[-2], tape)
    concat = ad.concat if tape else np.concatenate
    d = x.shape[-1]
    dh = d // num_heads
    normed = _rms_norm(x, layer.attn_norm_gain)
    q = normed @ layer.w_q
    q *= dh ** -0.5  # in place on arrays; a new tape node on Tensors
    k = normed @ layer.w_k
    v = normed @ layer.w_v
    keys, vals = k, v
    if isinstance(past_kv, KVSlot):
        keys, vals = past_kv
        keys[..., keys.shape[-2] - k.shape[-2]:, :] = k
        vals[..., vals.shape[-2] - v.shape[-2]:, :] = v
    elif past_kv is not None:
        keys = concat([past_kv[0], k], axis=-2)
        vals = concat([past_kv[1], v], axis=-2)

    def heads(t):
        return t.reshape(*t.shape[:-1], num_heads, dh).swapaxes(-2, -3)

    q_h, k_h, v_h = heads(q), heads(keys), heads(vals)
    n, n_keys = x.shape[-2], keys.shape[-2]
    bound = None
    if not tape and n > _QUERY_BLOCK:  # |q_i . k_j| <= |q_i| max_j |k_j|, per head
        bound = (np.linalg.norm(q_h, axis=-1)
                 * np.linalg.norm(k_h, axis=-1).max(axis=-1, keepdims=True))
    def block_out(block, kmax, block_mask, shift, picked):
        scores = q_h[..., block, :] @ k_h[..., :kmax, :].swapaxes(-1, -2)
        if tape:
            scores, sums = ad.exp_rows_lastdim(scores, block_mask)
        else:  # in place; looked up per call, so the benchmark's traced run can wrap it
            sums = kernels.exp_rows(scores, block_mask, shift=shift)
        ctx = scores @ v_h[..., :kmax, :]
        ctx /= sums  # in place on arrays; a new tape node on Tensors
        x_rows = x[..., block, :]
        ctx = ctx.swapaxes(-2, -3).reshape(x_rows.shape)
        attn_out = x_rows + ctx @ layer.w_o
        normed2 = _rms_norm(attn_out, layer.ffn_norm_gain)
        y = attn_out + _silu(normed2 @ layer.ffn_in) @ layer.ffn_out
        return y if picked is None else y[..., picked, :]

    jobs = []
    for block, kmax, block_mask in _query_blocks(mask, n, n_keys):
        # a NaN or inf bound fails the test and keeps the shift
        shift = bound is None or not bound[..., block].max() <= _UNSHIFTED_LIMIT
        picked = None
        if rows is not None:
            block, picked, block_mask = _block_rows(rows, block, block_mask)
            if block is None:
                continue
        jobs.append((block, kmax, block_mask, shift, picked))
    if (not tape and _CPUS > 1 and len(jobs) > 1
            and num_heads * (x.size // d) * n_keys >= _SPLIT_SCORES):
        blocks = _run_split(block_out, jobs, layer.ffn_in.shape[1])
    else:
        blocks = _run_jobs(block_out, jobs)
    out = blocks[0] if len(blocks) == 1 else concat(blocks, axis=-2)
    if meter is not None:
        every, f = x.size // d, layer.ffn_in.shape[1]
        for shape in ((every, d, d), (every, d, d), (every, d, d), (every, d, d),
                      (every, d, f), (every, f, d)):
            meter.add_matmul(*shape)
        meter.add_matmul(num_heads * every, dh, n_keys)  # q @ k^T
        meter.add_matmul(num_heads * every, n_keys, dh)  # exp_scores @ v
    return out, k, v


def decoder_layer_forward(layer: LayerWeights, tokens: np.ndarray,
                          attn_mask: np.ndarray, num_heads: int,
                          meter=None) -> np.ndarray:
    """``layer_forward`` without a cache, returning the output only.

    ``attn_mask`` is a binary mask broadcasting to the scores, normally the
    (N, N) causal mask, possibly intersected with a sparsification mask.
    """
    return layer_forward(layer, tokens, attn_mask, num_heads, meter=meter)[0]


def _project_kv(layer: LayerWeights, tokens: np.ndarray, num_heads: int):
    normed = _rms_norm(tokens, layer.attn_norm_gain)
    return normed @ layer.w_k, normed @ layer.w_v


def _logits_at(model: Model, hidden_row: np.ndarray) -> np.ndarray:
    """Next-token logits of (..., d) final-layer rows; arrays or Tensors."""
    return _rms_norm(hidden_row, model.final_norm_gain) @ model.lm_head


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool)


def _check_int(name: str, value, low: int, high: int = None):
    """Raise unless ``value`` is an integer (``_is_int``) >= ``low`` and,
    given ``high``, below it."""
    if not (_is_int(value) and low <= value and (high is None or value < high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ContractViolation(f"{name} must be an integer {bounds}, got {value!r}")


def _check_type(name: str, value, cls):
    """Raise unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ContractViolation(f"{name} is a {type(value).__name__}, not a {cls.__name__}")


def _check_cache(cache):
    """Raise unless ``cache`` is a ``KVCacheStore``."""
    _check_type("cache", cache, KVCacheStore)


def _check_rate(name: str, value):
    """Raise unless ``value`` is a keep rate: a real number (``_is_real``)
    above 0 and at most 1."""
    if not (_is_real(value) and 0.0 < value <= 1.0):
        raise ContractViolation(f"{name} must be a real number in (0, 1], got {value!r}")


def _check_choice(name: str, value, choices):
    """Raise unless ``value`` is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ContractViolation(f"unknown {name} {value!r}, not one of {choices}")


def _check_position(model: Model, position):
    """Raise unless ``position`` is an integer in [0, max_seq_len)."""
    _check_int("position (below max_seq_len)", position, 0, model.config.max_seq_len)


def _token_ids(ids, vocab_size: int) -> np.ndarray:
    """``ids`` as a 1-D int64 array. They must be 1-D, of an integer dtype
    or with integral values, and lie in [0, vocab_size)."""
    arr = np.asarray(ids)
    if arr.ndim != 1:
        raise ContractViolation(f"token ids of shape {arr.shape} are not 1-D")
    if arr.size and not (np.issubdtype(arr.dtype, np.integer) or (
            np.issubdtype(arr.dtype, np.floating) and (np.floor(arr) == arr).all())):
        raise ContractViolation(f"token ids of dtype {arr.dtype} are not integral")
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):  # catches ±inf too
        raise ContractViolation(f"token id out of vocabulary range [0, {vocab_size})")
    return arr.astype(np.int64)


def embed_inputs(model: Model, image_features, text_ids) -> SequenceState:
    """Project image features and embed text ids into one positioned state.

    Image features map through a single linear projector; text ids go
    through the learned table. Positions are assigned 0..N-1. Image
    features must be a finite (n_image, image_feature_dim) array; an empty
    one may have any shape. Text ids must be 1-D, integers or integral
    values, inside the vocabulary.
    """
    cfg = model.config
    feats = np.asarray(image_features, dtype=np.float64)
    if feats.size == 0:
        feats = feats.reshape(0, cfg.image_feature_dim)
    elif feats.ndim != 2 or feats.shape[1] != cfg.image_feature_dim:
        raise ContractViolation(
            f"image features of shape {feats.shape} are not "
            f"(n, image_feature_dim {cfg.image_feature_dim})")
    elif not np.isfinite(feats).all():
        raise ContractViolation("image features are not finite")
    ids = _token_ids(text_ids, cfg.vocab_size)
    n_img, n_txt = feats.shape[0], ids.shape[0]
    if n_img + n_txt == 0:
        raise ContractViolation("embed_inputs: empty image and text input")
    if n_img + n_txt > cfg.max_seq_len:
        raise ContractViolation(
            f"sequence length {n_img + n_txt} exceeds max_seq_len {cfg.max_seq_len}"
        )
    image = feats @ model.image_proj + model.pos_emb[:n_img]
    text = model.token_emb[ids] + model.pos_emb[n_img:n_img + n_txt]
    d = cfg.hidden_dim
    return SequenceState(image=image, text=text, output=np.zeros((0, d)))


def embed_output_token(model: Model, token_id: int, position: int) -> np.ndarray:
    """Embedding of one generated token at its original position. The id is
    an integer or integral value, the position an integer, neither a bool."""
    if not _is_int(token_id):
        token_id = _token_ids([token_id], model.config.vocab_size)[0]
    if not 0 <= token_id < model.config.vocab_size:
        raise ContractViolation(f"token id {token_id} out of vocabulary range")
    _check_position(model, position)
    return model.token_emb[token_id] + model.pos_emb[position]


def append_output(model: Model, state: SequenceState, token_id: int):
    vec = embed_output_token(model, token_id, state.total)
    state.output = np.concatenate([state.output, vec[None, :]], axis=0)
    state.output_ids.append(int(token_id))


def full_logits(model: Model, state: SequenceState) -> np.ndarray:
    """Logits at every position; used by tests and training oracles."""
    from .sparsify import _sparse_forward

    hidden = _sparse_forward(model, None, state, _keep_all(), True, every_row=True)[0]
    return _logits_at(model, hidden)


def _keep_all():
    """Dense inference as sparse inference: sparsify at l = 0 and keep
    every image and output token, so no predictor is ever consulted."""
    from .sparsify import SparsityConfig

    return SparsityConfig(sparsify_layer=0, image_keep_rate=1.0, output_keep_rate=1.0)


def prefill(model: Model, state: SequenceState, meter=None):
    """Process the full image+text prompt; return last-position logits and
    a cache populated with every prompt token's K/V at every layer."""
    from .sparsify import sparse_prefill

    logits, cache, _ = sparse_prefill(model, None, state, _keep_all(), meter=meter)
    return logits, cache


def decode_step_no_cache(model: Model, state: SequenceState) -> np.ndarray:
    """Full forward over prompt plus all generated tokens; last-row logits."""
    from .sparsify import _sparse_forward

    hidden = _sparse_forward(model, None, state, _keep_all(), True)[0]
    return _logits_at(model, hidden[-1])


def attend_cached(layer: LayerWeights, token: np.ndarray, cached_k: np.ndarray,
                  cached_v: np.ndarray, num_heads: int):
    """Single-token attention over cached K/V plus the token's own K/V.

    ``cached_k``, ``cached_v`` are the two views of a one-row
    ``KVCacheStore.slot``: the m committed rows and one free row, (m + 1, d)
    each. The token's own k, v are written into the free row in place, and
    the token attends over all m + 1 rows; whether the row stays in the
    cache is the caller's ``commit``. Returns the layer output row and the
    token's (k, v) projections.
    """
    out, k, v = layer_forward(layer, token[None], None, num_heads,
                              past_kv=KVSlot((cached_k, cached_v)))
    return out[0], k[0], v[0]


def decode_step_with_cache(model: Model, cache: KVCacheStore,
                           last_token: np.ndarray, position: int) -> np.ndarray:
    """One cached decode step: write the token's K/V into each layer's
    cache, attend over cache plus self, return next-token logits."""
    from .sparsify import sparse_decode_with_cache

    return sparse_decode_with_cache(model, None, cache, [], last_token, position,
                                    _keep_all())[0]


def stop_reason(model: Model, token: int, position: int):
    """Why generation ends right after emitting ``token``, whose input
    position would be ``position``: ``"eos"``, ``"max_seq_len"`` when no
    position is left for it, or None when the next step can run."""
    if token == EOS_ID:
        return "eos"
    if position >= model.config.max_seq_len:
        return "max_seq_len"
    return None


def greedy_generate(model: Model, state: SequenceState, max_new_tokens: int,
                    mode: str = "with_cache") -> list:
    """Greedy decoding loop from a prompt-only state; stops at EOS, after
    max_new_tokens, or after the token that has no position left below
    max_seq_len.

    ``mode`` selects the no-cache or cached path; both produce identical
    token lists for the same model and state.
    """
    from .sparsify import sparse_greedy_generate

    return sparse_greedy_generate(model, None, state, _keep_all(), max_new_tokens,
                                  mode=mode).token_ids


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
    from .predictors import PredictorConfig, make_predictors

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
                predictors = make_predictors(PredictorConfig(**meta["predictor_config"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint config is malformed: {exc!r}") from exc
        _load_arrays(data, "model", model.parameters())
        if predictors is not None:
            _load_arrays(data, "predictors", predictors.parameters())
    return model, predictors
