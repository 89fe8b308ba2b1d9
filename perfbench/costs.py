"""Analytic FLOP and KV-byte counts for sparse and dense runs of one shape.

The FLOP count of a decoder layer follows the matmul list in the ``meter``
block of ``ctxsparse.model.decoder_layer_forward``: the four d x d
projections, the two FFN matmuls, q @ k^T and probs @ v, at 2 FLOPs per
multiply-add. Norms, softmax and the predictors are not counted. K/V bytes
are float64 keys plus values: ``rows * 2 * d * 8``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    num_layers: int
    split: int       # sparsify layer l: layers below it see every token
    hidden: int
    ffn: int


@dataclass
class Ledger:
    """Sparse and dense totals, summed over every operation of a run."""
    prefill_sparse: int = 0
    prefill_dense: int = 0
    decode_sparse: int = 0
    decode_dense: int = 0
    kv_sparse: int = 0
    kv_dense: int = 0

    def ratios(self) -> dict:
        """Sparse over dense; 0 where the run had none of that work."""
        def ratio(sparse, dense):
            return sparse / dense if dense else 0.0
        return {
            "prefill_flops_ratio": ratio(self.prefill_sparse, self.prefill_dense),
            "decode_flops_ratio": ratio(self.decode_sparse, self.decode_dense),
            "kv_bytes_ratio": ratio(self.kv_sparse, self.kv_dense),
        }


def layer_flops(shape: Shape, rows: int, keys: int) -> int:
    """One layer for ``rows`` query tokens attending over ``keys`` keys."""
    d, f = shape.hidden, shape.ffn
    return 2 * rows * (4 * d * d + 2 * d * f + 2 * keys * d)


def full_pass_flops(shape: Shape, n: int, n_sparse: int) -> tuple:
    """(sparse, dense) FLOPs of a causal pass over n tokens, of which
    n_sparse survive beyond the split layer."""
    below = shape.split * layer_flops(shape, n, n)
    above = (shape.num_layers - shape.split) * layer_flops(shape, n_sparse, n_sparse)
    return below + above, shape.num_layers * layer_flops(shape, n, n)


def cached_step_flops(shape: Shape, keys: int, keys_sparse: int) -> tuple:
    """(sparse, dense) FLOPs of one cached decode step; key counts include
    the step's own token."""
    below = shape.split * layer_flops(shape, 1, keys)
    above = (shape.num_layers - shape.split) * layer_flops(shape, 1, keys_sparse)
    return below + above, shape.num_layers * layer_flops(shape, 1, keys)


def kv_bytes(rows: int, hidden: int) -> int:
    return rows * 2 * hidden * 8


def cached_request(ledger: Ledger, shape: Shape, n_prefill: int, n_survivors: int,
                   admitted: list):
    """Add one cached request: prefill, one decode step per entry of
    ``admitted`` and the K/V the cache retains at the end.

    ``n_survivors`` is the prompt tokens kept beyond the split layer.
    """
    sparse, dense = full_pass_flops(shape, n_prefill, n_survivors)
    ledger.prefill_sparse += sparse
    ledger.prefill_dense += dense
    kept_outputs = 0
    for step, admit in enumerate(admitted):
        sparse, dense = cached_step_flops(shape, n_prefill + step + 1,
                                          n_survivors + kept_outputs + 1)
        ledger.decode_sparse += sparse
        ledger.decode_dense += dense
        kept_outputs += bool(admit)
    steps = len(admitted)
    above = shape.num_layers - shape.split
    ledger.kv_sparse += kv_bytes(shape.split * (n_prefill + steps)
                                 + above * (n_survivors + kept_outputs), shape.hidden)
    ledger.kv_dense += kv_bytes(shape.num_layers * (n_prefill + steps), shape.hidden)


def no_cache_lane(ledger: Ledger, shape: Shape, n_prefill: int, n_survivors: int,
                  output_flags: list):
    """Add one lane of a no-cache batch: its prefill and one full pass per
    generated token after the first.

    ``output_flags[j]`` is the keep decision of output token j; the newest
    token of each step is kept whatever its flag says.
    """
    sparse, dense = full_pass_flops(shape, n_prefill, n_survivors)
    ledger.prefill_sparse += sparse
    ledger.prefill_dense += dense
    for n_out in range(1, len(output_flags) + 1):
        kept = sum(bool(f) for f in output_flags[:n_out - 1]) + 1
        sparse, dense = full_pass_flops(shape, n_prefill + n_out, n_survivors + kept)
        ledger.decode_sparse += sparse
        ledger.decode_dense += dense
