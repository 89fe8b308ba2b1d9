"""Where the traced run wraps ctxsparse, under which span names, and what
each span counts.

A function is wrapped at every name its callers look up: a function that
another module imported by name is wrapped both in its defining module and
in the importing one. Methods are wrapped on their class.
"""

from __future__ import annotations

from ctxsparse import autodiff, kernels, model, predictors, sparsify, tasks, training


def _layer_namer(prog):
    """Span name of a decoder layer call: ``pre`` for layers below the
    sparsify layer, ``post`` for the rest."""
    split = prog["sparsity"].sparsify_layer
    index = {id(layer): i for i, layer in enumerate(prog["model"].layers)}

    def name(args):
        return "model.layer.pre" if index[id(args[0])] < split else "model.layer.post"
    return name


def _padding(args, result):
    _, valid = result
    return {"slots": valid.size, "pad": valid.size - int(valid.sum())}


def targets(prog) -> list:
    """(owner, attribute, span name, count) for every wrapped function."""
    table = [
        ((kernels,), "masked_softmax", "kernels.masked_softmax",
         lambda args, result: {"elements": result.size}),
        ((kernels,), "softmax_rows", "kernels.softmax_rows", None),
        ((model, sparsify), "decoder_layer_forward", _layer_namer(prog),
         lambda args, result: {"rows": args[1].shape[0]}),
        ((model, sparsify), "attend_cached", "model.attend_cached",
         lambda args, result: {"keys": args[2].shape[0] + 1}),
        ((model.KVCacheStore,), "append", "model.kv.append", None),
        ((predictors, sparsify), "image_decisions", "predictors.image_decisions",
         lambda args, result: {"tokens": result.shape[0]}),
        ((predictors, sparsify), "image_decisions_batched",
         "predictors.image_decisions_batched", None),
        ((predictors, sparsify), "output_decisions", "predictors.output_decisions", None),
        ((sparsify,), "sparse_prefill", "sparsify.sparse_prefill", None),
        ((sparsify,), "sparse_decode_with_cache", "sparsify.sparse_decode_with_cache",
         None),
        ((sparsify,), "batch_sparse_prefill", "sparsify.batch_sparse_prefill", None),
        ((sparsify,), "batch_sparse_decode", "sparsify.batch_sparse_decode", None),
        ((sparsify,), "left_pad", "sparsify.left_pad", _padding),
        ((training,), "training_step", "training.training_step", None),
        ((training,), "training_forward", "training.training_forward", None),
        ((autodiff.Tensor,), "backward", "autodiff.backward", None),
        ((training.Adam, training.SgdMomentum), "step", "training.optimizer_step", None),
        ((tasks.KeyedLookupTask,), "training_batch", "tasks.training_batch", None),
    ]
    return [(owner, attr, name, count)
            for owners, attr, name, count in table for owner in owners]
