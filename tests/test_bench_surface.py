"""The ctxsparse names the benchmark's traced run wraps all exist.

``perfbench/probes.py`` wraps ctxsparse functions by owner and attribute
name, and the workloads call ``sparse_decode_no_cache`` for its decisions.
A name that goes missing breaks only a traced benchmark run, so the tier-1
suite checks the surface here.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import probes  # noqa: E402

from ctxsparse import model as m  # noqa: E402
from ctxsparse import sparsify as sp  # noqa: E402
from ctxsparse.predictors import PredictorConfig, make_predictors  # noqa: E402

CFG = m.ModelConfig(num_layers=3, hidden_dim=32, num_heads=4, ffn_dim=64,
                    vocab_size=48, max_seq_len=64, image_feature_dim=16)


def small_program():
    return {"model": m.make_model(CFG, seed=0),
            "predictors": make_predictors(PredictorConfig(input_dim=32), seed=1),
            "sparsity": sp.SparsityConfig(sparsify_layer=1)}


def test_every_probe_target_exists():
    targets = probes.targets(small_program())
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_no_cache_decode_returns_its_decisions():
    prog = small_program()
    rng = np.random.default_rng(2)
    state = m.embed_inputs(prog["model"], rng.normal(size=(10, 16)),
                           rng.integers(1, 48, size=3))
    for tok in (5, 9):
        m.append_output(prog["model"], state, tok)
    result = sp.sparse_decode_no_cache(prog["model"], prog["predictors"], state,
                                       prog["sparsity"], return_decisions=True)
    assert isinstance(result, tuple) and len(result) == 3
    logits, keep, flags = result
    assert logits.shape == (CFG.vocab_size,)
    assert keep.size == int(np.floor(prog["sparsity"].image_keep_rate * 10))
    assert flags.shape == (2,)
