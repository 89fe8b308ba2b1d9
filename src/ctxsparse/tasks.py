"""Synthetic data generators for training and evaluation.

keyed-lookup: a handful of "key" image tokens carry a scene code; the other
image tokens are noise. Output text alternates between value tokens (odd
positions, fresh random draws from a dedicated alphabet) and target tokens
(even positions). Early targets are code-specific fillers; later targets
answer a presence probe: take the value two positions back as the probe,
check whether the same value occurred among the eight values before it,
and emit one of two probe-specific answer tokens accordingly. Deciding
presence takes two dependent steps (read the probe, then match it against
the history), so it cannot complete within a single decoder layer; with
the sparsification split after layer 1 the match must run over retained
tokens, and discarding history values flips answers from the "present"
branch to the "absent" one. The consequences:

  * value tokens are worth caching, target tokens are not, so an ideal
    output predictor keeps exactly half the output tokens;
  * static masks that discard value tokens measurably raise the loss.

The keys:noise ratio is chosen so an ideal image predictor keeps exactly
the configured image keep rate (3 of 15 at the 0.2 default).

Targets are a deterministic function of (scene code, prompt, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .model import _check_int
from .training import TrainBatch


@dataclass
class Sample:
    image_feats: np.ndarray
    text_ids: np.ndarray
    output_ids: np.ndarray


def _stack(samples) -> TrainBatch:
    return TrainBatch(
        image_feats=np.stack([s.image_feats for s in samples]),
        text_ids=np.stack([s.text_ids for s in samples]),
        output_ids=np.stack([s.output_ids for s in samples]),
    )


class KeyedLookupTask:
    """Image-keyed presence-probe sequences; see the module docstring.

    Vocabulary layout: ids 1..text_len are the fixed prompt, answer and
    filler tokens live in [8, 40), value tokens in [40, 40 + n_values).
    The probe window spans the 8 values before the probe token.
    """

    WINDOW = 8
    ECHO_START = 22

    def __init__(self, n_image=15, n_keys=3, n_codes=6, text_len=4,
                 output_len=40, feat_dim=32, n_values=16, key_gain=3.0,
                 seed=0):
        _check_int("n_values", n_values, self.WINDOW, 17)
        _check_int("output_len", output_len, self.ECHO_START + 2)
        if output_len % 2:
            raise ContractViolation(f"output_len must be even, got {output_len}")
        _check_int("n_image", n_image, 1)
        _check_int("n_keys", n_keys, 1, n_image + 1)
        _check_int("n_codes", n_codes, 1)
        _check_int("feat_dim", feat_dim, 1)
        _check_int("text_len", text_len, 0, 8)  # prompt ids stay below the answer ids
        self.n_image = n_image
        self.n_keys = n_keys
        self.n_codes = n_codes
        self.output_len = output_len
        self.feat_dim = feat_dim
        self.value_low = 40
        self.n_values = n_values
        base = np.random.default_rng(seed)
        self.text_ids = 1 + np.arange(text_len, dtype=np.int64)
        # disjoint per-value answer ids for the two branches, so a wrong
        # presence verdict is a uniquely wrong prediction
        answers = base.permutation(32) + 8
        self.present_table = answers[:n_values]
        self.absent_table = answers[n_values:]
        self.start_table = base.integers(8, 40, size=(n_codes, self.ECHO_START))
        self.key_dir = base.normal(size=feat_dim) * key_gain
        self.code_dirs = base.normal(size=(n_codes, feat_dim)) * key_gain

    @property
    def min_vocab(self):
        return self.value_low + self.n_values

    def sample(self, rng: np.random.Generator) -> Sample:
        code = int(rng.integers(self.n_codes))
        key_slots = rng.choice(self.n_image, size=self.n_keys, replace=False)
        feats = rng.normal(size=(self.n_image, self.feat_dim))
        feats[key_slots] += self.key_dir + self.code_dirs[code]
        out = np.empty(self.output_len, dtype=np.int64)
        for k in range(self.output_len):
            if k % 2 == 1:
                out[k] = self.value_low + int(rng.integers(self.n_values))
            elif k < self.ECHO_START:
                out[k] = self.start_table[code][k]
            else:
                probe = out[k - 3]
                history = out[k - 5 - 2 * np.arange(self.WINDOW)]
                table = self.present_table if probe in history else self.absent_table
                out[k] = table[probe - self.value_low]
        return Sample(feats, self.text_ids.copy(), out)

    def training_batch(self, rng, batch_size: int) -> TrainBatch:
        _check_int("batch_size", batch_size, 1)
        return _stack([self.sample(rng) for _ in range(batch_size)])

    def eval_samples(self, rng, count: int) -> list:
        _check_int("count", count, 1)
        return [self.sample(rng) for _ in range(count)]
