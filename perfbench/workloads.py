"""The benchmark's four workloads and the ctxsparse calls each one makes.

Each workload is one closed-loop client in this process: it draws an
operation's inputs from the run's seeded generator, runs the operation and
only then draws the next. Every ctxsparse call goes through a module
attribute (``sparsify.sparse_prefill``, never a name bound at import), so the
traced run's wrappers see it. README.md says why each workload exists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import costs
from ctxsparse import model, predictors, sparsify, tasks, training

WARM_UP_SEED = 12345  # set-up input, independent of the run seed
BATCH_PARITY_TOL = 1e-9


@dataclass
class OpResult:
    """Timings and outputs of one operation."""
    first_s: float            # operation start to its first result
    gaps_s: list              # gaps between its consecutive results
    tokens: int               # tokens generated, or trained on
    record: dict = field(default_factory=dict)  # what checks and tallies read


@dataclass
class Tally:
    """Per-layer quantities that are not spans, summed over traced ops."""
    sums: Counter = field(default_factory=Counter)
    ledger: costs.Ledger = field(default_factory=costs.Ledger)


def _greedy(logits) -> np.ndarray:
    return np.argmax(logits, axis=-1)


def _serving_program():
    cfg = model.ModelConfig(max_seq_len=1024)
    return {
        "model": model.make_model(cfg, seed=0),
        "predictors": predictors.make_predictors(
            predictors.PredictorConfig(input_dim=cfg.hidden_dim, keep_bias_init=0.0),
            seed=1),
        "sparsity": sparsify.SparsityConfig(),
    }


def _shape(prog) -> costs.Shape:
    cfg = prog["model"].config
    return costs.Shape(cfg.num_layers, prog["sparsity"].sparsify_layer,
                       cfg.hidden_dim, cfg.ffn_dim)


def _expected_keep(prog, n_image: int) -> int:
    return int(np.floor(prog["sparsity"].image_keep_rate * n_image))


class CachedServing:
    """Requests served one at a time: sparse prefill, then greedy decode
    with the KV cache and online admission. Every request generates exactly
    ``new_tokens`` tokens, EOS or not, so each request does the same amount
    of work whatever its seed."""

    replayable = True

    def __init__(self, name, why, ops, deep_checks, n_image, n_text, new_tokens,
                 check_prefix, warm_up_tokens):
        self.name, self.why = name, why
        self.ops, self.deep_checks = ops, deep_checks
        self.n_image = n_image
        self.n_text = n_text            # inclusive (low, high)
        self.new_tokens = new_tokens
        self.check_prefix = check_prefix
        self.warm_up_tokens = warm_up_tokens

    def setup(self):
        prog = _serving_program()
        inp = self.draw(prog, np.random.default_rng(WARM_UP_SEED))
        self._generate(prog, inp, self.warm_up_tokens, _clock_none)
        return prog

    def draw(self, prog, rng):
        feat_dim = prog["model"].config.image_feature_dim
        vocab = prog["model"].config.vocab_size
        n_text = int(rng.integers(self.n_text[0], self.n_text[1] + 1))
        return {"image": rng.normal(size=(self.n_image, feat_dim)),
                "text": rng.integers(1, vocab, size=n_text)}

    def run(self, prog, inp, clock, check_rng=None):
        return self._generate(prog, inp, self.new_tokens, clock)

    def _generate(self, prog, inp, new_tokens, clock):
        m, p, cfg = prog["model"], prog["predictors"], prog["sparsity"]
        start = clock()
        state = model.embed_inputs(m, inp["image"], inp["text"])
        logits, cache, keep = sparsify.sparse_prefill(m, p, state, cfg)
        tokens = [int(_greedy(logits))]
        last = clock()
        first, gaps = last - start, []
        admissions = []
        position = state.n_prefill
        while len(tokens) < new_tokens:
            vec = model.embed_output_token(m, tokens[-1], position)
            logits, _ = sparsify.sparse_decode_with_cache(
                m, p, cache, admissions, vec, position, cfg)
            tokens.append(int(_greedy(logits)))
            position += 1
            now = clock()
            gaps.append(now - last)
            last = now
        return OpResult(first, gaps, len(tokens), {
            "n_image": state.n_image, "n_text": state.n_text,
            "keep": np.asarray(keep), "tokens": tokens,
            "admitted": [r.admitted for r in admissions],
            "cache_lengths": cache.lengths(),
        })

    def check(self, prog, inp, res) -> list:
        """Cheap invariants every operation must meet."""
        rec, errors = res.record, []
        cfg = prog["model"].config
        split = prog["sparsity"].sparsify_layer
        tokens = rec["tokens"]
        if not all(0 <= t < cfg.vocab_size for t in tokens):
            errors.append("token id out of range")
        if len(tokens) != self.new_tokens:
            errors.append(f"generated {len(tokens)} tokens, not {self.new_tokens}")
        keep = rec["keep"]
        if keep.size != _expected_keep(prog, rec["n_image"]) or \
                np.any(np.diff(keep) <= 0) or (keep.size and keep[-1] >= rec["n_image"]):
            errors.append("image keep set is not a sorted top-k subset")
        n_prefill = rec["n_image"] + rec["n_text"]
        steps = len(rec["admitted"])
        want = [n_prefill + steps if li < split
                else keep.size + rec["n_text"] + sum(rec["admitted"])
                for li in range(cfg.num_layers)]
        if rec["cache_lengths"] != want:
            errors.append(f"cache lengths {rec['cache_lengths']} != {want}")
        return errors

    def deep_check(self, prog, inp, res) -> list:
        """Cached tokens equal no-cache sparse generation on a prefix,
        which ends at the first EOS if there is one."""
        m, p, cfg = prog["model"], prog["predictors"], prog["sparsity"]
        prefix = res.record["tokens"][:self.check_prefix]
        if model.EOS_ID in prefix:
            prefix = prefix[:prefix.index(model.EOS_ID) + 1]
        state = model.embed_inputs(m, inp["image"], inp["text"])
        trace = sparsify.sparse_greedy_generate(m, p, state, cfg, len(prefix),
                                                mode="no_cache")
        errors = []
        if trace.token_ids != prefix:
            errors.append(f"cached tokens {prefix} != no-cache {trace.token_ids}")
        if trace.image_keep != [int(i) for i in res.record["keep"]]:
            errors.append("cached and no-cache image keep sets differ")
        return errors

    def retained_kv_bytes(self, prog, res) -> int:
        return costs.kv_bytes(sum(res.record["cache_lengths"]),
                              prog["model"].config.hidden_dim)

    def account(self, prog, inp, res, tally: Tally):
        rec = res.record
        survivors = rec["keep"].size + rec["n_text"]
        tally.sums["image_kept"] += rec["keep"].size
        tally.sums["image_seen"] += rec["n_image"]
        tally.sums["decode_steps"] += len(rec["admitted"])
        tally.sums["admitted"] += sum(rec["admitted"])
        tally.sums["kv_retained_bytes"] += self.retained_kv_bytes(prog, res)
        costs.cached_request(tally.ledger, _shape(prog), rec["n_image"] + rec["n_text"],
                             survivors, rec["admitted"])


class NoCacheBatch:
    """Left-padded batches: batched sparse prefill, then lockstep no-cache
    decode steps. Lanes ignore EOS; every lane runs every step."""

    replayable = True

    def __init__(self, name, why, ops, deep_checks, lanes, n_image, n_text, steps,
                 check_steps):
        self.name, self.why = name, why
        self.ops, self.deep_checks = ops, deep_checks
        self.lanes = lanes
        self.n_image = n_image          # inclusive (low, high)
        self.n_text = n_text
        self.steps = steps
        self.check_steps = check_steps

    def setup(self):
        prog = _serving_program()
        inp = self.draw(prog, np.random.default_rng(WARM_UP_SEED))
        self._generate(prog, inp, 2, _clock_none, ())
        return prog

    def draw(self, prog, rng):
        feat_dim = prog["model"].config.image_feature_dim
        vocab = prog["model"].config.vocab_size
        # The lanes' image counts are evenly spaced over the range, in a
        # seeded order: every batch mixes short and long prompts, and every
        # batch pads to the same length, so seeds differ in values only.
        counts = np.linspace(self.n_image[0], self.n_image[1], self.lanes).astype(int)
        return [(rng.normal(size=(int(n), feat_dim)),
                 rng.integers(1, vocab, size=self.n_text))
                for n in rng.permutation(counts)]

    def run(self, prog, inp, clock, check_rng=None):
        sampled = ()
        if check_rng is not None:
            sampled = set(check_rng.choice(self.steps, size=self.check_steps,
                                           replace=False).tolist())
        return self._generate(prog, inp, self.steps, clock, sampled)

    def _generate(self, prog, inp, steps, clock, sampled):
        m, p, cfg = prog["model"], prog["predictors"], prog["sparsity"]
        start = clock()
        states = [model.embed_inputs(m, image, text) for image, text in inp]
        batch = sparsify.PaddedBatch(states)
        first_logits, keep_sets = sparsify.batch_sparse_prefill(m, p, batch, cfg)
        tokens = _greedy(first_logits)
        last = clock()
        first, gaps, snapshots = last - start, [], []
        logits = first_logits
        for step in range(steps):
            for state, token in zip(states, tokens):
                model.append_output(m, state, int(token))
            logits = sparsify.batch_sparse_decode(m, p, batch, cfg, mode="no_cache")
            tokens = _greedy(logits)
            gaps.append(clock() - last)
            if step in sampled:
                snapshots.append(([s.copy() for s in states], logits.copy()))
            last = clock()
        return OpResult(first, gaps, len(states) * (steps + 1), {
            "keep_sets": keep_sets, "states": states, "snapshots": snapshots,
            "logits": (first_logits, logits),
        })

    def check(self, prog, inp, res) -> list:
        finite = all(np.isfinite(x).all() for x in res.record["logits"])
        errors = [] if finite else ["non-finite first or last logits"]
        for (image, _), keep in zip(inp, res.record["keep_sets"]):
            if len(keep) != _expected_keep(prog, image.shape[0]):
                errors.append("lane keep count is not floor(rate * n_image)")
        return errors

    def deep_check(self, prog, inp, res) -> list:
        """Each lane's logits equal single-sample no-cache decode."""
        m, p, cfg = prog["model"], prog["predictors"], prog["sparsity"]
        errors = []
        for states, logits in res.record["snapshots"]:
            for lane, state in enumerate(states):
                single = sparsify.sparse_decode_no_cache(m, p, state, cfg)
                gap = float(np.max(np.abs(single - logits[lane])))
                if not gap <= BATCH_PARITY_TOL:
                    errors.append(f"lane {lane} differs from single-sample by {gap:.3g}")
        return errors

    def retained_kv_bytes(self, prog, res) -> int:
        return 0

    def account(self, prog, inp, res, tally: Tally):
        m, p, cfg = prog["model"], prog["predictors"], prog["sparsity"]
        shape = _shape(prog)
        for state, keep in zip(res.record["states"], res.record["keep_sets"]):
            tally.sums["image_kept"] += len(keep)
            tally.sums["image_seen"] += state.n_image
            _, _, flags = sparsify.sparse_decode_no_cache(m, p, state, cfg,
                                                          return_decisions=True)
            costs.no_cache_lane(tally.ledger, shape, state.n_prefill,
                                len(keep) + state.n_text, list(flags))


class Training:
    """Keyed-lookup training: each operation is a few consecutive
    ``training_step`` calls on batches drawn before it starts."""

    replayable = False

    def __init__(self, name, why, ops, batch_size, steps_per_op):
        self.name, self.why = name, why
        self.ops, self.deep_checks = ops, 0
        self.batch_size = batch_size
        self.steps_per_op = steps_per_op

    def setup(self):
        task = tasks.KeyedLookupTask()
        mcfg = model.ModelConfig(num_layers=4, hidden_dim=64, ffn_dim=256,
                                 vocab_size=task.min_vocab, max_seq_len=64,
                                 image_feature_dim=task.feat_dim)
        m = model.make_model(mcfg, seed=0)
        p = predictors.make_predictors(predictors.PredictorConfig(input_dim=64), seed=1)
        # min_output_len=0 turns on the output keep-rate term; total_steps
        # only has to outlast the run, the tau schedule barely moves over it.
        tcfg = training.TrainConfig(min_output_len=0, batch_size=self.batch_size,
                                    total_steps=10 ** 7)
        prog = {"task": task, "model": m, "predictors": p, "train": tcfg,
                "sparsity": sparsify.SparsityConfig(sparsify_layer=1),
                "optimizer": training.make_optimizer(m, p, tcfg), "step": 0}
        self.run(prog, self.draw(prog, np.random.default_rng(WARM_UP_SEED)),
                 _clock_none)
        return prog

    def draw(self, prog, rng):
        batches = [prog["task"].training_batch(rng, self.batch_size)
                   for _ in range(self.steps_per_op)]
        return {"batches": batches, "noise": int(rng.integers(2 ** 63))}

    def run(self, prog, inp, clock, check_rng=None):
        noise = np.random.default_rng(inp["noise"])
        losses, times = [], []
        for batch in inp["batches"]:
            start = clock()
            losses.append(training.training_step(
                prog["model"], prog["predictors"], batch, prog["train"],
                prog["sparsity"], prog["step"], prog["optimizer"], noise))
            times.append(clock() - start)
            prog["step"] += 1
        tokens = sum(b.size * (b.image_feats.shape[1] + b.text_ids.shape[1]
                               + b.output_ids.shape[1]) for b in inp["batches"])
        return OpResult(times[0], times[1:], tokens, {"losses": losses})

    def check(self, prog, inp, res) -> list:
        for loss in res.record["losses"]:
            values = (loss.cross_entropy, loss.regularizer, loss.total,
                      loss.image_keep_fraction, loss.output_keep_fraction)
            if not np.all(np.isfinite(values)):
                return [f"non-finite training loss {loss}"]
        return []

    def deep_check(self, prog, inp, res) -> list:
        return []

    def retained_kv_bytes(self, prog, res) -> int:
        return 0

    def account(self, prog, inp, res, tally: Tally):
        for loss in res.record["losses"]:
            tally.sums["train_steps"] += 1
            tally.sums["train_image_keep"] += loss.image_keep_fraction
            tally.sums["train_output_keep"] += loss.output_keep_fraction


def _clock_none():
    return 0.0


WORKLOADS = {w.name: w for w in (
    CachedServing(
        "vqa-prefill",
        "LLaVA-shaped prompts (576 image + 16-64 text tokens), 8 cached tokens: "
        "sparse prefill and the image predictor dominate",
        ops=40, deep_checks=2, n_image=576, n_text=(16, 64), new_tokens=8,
        check_prefix=4, warm_up_tokens=2),
    CachedServing(
        "long-decode",
        "64 image + 16 text tokens, 448 cached tokens: cached decode, one KV "
        "append per token per layer and online admission dominate",
        ops=14, deep_checks=4, n_image=64, n_text=(16, 16), new_tokens=448,
        check_prefix=32, warm_up_tokens=32),
    NoCacheBatch(
        "batch-nocache",
        "4-lane left-padded batches of mixed prompts, 16 no-cache decode steps: "
        "the only padded path and the only path without a KV cache",
        ops=4, deep_checks=2, lanes=4, n_image=(64, 160), n_text=16, steps=16,
        check_steps=2),
    Training(
        "train-keyed-lookup",
        "training_step on keyed-lookup batches of 4 (l=1): the only workload "
        "that runs autodiff, the optimizer and the task generator",
        ops=32, batch_size=4, steps_per_op=4),
)}
