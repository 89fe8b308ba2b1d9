"""Self-tests for the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import costs  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from spans import Patch, Tracer  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

from ctxsparse import model  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def programs():
    return {name: w.setup() for name, w in WORKLOADS.items()}


def _flatten(inp):
    if isinstance(inp, np.ndarray):
        return [inp]
    if isinstance(inp, dict):
        return [a for key in sorted(inp) for a in _flatten(inp[key])]
    if isinstance(inp, (list, tuple)):
        return [a for item in inp for a in _flatten(item)]
    if hasattr(inp, "output_ids"):  # a TrainBatch
        return [inp.image_feats, inp.text_ids, inp.output_ids]
    return [np.asarray(inp)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(programs, name):
    workload, prog = WORKLOADS[name], programs[name]

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [_flatten(workload.draw(prog, rng)) for _ in range(3)]

    first, again, other = draws(7), draws(7), draws(8)
    for a, b in zip(first, again):
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for a, b in zip(first, other)
               for x, y in zip(a, b))


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("a")       # 0
    tracer.enter("b")       # 1
    tracer.exit()           # 3: b lasts 2
    tracer.enter("c")       # 4
    tracer.enter("d")       # 5
    tracer.exit()           # 6: d lasts 1, inside c
    tracer.exit()           # 8: c lasts 4
    tracer.exit()           # 10: a lasts 10
    stats = tracer.stats
    assert stats["a"].total_s == 10.0 and stats["a"].self_s == 10.0 - 2.0 - 4.0
    assert stats["b"].self_s == 2.0
    assert stats["c"].total_s == 4.0 and stats["c"].self_s == 3.0
    assert stats["d"].self_s == 1.0


def test_wrapped_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.stats["boom"].calls == 1 and not tracer._stack


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = run.per_layer(Tracer(), Tally(), 0, 0, 0.0)
    e2e = [name for name, _ in run.END_TO_END]
    for name in [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
            list(produced) + e2e:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["end_to_end"]] == e2e
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_patch_restores_every_original(programs, name):
    table = probes.targets(programs[name])
    before = [vars(owner)[attr] for owner, attr, _, _ in table]
    with pytest.raises(RuntimeError):
        with Patch(Tracer(), table):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr, _, _), orig in zip(table, before))
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is orig
               for (owner, attr, _, _), orig in zip(table, before))


def test_layer_flops_follow_the_model_meter(programs):
    class Meter:
        flops = 0

        def add_matmul(self, a, b, c):
            self.flops += 2 * a * b * c

    prog = programs["vqa-prefill"]
    cfg = prog["model"].config
    n = 11
    meter = Meter()
    model.decoder_layer_forward(prog["model"].layers[0], np.zeros((n, cfg.hidden_dim)),
                                model.causal_mask(n), cfg.num_heads, meter)
    shape = costs.Shape(cfg.num_layers, 2, cfg.hidden_dim, cfg.ffn_dim)
    assert costs.layer_flops(shape, n, n) == meter.flops


def test_keep_all_ledger_ratios_are_one():
    shape = costs.Shape(4, 2, 64, 384)
    ledger = costs.Ledger()
    costs.cached_request(ledger, shape, 40, 40, [True] * 5)
    costs.no_cache_lane(ledger, shape, 40, 40, [1] * 5)
    assert ledger.ratios() == {"prefill_flops_ratio": 1.0, "decode_flops_ratio": 1.0,
                               "kv_bytes_ratio": 1.0}


def test_runner_prints_one_result_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "train-keyed-lookup",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vqa-prefill",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
