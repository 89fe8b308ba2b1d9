"""Run one benchmark workload against the ctxsparse sources and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload vqa-prefill --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, scaled
to a reference machine speed (see ``calibrate``).
``--trace 1`` wraps the ctxsparse layers (see probes.py) and reports
per-layer metrics, plus the tracing overhead measured on the same run. Both
modes run the correctness checks. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 11
# Calibration time that defines the reference speed: about the kernel's
# typical time on the 2-core Xeon VM the benchmark was built on, so scaled
# times read close to wall times.
CAL_REF_S = 0.010
PAPER_RATIOS = {"prefill_flops_ratio": 0.25, "decode_flops_ratio": 0.5,
                "kv_bytes_ratio": 0.5}

END_TO_END = [
    ("setup_s", "s"),
    ("ttft_ms.p50", "ms"), ("ttft_ms.tail", "ms"),
    ("itl_ms.p50", "ms"), ("itl_ms.tail", "ms"),
    ("tokens_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def pin_blas_threads():
    """One BLAS thread: must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls, a row softmax over
    a 2 MB array and Python-level looping, like the work ctxsparse does.

    Other tenants of this shared machine change its speed by up to half,
    for seconds to minutes at a time. Timing this kernel next to every
    operation measures that speed, and scaling each operation's times by
    ``CAL_REF_S / calibrate()`` reports them at one reference speed. The
    kernel uses no ctxsparse code, so a change to the package cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 64))
    w = rng.normal(size=(64, 384)) * 0.1
    big = rng.normal(size=(1024, 256))
    start = time.perf_counter()
    for _ in range(15):
        y = np.exp(-np.abs(a @ w))
        y /= y.sum(axis=-1, keepdims=True)
    for _ in range(2):
        e = np.exp(big - big.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
    total = 0
    for v in range(1500):
        total += v
    return time.perf_counter() - start


def tail(values: list) -> dict:
    """The highest percentile with at least 10 samples beyond it, capped at
    p99 and floored at p50, with the sample count and the count beyond."""
    import numpy as np

    q = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / len(values))))
    value = float(np.percentile(values, q))
    return {"value": value, "percentile": q, "samples": len(values),
            "beyond": sum(v > value for v in values)}


class Samples:
    """Each input's timings in every pass, with the machine speed measured
    next to them."""

    def __init__(self, n: int):
        self.reps = [[] for _ in range(n)]   # (first s, gap s list, speed)
        self.tokens = [0] * n
        self.kv_bytes = [0] * n

    def record(self, i: int, res, speed: float, kv_bytes: int):
        self.reps[i].append((res.first_s, list(res.gaps_s), speed))
        self.tokens[i] = res.tokens
        self.kv_bytes[i] = kv_bytes

    def per_input(self, scaled: bool):
        """(first ms, gap ms, busy s) per input: the median over passes,
        position by position for the gaps. ``scaled`` puts every time at
        the reference speed."""
        import numpy as np

        first_ms, gap_ms, busy_s = [], [], []
        for reps in self.reps:
            if not reps:
                continue
            k = np.array([speed if scaled else 1.0 for _, _, speed in reps])
            first = np.array([f for f, _, _ in reps]) * k
            gaps = np.array([g for _, g, _ in reps]).reshape(len(reps), -1) * k[:, None]
            first_ms.append(float(np.median(first)) * 1e3)
            gap_ms.extend(float(g) * 1e3 for g in np.median(gaps, axis=0))
            busy_s.append(float(np.median(first + gaps.sum(axis=1))))
        return first_ms, gap_ms, busy_s


class Run:
    """Everything one measuring loop produced."""

    def __init__(self, n: int):
        self.samples = Samples(n)
        self.calibration_s = []
        self.attempted = 0
        self.failures = []        # (op index, reason)
        self.plain_busy_s = []    # every untraced op, for the tracing overhead
        self.traced_busy_s = []
        self.tally = None
        self.peak_rss_mb = 0.0    # before the deep checks, which allocate more


def measure(workload, prog, seconds, rng, check_rng, tracer=None) -> Run:
    """Draw ``workload.ops`` inputs, then run them in passes until
    ``seconds`` have gone by; the first pass always completes.

    Every op gets the cheap checks; a seeded sample of inputs gets the deep
    checks on its first-pass results after the loop. With a tracer, traced
    ops are replayed on the inputs of an untraced op where the workload
    allows it, and alternate with untraced ops where it does not.
    """
    import probes
    from spans import Patch
    from workloads import Tally

    n = workload.ops
    out = Run(n)
    out.tally = Tally()
    with Patch(tracer, probes.targets(prog)) if tracer else contextlib.nullcontext():
        inputs = [workload.draw(prog, rng) for _ in range(n)]
    deep = set(check_rng.choice(n, size=min(workload.deep_checks, n),
                                replace=False).tolist())
    first_pass = {}
    clock = time.perf_counter
    deadline = clock() + seconds
    op, passes = 0, 0
    out.calibration_s.append(calibrate())
    while passes == 0 or clock() < deadline:
        for i, inp in enumerate(inputs):
            if passes and clock() >= deadline:
                break
            traced = tracer is not None and (workload.replayable or op % 2 == 1)
            plain = not traced or workload.replayable
            sampled = passes == 0 and i in deep
            if plain:
                res = _attempt(out, op, workload, prog, inp, clock,
                               check_rng if sampled else None)
                out.calibration_s.append(calibrate())
                if res is not None:
                    speed = 2 * CAL_REF_S / sum(out.calibration_s[-2:])
                    out.samples.record(i, res, speed, workload.retained_kv_bytes(prog, res))
                    out.plain_busy_s.append(res.first_s + sum(res.gaps_s))
                    if sampled:
                        first_pass[i] = (op, res)
            if traced:
                with Patch(tracer, probes.targets(prog)):
                    res = _attempt(out, op, workload, prog, inp, clock, None)
                if res is not None:
                    out.traced_busy_s.append(res.first_s + sum(res.gaps_s))
                    workload.account(prog, inp, res, out.tally)
            op += 1
        passes += 1
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, (op, res) in sorted(first_pass.items()):
        out.failures.extend((op, reason)
                            for reason in workload.deep_check(prog, inputs[i], res))
    return out


def failed_ops(run: Run) -> int:
    return len({op for op, _ in run.failures})


def _attempt(out: Run, op: int, workload, prog, inp, clock, check_rng):
    """Run one op and its cheap checks. A wrong output still has valid
    timings, so only an op that raised returns None."""
    out.attempted += 1
    try:
        res = workload.run(prog, inp, clock, check_rng)
    except Exception:  # one bad operation must not end the run
        out.failures.append((op, traceback.format_exc(limit=4)))
        return None
    out.failures.extend((op, reason) for reason in workload.check(prog, inp, res))
    return res


def end_to_end(setup_s, run: Run):
    """End-to-end metrics at the reference speed, and details that include
    the same figures unscaled."""
    first_ms, gap_ms, busy_s = run.samples.per_input(scaled=True)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ttft_ms.p50": statistics.median(first_ms),
        "ttft_ms.tail": tail(first_ms)["value"],
        "itl_ms.p50": statistics.median(gap_ms),
        "itl_ms.tail": tail(gap_ms)["value"],
        "tokens_per_s": sum(run.samples.tokens) / sum(busy_s),
        "peak_rss_mb": run.peak_rss_mb,
    }
    raw_first, raw_gap, raw_busy = run.samples.per_input(scaled=False)
    passes = [len(r) for r in run.samples.reps]
    kv_bytes = [b for b, r in zip(run.samples.kv_bytes, run.samples.reps) if r]
    details = {
        "ttft_ms.tail": tail(first_ms),
        "itl_ms.tail": tail(gap_ms),
        "unscaled": {"ttft_ms.p50": statistics.median(raw_first),
                     "itl_ms.p50": statistics.median(raw_gap),
                     "tokens_per_s": sum(run.samples.tokens) / sum(raw_busy)},
        "calibration_ms": {"median": statistics.median(run.calibration_s) * 1e3,
                           "min": min(run.calibration_s) * 1e3,
                           "max": max(run.calibration_s) * 1e3},
        "setup_s.samples": setup_s,
        "inputs": len(passes),
        "passes_min": min(passes),
        "passes_max": max(passes),
        "fail_rate": failed_ops(run) / run.attempted,
    }
    if any(kv_bytes):
        details["kv_bytes_per_request"] = statistics.mean(kv_bytes)
    return metrics, details


def per_layer(tracer, tally, traced_ops: int, drawn_ops: int,
              overhead_pct: float) -> dict:
    """Per-layer metrics, each a total over the traced operations divided
    by their number. Input draws happen once per input, so the task
    generator is divided by the inputs drawn. Layers a workload never calls
    read 0."""
    n = max(traced_ops, 1)
    stats, sums = tracer.stats, tally.sums

    def ms(name):
        return stats[name].total_s * 1e3 / n

    def self_ms(name):
        return stats[name].self_s * 1e3 / n

    def calls(name):
        return stats[name].calls / n

    def count(name, key):
        return stats[name].counts[key] / n

    def share(part, whole, counts=sums):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    ratios = tally.ledger.ratios()
    return {
        "model.layer.pre.ms": (ms("model.layer.pre"), "ms/op"),
        "model.layer.pre.rows": (count("model.layer.pre", "rows"), "rows/op"),
        "model.layer.post.ms": (ms("model.layer.post"), "ms/op"),
        "model.layer.post.rows": (count("model.layer.post", "rows"), "rows/op"),
        "kernels.masked_softmax.ms": (ms("kernels.masked_softmax"), "ms/op"),
        "kernels.masked_softmax.calls": (calls("kernels.masked_softmax"), "calls/op"),
        "kernels.masked_softmax.elements": (count("kernels.masked_softmax", "elements"),
                                            "elements/op"),
        "kernels.softmax_rows.ms": (ms("kernels.softmax_rows"), "ms/op"),
        "kernels.softmax_rows.calls": (calls("kernels.softmax_rows"), "calls/op"),
        "predictors.image_decisions.ms": (ms("predictors.image_decisions"), "ms/op"),
        "predictors.image_decisions.tokens": (count("predictors.image_decisions", "tokens"),
                                              "tokens/op"),
        "predictors.image_decisions_batched.ms": (ms("predictors.image_decisions_batched"),
                                                  "ms/op"),
        "predictors.output_decisions.ms": (ms("predictors.output_decisions"), "ms/op"),
        "predictors.output_decisions.calls": (calls("predictors.output_decisions"),
                                              "calls/op"),
        "model.attend_cached.ms": (ms("model.attend_cached"), "ms/op"),
        "model.attend_cached.calls": (calls("model.attend_cached"), "calls/op"),
        "model.attend_cached.keys": (count("model.attend_cached", "keys"), "keys/op"),
        "model.kv.append.ms": (ms("model.kv.append"), "ms/op"),
        "model.kv.append.calls": (calls("model.kv.append"), "calls/op"),
        "model.kv.retained_bytes": (sums["kv_retained_bytes"] / n, "bytes/op"),
        "sparsify.sparse_prefill.self_ms": (self_ms("sparsify.sparse_prefill"), "ms/op"),
        "sparsify.sparse_decode_with_cache.self_ms": (
            self_ms("sparsify.sparse_decode_with_cache"), "ms/op"),
        "sparsify.batch_sparse_prefill.self_ms": (
            self_ms("sparsify.batch_sparse_prefill"), "ms/op"),
        "sparsify.batch_sparse_decode.self_ms": (
            self_ms("sparsify.batch_sparse_decode"), "ms/op"),
        "sparsify.left_pad.ms": (ms("sparsify.left_pad"), "ms/op"),
        "sparsify.pad_fraction": (share("pad", "slots", stats["sparsify.left_pad"].counts),
                                  "ratio"),
        "sparsify.image_keep_ratio": (share("image_kept", "image_seen"), "ratio"),
        "sparsify.admit_ratio": (share("admitted", "decode_steps"), "ratio"),
        "sparsify.prefill_flops_ratio": (ratios["prefill_flops_ratio"], "ratio"),
        "sparsify.decode_flops_ratio": (ratios["decode_flops_ratio"], "ratio"),
        "sparsify.kv_bytes_ratio": (ratios["kv_bytes_ratio"], "ratio"),
        "training.training_step.self_ms": (self_ms("training.training_step"), "ms/op"),
        "training.training_forward.ms": (ms("training.training_forward"), "ms/op"),
        "autodiff.backward.ms": (ms("autodiff.backward"), "ms/op"),
        "training.optimizer_step.ms": (ms("training.optimizer_step"), "ms/op"),
        "tasks.training_batch.ms": (stats["tasks.training_batch"].total_s * 1e3
                                    / max(drawn_ops, 1), "ms/op"),
        "training.image_keep_fraction": (share("train_image_keep", "train_steps"), "ratio"),
        "training.output_keep_fraction": (share("train_output_keep", "train_steps"),
                                          "ratio"),
        "trace.ops": (float(traced_ops), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ctxsparse" / "__init__.py").is_file():
        print(f"run.py: no ctxsparse package under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_s = []
    before = calibrate()
    for _ in range(SETUPS):
        start = time.perf_counter()
        prog = workload.setup()
        elapsed = time.perf_counter() - start
        after = calibrate()
        setup_s.append(elapsed * 2 * CAL_REF_S / (before + after))
        before = after

    inputs_seq, checks_seq = np.random.SeedSequence(args.seed).spawn(2)
    tracer = Tracer() if args.trace else None
    run = measure(workload, prog, args.seconds, np.random.default_rng(inputs_seq),
                  np.random.default_rng(checks_seq), tracer)
    if not run.plain_busy_s or (tracer and not run.traced_busy_s):
        for op, reason in run.failures[:3]:
            print(f"op {op} failed: {reason}", file=sys.stderr)
        print("run.py: every operation raised", file=sys.stderr)
        return 1
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment()}
    if args.trace:
        overhead = 100.0 * (statistics.mean(run.traced_busy_s)
                            / statistics.mean(run.plain_busy_s) - 1.0)
        values = per_layer(tracer, run.tally, len(run.traced_busy_s), workload.ops,
                           overhead)
        info["paper_ratios"] = PAPER_RATIOS
    else:
        metrics, info["details"] = end_to_end(setup_s, run)
        values = {name: (metrics[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in values.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for op, reason in run.failures[:3]:
        print(f"op {op} failed: {reason}", file=sys.stderr)
    print(json.dumps(info))
    failed = failed_ops(run)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
