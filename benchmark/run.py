"""Seeded closed-loop benchmark of the riordan library and its command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
One client in one process and one thread sends each operation after the
previous one returned.  A workload's inputs are generated from the seed
alone, and every operation's output is checked by an oracle that does
not use the function under test (see oracles.py).

A run imports riordan and builds the workload's library objects several
times (setup_s is the median), then repeats the batch until --seconds
have passed.  There is no separate warm-up pass: the only caches are a
QuotientGroup's table of substitution powers and a Lucas-digit cache in
index_sets, both filled within the first milliseconds of the first batch,
and every metric is a median over batches or over operations.  --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced
batches and prints the per-layer metrics.  The last stdout line is the result
object; the line before it gives the seed's input digest, the sample
counts and every failed operation.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import index_spectrum
import quotient_lcs
import series_group
from ops import Tracer, direct

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

WORKLOADS = {
    "series_group": series_group,
    "quotient_lcs": quotient_lcs,
    "index_spectrum": index_spectrum,
}

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "error_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

SIZES = ("n12", "n48", "n96")
SPANS = (
    [f"series.{f}.{n}" for f in ("mul", "inv_unit", "compose", "comp_inverse", "twist") for n in SIZES]
    + [f"group.{f}.{n}" for f in ("rmul", "rinv", "to_matrix") for n in SIZES]
    + [f"quotients.{f}" for f in ("QuotientGroup", "verify_lcs_formula", "width_report",
                                  "generation_check", "hm_generation_check",
                                  "sigma_filtration_check", "tower_consistency")]
    + [f"index_sets.{f}" for f in ("parse_index_set", "density", "admissible_check", "Jxi",
                                   "hausdorff_dim", "spectrum_sample", "classify_pair",
                                   "density_convergence", "group_closure_crosscheck")]
    + [f"cli.main.{f}" for f in ("series", "riordan", "quotient", "index")]
)
COUNTS = {
    "quotients.elements_built": "count",
    "index_sets.period_total": "count",
    "cli.exit2": "count",
}
PER_LAYER = {
    **{f"{s}.{stat}": unit for s in SPANS for stat, unit in (("calls", "count"), ("busy_s", "s"))},
    **COUNTS,
    "quotients.elements_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def fresh_import():
    """Import riordan from ./src as if for the first time in this process."""
    for name in [m for m in sys.modules if m == "riordan" or m.startswith("riordan.")]:
        del sys.modules[name]
    package = importlib.import_module("riordan")
    importlib.import_module("riordan.cli")
    return package


def inputs_digest(inputs):
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Batch:
    """One pass over the operations: latencies, failures, counters, spans."""

    def __init__(self, ops, call, tracer=None):
        self.latencies = []
        self.failures = []  # (operation label, reason, known defect?)
        self.counts = Counter()
        first_span = len(tracer.spans) if tracer else 0
        for op_id, op in enumerate(ops):
            if tracer:
                tracer.op_id = op_id
            start = time.perf_counter()
            try:
                result = op.run(call)
            except Exception as exc:  # an escaping exception is a failed operation
                self.latencies.append(time.perf_counter() - start)
                self.failures.append((op.label, f"raised {type(exc).__name__}: {exc}", op.known))
                continue
            self.latencies.append(time.perf_counter() - start)
            try:
                ok = bool(op.check(result))
                reason = "wrong answer"
            except Exception as exc:  # a malformed output fails its check
                ok, reason = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                self.failures.append((op.label, reason, op.known))
            elif op.count:
                self.counts.update(op.count(result))
        self.spans = tracer.spans[first_span:] if tracer else []
        self.wall = sum(self.latencies)


def per_batch_layers(spans):
    calls, busy = Counter(), defaultdict(float)
    for name, start, end, _ in spans:
        if name not in SPANS:
            raise KeyError(f"span {name!r} is not in the per-layer catalogue")
        calls[name] += 1
        busy[name] += end - start
    return calls, busy


def layer_metrics(setup_spans, traced, untraced):
    s_calls, s_busy = per_batch_layers(setup_spans)
    layers = [per_batch_layers(b.spans) for b in traced]
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = s_calls[name] + layers[0][0][name]
        out[f"{name}.busy_s"] = s_busy[name] + statistics.median(busy[name] for _, busy in layers)
    for name in COUNTS:
        out[name] = traced[0].counts[name]
    rates = []
    for b, (_, busy) in zip(traced, layers):
        q_busy = sum(v for k, v in busy.items() if k.startswith("quotients."))
        rates.append(b.counts["quotients.elements_built"] / q_busy if q_busy else 0.0)
    out["quotients.elements_per_s"] = statistics.median(rates)
    out["trace.overhead_frac"] = (statistics.median(b.wall for b in traced)
                                  / statistics.median(b.wall for b in untraced) - 1)
    return out


def end_to_end(timed, setup_times):
    lat_ms = [x * 1e3 for b in timed for x in b.latencies]
    attempted = len(lat_ms)
    failed = sum(len(b.failures) for b in timed)
    values = {
        "wall_s": statistics.median(b.wall for b in timed),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "error_rate": failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"wall_s": len(timed), "op_p50_ms": attempted, "op_p90_ms": attempted,
               "error_rate": attempted, "setup_s": len(setup_times), "peak_rss_mib": 1}
    return values, samples


def run(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result object, detail object)."""
    module = WORKLOADS[workload]
    inputs = module.generate(random.Random(f"{workload}/{seed}"), tiny)
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        R = fresh_import()
        ops = module.build(R, tracer or direct, inputs)
        setup_times.append(time.perf_counter() - start)
    setup_spans = list(tracer.spans) if trace else []

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(Batch(ops, tracer, tracer))
        else:
            untraced.append(Batch(ops, direct))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    timed = untraced + traced

    failures = Counter(f for b in timed for f in b.failures)
    attempted = sum(len(b.latencies) for b in timed)
    if trace:
        values = layer_metrics(setup_spans, traced, untraced)
        units, samples = PER_LAYER, {"batches": len(traced)}
    else:
        values, samples = end_to_end(timed, setup_times)
        units = END_TO_END
    result = {
        "correct": all(known for _, _, known in failures),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_digest(inputs),
        "ops_per_batch": len(ops),
        "timed_batches": len(untraced),
        "traced_batches": len(traced),
        "samples": samples,
        "failures": [{"op": label, "reason": reason, "known_defect": known, "count": n}
                     for (label, reason, known), n in sorted(failures.items())],
    }
    if trace:
        detail["spans_file"] = str(write_spans(workload, seed, ops, tracer.spans))
    return result, detail


def write_spans(workload, seed, ops, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-spans.json"
    path.write_text(json.dumps({"ops": [op.label for op in ops], "spans": spans}))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "riordan" / "__init__.py").is_file():
        print(f"error: no riordan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
