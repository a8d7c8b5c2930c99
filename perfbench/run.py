"""Run one CYCLOSA benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload overlay-cold --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 2 --selfcheck

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with every layer wrapped, and prints
the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's environment. See
``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median. The
#: kernel's set-up takes about 0.15 s, so it gets more samples.
SETUP_REPEATS = {"search-warm": 3, "search-traced": 3, "overlay-cold": 3,
                 "kernel-churn": 7}


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def end_to_end(out, normalise: bool = True) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced run. With *normalise*,
    every timed-phase host time is divided, and every host rate
    multiplied, by the slowdown the reference probes measured around
    it. ``setup_s`` is never normalised."""
    from stats import (REFERENCE_S, median_rate, percentile, slowdowns,
                       tail_label, tail_percentile)

    ops = out.ops
    chunk_slow = slowdowns(out.chunk_reference_s)
    if not normalise:
        chunk_slow = [1.0] * len(chunk_slow)
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("searches_per_s",
        median_rate(out.chunk_ok, out.chunk_host_s, chunk_slow), "1/s")
    put("events_per_s",
        median_rate(out.chunk_events, out.chunk_host_s, chunk_slow), "1/s")
    host_ms = [op.host_s * 1000.0 * (REFERENCE_S / op.reference_s
                                     if normalise else 1.0) for op in ops]
    sim_s = [op.sim_latency for op in ops]
    put("search_host_p50_ms", percentile(host_ms, 50), "ms")
    tail = tail_percentile(len(ops))
    if tail is not None:
        put(f"search_host_{tail_label(tail)}_ms", percentile(host_ms, tail),
            "ms")
    put("sim_latency_p50_s", percentile(sim_s, 50), "s")
    if tail is not None:
        put(f"sim_latency_{tail_label(tail)}_s", percentile(sim_s, tail), "s")
    sent = [op.k for op in ops if op.k >= 0]
    put("fakes_per_search", sum(sent) / len(sent) if sent else 0.0, "count")
    put("ok_frac", (out.attempted - out.failed) / out.attempted, "fraction")
    put("setup_s", statistics.median(out.setup_s), "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    put("peak_rss_mb", peak_kb / 1024.0, "MB")
    return metrics


class TraceObserver:
    """Phase hooks of the traced run: wraps every layer before set-up,
    keeps the set-up phase's aggregates (identity keygen), drops the
    warm-up's, measures the timed phase, and unwraps before the output
    checks run."""

    def __init__(self, keep_spans: bool) -> None:
        from layers import Patcher, SpanRecorder, install

        self.recorder = SpanRecorder(keep_spans=keep_spans)
        self.patcher = Patcher()
        install(self.recorder, self.patcher)
        self.keygen: Dict[str, Any] = {}
        self.measured: Dict[str, Any] = {}
        self.extra: Dict[str, float] = {}
        self._base: Dict[str, float] = {}

    @staticmethod
    def _gauges(deployment) -> Dict[str, float]:
        from repro.text.cache import cache_stats

        caches = cache_stats().values()
        gauges = {"cache_hits": sum(c["hits"] for c in caches),
                  "cache_misses": sum(c["misses"] for c in caches)}
        if deployment is not None:
            nodes = deployment.nodes
            gauges.update(
                events=deployment.simulator.events_processed,
                dropped=deployment.network.stats.dropped,
                meter=sum(node.host.meter.total for node in nodes),
                retries=sum(node.stats.retries for node in nodes),
                timeouts=sum(node.stats.blacklisted_peers for node in nodes))
        return gauges

    def setup_done(self, deployment) -> None:
        self.keygen = self.recorder.take()

    def measure_start(self, deployment) -> None:
        self.recorder.take()
        self._base = self._gauges(deployment)

    def measure_end(self, deployment) -> None:
        self.measured = self.recorder.take()
        self.patcher.restore()
        now = self._gauges(deployment)
        self.extra = {key: now[key] - self._base[key] for key in now}

    def search(self, index: int) -> None:
        self.recorder.search = index


def per_layer(name: str, untraced, traced, observer: TraceObserver
              ) -> Dict[str, Dict[str, Any]]:
    from layers import layer_metrics
    from stats import median_rate, slowdowns

    values = layer_metrics(observer.measured, observer.keygen)
    extra = observer.extra
    lookups = extra["cache_hits"] + extra["cache_misses"]
    values.update({
        "net.simulator.events": extra.get("events", 0),
        "net.transport.dropped": extra.get("dropped", 0),
        "net.shards.windows": traced.kernel.get("windows", 0),
        "net.shards.cross_shard_frac": traced.kernel.get(
            "cross_shard_frac", 0.0),
        "sgx.meter_sim_s": extra.get("meter", 0.0),
        "core.node.retries": extra.get("retries", 0),
        "core.node.relay_timeouts": extra.get("timeouts", 0),
        "text.cache.hit_ratio": (extra["cache_hits"] / lookups
                                 if lookups else 0.0),
    })
    # Tracing overhead: searches/s on search workloads, events/s on the
    # kernel, traced against untraced, in normalised host time.
    counts = "chunk_events" if name == "kernel-churn" else "chunk_ok"
    plain = median_rate(getattr(untraced, counts), untraced.chunk_host_s,
                        slowdowns(untraced.chunk_reference_s))
    timed = median_rate(getattr(traced, counts), traced.chunk_host_s,
                        slowdowns(traced.chunk_reference_s))
    values.update({
        "trace.untraced_ops_per_s": plain,
        "trace.traced_ops_per_s": timed,
        "trace.overhead_frac": 1.0 - timed / plain,
        "trace.traced_host_s": sum(traced.chunk_host_s),
    })
    units = {"self_s": "s", "sim_s": "s", "bytes": "B", "frac": "fraction",
             "ratio": "fraction", "ops_per_s": "1/s", "host_s": "s",
             "p50_s": "s"}

    def unit(metric: str) -> str:
        for suffix, value in units.items():
            if metric.endswith(suffix):
                return value
        return "count"

    return {metric: {"value": value, "unit": unit(metric)}
            for metric, value in sorted(values.items())}


def selfcheck(name: str, seed: int, seconds: float) -> int:
    """Two same-seed runs must give identical per-operation (status, k,
    simulated latency) sequences; another seed must change the
    operations but not the deployment. Where the workload has no
    seed-independent deployment (kernel-churn), the deployment check is
    reported as ``null``, not applicable."""
    import workloads

    def trace_of(run_seed: int):
        out = workloads.run(name, run_seed, seconds, repeats=1)
        return out, [(op.status, op.k, op.sim_latency) for op in out.ops]

    first, first_ops = trace_of(seed)
    again, again_ops = trace_of(seed)
    other, other_ops = trace_of(seed + 1)
    checks = {
        "same_seed_same_ops": first_ops == again_ops,
        "other_seed_other_ops": first_ops != other_ops,
        "deployment_independent_of_seed": (
            None if first.fingerprint is None else
            first.fingerprint == again.fingerprint == other.fingerprint),
        "outputs_correct": not (first.errors or again.errors or other.errors),
    }
    print(json.dumps({"selfcheck": name, "seed": seed, "checks": checks}))
    return 0 if False not in checks.values() else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the determinism self-check instead")
    args = parser.parse_args(argv)
    _bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if args.selfcheck:
        return selfcheck(args.workload, args.seed, args.seconds)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    if args.trace:
        from repro.text.cache import clear_caches

        # Both passes start with the cold text caches of a fresh process.
        clear_caches()
        untraced = workloads.run(args.workload, args.seed, args.seconds,
                                 repeats=1)
        observer = TraceObserver(
            keep_spans=args.workload in ("search-warm", "search-traced"))
        clear_caches()
        try:
            out = workloads.run(args.workload, args.seed, args.seconds,
                                repeats=1, observer=observer)
        finally:
            observer.patcher.restore()
        errors = untraced.errors + out.errors
        if observer.recorder.spans:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            observer.recorder.write_spans(str(path))
            info["spans_file"] = str(path.relative_to(ROOT))
            info["spans"] = len(observer.recorder.spans)
        metrics = {} if errors else per_layer(args.workload, untraced, out,
                                              observer)
    else:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            repeats=SETUP_REPEATS[args.workload])
        errors = out.errors
        metrics = {} if errors else end_to_end(out)
        if not errors:
            info["not_normalised"] = {
                name: entry["value"]
                for name, entry in end_to_end(out, normalise=False).items()}
    info.update(timed_operations=len(out.ops),
                setup_samples=[round(t, 4) for t in out.setup_s],
                chunk_host_s=[round(t, 4) for t in out.chunk_host_s],
                chunk_reference_s=[round(t, 5)
                                   for t in out.chunk_reference_s],
                errors=errors)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
