"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock, keep_spans=True)
    rec.search = 0
    rec.enter("a/outer")           # t=0
    clock.now = 1.0
    rec.enter("b/child")           # t=1
    clock.now = 1.5
    rec.enter("c/grandchild")      # t=1.5
    clock.now = 2.0
    rec.exit()                     # grandchild 0.5
    clock.now = 3.0
    rec.exit()                     # child 2.0, self 1.5
    clock.now = 3.5
    rec.enter("b/child")           # a second child, 3.5..4.0
    clock.now = 4.0
    rec.exit()
    clock.now = 6.0
    rec.exit()                     # outer 6.0, self 6 - 2 - 0.5
    assert rec.self_s == {"a/outer": 3.5, "b/child": 2.0,
                          "c/grandchild": 0.5}
    assert rec.calls == {"a/outer": 1, "b/child": 2, "c/grandchild": 1}
    # Every span keeps (name, start, end, parent, search).
    assert rec.spans == [["a/outer", 0.0, 6.0, -1, 0],
                         ["b/child", 1.0, 3.0, 0, 0],
                         ["c/grandchild", 1.5, 2.0, 1, 0],
                         ["b/child", 3.5, 4.0, 0, 0]]
    # Self times add up to the root's wall time.
    assert sum(rec.self_s.values()) == 6.0


def test_self_time_survives_exceptions():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    wrapped = rec.wrapper("x/boom")(boom)
    with pytest.raises(KeyError):
        wrapped()
    assert rec.self_s == {"x/boom": 2.0}
    assert rec._stack == []


def test_layer_sums_fold_span_names():
    snapshot = {"self_s": {"crypto.aead/seal": 1.0, "crypto.aead/open": 0.5,
                           "net.tls/seal": 0.25, "net.tls/establish": 2.0},
                "calls": {"crypto.aead/seal": 3, "crypto.aead/open": 2,
                          "net.tls/seal": 4, "net.tls/establish": 1},
                "counts": {"net.tls.handshakes": 4,
                           "net.tls.handshake_failures": 1},
                "samples": {}}
    empty = {"self_s": {}, "calls": {}, "counts": {}, "samples": {}}
    values = layers.layer_metrics(snapshot, empty)
    assert values["crypto.aead.self_s"] == 1.5
    assert values["crypto.aead.calls"] == 5
    assert values["net.tls.records"] == 4
    assert values["net.tls.self_s"] == 2.25
    assert values["net.tls.handshake_fail_frac"] == 0.25


# -- percentiles and failures ----------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (5000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, None), (1, None)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count - stats.rank(expected, count) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.tail_label(99.0) == "p99"
    assert stats.tail_label(95.0) == "p95"


def test_timeouts_count_as_failures():
    assert stats.count_failed(["ok", "timeout", "ok", "captcha",
                               "relay-failure"]) == 3
    assert stats.count_failed(["ok", "ok"]) == 0


def _outcome(statuses):
    out = workloads.Outcome()
    out.ops = [workloads.Op(status, 2, 0.5 + i * 1e-3, 0.01,
                            stats.REFERENCE_S)
               for i, status in enumerate(statuses)]
    out.attempted = len(out.ops)
    out.failed = stats.count_failed(statuses)
    out.chunk_ok = [1] * 10
    out.chunk_events = [10] * 10
    out.chunk_host_s = [0.1] * 10
    out.chunk_reference_s = [stats.REFERENCE_S] * 10
    out.setup_s = [1.0, 2.0, 3.0]
    return out


def test_end_to_end_names_match_the_benchmark_file():
    metrics = run.end_to_end(_outcome(["ok"] * 1000))
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)
    assert metrics["setup_s"]["value"] == 2.0


def test_normalising_cancels_a_uniform_slowdown():
    nominal = run.end_to_end(_outcome(["ok"] * 1000))
    slow = _outcome(["ok"] * 1000)
    # The machine ran at half speed: the reference work and every timed
    # interval took twice as long.
    slow.chunk_reference_s = [2 * stats.REFERENCE_S] * 10
    slow.chunk_host_s = [0.2] * 10
    for op in slow.ops:
        op.host_s *= 2
        op.reference_s *= 2
    normalised = run.end_to_end(slow)
    raw = run.end_to_end(slow, normalise=False)
    for name in ("searches_per_s", "events_per_s", "search_host_p50_ms",
                 "search_host_p99_ms", "setup_s"):
        assert normalised[name]["value"] == pytest.approx(
            nominal[name]["value"])
    assert raw["searches_per_s"]["value"] == pytest.approx(
        nominal["searches_per_s"]["value"] / 2)


def test_bracket_and_probe_time_are_left_out_of_host_time():
    assert workloads.bracket([1.0, 3.0, 5.0]) == [2.0, 4.0]
    with workloads.HostClock() as clock:
        begin = clock.now()
        seconds = clock.probe()
        assert seconds > 0
        assert clock.now() - begin < seconds
        probe = clock._probe
    # The probe process is stopped and waited for.
    assert probe.returncode == 0


def test_small_runs_name_their_tail_percentile():
    metrics = run.end_to_end(_outcome(["ok"] * 200))
    assert "search_host_p95_ms" in metrics
    assert "search_host_p99_ms" not in metrics


def test_ok_frac_counts_timeouts_as_failed():
    out = _outcome(["ok"] * 996 + ["timeout"] * 3 + ["captcha"])
    assert run.end_to_end(out)["ok_frac"]["value"] == 0.996


# -- patching and restoring -------------------------------------------------


def _wrappers_left():
    left = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if getattr(value, layers.WRAPPED_MARK, False):
                left.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, layers.WRAPPED_MARK, False):
                        left.append(f"{name}.{key}.{attr}")
    return left


def test_restore_puts_back_every_patched_name():
    from repro.core.client import CyclosaNetwork
    from repro.core.enclave import CyclosaEnclave
    import repro.crypto.aead as aead
    import repro.net.tls as tls

    seal = aead.seal
    measurement = CyclosaEnclave.measurement()
    rec = layers.SpanRecorder()
    patch = layers.Patcher()
    try:
        layers.install(rec, patch)
        assert tls.aead_seal is not seal and aead.seal is tls.aead_seal
        # Wrapping keeps MRENCLAVE, so attestation still succeeds.
        assert CyclosaEnclave.measurement() == measurement
        deployment = CyclosaNetwork.create(num_nodes=4, seed=0)
        assert deployment.node(0).search("flu symptoms").ok
        assert rec.calls["crypto.keygen/identity"] > 0
        assert rec.calls["crypto.aead/seal"] > 0
        assert _wrappers_left()
    finally:
        patch.restore()
    assert _wrappers_left() == []
    assert aead.seal is seal and tls.aead_seal is seal


# -- whole runs (slow: a few seconds each) ----------------------------------


def _main(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(list(argv))
    lines = buffer.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["search-warm", "kernel-churn"])
def test_determinism_selfcheck(workload, capsys):
    assert run.selfcheck(workload, 5, 0.2) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    checks = report["checks"]
    deployment = checks.pop("deployment_independent_of_seed")
    assert all(checks.values())
    # shard_scale.run takes one seed for everything, so the kernel has
    # no fixed deployment to check.
    assert deployment is (None if workload == "kernel-churn" else True)


@pytest.mark.parametrize("workload", ["search-warm", "kernel-churn"])
def test_traced_run_reports_every_layer(workload):
    code, info, result = _main("--workload", workload, "--seed", "2",
                               "--seconds", "0.2", "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == set(units)
    assert all(entry["unit"] == units[name]
               for name, entry in result["metrics"].items())
    assert metrics["obs.spans"] == 0 and metrics["obs.self_s"] == 0
    assert info["nproc"] and info["python"] and info["seed"] == 2
    if workload == "kernel-churn":
        zero = [name for name in metrics if name.startswith(
            ("crypto.", "net.wire."))]
        assert zero and all(metrics[name] == 0 for name in zero)
        assert metrics["net.shards.windows"] > 0
    else:
        assert metrics["crypto.aead.calls"] > 0
        assert metrics["core.node.searches"] == 20
    assert _wrappers_left() == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
