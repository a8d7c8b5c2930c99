"""The four seeded workloads, driven through the public API only.

On the search workloads, the workload seed drives the query stream
(which queries of one fixed synthetic log, in what order) and the
arrival times, and nothing else; their deployments are built from
:data:`DEPLOY_SEED`. ``kernel-churn`` passes it to ``shard_scale.run``,
which has only one seed.
The amount of work is a fixed function of ``seconds`` (never of how
fast the host is), so one seed always yields the same operations and
the same simulated results.

Every timed chunk is bracketed by reference probes (:class:`HostClock`),
which record how fast the machine itself ran at that moment; a kernel
repetition, which lasts seconds, is probed all through instead. A probe
runs in a process of its own, so the program's memory state does not
reach it.

An *observer* (the traced run, see ``run.py``) is told when set-up
ends, when the measured phase starts and ends, and which closed-loop
search is in flight.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from stats import count_failed

#: Every search deployment is built from this seed, whatever the
#: workload seed.
DEPLOY_SEED = 0
#: Seed of the synthetic AOL log the queries are sampled from.
QUERY_LOG_SEED = 0
#: Protected searches per second of ``--seconds``: 1000 at 10 s, enough
#: for a p99 with ten samples beyond it.
SEARCHES_PER_SECOND = 100
#: Timed chunks per search run; rates are the median over chunks.
CHUNKS = 50

# search-warm / search-traced: a 16-node overlay, four users in turn.
CLOSED_NODES = 16
CLOSED_USERS = 4
POOL_SIZE = 300
ZIPF_EXPONENT = 0.8
HISTORY_SIZE = 40
WARMUP_ROUNDS = 40

# overlay-cold: Poisson arrivals over every node of a 200-node overlay.
OPEN_NODES = 200
OPEN_RATE = 10.0          # searches per simulated second
OPEN_MAX_DRAIN = 600.0    # simulated seconds to wait for stragglers

# kernel-churn: the sharded kernel's churn+chaos scenario.
KERNEL_NODES = 5000
KERNEL_SHARDS = 8
KERNEL_DURATION = 20.0
#: Sets how many kernel repetitions one ``--seconds`` asks for (each
#: takes 4-6 host seconds on a 2-core x86 VM): 4 at 10 s.
KERNEL_REP_SECONDS = 2.5


@dataclass
class Op:
    """One operation: a protected search, or a kernel query round."""

    status: str
    k: int
    sim_latency: float
    host_s: float
    #: Reference-work seconds measured around the operation (see
    #: :class:`HostClock`); its host time is normalised by it.
    reference_s: float = 0.0


@dataclass
class Outcome:
    #: Timed operations (on kernel-churn, the sampled query rounds).
    ops: List[Op] = field(default_factory=list)
    #: Operations attempted and failed; every operation counts, sampled
    #: or not.
    attempted: int = 0
    failed: int = 0
    #: Per timed chunk: ok operations, simulated events, host seconds.
    chunk_ok: List[int] = field(default_factory=list)
    chunk_events: List[int] = field(default_factory=list)
    chunk_host_s: List[float] = field(default_factory=list)
    #: Reference-work seconds around each chunk (see :class:`HostClock`).
    chunk_reference_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: Output-check failures; a non-empty list fails the run.
    errors: List[str] = field(default_factory=list)
    #: Deployment state right after set-up (must not depend on the
    #: workload seed); ``None`` where the API cannot keep it fixed.
    fingerprint: Optional[Tuple] = None
    #: Kernel report fields the traced run reports (kernel-churn).
    kernel: Dict[str, float] = field(default_factory=dict)


class HostClock:
    """Host time with the reference probes taken out.

    :meth:`probe` has a probe process time :func:`stats.reference_work`,
    fixed code whose speed follows the machine's, while the program
    waits. The probe process has its own heap, allocator and collector,
    so the program's memory state cannot slow the probe down. Both
    processes are pinned to one CPU, so the probe measures the core the
    program runs on. :meth:`now` leaves probe time out, so a search in
    flight across a probe is not charged for it. Use it as a context
    manager, which stops the probe process and unpins the program.
    """

    def __init__(self) -> None:
        self._paused = 0.0
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stats.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.probe()  # the first run is cold; drop it

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._probe.stdin.close()
        self._probe.wait()
        os.sched_setaffinity(0, self._cpus)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def probe(self) -> float:
        begin = time.perf_counter()
        self._probe.stdin.write("\n")
        self._probe.stdin.flush()
        seconds = float(self._probe.stdout.readline())
        self._paused += time.perf_counter() - begin
        return seconds


def bracket(probes: List[float]) -> List[float]:
    """Reference time around each interval: the mean of the probes
    just before and just after it."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


class Observer:
    """No-op phase hooks; the traced run overrides them."""

    def setup_done(self, deployment: Any) -> None:
        pass

    def measure_start(self, deployment: Any) -> None:
        pass

    def measure_end(self, deployment: Any) -> None:
        pass

    def search(self, index: int) -> None:
        pass


def searches_for(seconds: float) -> int:
    return max(1, round(SEARCHES_PER_SECOND * seconds))


def unique_queries(count: int, rng: random.Random) -> List[str]:
    """*count* distinct AOL-like queries sampled by *rng* from one fixed
    log of at least 100 synthetic users. The workload seed picks the
    sample and its order; the log itself does not vary, so one seed's
    topic mix stays close to another's."""
    from repro.perf import workload_queries

    drawn = max(3 * count, 6000)
    while True:
        log = workload_queries(drawn, seed=QUERY_LOG_SEED)
        unique = list(dict.fromkeys(log))
        if len(unique) >= count:
            return rng.sample(unique, count)
        drawn *= 2


def fingerprint(deployment) -> Tuple:
    stats = deployment.network.stats
    return (deployment.simulator.now, deployment.simulator.events_processed,
            stats.messages, stats.bytes, stats.dropped)


def _check_pages(deployment, pages: List[Tuple[str, List[Dict]]],
                 errors: List[str]) -> None:
    """Every ok search's page must equal the deployment's own engine's
    answer to the same query."""
    engine = deployment.engine_node.engine
    for query, hits in pages:
        expected = [(hit.doc_id, hit.url) for hit in engine.search(query)]
        got = [(hit["doc_id"], hit["url"]) for hit in hits]
        if got != expected:
            errors.append(f"hits differ from the engine for {query!r}")
            return


def _chunk_bounds(count: int) -> List[int]:
    chunks = min(CHUNKS, count)
    return [round(count * (i + 1) / chunks) for i in range(chunks)]


def _create(num_nodes: int, observe: bool):
    from repro.core.client import CyclosaNetwork

    return CyclosaNetwork.create(num_nodes=num_nodes, seed=DEPLOY_SEED,
                                 observe=observe)


def _release(observe: bool) -> None:
    if observe:
        import repro.obs as obs

        obs.disable(reset=True)


def _settle() -> None:
    """Collect set-up garbage and move the long-lived deployment out of
    the collector's view, so timed collections scan only new objects."""
    gc.collect()
    gc.freeze()


def _warm_up(deployment, users, pool: List[str]) -> None:
    """Search at full fan-out until every user holds an attested
    channel with every other node, so the timed pass handshakes rarely."""
    kmax = deployment.config.kmax
    addresses = [node.address for node in deployment.nodes]
    for round_index in range(WARMUP_ROUNDS):
        missing = False
        for index, user in enumerate(users):
            enclave = user.node.enclave
            if all(enclave.has_peer_channel(peer) for peer in addresses
                   if peer != user.node.address):
                continue
            missing = True
            user.search(pool[(round_index * len(users) + index) % len(pool)],
                        k_override=kmax)
        if not missing:
            return


def closed_loop(seed: int, seconds: float, observe: bool, repeats: int,
                observer: Observer, clock: HostClock) -> Outcome:
    """search-warm (``observe=False``) and search-traced (``True``)."""
    count = searches_for(seconds)
    rng = random.Random(seed)
    pool = unique_queries(POOL_SIZE, rng)
    cum_weights = []
    total = 0.0
    for rank_ in range(len(pool)):
        total += 1.0 / (rank_ + 1) ** ZIPF_EXPONENT
        cum_weights.append(total)
    stream = rng.choices(pool, cum_weights=cum_weights, k=count)
    histories = [rng.sample(pool, HISTORY_SIZE) for _ in range(CLOSED_USERS)]

    out = Outcome()
    deployment = None
    for attempt in range(repeats):
        if deployment is not None:
            # Free the previous set-up's overlay first.
            deployment = users = None
            _release(observe)
        begin = clock.now()
        deployment = _create(CLOSED_NODES, observe)
        mark = fingerprint(deployment)
        observer.setup_done(deployment)
        users = [deployment.node(i) for i in range(CLOSED_USERS)]
        for user, history in zip(users, histories):
            user.preload_history(history)
        _warm_up(deployment, users, pool)
        out.setup_s.append(clock.now() - begin)
        if attempt == 0:
            out.fingerprint = mark
        elif mark != out.fingerprint:
            out.errors.append("set-up is not deterministic")

    simulator = deployment.simulator
    pages = []
    timed: List[Tuple[str, int, float, float, int]] = []
    _settle()
    observer.measure_start(deployment)
    probes = [clock.probe()]
    start = 0
    for chunk, end in enumerate(_chunk_bounds(count)):
        events = simulator.events_processed
        host = 0.0
        ok = 0
        for index in range(start, end):
            query = stream[index]
            observer.search(index)
            begin = clock.now()
            result = users[index % CLOSED_USERS].search(query)
            elapsed = clock.now() - begin
            host += elapsed
            timed.append((result.status, result.k, result.latency, elapsed,
                          chunk))
            if result.ok:
                ok += 1
                pages.append((query, result.hits))
        out.chunk_ok.append(ok)
        out.chunk_events.append(simulator.events_processed - events)
        out.chunk_host_s.append(host)
        probes.append(clock.probe())
        start = end
    out.chunk_reference_s = bracket(probes)
    observer.measure_end(deployment)
    out.ops = [Op(status, k, latency, host, out.chunk_reference_s[chunk])
               for status, k, latency, host, chunk in timed]
    out.attempted = len(out.ops)
    out.failed = count_failed(op.status for op in out.ops)
    _check_pages(deployment, pages, out.errors)
    _release(observe)
    return out


def overlay_cold(seed: int, seconds: float, repeats: int,
                 observer: Observer, clock: HostClock) -> Outcome:
    """Open loop: Poisson arrivals over a 200-node overlay, every one
    scheduled with ``schedule_at`` before the run."""
    count = searches_for(seconds)
    rng = random.Random(seed)
    queries = unique_queries(count, rng)

    out = Outcome()
    for attempt in range(repeats):
        deployment = None  # free the previous set-up's overlay first
        begin = clock.now()
        deployment = _create(OPEN_NODES, observe=False)
        out.setup_s.append(clock.now() - begin)
        mark = fingerprint(deployment)
        observer.setup_done(deployment)
        if attempt == 0:
            out.fingerprint = mark
        elif mark != out.fingerprint:
            out.errors.append("set-up is not deterministic")

    simulator = deployment.simulator
    nodes = deployment.nodes
    results: List[Optional[Tuple[Dict, float, int]]] = [None] * count
    done = [0, 0]  # landed, landed ok
    current = [0]  # the chunk being run

    def fire(index: int, node, query: str) -> None:
        issued, chunk = clock.now(), current[0]

        def landed(result: Dict) -> None:
            results[index] = (result, clock.now() - issued, chunk)
            done[0] += 1
            done[1] += result["status"] == "ok"

        node.search(query, on_result=landed)

    first = simulator.now + 1.0
    when = first
    for index, query in enumerate(queries):
        when += rng.expovariate(OPEN_RATE)
        node = nodes[rng.randrange(len(nodes))]
        simulator.schedule_at(
            when, lambda i=index, n=node, q=query: fire(i, n, q))
    last = when

    _settle()
    observer.measure_start(deployment)
    probes = [clock.probe()]
    edges = [first + (last - first) * (i + 1) / CHUNKS for i in range(CHUNKS)]
    for chunk, edge in enumerate(edges):
        current[0] = chunk
        events = simulator.events_processed
        ok_before = done[1]
        begin = clock.now()
        simulator.run(until=edge)
        if chunk == CHUNKS - 1:
            while done[0] < count and simulator.now < last + OPEN_MAX_DRAIN:
                simulator.run(until=simulator.now + 1.0)
        out.chunk_host_s.append(clock.now() - begin)
        out.chunk_events.append(simulator.events_processed - events)
        out.chunk_ok.append(done[1] - ok_before)
        probes.append(clock.probe())
    out.chunk_reference_s = bracket(probes)
    observer.measure_end(deployment)

    pages = []
    for index, landed in enumerate(results):
        if landed is None:
            out.ops.append(Op("timeout", -1, OPEN_MAX_DRAIN,
                              sum(out.chunk_host_s),
                              out.chunk_reference_s[-1]))
            continue
        result, host, chunk = landed
        out.ops.append(Op(result["status"], result["k"], result["latency"],
                          host, out.chunk_reference_s[chunk]))
        if result["status"] == "ok":
            pages.append((queries[index], result["hits"]))
    out.attempted = len(out.ops)
    out.failed = count_failed(op.status for op in out.ops)
    _check_pages(deployment, pages, out.errors)
    return out


#: Query rounds are timed on one actor in this many (by address), so
#: the timing hooks cost the kernel little.
ROUND_SAMPLE_EVERY = 10


def _timed_rounds_actor(log: List[Tuple[str, int, float, float]],
                        clock: HostClock, probes: List[float]):
    """A :class:`ChurnChaosActor` that logs, on every
    :data:`ROUND_SAMPLE_EVERY`-th actor, each query round's outcome,
    simulated time to its first reply (or to its verdict when none
    came) and host time from round start to verdict. The first sampled
    round to start in each simulated second also takes a reference
    probe, so the machine's speed is sampled all through a repetition
    that lasts seconds; the probe runs in its own process, so the
    kernel's heap does not reach it. It only observes: the event stream
    and every counter stay the same."""
    from repro.experiments.shard_scale import ChurnChaosActor

    next_probe = [0.0]

    class TimedRounds(ChurnChaosActor):
        def on_start(self) -> None:
            if int(self.address[1:]) % ROUND_SAMPLE_EVERY == 0:
                self.open_rounds: Dict[int, list] = {}
                self.on_timer = self._timed_timer
                self.on_message = self._timed_message
            super().on_start()

        def _timed_timer(self, tag: str) -> None:
            now = self._runtime.now
            if tag == "query":
                if now >= next_probe[0]:
                    next_probe[0] = math.floor(now) + 1.0
                    probes.append(clock.probe())
                super().on_timer(tag)
                self.open_rounds[self.queries] = [now, None, clock.now()]
            elif tag.startswith("w:"):
                failed = self.failed
                super().on_timer(tag)
                entry = self.open_rounds.pop(int(tag[2:]), None)
                if entry is not None:
                    start, first_reply, host = entry
                    reply = first_reply if first_reply is not None else now
                    log.append(("failed" if self.failed > failed else "ok",
                                self.config["fanout"] - 1, reply - start,
                                clock.now() - host))
            else:
                super().on_timer(tag)

        def _timed_message(self, src: str, kind: str, payload: Any) -> None:
            super().on_message(src, kind, payload)
            if kind == "reply":
                entry = self.open_rounds.get(payload)
                if entry is not None and entry[1] is None:
                    entry[1] = self._runtime.now

    return TimedRounds


def _kernel_run(seed: int, duration: float, clock: HostClock, log: list,
                probes: List[float]) -> Dict[str, Any]:
    from repro.experiments import shard_scale

    original = shard_scale.ChurnChaosActor
    shard_scale.ChurnChaosActor = _timed_rounds_actor(log, clock, probes)
    try:
        return shard_scale.run(num_nodes=KERNEL_NODES, shards=KERNEL_SHARDS,
                               workers=1, duration=duration, seed=seed)
    finally:
        shard_scale.ChurnChaosActor = original


#: Report fields that must repeat exactly across same-seed repetitions.
KERNEL_COUNTS = ("windows", "events", "messages_sent", "cross_shard_messages",
                 "completed_rounds", "ok_rounds", "partial_rounds",
                 "failed_rounds", "chaos_dropped", "departed")


def kernel_churn(seed: int, seconds: float, repeats: int,
                 observer: Observer, clock: HostClock) -> Outcome:
    """``shard_scale.run`` at 5000 nodes and 8 shards, ``workers=1``,
    default churn and chaos drops; repeated to fill ``seconds``.

    ``shard_scale.run`` takes one seed for everything, the churn
    schedule and link delays included, so here the workload seed drives
    the deployment too and :attr:`Outcome.fingerprint` stays ``None``."""
    from repro.experiments.shard_scale import DEFAULT_SCENARIO

    out = Outcome()
    for _ in range(repeats):
        begin = clock.now()
        _kernel_run(seed, DEFAULT_SCENARIO["lookahead"], clock, [], [])
        out.setup_s.append(clock.now() - begin)
    observer.setup_done(None)

    reps = max(1, math.ceil(seconds / KERNEL_REP_SECONDS))
    hosts: List[List[float]] = []
    reference = None
    _settle()
    observer.measure_start(None)
    for _ in range(reps):
        log: List[Tuple[str, int, float, float]] = []
        probes: List[float] = []
        begin = clock.now()
        report = _kernel_run(seed, KERNEL_DURATION, clock, log, probes)
        elapsed = clock.now() - begin
        counts = tuple(report[key] for key in KERNEL_COUNTS)
        sequence = [entry[:3] for entry in log]
        if reference is None:
            reference = (counts, sequence)
            out.kernel = {"windows": report["windows"],
                          "cross_shard_frac": report["cross_shard_fraction"]}
        elif (counts, sequence) != reference:
            out.errors.append("same-seed kernel runs differ")
        out.attempted += report["completed_rounds"]
        out.failed += report["failed_rounds"]
        hosts.append([entry[3] for entry in log])
        out.chunk_ok.append(report["completed_rounds"]
                            - report["failed_rounds"])
        out.chunk_events.append(report["events"])
        out.chunk_host_s.append(elapsed)
        out.chunk_reference_s.append(statistics.median(probes))
    observer.measure_end(None)
    # Every repetition runs the same rounds, so each round's host time
    # is its median over repetitions: a burst of host noise in one
    # repetition does not reach the tail.
    rep_reference = statistics.median(out.chunk_reference_s)
    out.ops = [Op(status, k, sim_latency, statistics.median(times),
                  rep_reference)
               for (status, k, sim_latency), times
               in zip(reference[1], zip(*hosts))]
    return out


WORKLOADS = ("search-warm", "search-traced", "overlay-cold", "kernel-churn")


def run(name: str, seed: int, seconds: float, repeats: int,
        observer: Optional[Observer] = None) -> Outcome:
    observer = observer or Observer()
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    try:
        with HostClock() as clock:
            if name == "search-warm":
                return closed_loop(seed, seconds, False, repeats, observer,
                                   clock)
            if name == "search-traced":
                return closed_loop(seed, seconds, True, repeats, observer,
                                   clock)
            if name == "overlay-cold":
                return overlay_cold(seed, seconds, repeats, observer, clock)
            return kernel_churn(seed, seconds, repeats, observer, clock)
    finally:
        gc.unfreeze()
