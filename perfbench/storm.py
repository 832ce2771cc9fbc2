"""``storm``: open-loop HTTP traffic against ``repro-bench serve --jobs 1``.

The server runs in its own process.  The generator is this process's
asyncio loop on one thread: request ``i`` of a phase is *due* at
``i / rate`` seconds; at its due time a task is started that waits for
one of at most ``CONNS`` (``min(2, nproc)``) connection slots, opens a
connection, sends the request and reads the answer until the server
closes the connection.  Latency is measured from the due time, so
waiting for a slot behind a slow answer counts; how late the loop
itself woke up against the due times is reported as
``storm.late_p99_ms``, and a run whose generator fell behind by more
than ``LATE_LIMIT_MS`` at p99 is marked failed.

Traffic: the default ``StormConfig``'s 8 templates, Zipf-skewed
(picks drawn from the run seed) and warmed during set-up, plus one
cold request in every ``COLD_EVERY`` (evenly spread, offset drawn from
the seed): a never-seen RGNOS graph from the same size/spec cycle,
taken in order from pool ``seed % VARIANTS``, whose lengths are in
``reference.json``.  The nominal phase runs ``seconds`` at 100 rps;
then a fixed rate ladder finds ``storm.max_rps``, the highest rate at
which p99 stays within 500 ms and the backlog does not grow.  Each
ladder step uses fresh cold graphs against the same warm cache.

The server runs on its own CPU, the last of ``common.CPUS``, and the
generator on the first.  During the nominal phase a ``HostSpeed``
sampler thread runs on the server's CPU, and the reported latencies
are rescaled to the reference speed over each request's window (see
``common.HostSpeed``); ``wall_s``, ``storm.late_p99_ms`` and the
rate ladder's pass/fail test use the clock as is.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (CPUS, HostSpeed, Log, Probe, geomean, percentile,
                    proc_peak_rss_mb)
from spec import STORM_SPECS

HOST = "127.0.0.1"
RATE = 100.0
COLD_EVERY = 50
LATENCY_LIMIT_MS = 500.0
LATE_LIMIT_MS = 50.0
RATE_STEPS = (150, 200, 300, 400, 600, 800)
STEP_SECONDS = 2.0
CONNS = max(1, min(2, os.cpu_count() or 1))
SERVER_CPU = CPUS[-1]
PROCS = 8
VARIANTS = 4
#: Cold graphs per variant in ``reference.json``: enough for a 16 s
#: nominal phase plus every ladder step (longer runs compute the rest).
COLD_POOL = 16 * int(RATE) // COLD_EVERY + sum(
    int(r * STEP_SECONDS) // COLD_EVERY for r in RATE_STEPS)

_LABEL = {spec: label for label, spec in STORM_SPECS.items()}


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return head.encode("latin-1") + body


def cold_body(templates: List[Dict], variant: int, j: int) -> Dict:
    """Cold graph ``j`` of ``variant``'s pool: template ``j % 8`` with
    the weight of task ``j // 8`` raised by ``1 + variant``.

    A graph no template or other pool entry shares, so the server's
    digest memo and cache miss and the whole cold path runs; its size,
    spec and shape are the template's, so every cold request of a
    given index costs the same work in every run.
    """
    template = templates[j % len(templates)]
    graph = dict(template["graph"], name=f"cold-{variant}-{j}")
    weights = list(graph["weights"])
    weights[(j // len(templates)) % len(weights)] += 1.0 + variant
    graph["weights"] = weights
    return dict(template, graph=graph)


class Server:
    """``repro-bench serve --jobs 1 --port 0`` in a child process."""

    def __init__(self, root: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONUNBUFFERED="1")
        env.pop("REPRO_TRACE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench", "serve", "--jobs", "1",
             "--port", "0", "--host", HOST],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        # Before the server starts its worker threads, which inherit it.
        os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def peak_rss_mb(self) -> Optional[float]:
        return proc_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


async def _call(port: int, payload: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def call(port: int, payload: bytes) -> Tuple[int, bytes]:
    return asyncio.run(_call(port, payload))


@dataclass
class Item:
    """One planned request: ``kind`` is a template index, or ``-1 - j``
    for cold graph ``j``."""

    offset: float
    kind: int
    payload: bytes


@dataclass
class Phase:
    """The measured outcome of one open-loop phase."""

    rate: float
    items: List[Item]
    due: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    bodies: List[bytes] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)

    def latency_ms(self, cold: Optional[bool] = None,
                   speed: Optional[HostSpeed] = None) -> List[float]:
        """Latencies from due time; with ``speed``, at the reference
        speed."""
        return [1000.0 * (speed.scale(d - s, s, d) if speed else d - s)
                for it, s, d in zip(self.items, self.due, self.done)
                if cold is None or (it.kind < 0) == cold]

    def backlog(self, t: float) -> int:
        return (sum(1 for d in self.due if d <= t)
                - sum(1 for d in self.done if d <= t))

    def keeps_up(self) -> bool:
        """p99 within the latency limit and no growing backlog."""
        lat = self.latency_ms()
        mid = self.due[0] + (self.due[-1] - self.due[0]) / 2
        return (all(s == 200 for s in self.status)
                and percentile(lat, 99) <= LATENCY_LIMIT_MS
                and self.backlog(self.due[-1])
                <= self.backlog(mid) + CONNS)


async def _open_loop(port: int, phase: Phase) -> None:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(CONNS)
    n = len(phase.items)
    phase.done = [0.0] * n
    phase.status = [0] * n
    phase.bodies = [b""] * n

    async def one(i: int, item: Item) -> None:
        async with slots:
            try:
                status, body = await _call(port, item.payload)
            except (OSError, ValueError, IndexError) as exc:
                status, body = -1, str(exc).encode()
            phase.done[i] = loop.time()
        phase.status[i] = status
        # Warm answers are compared by digest, cold ones parsed later.
        phase.bodies[i] = (body if item.kind < 0
                           else hashlib.sha256(body).digest())

    start = loop.time() + 0.05
    phase.due = [start + it.offset for it in phase.items]
    tasks = []
    for i, item in enumerate(phase.items):
        delay = phase.due[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_ms.append((loop.time() - phase.due[i]) * 1000.0)
        tasks.append(loop.create_task(one(i, item)))
    await asyncio.gather(*tasks)


@dataclass
class State:
    root: str
    variant: int
    seed: int
    bodies: List[Dict]
    payloads: List[bytes]
    server: Server
    first: List[bytes] = field(default_factory=list)
    warm: List[bytes] = field(default_factory=list)
    cold_used: int = 0
    nominal_cold: int = 0
    cold_bodies: Dict[int, Dict] = field(default_factory=dict)

    def close(self) -> None:
        self.server.close()


def setup(ctx) -> State:
    from repro.scenarios.storm import StormConfig, storm_bodies

    bodies = storm_bodies(StormConfig())
    payloads = [http_request("POST", "/schedule",
                             json.dumps(b).encode()) for b in bodies]
    state = State(root=ctx.root, variant=ctx.variant, seed=ctx.seed,
                  bodies=bodies, payloads=payloads, server=Server(ctx.root))
    try:
        for payload in payloads:  # cold: scheduled and cached
            state.first.append(call(state.server.port, payload)[1])
        for payload in payloads:  # warm: encoded once, then served as is
            state.warm.append(call(state.server.port, payload)[1])
    except BaseException:
        state.close()
        raise
    return state


def _plan(state: State, rate: float, seconds: float, tag: int) -> List[Item]:
    """``rate * seconds`` evenly spaced requests: Zipf-picked warm
    templates with every ``COLD_EVERY``-th request a fresh cold graph."""
    from repro.core.rng import derive_rng
    from repro.scenarios.storm import StormConfig

    n = int(round(rate * seconds))
    rng = derive_rng(state.seed, "perfbench-storm", tag)
    skew = StormConfig().skew
    weights = np.array([1.0 / (t + 1) ** skew
                        for t in range(len(state.payloads))])
    picks = rng.choice(len(state.payloads), size=n, p=weights / weights.sum())
    phase_offset = int(rng.integers(COLD_EVERY))
    items = []
    for i in range(n):
        if i % COLD_EVERY == phase_offset:
            j = state.cold_used
            state.cold_used += 1
            body = cold_body(state.bodies, state.variant, j)
            state.cold_bodies[j] = body
            payload = http_request("POST", "/schedule",
                                   json.dumps(body).encode())
            items.append(Item(i / rate, -1 - j, payload))
        else:
            t = int(picks[i])
            items.append(Item(i / rate, t, state.payloads[t]))
    return items


def run_phase(state: State, rate: float, seconds: float, tag: int) -> Phase:
    phase = Phase(rate=rate, items=_plan(state, rate, seconds, tag))
    asyncio.run(_open_loop(state.server.port, phase))
    return phase


def schedule_from_answer(body: Dict, answer: Dict):
    """Rebuild the answered schedule so ``validate()`` can judge it."""
    from repro import api
    from repro.core.schedule import Schedule

    graph = api.as_graph(body["graph"])
    sched = Schedule(graph, PROCS)
    rows = sorted((start, int(node), proc, end) for node, (proc, start, end)
                  in answer["schedule"].items())
    for start, node, proc, end in rows:
        sched.place(node, proc, start)
        if abs(sched.finish_of(node) - end) > 1e-9:
            raise ValueError(f"node {node} answered finish {end}, "
                             f"model finish {sched.finish_of(node)}")
    return sched


def check_answer(body: Dict, raw: bytes, length: float, log: Log,
                 what: str) -> None:
    """One answer: 200-payload JSON whose schedule is valid and as long
    as the reference says."""
    from repro.core.schedule import validate

    try:
        answer = json.loads(raw)
        sched = schedule_from_answer(body, answer)
        bad = validate(sched, collect=True)
    except Exception as exc:  # any unreadable answer is a failure
        log.fail(f"{what}: unreadable answer ({exc})")
        return
    if bad:
        log.fail(f"{what}: invalid schedule ({bad[0].message})")
    elif answer["length"] != length or sched.length != length:
        log.fail(f"{what}: length {answer['length']}, reference {length}")
    else:
        log.ok()


def cold_reference(body: Dict, j: int, reference: Dict) -> float:
    """Recorded length of cold graph ``j``; past the recorded pool (a
    run longer than the default ``run_seconds``) it is computed here."""
    if j < len(reference["cold"]):
        return reference["cold"][j]
    from repro.service.protocol import schedule_cell

    return schedule_cell((body["graph"], body["machine"], body["spec"])
                         )["length"]


def check_setup(state: State, reference: Dict, log: Log) -> List[bytes]:
    """Validate the warm-up answers; returns each template's warm digest."""
    for t, body in enumerate(state.bodies):
        want = reference["templates"][t]
        check_answer(body, state.first[t], want, log, f"template {t} cold")
        check_answer(body, state.warm[t], want, log, f"template {t} warm")
    return [hashlib.sha256(w).digest() for w in state.warm]


def check_phase(state: State, phase: Phase, reference: Dict,
                digests: List[bytes], log: Log) -> None:
    for item, status, body in zip(phase.items, phase.status, phase.bodies):
        if status != 200:
            log.fail(f"HTTP {status} at {phase.rate:g} rps")
        elif item.kind >= 0:
            log.check(body == digests[item.kind],
                      f"template {item.kind}: warm answer changed")
        else:
            j = -1 - item.kind
            cold = state.cold_bodies[j]
            check_answer(cold, body, cold_reference(cold, j, reference),
                         log, f"cold graph {j}")


def nominal_metrics(phase: Phase, speed: HostSpeed) -> Dict[str, Tuple]:
    lat = phase.latency_ms(speed=speed)
    cold = phase.latency_ms(cold=True, speed=speed)
    warm = phase.latency_ms(cold=False, speed=speed)
    return {
        "wall_s": (max(phase.done) - phase.due[0], "s", len(lat)),
        # Cold requests cycle evenly through the three specs, so this is
        # also the geometric mean over specs of each spec's cold cost.
        "sched_geomean_ms": (geomean(cold), "ms", len(cold)),
        "p50_ms": (percentile(lat, 50), "ms", len(lat)),
        "p99_ms": (percentile(lat, 99), "ms", len(lat)),
        "storm.cold_p50_ms": (percentile(cold, 50), "ms", len(cold)),
        "storm.cold_p75_ms": (percentile(cold, 75), "ms", len(cold)),
        "storm.warm_p50_ms": (percentile(warm, 50), "ms", len(warm)),
        "storm.warm_p99_ms": (percentile(warm, 99), "ms", len(warm)),
        "storm.late_p99_ms": (percentile(phase.late_ms, 99), "ms",
                              len(phase.late_ms)),
    }


def measure(state: State, seconds: float, reference: Dict, log: Log
            ) -> Dict[str, Tuple]:
    """Nominal phase, then the rate ladder; every answer checked after
    its phase."""
    digests = check_setup(state, reference, log)
    with HostSpeed(cpu=SERVER_CPU) as speed:
        nominal = run_phase(state, RATE, seconds, 0)
    state.nominal_cold = state.cold_used
    check_phase(state, nominal, reference, digests, log)
    out = nominal_metrics(nominal, speed)
    out["peak_rss_mb"] = (state.server.peak_rss_mb() or 0.0, "MB", 1)
    if out["storm.late_p99_ms"][0] > LATE_LIMIT_MS:
        log.fail(f"generator fell behind: late p99 "
                 f"{out['storm.late_p99_ms'][0]:.1f} ms")
    max_rps, steps = (RATE, 1) if nominal.keeps_up() else (0.0, 1)
    if max_rps:
        for k, rate in enumerate(RATE_STEPS, start=1):
            time.sleep(0.2)
            step = run_phase(state, rate, STEP_SECONDS, k)
            check_phase(state, step, reference, digests, log)
            steps += 1
            if not step.keeps_up():
                break
            max_rps = float(rate)
    out["storm.max_rps"] = (max_rps, "1/s", steps)
    stats = json.loads(call(state.server.port,
                            http_request("GET", "/stats"))[1])
    service, cache = stats["service"], stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    out.update({
        "service.cache_hit_ratio": (cache["hits"] / max(lookups, 1),
                                    "ratio", lookups),
        "service.coalesced": (service["coalesced"], "count", 1),
        "service.batch_mean": (service["scheduled"]
                               / max(service["batches"], 1), "count",
                               service["batches"]),
        "service.rejected": (service["rejected"], "count", 1),
        "service.timeouts": (service["timeouts"], "count", 1),
    })
    return out


def replay_bodies(state: State) -> List[bytes]:
    """Raw bodies of the templates and the nominal phase's cold graphs."""
    bodies = [json.dumps(b).encode() for b in state.bodies]
    bodies += [json.dumps(state.cold_bodies[j]).encode()
               for j in range(state.nominal_cold)]
    return bodies


def replay(bodies: List[bytes], probe: Probe) -> float:
    """The server's per-request work, in-process, on the storm's bodies:
    parse, request key, schedule, encode, cache put and lookup."""
    from repro import api
    from repro.service.cache import ScheduleCache
    from repro.service.protocol import (parse_schedule_request,
                                        response_bytes, schedule_cell)

    cache = ScheduleCache(len(bodies))
    t0 = time.perf_counter()
    for raw in bodies:
        with probe("service.protocol.parse"):
            graph_src, machine_src, spec = parse_schedule_request(
                raw, "application/json")
        with probe("api.request_key"):
            key = api.request_key(graph_src, machine_src, spec)
        with probe(f"service.protocol.schedule_cell.{_LABEL[spec]}"):
            result = schedule_cell((graph_src, machine_src, spec))
        with probe("service.cache.put"):
            cache.put(key, result)
        with probe("service.cache.lookup"):
            cached = cache.lookup(key)
        with probe("service.protocol.encode"):
            response_bytes(200, {"cached": True, **cached})
    return time.perf_counter() - t0


def overhead_units(state: State) -> List[Callable[[Probe], None]]:
    """The in-process replay of one storm body, per body."""
    return [functools.partial(replay, [raw]) for raw in replay_bodies(state)]


def replay_layers(probe: Probe) -> Dict[str, float]:
    def per_call(name: str, scale: float) -> float:
        return probe.ms(name) * scale / max(probe.count(name), 1)

    out = {
        "service.protocol.parse_us": per_call("service.protocol.parse", 1e3),
        "api.request_key_us": per_call("api.request_key", 1e3),
        "service.protocol.encode_us": per_call("service.protocol.encode",
                                               1e3),
        "service.cache.lookup_us": per_call("service.cache.lookup", 1e3),
        "service.cache.put_us": per_call("service.cache.put", 1e3),
    }
    for label in STORM_SPECS:
        out[f"service.protocol.schedule_cell_ms.{label}"] = per_call(
            f"service.protocol.schedule_cell.{label}", 1.0)
    return out


def replay_schedules(state: State) -> List:
    from repro import api

    return [api.schedule(b["graph"], b["machine"], b["spec"])
            for b in state.bodies]
