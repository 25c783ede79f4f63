"""Service lifetimes, setup, the closed load loop, and the epilogues.

An untraced run talks to a service in its own process
(:class:`ServiceProcess`), so the generator and the server do not share
one interpreter lock.  A traced run hosts the service in this process
(:class:`InProcessService`) so the proxies of :mod:`perfbench.proxies`
can time its layers.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from perfbench.client import Client, TransportError
from perfbench.proxies import instrument
from perfbench.spans import HEADER, Recorder
from perfbench.workloads import (
    CONNECTIONS,
    PROBE,
    Ledger,
    Op,
    Workload,
    check,
    readback,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for store roots and span dumps, inside the checkout.
WORK = ROOT / ".perfbench"
BOOT_TIMEOUT = 60.0


class BenchError(Exception):
    """The run cannot continue (setup or restart failed)."""


# ----------------------------------------------------------------------
# services
# ----------------------------------------------------------------------


class ServiceProcess:
    """``perfbench.server`` in a child process."""

    def __init__(self, config: dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(SRC)])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server", json.dumps(config)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        try:
            boot = json.loads(line)
            self.url: str = boot["url"]
            self.admin_token: str = boot["admin_token"]
        except (ValueError, KeyError, TypeError) as exc:
            self.kill()
            raise BenchError(f"service process gave no boot line: {line[:200]!r}") from exc

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.kill()

    def kill(self) -> None:
        """SIGKILL (a process crash; the OS page cache survives)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class InProcessService:
    """The service on a background thread of this process; each request
    adopts the generator's ``request`` span as its parent."""

    def __init__(self, config: dict, rec: Recorder):
        from repro.service.core import ServiceConfig
        from repro.service.http import ProvenanceHTTPServer

        self.server = ProvenanceHTTPServer(config=ServiceConfig(**config))
        base = self.server.RequestHandlerClass

        class Handler(base):
            def do_GET(self):
                with rec.adopt(self.headers.get(HEADER)):
                    super().do_GET()

            def do_POST(self):
                with rec.adopt(self.headers.get(HEADER)):
                    super().do_POST()

        self.server.RequestHandlerClass = Handler
        self.server.start_background()
        self.service = self.server.service
        self.url = self.server.base_url
        self.admin_token = self.service.admin_token

    def stop(self) -> None:
        self.server.stop()

    #: A process cannot SIGKILL a thread of itself: an in-process
    #: "crash" is a clean stop.
    kill = stop


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    latency: float
    error: Optional[str]
    records: int = 0


@dataclass
class Phase:
    """The outcome of sending a set of requests."""

    samples: List[Sample] = field(default_factory=list)
    wall: float = 0.0

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [
            s.latency for s in self.samples
            if s.error is None and (kind is None or s.kind == kind)
        ]


def send(
    client: Client,
    op: Op,
    tokens: Dict[str, str],
    ledger: Ledger,
    rec: Optional[Recorder] = None,
) -> Sample:
    """One checked exchange; acknowledged records go into ``ledger``."""
    span = rec.open("request", kind=op.kind) if rec is not None else None
    began = perf_counter()
    try:
        status, payload = client.request(
            op.method, op.path, op.body,
            token=tokens.get(op.tenant) if op.tenant else None,
            headers=Recorder.header(span) if span is not None else None,
        )
    except TransportError as exc:
        return Sample(op.kind, perf_counter() - began, str(exc))
    finally:
        if rec is not None:
            rec.close(span)
    latency = perf_counter() - began
    error = check(op, status, payload)
    records = ledger.acknowledge(op, payload) if error is None else 0
    return Sample(op.kind, latency, error, records)


def drive(
    url: str,
    streams: Sequence[Iterable[Op]],
    tokens: Dict[str, str],
    ledger: Ledger,
    seconds: Optional[float] = None,
    rec: Optional[Recorder] = None,
    probe_every: Optional[float] = None,
    at_count: Optional[Tuple[int, Callable[[], None]]] = None,
) -> Phase:
    """One closed loop per stream, each with its own client: a stream's
    next request goes out when its previous answer is in.  Runs until the
    streams end or, with ``seconds``, until that much time has passed.

    With ``probe_every``, the first stream sends :data:`PROBE` before its
    next request each time another ``probe_every`` seconds of the phase
    have passed.  ``at_count=(n, fn)`` calls ``fn()`` once, when the
    phase's ``n``-th answer is in; a timed phase runs past ``seconds``
    until it has."""
    results: List[List[Sample]] = [[] for _ in streams]
    ledgers = [Ledger() for _ in streams]
    crashes: List[BaseException] = []
    start = threading.Barrier(len(streams) + 1)
    began = [0.0]
    answers = [0]
    counted = threading.Lock()
    reached = threading.Event()
    if at_count is None:
        reached.set()

    def answered() -> None:
        with counted:
            answers[0] += 1
            if at_count is not None and answers[0] == at_count[0]:
                try:
                    at_count[1]()
                finally:
                    reached.set()

    def loop(index: int, stream: Iterator[Op]) -> None:
        client = Client(url)
        try:
            start.wait()
            deadline = None if seconds is None else began[0] + seconds
            next_probe = began[0] + probe_every if probe_every and index == 0 else None
            for op in stream:
                now = perf_counter()
                if deadline is not None and now >= deadline and reached.is_set():
                    break
                if next_probe is not None and now >= next_probe:
                    next_probe += probe_every
                    results[index].append(send(client, PROBE, tokens, ledgers[index], rec))
                    answered()
                results[index].append(send(client, op, tokens, ledgers[index], rec))
                answered()
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            crashes.append(exc)

    threads = [
        threading.Thread(target=loop, args=(i, iter(s)), daemon=True)
        for i, s in enumerate(streams)
    ]
    for t in threads:
        t.start()
    began[0] = perf_counter()
    start.wait()
    for t in threads:
        t.join()
    phase = Phase(wall=perf_counter() - began[0])
    for samples, own in zip(results, ledgers):
        phase.samples.extend(samples)
        ledger.merge(own)
    phase.samples.extend(Sample("crash", 0.0, repr(exc)) for exc in crashes)
    return phase


def split(ops: List[Op]) -> List[List[Op]]:
    """Deal ``ops`` round-robin over the connections."""
    return [ops[i::CONNECTIONS] for i in range(CONNECTIONS)]


# ----------------------------------------------------------------------
# setup and epilogues
# ----------------------------------------------------------------------


def set_up(workload: Workload, service) -> Dict[str, str]:
    """Issue one API key per tenant, open every tenant world (its keys
    are generated on first use), and probe health once so each monitor's
    cold first pass is done.  Returns the keys."""
    client = Client(service.url)
    tokens: Dict[str, str] = {}
    for tenant in workload.tenants:
        status, payload = client.request(
            "POST", "/v1/admin/keys", {"tenant": tenant}, token=service.admin_token,
        )
        if status != 200:
            raise BenchError(f"issuing a key for {tenant}: HTTP {status}")
        tokens[tenant] = payload["token"]
    for tenant in workload.tenants:
        status, payload = client.request("GET", "/v1/objects", token=tokens[tenant])
        if status != 200 or payload.get("objects") != []:
            raise BenchError(f"opening tenant {tenant}: HTTP {status} {payload}")
    sample = send(client, PROBE, tokens, Ledger())
    if sample.error is not None:
        raise BenchError(f"first health probe: {sample.error}")
    return tokens


def full_health(service, ledger: Ledger, tenants: Sequence[str]) -> Optional[str]:
    """Full ``/healthz`` as admin: 200, every tenant ok, and every stored
    record verified.  Returns why not, or None."""
    try:
        status, payload = Client(service.url).request(
            "GET", "/healthz", token=service.admin_token
        )
    except TransportError as exc:
        return f"full healthz: {exc}"
    if status != 200 or payload.get("health") != "ok":
        return f"full healthz: HTTP {status} health={payload.get('health')}"
    per_tenant = payload.get("tenants", {})
    for tenant in tenants:
        report = per_tenant.get(tenant, {})
        acked = sum(len(c) for (t, _), c in ledger.acked.items() if t == tenant)
        if report.get("verified") != report.get("records") or report.get("records", 0) < acked:
            return f"full healthz: tenant {tenant} verified {report.get('verified')} of {report.get('records')} records, {acked} acknowledged"
    return None


def store_bytes(store_root: Path) -> int:
    """Shard files plus their WAL, over every tenant."""
    return sum(
        p.stat().st_size
        for p in store_root.rglob("*")
        if p.name.endswith((".sqlite", ".sqlite-wal"))
    )


@dataclass
class Durability:
    """What the durable-batch epilogue measured."""

    recovery_s: float
    disk_bytes: int
    checks: List[Sample]
    readback: Phase


def crash_restart(
    workload: Workload,
    tokens: Dict[str, str],
    ledger: Ledger,
    service,
    reopen,
    store_root: Path,
    rec: Optional[Recorder] = None,
) -> Durability:
    """Crash the service, restart it on the same store root, and prove
    every acknowledged record survived.

    ``service.kill()`` is a SIGKILL for a service process (the OS page
    cache survives it, so this checks process crashes, not power loss)
    and a clean stop for an in-process one.  ``reopen()`` starts a new
    service on the same store root.  Recovery time runs from the kill to
    the first full ``/healthz`` 200, which has verified every stored
    record: restart, reopening every tenant world, crash recovery and a
    full monitor pass.  Then every acknowledged record must read back
    with its acknowledged checksum.  (``/v1/verify`` cannot serve here:
    the data objects live in the service's in-memory engine store, so
    after a restart it answers 404 for every pre-crash object.)

    With ``rec`` (a recorder of its own, not the load's), the reopened
    service's layers are timed during crash recovery and the full
    ``/healthz``, so those figures stay apart from the load's.
    """
    if rec is not None:
        rec.active = False
    began = perf_counter()
    service.kill()
    disk = store_bytes(store_root)
    service = reopen()
    checks: List[Sample] = []
    try:
        client = Client(service.url)
        for tenant in workload.tenants:
            status, payload = client.request("GET", "/v1/objects", token=tokens[tenant])
            checks.append(Sample(
                "reopen", 0.0, None if status == 200 else f"reopen {tenant}: HTTP {status}"))
        if rec is not None:
            instrument(service.service, rec)
            rec.active = True
        status, payload = client.request("POST", "/v1/admin/recover", token=service.admin_token)
        dirty = [t for t, r in payload.get("tenants", {}).items() if not r.get("clean")]
        checks.append(Sample(
            "recover", 0.0,
            None if status == 200 and not dirty else f"recover: HTTP {status} unclean {dirty}"))
        error = full_health(service, ledger, workload.tenants)
        recovery = perf_counter() - began
        checks.append(Sample("healthz", recovery, error))
        if rec is not None:
            rec.active = False
        back = drive(service.url, split(readback(ledger)), tokens, Ledger())
    finally:
        service.stop()
    return Durability(recovery, disk, checks, back)
