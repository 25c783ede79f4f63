"""Served-path benchmark: one seeded closed-loop workload over HTTP.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each printing its own
lines, and exits with the worst exit code.

``--trace 0`` splits ``--seconds`` into repetitions of about
:data:`REP_SECONDS`.  Each starts the service in its own process with
empty stores, sets it up, drives it with two closed-loop clients and
checks it; the end-to-end metrics are medians over the repetitions.
``--trace 1`` runs one untraced repetition for reference, then hosts the
service in this process behind timing proxies, drives it for one more
repetition and reports the per-layer metrics.

Every answer is checked.  Human-readable lines come first; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding exactly the metrics ``BENCHMARK.json``
names for the mode.  The exit code is 0 only when every check passed,
and 2, with no JSON line, when the service's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.client import TransportError  # noqa: E402
from perfbench.harness import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    BenchError,
    InProcessService,
    Phase,
    Sample,
    ServiceProcess,
    crash_restart,
    drive,
    full_health,
    set_up,
    split,
)
from perfbench.proxies import instrument  # noqa: E402
from perfbench.report import Metric, end_to_end, per_layer, recovery_ticks, tail_ms  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CONNECTIONS,
    PROBE_INTERVAL_S,
    WORKLOADS,
    Ledger,
    Workload,
    verify_sample,
)

#: Seconds of load per repetition.  A run splits its ``--seconds`` into
#: repetitions of about this length, each on a freshly started service
#: with empty stores, and reports the median over them.
REP_SECONDS = 10.0
#: Verifies a traced durable-batch run sends after its load.  Each scans
#: the whole SQLite tenant store.
VERIFY_SAMPLE = 10


def host() -> Dict[str, object]:
    """What the numbers were measured on."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def _store_root(tag: str) -> Path:
    path = WORK / f"store-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def _streams(workload: Workload, seed: int):
    return [workload.ops(seed, conn) for conn in range(CONNECTIONS)]


def repetitions(seconds: float) -> List[float]:
    """Load seconds of each repetition of a ``seconds`` run."""
    count = max(1, round(seconds / REP_SECONDS))
    return [seconds / count] * count


def untraced(workload: Workload, seed: int, seconds: float):
    """Repetitions of set-up, load and checks, each on a fresh service."""
    setups: List[float] = []
    reps: List[Tuple[Phase, float]] = []
    checks: List[Sample] = []
    extra: Dict[str, Metric] = {}
    plan = repetitions(seconds)
    for index, each in enumerate(plan):
        store_root = _store_root(str(index))
        config = workload.service_config(str(store_root))
        ledger = Ledger()
        began = perf_counter()
        service = ServiceProcess(config)
        try:
            tokens = set_up(workload, service)
            setups.append(perf_counter() - began)
            rss: List[float] = []
            load = drive(
                service.url, _streams(workload, seed), tokens, ledger, seconds=each,
                probe_every=PROBE_INTERVAL_S,
                at_count=(workload.rss_after, lambda: rss.append(service.peak_rss_mb())),
            )
            if not rss:
                raise BenchError("the service's peak RSS could not be read")
            reps.append((load, rss[0]))
            probes = load.latencies("probe")
            print(f"repetition {index}: set-up {setups[-1]:.3f} s, "
                  f"{len(load.latencies()) / load.wall:.1f} req/s over {load.wall:.2f} s, "
                  f"p50 {tail_ms(load.latencies(), 0.5):.2f} ms, "
                  f"{len(probes)} probes taking {sum(probes):.2f} s", flush=True)
            if workload.durable and index == len(plan) - 1:
                running, service = service, None
                end = crash_restart(
                    workload, tokens, ledger, running,
                    reopen=lambda: ServiceProcess(config), store_root=store_root,
                )
                checks += end.checks + end.readback.samples
                extra["recovery_s"] = (end.recovery_s, "s", None)
                extra["disk_bytes_per_record"] = (
                    end.disk_bytes / max(1, ledger.records()), "B", ledger.records())
            else:
                checks.append(Sample("healthz", 0.0, full_health(service, ledger, workload.tenants)))
        finally:
            if service is not None:
                service.stop()
            shutil.rmtree(store_root, ignore_errors=True)
    metrics = end_to_end(setups, reps)
    samples = [s for load, _ in reps for s in load.samples]
    latencies = [x for load, _ in reps for x in load.latencies()]
    for q in (0.9, 0.99):
        extra[f"latency_p{round(q * 100)}_ms"] = (tail_ms(latencies, q), "ms", len(latencies))
    verifies = [x for load, _ in reps for x in load.latencies("verify")]
    for q in (0.5, 0.9, 0.99):
        extra[f"verify_p{round(q * 100)}_ms"] = (tail_ms(verifies, q), "ms", len(verifies))
    return metrics, extra, samples + checks, {}


def traced(workload: Workload, seed: int, seconds: float):
    """One untraced reference repetition, then one repetition of the
    same load against the service hosted here behind the timing proxies."""
    each = repetitions(seconds)[0]
    store_root = _store_root("ref")
    config = workload.service_config(str(store_root))
    service = ServiceProcess(config)
    try:
        tokens = set_up(workload, service)
        reference = drive(
            service.url, _streams(workload, seed), tokens, Ledger(), seconds=each,
            probe_every=PROBE_INTERVAL_S,
        )
    finally:
        service.stop()
        shutil.rmtree(store_root, ignore_errors=True)

    rec = Recorder()
    rec.active = False
    store_root = _store_root("traced")
    config = workload.service_config(str(store_root))
    ledger = Ledger()
    service = InProcessService(config, rec)
    checks: List[Sample] = []
    extra: Dict[str, Metric] = {}
    try:
        tokens = set_up(workload, service)
        instrument(service.service, rec)
        rec.active = True
        load = drive(
            service.url, _streams(workload, seed), tokens, ledger, seconds=each, rec=rec,
            probe_every=PROBE_INTERVAL_S,
        )
        if workload.durable:
            # Verify a sample after the load, so the verify path's layers
            # have figures on this workload too.
            verifies = drive(
                service.url, split(verify_sample(ledger, seed, VERIFY_SAMPLE)),
                tokens, Ledger(), rec=rec,
            )
            rec.active = False
            recovery = Recorder()
            running, service = service, None
            end = crash_restart(
                workload, tokens, ledger, running,
                reopen=lambda: InProcessService(config, recovery),
                store_root=store_root, rec=recovery,
            )
            checks += verifies.samples + end.checks + end.readback.samples
            extra.update(recovery_ticks(recovery.spans))
        else:
            rec.active = False
            checks.append(Sample("healthz", 0.0, full_health(service, ledger, workload.tenants)))
    finally:
        rec.active = False
        if service is not None:
            service.stop()
        shutil.rmtree(store_root, ignore_errors=True)
    rec.dump(str(WORK / f"spans-{workload.name}.jsonl"))
    metrics, reconciliation = per_layer(
        rec.spans,
        _throughput(load),
        _throughput(reference),
    )
    return metrics, extra, load.samples + reference.samples + checks, reconciliation


def _throughput(phase: Phase) -> float:
    return sum(1 for s in phase.samples if s.error is None) / phase.wall


def _declared(trace: bool) -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _line(name: str, metric: Metric) -> str:
    value, unit, samples = metric
    shown = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
    return f"{name:44s} {shown}" + ("" if samples is None else f"  (n={samples})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            main(["--workload", name, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for name in WORKLOADS
        ]
        return max(codes)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no service source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    info = host()
    info.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("host", json.dumps(info))
    run = traced if args.trace else untraced
    try:
        metrics, extra, samples, reconciliation = run(workload, args.seed, args.seconds)
    except (BenchError, TransportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = [s for s in samples if s.error is not None]
    for sample in failures[:20]:
        print(f"FAILED {sample.kind}: {sample.error}")
    for name, metric in sorted({**metrics, **extra}.items()):
        print(_line(name, metric))
    if reconciliation:
        wall = reconciliation.pop("wall")
        print(f"mean self time per request, of {wall:.4g} ms request wall:")
        for layer, ms in reconciliation.items():
            print(f"  {layer:28s} {ms:9.4f} ms  {ms / wall:6.1%}")
    print(f"requests {len(samples)}, failed {len(failures)} "
          f"({len(failures) / max(1, len(samples)):.4%} failed_ratio)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in _declared(bool(args.trace))
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
