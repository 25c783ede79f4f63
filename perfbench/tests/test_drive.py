"""The closed loop's clock-driven health probes and its fixed-count hook."""

from perfbench.harness import InProcessService, drive, set_up
from perfbench.spans import Recorder
from perfbench.workloads import CONNECTIONS, Ingest, Ledger


def _run(**kwargs):
    workload = Ingest("tiny", ("t0",), "rsa", durable=False, rss_after=1)
    config = dict(workload.service_config(None), key_bits=512)
    rec = Recorder()
    rec.active = False
    service = InProcessService(config, rec)
    try:
        tokens = set_up(workload, service)
        streams = [workload.ops(1, conn) for conn in range(CONNECTIONS)]
        return drive(service.url, streams, tokens, Ledger(), **kwargs)
    finally:
        service.stop()


def test_probes_go_out_on_a_clock():
    phase = _run(seconds=0.6, probe_every=0.2)
    assert all(s.error is None for s in phase.samples)
    probes = [s for s in phase.samples if s.kind == "probe"]
    # Due at 0.2 s and 0.4 s; one more if the deadline check comes late.
    assert 2 <= len(probes) <= 3
    assert len(phase.samples) > len(probes)


def test_count_hook_fires_once_and_holds_the_phase_open():
    calls = []
    phase = _run(seconds=0.01, at_count=(30, lambda: calls.append(1)))
    assert calls == [1]
    assert len(phase.samples) >= 30
    assert all(s.error is None for s in phase.samples)
