"""Attribution self-check: time added inside one layer shows up as that
layer's self time, and nowhere else."""

import time
from itertools import islice

from perfbench.harness import InProcessService, drive, set_up
from perfbench.proxies import LAYER_OF, instrument
from perfbench.spans import Recorder, attribute
from perfbench.workloads import Ingest, Ledger

SLEEP = 0.01
REQUESTS = 12


class _SlowSign:
    """Delegates to a signature scheme; every ``sign`` first sleeps."""

    def __init__(self, inner):
        self._inner = inner

    def sign(self, message: bytes) -> bytes:
        time.sleep(SLEEP)
        return self._inner.sign(message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _traced_run(slow: bool):
    workload = Ingest("tiny", ("t0",), "rsa", durable=False, rss_after=1)
    config = dict(workload.service_config(None), key_bits=512)
    rec = Recorder()
    rec.active = False
    service = InProcessService(config, rec)
    try:
        tokens = set_up(workload, service)
        if slow:
            world = service.service.world("t0")
            world.participant.scheme = _SlowSign(world.participant.scheme)
        instrument(service.service, rec)
        rec.active = True
        ops = list(islice(workload.ops(1, 0), REQUESTS))
        phase = drive(service.url, [ops], tokens, Ledger(), rec=rec)
    finally:
        rec.active = False
        service.stop()
    assert all(s.error is None for s in phase.samples)
    totals = {}
    for row in attribute(rec.spans, LAYER_OF):
        for layer, seconds in row.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    signs = sum(1 for s in rec.spans if s.name == "crypto.signatures.sign")
    return totals, signs


def test_injected_sign_time_lands_in_crypto_signatures():
    fast, signs = _traced_run(slow=False)
    slow, slow_signs = _traced_run(slow=True)
    assert signs == slow_signs >= REQUESTS
    injected = signs * SLEEP
    assert 0.9 * injected <= slow["crypto.signatures"] - fast["crypto.signatures"] <= 1.5 * injected
    for layer in set(fast) | set(slow):
        if layer not in ("crypto.signatures", "wall"):
            assert slow.get(layer, 0.0) - fast.get(layer, 0.0) < 0.25 * injected, layer
