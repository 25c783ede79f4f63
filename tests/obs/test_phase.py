"""``obs.phase``: the one instrumentation primitive and its sink table."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import obs
from repro.obs import _NOOP_SPAN
from repro.obs.profile import PHASE_SINKS, PHASES

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Hand-rolled observer calls that must go through ``obs.phase`` instead.
#: Reading profiler data (``OBS.profiler.snapshot()``, ``merge``) is fine.
FORBIDDEN = re.compile(r"(?<!\bobs)\.phase\(|\.tracer\.span(_remote)?\(")


@pytest.fixture
def profiler():
    prof = obs.enable_profile(reset=True)
    yield prof
    obs.disable_profile()


def test_no_site_outside_obs_opens_observers_by_hand():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "obs") in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if FORBIDDEN.search(line):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)


def test_table_charges_only_taxonomy_phases():
    assert set(PHASES) <= set(PHASE_SINKS)
    for name, sinks in PHASE_SINKS.items():
        assert sinks.profile is None or sinks.profile in PHASES, name
        assert sinks.histogram is None or sinks.histogram.endswith(".seconds"), name
        assert sinks.labels == () or sinks.histogram is not None, name


def test_disabled_phase_is_the_shared_noop(obs_disabled):
    assert obs.OBS.profiler is None
    for name in PHASE_SINKS:
        site = obs.phase(name, object_id="x", records=1)
        assert site is _NOOP_SPAN
        with site as span:
            assert span is None


def test_live_switch_without_a_declared_sink_is_the_noop(obs_disabled, profiler):
    # Profiler on, but span-only sites charge no phase.
    assert obs.phase("client.request", method="GET", path="/") is _NOOP_SPAN
    obs.disable_profile()
    obs.enable(metrics=True, tracing=False, reset=True)
    assert obs.phase("hash") is _NOOP_SPAN


def test_histogram_labels_come_from_the_table(obs_disabled):
    obs.enable(metrics=True, tracing=False, reset=True)
    with obs.phase("rsa.sign") as span:
        assert span is None
    histogram = obs.OBS.registry.find_histogram(
        "crypto.sign.seconds", scheme="rsa-pkcs1v15"
    )
    assert histogram.count == 1
    assert histogram.exemplar is None
    assert obs.OBS.tracer.last_trace() is None


def test_span_and_histogram_share_one_scope(obs_enabled):
    with obs.phase("verify.chain", object_id="doc", records=3) as span:
        pass
    assert span.name == "verify.chain"
    assert span.attrs == {"object_id": "doc", "records": 3}
    histogram = obs.OBS.registry.find_histogram("verify.chain.seconds")
    assert histogram.count == 1
    assert histogram.exemplar[1] == span.trace_id


def test_store_sites_charge_the_store_phase(obs_disabled, profiler):
    for name in ("store.io", "store.batch", "store.txn", "store.txn.batch"):
        with obs.phase(name, store="memory", records=1):
            pass
    assert set(profiler.snapshot()) == {"store.io"}
    assert profiler.snapshot()["store.io"]["calls"] == 4


def test_failed_scope_marks_span_and_skips_histogram(obs_enabled, profiler):
    with pytest.raises(RuntimeError):
        with obs.phase("verify.chain", object_id="doc", records=1):
            raise RuntimeError("boom")
    root = obs.OBS.tracer.last_trace()
    assert root.name == "verify.chain"
    assert root.attrs["error"] == "RuntimeError"
    assert obs.OBS.registry.find_histogram("verify.chain.seconds") is None
    assert profiler.snapshot()["verify.chain"]["calls"] == 1
    # The profiler frame was popped: a new phase starts a fresh stack.
    with obs.phase("hash"):
        pass
    assert profiler.snapshot()["hash"]["calls"] == 1
