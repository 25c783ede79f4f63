import pytest

from perfbench.spans import Recorder, Span, attribute, self_times


def span(id, name, start, end, parent=None, request=1):
    return Span(id=id, name=name, parent=parent, request=request, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(1, "request", 0.0, 10.0),
        span(2, "auth", 1.0, 2.0, parent=1),
        span(3, "call", 3.0, 9.0, parent=1),
        span(4, "sign", 4.0, 6.0, parent=3),
        span(5, "store", 5.0, 7.0, parent=3),  # overlaps sign: covered once
    ]
    own = self_times(tree)
    assert own[1] == pytest.approx(10.0 - 1.0 - 6.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(6.0 - 3.0)
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(2.0)


def test_children_outside_the_parent_are_clipped():
    own = self_times([span(1, "a", 0.0, 4.0), span(2, "b", 3.0, 6.0, parent=1)])
    assert own[1] == pytest.approx(3.0)


def test_attribution_reports_unclaimed_self_time():
    tree = [
        span(1, "request", 0.0, 10.0),
        span(2, "call", 1.0, 9.0, parent=1),
        span(3, "hold", 2.0, 8.0, parent=2),
        span(4, "sign", 3.0, 5.0, parent=3),
        span(10, "request", 20.0, 21.0, request=10),
    ]
    layers = {"request": "http", "call": "core", "hold": None, "sign": "crypto"}
    rows = sorted(attribute(tree, layers), key=lambda r: r["wall"])
    assert rows[0] == pytest.approx({"wall": 1.0, "http": 1.0, "unattributed": 0.0})
    assert rows[1] == pytest.approx(
        {"wall": 10.0, "http": 2.0, "core": 2.0, "crypto": 2.0, "unattributed": 4.0}
    )


def test_recorder_parents_through_threads_by_header():
    import threading

    rec = Recorder()
    with rec.span("request") as root:
        (header,) = Recorder.header(root).values()

        def server():
            with rec.adopt(header):
                with rec.span("call"):
                    pass

        t = threading.Thread(target=server)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
    call = next(s for s in rec.spans if s.name == "call")
    assert call.parent == root.id and call.request == root.id


def test_inactive_recorder_records_nothing():
    rec = Recorder()
    rec.active = False
    with rec.span("request") as s:
        assert s is None
    assert rec.spans == []
