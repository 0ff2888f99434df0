import json

from perfbench.trace import NullTracer, Span, Tracer, self_time_by_name, self_times


def _span(id, parent, name, start, end):
    span = Span(id, parent, name, start)
    span.end = end
    return span


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span(0, None, "burst", 0.0, 10.0),
        _span(1, 0, "client.write", 1.0, 3.0),
        _span(2, 0, "round.rumor", 4.0, 9.0),
        _span(3, 2, "node.rumor", 4.0, 6.0),
    ]
    own = self_times(spans)
    assert own[0] == 10.0 - 2.0 - 5.0
    assert own[1] == 2.0
    assert own[2] == 5.0 - 2.0
    assert own[3] == 2.0


def test_overlapping_children_are_covered_once():
    # Eight node calls gathered under one round overlap in time.
    spans = [
        _span(0, None, "round.rumor", 0.0, 10.0),
        _span(1, 0, "node.rumor", 1.0, 6.0),
        _span(2, 0, "node.rumor", 2.0, 7.0),
        _span(3, 0, "node.rumor", 3.0, 4.0),
        _span(4, 0, "node.rumor", 8.0, 12.0),   # clipped to the parent
    ]
    assert self_times(spans)[0] == 10.0 - (7.0 - 1.0) - (10.0 - 8.0)
    assert self_time_by_name(spans)["node.rumor"] == 5.0 + 5.0 + 1.0 + 4.0


def test_tracer_nests_and_keeps_concurrent_children_off_the_stack(tmp_path):
    tracer = Tracer("live-rumor")
    with tracer.span("burst") as burst:
        with tracer.span("round.rumor") as parent:
            with tracer.span("node.rumor", parent=parent):
                with tracer.span("converged.check"):
                    pass
        with tracer.span("client.write"):
            pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["burst"].parent is None
    assert by_name["round.rumor"].parent == burst
    assert by_name["node.rumor"].parent == parent
    # The explicitly parented span never became the nesting parent.
    assert by_name["converged.check"].parent == parent
    assert by_name["client.write"].parent == burst
    assert all(span.end >= span.start for span in tracer.spans)
    assert tracer.durations("burst")[0] >= tracer.durations("round.rumor")[0]

    path = tmp_path / "out" / "trace.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 5
    assert set(rows[0]) == {"id", "parent", "workload", "name", "start", "end"}
    assert rows[0]["workload"] == "live-rumor"


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("burst") as span_id:
        assert span_id is None
    assert not tracer.enabled and not tracer.spans
