"""Span tracker: nesting, ordering, retrospective spans, null object."""

from repro.obs.spans import NULL_TRACKER, NullSpanTracker, Span, SpanTracker

from tests.conftest import children_of


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def tracker():
    clock = FakeClock()
    return SpanTracker(clock=clock), clock


class TestNesting:
    def test_begin_nests_under_open_parent(self):
        spans, clock = tracker()
        outer = spans.begin_span("ra.round", category="ra")
        clock.now = 1.0
        inner = spans.begin_span("ra.measurement", category="ra")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert children_of(spans, outer) == [inner]

    def test_sibling_after_end_is_not_nested(self):
        spans, clock = tracker()
        first = spans.begin_span("a")
        clock.now = 1.0
        spans.end_span(first)
        second = spans.begin_span("b")
        assert second.parent_id is None

    def test_ids_are_sequential_in_recording_order(self):
        spans, _ = tracker()
        a = spans.begin_span("a")
        b = spans.begin_span("b")
        c = spans.add_span("c", 0.0, 1.0)
        assert [a.span_id, b.span_id, c.span_id] == [1, 2, 3]

    def test_three_deep_hierarchy(self):
        spans, _ = tracker()
        round_ = spans.begin_span("round")
        mp = spans.begin_span("measurement")
        block = spans.begin_span("block")
        assert block.parent_id == mp.span_id
        assert mp.parent_id == round_.span_id


class TestEndSemantics:
    def test_end_stamps_clock_and_merges_args(self):
        spans, clock = tracker()
        span = spans.begin_span("mp", blocks=64)
        clock.now = 2.5
        spans.end_span(span, digest="abcd")
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.args == {"blocks": 64, "digest": "abcd"}
        assert span.end is not None

    def test_end_is_idempotent(self):
        spans, clock = tracker()
        span = spans.begin_span("mp")
        clock.now = 1.0
        spans.end_span(span)
        clock.now = 9.0
        spans.end_span(span)
        assert span.end == 1.0

    def test_out_of_order_end_tolerated(self):
        # an extended lock-hold outlives the measurement that took it
        spans, clock = tracker()
        outer = spans.begin_span("lock")
        inner = spans.begin_span("mp")
        clock.now = 1.0
        spans.end_span(outer)
        clock.now = 2.0
        spans.end_span(inner)
        assert outer.end == 1.0 and inner.end == 2.0
        assert list(spans._stack) == []

    def test_open_spans_outermost_first(self):
        spans, _ = tracker()
        a = spans.begin_span("a")
        b = spans.begin_span("b")
        assert list(spans._stack) == [a, b]

    def test_duration_zero_while_open(self):
        spans, clock = tracker()
        span = spans.begin_span("open")
        clock.now = 5.0
        assert span.duration == 0.0 and not (span.end is not None)


class TestRetrospective:
    def test_add_span_does_not_touch_stack(self):
        spans, _ = tracker()
        open_one = spans.begin_span("outer")
        added = spans.add_span("net.delivery", 1.0, 2.0, category="net",
                               kind="ra.request")
        assert list(spans._stack) == [open_one]
        assert (added.end is not None) and added.duration == 1.0
        assert added.parent_id is None

    def test_add_span_explicit_parent(self):
        spans, _ = tracker()
        parent = spans.begin_span("round")
        child = spans.add_span("rtt", 0.0, 1.0, parent=parent)
        assert child.parent_id == parent.span_id


class TestQueries:
    def test_find_by_name_and_category(self):
        spans, _ = tracker()
        spans.begin_span("a", category="ra")
        spans.begin_span("a", category="net")
        spans.begin_span("b", category="ra")
        assert len(spans.find(name="a")) == 2
        assert len(spans.find(category="ra")) == 2
        assert len(spans.find(name="a", category="ra")) == 1

    def test_len_and_iter_in_recording_order(self):
        spans, _ = tracker()
        spans.begin_span("a")
        spans.add_span("b", 0.0, 1.0)
        assert len(spans) == 2
        assert [s.name for s in spans] == ["a", "b"]

    def test_to_dict_sorts_args(self):
        span = Span(7, 3, "mp", "ra", 1.0, 2.0, {"z": 1, "a": 2})
        data = span.to_dict()
        assert list(data["args"]) == ["a", "z"]
        assert data["span_id"] == 7 and data["parent_id"] == 3


class TestNullTracker:
    def test_shared_singleton_records_nothing(self):
        assert isinstance(NULL_TRACKER, NullSpanTracker)
        assert not NULL_TRACKER.enabled
        span = NULL_TRACKER.begin_span("anything", category="ra", k=1)
        NULL_TRACKER.end_span(span, extra=2)
        NULL_TRACKER.add_span("more", 0.0, 1.0)
        assert len(NULL_TRACKER) == 0
        assert list(NULL_TRACKER) == []
        assert NULL_TRACKER.find(name="anything") == []
        assert children_of(NULL_TRACKER, span) == []

    def test_null_span_is_shared_and_closed(self):
        a = NULL_TRACKER.begin_span("a")
        b = NULL_TRACKER.begin_span("b")
        assert a is b
        assert a.end is not None
