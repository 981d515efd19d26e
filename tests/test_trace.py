"""Trace recording and querying, and the ring oracle of the tests."""

from hypothesis import given, settings, strategies as st

from repro.sim.trace import Trace, TraceRecord

from tests.record_oracles import RingTrace


def populated():
    trace = Trace()
    trace.record(1.0, "mp.start", "smart")
    trace.record(2.0, "mp.end", "smart", duration=1.0)
    trace.record(3.0, "fire.start", "environment")
    trace.record(4.0, "mp.start", "smarm")
    return trace


class TestQueries:
    def test_len_and_iter(self):
        trace = populated()
        assert len(trace) == 4
        assert [r.kind for r in trace] == [
            "mp.start", "mp.end", "fire.start", "mp.start",
        ]

    def test_filter_by_kind(self):
        assert len(populated().filter(kind="mp.start")) == 2

    def test_filter_by_source(self):
        assert len(populated().filter(source="smart")) == 2

    def test_filter_by_predicate(self):
        hits = populated().filter(predicate=lambda r: r.time > 2.5)
        assert len(hits) == 2

    def test_first_and_last(self):
        trace = populated()
        assert trace.first("mp.start").source == "smart"
        assert trace.last("mp.start").source == "smarm"
        assert trace.first("nothing") is None

    def test_between(self):
        assert len(populated().between(1.5, 3.5)) == 2

    def test_kinds_in_first_appearance_order(self):
        assert populated().kinds() == ["mp.start", "mp.end", "fire.start"]


class TestRendering:
    def test_str_includes_data(self):
        record = TraceRecord(2.0, "mp.end", "smart", {"duration": 1.0})
        text = str(record)
        assert "mp.end" in text and "duration=1.0" in text

    def test_render_filters_kinds(self):
        text = populated().render(kinds={"fire.start"})
        assert "fire.start" in text
        assert "mp.end" not in text

    def test_render_limit(self):
        text = populated().render(limit=2)
        assert len(text.splitlines()) == 2

    def test_render_all(self):
        assert len(populated().render().splitlines()) == 4


class TestRingBuffer:
    """:class:`~tests.record_oracles.RingTrace`, the ring a fleet run's
    counts describe."""

    def test_unbounded_by_default(self):
        for trace in (Trace(), RingTrace()):
            for index in range(1000):
                trace.record(float(index), "tick", "src")
            assert len(trace) == 1000
        assert trace.dropped == 0

    def test_bounded_keeps_newest(self):
        trace = RingTrace(max_records=3)
        for index in range(10):
            trace.record(float(index), "tick", "src")
        assert len(trace) == 3
        assert trace.dropped == 7
        assert [r.time for r in trace] == [7.0, 8.0, 9.0]

    def test_bounded_queries_still_work(self):
        trace = RingTrace(max_records=2)
        trace.record(1.0, "a", "src")
        trace.record(2.0, "b", "src")
        trace.record(3.0, "a", "src")
        assert trace.first("a").time == 3.0
        assert trace.last("a").time == 3.0
        assert trace.kinds() == ["b", "a"]
        assert len(trace.between(0.0, 10.0)) == 2

    def test_invalid_bound_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            RingTrace(max_records=0)

    def test_accounting_across_the_wrap(self):
        for cap in (1, 3, 4096):
            trace = RingTrace(max_records=cap)
            for emitted in range(1, 2 * cap + 6):
                trace.record(float(emitted), "tick", "src", n=emitted)
                assert len(trace) + trace.dropped == emitted
                assert len(trace) == min(emitted, cap)
            assert [r.data["n"] for r in trace] == list(
                range(emitted - cap + 1, emitted + 1)
            )

    def test_max_records_is_read_only_truth(self):
        import pytest

        for cap in (None, 1, 3, 4096):
            trace = RingTrace(max_records=cap)
            assert trace.max_records == cap
            with pytest.raises(AttributeError):
                trace.max_records = 2
            assert trace.max_records == cap


class TestJsonlExport:
    def test_round_trips_through_json(self, tmp_path):
        import json

        trace = populated()
        trace.record(5.0, "net.tx", "nic", payload=b"\x01\x02", size=2)
        path = tmp_path / "trace.jsonl"
        assert trace.to_jsonl(path) == 5
        lines = path.read_text().splitlines()
        assert len(lines) == 5  # one line per record, nothing else
        rows = [json.loads(line) for line in lines]
        assert rows[0] == {
            "time": 1.0, "kind": "mp.start", "source": "smart", "data": {},
        }
        assert rows[-1]["data"]["payload"] == "0102"  # bytes -> hex
        assert rows[-1]["data"]["size"] == 2

    def test_empty_trace_writes_an_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert Trace().to_jsonl(path) == 0
        assert path.read_bytes() == b""

    def test_non_json_values_coerced(self, tmp_path):
        import json

        class Opaque:
            def __str__(self):
                return "<opaque>"

        trace = Trace()
        trace.record(1.0, "odd", "src", obj=Opaque(), tup=(1, b"\xFF"))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        row = json.loads(path.read_text().splitlines()[0])
        assert row["data"]["obj"] == "<opaque>"
        assert row["data"]["tup"] == [1, "ff"]


KINDS = ("mp.start", "mp.end", "cpu.run", "net.tx")
SOURCES = ("smart", "nic", "environment")

#: record payloads, one per coercion ``to_jsonl`` applies (bytes to hex,
#: tuples to lists, nested non-string keys to strings) plus plain values
PAYLOADS = (
    {},
    {"duration": 1e-3},
    {"n": 3, "ok": True, "none": None},
    {"payload": b"\x01\xff", "block": 7},
    {"tup": (1, b"\x02"), "neg": -0.5},
    {"text": "caf\u00e9", "nested": {"k": b"\x00", 2: "x"}},
)

records_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from(KINDS),
        st.sampled_from(SOURCES),
        st.sampled_from(PAYLOADS),
    ),
    max_size=80,
)


class TestColumnarDifferential:
    """The columnar ``Trace`` (a ``RingTrace`` when capped) against a
    plain list of ``TraceRecord``s: every count, query, rendering and
    exported byte must agree."""

    @staticmethod
    def model_jsonl(records) -> bytes:
        import json

        return "".join(
            json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
            for rec in records
        ).encode("utf-8")

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        cap=st.one_of(st.none(), st.integers(1, 50)),
        emitted=records_strategy,
        window=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
        kind=st.sampled_from(KINDS + ("absent",)),
        source=st.one_of(st.none(), st.sampled_from(SOURCES)),
    )
    def test_matches_list_model(self, tmp_path_factory, cap, emitted,
                                window, kind, source):
        trace = Trace() if cap is None else RingTrace(max_records=cap)
        model = []
        for time, kind_, source_, data in emitted:
            trace.record(time, kind_, source_, **data)
            model.append(TraceRecord(time, kind_, source_, dict(data)))
        dropped = 0 if cap is None else max(0, len(model) - cap)
        model = model[dropped:]

        assert len(trace) == len(model)
        assert getattr(trace, "dropped", 0) == dropped
        assert list(trace) == model
        assert trace.records == model
        assert trace.filter(kind=kind, source=source) == [
            r for r in model
            if r.kind == kind and (source is None or r.source == source)
        ]
        pivot = window[0]
        assert trace.filter(predicate=lambda r: r.time > pivot) == [
            r for r in model if r.time > pivot
        ]
        matches = [r for r in model if r.kind == kind]
        assert trace.first(kind) == (matches[0] if matches else None)
        assert trace.last(kind) == (matches[-1] if matches else None)
        lo, hi = sorted(window)
        assert trace.between(lo, hi) == [
            r for r in model if lo <= r.time <= hi
        ]
        assert trace.kinds() == list(dict.fromkeys(r.kind for r in model))
        assert trace.render() == "\n".join(str(r) for r in model)
        assert trace.render(kinds={kind}, limit=3) == "\n".join(
            [str(r) for r in model if r.kind == kind][:3]
        )
        path = tmp_path_factory.getbasetemp() / "differential.jsonl"
        assert trace.to_jsonl(path) == len(model)
        assert path.read_bytes() == self.model_jsonl(model)
