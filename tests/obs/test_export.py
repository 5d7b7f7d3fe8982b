"""Tests for :mod:`repro.obs.export` — Chrome trace output, loaders, self-time analysis."""

import json

import pytest

from repro.obs import (
    Span,
    chrome_trace,
    format_tree,
    load_trace_file,
    self_times,
    top_spans,
    write_chrome_trace,
    write_jsonl,
)


def make_spans():
    """A tiny two-level tree: root (100 ms) with children of 30 ms and 20 ms."""
    root = Span("root", trace_id="t", start=10.0, process="client")
    child_a = Span("child_a", trace_id="t", parent_id=root.span_id, start=10.01,
                   process="client", attrs={"cost": 1})
    child_b = Span("child_b", trace_id="t", parent_id=root.span_id, start=10.05,
                   process="client")
    child_a.finish(10.04)   # 30 ms
    child_b.finish(10.07)   # 20 ms
    root.finish(10.10)      # 100 ms total, 50 ms self
    return [span.to_dict() for span in (root, child_a, child_b)]


class TestChromeTrace:
    def test_structure(self):
        doc = chrome_trace(make_spans(), counters={"cache.demo.hits": 3})
        assert doc["displayTimeUnit"] == "ms"
        duration_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta_events = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(duration_events) == 3
        assert meta_events and meta_events[0]["name"] == "process_name"
        root = next(e for e in duration_events if e["name"] == "root")
        assert root["ts"] == pytest.approx(10.0 * 1e6)
        assert root["dur"] == pytest.approx(0.10 * 1e6)
        assert "span_id" in root["args"]
        assert doc["otherData"]["counters"] == {"cache.demo.hits": 3}
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_round_trip_preserves_tree(self, tmp_path):
        spans = make_spans()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, spans)
        loaded = load_trace_file(path)
        assert {s["name"] for s in loaded} == {"root", "child_a", "child_b"}
        by_name = {s["name"]: s for s in loaded}
        assert by_name["child_a"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["child_a"]["attrs"]["cost"] == 1
        assert abs(by_name["root"]["end"] - by_name["root"]["start"] - 0.10) < 1e-6


class TestOtherLoaders:
    def test_jsonl_round_trip(self, tmp_path):
        spans = make_spans()
        path = str(tmp_path / "spans.jsonl")
        write_jsonl(path, spans)
        assert load_trace_file(path) == spans

    def test_spans_document_and_bare_list(self, tmp_path):
        spans = make_spans()
        doc_path = str(tmp_path / "doc.json")
        with open(doc_path, "w") as handle:
            json.dump({"spans": spans}, handle)
        assert load_trace_file(doc_path) == spans
        list_path = str(tmp_path / "list.json")
        with open(list_path, "w") as handle:
            json.dump(spans, handle)
        assert load_trace_file(list_path) == spans


class TestAnalysis:
    def test_self_times_subtracts_children(self):
        by_name = {span["name"]: t for span, t in self_times(make_spans())}
        assert abs(by_name["root"] - 0.05) < 1e-6       # 100 - 30 - 20 ms
        assert abs(by_name["child_a"] - 0.03) < 1e-6    # leaf: self == duration
        assert abs(by_name["child_b"] - 0.02) < 1e-6

    def test_top_spans_orders_by_self_time(self):
        ranked = top_spans(make_spans(), n=2)
        assert [span["name"] for span, _ in ranked] == ["root", "child_a"]

    def test_format_tree_indents_children(self):
        text = format_tree(make_spans())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child_a")
        assert "[cost=1]" in lines[1]
        assert lines[2].startswith("  child_b")
