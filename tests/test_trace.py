"""One way to trace a query: a `Tracer` root around `match()`, rendered."""

import json
import re
from pathlib import Path

import pytest

from repro.core.matcher import FuzzyMatcher
from repro.obs.tracing import Tracer, render_span, trace_span

from tests.conftest import ZeroWeights

I1 = ("Beoing Company", "Seattle", "WA", "98004")
STAGES = ("matcher.signature_build", "matcher.eti_lookups", "matcher.verify")


@pytest.fixture()
def matcher(org_reference, org_weights, paper_config, org_eti):
    return FuzzyMatcher(org_reference, org_weights, paper_config, org_eti)


def traced(matcher, values, **kwargs):
    """``(result, root span)`` of one ordinary ``match()`` under a tracer."""
    with Tracer().trace("explain") as root:
        result = matcher.match(values, **kwargs)
    return result, root


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def shape(span):
    """The tree as nested ``(name, [children])`` tuples."""
    return (span.name, [shape(child) for child in span.children])


def stage(root, name):
    (span,) = [s for s in walk(root) if s.name == name]
    return span


class TestRenderedTrace:
    def test_stage_lines_with_times(self, matcher):
        _, root = traced(matcher, I1, strategy="basic")
        lines = render_span(root)
        assert lines[0].startswith("explain  ")
        assert lines[1].startswith("  matcher  ")
        for name in STAGES + ("db",):
            (line,) = [x for x in lines if x.startswith(f"    {name}  ")]
            assert re.search(r"  \d+\.\d{3} ms", line)
        assert len(lines) == sum(1 for _ in walk(root))

    def test_signature_annotations(self, matcher):
        _, root = traced(matcher, I1, min_similarity=0.5)
        notes = stage(root, "matcher.signature_build").annotations
        assert notes["tokens"] == 5
        assert notes["threshold"] == pytest.approx(0.5 * notes["input_weight"])
        assert notes["entries"] > 0
        text = "\n".join(render_span(root))
        assert f"input_weight={notes['input_weight']:.4g}" in text

    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_counters_equal_match_stats(self, matcher, strategy):
        for k in (1, 3):
            result, root = traced(matcher, I1, strategy=strategy, k=k)
            stats = result.stats
            probe = stage(root, "matcher.eti_lookups").annotations
            assert probe["lookups"] == stats.eti_lookups
            assert probe["tids_processed"] == stats.tids_processed
            assert probe["tids_admitted"] == stats.tids_admitted
            fetched = sum(s.annotations.get("fetched", 0) for s in walk(root))
            assert fetched == stats.candidates_fetched
            if stats.osc_succeeded:
                assert not [s for s in walk(root) if s.name == "matcher.verify"]
                assert probe["osc_min_fms"] >= probe["osc_bound"]
            else:
                verify = stage(root, "matcher.verify").annotations
                assert verify["budget_prunes"] == stats.verify_budget_prunes
                assert verify["verified"] == len(result.matches)
                assert verify["stopped"] in (
                    "candidates_exhausted", "cannot_displace_kth"
                )

    def test_osc_annotations(self, matcher):
        result, root = traced(matcher, I1, strategy="osc")
        probe = stage(root, "matcher.eti_lookups").annotations
        assert probe["osc_fetch_attempts"] == result.stats.osc_fetch_attempts
        assert probe["osc_succeeded"] is result.stats.osc_succeeded is True
        basic = stage(traced(matcher, I1, strategy="basic")[1], "matcher.eti_lookups")
        assert "osc_succeeded" not in basic.annotations

    def test_zero_weight_query_stops_after_the_signature(
        self, org_reference, paper_config, org_eti
    ):
        matcher = FuzzyMatcher(org_reference, ZeroWeights(), paper_config, org_eti)
        result, root = traced(matcher, ("a", "b", "c", "d"))
        assert result.matches == []
        assert shape(root.children[0])[1] == [
            ("matcher.signature_build", []), ("db", [])
        ]
        assert stage(root, "matcher.signature_build").annotations["input_weight"] == 0.0

    @pytest.mark.parametrize("strategy", ["naive", "basic", "osc"])
    def test_traced_answer_equals_untraced(self, matcher, strategy):
        values = ("Boeing Corporation", "Seattle", "WA", "98004")
        plain = matcher.match(values, strategy=strategy, k=2)
        result, _ = traced(matcher, values, strategy=strategy, k=2)
        assert [(m.tid, m.similarity) for m in plain.matches] == [
            (m.tid, m.similarity) for m in result.matches
        ]

    def test_annotations_are_json_scalars(self, matcher):
        for strategy in ("naive", "basic", "osc"):
            _, root = traced(matcher, I1, strategy=strategy)
            for span in walk(root):
                for value in span.annotations.values():
                    assert value is None or isinstance(value, (bool, int, float, str))
            json.dumps(root.as_dict())


class TestSpanShape:
    """The span contract `benchmarks/ledger/` reads: names, nesting, leaves."""

    def test_exact_tree_per_strategy(self, matcher):
        def children(strategy, **kwargs):
            _, root = traced(matcher, I1, strategy=strategy, **kwargs)
            assert [c.name for c in root.children] == ["matcher"]
            return shape(root.children[0])[1]

        def leaves(*names):
            return [(name, []) for name in names]

        assert children("naive") == leaves("matcher.naive_scan", "db")
        assert children("basic") == leaves(*STAGES, "db")
        # OSC certifies I1 while probing: no verify stage.
        assert children("osc") == leaves(*STAGES[:2], "db")
        # K > |R|: the fetching test never has K tids to fetch.
        assert children("osc", k=4) == leaves(*STAGES, "db")

    def test_every_span_name_is_in_the_documented_taxonomy(self, matcher):
        internals = Path(__file__).parent.parent / "docs" / "INTERNALS.md"
        section = internals.read_text().split("**Span taxonomy.**")[1]
        block = section.split("```")[1]
        # One span per line: the first word after the tree-drawing glyphs.
        documented = set(re.findall(r"^[│├└─ ]*([a-z_.]+)", block, re.MULTILINE))
        assert "serve.queue_wait" in documented and "per" not in documented
        seen = set()
        for strategy in ("naive", "basic", "osc"):
            _, root = traced(matcher, I1, strategy=strategy)
            seen |= {span.name for span in walk(root.children[0])}
        assert seen == {"matcher", "matcher.naive_scan", "db", *STAGES}
        assert seen <= documented


def test_render_span_formats_floats_and_nesting():
    ticks = iter([0.0, 0.001, 0.0035, 0.004])
    with Tracer(clock=lambda: next(ticks)).trace("root", op="match") as root:
        with trace_span("child") as child:
            child.annotate(weight=1234.56789, ok=True, why="done")
    assert render_span(root) == [
        "root  4.000 ms  op=match",
        "  child  2.500 ms  weight=1235 ok=True why=done",
    ]
