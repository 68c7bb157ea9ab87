"""Retrieval pipeline units: expansion, chunking, robust threshold, filtering,
context construction, and their independent oracles."""

import math
import random
import statistics

import pytest
from hypothesis import assume, given, strategies as st

from ragvet.backends import (
    MAX_TOKENS,
    MockRerankerBackend,
    Role,
    SearchFixture,
)
from ragvet.core import Source
from ragvet.retrieval import (
    build_context,
    chunk_items,
    dynamic_threshold,
    expand_query,
    filter_chunks,
    mad,
    recall,
    rerank,
    summarize_image,
)
from ragvet.templates import default_template

from conftest import chunk, kg_item, scripted_model, tap, web_item

SUMMARIZE = default_template("summarize")


def brute_force_threshold(scores, tau, lam):
    """Definitional oracle: explicit sort, stdlib median, definitional MAD."""
    if not scores:
        return tau
    top = sorted(scores)[-10:]
    center = statistics.median(top)
    spread = statistics.median(sorted(abs(v - center) for v in top))
    return max(tau, center - lam * spread)


class TestExpandQuery:
    def test_concatenation_with_single_space(self):
        assert expand_query("price?", "A blue kettle.") == "price? A blue kettle."

    def test_empty_summary_degenerates_to_query(self):
        assert expand_query("price?", "") == "price?"

    def test_single_tokens(self):
        assert expand_query("a", "b") == "a b"


class TestSummarizeImage:
    def test_scripted_summary_returned(self, no_deadline):
        backend = tap(scripted_model(
            {"role": Role.SUMMARIZER, "match": "what brand is this?",
             "response": " A red running shoe with a white logo.\n"}
        ))
        text = summarize_image("what brand is this?", "img-1", backend, no_deadline, SUMMARIZE)
        assert text == "A red running shoe with a white logo."
        [request] = backend.requests
        assert (request.role, request.image_ref) == (Role.SUMMARIZER, "img-1")
        assert request.max_tokens == MAX_TOKENS[Role.SUMMARIZER]

    def test_missing_image_ref_rejected(self, no_deadline):
        with pytest.raises(ValueError):
            summarize_image("q", "", scripted_model(), no_deadline, SUMMARIZE)


class TestChunkItems:
    def test_newline_split_trims_and_drops_empties(self):
        items = [kg_item("A.\nB.\n\nC.")]
        assert [c.text for c in chunk_items(items)] == ["A.", "B.", "C."]

    def test_field_order_description_caption_summary(self):
        items = [kg_item("desc", caption="cap", summary="sum")]
        assert [c.ref.field for c in chunk_items(items)] == ["description", "caption", "summary"]

    def test_web_items_chunk_snippet_only(self):
        items = [web_item("line one\nline two", title="unchunked title")]
        assert [c.text for c in chunk_items(items)] == ["line one", "line two"]

    def test_duplicates_kept(self):
        items = [web_item("same paragraph", rank=1), web_item("same paragraph", rank=2)]
        assert [c.text for c in chunk_items(items)] == ["same paragraph", "same paragraph"]

    def test_no_items_no_chunks(self):
        assert chunk_items([]) == []

    def test_whitespace_only_fields_yield_no_chunks(self):
        assert chunk_items([kg_item(" \n  ")]) == []

    @given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
                    min_size=1, max_size=8))
    def test_chunks_never_empty_or_multiline(self, paragraphs):
        assume(any(p.strip() for p in paragraphs))
        items = [web_item("\n".join(paragraphs))]
        for produced in chunk_items(items):
            assert produced.text.strip() == produced.text
            assert produced.text
            assert "\n" not in produced.text


class TestMedianMad:
    def test_mad_of_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])

    def test_constant_values_have_zero_mad(self):
        assert mad([1, 1, 1]) == 0

    def test_hand_computed_mad(self):
        # median 3, deviations {2, 1, 1, 4}, median of those 1.5
        assert mad([1, 2, 4, 7]) == 1.5

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
           st.floats(min_value=0.01, max_value=5))
    def test_mad_translation_invariant(self, values, shift):
        assert math.isclose(mad([v + shift for v in values]), mad(values), abs_tol=1e-9)


class TestDynamicThreshold:
    def test_uniform_high_scores(self):
        assert dynamic_threshold([0.9] * 10, 0.1, 1.5) == 0.9

    def test_floor_applies_to_uniform_low_scores(self):
        assert dynamic_threshold([0.05] * 10, 0.1, 1.5) == 0.1

    def test_hand_worked_spread(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1]
        # median 0.45, MAD 0.25, raw cutoff 0.075 -> floored at 0.1
        assert dynamic_threshold(scores, 0.1, 1.5) == 0.1

    def test_empty_scores_return_floor(self):
        assert dynamic_threshold([], 0.1, 1.5) == 0.1

    def test_only_largest_ten_considered(self):
        scores = [0.9] * 10 + [0.0] * 15
        assert dynamic_threshold(scores, 0.1, 1.5) == 0.9

    def test_matches_oracle_on_randomized_lists(self):
        rng = random.Random(7)
        for _ in range(1000):
            scores = [rng.random() for _ in range(rng.randint(1, 25))]
            ours = dynamic_threshold(scores, 0.1, 1.5)
            assert abs(ours - brute_force_threshold(scores, 0.1, 1.5)) <= 1e-12
            assert ours >= 0.1

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=25),
           st.floats(min_value=0.001, max_value=3))
    def test_uniform_shift_moves_threshold_when_above_floor(self, scores, shift):
        tau, lam = 0.1, 1.5
        raw_before = brute_force_threshold(scores, -math.inf, lam)
        raw_after = brute_force_threshold([v + shift for v in scores], -math.inf, lam)
        assume(raw_before >= tau and raw_after >= tau)
        before = dynamic_threshold(scores, tau, lam)
        after = dynamic_threshold([v + shift for v in scores], tau, lam)
        assert math.isclose(after, before + shift, abs_tol=1e-9)


def _search_fixture(n_web=0, image_records=()):
    web = tuple(
        {"title": f"t{i}", "url": f"https://w.test/{i}",
         "snippet": f"red shoe page {i}", "last_updated": "2025-01-01"}
        for i in range(n_web)
    )
    image_index = {}
    if image_records:
        image_index["img-1"] = tuple({"description": d} for d in image_records)
    return SearchFixture(image_index=image_index, web_index=web)


class TestRecall:
    def test_web_search_caps_at_k(self, no_deadline):
        expanded = expand_query("red shoe", "")
        items = recall(expanded, None, _search_fixture(n_web=12), 10, "task2plus", no_deadline)
        assert len(items) == 10
        assert [i.recall_rank for i in items] == list(range(1, 11))

    def test_empty_index_yields_nothing(self, no_deadline):
        expanded = expand_query("red shoe", "")
        assert recall(expanded, None, _search_fixture(), 10, "task2plus", no_deadline) == []

    def test_image_search_with_fewer_neighbors_than_k(self, no_deadline):
        expanded = expand_query("what is this", "")
        backend = _search_fixture(image_records=("a", "b", "c"))
        items = recall(expanded, "img-1", backend, 10, "task1", no_deadline)
        assert len(items) == 3
        assert all(i.source is Source.KG_IMAGE for i in items)

    def test_k_must_be_positive(self, no_deadline):
        with pytest.raises(ValueError):
            recall(expand_query("q", ""), None, _search_fixture(), 0, "task1", no_deadline)


class TestFilterChunks:
    def test_top_three_kept_above_cutoff(self):
        scored = [chunk(f"c{i}", s) for i, s in enumerate([0.95, 0.92, 0.91, 0.90])]
        kept = filter_chunks(scored, 0.9, 3)
        assert [c.score for c in kept] == [0.95, 0.92, 0.91]

    def test_everything_below_cutoff_dropped(self):
        scored = [chunk("a", 0.2), chunk("b", 0.3)]
        assert filter_chunks(scored, 0.5, 3) == []

    def test_fewer_chunks_than_k(self):
        scored = [chunk("a", 0.2), chunk("b", 0.6)]
        kept = filter_chunks(scored, 0.0, 3)
        assert [c.score for c in kept] == [0.6, 0.2]

    def test_ties_keep_input_order(self):
        scored = [chunk("first", 0.5), chunk("second", 0.5), chunk("third", 0.5)]
        kept = filter_chunks(scored, 0.0, 2)
        assert [c.text for c in kept] == ["first", "second"]

    def test_excluded_above_cutoff_never_beats_kept(self):
        rng = random.Random(41)
        for _ in range(200):
            scored = [chunk(f"c{i}", rng.random()) for i in range(rng.randint(0, 12))]
            threshold = rng.random()
            kept = filter_chunks(scored, threshold, 3)
            assert len(kept) <= 3
            assert all(c.score >= threshold for c in kept)
            if kept:
                floor = min(c.score for c in kept)
                excluded = [c for c in scored if c not in kept and c.score >= threshold]
                assert all(c.score <= floor for c in excluded)


class TestBuildContext:
    def test_two_entries_tagged_in_order(self):
        kept = [chunk("A", 0.9), chunk("B", 0.8)]
        context = build_context(kept, 0.5)
        assert context.rendered == "[Info 1] A\n[Info 2] B"

    def test_empty_renders_empty(self):
        context = build_context([], 0.5)
        assert context.rendered == ""
        assert context.empty

    def test_single_entry(self):
        assert build_context([chunk("X", 0.9)], 0.5).rendered == "[Info 1] X"


class TestRetrievalScore:
    """The context's retrieval score is its highest entry score."""

    def test_empty_is_zero(self):
        assert build_context([], 0.1).retrieval_score == 0.0

    def test_maximum_wins(self):
        kept = [chunk("a", 0.2), chunk("b", 0.8), chunk("c", 0.5)]
        assert build_context(kept, 0.1).retrieval_score == 0.8

    def test_single(self):
        assert build_context([chunk("a", 0.3)], 0.1).retrieval_score == 0.3


def counting_reranker():
    """A reranker that scores chunk i of each batch as 1 / (i + 1)."""
    return tap(None, lambda call: [1.0 / (i + 1) for i in range(len(call.args[1]))])


class TestRerank:
    def test_one_batch_call_per_rerank_scores_in_chunk_order(self, no_deadline):
        reranker = counting_reranker()
        raw = chunk_items([web_item("c one\nc two"), web_item("c three", rank=2)])
        scored = rerank(expand_query("q", ""), raw, reranker, no_deadline)
        assert [list(call.args[1]) for call in reranker.calls] == [["c one", "c two", "c three"]]
        assert [(c.text, c.score) for c in scored] == [
            ("c one", 1.0), ("c two", 0.5), ("c three", pytest.approx(1 / 3)),
        ]
        assert [c.parent for c in scored] == [r.ref for r in raw]

    def test_no_chunks_no_call(self, no_deadline):
        reranker = counting_reranker()
        assert rerank(expand_query("q", ""), [], reranker, no_deadline) == []
        assert reranker.calls == []

    def test_scores_preserve_input_order(self, no_deadline):
        expanded = expand_query("red shoe", "")
        raw = chunk_items([web_item("red shoe\nblue kettle")])
        scored = rerank(expanded, raw, MockRerankerBackend(), no_deadline)
        assert [c.text for c in scored] == ["red shoe", "blue kettle"]
        assert scored[0].score == 1.0
        assert scored[1].score == 0.0

    def test_empty_input_empty_output(self, no_deadline):
        assert rerank(expand_query("q", ""), [], MockRerankerBackend(), no_deadline) == []
