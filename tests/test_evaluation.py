"""Scoring protocol: truncation, judging, aggregation, metric identities,
the one scoring path, and every pipeline variant scored over the committed
fixture sets."""

import random

import pytest
from hypothesis import given, strategies as st

from ragvet.backends import (
    Backends,
    MockRerankerBackend,
    ReplayModelBackend,
    load_fixture,
)
from ragvet.cli import load_dataset
from ragvet.core import Conversation, PipelineConfig
from ragvet.evaluation import (
    EvalError,
    Label,
    MockJudge,
    PromptedJudge,
    aggregate,
    ground_truths,
    judge_response,
    score_answers,
    truncate_tokens,
)
from ragvet.pipeline import VARIANTS
from ragvet.templates import PromptTemplate

from conftest import FIXTURES, score_variant, scripted_model, tap

# Frozen reference rows the aggregator must reproduce, as
# (perfect, missing, incorrect, accuracy%, missing%, hallucination%, truthfulness%).
METRIC_ROWS = [
    (26, 16, 62, 25.00, 15.38, 59.62, -34.62),
    (29, 10, 65, 27.88, 9.62, 62.50, -34.62),
    (4, 99, 1, 3.85, 95.19, 0.96, 2.88),
    (5, 99, 0, 4.81, 95.19, 0.00, 4.81),
    (15, 86, 3, 14.42, 82.69, 2.88, 11.54),
]


def labels_from_counts(perfect=0, acceptable=0, missing=0, incorrect=0):
    return (
        [Label.PERFECT] * perfect
        + [Label.ACCEPTABLE] * acceptable
        + [Label.MISSING] * missing
        + [Label.INCORRECT] * incorrect
    )


class TestTruncateTokens:
    def test_prefix_kept(self):
        assert truncate_tokens("a b c", 2) == "a b"

    def test_shorter_than_limit_unchanged(self):
        assert truncate_tokens("a b", 75) == "a b"

    def test_empty_text(self):
        assert truncate_tokens("", 75) == ""

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            truncate_tokens("a", -1)


class TestJudgeResponse:
    def test_abstention_is_missing_without_judge_call(self):
        judge = tap(None, lambda call: AssertionError(
            "judge must not be consulted for abstentions"))
        label = judge_response("I don't know", "anything", judge)
        assert label is Label.MISSING

    def test_padded_abstain_text_is_missing(self):
        # A trace carries the configured text verbatim, padding included.
        label = judge_response(" I don't know ", "a kettle", MockJudge(),
                               abstain_text=" I don't know ")
        assert label is Label.MISSING

    def test_mock_exact_match_is_perfect(self):
        label = judge_response("  The Eiffel Tower ", "the eiffel tower", MockJudge())
        assert label is Label.PERFECT

    def test_mock_containment_is_acceptable(self):
        label = judge_response("It is the Eiffel Tower in Paris", "eiffel tower", MockJudge())
        assert label is Label.ACCEPTABLE

    def test_mock_disjoint_is_incorrect(self):
        assert judge_response("a kettle", "a falcon", MockJudge()) is Label.INCORRECT

    def test_answer_truncated_before_judging(self):
        long_answer = "right " * 80 + "wrong tail"
        judge = tap(None, lambda call: Label.INCORRECT)
        judge_response(long_answer, "right", judge)
        [call] = judge.calls
        assert len(call.user.split()) == 75
        assert "tail" not in call.user

    def test_never_incorrect_for_abstention(self):
        for truth in ("", "anything", "I don't know"):
            label = judge_response("I don't know", truth, MockJudge())
            assert label is not Label.INCORRECT


class TestPromptedJudge:
    def _judge(self, reply):
        from ragvet.backends import Role

        backend = scripted_model({"role": Role.JUDGE, "match": "", "response": reply})
        template = PromptTemplate(system="grade", user="{ground_truth} vs {answer}")
        return PromptedJudge(backend, template)

    def test_label_token_extracted(self):
        assert self._judge("Acceptable").judge("a", "b") is Label.ACCEPTABLE

    def test_unlabelled_reply_is_an_error(self):
        with pytest.raises(EvalError):
            self._judge("hmm, not sure").judge("a", "b")

    @pytest.mark.parametrize("reply, label", [
        ("Perfect.", Label.PERFECT),
        ("incorrect", Label.INCORRECT),
        ("Label: Acceptable", Label.ACCEPTABLE),
        ("Unacceptable", None),
        ("Imperfect", None),
        ("Not perfect: Incorrect", None),
    ])
    def test_reply_must_name_exactly_one_label_word(self, reply, label):
        judge = self._judge(reply)
        if label is None:
            with pytest.raises(EvalError, match="exactly one label"):
                judge.judge("a", "b")
        else:
            assert judge.judge("a", "b") is label


class TestAggregate:
    @pytest.mark.parametrize("perfect,missing,incorrect,acc,miss,hall,truth", METRIC_ROWS)
    def test_reference_rows_reproduced(self, perfect, missing, incorrect, acc, miss, hall, truth):
        report = aggregate(labels_from_counts(perfect=perfect, missing=missing,
                                              incorrect=incorrect))
        assert report.n == 104
        assert report.accuracy * 100 == pytest.approx(acc, abs=0.01)
        assert report.missing_rate * 100 == pytest.approx(miss, abs=0.01)
        assert report.hallucination_rate * 100 == pytest.approx(hall, abs=0.01)
        assert report.truthfulness * 100 == pytest.approx(truth, abs=0.01)

    @pytest.mark.parametrize("label,value", [
        (Label.PERFECT, 1.0), (Label.ACCEPTABLE, 0.5),
        (Label.MISSING, 0.0), (Label.INCORRECT, -1.0),
    ])
    def test_each_label_weighs_its_value(self, label, value):
        assert aggregate([label]).truthfulness == value
        assert aggregate([label, Label.MISSING]).truthfulness == value / 2

    def test_all_missing_truthfulness_zero(self):
        report = aggregate(labels_from_counts(missing=5))
        assert report.truthfulness == 0.0

    def test_perfect_and_incorrect_cancel(self):
        report = aggregate(labels_from_counts(perfect=1, incorrect=1))
        assert report.truthfulness == 0.0
        assert report.accuracy == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @given(
        perfect=st.integers(0, 30), acceptable=st.integers(0, 30),
        missing=st.integers(0, 30), incorrect=st.integers(0, 30),
    )
    def test_rates_partition_and_identity(self, perfect, acceptable, missing, incorrect):
        if perfect + acceptable + missing + incorrect == 0:
            return
        report = aggregate(labels_from_counts(perfect, acceptable, missing, incorrect))
        assert report.accuracy + report.missing_rate + report.hallucination_rate == pytest.approx(1.0)
        assert -1.0 <= report.truthfulness <= 1.0
        if acceptable == 0:
            assert report.truthfulness == pytest.approx(
                report.accuracy - report.hallucination_rate
            )

    def test_permutation_invariant(self):
        labels = labels_from_counts(perfect=3, acceptable=2, missing=4, incorrect=1)
        rng = random.Random(5)
        for _ in range(10):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            assert aggregate(shuffled) == aggregate(labels)


class TestScoreAnswers:
    def _dataset(self, *truths):
        return [Conversation.from_dict({
            "conversation_id": f"c{i}", "image_ref": None,
            "turns": [{"query": "q", "ground_truth": truth}],
        }) for i, truth in enumerate(truths)]

    def test_ground_truths_key_each_turn(self):
        assert ground_truths(self._dataset("a", "b")) == {("c0", 0): "a", ("c1", 0): "b"}

    def test_a_turn_without_truth_is_named(self):
        with pytest.raises(EvalError, match=r"turn \('c1', 0\) has no ground truth"):
            ground_truths(self._dataset("a", None))

    def test_rows_follow_the_answers_and_abstentions_are_missing(self):
        truths = ground_truths(self._dataset("a kettle", "a falcon", "a zebra"))
        answers = [("c2", 0, "a zebra"), ("c0", 0, "no idea"), ("c1", 0, " no idea ")]
        report, rows = score_answers(answers, truths, MockJudge(), abstain_text="no idea")
        assert rows == [
            {"conversation_id": "c2", "turn_index": 0, "label": "Perfect"},
            {"conversation_id": "c0", "turn_index": 0, "label": "Missing"},
            {"conversation_id": "c1", "turn_index": 0, "label": "Missing"},
        ]
        assert report == aggregate([Label.PERFECT, Label.MISSING, Label.MISSING])

    @pytest.mark.parametrize("answers, message", [
        ([("c0", 0, "a"), ("c9", 0, "a")], r"turn \('c9', 0\) not present"),
        ([("c0", 0, "a"), ("c0", 0, "a")], r"repeats turn \('c0', 0\)"),
        ([("c0", 0, "a")], r"lacks turn \('c1', 0\)"),
    ], ids=["unknown", "repeated", "missing"])
    def test_answers_cover_each_turn_once_before_any_judging(self, answers, message):
        judge = tap(None, lambda call: AssertionError("no answer is judged before coverage holds"))
        with pytest.raises(EvalError, match=message):
            score_answers(answers, ground_truths(self._dataset("a", "b")), judge,
                          abstain_text="no idea")


@pytest.fixture(scope="module")
def ablation_setup():
    cfg = PipelineConfig(mode="task2plus")
    model = ReplayModelBackend.from_file(FIXTURES / "ablation_replay.json")
    search = load_fixture(FIXTURES / "ablation_search.json")
    backends = Backends(
        router_model=model, vlm=model, reranker=MockRerankerBackend(), search=search
    )
    dataset = load_dataset(FIXTURES / "ablation_dataset.jsonl")
    return cfg, dataset, backends


class TestRunAblation:
    def test_vision_only_never_abstains(self, ablation_setup):
        cfg, dataset, backends = ablation_setup
        report = score_variant("vision_only", dataset, cfg, backends)
        assert report.missing_rate == 0.0

    def test_full_beats_no_cov_on_truthfulness(self, ablation_setup):
        cfg, dataset, backends = ablation_setup
        full = score_variant("full", dataset, cfg, backends)
        no_cov = score_variant("no_cov", dataset, cfg, backends)
        assert full.truthfulness > no_cov.truthfulness
        assert full.accuracy >= no_cov.accuracy

    def test_naive_rag_hallucinates_more_than_full(self, ablation_setup):
        cfg, dataset, backends = ablation_setup
        naive = score_variant("rag_naive", dataset, cfg, backends)
        full = score_variant("full", dataset, cfg, backends)
        assert naive.hallucination_rate > full.hallucination_rate

    def test_exact_agreement_mode_abstains_on_split_answers(self, ablation_setup):
        cfg, dataset, backends = ablation_setup
        report = score_variant("no_cov_no_sc", dataset, cfg, backends)
        assert report.missing_rate > 0.0


# (Perfect, Missing, Incorrect, truthfulness) per mode over the six ablation turns.
ABLATION_REPORTS = {
    "vision_only": (2, 0, 4, -1 / 3),
    "rag_naive": (3, 0, 3, 0.0),
    "no_cov_no_sc": (2, 1, 3, -1 / 6),
    "no_cov": (2, 1, 3, -1 / 6),
    "full": (2, 4, 0, 1 / 3),
}


@pytest.mark.parametrize("policy", ["task1", "task2plus"])
@pytest.mark.parametrize("mode", VARIANTS)
def test_ablation_report_is_pinned(ablation_setup, policy, mode):
    _, dataset, backends = ablation_setup
    cfg = PipelineConfig(mode=policy)
    report = score_variant(mode, dataset, cfg, backends)
    perfect, missing, incorrect, truthfulness = ABLATION_REPORTS[mode]
    assert report.to_dict()["counts"] == {
        "Perfect": perfect, "Acceptable": 0, "Missing": missing, "Incorrect": incorrect,
    }
    assert report.truthfulness == pytest.approx(truthfulness)


# (Perfect, Acceptable, Missing, Incorrect, truthfulness) per mode over the
# seven turns of the KG set under task1, where recall finds image records.
# The replay scripts the follow-up turn k05:1 only for the history the full
# pipeline builds, so a variant whose first answer differs gets no reply for
# it and abstains with generation_backend_error.
KG_ABLATION_REPORTS = {
    "vision_only": (1, 0, 1, 5, -4 / 7),
    "rag_naive": (2, 3, 0, 2, 3 / 14),
    "no_cov_no_sc": (1, 0, 4, 2, -1 / 7),
    "no_cov": (1, 3, 1, 2, 1 / 14),
    "full": (1, 3, 3, 0, 5 / 14),
}


@pytest.mark.parametrize("mode", VARIANTS)
def test_kg_ablation_report_is_pinned(mode):
    cfg = PipelineConfig(mode="task1")
    model = ReplayModelBackend.from_file(FIXTURES / "kg_replay.json")
    backends = Backends(
        router_model=model, vlm=model, reranker=MockRerankerBackend(),
        search=load_fixture(FIXTURES / "kg_search.json"),
    )
    report = score_variant(mode, load_dataset(FIXTURES / "kg_dataset.jsonl"), cfg, backends)
    perfect, acceptable, missing, incorrect, truthfulness = KG_ABLATION_REPORTS[mode]
    assert report.to_dict()["counts"] == {
        "Perfect": perfect, "Acceptable": acceptable, "Missing": missing, "Incorrect": incorrect,
    }
    assert report.truthfulness == pytest.approx(truthfulness)


def test_forced_disagreement_drives_missing_rate_to_one(tmp_path):
    # Dual-path agreement gate with answers that never match: abstain everywhere.
    import json

    dataset_path = tmp_path / "d.jsonl"
    dataset_path.write_text(
        "\n".join(
            json.dumps({
                "conversation_id": f"d{i}",
                "image_ref": None,
                "turns": [{"query": f"splitq{i} token{i}", "ground_truth": f"gt{i}"}],
            })
            for i in range(4)
        ) + "\n",
        encoding="utf-8",
    )
    entries = []
    for i in range(4):
        entries.append({"role": "router", "match": f"splitq{i}",
                        "response": "1. Needs External Info: no\n2. Is Real-Time: no"})
        entries.append({"role": "generator",
                        "match": ["Context:", f"Question: splitq{i} token{i}"],
                        "response": f"first{i}"})
        entries.append({"role": "generator", "match": f"Question: splitq{i} token{i}",
                        "response": f"second{i}"})
    from ragvet.backends import ReplayEntry, SearchFixture

    model = ReplayModelBackend([ReplayEntry.from_dict(e, "inline") for e in entries])
    backends = Backends(
        router_model=model, vlm=model, reranker=MockRerankerBackend(),
        search=SearchFixture(image_index={}, web_index=()),
    )
    cfg = PipelineConfig(mode="task2plus")
    report = score_variant("no_cov_no_sc", load_dataset(dataset_path), cfg, backends)
    assert report.missing_rate == 1.0
