"""Tests for inter-rater agreement and demographic breakdowns."""

import pytest

from repro.core.analysis import demographic_breakdown, fleiss_kappa
from repro.core.extension import Answer, ParticipantResult
from repro.crowd.behavior import BehaviorTrace
from repro.errors import ValidationError

TRACE = BehaviorTrace(0.5, 0, 2)


def make_result(worker_id, answers_by_page, demographics=None):
    answers = [
        Answer(page, "q1", answer, "a", "b", False, TRACE)
        for page, answer in answers_by_page.items()
    ]
    return ParticipantResult(
        "t", worker_id, demographics or {"country": "US"}, answers
    )


class TestFleissKappa:
    def test_perfect_agreement_is_one(self):
        results = [
            make_result(f"w{i}", {"p0": "left", "p1": "right"}) for i in range(6)
        ]
        assert fleiss_kappa(results, "q1") == pytest.approx(1.0)

    def test_structured_beats_random(self):
        import numpy as np

        rng = np.random.default_rng(4)
        random_results = [
            make_result(
                f"r{i}",
                {f"p{j}": rng.choice(["left", "right", "same"]) for j in range(8)},
            )
            for i in range(12)
        ]
        agreeing_results = [
            make_result(f"a{i}", {f"p{j}": ("left" if j % 2 else "right") for j in range(8)})
            for i in range(12)
        ]
        assert fleiss_kappa(agreeing_results, "q1") > 0.9
        assert abs(fleiss_kappa(random_results, "q1")) < 0.25

    def test_unequal_rater_counts_subsampled(self):
        results = [
            make_result("w1", {"p0": "left", "p1": "left"}),
            make_result("w2", {"p0": "left", "p1": "left"}),
            make_result("w3", {"p0": "left"}),  # missed p1
        ]
        assert fleiss_kappa(results, "q1") == pytest.approx(1.0)

    def test_needs_two_raters(self):
        with pytest.raises(ValidationError):
            fleiss_kappa([make_result("w1", {"p0": "left"})], "q1")

    def test_no_answers_rejected(self):
        with pytest.raises(ValidationError):
            fleiss_kappa([], "q1")


class TestDemographicBreakdown:
    def test_groups_partition_participants(self):
        results = [
            make_result("w1", {"p0": "left"}, {"country": "US"}),
            make_result("w2", {"p0": "right"}, {"country": "US"}),
            make_result("w3", {"p0": "right"}, {"country": "DE"}),
        ]
        breakdown = demographic_breakdown(results, "q1", "a", "b", "country")
        assert set(breakdown) == {"US", "DE"}
        assert breakdown["US"].total == 2
        assert breakdown["DE"].right_count == 1

    def test_unknown_attribute_rejected(self):
        results = [make_result("w1", {"p0": "left"})]
        with pytest.raises(ValidationError):
            demographic_breakdown(results, "q1", "a", "b", "favorite_color")

    def test_tallies_are_real_tallies(self):
        results = [
            make_result(f"w{i}", {"p0": "right"}, {"country": "US"}) for i in range(5)
        ]
        breakdown = demographic_breakdown(results, "q1", "a", "b", "country")
        assert breakdown["US"].percentages["right"] == 100.0


class TestSequentialCampaign:
    def test_stops_early_on_clear_preference(self):
        from repro.core.campaign import Campaign
        from repro.core.extension import make_utility_judge
        from repro.core.parameters import Question, TestParameters, WebpageSpec
        from repro.crowd.judgment import ThurstoneChoiceModel
        from repro.html.parser import parse_html

        campaign = Campaign(seed=21)
        params = TestParameters(
            test_id="seq",
            test_description="sequential",
            participant_num=400,
            question=[Question("q1", "Which?")],
            webpages=[
                WebpageSpec(web_path="a", web_page_load=500),
                WebpageSpec(web_path="b", web_page_load=500),
            ],
        )
        documents = {
            p: parse_html(f"<html><body><p>{p} text</p></body></html>")
            for p in ("a", "b")
        }
        campaign.prepare(params, documents)
        judge = make_utility_judge(
            {"a": 0.0, "b": 1.0, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        result = campaign.run_until_significant(
            judge, "q1", ("a", "b"), alpha=0.01, batch_size=10, max_participants=200
        )
        tally = result.controlled_analysis.tallies[("q1", "a", "b")]
        assert tally.preference_p_value() < 0.01
        assert result.participants < 200  # stopped before the cap

    def test_runs_to_cap_when_no_preference(self):
        from repro.core.campaign import Campaign
        from repro.core.extension import make_utility_judge
        from repro.core.parameters import Question, TestParameters, WebpageSpec
        from repro.crowd.judgment import ThurstoneChoiceModel
        from repro.html.parser import parse_html

        campaign = Campaign(seed=22)
        params = TestParameters(
            test_id="seq2",
            test_description="sequential null",
            participant_num=40,
            question=[Question("q1", "Which?")],
            webpages=[
                WebpageSpec(web_path="a", web_page_load=500),
                WebpageSpec(web_path="b", web_page_load=500),
            ],
        )
        documents = {
            p: parse_html(f"<html><body><p>{p} text</p></body></html>")
            for p in ("a", "b")
        }
        campaign.prepare(params, documents)
        judge = make_utility_judge(
            {"a": 0.0, "b": 0.0, "__contrast__": -9.0}, ThurstoneChoiceModel()
        )
        result = campaign.run_until_significant(
            judge, "q1", ("a", "b"), alpha=0.001, batch_size=10, max_participants=40
        )
        assert result.participants == 40

    def test_shared_scheduler_refused(self):
        # Each batch is its own roster, so a shared scheduler would restart
        # from an empty tally every batch; the sequential mode refuses it.
        from repro.core.campaign import Campaign
        from repro.core.config import CampaignConfig
        from repro.core.extension import make_utility_judge
        from repro.core.parameters import Question, TestParameters, WebpageSpec
        from repro.crowd.judgment import ThurstoneChoiceModel
        from repro.errors import CampaignError
        from repro.html.parser import parse_html

        campaign = Campaign(config=CampaignConfig(seed=23, scheduler="adaptive"))
        params = TestParameters(
            test_id="seq3",
            test_description="sequential adaptive",
            participant_num=20,
            question=[Question("q1", "Which?")],
            webpages=[
                WebpageSpec(web_path=p, web_page_load=500) for p in ("a", "b", "c")
            ],
        )
        documents = {
            p: parse_html(f"<html><body><p>{p} text</p></body></html>")
            for p in ("a", "b", "c")
        }
        campaign.prepare(params, documents)
        judge = make_utility_judge(
            {"a": 0.0, "b": 1.0, "c": 0.5, "__contrast__": -9.0},
            ThurstoneChoiceModel(),
        )
        with pytest.raises(CampaignError, match="shared"):
            campaign.run_until_significant(judge, "q1", ("a", "b"))
