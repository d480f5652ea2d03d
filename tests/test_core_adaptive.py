"""Tests for the adaptive (sorting-driven) test flow."""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import BrowserExtension, make_utility_judge
from repro.core.integrated import IntegratedWebpage
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.scheduling import InsertionSortScheduler, MergeSortScheduler
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.errors import CampaignError, ExtensionError
from repro.html.parser import parse_html

from tests.conftest import make_worker

QUESTION = Question("q1", "Which is better?")
VERSIONS = ["v0", "v1", "v2", "v3"]
UTILITIES = {"v0": 0.0, "v1": 0.4, "v2": 0.8, "v3": 1.2, "__contrast__": -9.0}


def pages_by_pair():
    from repro.core.scheduling import all_pairs

    return {
        frozenset(pair): IntegratedWebpage(
            f"pg-{pair[0]}-{pair[1]}", "t", pair[0], pair[1], f"t/{pair[0]}-{pair[1]}.html"
        )
        for pair in all_pairs(VERSIONS)
    }


class TestExtensionAdaptive:
    def test_noiseless_worker_sorts_perfectly(self, rng):
        worker = make_worker(judgment_sigma=0.0, same_bias=0.0)
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel(same_threshold=0.05))
        extension = BrowserExtension(worker, judge, rng=rng)
        scheduler = InsertionSortScheduler(VERSIONS)
        result = extension.run_adaptive_test(
            "t", QUESTION, scheduler, pages_by_pair()
        )
        assert scheduler.ranking() == ["v3", "v2", "v1", "v0"]
        # Fewer answers than the full C(4,2)=6 enumeration is possible;
        # never more than 6.
        assert len(result.answers) <= 6

    def test_mirrored_page_orientation_handled(self, rng):
        worker = make_worker(judgment_sigma=0.0, same_bias=0.0)
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel(same_threshold=0.05))
        # Store every page with REVERSED orientation relative to pair order.
        from repro.core.scheduling import all_pairs

        mirrored = {
            frozenset(pair): IntegratedWebpage(
                f"pg-{pair[1]}-{pair[0]}", "t", pair[1], pair[0], "t/x.html"
            )
            for pair in all_pairs(VERSIONS)
        }
        scheduler = MergeSortScheduler(VERSIONS)
        BrowserExtension(worker, judge, rng=rng).run_adaptive_test(
            "t", QUESTION, scheduler, mirrored
        )
        assert scheduler.ranking() == ["v3", "v2", "v1", "v0"]

    def test_missing_pair_page_rejected(self, rng):
        worker = make_worker()
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        scheduler = InsertionSortScheduler(VERSIONS)
        with pytest.raises(ExtensionError):
            BrowserExtension(worker, judge, rng=rng).run_adaptive_test(
                "t", QUESTION, scheduler, {}
            )

    def test_control_pages_visited_first(self, rng):
        worker = make_worker(attention=1.0)
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        control = IntegratedWebpage(
            "ctrl", "t", "v0", "v0", "t/ctrl.html", "identical", "same"
        )
        result = BrowserExtension(worker, judge, rng=rng).run_adaptive_test(
            "t", QUESTION, InsertionSortScheduler(VERSIONS), pages_by_pair(),
            control_pages=[control],
        )
        assert result.answers[0].is_control


class TestCampaignAdaptive:
    def build(self, seed=31, scheduler="insertion"):
        campaign = Campaign(config=CampaignConfig(seed=seed, scheduler=scheduler))
        params = TestParameters(
            test_id="adaptive",
            test_description="adaptive scheduling",
            participant_num=15,
            question=[QUESTION],
            webpages=[WebpageSpec(web_path=v, web_page_load=500) for v in VERSIONS],
        )
        documents = {
            v: parse_html(f"<html><body><p>{v} text body</p></body></html>")
            for v in VERSIONS
        }
        campaign.prepare(params, documents)
        return campaign

    def test_adaptive_campaign_completes(self):
        campaign = self.build()
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        result = campaign.run(judge)
        assert result.participants == 15
        assert len(result.controlled_results) > 0

    def test_adaptive_shows_fewer_pages(self):
        campaign = self.build(seed=32, scheduler="merge")
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        result = campaign.run(judge)
        full_pairs = 6  # C(4,2)
        answer_counts = [
            len([a for a in p.answers if not a.is_control])
            for p in result.raw_results
        ]
        assert all(count <= full_pairs for count in answer_counts)
        assert any(count < full_pairs for count in answer_counts)

    def test_best_version_still_wins(self):
        campaign = self.build(seed=33)
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        result = campaign.run(judge)
        ranking = result.controlled_analysis.rankings[QUESTION.question_id]
        assert ranking.modal_version_at_rank("A") == "v3"

    def test_multi_question_test_rejected(self):
        campaign = Campaign(config=CampaignConfig(seed=34, scheduler="insertion"))
        params = TestParameters(
            test_id="multi",
            test_description="two questions",
            participant_num=5,
            question=[QUESTION, Question("q2", "And this?")],
            webpages=[WebpageSpec(web_path=v, web_page_load=500) for v in VERSIONS[:2]],
        )
        documents = {
            v: parse_html(f"<html><body><p>{v}</p></body></html>") for v in VERSIONS[:2]
        }
        campaign.prepare(params, documents)
        judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
        with pytest.raises(CampaignError):
            campaign.run(judge)
