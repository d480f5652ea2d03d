"""Extension — sorting-based reduction through the full campaign.

The scheduling ablation measures comparisons-vs-accuracy in isolation;
this bench runs the *whole pipeline* both ways (full C(N,2) enumeration vs
insertion-sort reduction) on a five-version test and reports what the
reduction actually buys end to end: integrated pages downloaded per
participant, total network bytes, and whether the concluded winner is
preserved.
"""

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.reporting import format_table
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.html.parser import parse_html

QUESTION = Question("q1", "Which webpage looks better?")
VERSIONS = [f"v{i}" for i in range(5)]
# Mixed order (best is v2): insertion sort's comparison count depends on
# how the input order relates to the preference order — a monotone input is
# its worst case — so the bench uses the realistic mixed case.
UTILITIES = {"v0": 0.44, "v1": 0.22, "v2": 1.10, "v3": 0.66, "v4": 0.0,
             "__contrast__": -9.0}
PARTICIPANTS = 60


def build_campaign(seed, scheduler):
    campaign = Campaign(config=CampaignConfig(seed=seed, scheduler=scheduler))
    params = TestParameters(
        test_id="adaptive-bench",
        test_description="full vs sorting-based",
        participant_num=PARTICIPANTS,
        question=[QUESTION],
        webpages=[WebpageSpec(web_path=v, web_page_load=1000) for v in VERSIONS],
    )
    documents = {
        v: parse_html(f"<html><body><p>{v} content text for the page</p></body></html>")
        for v in VERSIONS
    }
    campaign.prepare(params, documents)
    return campaign


def run_mode(mode, seed=2019):
    campaign = build_campaign(seed, mode)
    judge = make_utility_judge(UTILITIES, ThurstoneChoiceModel())
    result = campaign.run(judge)
    downloads = sum(
        1 for record in campaign.network.log if record.path.startswith("/resources/")
    )
    bytes_down = campaign.network.stats.bytes_down
    winner = result.controlled_analysis.rankings[QUESTION.question_id].modal_version_at_rank("A")
    return {
        "result": result,
        "downloads_per_participant": downloads / PARTICIPANTS,
        "mb_down": bytes_down / 1e6,
        "winner": winner,
    }


@pytest.fixture(scope="module")
def outcomes():
    return {mode: run_mode(mode) for mode in ("full", "insertion", "merge")}


def test_extension_adaptive_campaign(benchmark, outcomes, report_writer):
    benchmark(run_mode, "merge", 7)

    rows = []
    for mode, data in outcomes.items():
        rows.append(
            [
                mode,
                round(data["downloads_per_participant"], 1),
                round(data["mb_down"], 2),
                data["winner"],
                len(data["result"].controlled_results),
            ]
        )
    report_writer(
        "extension_adaptive",
        format_table(
            ["mode", "pages downloaded / participant", "MB downlink", "winner", "kept"],
            rows,
        )
        + "\n\nfull mode shows all C(5,2)=10 pairs (+1 control); the sorting "
        "modes download only the pairs each participant's own sort needs.",
    )

    full = outcomes["full"]
    for mode in ("insertion", "merge"):
        reduced = outcomes[mode]
        # Fewer downloads and bytes...
        assert (
            reduced["downloads_per_participant"]
            < full["downloads_per_participant"] - 1
        )
        assert reduced["mb_down"] < full["mb_down"]
        # ...same concluded winner.
        assert reduced["winner"] == full["winner"] == "v2"
