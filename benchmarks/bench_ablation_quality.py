"""Ablation — the quality-control stack, layer by layer.

The paper stacks four mechanisms (hard rules, engagement screening, control
questions, crowd-wisdom majority vote). This bench re-runs the font-size
campaign's quality pass with each layer toggled individually and reports,
per configuration, how many spammers/distracted workers survive and how far
the resulting ranking sits from the in-lab ground truth.
"""

import pytest

from repro.core.analysis import ranking_distribution
from repro.core.quality import QualityConfig, QualityControl
from repro.core.reporting import format_table
from repro.experiments.fontsize import (
    QUESTION,
    FONT_SIZES_PT,
    FontSizeExperiment,
    version_id_for,
)

CONFIGS = {
    "none": QualityConfig(
        enable_hard_rules=False,
        enable_engagement=False,
        enable_control_questions=False,
        enable_majority_vote=False,
    ),
    "hard-rules only": QualityConfig(
        enable_engagement=False,
        enable_control_questions=False,
        enable_majority_vote=False,
    ),
    "engagement only": QualityConfig(
        enable_hard_rules=False,
        enable_control_questions=False,
        enable_majority_vote=False,
    ),
    "control-questions only": QualityConfig(
        enable_hard_rules=False,
        enable_engagement=False,
        enable_majority_vote=False,
    ),
    "majority-vote only": QualityConfig(
        enable_hard_rules=False,
        enable_engagement=False,
        enable_control_questions=False,
    ),
    "full stack": QualityConfig(),
}

VERSIONS = [version_id_for(s) for s in FONT_SIZES_PT]


@pytest.fixture(scope="module")
def campaign_data():
    experiment = FontSizeExperiment(seed=2019)
    crowd = experiment.run_crowd()
    inlab, _ = experiment.run_inlab()
    inlab_ranking = inlab.raw_analysis.rankings[QUESTION.question_id]
    expected_answers = 11  # 10 pairs + 1 control, one question
    return crowd, inlab_ranking, expected_answers


def ranking_distance(a, b) -> float:
    """Mean absolute percentage gap across the full rank matrix."""
    total = 0.0
    cells = 0
    for version in VERSIONS:
        for index in range(len(VERSIONS)):
            total += abs(a.matrix[version][index] - b.matrix[version][index])
            cells += 1
    return total / cells


def test_ablation_quality_layers(benchmark, campaign_data, report_writer):
    crowd, inlab_ranking, expected_answers = campaign_data
    benchmark(QualityControl(CONFIGS["full stack"]).apply, crowd.raw_results, expected_answers)

    rows = []
    distances = {}
    for name, config in CONFIGS.items():
        report = QualityControl(config).apply(crowd.raw_results, expected_answers)
        ranking = ranking_distribution(report.kept, QUESTION.question_id, VERSIONS)
        distance = ranking_distance(ranking, inlab_ranking)
        distances[name] = distance
        rows.append(
            [
                name,
                len(report.kept),
                len(report.dropped),
                round(ranking.percentage(version_id_for(12), "A"), 1),
                round(distance, 2),
            ]
        )
    inlab_12_at_a = inlab_ranking.percentage(version_id_for(12), "A")
    report_writer(
        "ablation_quality",
        format_table(
            ["configuration", "kept", "dropped", "12pt@A (%)", "dist to in-lab"],
            rows,
        )
        + f"\n\nin-lab reference: 12pt@A = {inlab_12_at_a:.1f}% (n=50). The "
        "distance metric carries that panel's own sampling noise, so small "
        "differences between configurations are not meaningful. What is "
        "checked: filtering does not distort the matrix (the full stack's "
        "distance to in-lab grows by at most 3.0 over no filtering) and "
        "does not push the headline share far from in-lab (its 12pt@A gap "
        "to in-lab grows by at most 10 pp). Filtering is not required to "
        "move 12pt@A toward in-lab, and on this crowd it moves it away.",
    )

    # Filtering must not *distort* the result: the full stack's distance to
    # in-lab grows by at most 3.0 over no filtering (exact ordering is
    # within in-lab sampling noise)...
    assert distances["full stack"] <= distances["none"] + 3.0
    # ...and its 12pt@A gap to in-lab grows by at most 10 pp. This bounds
    # the drift; it does not require a move toward in-lab.
    full_report = QualityControl(CONFIGS["full stack"]).apply(
        crowd.raw_results, expected_answers
    )
    full_ranking = ranking_distribution(
        full_report.kept, QUESTION.question_id, VERSIONS
    )
    raw_ranking = ranking_distribution(
        crowd.raw_results, QUESTION.question_id, VERSIONS
    )
    full_gap = abs(full_ranking.percentage(version_id_for(12), "A") - inlab_12_at_a)
    raw_gap = abs(raw_ranking.percentage(version_id_for(12), "A") - inlab_12_at_a)
    assert full_gap <= raw_gap + 10
    # The full stack must actually drop someone on a 100-worker crowd.
    assert 0 < len(full_report.dropped) < 60
