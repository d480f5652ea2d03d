"""Streaming aggregation: O(pairs) sufficient statistics over the stored rows.

The Bradley–Terry model, the per-question tallies, and the Figure 4 rank
matrices all depend on the raw responses only through small count tables —
sufficient statistics. :class:`StreamingAggregator` folds each stored
:class:`~repro.core.extension.ParticipantResult` into those tables, so
concluding a campaign never needs the responses in memory: aggregator
state is O(questions × pairs), independent of the participant count.

``Campaign.conclude`` streams the stored rows twice, in upload order, with
quality decisions byte-identical to the batch
:class:`~repro.core.quality.QualityControl`:

1. **First pass** — every row folds into the raw aggregator, and
   :class:`OnlineQualityScreen` runs the individual screening layers (hard
   rules, engagement, control questions) on it, folding survivors'
   non-control answers into the per-(page, question) majority tallies.
2. **Second pass** — the majority map is read off the tallies (the strict-
   majority rule depends only on final counts, so incremental accumulation
   cannot change it); each row is re-screened (the individual screen is
   deterministic, so this re-partitions the stream without storing a drop
   set) and each survivor's deviation is checked against the majority —
   appending drops in exactly the order the batch pass produces:
   individual drops in upload order, then majority drops in survivor order.

Both passes read rows through ``CoreServer.stored_rows``: on the sharded
store that is
:meth:`~repro.store.sharded.ShardedDocumentStore.stream_collection`, which
replays the shard WALs lazily — so the whole conclude stays out of
O(participants) memory even at a million uploads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.analysis import (
    RANK_LABELS,
    AnalysisBundle,
    QuestionTally,
    RankingDistribution,
    participant_ranking,
)
from repro.core.btmodel import PairwiseCounts
from repro.core.extension import ParticipantResult
from repro.core.quality import (
    DropRecord,
    QualityConfig,
    QualityControl,
    QualityReport,
)
from repro.errors import ValidationError

_MIRROR = {"left": "right", "right": "left", "same": "same"}


class StreamingAggregator:
    """Folds results into the exact count tables the batch analysis scans for.

    After folding the same results in the same order,
    :meth:`analysis_bundle` reproduces
    :func:`repro.core.analysis.analyze_responses` field-for-field (tallies,
    rankings, participants) — except ``behavior``, whose CDFs are
    irreducibly O(uploads) and stay ``None`` in streaming mode — and
    :attr:`bt_counts` reproduces
    :func:`repro.core.btmodel.counts_from_results` including the wins-dict
    insertion order the MM fit iterates in.
    """

    def __init__(
        self,
        question_ids: List[str],
        version_ids: List[str],
        pairs: List[Tuple[str, str]],
        expected_answers: int,
    ):
        if len(version_ids) > len(RANK_LABELS):
            raise ValidationError(
                f"at most {len(RANK_LABELS)} versions supported, "
                f"got {len(version_ids)}"
            )
        self.question_ids = list(question_ids)
        self.version_ids = list(version_ids)
        self.pairs = [tuple(p) for p in pairs]
        self.expected_answers = expected_answers
        self.participants = 0
        self.abandoned = 0
        self.complete = 0
        # (question, left, right) -> Counter of answer values, in the same
        # key order analyze_responses builds its tallies dict.
        self._pair_index: Dict[Tuple[str, str], Tuple[str, str]] = {}
        for left, right in self.pairs:
            self._pair_index[(left, right)] = (left, right)
            self._pair_index[(right, left)] = (left, right)
        self.tally_counts: Dict[Tuple[str, str, str], Counter] = {
            (question_id, left, right): Counter()
            for question_id in self.question_ids
            for left, right in self.pairs
        }
        # question -> version -> count per rank position (Figure 4 matrix).
        self.rank_counts: Dict[str, Dict[str, List[int]]] = {
            question_id: {v: [0] * len(self.version_ids) for v in self.version_ids}
            for question_id in self.question_ids
        }
        # question -> Bradley-Terry win counts.
        self.bt_counts: Dict[str, PairwiseCounts] = {
            question_id: PairwiseCounts(list(self.version_ids))
            for question_id in self.question_ids
        }
        self._known_versions = set(self.version_ids)

    def fold(self, result: ParticipantResult) -> None:
        """Fold one participant's upload into every sufficient statistic."""
        self.participants += 1
        if getattr(result, "abandoned", False):
            self.abandoned += 1
        elif len(result.answers) >= self.expected_answers:
            self.complete += 1
        for question_id in self.question_ids:
            answers = result.answers_for(question_id)
            for answer in answers:
                oriented = (answer.left_version, answer.right_version)
                canonical = self._pair_index.get(oriented)
                if canonical is not None:
                    value = (
                        answer.answer
                        if oriented == canonical
                        else _MIRROR.get(answer.answer, answer.answer)
                    )
                    self.tally_counts[(question_id,) + canonical][value] += 1
                left, right = oriented
                if left in self._known_versions and right in self._known_versions:
                    counts = self.bt_counts[question_id]
                    if answer.answer == "left":
                        counts.add_win(left, right)
                    elif answer.answer == "right":
                        counts.add_win(right, left)
                    else:
                        counts.add_tie(left, right)
            ranking = participant_ranking(result, question_id, self.version_ids)
            per_version = self.rank_counts[question_id]
            for rank_index, version in enumerate(ranking):
                per_version[version][rank_index] += 1

    def cell_count(self) -> int:
        """Number of sufficient-statistic cells — the O(pairs) size the
        bench asserts is independent of the participant count."""
        return (
            len(self.tally_counts)
            + sum(len(m) * len(self.version_ids) for m in self.rank_counts.values())
            + len(self.bt_counts) * len(self.version_ids) ** 2
        )

    def analysis_bundle(self) -> AnalysisBundle:
        """The batch :func:`analyze_responses` result, rebuilt from counts."""
        tallies = {
            key: QuestionTally(
                question_id=key[0],
                left_version=key[1],
                right_version=key[2],
                left_count=counts.get("left", 0),
                right_count=counts.get("right", 0),
                same_count=counts.get("same", 0),
            )
            for key, counts in self.tally_counts.items()
        }
        rankings = {}
        for question_id in self.question_ids:
            distribution = RankingDistribution(
                version_ids=list(self.version_ids),
                participants=self.participants,
            )
            for version in self.version_ids:
                counts = self.rank_counts[question_id][version]
                if self.participants:
                    distribution.matrix[version] = [
                        100.0 * c / self.participants for c in counts
                    ]
                else:
                    distribution.matrix[version] = [0.0] * len(self.version_ids)
            rankings[question_id] = distribution
        return AnalysisBundle(
            tallies=tallies,
            rankings=rankings,
            behavior=None,
            participants=self.participants,
        )


class OnlineQualityScreen:
    """The first-pass half of streaming quality control.

    Runs :class:`~repro.core.quality.QualityControl`'s individual screening
    layers on each row in upload order (the batch code path itself, so the
    decision is the batch decision), records drops in that order, and
    accumulates the majority-vote tallies over survivors' non-control
    answers. The majority *verdicts* are only read in the second pass, when
    the tallies are final — identical to the batch pass, because the
    strict-majority rule (``most_common(2)`` with a tie carrying no
    consensus) is a pure function of the final counts.
    """

    def __init__(self, config: Optional[QualityConfig], expected_answers: int):
        self.control = QualityControl(config)
        self.config = self.control.config
        self.expected_answers = expected_answers
        self.individual_drops: List[DropRecord] = []
        self.survivors = 0
        self.majority_tallies: Dict[Tuple[str, str], Counter] = {}

    def observe(self, result: ParticipantResult) -> Optional[DropRecord]:
        """Screen one upload; returns the drop record when it fails."""
        drop = self.control._screen_individual(result, self.expected_answers)
        if drop is not None:
            self.individual_drops.append(drop)
            return drop
        self.survivors += 1
        if self.config.enable_majority_vote:
            for answer in result.answers:
                if answer.is_control:
                    continue
                key = (answer.integrated_id, answer.question_id)
                self.majority_tallies.setdefault(key, Counter())[
                    answer.answer
                ] += 1
        return None

    def majority_votes(self) -> Dict[Tuple[str, str], str]:
        """Consensus per cell from the running tallies (ties carry none)."""
        majority: Dict[Tuple[str, str], str] = {}
        for key, counter in self.majority_tallies.items():
            ranked = counter.most_common(2)
            if len(ranked) == 1 or ranked[0][1] > ranked[1][1]:
                majority[key] = ranked[0][0]
        return majority


@dataclass
class StreamingQualityReport(QualityReport):
    """A :class:`~repro.core.quality.QualityReport` that does not hold the
    kept results — only their worker ids, in kept order. ``kept`` stays
    empty by construction; every id/count accessor reports the true
    numbers."""

    kept_worker_ids: List[str] = field(default_factory=list)

    @property
    def kept_ids(self) -> List[str]:
        return list(self.kept_worker_ids)

    @property
    def kept_count(self) -> int:
        return len(self.kept_worker_ids)


@dataclass
class StreamingConclusionData:
    """Everything the streamed conclude pass produced."""

    report: StreamingQualityReport
    raw_analysis: AnalysisBundle
    controlled_analysis: AnalysisBundle
    raw_bt: Dict[str, PairwiseCounts]
    controlled_bt: Dict[str, PairwiseCounts]
    uploaded: int
    abandoned: int
    complete: int
    #: The raw aggregator's :meth:`StreamingAggregator.cell_count`.
    cell_count: int


class StreamingCampaignState:
    """One conclude's streaming state: one raw aggregator, one screen.

    The first pass calls ``ingest`` once per stored row in global ``_id``
    (upload) order; :meth:`conclude` is the second pass over the same rows.
    """

    def __init__(
        self,
        question_ids: List[str],
        version_ids: List[str],
        pairs: List[Tuple[str, str]],
        expected_answers: int,
        quality_config: Optional[QualityConfig] = None,
    ):
        self.expected_answers = expected_answers
        self.raw = StreamingAggregator(
            question_ids, version_ids, pairs, expected_answers
        )
        self.screen = OnlineQualityScreen(quality_config, expected_answers)
        self.quality_config = self.screen.config

    @property
    def ingested(self) -> int:
        return self.raw.participants

    def ingest(self, result: ParticipantResult) -> None:
        self.raw.fold(result)
        self.screen.observe(result)

    def conclude(self, rows: Iterable[dict]) -> StreamingConclusionData:
        """Finish quality control and build both analysis bundles.

        ``rows`` streams the stored response rows in upload (``_id``) order
        — exactly what ``stream_collection`` yields. Per row the individual
        screen re-runs (it is deterministic, so this re-partitions the
        stream without storing a drop set), survivors are checked against
        the majority, and kept results fold into the controlled aggregator
        and Bradley-Terry counts in kept order — the same iteration order
        the batch pipeline's ``analyze_responses(report.kept, ...)`` and
        ``counts_from_results`` use.
        """
        config = self.quality_config
        apply_majority = (
            config.enable_majority_vote and self.screen.survivors >= 3
        )
        majority = self.screen.majority_votes() if apply_majority else {}
        controlled = StreamingAggregator(
            self.raw.question_ids,
            self.raw.version_ids,
            self.raw.pairs,
            self.expected_answers,
        )
        majority_drops: List[DropRecord] = []
        kept_worker_ids: List[str] = []
        for row in rows:
            result = ParticipantResult.from_dict(row)
            if (
                self.screen.control._screen_individual(
                    result, self.expected_answers
                )
                is not None
            ):
                continue  # dropped in the first pass; already recorded in order
            if apply_majority:
                cells = 0
                deviations = 0
                for answer in result.answers:
                    if answer.is_control:
                        continue
                    key = (answer.integrated_id, answer.question_id)
                    consensus = majority.get(key)
                    if consensus is None:
                        continue
                    cells += 1
                    if answer.answer != consensus:
                        deviations += 1
                if (
                    cells >= config.majority_min_cells
                    and deviations / cells > config.majority_deviation_fraction
                ):
                    majority_drops.append(
                        DropRecord(
                            result.worker_id,
                            "crowd-wisdom:deviates",
                            f"deviates on {deviations}/{cells} cells",
                        )
                    )
                    continue
            kept_worker_ids.append(result.worker_id)
            controlled.fold(result)
        report = StreamingQualityReport(
            kept=[],
            dropped=list(self.screen.individual_drops) + majority_drops,
            kept_worker_ids=kept_worker_ids,
        )
        return StreamingConclusionData(
            report=report,
            raw_analysis=self.raw.analysis_bundle(),
            controlled_analysis=controlled.analysis_bundle(),
            raw_bt=self.raw.bt_counts,
            controlled_bt=controlled.bt_counts,
            uploaded=self.raw.participants,
            abandoned=self.raw.abandoned,
            complete=self.raw.complete,
            cell_count=self.raw.cell_count(),
        )
