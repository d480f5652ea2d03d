"""Streaming aggregation tests: a campaign on the `sharded-streaming` store
must conclude exactly as one on the memory store (and as the batch reference
implementations), across executors, schedulers and crashes."""

import pytest

from tests.test_core_campaign import make_documents, make_judge, make_params

from repro.core.btmodel import counts_from_results, fit_bradley_terry
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import make_utility_judge
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.quality import QualityConfig
from repro.crowd.judgment import ThurstoneChoiceModel
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.errors import CampaignError
from repro.html.parser import parse_html


def result_digest(result):
    """Everything conclusion-relevant, hashable for equality checks."""
    return (
        result.conclusion.to_dict(),
        result.quality_report.kept_ids,
        [(d.worker_id, d.reason, d.detail) for d in result.quality_report.dropped],
        sorted(
            (key, (t.left_count, t.right_count, t.same_count))
            for key, t in result.controlled_analysis.tallies.items()
        ),
        result.early_stop.to_dict() if result.early_stop else None,
    )


def run_campaign(store, participants=25, seed=7, **config_kwargs):
    config = CampaignConfig(seed=seed, store=store, **config_kwargs)
    campaign = Campaign(config=config)
    campaign.prepare(make_params(participants=participants), make_documents())
    result = campaign.run(make_judge(), reward_usd=0.1)
    return campaign, result


class Boom(Exception):
    pass


class TestBatchStreamingIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        batch = run_campaign("memory", executor="thread", parallelism=2)
        streaming = run_campaign(
            "sharded-streaming", executor="thread", parallelism=2
        )
        return batch, streaming

    def test_conclusion_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.conclusion.to_dict() == streaming.conclusion.to_dict()
        assert batch.participants == streaming.participants

    def test_quality_decisions_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.quality_report.kept_count == streaming.quality_report.kept_count
        assert batch.quality_report.kept_ids == streaming.quality_report.kept_ids
        assert [
            (d.worker_id, d.reason, d.detail)
            for d in batch.quality_report.dropped
        ] == [
            (d.worker_id, d.reason, d.detail)
            for d in streaming.quality_report.dropped
        ]

    def test_tallies_and_rankings_identical(self, pair):
        (_, batch), (_, streaming) = pair
        assert batch.raw_analysis.tallies == streaming.raw_analysis.tallies
        assert (
            batch.controlled_analysis.tallies
            == streaming.controlled_analysis.tallies
        )
        for question_id, ranking in batch.raw_analysis.rankings.items():
            assert (
                ranking.matrix
                == streaming.raw_analysis.rankings[question_id].matrix
            )
            assert (
                batch.controlled_analysis.rankings[question_id].matrix
                == streaming.controlled_analysis.rankings[question_id].matrix
            )

    def test_bradley_terry_identical(self, pair):
        (batch_campaign, batch), (stream_campaign, _) = pair
        version_ids = [
            v for v in batch_campaign.prepared.version_ids if v != "__contrast__"
        ]
        batch_counts = counts_from_results(
            batch.controlled_results, "q1", version_ids
        )
        stream_counts = stream_campaign.last_streaming.controlled_bt["q1"]
        assert batch_counts.wins == stream_counts.wins
        assert (
            fit_bradley_terry(batch_counts).scores
            == fit_bradley_terry(stream_counts).scores
        )

    def test_streaming_result_shape(self, pair):
        (_, batch), (stream_campaign, streaming) = pair
        # Conclude keeps only sufficient statistics; raw_results is read
        # back from the WALs on first access and equals the memory rows.
        assert [r.as_dict() for r in streaming.raw_results] == [
            r.as_dict() for r in batch.raw_results
        ]
        assert [r.as_dict() for r in streaming.controlled_results] == [
            r.as_dict() for r in batch.controlled_results
        ]
        assert streaming.participants == 25
        assert streaming.conclusion.uploaded == 25
        assert stream_campaign.last_streaming.uploaded == 25
        assert stream_campaign.database.stats()["spilled_documents"] > 0


class TestExecutorIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        _, result = run_campaign(
            "memory", participants=16, seed=11, executor="serial", parallelism=3
        )
        return result_digest(result)

    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_every_executor_matches_serial_memory(
        self, baseline, store, executor
    ):
        _, result = run_campaign(
            store, participants=16, seed=11, executor=executor, parallelism=3
        )
        assert result_digest(result) == baseline


class TestCrashRecovery:
    @pytest.fixture(scope="class")
    def roster(self):
        return generate_population(12, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=5)

    @pytest.fixture(scope="class")
    def reference(self, roster):
        config = CampaignConfig(seed=9, store="sharded-streaming", parallelism=2)
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        result = campaign.run_with_workers(roster, make_judge())
        return config, result

    def crash_after(self, config, roster, entropy, checkpoints):
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        seen = [0]

        def hook(_checkpoint):
            seen[0] += 1
            if seen[0] == checkpoints:
                raise Boom()

        campaign.checkpoint_hook = hook
        with pytest.raises(Boom):
            campaign.run_with_workers(
                roster, make_judge(), root_entropy=entropy
            )
        return campaign

    def test_checkpoint_resume_identical(self, roster, reference):
        config, ref = reference
        crashed = self.crash_after(
            config, roster, ref.resume_state["root_entropy"], checkpoints=5
        )
        checkpoint = crashed.resume_state()
        assert checkpoint["store"]["shards"] == config.store_shards
        resumed = Campaign(config=config)
        resumed.prepare(make_params(), make_documents())
        result = resumed.run_with_workers(
            roster, make_judge(), resume_from=checkpoint
        )
        assert result_digest(result) == result_digest(ref)

    def test_disk_wal_recovery_refolds_and_resumes(
        self, roster, reference, tmp_path
    ):
        config, ref = reference
        entropy = ref.resume_state["root_entropy"]
        disk_config = config.replace(store_directory=tmp_path)
        crashed = self.crash_after(disk_config, roster, entropy, checkpoints=7)
        crashed.database.close()
        del crashed
        # A new campaign over the same directory recovers the WALs; the
        # resumed fan-out skips the stored rows and conclude folds them all.
        revived = Campaign(config=disk_config)
        revived.prepare(make_params(), make_documents())
        assert revived.server.response_count("campaign-test") == 7
        result = revived.run_with_workers(
            roster, make_judge(), root_entropy=entropy
        )
        assert result_digest(result) == result_digest(ref)

    def test_shard_count_mismatch_rejected(self, roster, reference):
        config, ref = reference
        crashed = self.crash_after(
            config, roster, ref.resume_state["root_entropy"], checkpoints=5
        )
        checkpoint = crashed.resume_state()
        mismatched = Campaign(config=config.replace(store_shards=8))
        mismatched.prepare(make_params(), make_documents())
        with pytest.raises(CampaignError, match="shard"):
            mismatched.run_with_workers(
                roster, make_judge(), resume_from=checkpoint
            )


class TestScheduledOnStreamingStore:
    PAGES = ("p0", "p1", "p2", "p3")

    def run(self, store, scheduler):
        campaign = Campaign(
            config=CampaignConfig(seed=13, store=store, scheduler=scheduler)
        )
        campaign.prepare(
            TestParameters(
                test_id="scheduled-stream",
                test_description="scheduled campaign on both stores",
                participant_num=8,
                question=[Question("q1", "Which looks better?")],
                webpages=[
                    WebpageSpec(web_path=page, web_page_load=1000)
                    for page in self.PAGES
                ],
            ),
            {
                page: parse_html(
                    f"<html><body><div id='m'><p>{page} text</p></div></body></html>"
                )
                for page in self.PAGES
            },
        )
        judge = make_utility_judge(
            {"p0": 1.0, "p1": 0.3, "p2": -0.4, "p3": -1.2, "__contrast__": -5.0},
            ThurstoneChoiceModel(),
        )
        return campaign.run(judge, reward_usd=0.1)

    @pytest.mark.parametrize("scheduler", ["insertion", "merge", "adaptive"])
    def test_matches_memory_digest(self, scheduler):
        # Conclude derives the expected-answer floor from the scheduler on
        # either store, so sort and adaptive schedules fold identically.
        memory = self.run("memory", scheduler)
        streaming = self.run("sharded-streaming", scheduler)
        assert result_digest(streaming) == result_digest(memory)
        assert streaming.conclusion.expected_answers == (
            1 if scheduler == "adaptive" else len(self.PAGES)
        )


class TestStreamingGuards:
    def test_passed_quality_config_matches_memory(self):
        # A quality_config passed to run() applies on both stores.
        passed = QualityConfig(enable_majority_vote=False, max_comparison_minutes=1.0)
        results = {}
        for store in ("memory", "sharded-streaming"):
            campaign = Campaign(config=CampaignConfig(seed=14, store=store))
            campaign.prepare(make_params(participants=12), make_documents())
            results[store] = campaign.run(make_judge(), quality_config=passed)
        default = run_campaign("sharded-streaming", participants=12, seed=14)[1]
        assert result_digest(results["memory"]) == result_digest(
            results["sharded-streaming"]
        )
        assert result_digest(results["sharded-streaming"]) != result_digest(default)

    def test_conclude_with_matching_quality_config_allowed(self):
        quality = QualityConfig(enable_majority_vote=False)
        config = CampaignConfig(
            seed=15, store="sharded-streaming", quality=quality
        )
        campaign = Campaign(config=config)
        campaign.prepare(make_params(participants=4), make_documents())
        result = campaign.run(make_judge(), quality_config=quality)
        assert result.participants == 4

    def test_conclude_without_responses_rejected(self):
        config = CampaignConfig(seed=16, store="sharded-streaming")
        campaign = Campaign(config=config)
        campaign.prepare(make_params(), make_documents())
        with pytest.raises(CampaignError, match="no responses"):
            campaign.conclude(job=None, duration_days=0)


class TestBoundedDiagnostics:
    def test_streaming_caps_network_and_request_logs(self):
        from collections import deque

        from repro.core.config import STREAMING_NETWORK_LOG_LIMIT

        campaign, _ = run_campaign("sharded-streaming", participants=4)
        assert isinstance(campaign.network.log, deque)
        assert campaign.network.log.maxlen == STREAMING_NETWORK_LOG_LIMIT
        assert isinstance(campaign.server.http.request_log, deque)
        assert campaign.server.http.request_log.maxlen == STREAMING_NETWORK_LOG_LIMIT

    def test_memory_mode_keeps_unbounded_lists(self):
        campaign, _ = run_campaign("memory", participants=4)
        assert isinstance(campaign.network.log, list)
        assert isinstance(campaign.server.http.request_log, list)


class TestLazyRawResults:
    @pytest.mark.parametrize("store", ["memory", "sharded-streaming"])
    def test_rows_are_those_stored_at_conclude(self, store):
        campaign, first = run_campaign(store, participants=4, seed=17)
        late = generate_population(
            3, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=18, id_prefix="late"
        )
        second = campaign.run_with_workers(late, make_judge())
        # First read happens after three more uploads landed.
        assert len(first.raw_results) == 4
        assert len(second.raw_results) == 7
        assert [r.worker_id for r in first.controlled_results] == (
            first.quality_report.kept_ids
        )
