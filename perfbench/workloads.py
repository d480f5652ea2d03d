"""The four benchmark workloads, driven through the public API.

Every workload is a seeded input generator (``setup``), a measured phase
(``run``) and a correctness check (``check``). ``setup`` and ``run`` are
timed separately; ``check`` is not timed. All inputs come from the seed:
the same seed gives the same roster, judge, ground truth and answer flips.

Three workloads run the paper's §IV-A font-size campaign (5 versions,
C(5,2) = 10 comparison pairs + 1 control page per participant) over a
seeded fixed roster with the serial executor; the fourth serves the
adaptive comparison scheduler over HTTP to seeded clients.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.aggregator import RESPONSES_COLLECTION
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.extension import ParticipantResult
from repro.core.scheduling import (
    ANSWER_LEFT,
    ANSWER_RIGHT,
    SchedulerConfig,
    make_scheduler,
)
from repro.core.server import CoreServer
from repro.crowd.workers import FIGURE_EIGHT_TRUSTWORTHY_MIX, generate_population
from repro.experiments.fontsize import (
    MAIN_TEXT_SELECTOR,
    QUESTION,
    FontSizeExperiment,
    build_font_variants,
    build_parameters,
    version_id_for,
    wikipedia_resources_for,
)
from repro.net.profiles import PROFILES
from repro.net.simnet import Client, SimulatedNetwork
from repro.sim.clock import SimulationEnvironment
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore
from spans import SpanRecorder, TracedJudge
from speed import Calibrator

#: Fig. 4's modal rank-A version: the paper's readers prefer 12pt.
EXPECTED_RANK_A = version_id_for(12)

RESPONSES_PATH = "/responses"
ANSWERS_PATH = "/schedule/answers"
PROFILE_NAMES = sorted(PROFILES)
STORE_SHARDS = 4
#: adaptive-serve inverts every ``FLIP_EVERY``-th answer (0.5%), from a
#: seeded phase: a fixed rate rather than a Poisson count of flips, whose
#: seed-to-seed swing would dominate the answers needed. It never inverts
#: two answers on one pair: the fixed period once inverted both direct
#: answers on an adjacent pair (seed 17), and no scheduler can recover the
#: ground truth from two unanimous wrong answers. A due inversion then
#: moves to the next answer on another pair.
FLIP_EVERY = 200
#: Guard against a scheduler that never certifies; the check then fails.
MAX_PARTICIPANTS = 10_000


def _seed_for(seed: int, *labels: int) -> int:
    """A 63-bit seed derived from the run seed and integer labels."""
    return int(np.random.default_rng([seed, *labels]).integers(0, 2**63))


def digest_of(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@dataclass
class Writes:
    """Wall time and status of every participant write in one repetition."""

    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    #: Kernel runs of the calibrator before each write (``speed.py``).
    marks: List[int] = field(default_factory=list)

    def record(self, seconds: float, ok: bool, calibrator: Optional[Calibrator]) -> None:
        self.latencies_s.append(seconds)
        if not ok:
            self.failed += 1
        if calibrator is not None:
            self.marks.append(len(calibrator.kernel_s))
            calibrator.tick()


@dataclass
class Outcome:
    """What a measured phase produced, for the checks and the metrics."""

    writes: Writes
    participants: int
    answers: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    lost_uploads: int = 0
    #: The concluded ``CampaignResult``, kept until ``check`` has read it.
    result: object = None
    details: dict = field(default_factory=dict)


class WriteProbe:
    """Times ``POST /responses`` round trips made through ``Client.post_json``.

    The campaign issues each participant's upload itself, so the benchmark
    wraps the client method for the measured phase only and restores it on
    exit. It is the one probe installed in untraced repetitions. After each
    timed write it gives the calibration kernel its turn (``speed.py``).
    """

    def __init__(self, writes: Writes, calibrator: Optional[Calibrator] = None):
        self.writes = writes
        self.calibrator = calibrator
        self._original = None

    def __enter__(self):
        original = Client.__dict__["post_json"]
        writes = self.writes
        calibrator = self.calibrator

        def post_json(client, url, payload, idempotency_key=None):
            if not url.endswith(RESPONSES_PATH):
                return original(client, url, payload, idempotency_key)
            start = time.perf_counter()
            response = original(client, url, payload, idempotency_key)
            writes.record(time.perf_counter() - start, 200 <= response.status < 300,
                          calibrator)
            return response

        self._original = original
        Client.post_json = post_json
        return self

    def __exit__(self, *exc):
        Client.post_json = self._original
        return False


# -- campaign workloads --------------------------------------------------------


@dataclass
class CampaignState:
    campaign: Campaign
    roster: list
    judge: Callable


class CampaignWorkload:
    """The §IV-A font-size campaign over a seeded fixed roster."""

    def __init__(self, name: str, participants: int, artifact_cache: bool = True,
                 store: str = "memory"):
        self.name = name
        self.participants = participants
        self.artifact_cache = artifact_cache
        self.store = store

    def sizes(self) -> dict:
        return {
            "participants": self.participants,
            "versions": 5,
            "pages_per_participant": 11,
            "artifact_cache": self.artifact_cache,
            "store": self.store,
            "store_shards": STORE_SHARDS if self.store != "memory" else None,
            "executor": "serial",
            "parallelism": 1,
        }

    def setup(self, seed: int) -> CampaignState:
        """Campaign construction + ``Aggregator.prepare`` + roster generation."""
        experiment = FontSizeExperiment(seed=_seed_for(seed, 1))
        campaign = Campaign(
            config=CampaignConfig(
                seed=experiment.seeds.seed("crowd-campaign"),
                parallelism=1,
                executor="serial",
                artifact_cache=self.artifact_cache,
                store=self.store,
                store_shards=STORE_SHARDS,
            )
        )
        documents = build_font_variants()
        campaign.prepare(
            build_parameters(self.participants),
            documents,
            fetcher=wikipedia_resources_for(documents.keys()),
            main_text_selector=MAIN_TEXT_SELECTOR,
            instructions=QUESTION.text,
        )
        roster = generate_population(
            self.participants, FIGURE_EIGHT_TRUSTWORTHY_MIX, seed=_seed_for(seed, 2)
        )
        return CampaignState(campaign, roster, experiment.make_personal_judge())

    def run(self, state: CampaignState, recorder: Optional[SpanRecorder] = None,
            calibrator: Optional[Calibrator] = None) -> Outcome:
        """Roster hand-off to the concluded ``CampaignResult``.

        A traced run passes the judge in wrapped as ``crowd.judgment``.
        """
        judge = state.judge if recorder is None else TracedJudge(state.judge, recorder)
        writes = Writes()
        with WriteProbe(writes, calibrator):
            result = state.campaign.run_with_workers(state.roster, judge)
        return Outcome(writes=writes, participants=len(state.roster), result=result)

    def _stored_rows(self, campaign: Campaign, test_id: str):
        stream = getattr(campaign.database, "stream_collection", None)
        if stream is not None:
            return stream(RESPONSES_COLLECTION, {"test_id": test_id})
        return campaign.database.collection(RESPONSES_COLLECTION).find(
            {"test_id": test_id}
        )

    def check(self, state: CampaignState, outcome: Outcome) -> None:
        campaign = state.campaign
        result, outcome.result = outcome.result, None
        test_id = campaign.prepared.test_id
        problems = outcome.problems
        roster_ids = [w.worker_id for w in state.roster]
        outcome.lost_uploads = len(campaign.lost_uploads)
        if outcome.lost_uploads:
            problems.append(f"{outcome.lost_uploads} lost uploads")
        stored = campaign.server.response_count(test_id)
        if stored != len(roster_ids):
            problems.append(f"{stored} stored uploads for a roster of {len(roster_ids)}")

        # Recount the controlled tallies from the stored rows.
        kept = set(result.quality_report.kept_ids)
        seen = Counter()
        counts = Counter()
        answers = 0
        for row in self._stored_rows(campaign, test_id):
            row = dict(row)
            row.pop("_id", None)
            upload = ParticipantResult.from_dict(row)
            seen[upload.worker_id] += 1
            answers += len(upload.answers)
            if upload.worker_id not in kept:
                continue
            for answer in upload.answers:
                if not answer.is_control:
                    counts[(answer.question_id, answer.left_version,
                            answer.right_version, answer.answer)] += 1
        if sorted(seen) != sorted(roster_ids) or any(n != 1 for n in seen.values()):
            problems.append("stored uploads are not the roster, each exactly once")
        mirrored = {"left": "right", "right": "left", "same": "same"}
        tallies = []
        for (question, left, right), tally in sorted(result.controlled_analysis.tallies.items()):
            recount = {
                side: counts[(question, left, right, side)]
                + counts[(question, right, left, mirrored[side])]
                for side in ("left", "right", "same")
            }
            reported = {"left": tally.left_count, "right": tally.right_count,
                        "same": tally.same_count}
            if recount != reported:
                problems.append(
                    f"tally {question}/{left}/{right}: reported {reported}, "
                    f"recounted {recount}"
                )
            tallies.append([question, left, right, reported])
        ranking = result.controlled_analysis.rankings[QUESTION.question_id]
        rank_a = ranking.modal_version_at_rank("A")
        if rank_a != EXPECTED_RANK_A:
            problems.append(f"modal rank-A version is {rank_a}, expected {EXPECTED_RANK_A}")
        outcome.answers = answers
        outcome.digest = digest_of({
            "tallies": tallies,
            "ranking": ranking.rows(),
            "kept": sorted(kept),
            "uploaded": result.conclusion.uploaded,
        })
        outcome.details.update(
            network_bytes=campaign.network.stats.bytes_up
            + campaign.network.stats.bytes_down,
            exchanges=campaign.network.stats.requests,
        )
        if campaign.artifacts is not None:
            outcome.details.update(
                artifact_hits=campaign.artifacts.hits,
                artifact_misses=campaign.artifacts.misses,
            )
        stats = getattr(campaign.database, "stats", None)
        if stats is not None:
            wal = stats()
            outcome.details.update(
                wal_records=wal["wal_records"], wal_bytes=wal["wal_bytes"]
            )


# -- adaptive serving ------------------------------------------------------------


@dataclass
class RankingJob:
    """One adaptive ranking job: a server, its scheduler and the ground truth."""

    server: CoreServer
    network: SimulatedNetwork
    scheduler: object
    truth: List[str]
    rng: np.random.Generator
    flip_phase: int


class AdaptiveWorkload:
    """Seeded clients drive ``/schedule/next`` and ``/schedule/answers``.

    Each repetition certifies ``rankings`` independent rankings of
    ``versions`` versions back to back, each against its own seeded
    ground-truth permutation. Every ``FLIP_EVERY``-th answer is inverted,
    never twice on one pair.
    More than one ranking per repetition narrows the seed-to-seed spread of
    the answers needed.
    """

    name = "adaptive-serve"

    def __init__(self, versions: int = 50, rankings: int = 2):
        self.versions = versions
        self.rankings = rankings

    def sizes(self) -> dict:
        return {
            "versions": self.versions,
            "rankings_per_repetition": self.rankings,
            "answer_flip_rate": 1.0 / FLIP_EVERY,
            "scheduler": "adaptive",
        }

    def setup(self, seed: int) -> List[RankingJob]:
        version_ids = [f"v{i:03d}" for i in range(self.versions)]
        jobs = []
        for k in range(self.rankings):
            rng = np.random.default_rng([seed, 100 + k])
            truth = [version_ids[i] for i in rng.permutation(self.versions)]
            server = CoreServer(
                DocumentStore(), FileStore(),
                config=CampaignConfig(seed=_seed_for(seed, 200 + k)),
            )
            network = SimulatedNetwork(SimulationEnvironment())
            network.attach(server.http)
            scheduler = make_scheduler(
                "adaptive", version_ids, SchedulerConfig(seed=_seed_for(seed, 300 + k))
            )
            server.attach_scheduler(scheduler)
            jobs.append(RankingJob(
                server, network, scheduler, truth, rng,
                flip_phase=int(rng.integers(FLIP_EVERY)),
            ))
        return jobs

    def run(self, jobs: List[RankingJob], recorder: Optional[SpanRecorder] = None,
            calibrator: Optional[Calibrator] = None) -> Outcome:
        """First ``/schedule/next`` to the certificate, for every ranking.

        A traced run tags each request's spans with its own trace id.
        """
        writes = Writes()
        outcome = Outcome(writes=writes, participants=0)
        seq = 0
        for job in jobs:
            rank = {v: i for i, v in enumerate(job.truth)}
            server = job.server
            done = False
            participant = 0
            answered = 0
            flip_due = False
            flipped = set()
            while not done and participant < MAX_PARTICIPANTS:
                worker_id = f"w{participant:05d}"
                profile = PROFILE_NAMES[int(job.rng.integers(len(PROFILE_NAMES)))]
                client = Client(job.network, PROFILES[profile], client_id=worker_id)
                next_url = server.url(f"/schedule/next/{worker_id}")
                while True:
                    seq += 1
                    if recorder is not None:
                        recorder.trace_id = f"request-{seq}"
                    served = client.get(next_url)
                    if not served.ok:
                        outcome.problems.append(f"GET next: HTTP {served.status}")
                        done = True
                        break
                    body = served.json()
                    if body["pair"] is None:
                        done = bool(body["done"])
                        break
                    left, right = body["pair"]
                    answer = ANSWER_LEFT if rank[left] < rank[right] else ANSWER_RIGHT
                    answered += 1
                    flip_due = flip_due or (answered + job.flip_phase) % FLIP_EVERY == 0
                    pair = frozenset((left, right))
                    if flip_due and pair not in flipped:
                        answer = ANSWER_RIGHT if answer == ANSWER_LEFT else ANSWER_LEFT
                        flipped.add(pair)
                        flip_due = False
                    seq += 1
                    if recorder is not None:
                        recorder.trace_id = f"request-{seq}"
                    start = time.perf_counter()
                    ack = client.post_json(
                        server.url(ANSWERS_PATH), {"worker_id": worker_id, "answer": answer}
                    )
                    writes.record(time.perf_counter() - start, 200 <= ack.status < 300,
                                  calibrator)
                participant += 1
            outcome.participants += participant
        return outcome

    def check(self, jobs: List[RankingJob], outcome: Outcome) -> None:
        certificates = []
        refits = 0
        for k, job in enumerate(jobs):
            conclusion = job.scheduler.conclusion()
            if conclusion is None or not conclusion.stable:
                outcome.problems.append(f"ranking {k}: no stable certificate")
                continue
            if conclusion.ranking != job.truth:
                outcome.problems.append(f"ranking {k}: ground-truth ranking not recovered")
            outcome.answers += conclusion.answers_used
            refits += conclusion.refits
            certificates.append({
                "ranking": conclusion.ranking,
                "answers": conclusion.answers_used,
                "history": [list(h) for h in job.scheduler.history],
            })
        outcome.digest = digest_of(certificates)
        outcome.details.update(
            refits=refits,
            network_bytes=sum(
                j.network.stats.bytes_up + j.network.stats.bytes_down for j in jobs
            ),
            exchanges=sum(j.network.stats.requests for j in jobs),
        )


def make_workloads() -> Dict[str, object]:
    """The benchmark's workloads at their measured sizes."""
    return {
        "cached-batch": CampaignWorkload("cached-batch", participants=1000),
        # Fig. 4's rank-A check is statistical: at 100 participants seed 71
        # concludes font-14pt; at 150 none of seeds 0-299 fails.
        "cold-render": CampaignWorkload("cold-render", participants=150, artifact_cache=False),
        "streaming": CampaignWorkload("streaming", participants=1500, store="sharded-streaming"),
        "adaptive-serve": AdaptiveWorkload(),
    }
