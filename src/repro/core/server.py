"""The core server (§III-C).

"The core server is the key element connecting the test resources, browser
extension, and crowdsourcing platform. It has four main functions: post the
test task to the crowdsourcing platform, provide test resources to the
browser extension, collect responses from participants, and analyze the
final results."

The paper's NodeJS/Ajax server becomes a :class:`~repro.net.http.HttpServer`
on the simulated network, with the paper's three MongoDB collections behind
it. Routes:

====== ============================== ============================================
GET    /tests/:test_id                 test info (id, questions, integrated list)
GET    /resources/*path                a stored file (integrated page, version)
POST   /responses                      upload one participant's results
GET    /results/:test_id               concluded analysis for a test
POST   /tasks                          post a prepared test to the crowd platform
GET    /schedule/next/:worker_id       next comparison pair from the shared scheduler
POST   /schedule/answers               report one answer to the shared scheduler
GET    /schedule/state                 shared-scheduler progress + current ranking
====== ============================== ============================================

The three ``/schedule`` routes answer 503 until a campaign attaches a
shared comparison scheduler (:meth:`CoreServer.attach_scheduler`); they
expose the :class:`~repro.core.scheduling.Scheduler` protocol over HTTP so
that a real (non-simulated) extension could drive an adaptive campaign.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.aggregator import (
    INTEGRATED_COLLECTION,
    RESPONSES_COLLECTION,
    TESTS_COLLECTION,
)
from repro.core.analysis import analyze_responses
from repro.core.config import DEFAULT_HOST, STREAMING_NETWORK_LOG_LIMIT
from repro.core.extension import ParticipantResult
from repro.errors import StorageError, ValidationError
from repro.net.http import IDEMPOTENCY_HEADER, HttpServer, Request, Response, Router
from repro.net.overload import AdmissionController
from repro.obs.metrics import GLOBAL_METRICS
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore

class CoreServer:
    """The Kaleidoscope core server bound to its database and storage."""

    def __init__(
        self,
        database: Optional[DocumentStore] = None,
        storage: Optional[FileStore] = None,
        host: Optional[str] = None,
        platform=None,
        config=None,
        metrics=None,
    ):
        """``config`` is the campaign's :class:`~repro.core.config.
        CampaignConfig`; the server takes its hostname from it unless
        ``host`` overrides it explicitly. ``metrics`` is the campaign's
        registry for the server-side counters (uploads, dedupe hits,
        resource reads); without an explicitly injected registry the
        counters are skipped, keeping the per-request path free of even
        no-op accounting."""
        if database is None:
            raise ValidationError("CoreServer requires a database")
        if storage is None:
            raise ValidationError("CoreServer requires a storage FileStore")
        if host is None:
            host = config.host if config is not None else DEFAULT_HOST
        self.database = database
        #: Streaming campaign state attached by a ``sharded-streaming``
        #: campaign; every accepted upload is folded into it at ingest time.
        self.streaming = None
        #: Shared comparison scheduler attached by a scheduled campaign;
        #: serves the ``/schedule`` routes.
        self.scheduler = None
        self.storage = storage
        self.platform = platform
        self.config = config
        self._counting = metrics is not None
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        streaming = bool(getattr(config, "streaming", False))
        self.http = HttpServer(
            host,
            self._build_router(),
            # Streaming campaigns bound every O(requests) diagnostic; the
            # request log keeps a recent window, aggregates stay in metrics.
            request_log_limit=STREAMING_NETWORK_LOG_LIMIT if streaming else None,
        )
        # The overload control plane guards every route when configured.
        # Built purely from the frozen config, so each process-pool worker
        # and fleet redelivery reconstructs an identical controller; the
        # campaign attaches the arrival-derived LoadSignal before the first
        # participant session.
        overload = getattr(config, "overload", None) if config is not None else None
        if overload is not None:
            self.http.admission = AdmissionController(overload, metrics=metrics)

    # -- plumbing ---------------------------------------------------------

    def attach_streaming(self, state) -> None:
        """Attach a :class:`~repro.store.stream.StreamingCampaignState`.

        From this point every accepted upload for the state's test is folded
        into its aggregates as part of the POST /responses handler."""
        self.streaming = state

    def attach_scheduler(self, scheduler) -> None:
        """Attach a shared :class:`~repro.core.scheduling.Scheduler`.

        From this point the ``/schedule`` routes serve comparison pairs
        from — and report answers to — this scheduler. A scheduled campaign
        attaches its scheduler before the first participant session."""
        self.scheduler = scheduler

    def _build_router(self) -> Router:
        router = Router()
        router.get("/tests/:test_id", self._handle_get_test)
        router.get("/resources/*path", self._handle_get_resource)
        router.post("/responses", self._handle_post_response)
        router.get("/results/:test_id", self._handle_get_results)
        router.post("/tasks", self._handle_post_task)
        router.get("/schedule/next/:worker_id", self._handle_schedule_next)
        router.post("/schedule/answers", self._handle_schedule_answer)
        router.get("/schedule/state", self._handle_schedule_state)
        return router

    @property
    def host(self) -> str:
        return self.http.host

    def url(self, path: str) -> str:
        """Absolute URL for a server path."""
        return f"http://{self.host}{path}"

    # -- function 2: provide test resources ----------------------------------

    def _handle_get_test(self, request: Request) -> Response:
        test_id = request.params["test_id"]
        record = self.database.collection(TESTS_COLLECTION).find_one({"test_id": test_id})
        if record is None:
            return Response.not_found(f"test {test_id!r}")
        integrated = self.database.collection(INTEGRATED_COLLECTION).find(
            {"test_id": test_id}
        )
        record.pop("_id", None)
        for row in integrated:
            row.pop("_id", None)
        record["integrated"] = integrated
        return Response.json_response(record)

    def _handle_get_resource(self, request: Request) -> Response:
        path = request.params["path"]
        try:
            content = self.storage.read(path)
        except StorageError:
            return Response.not_found(path)
        decision = getattr(request, "admission", None)
        # Ladder rung 1: shed optional per-request accounting detail first.
        if self._counting and (decision is None or not decision.shed_detail):
            self.metrics.add("server.resource_reads", 1)
        content_type = "text/html" if path.endswith(".html") else "text/plain"
        return Response.text_response(content, content_type)

    # -- function 3: collect responses ---------------------------------------

    def _handle_post_response(self, request: Request) -> Response:
        payload = request.json_object()
        try:
            result = ParticipantResult.from_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            return Response.bad_request(f"malformed response upload: {exc}")
        tests = self.database.collection(TESTS_COLLECTION)
        record = tests.find_one({"test_id": result.test_id})
        if record is None:
            return Response.bad_request(f"unknown test {result.test_id!r}")
        # Ladder rung 2: the deep upload-time quality screen runs whenever
        # an admission controller is installed, but under the "sample-qc"
        # rung (and above) a stable hash lottery skips a fraction of them
        # to shed CPU before the server has to defer or reject.
        decision = getattr(request, "admission", None)
        if decision is not None:
            if decision.qc_skipped:
                if self._counting:
                    self.metrics.add("server.qc_skipped", 1)
            else:
                if self._counting:
                    self.metrics.add("server.qc_checks", 1)
                problem = self._screen_upload(result, record)
                if problem:
                    if self._counting:
                        self.metrics.add("server.qc_rejects", 1)
                    return Response.bad_request(f"quality screen: {problem}")
        responses = self.database.collection(RESPONSES_COLLECTION)
        # Idempotent replay: a retried upload whose first ack was lost in
        # flight carries the same client-generated token; answer "stored"
        # again without writing a second row.
        token = request.headers.get(IDEMPOTENCY_HEADER, "")
        if token:
            replay = responses.find_one(
                {"test_id": result.test_id, "idempotency_key": token}
            )
            if replay is not None:
                if self._counting:
                    self.metrics.add("server.dedupe_hits", 1)
                return Response.json_response(
                    {
                        "status": "stored",
                        "worker_id": result.worker_id,
                        "deduplicated": True,
                    },
                    status=200,
                )
        duplicate = responses.find_one(
            {"test_id": result.test_id, "worker_id": result.worker_id}
        )
        if duplicate is not None:
            if self._counting:
                self.metrics.add("server.duplicates", 1)
            return Response.json_response(
                {"error": "duplicate submission", "worker_id": result.worker_id},
                status=409,
            )
        row = result.as_dict()
        if token:
            row["idempotency_key"] = token
        responses.insert_one(row)
        # Fold-exactly-once: the dedupe paths above already bounced replays
        # and duplicates, so every row that reaches insert_one is folded into
        # the streaming sufficient statistics exactly once.
        if self.streaming is not None and result.test_id == self.streaming.test_id:
            self.streaming.ingest(result)
        if self._counting:
            self.metrics.add("server.uploads", 1)
        return Response.json_response(
            {"status": "stored", "worker_id": result.worker_id}, status=201
        )

    @staticmethod
    def _screen_upload(result: ParticipantResult, record: dict) -> str:
        """Deep quality-control screen for one upload; "" when clean.

        Checks the answers against the test's declared questions and flags
        duplicate (page, question) pairs — the per-upload work the ladder's
        ``sample-qc`` rung sheds under load.
        """
        declared = {
            q.get("question_id")
            for q in record.get("parameters", {}).get("question", [])
        }
        seen = set()
        for answer in result.answers:
            if declared and answer.question_id not in declared:
                return f"unknown question {answer.question_id!r}"
            key = (answer.integrated_id, answer.question_id)
            if key in seen:
                return f"duplicate answer for {key!r}"
            seen.add(key)
        return ""

    # -- shared comparison scheduling ------------------------------------------

    def _handle_schedule_next(self, request: Request) -> Response:
        if self.scheduler is None:
            return Response.json_response(
                {"error": "no shared scheduler attached"}, status=503
            )
        worker_id = request.params["worker_id"]
        pair = self.scheduler.next_pair(worker_id)
        if pair is None:
            return Response.json_response(
                {"pair": None, "done": self.scheduler.done}
            )
        return Response.json_response(
            {"pair": [pair[0], pair[1]], "done": False}
        )

    def _handle_schedule_answer(self, request: Request) -> Response:
        if self.scheduler is None:
            return Response.json_response(
                {"error": "no shared scheduler attached"}, status=503
            )
        payload = request.json_object()
        for key in ("worker_id", "answer"):
            if key not in payload:
                return Response.bad_request(f"missing {key!r}")
        try:
            self.scheduler.report(payload["answer"], payload["worker_id"])
        except ValidationError as exc:
            return Response.bad_request(str(exc))
        if self._counting:
            self.metrics.add("server.schedule_answers", 1)
        return Response.json_response(
            {"status": "recorded", "done": self.scheduler.done}, status=201
        )

    def _handle_schedule_state(self, request: Request) -> Response:
        if self.scheduler is None:
            return Response.json_response(
                {"error": "no shared scheduler attached"}, status=503
            )
        return Response.json_response(
            {
                "scheduler": self.scheduler.name,
                "done": self.scheduler.done,
                "comparisons_used": self.scheduler.comparisons_used,
                "answers": len(self.scheduler.history),
                "ranking": self.scheduler.ranking(),
            }
        )

    # -- function 4: conclude results -------------------------------------------

    def _handle_get_results(self, request: Request) -> Response:
        test_id = request.params["test_id"]
        record = self.database.collection(TESTS_COLLECTION).find_one({"test_id": test_id})
        if record is None:
            return Response.not_found(f"test {test_id!r}")
        results = self.stored_results(test_id)
        if not results:
            return Response.json_response(
                {"test_id": test_id, "participants": 0, "tallies": []}
            )
        question_ids = [q["question_id"] for q in record["parameters"]["question"]]
        version_ids = [v for v in record["version_ids"]]
        bundle = analyze_responses(results, question_ids, version_ids)
        tallies = [
            {
                "question_id": tally.question_id,
                "left_version": tally.left_version,
                "right_version": tally.right_version,
                "left": tally.left_count,
                "right": tally.right_count,
                "same": tally.same_count,
                "p_value": tally.preference_p_value(),
            }
            for tally in bundle.tallies.values()
        ]
        return Response.json_response(
            {
                "test_id": test_id,
                "participants": bundle.participants,
                "tallies": tallies,
            }
        )

    # -- function 1: post the task to the crowdsourcing platform -----------------

    def _handle_post_task(self, request: Request) -> Response:
        if self.platform is None:
            return Response.json_response(
                {"error": "no crowdsourcing platform configured"}, status=503
            )
        payload = request.json_object()
        for key in ("test_id", "participants_needed", "reward_usd"):
            if key not in payload:
                return Response.bad_request(f"missing {key!r}")
        test_id = payload["test_id"]
        if self.database.collection(TESTS_COLLECTION).find_one({"test_id": test_id}) is None:
            return Response.bad_request(f"unknown test {test_id!r}")
        job = self.platform.post_job(
            test_id=test_id,
            participants_needed=int(payload["participants_needed"]),
            reward_usd=float(payload["reward_usd"]),
            instructions=payload.get("instructions", ""),
        )
        self.database.collection(TESTS_COLLECTION).update_one(
            {"test_id": test_id}, {"$set": {"status": "posted", "job_id": job.job_id}}
        )
        return Response.json_response({"job_id": job.job_id}, status=201)

    # -- direct (non-HTTP) reads used by the campaign ----------------------------

    def stored_results(self, test_id: str) -> List[ParticipantResult]:
        """All uploaded participant results for a test."""
        rows = self.database.collection(RESPONSES_COLLECTION).find({"test_id": test_id})
        results = []
        for row in rows:
            row.pop("_id", None)
            results.append(ParticipantResult.from_dict(row))
        return results

    def response_count(self, test_id: str) -> int:
        """Number of uploads so far."""
        return self.database.collection(RESPONSES_COLLECTION).count({"test_id": test_id})

    def uploaded_worker_ids(self, test_id: str) -> List[str]:
        """Worker ids with a stored upload — the campaign's resume checkpoint:
        a crashed run skips these participants instead of re-simulating them.

        ``distinct`` instead of a row scan: the server enforces one row per
        (test, worker) so the two are equivalent, but distinct is served from
        the spill index under the sharded store (no log replay) and from the
        field index in memory mode."""
        return self.database.collection(RESPONSES_COLLECTION).distinct(
            "worker_id", {"test_id": test_id}
        )
