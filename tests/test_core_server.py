"""Tests for the core server's HTTP protocol."""

import pytest

from repro.core.aggregator import Aggregator, RESPONSES_COLLECTION
from repro.core.analysis import analyze_responses
from repro.core.extension import Answer, ParticipantResult
from repro.core.parameters import Question, TestParameters, WebpageSpec
from repro.core.scheduling import MergeSortScheduler
from repro.core.server import CoreServer
from repro.crowd.behavior import BehaviorTrace
from repro.crowd.platform import CrowdPlatform
from repro.html.parser import parse_html
from repro.net.http import IDEMPOTENCY_HEADER, Request
from repro.net.simnet import SimulatedNetwork
from repro.sim.clock import SimulationEnvironment
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore
from repro.store import ShardedDocumentStore

TRACE = BehaviorTrace(0.5, 0, 2).as_dict()


@pytest.fixture
def stack():
    """Prepared test + server + network."""
    return build_stack(DocumentStore())


def build_stack(database):
    storage = FileStore()
    aggregator = Aggregator(database, storage)
    params = TestParameters(
        test_id="srv-test",
        test_description="server test",
        participant_num=5,
        question=[Question("q1", "Which?")],
        webpages=[
            WebpageSpec(web_path="a", web_page_load=1000),
            WebpageSpec(web_path="b", web_page_load=1000),
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p}</p></body></html>") for p in ("a", "b")
    }
    prepared = aggregator.prepare(params, documents)
    env = SimulationEnvironment()
    platform = CrowdPlatform(env, seed=0)
    server = CoreServer(database, storage, platform=platform)
    network = SimulatedNetwork(env)
    network.attach(server.http)
    return server, network, prepared, database


def upload_payload(worker_id="w1", test_id="srv-test"):
    answers = [
        {
            "integrated_id": "srv-test-pair-000",
            "question_id": "q1",
            "answer": "left",
            "left_version": "a",
            "right_version": "b",
            "is_control": False,
            "behavior": TRACE,
        }
    ]
    return {
        "test_id": test_id,
        "worker_id": worker_id,
        "demographics": {"gender": "female", "age_range": "25-34", "country": "US", "tech_ability": 4},
        "answers": answers,
        "total_minutes": 0.5,
        "revisits": 0,
    }


class TestGetTest:
    def test_returns_test_info_with_integrated_list(self, stack):
        server, network, prepared, _ = stack
        response = network.get(server.url("/tests/srv-test"))
        assert response.ok
        payload = response.json()
        assert payload["test_id"] == "srv-test"
        assert len(payload["integrated"]) == len(prepared.integrated)
        assert payload["parameters"]["participant_num"] == 5

    def test_unknown_test_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/tests/ghost")).status == 404


class TestGetResource:
    def test_serves_integrated_page(self, stack):
        server, network, prepared, _ = stack
        path = prepared.comparison_pairs()[0].storage_path
        response = network.get(server.url(f"/resources/{path}"))
        assert response.ok
        assert response.content_type == "text/html"
        assert "iframe" in response.text

    def test_serves_version_file(self, stack):
        server, network, prepared, _ = stack
        path = prepared.webpage("a").storage_path
        assert network.get(server.url(f"/resources/{path}")).ok

    def test_missing_resource_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/resources/none/here.html")).status == 404


class TestPostResponse:
    def test_stores_upload(self, stack):
        server, network, _, database = stack
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 201
        assert database.collection(RESPONSES_COLLECTION).count({"test_id": "srv-test"}) == 1

    def test_duplicate_submission_409(self, stack):
        server, network, _, _ = stack
        network.post_json(server.url("/responses"), upload_payload())
        response = network.post_json(server.url("/responses"), upload_payload())
        assert response.status == 409

    def test_unknown_test_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(
            server.url("/responses"), upload_payload(test_id="ghost")
        )
        assert response.status == 400

    def test_malformed_payload_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(server.url("/responses"), {"nope": 1})
        assert response.status == 400

    def test_stored_results_reconstruct(self, stack):
        server, network, _, _ = stack
        network.post_json(server.url("/responses"), upload_payload())
        results = server.stored_results("srv-test")
        assert len(results) == 1
        assert isinstance(results[0], ParticipantResult)
        assert results[0].answers[0].answer == "left"
        assert server.response_count("srv-test") == 1

    def test_unparseable_body_400(self, stack):
        server, network, _, database = stack
        request = Request(
            "POST",
            server.url("/responses"),
            headers={"content-type": "application/json"},
            body=b"{not json",
        )
        response, _ = network.exchange(request)
        assert response.status == 400
        assert database.collection(RESPONSES_COLLECTION).count({}) == 0

    def test_stored_results_empty_test(self, stack):
        server, _, _, _ = stack
        assert server.stored_results("srv-test") == []
        assert server.response_count("srv-test") == 0
        assert server.uploaded_worker_ids("srv-test") == []


class TestIdempotency:
    def post(self, server, network, token, worker_id="w1"):
        request = Request.post_json(
            server.url("/responses"),
            upload_payload(worker_id=worker_id),
            **{IDEMPOTENCY_HEADER: token},
        )
        return network.exchange(request)[0]

    def test_replay_deduplicated(self, stack):
        server, network, _, database = stack
        first = self.post(server, network, "w1:1")
        assert first.status == 201
        replay = self.post(server, network, "w1:1")
        # The retried upload whose ack was lost: acknowledged again, stored once.
        assert replay.status == 200
        assert replay.json()["deduplicated"] is True
        assert database.collection(RESPONSES_COLLECTION).count({"test_id": "srv-test"}) == 1

    def test_different_token_same_worker_still_conflicts(self, stack):
        server, network, _, _ = stack
        assert self.post(server, network, "w1:1").status == 201
        # A genuinely new submission from the same worker is a duplicate.
        assert self.post(server, network, "w1:2").status == 409

    def test_token_not_leaked_into_results(self, stack):
        server, network, _, _ = stack
        self.post(server, network, "w1:1")
        result = server.stored_results("srv-test")[0]
        assert not hasattr(result, "idempotency_key")
        assert result.worker_id == "w1"

    def test_uploaded_worker_ids_checkpoint(self, stack):
        server, network, _, _ = stack
        self.post(server, network, "w1:1", worker_id="w1")
        self.post(server, network, "w2:1", worker_id="w2")
        assert sorted(server.uploaded_worker_ids("srv-test")) == ["w1", "w2"]


#: Bodies no JSON route can decode: not UTF-8, not JSON, not an object.
UNDECODABLE_BODIES = [b"\xff\xfe\x00garbage", b"{not json", b"[1, 2]", b"42"]


class TestUndecodableBodies:
    """An undecodable body is the client's error: 400, never 500, and
    nothing behind the route changes."""

    def post_raw(self, server, network, path, body):
        request = Request(
            "POST",
            server.url(path),
            headers={"content-type": "application/json"},
            body=body,
        )
        return network.exchange(request)[0]

    @pytest.mark.parametrize("body", UNDECODABLE_BODIES)
    def test_responses_route(self, stack, body):
        server, network, _, database = stack
        before = database.dump()
        response = self.post_raw(server, network, "/responses", body)
        assert response.status == 400
        assert database.dump() == before

    @pytest.mark.parametrize("body", UNDECODABLE_BODIES)
    def test_schedule_answers_route(self, stack, body):
        server, network, _, database = stack
        scheduler = MergeSortScheduler(["a", "b", "c"])
        server.attach_scheduler(scheduler)
        before = (database.dump(), scheduler.snapshot())
        response = self.post_raw(server, network, "/schedule/answers", body)
        assert response.status == 400
        assert (database.dump(), scheduler.snapshot()) == before

    @pytest.mark.parametrize("body", UNDECODABLE_BODIES)
    def test_tasks_route(self, stack, body):
        server, network, _, database = stack
        before = database.dump()
        response = self.post_raw(server, network, "/tasks", body)
        assert response.status == 400
        assert database.dump() == before
        assert server.platform.jobs == {}


def _malformed(field, value, in_answer=False):
    payload = upload_payload()
    (payload["answers"][0] if in_answer else payload)[field] = value
    return payload


class TestMalformedUploads:
    """A decodable upload with impossible values is rejected with 400 and
    never stored, so quality control and the tallies never see it."""

    @pytest.mark.parametrize(
        "payload",
        [
            _malformed("total_minutes", float("nan")),
            _malformed("total_minutes", float("inf")),
            _malformed("total_minutes", -5),
            _malformed("revisits", -1),
            _malformed("worker_id", 7),
            _malformed("test_id", ["srv-test"]),
            _malformed("answer", "banana", in_answer=True),
        ],
        ids=["nan-minutes", "inf-minutes", "negative-minutes",
             "negative-revisits", "int-worker-id", "list-test-id",
             "unknown-answer"],
    )
    def test_rejected_and_not_stored(self, stack, payload):
        server, network, _, database = stack
        before = database.dump()
        response = network.exchange(
            Request.post_json(server.url("/responses"), payload)
        )[0]
        assert response.status == 400
        assert database.dump() == before


class TestDedupeWork:
    """Work-counter gate: the dedupe probes of an upload examine O(1)
    stored documents, however many rows the test already holds."""

    def examined_per_upload(self, stack, stored_rows, uploads=20):
        server, network, _, database = stack
        responses = database.collection(RESPONSES_COLLECTION)
        for i in range(stored_rows):
            row = upload_payload(worker_id=f"seed{i}")
            row["idempotency_key"] = f"seed{i}:1"
            responses.insert_one(row)
        before = responses.docs_examined
        for i in range(uploads):
            # A fresh upload (both probes miss), then its retried replay
            # (the idempotency probe hits one row).
            for _ in range(2):
                request = Request.post_json(
                    server.url("/responses"),
                    upload_payload(worker_id=f"new{i}"),
                    **{IDEMPOTENCY_HEADER: f"new{i}:1"},
                )
                assert network.exchange(request)[0].status in (200, 201)
        assert responses.count({"test_id": "srv-test"}) == stored_rows + uploads
        return (responses.docs_examined - before) / (2 * uploads)

    def test_examined_per_upload_is_constant_in_stored_rows(self, stack):
        small = self.examined_per_upload(stack, 100)
        _, _, _, database = stack
        database.collection(RESPONSES_COLLECTION).delete_many({})
        large = self.examined_per_upload(stack, 4000)
        assert small == large
        assert large <= 2


class TestGetResults:
    def test_empty_results(self, stack):
        server, network, _, _ = stack
        payload = network.get(server.url("/results/srv-test")).json()
        assert payload["participants"] == 0

    def test_tallies_computed(self, stack):
        server, network, _, _ = stack
        for worker in ("w1", "w2", "w3"):
            network.post_json(server.url("/responses"), upload_payload(worker_id=worker))
        payload = network.get(server.url("/results/srv-test")).json()
        assert payload["participants"] == 3
        tally = next(
            t
            for t in payload["tallies"]
            if (t["left_version"], t["right_version"]) == ("a", "b")
        )
        assert tally["left"] == 3
        assert 0 <= tally["p_value"] <= 1

    def test_unknown_test_404(self, stack):
        server, network, _, _ = stack
        assert network.get(server.url("/results/ghost")).status == 404

    def test_payload_identical_on_both_stores(self):
        payloads = []
        for database in (
            DocumentStore(),
            ShardedDocumentStore(shards=3, spill=(RESPONSES_COLLECTION,)),
        ):
            server, network, _, _ = build_stack(database)
            for index, answer in enumerate(("left", "right", "left", "same")):
                payload = upload_payload(worker_id=f"w{index}")
                payload["answers"][0]["answer"] = answer
                network.post_json(server.url("/responses"), payload)
            payloads.append(network.get(server.url("/results/srv-test")).json())
        assert payloads[0] == payloads[1]
        # The fold serves what the batch analysis computes from the rows.
        bundle = analyze_responses(
            server.stored_results("srv-test"), ["q1"], ["a", "b"]
        )
        assert payloads[1] == {
            "test_id": "srv-test",
            "participants": 4,
            "tallies": [
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
            ],
        }
        assert payloads[1]["tallies"][0]["left"] == 2


class TestPostTask:
    def test_posts_to_platform(self, stack):
        server, network, _, database = stack
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "srv-test", "participants_needed": 10, "reward_usd": 0.1},
        )
        assert response.status == 201
        job_id = response.json()["job_id"]
        assert server.platform.get_job(job_id).test_id == "srv-test"
        record = database.collection("tests").find_one({"test_id": "srv-test"})
        assert record["status"] == "posted"
        assert record["job_id"] == job_id

    def test_missing_fields_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(server.url("/tasks"), {"test_id": "srv-test"})
        assert response.status == 400

    def test_unknown_test_rejected(self, stack):
        server, network, _, _ = stack
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "ghost", "participants_needed": 1, "reward_usd": 0.1},
        )
        assert response.status == 400

    def test_no_platform_503(self):
        database, storage = DocumentStore(), FileStore()
        server = CoreServer(database, storage, platform=None)
        network = SimulatedNetwork()
        network.attach(server.http)
        response = network.post_json(
            server.url("/tasks"),
            {"test_id": "t", "participants_needed": 1, "reward_usd": 0.1},
        )
        assert response.status == 503
