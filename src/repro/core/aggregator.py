"""The aggregator: test-data preparation (§III-B).

Given the test parameters and the N test webpages, the aggregator:

1. *compresses* each test webpage into a single self-contained HTML file
   (the SingleFile step — :class:`repro.html.inliner.Inliner`), because the
   browser extension cannot touch the local filesystem and must download
   each version as one unit;
2. *injects* the page-load replay JavaScript built from each version's
   ``web_page_load`` parameter;
3. *generates* one integrated (two-iframe) webpage per unordered pair of
   versions — C(N, 2) of them — plus the quality-control pairs the
   extension will mix in: an identical pair (expected answer "Same") and a
   contrast pair against a deliberately broken variant (4pt main text, a
   known answer);
4. *stores* everything: files in the storage system under the test id,
   records in the three database collections (integrated webpages, test
   info, responses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.integrated import (
    CONTROL_CONTRAST,
    CONTROL_IDENTICAL,
    ORIENTATION_MIRRORED,
    ORIENTATION_NORMAL,
    IntegratedComposer,
    IntegratedWebpage,
)
from repro.core.loadscript import inject_load_script
from repro.core.parameters import TestParameters, WebpageSpec
from repro.core.scheduling import all_pairs
from repro.errors import AggregationError
from repro.html.dom import Document
from repro.html.inliner import Inliner, InlineReport, is_self_contained
from repro.html.mutations import set_font_size
from repro.html.serializer import serialize
from repro.obs.metrics import GLOBAL_METRICS
from repro.storage.documentstore import DocumentStore
from repro.storage.filestore import FileStore

TESTS_COLLECTION = "tests"
INTEGRATED_COLLECTION = "integrated_webpages"
RESPONSES_COLLECTION = "responses"

#: The identity of a stored response: the field groups the server's upload
#: dedupe probes look up by exact equality — one row per participant, and
#: one row per client idempotency token. The aggregator declares each group
#: as a compound index; the sharded store's spill index uses the same groups.
RESPONSE_IDENTITY: Tuple[Tuple[str, ...], ...] = (
    ("test_id", "worker_id"),
    ("test_id", "idempotency_key"),
)

CONTRAST_FONT_PT = 4  # the paper's broken control: 4pt vs 12pt main text


@dataclass
class TestWebpage:
    """One compressed, replay-injected version of the page under test."""

    version_id: str
    spec: WebpageSpec
    document: Document
    storage_path: str = ""
    inline_report: Optional[InlineReport] = None

    @property
    def description(self) -> str:
        return self.spec.web_description or self.version_id


@dataclass
class PreparedTest:
    """Everything the aggregator produced for one test."""

    parameters: TestParameters
    webpages: List[TestWebpage]
    integrated: List[IntegratedWebpage] = field(default_factory=list)

    @property
    def test_id(self) -> str:
        return self.parameters.test_id

    @property
    def version_ids(self) -> List[str]:
        return [w.version_id for w in self.webpages]

    def webpage(self, version_id: str) -> TestWebpage:
        """O(1) lookup by version id.

        The composition step resolves both sides of every C(N,2) pair, so a
        linear scan here is quadratic in the version count; the index is
        rebuilt lazily whenever a lookup misses (the contrast-control version
        is appended after the initial build).
        """
        index = self.__dict__.get("_version_index")
        if index is None or version_id not in index:
            index = {w.version_id: w for w in self.webpages}
            self.__dict__["_version_index"] = index
        try:
            return index[version_id]
        except KeyError:
            raise AggregationError(f"unknown version {version_id!r}") from None

    def comparison_pairs(self) -> List[IntegratedWebpage]:
        """The real (non-control) integrated webpages, normal orientation."""
        return [
            page
            for page in self.integrated
            if not page.is_control and page.orientation == ORIENTATION_NORMAL
        ]

    def orientations_of(self, pair_key: str) -> List[IntegratedWebpage]:
        """All stored orientations for one unordered pair."""
        return [
            page
            for page in self.integrated
            if not page.is_control and page.pair_key == pair_key
        ]

    def control_pairs(self) -> List[IntegratedWebpage]:
        """The quality-control integrated webpages."""
        return [page for page in self.integrated if page.is_control]


def version_id_from_path(web_path: str) -> str:
    """Derive a stable version id from a webpage's folder path."""
    return web_path.strip("/").replace("/", "-") or "version"


class Aggregator:
    """Prepares and stores all test data for a Kaleidoscope test."""

    def __init__(
        self, database: DocumentStore, storage: FileStore, metrics=None
    ):
        self.database = database
        self.storage = storage
        self.metrics = metrics if metrics is not None else GLOBAL_METRICS
        # Index lookups by test id are the server's hot path; the identity
        # indexes make each upload's dedupe probes O(1) in the row count.
        self.database.collection(TESTS_COLLECTION).create_index("test_id", unique=True)
        self.database.collection(INTEGRATED_COLLECTION).create_index("test_id")
        responses = self.database.collection(RESPONSES_COLLECTION)
        responses.create_index("test_id")
        for fields in RESPONSE_IDENTITY:
            responses.create_index(fields)

    # -- main entry ----------------------------------------------------------

    def prepare(
        self,
        parameters: TestParameters,
        documents: Dict[str, Document],
        fetcher=None,
        base_url: str = "http://test.local/",
        main_text_selector: str = "p",
        instructions: str = "",
        mirror_pairs: bool = False,
    ) -> PreparedTest:
        """Run the full §III-B pipeline.

        ``documents`` maps each spec's ``web_path`` to its parsed initial
        document. When ``fetcher`` is given, external resources are inlined
        through it (SingleFile step); without one, documents must already be
        self-contained. ``main_text_selector`` tells the contrast-control
        generator which text to shrink to 4pt. ``mirror_pairs`` additionally
        stores every pair in the swapped orientation so campaigns can
        counterbalance left/right position bias.
        """
        existing = self.database.collection(TESTS_COLLECTION).find_one(
            {"test_id": parameters.test_id}
        )
        if existing is not None:
            raise AggregationError(f"test {parameters.test_id!r} already prepared")

        with self.metrics.timed("aggregator.prepare"):
            webpages = self._compress_webpages(parameters, documents, fetcher, base_url)
            prepared = PreparedTest(parameters=parameters, webpages=webpages)
            self._store_webpages(prepared)
            # One shared two-iframe template serves every composition below
            # (pairs, mirrored orientations, controls): only the id and the
            # frame srcs differ per page, so the skeleton is built once.
            composer = IntegratedComposer(instructions=instructions)
            self._generate_integrated(prepared, composer, mirror_pairs)
            self._generate_controls(prepared, composer, main_text_selector)
            self._store_records(prepared)
        return prepared

    # -- step 1+2: compress & inject ---------------------------------------

    def _compress_webpages(
        self,
        parameters: TestParameters,
        documents: Dict[str, Document],
        fetcher,
        base_url: str,
    ) -> List[TestWebpage]:
        webpages: List[TestWebpage] = []
        for spec in parameters.webpages:
            if spec.web_path not in documents:
                raise AggregationError(
                    f"no document provided for web_path {spec.web_path!r}"
                )
            document = documents[spec.web_path].clone()
            report = None
            if fetcher is not None:
                page_url = base_url.rstrip("/") + "/" + spec.web_path.strip("/") + "/" + spec.web_main_file
                report = Inliner(fetcher).inline(document, page_url)
            if not is_self_contained(document):
                raise AggregationError(
                    f"webpage {spec.web_path!r} still references external "
                    "resources after compression; provide a fetcher that can "
                    "resolve them"
                )
            inject_load_script(document, spec.schedule())
            webpages.append(
                TestWebpage(
                    version_id=version_id_from_path(spec.web_path),
                    spec=spec,
                    document=document,
                    inline_report=report,
                )
            )
        return webpages

    def _store_webpages(self, prepared: PreparedTest) -> None:
        for webpage in prepared.webpages:
            path = f"{prepared.test_id}/versions/{webpage.version_id}.html"
            self.storage.write(path, serialize(webpage.document))
            webpage.storage_path = path

    # -- step 3: integrated pages -------------------------------------------

    def _generate_integrated(
        self, prepared: PreparedTest, composer: IntegratedComposer, mirror_pairs: bool
    ) -> None:
        for index, (left_id, right_id) in enumerate(all_pairs(prepared.version_ids)):
            integrated_id = f"{prepared.test_id}-pair-{index:03d}"
            self._compose_and_store(
                prepared, composer, integrated_id, left_id, right_id
            )
            if mirror_pairs:
                self._compose_and_store(
                    prepared,
                    composer,
                    f"{integrated_id}-m",
                    right_id,
                    left_id,
                    orientation=ORIENTATION_MIRRORED,
                )

    def _generate_controls(
        self, prepared: PreparedTest, composer: IntegratedComposer, main_text_selector: str
    ) -> None:
        # Identical pair: two copies of the first version.
        first = prepared.version_ids[0]
        self._compose_and_store(
            prepared,
            composer,
            f"{prepared.test_id}-control-identical",
            first,
            first,
            control_kind=CONTROL_IDENTICAL,
            expected_answer="same",
        )
        # Contrast pair: a deliberately unreadable 4pt variant vs the first
        # version; the readable side is the known answer.
        contrast = prepared.webpage(first).document.clone()
        changed = set_font_size(contrast, main_text_selector, CONTRAST_FONT_PT)
        if changed == 0:
            raise AggregationError(
                f"contrast control: selector {main_text_selector!r} matched "
                "nothing in the base version"
            )
        contrast_path = f"{prepared.test_id}/versions/__contrast__.html"
        self.storage.write(contrast_path, serialize(contrast))
        contrast_id = "__contrast__"
        prepared.webpages.append(
            TestWebpage(
                version_id=contrast_id,
                spec=prepared.webpage(first).spec,
                document=contrast,
                storage_path=contrast_path,
            )
        )
        self._compose_and_store(
            prepared,
            composer,
            f"{prepared.test_id}-control-contrast",
            contrast_id,
            first,
            control_kind=CONTROL_CONTRAST,
            expected_answer="right",
        )

    def _compose_and_store(
        self,
        prepared: PreparedTest,
        composer: IntegratedComposer,
        integrated_id: str,
        left_id: str,
        right_id: str,
        control_kind: str = "",
        expected_answer: str = "",
        orientation: str = ORIENTATION_NORMAL,
    ) -> IntegratedWebpage:
        left_path = prepared.webpage(left_id).storage_path
        right_path = prepared.webpage(right_id).storage_path
        html = composer.html_for(
            integrated_id, f"/{left_path}", f"/{right_path}"
        )
        storage_path = f"{prepared.test_id}/integrated/{integrated_id}.html"
        self.storage.write(storage_path, html)
        page = IntegratedWebpage(
            integrated_id=integrated_id,
            test_id=prepared.test_id,
            left_version=left_id,
            right_version=right_id,
            storage_path=storage_path,
            control_kind=control_kind,
            expected_answer=expected_answer,
            orientation=orientation,
        )
        prepared.integrated.append(page)
        return page

    # -- step 4: database records ---------------------------------------------

    def _store_records(self, prepared: PreparedTest) -> None:
        self.database.collection(TESTS_COLLECTION).insert_one(
            {
                "test_id": prepared.test_id,
                "parameters": prepared.parameters.as_dict(),
                # The contrast control page is an internal artifact, not a
                # version under test; results must not rank it.
                "version_ids": [
                    v for v in prepared.version_ids if v != "__contrast__"
                ],
                "integrated_ids": [p.integrated_id for p in prepared.integrated],
                "status": "prepared",
            }
        )
        for page in prepared.integrated:
            self.database.collection(INTEGRATED_COLLECTION).insert_one(page.as_dict())

    # -- reads used by the core server ---------------------------------------

    def load_prepared(self, test_id: str) -> Optional[dict]:
        """The stored test record, or None."""
        return self.database.collection(TESTS_COLLECTION).find_one({"test_id": test_id})

    def integrated_pages(self, test_id: str) -> List[IntegratedWebpage]:
        """All integrated webpage records for a test."""
        rows = self.database.collection(INTEGRATED_COLLECTION).find(
            {"test_id": test_id}
        )
        return [IntegratedWebpage.from_dict(row) for row in rows]
