"""Substrate micro-benchmarks.

Not a paper figure: tracks the performance of the building blocks every
experiment leans on (HTML parse/serialize, selector matching, layout,
inlining, document-store queries, end-to-end participant flow), so
regressions in the substrates are visible independently of the figures.
"""

import pytest

from repro.experiments.datasets import (
    WIKIPEDIA_BASE_URL,
    build_wikipedia_page,
    build_wikipedia_resources,
)
from repro.html.inliner import Inliner
from repro.html.parser import parse_html
from repro.html.selectors import query_selector_all
from repro.html.serializer import serialize
from repro.render.layout import LayoutEngine
from repro.storage.documentstore import Collection


@pytest.fixture(scope="module")
def wiki_markup():
    return serialize(build_wikipedia_page())


def test_bench_html_parse(benchmark, wiki_markup):
    document = benchmark(parse_html, wiki_markup)
    assert document.body is not None


def test_bench_html_serialize(benchmark):
    page = build_wikipedia_page()
    markup = benchmark(serialize, page)
    assert "mw-content-text" in markup


def test_bench_selector_query(benchmark):
    page = build_wikipedia_page()
    found = benchmark(query_selector_all, page, "#mw-content-text p")
    assert len(found) > 5


def test_bench_layout(benchmark):
    page = build_wikipedia_page()
    engine = LayoutEngine()
    result = benchmark(engine.layout, page)
    assert result.page_height > 0


def test_bench_inline(benchmark):
    resources = build_wikipedia_resources()

    def inline_fresh():
        page = build_wikipedia_page()
        return Inliner(resources).inline(page, f"{WIKIPEDIA_BASE_URL}/index.html")

    report = benchmark(inline_fresh)
    assert report.failures == []


def test_bench_document_store_query(benchmark):
    collection = Collection("bench")
    collection.insert_many(
        [{"test_id": f"t{i % 20}", "value": i, "worker": f"w{i}"} for i in range(2000)]
    )
    collection.create_index("test_id")
    rows = benchmark(collection.find, {"test_id": "t7", "value": {"$gt": 100}})
    assert rows


def test_bench_participant_flow(benchmark):
    """One full participant pass: download, judge 11 pairs, upload."""
    from repro.core.campaign import Campaign
    from repro.core.extension import make_utility_judge
    from repro.core.parameters import Question, TestParameters, WebpageSpec
    from repro.crowd.judgment import ThurstoneChoiceModel
    from repro.crowd.workers import IN_LAB_MIX, generate_population

    campaign = Campaign(seed=3)
    params = TestParameters(
        test_id="bench-flow",
        test_description="bench",
        participant_num=1,
        question=[Question("q", "Which?")],
        webpages=[
            WebpageSpec(web_path=p, web_page_load=1000)
            for p in ("v0", "v1", "v2", "v3", "v4")
        ],
    )
    documents = {
        p: parse_html(f"<html><body><p>{p} text</p></body></html>")
        for p in ("v0", "v1", "v2", "v3", "v4")
    }
    campaign.prepare(params, documents)
    judge = make_utility_judge(
        {f"v{i}": i * 0.1 for i in range(5)} | {"__contrast__": -9.0},
        ThurstoneChoiceModel(),
    )
    workers = iter(generate_population(10_000, IN_LAB_MIX, seed=0))

    def one_participant():
        worker = next(workers)
        result, client, _ = campaign._simulate_participant(
            worker, judge, 1, campaign.rng
        )
        campaign._upload_result(client, worker, result)

    benchmark(one_participant)
    assert campaign.server.response_count("bench-flow") > 0
