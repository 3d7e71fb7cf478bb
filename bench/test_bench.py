"""Self-tests of the benchmark, at a tiny scale: ``python -m pytest bench``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "search-short": dict(docs=60, min_words=20, max_words=60, batch=30,
                         pool=80, head_per_class=1),
    "search-long": dict(docs=3, min_words=800, max_words=1200, batch=12),
}

# Every metric the benchmark promises, with its unit.
END_TO_END = {
    "setup_s": "s", "query_ms_p50": "ms", "query_ms_p90": "ms", "queries_per_s": "1/s",
    "postings_per_s": "1/s", "index_s": "s", "index_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "index.tokenize_s": "s", "index.build_s": "s", "index.save_s": "s",
    "index.save_bytes": "bytes", "index.load_s": "s", "index.load_share": "ratio",
    "query.parse_us": "us",
    "engine.candidates_us": "us", "engine.candidate_docs": "count",
    "engine.useful_doc_ratio": "ratio", "engine.eval_us_per_doc": "us",
    "engine.rank_us": "us", "engine.snippet_ms": "ms", "engine.source_bytes_read": "bytes",
    "engine.snippet_kept_ratio": "ratio",
    "streams.leaf_reads": "count", "streams.leaf_us_per_read": "us",
    "streams.star_self_us": "us", "streams.wrapper_share": "ratio",
    **{f"operators.{op}.{field}": unit
       for op in ("or_merge", "and_span", "block", "ordered_and", "lowpass", "difference")
       for field, unit in (("reads", "count"), ("outputs", "count"), ("self_us", "us"),
                           ("us_per_read", "us"))},
    "queue.mutations": "count", "queue.comparisons": "count",
    "queue.comparisons_per_mutation": "ratio", "queue.mutations_per_read": "ratio",
    "cli.self_ms": "ms", "trace.overhead_ms_p50": "ms", "trace.overhead_share": "ratio",
}


def tiny(name):
    return dataclasses.replace(workloads.SPECS[name], **TINY[name])


def run(tmp_path, name, seed, trace=False):
    workdir = tmp_path / f"{name}-{seed}-{int(trace)}-{len(os.listdir(tmp_path))}"
    return workloads.run_workload(tiny(name), seed, 0.01, trace, str(workdir))


def inputs(name, seed):
    spec = tiny(name)
    mix, plants = workloads.query_mix(spec)
    corpus = gen.make_corpus(seed, spec.docs, spec.min_words, spec.max_words, plants)
    queries = [gen.query_text(ast) for _, _, ast in workloads.fill_batch(mix, corpus)]
    return corpus.texts, queries


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_same_inputs_and_digests(tmp_path, name):
    assert inputs(name, 5) == inputs(name, 5)
    first, second = run(tmp_path, name, 5), run(tmp_path, name, 5)
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"]


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_other_seed_changes_inputs_and_digests(tmp_path, name):
    texts5, queries5 = inputs(name, 5)
    texts6, queries6 = inputs(name, 6)
    assert texts5 != texts6
    assert queries5 != queries6
    assert run(tmp_path, name, 5)["digest"] != run(tmp_path, name, 6)["digest"]


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_traced_run_matches_untraced(tmp_path, name):
    plain = run(tmp_path, name, 7)
    traced = run(tmp_path, name, 7, trace=True)
    assert traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert set(plain["metrics"]) == set(END_TO_END)
    assert set(traced["metrics"]) == set(PER_LAYER)


def test_queries_parse_back_to_their_ast():
    from minq.query import parse_query

    for name in workloads.SPECS:
        spec = tiny(name)
        mix, plants = workloads.query_mix(spec)
        corpus = gen.make_corpus(3, spec.docs, spec.min_words, spec.max_words, plants)
        for _, _, shape in mix:
            ast = gen.fill(shape, corpus)
            assert parse_query(gen.query_text(ast)) == ast


def test_every_metric_has_a_unit_and_is_declared():
    declared = {n: u for n, (u, _) in workloads.END_TO_END.items()}
    assert declared == END_TO_END
    assert {n: u for n, (u, _) in workloads.PER_LAYER.items()} == PER_LAYER
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        bench = json.load(src)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["better"] == workloads.END_TO_END.get(m["name"], workloads.PER_LAYER.get(m["name"]))[1]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
