"""Tests of the benchmark itself: generator, output checks and tracing.

They run the pipeline in process on tiny corpora, so they take seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {"link_heavy": 6, "merge_overlap": 8, "ontology_heavy": 60, "bulk_append": 20}


def files(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    size = TINY[workload]
    first = corpus.generate(run.FIXTURE, workload, 7, tmp_path / "a", size)
    second = corpus.generate(run.FIXTURE, workload, 7, tmp_path / "b", size)
    corpus.generate(run.FIXTURE, workload, 8, tmp_path / "c", size)
    assert first == second
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_generator_does_not_import_itelos():
    source = (HERE / "corpus.py").read_text(encoding="utf-8")
    assert not any(
        line.startswith(("import itelos", "from itelos")) for line in source.splitlines()
    )


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_expectations_match_output_traced_or_not(tmp_path, workload):
    expected = corpus.generate(run.FIXTURE, workload, 3, tmp_path / "corpus", TINY[workload])
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    code, _ = tracing.run_in_process(corpus.cli_args(tmp_path / "corpus", plain))
    assert code == 0
    assert run.check_outputs(plain, expected) == []
    tracer = tracing.Tracer()
    code, _ = tracing.run_in_process(corpus.cli_args(tmp_path / "corpus", traced), tracer)
    assert code == 0
    assert (plain / "eg.nt").read_bytes() == (traced / "eg.nt").read_bytes()
    assert (plain / "integration_report.json").read_bytes() == (
        traced / "integration_report.json"
    ).read_bytes()
    assert {"run", "cli.phase_integrate", "integration.resolve_pending"} <= {
        span.name for span in tracer.spans
    }


def test_check_outputs_reports_a_wrong_expectation(tmp_path):
    expected = corpus.generate(run.FIXTURE, "link_heavy", 1, tmp_path / "corpus", 4)
    code, _ = tracing.run_in_process(corpus.cli_args(tmp_path / "corpus", tmp_path / "out"))
    assert code == 0
    assert run.check_outputs(tmp_path / "out", dict(expected, link_triples=17)) == [
        "link_triples: expected 17, got 16"
    ]


def test_counters_repeat_exactly(tmp_path):
    corpus.generate(run.FIXTURE, "merge_overlap", 5, tmp_path / "corpus", 10)
    values = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracing.run_in_process(corpus.cli_args(tmp_path / "corpus", tmp_path / "out"), tracer)
        values.append(tracing.counts(tracer.spans))
    assert values[0] == values[1]
    assert values[0]["inception.parse_purpose.calls"] == 5
    assert values[0]["integration.same_entity.calls"] > 0


def current_objects():
    return [tracing._get(owner, attr) for owner, attr, _ in tracing._wrappers(tracing.Tracer())]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = current_objects()
    tracing.run_in_process(corpus.cli_args(run.FIXTURE, tmp_path / "out"), tracing.Tracer())
    assert current_objects() == before
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert current_objects() != before
            raise RuntimeError("stop")
    assert current_objects() == before


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(id=0, name="run", parent=None, start=0.0, end=10.0),
        tracing.Span(id=1, name="a", parent=0, start=1.0, end=5.0),
        tracing.Span(id=2, name="b", parent=1, start=2.0, end=3.0),
        tracing.Span(id=3, name="b", parent=0, start=6.0, end=8.0),
    ]
    assert tracing.self_times(spans) == {"run": 4.0, "a": 3.0, "b": 3.0}
    assert tracing.total_times(spans) == {"run": 10.0, "a": 4.0, "b": 3.0}


def test_fixture_reproduces_golden_output(tmp_path):
    assert run.golden_check(tmp_path) == []


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "peak_rss_mb", "setup_s"}
    corpus.generate(run.FIXTURE, "link_heavy", 1, tmp_path / "corpus", 4)
    tracer = tracing.Tracer()
    tracing.run_in_process(corpus.cli_args(tmp_path / "corpus", tmp_path / "out"), tracer)
    emitted = set(run.layer_values(tracer.spans)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
