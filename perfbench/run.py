"""The itelos benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload link_heavy --seed 1 --seconds 20 --trace 0

Untraced (`--trace 0`): set up (generate the corpus, then one untimed warm-up
`itelos run`) several times and report the median set-up time; then run
`itelos run` as its own subprocess, one after another, until `--seconds` have
passed, and report the median time and peak RSS of those runs. Times are
scaled to a reference speed (see reference_seconds). Every run is checked
against the generator's expectations, `eg.nt` must be identical across runs,
and the covid_trentino fixture must reproduce its golden `eg.nt`.

Traced (`--trace 1`): drive `itelos run` in this process, alternating untraced
and traced runs, and report per-layer self times and call counts (see
tracing.py) plus the tracing overhead. Spans are written to
`perfbench/work/<workload>/trace.json` when the run ends.

Human-readable lines go to stdout first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "covid_trentino"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
# Time metrics are wall seconds scaled to the speed at which
# reference_seconds() takes this long (it takes 0.05-0.11 s on a shared
# 2-vCPU Xeon VM, depending on the host's load).
REFERENCE_NOMINAL_S = 0.1
MIN_TIMED_RUNS = 3
CHILD_TIMEOUT_S = 60
GATES = ("eval_a", "eval_b", "eval_c", "eval_d")
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
# The console script `itelos` is `itelos.cli:main`; this calls the same entry
# point without requiring an installed package, then records the process's
# peak resident set (VmHWM). The rusage that os.wait4 returns cannot be used:
# Linux carries the parent's peak RSS across fork and exec into the child's
# ru_maxrss, so it would report this benchmark's own memory.
ITELOS_MAIN = """
import os, sys
from itelos.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""

# Per-layer metrics of a traced run, as (kind, name). "total" and "self"
# report the seconds of the spans called `name`, with or without their child
# spans, as `<name>_s`; "count" reports the counter `name`.
LAYER_METRICS = [
    ("total", "cli.phase_inception"),
    ("total", "cli.phase_model"),
    ("total", "cli.phase_align"),
    ("total", "cli.phase_integrate"),
    ("count", "inception.parse_purpose.calls"),
    ("self", "inception.collect_resources"),
    ("count", "inception.collect_resources.calls"),
    ("self", "inception.match_resources"),
    ("self", "modeling.build_etg_model"),
    ("self", "alignment.etr_predict"),
    ("count", "alignment.name_similarity.calls"),
    ("self", "alignment.generate_etg"),
    ("self", "model.load_etg"),
    ("count", "model.load_etg.calls"),
    ("count", "model.ETG.ancestors_of.calls"),
    ("count", "model.ETG.declared_properties.calls"),
    ("self", "model.validate_eg"),
    ("self", "integration.read_dataset_rows"),
    ("self", "integration.generate_entities"),
    ("self", "integration.match_entities"),
    ("count", "integration.same_entity.calls"),
    ("self", "integration.merge_entities"),
    ("self", "integration.resolve_pending"),
    ("count", "integration.resolve.links_tried"),
    ("self", "integration.case_report"),
    ("self", "integration.export_eg"),
    ("self", "integration.eval_purpose"),
    ("self", "metrics.gate"),
]


class BenchError(Exception):
    """The benchmark cannot run here, or a set-up step failed."""


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python workload with the instruction mix of
    itelos: tuples, strings, a dict index and a sort over a few MiB, exact
    fractions, and an edit-distance loop."""
    start = time.perf_counter()
    rows = [(f"id{i:06d}", i % 97, str(i * 7)) for i in range(25_000)]
    index: dict[int, list[str]] = {}
    for key, bucket, _text in rows:
        index.setdefault(bucket, []).append(key)
    rows.sort(key=lambda row: (row[2], row[0]))
    total = Fraction(0)
    for i in range(1, 4_000):
        total += Fraction(i % 13, 97) * Fraction(1, 2) - Fraction(i % 7, 194)
    for key, _bucket, text in rows[:500]:
        previous = list(range(len(text) + 1))
        for i, a in enumerate(key, start=1):
            current = [i]
            for j, b in enumerate(text, start=1):
                current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (a != b)))
            previous = current
    return time.perf_counter() - start


def scaled_median(seconds: list[float], references: list[float]) -> float:
    """Median of wall seconds converted to the nominal reference speed.

    `references` has one more entry than `seconds`: reference timings taken
    before, between and after the timed steps. Each step is scaled by the mean
    of the two around it. Shared hosts drift in speed by up to 2x within
    minutes; the drift moves a step and its neighbouring references alike.
    """
    return statistics.median(
        elapsed * 2 * REFERENCE_NOMINAL_S / (before + after)
        for elapsed, before, after in zip(seconds, references, references[1:])
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, expected: dict) -> list[str]:
    """Differences between a run's artifacts and the generator's expectations."""
    problems = []
    try:
        report = json.loads((out / "integration_report.json").read_text(encoding="utf-8"))
        summary = report["summary"]
        merged = sum(case["merged_entities"] for case in report["cases"])
        links = 0
        with (out / "eg.nt").open(encoding="utf-8") as handle:
            for line in handle:
                parts = line.split(" ", 3)
                if parts[1] != RDF_TYPE and parts[2].startswith("<urn:itelos:"):
                    links += 1
        verdicts = {
            gate: json.loads((out / f"{gate}.json").read_text(encoding="utf-8"))["verdict"]
            for gate in GATES
        }
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable output in {out}: {exc!r}"]
    actual = {
        "entities": summary["entities"],
        "link_triples": links,
        "merged_entities": merged,
        "unresolved_links": summary["unresolved_links"],
        "gates": verdicts,
    }
    for key, value in actual.items():
        if value != expected[key]:
            problems.append(f"{key}: expected {expected[key]}, got {value}")
    return problems


def run_child(args: list[str], log: Path) -> tuple[int, float, float | None, str]:
    """One `itelos` subprocess: exit code, wall seconds, peak RSS in MiB of
    that process alone (None if it recorded none), and its stderr."""
    peak_file = log.with_suffix(".peak")
    peak_file.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_PEAK_FILE=str(peak_file))
    with log.open("w+b") as handle:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", ITELOS_MAIN, *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=handle,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            child.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        handle.seek(0)
        stderr = handle.read().decode("utf-8", "replace")
    try:
        peak_mib = int(peak_file.read_text(encoding="utf-8")) / 1024
    except (OSError, ValueError):
        peak_mib = None
    return child.returncode, elapsed, peak_mib, stderr


def setup(workload: str, seed: int) -> tuple[Path, dict]:
    """Generate the corpus into a clean work directory."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = corpus.generate(FIXTURE, workload, seed, work / "corpus")
    return work, expected


def run_ok(code: int, stderr: str) -> bool:
    return code == 0 and "Traceback" not in stderr


def golden_check(work: Path) -> list[str]:
    """The fixture run must reproduce tests/fixtures/covid_trentino/golden/eg.nt."""
    out = work / "fixture_out"
    code, _, _, stderr = run_child(corpus.cli_args(FIXTURE, out), work / "fixture.log")
    if not run_ok(code, stderr):
        return [f"fixture run failed with exit {code}: {stderr.strip()[-500:]}"]
    if (out / "eg.nt").read_bytes() != (FIXTURE / "golden" / "eg.nt").read_bytes():
        return ["fixture eg.nt differs from golden/eg.nt"]
    return []


def percentile_with_tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile that still has at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    best = (50, statistics.median(ordered))
    for p in range(50, 100):
        index = (p * n + 99) // 100 - 1  # nearest-rank
        if n - 1 - index >= 10:
            best = (p, ordered[index])
    return best


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setup_times, references = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        work, expected = setup(workload, seed)
        code, _, _, stderr = run_child(
            corpus.cli_args(work / "corpus", work / "out"), work / "warmup.log"
        )
        setup_times.append(time.perf_counter() - start)
        references.append(reference_seconds())
        if not run_ok(code, stderr):
            raise BenchError(f"warm-up run failed with exit {code}: {stderr.strip()[-500:]}")

    problems: list[str] = []
    setup_s = scaled_median(setup_times, references)
    times, rss, references = [], [], [reference_seconds()]
    failed = 0
    digests: set[tuple[str, str]] = set()
    args = corpus.cli_args(work / "corpus", work / "out")
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
        code, elapsed, peak, stderr = run_child(args, work / "run.log")
        references.append(reference_seconds())
        if not run_ok(code, stderr):
            run_problems = [f"exit {code}: {stderr.strip()[-500:]}"]
        elif peak is None:
            run_problems = ["no peak RSS recorded"]
        else:
            run_problems = check_outputs(work / "out", expected)
        if run_problems:
            failed += 1
            problems.extend(run_problems)
        else:
            digests.add(
                (sha256(work / "out" / "eg.nt"), sha256(work / "out" / "integration_report.json"))
            )
            rss.append(peak)
        times.append(elapsed)
    run_s = scaled_median(times, references)
    if len(digests) > 1:
        problems.append(f"outputs differ between runs: {sorted(digests)}")
    problems.extend(golden_check(work))

    p, tail = percentile_with_tail(times)
    print(f"workload {workload} seed {seed} size {expected['size']}")
    print(
        f"run_s {run_s:.4f} s at reference speed; wall median "
        f"{statistics.median(times):.4f} s, p{p} {tail:.4f} s, n={len(times)}"
    )
    if rss:
        print(f"peak_rss_mb median {statistics.median(rss):.2f} MiB, max {max(rss):.2f} MiB")
    print(
        f"setup_s {setup_s:.4f} s at reference speed; wall median "
        f"{statistics.median(setup_times):.4f} s, n={len(setup_times)}"
    )
    print(f"reference loop median {statistics.median(references):.4f} s (nominal {REFERENCE_NOMINAL_S} s)")
    print(f"failed_ratio {failed}/{len(times)} = {failed / len(times):.4f}")
    for eg_digest, report_digest in sorted(digests):
        print(f"sha256 eg.nt {eg_digest}")
        print(f"sha256 integration_report.json {report_digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def layer_values(spans: list[tracing.Span]) -> dict[str, float]:
    times = {"self": tracing.self_times(spans), "total": tracing.total_times(spans)}
    counts = tracing.counts(spans)
    values: dict[str, float] = {}
    for kind, name in LAYER_METRICS:
        if kind == "count":
            values[name] = counts.get(name, 0)
        else:
            values[f"{name}_s"] = times[kind].get(name, 0.0)
    comparisons = counts.get("integration.same_entity.calls", 0)
    hits = counts.get("integration.match.hits", 0)
    values["integration.match.hit_ratio"] = hits / comparisons if comparisons else 0.0
    return values


def traced(workload: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    work, expected = setup(workload, seed)
    plain_out, traced_out = work / "out", work / "out_traced"
    plain_args = corpus.cli_args(work / "corpus", plain_out)
    traced_args = corpus.cli_args(work / "corpus", traced_out)

    problems: list[str] = []
    plain_times, traced_times, runs = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(runs) < 2 or time.perf_counter() < deadline:
        for tracer in (None, tracing.Tracer()):
            out = plain_out if tracer is None else traced_out
            attempted += 1
            try:
                code, elapsed = tracing.run_in_process(
                    plain_args if tracer is None else traced_args, tracer
                )
            except Exception:  # a crashing run is reported as failed, not fatal
                code, elapsed = traceback.format_exc(), 0.0
            run_problems = [f"exit {code}"] if code != 0 else check_outputs(out, expected)
            if run_problems:
                failed += 1
                problems.extend(run_problems)
            if tracer is None:
                plain_times.append(elapsed)
            else:
                traced_times.append(elapsed)
                runs.append(tracer.spans)
    if sha256(plain_out / "eg.nt") != sha256(traced_out / "eg.nt"):
        problems.append("eg.nt differs between traced and untraced runs")

    per_run = [layer_values(spans) for spans in runs]
    metrics = {}
    for metric in per_run[0]:
        values = [run[metric] for run in per_run]
        if metric.endswith("_s"):
            metrics[metric] = {"value": statistics.median(values), "unit": "s"}
            continue
        # counts, and the ratio of two counts, must repeat exactly
        if len(set(values)) > 1:
            problems.append(f"{metric} differs between traced runs: {values}")
        unit = "ratio" if metric.endswith("_ratio") else "count"
        metrics[metric] = {"value": values[0], "unit": unit}
    # each traced run is compared with the untraced run just before it
    ratios = [t / p for t, p in zip(traced_times, plain_times) if t > 0 and p > 0]
    overhead = statistics.median(ratios) if ratios else 0.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    (work / "trace.json").write_text(
        json.dumps(
            [[vars(span) for span in spans] for spans in runs], indent=1, sort_keys=True
        ),
        encoding="utf-8",
    )
    print(f"workload {workload} seed {seed} size {expected['size']}: {len(runs)} traced runs")
    print(
        f"in-process run_s median untraced {statistics.median(plain_times):.4f} s, "
        f"traced {statistics.median(traced_times):.4f} s, overhead x{overhead:.3f}"
    )
    medians = {
        name: statistics.median(tracing.self_times(spans).get(name, 0.0) for spans in runs)
        for name in {span.name for span in runs[0]}
    }
    print("self time by span (median over traced runs):")
    for name, value in sorted(medians.items(), key=lambda item: -item[1]):
        print(f"  {value:9.4f} s  {name}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # the reference loop and the runs it scales share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "itelos" / "cli.py").is_file() or not FIXTURE.is_dir():
        print(f"benchmark needs the itelos sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
