"""In-process traced runs of `itelos run`, instrumented from outside `src/`.

Wrappers are installed where each name is looked up at call time: `cli` for
what it imports by name, `integration` for the steps inside
`integrate_dataset`, the `ETG` class for its methods, and the
`cli._PHASE_FUNCTIONS` table that `phase_run` dispatches through. Each wrapper
either records a span (name, start, end, parent) or, for functions called
hundreds of thousands of times, only counts calls. A count is attributed to
the innermost enclosing span. `traced()` removes every wrapper on exit.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Spans of one run, kept in memory; the first span is the run itself."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def enter(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        counts = self._open[-1].counts
        counts[name] = counts.get(name, 0) + n


def _span_wrapper(tracer: Tracer, name: str, fn, count_arg=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        if count_arg is not None:
            count_arg(tracer, args)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(span)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn, hits: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        result = fn(*args, **kwargs)
        if hits is not None and result:
            tracer.count(hits)
        return result

    return wrapper


def _links_tried(tracer: Tracer, args) -> None:
    tracer.count("integration.resolve.links_tried", len(args[0].pending))


def _wrappers(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every instrumented name."""
    from itelos import alignment, cli, inception, integration, modeling
    from itelos.model import ETG

    def span(name, count_arg=None):
        return lambda fn: _span_wrapper(tracer, name, fn, count_arg)

    def count(name, hits=None):
        return lambda fn: _count_wrapper(tracer, name, fn, hits)

    phases = cli._PHASE_FUNCTIONS
    case_report = span("integration.case_report")
    gate = span("metrics.gate")
    return [
        (phases, "inception", span("cli.phase_inception")),
        (phases, "model", span("cli.phase_model")),
        (phases, "align", span("cli.phase_align")),
        (phases, "integrate", span("cli.phase_integrate")),
        (cli, "parse_purpose", count("inception.parse_purpose.calls")),
        (cli, "collect_resources", span("inception.collect_resources")),
        (cli, "match_resources", span("inception.match_resources")),
        (cli, "build_etg_model", span("modeling.build_etg_model")),
        (cli, "etr_predict", span("alignment.etr_predict")),
        (cli, "generate_etg", span("alignment.generate_etg")),
        (alignment, "name_similarity", count("alignment.name_similarity.calls")),
        (integration, "name_similarity", count("alignment.name_similarity.calls")),
        (cli, "load_etg", span("model.load_etg")),
        (inception, "load_etg", span("model.load_etg")),
        (ETG, "ancestors_of", count("model.ETG.ancestors_of.calls")),
        (ETG, "declared_properties", count("model.ETG.declared_properties.calls")),
        (cli, "validate_eg", span("model.validate_eg")),
        (cli, "read_dataset_rows", span("integration.read_dataset_rows")),
        (integration, "generate_entities", span("integration.generate_entities")),
        (integration, "match_entities", span("integration.match_entities")),
        (
            integration,
            "_same_entity",
            count("integration.same_entity.calls", hits="integration.match.hits"),
        ),
        (integration, "merge_entities", span("integration.merge_entities")),
        (integration, "resolve_pending", span("integration.resolve_pending", _links_tried)),
        (integration, "connected_components", case_report),
        (integration, "missing_ratio", case_report),
        (cli, "connected_components", case_report),
        (cli, "export_eg", span("integration.export_eg")),
        (cli, "eval_purpose", span("integration.eval_purpose")),
        (inception, "gate_from_results", gate),
        (modeling, "evaluate_gate", gate),
        (alignment, "evaluate_gate", gate),
        (integration, "gate_from_results", gate),
    ]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore the
    original objects, also when the block raises."""
    originals = []
    try:
        for owner, attr, make in _wrappers(tracer):
            original = _get(owner, attr)
            originals.append((owner, attr, original))
            _set(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            _set(owner, attr, original)


def run_in_process(args: list[str], tracer: Tracer | None = None) -> tuple[int, float]:
    """`itelos` CLI main in this process, stdout discarded; returns the exit
    code and wall seconds. With a tracer, the whole call is its root span."""
    from itelos import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        if tracer is None:
            code = cli.main(args)
        else:
            with traced(tracer):
                root = tracer.enter("run")
                try:
                    code = cli.main(args)
                finally:
                    tracer.exit(root)
    return code, time.perf_counter() - start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    out: dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - child_time.get(span.id, 0.0)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def total_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, children included."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.end - span.start
    return out


def counts(spans: list[Span]) -> dict[str, int]:
    """Call counts per counter name, plus `<span name>.calls` per span name."""
    out: dict[str, int] = {}
    for span in spans:
        key = f"{span.name}.calls"
        out[key] = out.get(key, 0) + 1
        for name, n in span.counts.items():
            out[name] = out.get(name, 0) + n
    return out
