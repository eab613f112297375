"""Set-overlap metrics and phase-gate evaluation.

All three metrics compare two element sets alpha and beta of the same kind:

    coverage      = |alpha intersect beta| / |alpha|
    extensiveness = |beta minus alpha|     / |alpha union beta|
    sparsity      = (|alpha| + |beta| - 2 |alpha intersect beta|) / |alpha union beta|

Values are exact rationals (``fractions.Fraction``); they are rendered as
decimals only when a report is serialized, so gate comparisons never involve
floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import ElementSet


class MetricError(ValueError):
    """Invalid metric input."""


class KindMismatchError(MetricError):
    """The two element sets are of different kinds (etypes vs properties)."""


class EmptyAlphaError(MetricError):
    """Coverage of an empty requirement set is undefined and usually signals a
    malformed competency query or schema."""


def as_fraction(value) -> Fraction:
    """Exact Fraction from int, str, Fraction, or float (via shortest repr,
    so 0.6 becomes 3/5 rather than its binary expansion)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MetricError(f"cannot interpret {value!r} as a fraction")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise MetricError(f"cannot interpret {value!r} as a fraction")


def fraction_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator, "decimal": float(value)}


class MetricResult(NamedTuple):
    """One metric evaluation with the set sizes it was computed from."""

    metric: str
    alpha_size: int
    beta_size: int
    intersection_size: int
    value: Fraction

    def to_json(self) -> dict:
        return {**self._asdict(), "value": fraction_json(self.value)}


def _sizes(alpha: ElementSet, beta: ElementSet) -> tuple[int, int, int]:
    if alpha.kind != beta.kind:
        raise KindMismatchError(f"cannot compare {alpha.kind} elements with {beta.kind} elements")
    return len(alpha.members), len(beta.members), len(alpha.members & beta.members)


def coverage(alpha: ElementSet, beta: ElementSet) -> MetricResult:
    """How much of the requirement set alpha the candidate set beta covers."""
    a, b, i = _sizes(alpha, beta)
    if a == 0:
        raise EmptyAlphaError("coverage of an empty requirement set is undefined")
    return MetricResult("coverage", a, b, i, Fraction(i, a))


def extensiveness(alpha: ElementSet, beta: ElementSet) -> MetricResult:
    """Share of the combined knowledge contributed by beta alone."""
    a, b, i = _sizes(alpha, beta)
    union = a + b - i
    value = Fraction(0) if union == 0 else Fraction(b - i, union)
    return MetricResult("extensiveness", a, b, i, value)


def sparsity(alpha: ElementSet, beta: ElementSet) -> MetricResult:
    """Symmetric element-level difference between the two sets."""
    a, b, i = _sizes(alpha, beta)
    union = a + b - i
    value = Fraction(0) if union == 0 else Fraction(a + b - 2 * i, union)
    return MetricResult("sparsity", a, b, i, value)


# The metric each gate applies, in phase order.  eval_d checks that required
# elements are fully covered by the populated ones, hence coverage with a
# threshold of 1.
GATE_METRIC = {
    "eval_a": coverage,
    "eval_b": extensiveness,
    "eval_c": sparsity,
    "eval_d": coverage,
}
GATES = tuple(GATE_METRIC)

# The verdict of a gate with no entries: eval_a (no dataset to reuse) and eval_d
# (no query checked) fail; eval_b and eval_c have nothing to warn about.
EMPTY_VERDICT = {"eval_a": "fail", "eval_b": "pass", "eval_c": "pass", "eval_d": "fail"}

FULL_COVERAGE = Fraction(1)


class _Thresholds(NamedTuple):
    cov_min: Fraction = Fraction(1, 2)
    ext_floor: Fraction = Fraction(0)
    spr_band_min: Fraction = Fraction(0)
    spr_band_max: Fraction = Fraction(3, 5)


class Thresholds(_Thresholds):
    """Gate thresholds; all values are rationals in [0, 1]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0 <= value <= 1:
                raise MetricError(f"threshold {name} must be in [0, 1], got {value}")
        if self.spr_band_min > self.spr_band_max:
            raise MetricError("spr_band_min must not exceed spr_band_max")
        return self

    def for_gate(self, gate: str) -> dict[str, Fraction]:
        if gate == "eval_a":
            return {"cov_min": self.cov_min}
        if gate == "eval_b":
            return {"ext_floor": self.ext_floor}
        if gate == "eval_c":
            return {"spr_band_min": self.spr_band_min, "spr_band_max": self.spr_band_max}
        if gate == "eval_d":
            return {"cov_required": FULL_COVERAGE}
        raise MetricError(f"unknown gate {gate!r}")


def entry_status(gate: str, value: Fraction, thresholds: Thresholds) -> str:
    """Pass/warn/fail status of one metric value under a gate's rule."""
    if gate == "eval_a":
        return "pass" if value >= thresholds.cov_min else "fail"
    if gate == "eval_b":
        # Low extensiveness is informative, never blocking.
        return "pass" if value >= thresholds.ext_floor else "warn"
    if gate == "eval_c":
        in_band = thresholds.spr_band_min <= value <= thresholds.spr_band_max
        return "pass" if in_band else "fail"
    if gate == "eval_d":
        return "pass" if value == FULL_COVERAGE else "fail"
    raise MetricError(f"unknown gate {gate!r}")


class GateEntry(NamedTuple):
    """One evaluated (resource, element kind) pair inside a gate report."""

    resource: str
    elements: str
    result: MetricResult
    status: str
    note: str | None = None

    def to_json(self) -> dict:
        out = {
            "resource": self.resource,
            "elements": self.elements,
            "status": self.status,
            **self.result.to_json(),
        }
        if self.note is not None:
            out["note"] = self.note
        return out


class GateReport(NamedTuple):
    """Outcome of one phase gate; the verdict is a pure function of the entry
    values and the thresholds."""

    gate: str
    entries: tuple[GateEntry, ...]
    thresholds: dict[str, Fraction]
    verdict: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "gate": self.gate,
            "verdict": self.verdict,
            "thresholds": {k: fraction_json(v) for k, v in self.thresholds.items()},
            "entries": [e.to_json() for e in self.entries],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"gate: {self.gate}", f"verdict: {self.verdict}"]
        for key, value in sorted(self.thresholds.items()):
            lines.append(f"threshold {key} = {value} ({float(value):.6f})")
        for entry in self.entries:
            line = (
                f"{entry.resource} {entry.elements} {entry.result.metric} "
                f"{entry.result.value} ({float(entry.result.value):.6f}) {entry.status}"
            )
            if entry.note:
                line += f"  [{entry.note}]"
            lines.append(line)
        lines.extend(self.notes)
        return "\n".join(lines) + "\n"


def gate_from_results(
    gate: str,
    items: Sequence[tuple[str, str, MetricResult, str | None]],
    thresholds: Thresholds,
    *,
    notes: Iterable[str] = (),
) -> GateReport:
    """Assemble a gate report from precomputed metric results.

    `items` are (resource id, element kind, result, note-if-not-passing)
    tuples; entries come out sorted by resource id then element kind.
    """
    if gate not in GATES:
        raise MetricError(f"unknown gate {gate!r}")
    entries = []
    for resource, elements, result, note in sorted(items, key=lambda i: (i[0], i[1])):
        status = entry_status(gate, result.value, thresholds)
        entries.append(
            GateEntry(
                resource=resource,
                elements=elements,
                result=result,
                status=status,
                note=note if status != "pass" else None,
            )
        )
    if not entries:
        verdict = EMPTY_VERDICT[gate]
    elif any(e.status == "fail" for e in entries):
        verdict = "fail"
    elif any(e.status == "warn" for e in entries):
        verdict = "warn"
    else:
        verdict = "pass"
    return GateReport(
        gate=gate,
        entries=tuple(entries),
        thresholds=thresholds.for_gate(gate),
        verdict=verdict,
        notes=tuple(notes),
    )


def evaluate_gate(
    gate: str,
    pairs: Sequence[tuple[str, ElementSet, ElementSet]],
    thresholds: Thresholds,
    *,
    notes: Iterable[str] = (),
    default_note: str | None = None,
) -> GateReport:
    """Compute the gate's metric for every (resource, alpha, beta) pair and
    fold the per-pair statuses into a verdict.

    `default_note` is attached to entries that do not pass. Metric errors are
    re-raised with the offending resource id prefixed.
    """
    if gate not in GATES:
        raise MetricError(f"unknown gate {gate!r}")
    metric = GATE_METRIC[gate]
    items = []
    for resource, alpha, beta in pairs:
        try:
            result = metric(alpha, beta)
        except MetricError as exc:
            raise type(exc)(f"{resource}: {exc}") from exc
        items.append((resource, alpha.kind, result, default_note))
    return gate_from_results(gate, items, thresholds, notes=notes)
