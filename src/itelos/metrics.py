"""Set-overlap metrics and phase-gate evaluation.

All three metrics compare two frozensets alpha and beta of element keys, both
etype names or both "etype.property" keys:

    coverage      = |alpha intersect beta| / |alpha|
    extensiveness = |beta minus alpha|     / |alpha union beta|
    sparsity      = (|alpha| + |beta| - 2 |alpha intersect beta|) / |alpha union beta|

Values are exact rationals (``fractions.Fraction``); they are rendered as
decimals only when a report is serialized, so gate comparisons never involve
floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .model import checked


class MetricError(ValueError):
    """Invalid metric input."""


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


def _sizes(alpha: frozenset[str], beta: frozenset[str]) -> tuple[int, int, int]:
    return len(alpha), len(beta), len(alpha & beta)


def coverage(alpha: frozenset[str], beta: frozenset[str]) -> MetricResult:
    """How much of the requirement set alpha the candidate set beta covers."""
    a, b, i = _sizes(alpha, beta)
    if a == 0:
        raise MetricError("coverage of an empty requirement set is undefined")
    return MetricResult("coverage", a, b, i, Fraction(i, a))


def extensiveness(alpha: frozenset[str], beta: frozenset[str]) -> MetricResult:
    """Share of the combined knowledge contributed by beta alone."""
    a, b, i = _sizes(alpha, beta)
    union = a + b - i
    value = Fraction(0) if union == 0 else Fraction(b - i, union)
    return MetricResult("extensiveness", a, b, i, value)


def sparsity(alpha: frozenset[str], beta: frozenset[str]) -> MetricResult:
    """Symmetric element-level difference between the two sets."""
    a, b, i = _sizes(alpha, beta)
    union = a + b - i
    value = Fraction(0) if union == 0 else Fraction(a + b - 2 * i, union)
    return MetricResult("sparsity", a, b, i, value)


class Gate(NamedTuple):
    """One row of `GATES`: what makes a phase gate."""

    metric: Callable[[frozenset[str], frozenset[str]], MetricResult]
    bounds: tuple[str, ...]  # the `Thresholds` attributes that the gate reports
    outside: str  # the status of a value outside the bounds
    empty: str  # the verdict when the gate has no entries


# In phase order.  Low extensiveness (eval_b) informs and never blocks; eval_d
# asks for full coverage of the required elements by the populated ones.  With
# no entries, eval_a (no dataset to reuse) and eval_d (no query checked) fail.
GATES = {
    "eval_a": Gate(coverage, ("cov_min",), outside="fail", empty="fail"),
    "eval_b": Gate(extensiveness, ("ext_floor",), outside="warn", empty="pass"),
    "eval_c": Gate(sparsity, ("spr_band_min", "spr_band_max"), outside="fail", empty="pass"),
    "eval_d": Gate(coverage, ("cov_required",), outside="fail", empty="fail"),
}


@checked
class Thresholds(NamedTuple):
    """Gate thresholds; all values are rationals in [0, 1]."""

    cov_min: Fraction = Fraction(1, 2)
    ext_floor: Fraction = Fraction(0)
    spr_band_min: Fraction = Fraction(0)
    spr_band_max: Fraction = Fraction(3, 5)
    cov_required = Fraction(1)  # eval_d's bound is fixed: not a field, so no flag or key sets it

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not 0 <= value <= 1:
                raise MetricError(f"threshold {name} must be in [0, 1], got {value}")
        if self.spr_band_min > self.spr_band_max:
            raise MetricError("spr_band_min must not exceed spr_band_max")

    def for_gate(self, gate: str) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in GATES[gate].bounds}


def entry_status(gate: str, value: Fraction, thresholds: Thresholds) -> str:
    """"pass" when `value` lies inside the gate's bounds, otherwise the gate's
    `outside` status: eval_c's bounds are the sparsity band, and every other
    gate's is its one threshold, a lower bound."""
    if gate == "eval_c":
        inside = thresholds.spr_band_min <= value <= thresholds.spr_band_max
    else:
        (floor,) = thresholds.for_gate(gate).values()
        inside = value >= floor
    return "pass" if inside else GATES[gate].outside


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
        """The report as text. What UTF-8 cannot encode, such as an undecodable
        byte of a path name that a note repeats, is backslash-escaped, so the
        text can be written to `eval_*.txt` and printed."""
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
        return ("\n".join(lines) + "\n").encode("utf-8", "backslashreplace").decode("utf-8")


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
    # each entry is "pass" or the gate's one `outside` status
    default = "pass" if entries else GATES[gate].empty
    verdict = next((e.status for e in entries if e.status != "pass"), default)
    return GateReport(
        gate=gate,
        entries=tuple(entries),
        thresholds=thresholds.for_gate(gate),
        verdict=verdict,
        notes=tuple(notes),
    )


def evaluate_gate(
    gate: str,
    pairs: Sequence[tuple[str, str, frozenset[str], frozenset[str]]],
    thresholds: Thresholds,
    *,
    notes: Iterable[str] = (),
    default_note: str | None = None,
) -> GateReport:
    """Compute the gate's metric for every (resource, element kind, alpha,
    beta) tuple and fold the per-entry statuses into a verdict.

    `default_note` is attached to entries that do not pass. Metric errors are
    re-raised with the offending resource id prefixed.
    """
    items = []
    for resource, kind, alpha, beta in pairs:
        try:
            result = GATES[gate].metric(alpha, beta)
        except MetricError as exc:
            raise MetricError(f"{resource}: {exc}") from exc
        items.append((resource, kind, result, default_note))
    return gate_from_results(gate, items, thresholds, notes=notes)
