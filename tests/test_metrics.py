import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from itelos.cli import build_parser, resolve_config
from itelos.metrics import (
    GATES,
    MetricError,
    Thresholds,
    as_fraction,
    coverage,
    entry_status,
    evaluate_gate,
    extensiveness,
    fraction_json,
    gate_from_results,
    sparsity,
)

from helpers import COVID, oracle_coverage, oracle_extensiveness, oracle_sparsity


subsets = st.frozensets(st.sampled_from("abcdefgh"), max_size=8)


class TestMetricFunctions:
    def test_known_values(self):
        a, b = frozenset("abc"), frozenset("bcd")
        assert coverage(a, b).value == Fraction(2, 3)
        assert extensiveness(a, b).value == Fraction(1, 4)
        assert sparsity(a, b).value == Fraction(2, 4)

    def test_results_are_fractions(self):
        r = coverage(frozenset("abc"), frozenset("b"))
        assert isinstance(r.value, Fraction)
        assert (r.alpha_size, r.beta_size, r.intersection_size) == (3, 1, 1)

    def test_empty_alpha_coverage_undefined(self):
        with pytest.raises(MetricError, match="coverage of an empty requirement set is undefined"):
            coverage(frozenset(""), frozenset("a"))

    def test_empty_pair_conventions(self):
        assert extensiveness(frozenset(""), frozenset("")).value == 0
        assert sparsity(frozenset(""), frozenset("")).value == 0

    def test_coverage_is_asymmetric(self):
        a, b = frozenset("ab"), frozenset("b")
        assert coverage(a, b).value != coverage(b, a).value

    @given(subsets, subsets)
    def test_bounds(self, a, b):
        if a:
            assert 0 <= coverage(a, b).value <= 1
        assert 0 <= extensiveness(a, b).value <= 1
        assert 0 <= sparsity(a, b).value <= 1

    @given(subsets)
    def test_identity(self, a):
        if a:
            assert coverage(a, a).value == 1
        assert extensiveness(a, a).value == 0
        assert sparsity(a, a).value == 0

    @given(subsets, subsets)
    def test_sparsity_symmetric(self, xs, ys):
        assert sparsity(xs, ys).value == sparsity(ys, xs).value

    @given(subsets, subsets)
    def test_extensiveness_decomposes_sparsity(self, a, b):
        assert extensiveness(a, b).value + extensiveness(b, a).value == sparsity(a, b).value

    @given(subsets, subsets)
    def test_coverage_reconstruction(self, xs, ys):
        if not xs:
            return
        assert coverage(xs, ys).value * len(xs) == len(xs & ys)

    def test_exhaustive_against_oracle(self):
        universe = "abcd"
        all_subsets = [
            frozenset(c)
            for n in range(len(universe) + 1)
            for c in itertools.combinations(universe, n)
        ]
        for xs, ys in itertools.product(all_subsets, repeat=2):
            if xs:
                assert coverage(xs, ys).value == oracle_coverage(set(xs), set(ys))
            assert extensiveness(xs, ys).value == oracle_extensiveness(set(xs), set(ys))
            assert sparsity(xs, ys).value == oracle_sparsity(set(xs), set(ys))


class TestAsFraction:
    def test_conversions(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(2) == 2
        assert as_fraction("3/7") == Fraction(3, 7)
        assert as_fraction(0.6) == Fraction(3, 5)
        assert as_fraction(0.99) == Fraction(99, 100)

    def test_rejects_bool_and_none(self):
        with pytest.raises(MetricError):
            as_fraction(True)
        with pytest.raises(MetricError):
            as_fraction(None)

    def test_fraction_json(self):
        assert fraction_json(Fraction(1, 2)) == {"num": 1, "den": 2, "decimal": 0.5}


class TestThresholds:
    def test_defaults(self):
        t = Thresholds()
        assert t.cov_min == Fraction(1, 2)
        assert t.ext_floor == 0
        assert t.spr_band_max == Fraction(3, 5)

    def test_from_mapping(self, tmp_path):
        # a config file's threshold values go through as_fraction
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cov_min": 0.75, "ext_floor": "1/10"}))
        args = build_parser().parse_args(
            ["inception", "--purpose", str(COVID / "purpose.json"), "--config", str(config)]
        )
        t = resolve_config(args).thresholds
        assert t.cov_min == as_fraction(0.75) == Fraction(3, 4)
        assert t.ext_floor == as_fraction("1/10") == Fraction(1, 10)

    def test_range_checked(self):
        with pytest.raises(MetricError):
            Thresholds(cov_min=Fraction(3, 2))

    def test_band_order_checked(self):
        with pytest.raises(MetricError):
            Thresholds(spr_band_min=Fraction(1, 2), spr_band_max=Fraction(1, 4))

    def test_for_gate(self):
        t = Thresholds()
        assert t.for_gate("eval_a") == {"cov_min": Fraction(1, 2)}
        assert t.for_gate("eval_d") == {"cov_required": Fraction(1)}
        assert set(t.for_gate("eval_c")) == {"spr_band_min", "spr_band_max"}


class TestEntryStatus:
    def test_eval_a(self):
        t = Thresholds()
        assert entry_status("eval_a", Fraction(1, 2), t) == "pass"
        assert entry_status("eval_a", Fraction(49, 100), t) == "fail"

    def test_eval_b_warns_never_fails(self):
        t = Thresholds(ext_floor=Fraction(1, 4))
        assert entry_status("eval_b", Fraction(1, 4), t) == "pass"
        assert entry_status("eval_b", Fraction(0), t) == "warn"

    def test_eval_c_band_inclusive(self):
        t = Thresholds()
        assert entry_status("eval_c", Fraction(0), t) == "pass"
        assert entry_status("eval_c", Fraction(3, 5), t) == "pass"
        assert entry_status("eval_c", Fraction(61, 100), t) == "fail"

    def test_eval_d_requires_full_coverage(self):
        t = Thresholds()
        assert entry_status("eval_d", Fraction(1), t) == "pass"
        assert entry_status("eval_d", Fraction(99, 100), t) == "fail"


class TestGateReports:
    def test_evaluate_gate_sorting_and_verdict(self):
        report = evaluate_gate(
            "eval_a",
            [
                ("z_ds", "etypes", frozenset("ab"), frozenset("a")),
                ("a_ds", "etypes", frozenset("ab"), frozenset("")),
            ],
            Thresholds(),
        )
        assert [e.resource for e in report.entries] == ["a_ds", "z_ds"]
        assert [e.status for e in report.entries] == ["fail", "pass"]
        assert report.verdict == "fail"

    def test_default_note_only_on_non_pass(self):
        report = evaluate_gate(
            "eval_a",
            [
                ("good", "etypes", frozenset("a"), frozenset("a")),
                ("bad", "etypes", frozenset("ab"), frozenset("")),
            ],
            Thresholds(),
            default_note="try more data",
        )
        by_resource = {e.resource: e.note for e in report.entries}
        assert by_resource == {"good": None, "bad": "try more data"}

    def test_empty_verdict(self):
        verdicts = {gate: evaluate_gate(gate, [], Thresholds()).verdict for gate in GATES}
        assert verdicts == {"eval_a": "fail", "eval_b": "pass", "eval_c": "pass", "eval_d": "fail"}
        assert gate_from_results("eval_d", [], Thresholds()).verdict == "fail"

    def test_metric_error_names_resource(self):
        with pytest.raises(MetricError) as err:
            evaluate_gate("eval_a", [("ds_x", "etypes", frozenset(""), frozenset("a"))], Thresholds())
        assert str(err.value) == "ds_x: coverage of an empty requirement set is undefined"

    def test_warn_verdict_from_eval_b(self):
        report = evaluate_gate(
            "eval_b",
            [("m", "etypes", frozenset("ab"), frozenset("ab"))],
            Thresholds(ext_floor=Fraction(1, 10)),
        )
        assert report.verdict == "warn"

    def test_to_json_shape(self):
        report = evaluate_gate("eval_a", [("ds", "etypes", frozenset("ab"), frozenset("a"))], Thresholds())
        doc = report.to_json()
        assert doc["gate"] == "eval_a"
        assert doc["verdict"] == "pass"
        assert doc["thresholds"] == {"cov_min": {"num": 1, "den": 2, "decimal": 0.5}}
        (entry,) = doc["entries"]
        assert entry["resource"] == "ds"
        assert entry["elements"] == "etypes"
        assert entry["value"] == {"num": 1, "den": 2, "decimal": 0.5}
        assert entry["status"] == "pass"
        assert "note" not in entry

    def test_to_text_format(self):
        report = evaluate_gate(
            "eval_a",
            [("ds", "etypes", frozenset("abc"), frozenset("a"))],
            Thresholds(),
            default_note="find more",
        )
        lines = report.to_text().splitlines()
        assert lines[0] == "gate: eval_a"
        assert lines[1] == "verdict: fail"
        assert "threshold cov_min = 1/2 (0.500000)" in lines
        assert any("ds etypes coverage 1/3 (0.333333) fail  [find more]" in l for l in lines)

    def test_gate_from_results_keeps_failing_note(self):
        from itelos.metrics import MetricResult

        bad = MetricResult("coverage", 2, 0, 0, Fraction(0))
        good = MetricResult("coverage", 1, 1, 1, Fraction(1))
        report = gate_from_results(
            "eval_a",
            [("x", "etypes", bad, "note!"), ("y", "etypes", good, "note!")],
            Thresholds(),
            notes=["overall note"],
        )
        assert report.entries[0].note == "note!"
        assert report.entries[1].note is None
        assert report.notes == ("overall note",)


ORACLE_METRIC = {
    "eval_a": ("coverage", oracle_coverage),
    "eval_b": ("extensiveness", oracle_extensiveness),
    "eval_c": ("sparsity", oracle_sparsity),
    "eval_d": ("coverage", oracle_coverage),
}
small_sets = st.frozensets(st.sampled_from("abcd"), max_size=4)
rationals = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def gate_inputs(draw):
    """A gate, valid thresholds with the band ordered, and 0-6
    (resource, kind, alpha, beta) tuples, alpha non-empty for coverage."""
    gate = draw(st.sampled_from(sorted(GATES)))
    band = sorted([draw(rationals), draw(rationals)])
    thresholds = Thresholds(draw(rationals), draw(rationals), *band)
    alphas = small_sets.filter(bool) if ORACLE_METRIC[gate][0] == "coverage" else small_sets
    entry = st.tuples(st.sampled_from("xyz"), st.sampled_from(["etypes", "properties"]), alphas, small_sets)
    return gate, thresholds, draw(st.lists(entry, max_size=6))


def oracle_status(gate, value, t):
    if gate == "eval_a":
        passed = value >= t.cov_min
    elif gate == "eval_b":
        passed = value >= t.ext_floor
    elif gate == "eval_c":
        passed = t.spr_band_min <= value <= t.spr_band_max
    else:
        passed = value == 1
    if passed:
        return "pass"
    return "warn" if gate == "eval_b" else "fail"


class TestGateTable:
    @given(gate_inputs())
    def test_reports_follow_each_gates_rule(self, case):
        gate, t, pairs = case
        report = evaluate_gate(gate, pairs, t, notes=["n"], default_note="hint")
        name, oracle = ORACLE_METRIC[gate]
        expected = sorted(pairs, key=lambda p: (p[0], p[1]))  # stable: ties keep their order
        assert [(e.resource, e.elements) for e in report.entries] == [(r, k) for r, k, _, _ in expected]
        statuses = []
        for entry, (_, _, alpha, beta) in zip(report.entries, expected):
            value = oracle(set(alpha), set(beta))
            assert entry.result.metric == name
            assert entry.result.value == value
            assert (entry.result.alpha_size, entry.result.beta_size) == (len(alpha), len(beta))
            assert entry.result.intersection_size == len(alpha & beta)
            assert entry.status == oracle_status(gate, value, t)
            assert entry.note == (None if entry.status == "pass" else "hint")
            statuses.append(entry.status)
        bounds = {
            "eval_a": {"cov_min": t.cov_min},
            "eval_b": {"ext_floor": t.ext_floor},
            "eval_c": {"spr_band_min": t.spr_band_min, "spr_band_max": t.spr_band_max},
            "eval_d": {"cov_required": Fraction(1)},
        }[gate]
        assert list(report.thresholds.items()) == list(bounds.items())
        if not statuses:
            verdict = "fail" if gate in ("eval_a", "eval_d") else "pass"
        elif all(status == "pass" for status in statuses):
            verdict = "pass"
        else:
            verdict = "warn" if gate == "eval_b" else "fail"
        assert (report.gate, report.verdict, report.notes) == (gate, verdict, ("n",))
