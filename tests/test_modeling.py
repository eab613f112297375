from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from itelos.inception import match_resources, select_datasets
from itelos.metrics import Thresholds, coverage
from itelos.modeling import (
    FROM_CQ,
    FROM_DATASET,
    build_etg_model,
    eval_modeling,
    model_from_docs,
    provenance_to_json,
)
from itelos.model import (
    ModelError,
    PropertyDef,
    elements,
    etg_to_doc,
    normalize_text,
)

from helpers import make_cq, make_schema

from test_inception import catalog_of


def override(name, kind="data", datatype="string", range_=None):
    return PropertyDef(
        name=name,
        kind=kind,
        datatype=datatype if kind == "data" else None,
        range=normalize_text(range_) if range_ else None,
    )


class TestBuildModel:
    def test_union_of_sources(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        ds = make_schema("d", "covid_case", [("case_id", "case_id", "identity")])
        model = build_etg_model(cqs, [ds])
        etypes, props = elements(model.etg)
        assert etypes.members == {"hospital", "covid_case"}
        assert props.members == {"hospital.name", "covid_case.case_id"}
        assert model.etg.id == "purpose-model"

    def test_provenance_cq_wins(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        ds = make_schema("d", "hospital", [("name", "name", "attribute")])
        model = build_etg_model(cqs, [ds])
        assert model.provenance["hospital"] == FROM_CQ
        assert model.provenance["hospital.name"] == FROM_CQ
        ds_only = build_etg_model([make_cq("q", ["region"])], [ds])
        assert ds_only.provenance["hospital.name"] == FROM_DATASET

    def test_properties_default_to_string(self):
        model = build_etg_model([make_cq("q", ["h"], [("h", "p")])], [])
        (prop,) = model.etg.props_of("h")
        assert prop.kind == "data" and prop.datatype == "string"

    def test_override_retypes(self):
        cqs = [make_cq("q", ["h"], [("h", "beds")])]
        model = build_etg_model(cqs, [], {"h.beds": override("beds", datatype="integer")})
        (prop,) = model.etg.props_of("h")
        assert prop.datatype == "integer"

    def test_link_column_needs_override(self):
        ds = make_schema(
            "d",
            "covid_case",
            [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")],
        )
        first = ds._replace(dataset_id="z")  # the first to link names it, not the least
        message = "covid_case.hospital: link column of dataset 'z' needs an object property override"
        with pytest.raises(ModelError, match=message):
            build_etg_model([make_cq("q", ["covid_case", "hospital"])], [first, ds])

    def test_link_column_with_object_override(self):
        ds = make_schema(
            "d",
            "covid_case",
            [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")],
        )
        model = build_etg_model(
            [make_cq("q", ["covid_case", "hospital"])],
            [ds],
            {"covid_case.hospital": override("hospital", kind="object", range_="hospital")},
        )
        props = {p.name: p for p in model.etg.props_of("covid_case")}
        assert props["hospital"].kind == "object"
        assert props["hospital"].range == "hospital"

    def test_data_override_on_link_column_conflicts(self):
        ds = make_schema("d", "covid_case", [("hospital", "hospital", "link")])
        with pytest.raises(ModelError, match="declared data-valued but dataset 'd' links through it"):
            build_etg_model(
                [make_cq("q", ["covid_case"])],
                [ds],
                {"covid_case.hospital": override("hospital", kind="data")},
            )

    def test_object_range_must_be_modeled(self):
        cqs = [make_cq("q", ["covid_case"], [("covid_case", "hospital")])]
        with pytest.raises(ModelError, match="dangling_range: object property covid_case.hospital targets unknown etype hospital"):
            build_etg_model(cqs, [], {"covid_case.hospital": override("hospital", kind="object", range_="hospital")})

    def test_category_most_reusable_dataset_wins(self):
        common = make_schema("d1", "hospital", ["name"], category="common")
        core = make_schema("d2", "hospital", ["beds"], category="core")
        model = build_etg_model([make_cq("q", ["hospital", "region"])], [common, core])
        assert model.category_of("hospital") == "common"
        # query-only etypes have no dataset to borrow a category from
        assert model.category_of("region") == "contextual"
        assert model.category_of("unknown") == "contextual"

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("pqrs")),
            min_size=1,
            max_size=6,
        )
    )
    def test_queries_always_contained(self, pairs):
        # metamorphic: whatever the queries ask for ends up in the model
        cqs = [
            make_cq(f"q{i}", [etype], [(etype, prop)])
            for i, (etype, prop) in enumerate(pairs)
        ]
        model = build_etg_model(cqs, [])
        for wanted, modeled in zip(elements(cqs), elements(model.etg)):
            assert coverage(wanted, modeled).value == 1

    def test_adding_dataset_never_removes_elements(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        base = make_schema("d1", "hospital", [("name", "name", "attribute")])
        extra = make_schema("d2", "region", [("area", "area", "attribute")])
        small = build_etg_model(cqs, [base])
        grown = build_etg_model(cqs, [base, extra])
        for before, after in zip(elements(small.etg), elements(grown.etg)):
            assert before.members <= after.members

    def test_deterministic_document(self):
        cqs = [make_cq("q", ["b", "a"], [("b", "y"), ("a", "x")])]
        ds = [make_schema("d2", "a", ["z"]), make_schema("d1", "b", ["w"])]
        doc1 = etg_to_doc(build_etg_model(cqs, ds).etg)
        doc2 = etg_to_doc(build_etg_model(list(cqs), list(reversed(ds))).etg)
        assert doc1 == doc2


class TestSelectDatasets:
    def ranking(self):
        cqs = [make_cq("q", ["hospital", "covid_case"])]
        resources = [
            make_schema("ds_common", "hospital", ["name"], category="common", popularity=1),
            make_schema("ds_core_hi", "hospital", ["name"], category="core", popularity=9),
            make_schema("ds_core_lo", "covid_case", ["case_id"], category="core", popularity=1),
            make_schema("ds_ctx", "hospital", ["name"], category="contextual"),
        ]
        return match_resources(cqs, catalog_of(*resources))

    def test_category_then_rank_order(self):
        assert select_datasets(self.ranking()) == [
            "ds_common",
            "ds_core_hi",
            "ds_core_lo",
            "ds_ctx",
        ]

    def test_max_per_category(self):
        assert select_datasets(self.ranking(), max_per_category=1) == [
            "ds_common",
            "ds_core_hi",
            "ds_ctx",
        ]


class TestEvalModeling:
    def test_extension_passes(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        ds = make_schema("d", "region", [("area", "area", "attribute")])
        report = eval_modeling(cqs, build_etg_model(cqs, [ds]))
        assert report.gate == "eval_b"
        assert report.verdict == "pass"
        by_kind = {e.elements: e.result.value for e in report.entries}
        assert by_kind["etypes"] == Fraction(1, 2)
        assert by_kind["properties"] == Fraction(1, 2)

    def test_no_extension_warns(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        report = eval_modeling(
            cqs, build_etg_model(cqs, []), Thresholds(ext_floor=Fraction(1, 10))
        )
        assert report.verdict == "warn"
        assert all(e.note for e in report.entries)


class TestProvenanceDocs:
    def test_round_trip(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        ds = make_schema("d", "hospital", [("beds", "beds", "attribute")], category="common")
        model = build_etg_model(cqs, [ds])
        doc = provenance_to_json(model)
        again = model_from_docs(model.etg, doc)
        assert again.provenance == dict(model.provenance)
        assert again.etype_categories == dict(model.etype_categories)
