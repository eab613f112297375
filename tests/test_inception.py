import json
import re
import shutil

import pytest
from hypothesis import given, strategies as st

from itelos.cli import main
from itelos.inception import (
    DuplicateIdError,
    PurposeParseError,
    ResourceCatalog,
    collect_resources,
    eval_inception,
    load_dataset_schema,
    match_resources,
    parse_purpose,
    sidecar_schema_path,
)
from itelos.model import DocumentError, ResourceMeta, read_csv

from helpers import COVID, make_cq, make_etg, make_schema, write_csv


def write_purpose(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def minimal_purpose(**extra):
    doc = {
        "title": "Test purpose",
        "cqs": [{"id": "cq1", "sentence": "what", "etypes": ["hospital"]}],
    }
    doc.update(extra)
    return doc


def popular(popularity):
    """Purpose fields with one dataset of the given popularity."""
    return {"datasets": [{"id": "d", "path": "d.csv", "category": "core", "popularity": popularity}]}


class TestParsePurpose:
    def test_fixture_parses(self, covid_purpose):
        purpose = parse_purpose(covid_purpose)
        assert purpose.slug == "covid_19_monitoring_for_trentino"
        assert len(purpose.cqs) == 3
        assert {r.meta.id for r in purpose.dataset_refs} == {"ds_hospitals", "ds_cases"}
        assert {r.meta.id for r in purpose.ontology_refs} == {"onto_upper", "onto_health"}
        assert "covid_case.hospital" in purpose.property_overrides

    def test_title_required(self, tmp_path):
        doc = minimal_purpose()
        del doc["title"]
        with pytest.raises(PurposeParseError):
            parse_purpose(write_purpose(tmp_path / "p.json", doc))

    def test_needs_one_query(self, tmp_path):
        with pytest.raises(PurposeParseError):
            parse_purpose(write_purpose(tmp_path / "p.json", minimal_purpose(cqs=[])))

    def test_duplicate_cq_ids(self, tmp_path):
        doc = minimal_purpose()
        doc["cqs"].append(dict(doc["cqs"][0]))
        with pytest.raises(DuplicateIdError):
            parse_purpose(write_purpose(tmp_path / "p.json", doc))

    def test_duplicate_resource_ids(self, tmp_path):
        ds = {"id": "same", "path": "a.csv", "category": "core", "popularity": 1}
        doc = minimal_purpose(datasets=[ds, dict(ds, path="b.csv")])
        with pytest.raises(DuplicateIdError):
            parse_purpose(write_purpose(tmp_path / "p.json", doc))

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"title": }')
        with pytest.raises(PurposeParseError) as err:
            parse_purpose(path)
        assert "line" in str(err.value)

    def test_object_override_needs_range(self, tmp_path):
        doc = minimal_purpose(
            property_overrides={"hospital.partner": {"kind": "object"}}
        )
        with pytest.raises(PurposeParseError):
            parse_purpose(write_purpose(tmp_path / "p.json", doc))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"datatype": "integr"}, "unknown datatype 'integr' on beds"),
            ({"range": "hospital"}, "data property beds must not declare a range"),
            (
                {"kind": "object", "range": "hospital", "datatype": "integer"},
                "object property beds must not declare a datatype",
            ),
        ],
        ids=["bad_datatype", "data_with_range", "object_with_datatype"],
    )
    def test_bad_override_rejected_at_parse(self, tmp_path, capsys, spec, message):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        path = root / "purpose.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["property_overrides"]["hospital.beds"] = spec
        write_purpose(path, doc)
        expected = f"{path}: property_overrides['hospital.beds']: {message}"
        with pytest.raises(PurposeParseError) as err:
            parse_purpose(path)
        assert str(err.value) == expected
        assert main(["inception", "--purpose", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"inception error: {expected}\n"

    def test_slash_in_dataset_id_rejected(self, tmp_path):
        # "a/b" would mint a/b/<key>, which dataset "a" can mint too
        ds = {"id": "a/b", "path": "a.csv", "category": "core"}
        path = write_purpose(tmp_path / "p.json", minimal_purpose(datasets=[ds]))
        with pytest.raises(PurposeParseError, match=r"datasets\[0\]: dataset id 'a/b' must not contain '/'"):
            parse_purpose(path)
        onto = {"id": "a/b", "path": "a.json", "category": "core"}
        assert parse_purpose(write_purpose(path, minimal_purpose(ontologies=[onto])))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"cqs": [{"etypes": ["x"]}]}, "cqs[0]: missing 'id'"),
            ({"cqs": [{"id": "q", "etypes": "x"}]}, "cqs[0].etypes must be a list, not a string"),
            (
                {"cqs": [{"id": "q", "etypes": ["x"], "properties": [["y", "p"]]}]},
                "cqs[0]: competency query 'q': property p names etype y",
            ),
            (popular([1]), "datasets[0].popularity must be an integer, not a list"),
            (popular(3.7), "datasets[0].popularity must be an integer, not a number"),
            (popular("12"), "datasets[0].popularity must be an integer, not a string"),
            (popular(True), "datasets[0].popularity must be an integer, not true or false"),
            ({"ontologies": {}}, "ontologies must be a list, not an object"),
            ({"cqs": [{"id": "q", "etypes": ["x"]}] * 2}, "duplicate competency query id 'q'"),
            (
                {"cqs": [{"id": "q", "etypes": ["x"], "properties": [["a"]]}]},
                "cqs[0].properties[0] must be a list of two labels, not ['a']",
            ),
            ({"title": "!!!"}, "label '!!!' has no alphanumeric content"),
        ],
        ids=[
            "cq_without_id", "etypes_string", "cq_invariant", "popularity_list", "popularity_fraction",
            "popularity_text", "popularity_bool", "ontologies_object", "duplicate", "pair_of_one",
            "title_without_slug",
        ],
    )
    def test_errors_name_the_file(self, tmp_path, entry, message):
        path = write_purpose(tmp_path / "p.json", minimal_purpose(**entry))
        with pytest.raises(PurposeParseError) as err:
            parse_purpose(path)
        assert str(err.value).startswith(f"{path}: {message}")


class TestLoadResources:
    def test_sidecar_path(self, tmp_path):
        assert sidecar_schema_path(tmp_path / "x.csv").name == "x.schema.json"

    def test_read_header(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["A", "B"], [["1", "2"]])
        assert next(read_csv(path)) == ["a", "b"]

    def test_load_schema(self, tmp_path):
        csv = write_csv(tmp_path / "d.csv", ["code", "name", "extra"], [])
        sidecar = {
            "etype": "hospital",
            "columns": [
                {"name": "code", "property": "code", "role": "identity"},
                {"name": "name", "property": "name"},
            ],
        }
        (tmp_path / "d.schema.json").write_text(json.dumps(sidecar))
        meta = ResourceMeta(id="d", kind="dataset", category="core", popularity=1)
        schema = load_dataset_schema(csv, meta)
        assert schema.assigned_etype == "hospital"
        roles = {c.name: c.role for c in schema.columns}
        assert roles == {"code": "identity", "name": "attribute", "extra": "attribute"}
        # header columns without a sidecar entry stay unmapped
        assert [c.mapped for c in schema.columns if c.name == "extra"] == [None]

    def test_header_names_that_normalize_alike_name_the_csv(self, tmp_path):
        csv = write_csv(tmp_path / "d.csv", ["code", "name", "Name"], [])
        (tmp_path / "d.schema.json").write_text(json.dumps({"etype": "h", "columns": []}))
        meta = ResourceMeta(id="d", kind="dataset", category="core", popularity=1)
        with pytest.raises(DocumentError) as err:
            load_dataset_schema(csv, meta)
        assert str(err.value) == f"{csv}: header: 'name' and 'Name' both normalize to name"

    def test_sidecar_column_must_exist(self, tmp_path):
        csv = write_csv(tmp_path / "d.csv", ["code"], [])
        sidecar = {"etype": "h", "columns": [{"name": "ghost", "property": "x"}]}
        (tmp_path / "d.schema.json").write_text(json.dumps(sidecar))
        meta = ResourceMeta(id="d", kind="dataset", category="core", popularity=1)
        with pytest.raises(DocumentError):
            load_dataset_schema(csv, meta)

    @pytest.mark.parametrize(
        "column, message",
        [({"property": "x"}, "columns[1]: missing 'name'"), ("code", "columns[1] must be an object, not a string")],
        ids=["column0", "code"],
    )
    def test_sidecar_column_needs_a_name(self, tmp_path, column, message):
        csv = write_csv(tmp_path / "d.csv", ["code"], [])
        sidecar = {"etype": "h", "columns": [{"name": "code"}, column]}
        (tmp_path / "d.schema.json").write_text(json.dumps(sidecar))
        meta = ResourceMeta(id="d", kind="dataset", category="core", popularity=1)
        with pytest.raises(DocumentError, match=re.escape(f"d.schema.json: {message}")):
            load_dataset_schema(csv, meta)

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            (["etype"], "document root must be an object, not a list"),
            ({"etype": "h", "columns": {"name": "code"}}, "columns must be a list, not an object"),
        ],
        ids=["root_list", "columns_object"],
    )
    def test_sidecar_shape_checked(self, tmp_path, sidecar, message):
        csv = write_csv(tmp_path / "d.csv", ["code"], [])
        (tmp_path / "d.schema.json").write_text(json.dumps(sidecar))
        meta = ResourceMeta(id="d", kind="dataset", category="core", popularity=1)
        with pytest.raises(DocumentError) as err:
            load_dataset_schema(csv, meta)
        assert str(err.value) == f"{tmp_path / 'd.schema.json'}: {message}"

    def test_collect_reports_failures(self, covid_purpose, tmp_path):
        purpose = parse_purpose(covid_purpose)
        refs = list(purpose.dataset_refs) + list(purpose.ontology_refs)
        catalog = collect_resources(refs, COVID)
        assert not catalog.errors
        assert set(catalog.datasets) == {"ds_hospitals", "ds_cases"}
        assert set(catalog.ontologies) == {"onto_upper", "onto_health"}
        # now point one ref at a missing file
        broken = collect_resources(refs, tmp_path)
        assert len(broken.errors) == len(refs)
        assert all(e.message for e in broken.errors)


def catalog_of(*resources):
    def of_kind(kind):
        return {r.meta.id: r for r in resources if r.meta.kind == kind}

    return ResourceCatalog(datasets=of_kind("dataset"), ontologies=of_kind("ontology"), errors=())


class TestMatchResources:
    def cqs(self):
        return [make_cq("q", ["hospital", "covid_case"], [("hospital", "name")])]

    def test_ranking_and_exclusion(self):
        ds = make_schema(
            "ds_h",
            "hospital",
            [("name", "name", "attribute")],
            category="common",
            popularity=3,
        )
        other = make_schema("ds_x", "weather_station", ["temp"], category="core")
        ranking = match_resources(self.cqs(), catalog_of(ds, other))
        assert [e.resource_id for e in ranking.all_entries()] == ["ds_h"]
        assert ranking.excluded == (("ds_x", "no overlap with the competency queries"),)

    def test_sort_order_within_category(self):
        # equal etype coverage: property coverage breaks the tie
        full = make_schema("ds_full", "hospital", [("name", "name", "attribute")], category="core")
        partial = make_schema("ds_partial", "hospital", [("beds", "beds", "attribute")], category="core")
        ranking = match_resources(self.cqs(), catalog_of(full, partial))
        assert [e.resource_id for e in ranking.by_category["core"]] == ["ds_full", "ds_partial"]

    def test_popularity_then_id_breaks_ties(self):
        a = make_schema("ds_a", "hospital", [("name", "name", "attribute")], category="core", popularity=1)
        b = make_schema("ds_b", "hospital", [("name", "name", "attribute")], category="core", popularity=5)
        c = make_schema("ds_c", "hospital", [("name", "name", "attribute")], category="core", popularity=5)
        ranking = match_resources(self.cqs(), catalog_of(a, b, c))
        assert [e.resource_id for e in ranking.by_category["core"]] == ["ds_b", "ds_c", "ds_a"]

    def test_categories_partition_entries(self):
        resources = [
            make_schema("d1", "hospital", ["name"], category="common"),
            make_schema("d2", "hospital", ["name"], category="core"),
            make_etg("o1", ["covid_case"], category="contextual", kind="ontology"),
        ]
        ranking = match_resources(self.cqs(), catalog_of(*resources))
        ids = [e.resource_id for e in ranking.all_entries()]
        assert sorted(ids) == ["d1", "d2", "o1"]
        for category, entries in ranking.by_category.items():
            assert all(e.category == category for e in entries)

    def test_irrelevant_resource_never_reorders_others(self):
        a = make_schema("ds_a", "hospital", [("name", "name", "attribute")], category="core")
        b = make_schema("ds_b", "covid_case", ["case_date"], category="core")
        noise = make_etg("o_noise", ["galaxy"], {"galaxy": ["mass"]}, category="core")
        before = match_resources(self.cqs(), catalog_of(a, b))
        after = match_resources(self.cqs(), catalog_of(a, b, noise))
        assert [e.resource_id for e in before.all_entries()] == [
            e.resource_id for e in after.all_entries() if e.resource_id != "o_noise"
        ]
        assert ("o_noise", "no overlap with the competency queries") in after.excluded

    def test_no_property_pairs_leaves_prop_cov_unset(self):
        cqs = [make_cq("q", ["hospital"])]
        ds = make_schema("ds", "hospital", ["name"])
        ranking = match_resources(cqs, catalog_of(ds))
        (entry,) = ranking.all_entries()
        assert entry.property_coverage is None

    @given(st.permutations(["ds_a", "ds_b", "ds_c", "onto_x"]))
    def test_deterministic_total_order(self, ids):
        resources = []
        for rid in ids:
            if rid.startswith("ds"):
                resources.append(make_schema(rid, "hospital", [("name", "name", "attribute")], category="core"))
            else:
                resources.append(make_etg(rid, ["hospital"], {"hospital": ["name"]}, category="core"))
        ranking = match_resources(self.cqs(), catalog_of(*resources))
        again = match_resources(self.cqs(), catalog_of(*reversed(resources)))
        assert ranking == again


class TestEvalInception:
    def test_pass(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        ds = make_schema("ds", "hospital", [("name", "name", "attribute")])
        report = eval_inception(cqs, match_resources(cqs, catalog_of(ds)))
        assert report.verdict == "pass"
        assert [(e.resource, e.elements) for e in report.entries] == [
            ("ds", "etypes"),
            ("ds", "properties"),
        ]

    def test_empty_shortlist_fails(self):
        cqs = [make_cq("q", ["hospital"])]
        report = eval_inception(cqs, match_resources(cqs, catalog_of()))
        assert report.verdict == "fail"
        assert any("nothing can be reused" in n for n in report.notes)

    def test_low_coverage_fails_with_hint(self):
        cqs = [make_cq("q", ["hospital", "covid_case", "region"])]
        ds = make_schema("ds", "hospital", ["name"])
        report = eval_inception(cqs, match_resources(cqs, catalog_of(ds)))
        assert report.verdict == "fail"
        assert report.entries[0].note is not None

    def test_ontologies_not_gated(self):
        cqs = [make_cq("q", ["hospital", "covid_case", "region"])]
        onto = make_etg("onto", ["hospital"], kind="ontology")
        ds = make_schema("ds", "hospital", ["name"])
        cqs2 = [make_cq("q", ["hospital"])]
        report = eval_inception(cqs2, match_resources(cqs2, catalog_of(ds, onto)))
        assert {e.resource for e in report.entries} == {"ds"}
