import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import itelos
from itelos.alignment import AlignmentPolicy
from itelos.metrics import MetricError, Thresholds
from itelos.model import (
    DATATYPES,
    EG,
    CompetencyQuery,
    Column,
    DatasetSchema,
    EmptyLabelError,
    Entity,
    ModelError,
    PropertyDef,
    ResourceMeta,
    compound_key,
    dump_etg,
    etg_from_doc,
    etg_to_doc,
    elements,
    load_etg,
    normalize_text,
    normalize_value,
    read_document,
    read_json,
    validate_eg,
    validate_etg,
)

from helpers import (
    flagged_pairs,
    make_cq,
    make_etg,
    make_schema,
    scan_ancestors,
    scan_declared_properties,
    scan_elements,
    value_triples,
)

texts = st.text(min_size=0, max_size=40)


class TestNormalization:
    def test_basic(self):
        assert normalize_text("Covid Case") == "covid_case"
        assert normalize_text("  A--B  ") == "a_b"
        assert normalize_text("hospital") == "hospital"

    def test_empty_rejected(self):
        with pytest.raises(EmptyLabelError):
            normalize_text("")
        with pytest.raises(EmptyLabelError):
            normalize_text("  --  ")

    @given(texts)
    def test_total(self, raw):
        # every input either normalizes or raises the dedicated error
        try:
            out = normalize_text(raw)
        except EmptyLabelError:
            return
        assert out
        assert out == out.lower()
        assert not out.startswith("_") and not out.endswith("_")

    @given(texts)
    def test_idempotent(self, raw):
        try:
            once = normalize_text(raw)
        except EmptyLabelError:
            return
        assert normalize_text(once) == once

    def test_label_equality_ignores_raw(self):
        assert normalize_text("Covid Case") == normalize_text("covid__case")
        assert len({normalize_text("A B"), normalize_text("a_b")}) == 1

    @given(texts)
    def test_value_total_and_idempotent(self, raw):
        out = normalize_value(raw)
        assert normalize_value(out) == out
        assert out == out.lower()

    def test_value_collapses_whitespace(self):
        assert normalize_value("  Santa   Chiara ") == "santa chiara"
        assert normalize_value("") == ""
        assert normalize_value("--") == "--"

    def test_compound_key(self):
        key = compound_key(normalize_text("Hospital"), normalize_text("Bed Count"))
        assert key == "hospital.bed_count"


class TestPropertyDef:
    def test_data_defaults(self):
        p = PropertyDef(name="name")
        assert p.kind == "data"
        assert p.datatype == "string"
        assert p.range is None

    def test_object_requires_range(self):
        with pytest.raises(ModelError):
            PropertyDef(name="hospital", kind="object")

    def test_object_rejects_datatype(self):
        with pytest.raises(ModelError):
            PropertyDef(
                name="hospital",
                kind="object",
                range="hospital",
                datatype="string",
            )

    def test_unknown_kind_and_datatype(self):
        with pytest.raises(ModelError):
            PropertyDef(name="x", kind="weird")
        with pytest.raises(ModelError):
            PropertyDef(name="x", datatype="float64")


META = ResourceMeta("d", "dataset", "core")


# Each record that checks its fields, built with a bad value by keyword and by
# position: the checks run in the constructor, whichever form calls it.
BAD_RECORDS = {
    "meta_kind": (ModelError, lambda: ResourceMeta(id="d", kind="table", category="core")),
    "meta_category": (ModelError, lambda: ResourceMeta("d", "dataset", "niche")),
    "meta_popularity": (ModelError, lambda: ResourceMeta("d", "dataset", "core", -1)),
    "property_kind": (ModelError, lambda: PropertyDef("x", "weird")),
    "property_datatype": (ModelError, lambda: PropertyDef("x", datatype="float64")),
    "data_property_range": (ModelError, lambda: PropertyDef("x", "data", None, "y")),
    "object_property_no_range": (ModelError, lambda: PropertyDef(name="x", kind="object")),
    "policy": (MetricError, lambda: AlignmentPolicy(match_threshold=2)),
    "policy_positional": (MetricError, lambda: AlignmentPolicy(0, 0, -1)),
    "thresholds": (MetricError, lambda: Thresholds(cov_min=1.5)),
    "thresholds_band": (MetricError, lambda: Thresholds(0, 0, 0.5, 0.25)),
    "query_no_etypes": (ModelError, lambda: CompetencyQuery("q", "s", frozenset(), frozenset())),
    "query_pair": (
        ModelError,
        lambda: CompetencyQuery("q", "s", frozenset({"a"}), frozenset({("b", "p")})),
    ),
    "column_role": (ModelError, lambda: Column("c", role="key")),
    "schema_two_identities": (
        ModelError,
        lambda: DatasetSchema("d", "e", (Column("a", "a", "identity"), Column("b", "b", "identity")), META),
    ),
    "schema_duplicate_column": (
        ModelError,
        lambda: DatasetSchema(dataset_id="d", assigned_etype="e", columns=(Column("a"), Column("a")), meta=META),
    ),
    "schema_link_unmapped": (ModelError, lambda: DatasetSchema("d", "e", (Column("a", role="link"),), META)),
}


class TestRecordChecks:
    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_bad_value_raises(self, case):
        error, build = BAD_RECORDS[case]
        with pytest.raises(error):
            build()

    def test_data_property_defaults_to_string_in_every_form(self):
        forms = [PropertyDef("x"), PropertyDef("x", "data"), PropertyDef(name="x", datatype=None)]
        assert {p.datatype for p in forms} == {"string"}
        assert PropertyDef("x", "object", range="y").datatype is None


class TestResourceMeta:
    def test_popularity_non_negative(self):
        with pytest.raises(ModelError):
            ResourceMeta(id="d", kind="dataset", category="core", popularity=-1)

    def test_category_checked(self):
        with pytest.raises(ModelError):
            ResourceMeta(id="d", kind="dataset", category="niche", popularity=0)


class TestCompetencyQuery:
    def test_requires_etypes(self):
        with pytest.raises(ModelError):
            CompetencyQuery(id="q", sentence="", etypes=frozenset(), property_pairs=frozenset())

    def test_pairs_must_use_listed_etypes(self):
        with pytest.raises(ModelError):
            make_cq("q", ["hospital"], [("clinic", "name")])


class TestDatasetSchema:
    def test_single_identity_column(self):
        with pytest.raises(ModelError):
            make_schema(
                "d",
                "hospital",
                [("a", "a", "identity"), ("b", "b", "identity")],
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            make_schema("d", "hospital", [("Bed Count", "x", "attribute"), ("bed_count", "y", "attribute")])

    def test_identity_and_link_need_mapping(self):
        with pytest.raises(ModelError):
            make_schema("d", "hospital", [("code", None, "identity")])
        with pytest.raises(ModelError):
            make_schema("d", "covid_case", [("hospital", None, "link")])

    def test_column_role_checked(self):
        with pytest.raises(ModelError):
            Column(name="x", role="key")

    def test_accessors(self):
        s = make_schema(
            "d",
            "hospital",
            [("code", "code", "identity"), ("name", "name", "attribute"), ("notes", None, "attribute")],
        )
        assert [c.name for c in s.identity_columns()] == ["code"]
        assert [c.name for c in s.mapped_columns()] == ["code", "name"]


@st.composite
def acyclic_edges(draw):
    """Subclass edges over the etypes a-f, each from a later etype to an
    earlier one in a drawn order, so that they never close a cycle."""
    rank = {etype: i for i, etype in enumerate(draw(st.permutations("abcdef")))}
    pairs = draw(st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")), max_size=15))
    return [(child, parent) for child, parent in pairs if rank[child] > rank[parent]]


@st.composite
def any_edges(draw):
    """A pool of three to five etypes and subclass edges over it, self-loops
    and cycles included."""
    pool = "abcde"[: draw(st.integers(3, 5))]
    return pool, draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=10))


class TestEtgHelpers:
    def make_chain(self):
        return make_etg(
            "g",
            ["a", "b", "c"],
            {"a": ["p", "q"], "b": ["q", "r"], "c": ["s"]},
            subclass=[("c", "b"), ("b", "a")],
        )

    def test_ancestors_bfs_order(self):
        g = self.make_chain()
        assert g.ancestors_of("c") == ("b", "a")
        assert g.ancestors_of("a") == ()

    def test_declared_properties_nearest_wins(self):
        g = self.make_chain()
        declared = g.declared_properties("c")
        assert set(declared) == {"p", "q", "r", "s"}
        # "q" resolves to b's declaration, not a's
        assert declared["q"] is g.props_of("b")[0]

    def test_a_caller_cannot_change_what_later_calls_return(self):
        g = self.make_chain()
        for etype in "cb":
            with pytest.raises(AttributeError):
                g.ancestors_of(etype).append("zzz")
        assert g.ancestors_of("c") == ("b", "a")
        assert g.ancestors_of("b") == ("a",)

    def test_ancestors_are_one_tuple_per_etype(self):
        g = self.make_chain()
        assert g.ancestors_of("c") is g.ancestors_of("c")
        assert g.ancestors_of("zzz") == ()

    def test_cached_closure_leaves_equality_alone(self):
        cached, fresh = self.make_chain(), self.make_chain()
        cached.ancestors_of("c")
        assert cached == fresh
        assert repr(cached) == repr(fresh)

    @given(acyclic_edges())
    def test_ancestors_match_scan_oracle(self, edges):
        g = make_etg("g", list("abcdef"), subclass=edges)
        for etype in "abcdef":
            assert g.ancestors_of(etype) == tuple(scan_ancestors(g, etype))
            assert g.ancestors_of(etype) == tuple(scan_ancestors(g, etype))

    def test_cached_declared_properties_leave_equality_alone(self):
        cached, fresh = self.make_chain(), self.make_chain()
        cached.declared_properties("c")
        assert cached == fresh
        assert repr(cached) == repr(fresh)
        assert cached._replace(id="h") == fresh._replace(id="h")
        assert "_declared" not in vars(cached._replace(id="h"))

    def test_declared_properties_are_read_only(self):
        g = self.make_chain()
        declared = g.declared_properties("c")
        with pytest.raises(TypeError):
            declared["zzz"] = PropertyDef(name="zzz")
        assert set(g.declared_properties("c")) == {"p", "q", "r", "s"}

    def test_an_etype_not_in_the_graph_declares_nothing(self):
        declared = self.make_chain().declared_properties("zzz")
        assert dict(declared) == {}
        with pytest.raises(TypeError):
            declared["zzz"] = PropertyDef(name="zzz")

    @given(
        acyclic_edges(),
        st.dictionaries(
            st.sampled_from("abcdef"),
            st.lists(
                st.tuples(st.sampled_from("pqr"), st.just("data"), st.sampled_from(DATATYPES)),
                max_size=3,
                unique_by=lambda spec: spec[0],
            ),
        ),
    )
    def test_declared_properties_match_scan_oracle(self, edges, properties):
        g = make_etg("g", list("abcdef"), properties, subclass=edges)
        for etype in "abcdef":
            expected = list(scan_declared_properties(g, etype).items())
            assert list(g.declared_properties(etype).items()) == expected
            assert list(g.declared_properties(etype).items()) == expected

    def test_sorted_etypes(self):
        g = make_etg("g", ["zebra", "ant"])
        assert g.sorted_etypes() == ["ant", "zebra"]


labels = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def element_sources(draw):
    """An ETG, a dataset schema with mapped and unmapped columns, or a tuple
    of competency queries."""
    kind = draw(st.sampled_from(["etg", "schema", "queries"]))
    if kind == "etg":
        props = draw(st.dictionaries(labels, st.lists(labels, max_size=3, unique=True), max_size=4))
        return make_etg("g", [*props, *draw(st.lists(labels, max_size=3))], props)
    if kind == "schema":
        columns = draw(st.lists(st.tuples(labels, st.none() | labels), max_size=4, unique_by=lambda c: c[0]))
        return make_schema("d", draw(labels), [(name, mapped, "attribute") for name, mapped in columns])
    queries = []
    for i in range(draw(st.integers(0, 3))):
        etypes = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
        queries.append(make_cq(f"q{i}", etypes, draw(st.lists(st.tuples(st.sampled_from(etypes), labels), max_size=3))))
    return tuple(queries)


class TestElementSets:
    @given(element_sources())
    def test_elements_equal_scan_oracle(self, source):
        expected = scan_elements(source)
        found = elements(source)
        assert found == expected
        assert [type(s) for s in found] == [frozenset, frozenset]
        if type(source) is tuple:
            # a one-shot generator gives the same sets: elements walks its source once
            assert elements(cq for cq in source) == expected

    def test_from_etg(self):
        g = make_etg("g", ["hospital"], {"hospital": ["name", "beds"]})
        assert elements(g) == ({"hospital"}, {"hospital.name", "hospital.beds"})

    def test_from_schema_skips_unmapped(self):
        s = make_schema(
            "d", "hospital", [("code", "code", "identity"), ("notes", None, "attribute")]
        )
        assert elements(s) == ({"hospital"}, {"hospital.code"})

    def test_from_cqs(self):
        cqs = [make_cq("q1", ["a"], [("a", "p")]), make_cq("q2", ["b"])]
        assert elements(cqs) == ({"a", "b"}, {"a.p"})

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True),
        st.sampled_from("ghij"),
    )
    def test_monotone_under_etype_addition(self, names, extra):
        # adding an etype to a graph never removes elements
        g = make_etg("g", names, {n: ["p"] for n in names})
        bigger = make_etg("g", names + [extra], {n: ["p"] for n in names + [extra]})
        for small, large in zip(elements(g), elements(bigger)):
            assert small <= large


def clean_etg():
    return make_etg(
        "g",
        ["facility", "hospital"],
        {
            "facility": ["operator"],
            "hospital": ["name", ("partner", "object", "facility")],
        },
        subclass=[("hospital", "facility")],
    )


class TestValidateEtg:
    def test_clean(self):
        assert validate_etg(clean_etg()) == []

    def codes(self, g):
        return [v.code for v in validate_etg(g)]

    def test_unknown_property_etype(self):
        g = clean_etg()
        broken = ETGReplace(g, properties={**g.properties, "ghost": (PropertyDef(name="x"),)})
        assert "unknown_property_etype" in self.codes(broken)

    def test_duplicate_property(self):
        g = clean_etg()
        dup = (PropertyDef(name="name"),) * 2
        broken = ETGReplace(g, properties={**g.properties, "facility": dup})
        assert "duplicate_property" in self.codes(broken)

    def test_dangling_range(self):
        g = make_etg("g", ["a"], {"a": [("r", "object", "missing")]}, checked=False)
        assert self.codes(g) == ["dangling_range"]

    def test_dangling_subclass(self):
        g = clean_etg()
        broken = ETGReplace(
            g, subclass_edges=frozenset({("hospital", "ghost")})
        )
        assert "dangling_subclass" in self.codes(broken)

    def test_subclass_cycle(self):
        g = make_etg("g", ["a", "b"], subclass=[("a", "b"), ("b", "a")], checked=False)
        assert "subclass_cycle" in self.codes(g)

    @given(any_edges())
    def test_cycle_violations_name_every_edge_on_a_cycle(self, case):
        """An edge (c, p) is named exactly when the uncached search finds c
        among p's ancestors, in sorted order."""
        pool, edges = case
        g = make_etg("g", list(pool), subclass=edges, checked=False)
        named = [v.message for v in validate_etg(g) if v.code == "subclass_cycle"]
        looped = sorted((c, p) for c, p in set(edges) if c in scan_ancestors(g, p))
        assert named == [f"subclass edge ({c}, {p}) lies on a cycle" for c, p in looped]

    def test_violation_str(self):
        g = make_etg("g", ["a"], {"a": [("r", "object", "missing")]}, checked=False)
        text = str(validate_etg(g)[0])
        assert text.startswith("dangling_range: ")

    def test_construction_passes_a_clean_graph(self):
        g = clean_etg()
        assert type(g)(*g) == g

    def test_construction_lists_every_violation(self):
        with pytest.raises(ModelError) as caught:
            make_etg("g", ["a", "b"], {"a": [("r", "object", "missing")]}, subclass=[("a", "b"), ("b", "a")])
        assert str(caught.value) == (
            "invalid schema graph: dangling_range: object property a.r targets unknown etype missing; "
            "subclass_cycle: subclass edge (a, b) lies on a cycle; "
            "subclass_cycle: subclass edge (b, a) lies on a cycle"
        )

    def test_replace_and_make_skip_the_check(self):
        g = clean_etg()
        broken = g._replace(subclass_edges=frozenset({("hospital", "ghost")}))
        assert self.codes(broken) == ["dangling_subclass"]
        assert self.codes(type(g)._make(broken)) == ["dangling_subclass"]


def ETGReplace(g, **changes):
    return g._replace(**changes)


def small_eg():
    schema = clean_etg()
    hospital = "hospital"
    e1 = Entity(
        id="d/x",
        etype=hospital,
        data_values=value_triples({"name": [("Santa Chiara", "d")]}),
        object_links=frozenset({("partner", "d/y", "d")}),
    )
    e2 = Entity(id="d/y", etype="facility", data_values=(), object_links=frozenset())
    return EG(id="eg", schema=schema, entities={"d/x": e1, "d/y": e2})


class TestValidateEg:
    def test_clean(self):
        assert validate_eg(small_eg()) == []

    def codes(self, eg):
        return [v.code for v in validate_eg(eg)]

    def test_unknown_etype(self):
        eg = small_eg()
        bad = Entity(id="d/z", etype="ghost", data_values=(), object_links=frozenset())
        broken = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/z": bad})
        assert "unknown_etype" in self.codes(broken)

    def test_unsorted_values(self):
        eg = small_eg()
        bad = eg.entities["d/x"]._replace(data_values=(("operator", "APSS", "d"), ("name", "Santa Chiara", "d")))
        broken = eg._replace(entities={**eg.entities, "d/x": bad})
        assert self.codes(broken) == ["unsorted_values"]

    def test_duplicate_value(self):
        # generate_entities and merge_entities never store a triple twice
        eg = small_eg()
        twice = ("name", "Santa Chiara", "d")
        bad = eg.entities["d/x"]._replace(data_values=(twice, ("name", "S. Chiara", "e"), twice))
        broken = eg._replace(entities={**eg.entities, "d/x": bad})
        assert self.codes(broken) == ["duplicate_value"]

    def test_undeclared_property(self):
        eg = small_eg()
        bad = Entity(
            id="d/z",
            etype="facility",
            data_values=value_triples({"nickname": [("x", "d")]}),
            object_links=frozenset(),
        )
        broken = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/z": bad})
        assert "undeclared_property" in self.codes(broken)

    def test_data_property_used_as_link(self):
        eg = small_eg()
        bad = Entity(
            id="d/z",
            etype="hospital",
            data_values=(),
            object_links=frozenset({("name", "d/y", "d")}),
        )
        broken = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/z": bad})
        assert "undeclared_property" in self.codes(broken)

    def test_inherited_property_is_declared(self):
        eg = small_eg()
        ok = Entity(
            id="d/z",
            etype="hospital",
            data_values=value_triples({"operator": [("APSS", "d")]}),
            object_links=frozenset(),
        )
        fine = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/z": ok})
        assert self.codes(fine) == []

    @pytest.mark.parametrize("blank", ["", "   ", "\t\n"], ids=["empty", "spaces", "tab_newline"])
    def test_blank_value(self, blank):
        # generate_entities stores no blank cell, so no value is blank
        eg = small_eg()
        bad = eg.entities["d/x"]._replace(data_values=value_triples({"name": [("Santa Chiara", "d"), (blank, "e")]}))
        broken = eg._replace(entities={**eg.entities, "d/x": bad})
        assert self.codes(broken) == ["blank_value"]

    def test_dangling_link(self):
        eg = small_eg()
        bad = Entity(
            id="d/z",
            etype="hospital",
            data_values=(),
            object_links=frozenset({("partner", "d/nowhere", "d")}),
        )
        broken = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/z": bad})
        assert "dangling_link" in self.codes(broken)

    def test_real_conflict_not_stale(self):
        eg = small_eg()
        both = Entity(
            id="d/x",
            etype="hospital",
            data_values=value_triples({"name": [("Santa Chiara", "d"), ("S. Chiara", "e")]}),
            object_links=frozenset(),
        )
        flagged = EG(id=eg.id, schema=eg.schema, entities={**eg.entities, "d/x": both})
        assert flagged_pairs(flagged) == frozenset({("d/x", "name")})
        assert self.codes(flagged) == []

    @pytest.mark.parametrize(
        "entity_id, values",
        [("d/x", (("Santa  Chiara", "d"), ("santa chiara", "e")))],
    )
    def test_flag_without_two_normalized_values_is_stale(self, entity_id, values):
        # values equal after normalization raise no flag
        eg = small_eg()
        variants = eg.entities[entity_id]._replace(data_values=value_triples({"name": values}))
        unflagged = eg._replace(entities={**eg.entities, entity_id: variants})
        assert flagged_pairs(unflagged) == frozenset()
        assert self.codes(unflagged) == []


class TestEntity:
    def test_value_set_folds_case_and_whitespace(self):
        entity = Entity(
            id="d/x",
            etype="hospital",
            data_values=value_triples(
                {
                    "name": [("Santa  Chiara", "a"), (" santa\tCHIARA ", "b"), ("S. Chiara", "c")],
                    "code": [("TN01", "a")],
                }
            ),
            object_links=frozenset(),
        )
        # "beds" holds no value, so it has no set
        assert entity.value_sets() == {
            "name": frozenset({"santa chiara", "s. chiara"}),
            "code": frozenset({"tn01"}),
        }


class TestEtgDocuments:
    def test_round_trip(self):
        g = clean_etg()
        doc = etg_to_doc(g)
        again = etg_from_doc(doc)
        assert etg_to_doc(again) == doc
        assert again.etypes == g.etypes
        assert again.subclass_edges == g.subclass_edges

    def test_doc_shape(self):
        doc = etg_to_doc(clean_etg())
        assert doc["id"] == "g"
        assert doc["etypes"] == ["facility", "hospital"]
        partner = [p for p in doc["properties"]["hospital"] if p["name"] == "partner"]
        assert partner == [{"name": "partner", "kind": "object", "range": "facility"}]
        assert doc["subclass"] == [["hospital", "facility"]]

    def test_meta_override_wins(self):
        doc = etg_to_doc(clean_etg())
        meta = ResourceMeta(id="other", kind="ontology", category="common", popularity=4)
        g = etg_from_doc(doc, meta=meta)
        assert g.meta.popularity == 4

    def test_missing_key_reported(self):
        with pytest.raises(ModelError) as err:
            etg_from_doc({"id": "g"})
        assert "g: missing 'meta'" in str(err.value)

    def test_dump_load(self, tmp_path):
        path = tmp_path / "g.json"
        dump_etg(clean_etg(), path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["id"] == "g"
        g = load_etg(path)
        assert etg_to_doc(g) == etg_to_doc(clean_etg())


class CallerError(Exception):
    """Stands in for the error class a caller of read_json passes."""


class TestReadJson:
    @pytest.mark.parametrize(
        "data, message",
        [
            (None, "cannot read test file "),
            (b'{"a": "caf\xe9"}', "not valid UTF-8 at line 1"),
            (b'{\n  "a": }', "invalid JSON at line 2, column 8"),
            (b"[]", "document root must be an object, not a list"),
            (b"[" * 100_000, "unreadable JSON"),
            (b'{"a": ["x", {"b": "c\\u0000d"}]}', "a[1].b holds a NUL character"),
            (b'{"a": 1, "\\udfff": 2}', "a key of the document root holds an unpaired surrogate"),
        ],
        ids=["missing", "not_utf8", "invalid", "root_list", "too_deep", "nul", "surrogate"],
    )
    def test_every_failure_raises_the_given_error_naming_the_file(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        if data is not None:
            path.write_bytes(data)
        with pytest.raises(CallerError, match=re.escape(message)) as err:
            read_json(path, "test file", error=CallerError)
        assert str(path) in str(err.value)

    def test_leading_bom_is_skipped(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'\xef\xbb\xbf{"a": 1}')
        assert read_json(path, "test file") == {"a": 1}

    def test_no_other_module_parses_json(self):
        """Every JSON document is read through read_json, the one reader."""
        parsers = []
        for path in sorted(Path(itelos.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    parsers.append(path.name)
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                ):
                    parsers.append(path.name)
        assert parsers == ["model.py"]


class TestReadDocument:
    @pytest.mark.parametrize(
        "raised", [ModelError("bad key"), CallerError("bad key")], ids=["model_error", "caller_error"]
    )
    def test_parse_error_names_the_file_once(self, tmp_path, raised):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1}', encoding="utf-8")

        def parse(doc):
            assert doc == {"a": 1}
            raise raised

        with pytest.raises(CallerError) as err:
            read_document(path, "test file", parse, CallerError)
        assert type(err.value) is CallerError
        assert str(err.value) == f"{path}: bad key"

    def test_returns_what_parse_returns(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1}', encoding="utf-8")
        assert read_document(path, "test file", lambda doc: doc["a"]) == 1

    def test_unreadable_file_is_not_parsed(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(CallerError, match=re.escape(f"cannot read test file {path}")):
            read_document(path, "test file", pytest.fail, CallerError)



class TestRequireValid:
    def test_lists_every_violation_after_the_head(self):
        bad = make_etg("g", ["a"], {"a": [("r", "object", "x"), ("s", "object", "y")]}, checked=False)
        violations = validate_etg(bad)
        assert len(violations) == 2
        with pytest.raises(ModelError) as err:
            type(bad)(*bad)
        assert str(err.value) == "invalid schema graph: " + "; ".join(map(str, violations))
