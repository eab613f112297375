import copy
import itertools
import json
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings, strategies as st

from itelos import cli, integration, matching
from itelos.cli import main
from itelos.integration import (
    Fragment,
    PendingLink,
    SchemaMapping,
    _valid_for,
    connected_components,
    eval_purpose,
    export_eg,
    generate_entities,
    infer_mapping,
    initial_state,
    integrate_dataset,
    match_entities,
    merge_entities,
    missing_ratio,
    override_from_doc,
    read_dataset_rows,
    resolve_pending,
)
from itelos.inception import load_dataset_schema
from itelos.matching import EtypeIndex
from itelos.model import (
    EG,
    DocumentError,
    Entity,
    ModelError,
    NotInGraphError,
    ResourceMeta,
    dump_etg,
    normalize_text,
    validate_eg,
)

from helpers import (
    bfs_component_count,
    flagged_pairs,
    make_cq,
    make_etg,
    make_schema,
    occurrence_count,
    read_ntriples,
    scan_case_counts,
    scan_link_target,
    scan_match_entities,
    scan_merge_entities,
    scan_conflict_flags,
    scan_export_eg,
    scan_exported_graph,
    scan_generate_entities,
    scan_infer_mapping,
    scan_missing_ratio,
    scan_populated_elements,
    scan_same_entity,
    union_find_component_count,
    value_triples,
    write_csv,
    xsd_valid,
)
from test_cli import TINY, reuse_input


def hospital_etg():
    return make_etg(
        "schema",
        ["facility", "hospital", "covid_case"],
        {
            "facility": ["operator"],
            "hospital": ["code", "name", ("beds", "data", "integer"), "municipality"],
            "covid_case": [
                "case_id",
                ("case_date", "data", "date"),
                ("hospital", "object", "hospital"),
                ("patient_count", "data", "integer"),
            ],
        },
        subclass=[("hospital", "facility")],
    )


def hospital_columns():
    return [
        ("code", "code", "identity"),
        ("name", "name", "attribute"),
        ("beds", "beds", "attribute"),
    ]


def mapping_for(dataset_id, etype, columns, etg=None, **kwargs):
    schema = make_schema(dataset_id, etype, columns)
    return infer_mapping(schema, etg or hospital_etg(), **kwargs)


def dataset_args(schema_graph, dataset_id, etype, columns, rows):
    """The mapping, header and rows that integrate a dataset given by its
    columns as (name, property, role) triples."""
    mapping = mapping_for(dataset_id, etype, columns, etg=schema_graph)
    header = [normalize_text(name if isinstance(name, str) else name[0]) for name in columns]
    return mapping, header, rows


def run_dataset(state, dataset_id, etype, columns, rows):
    return integrate_dataset(state, *dataset_args(state.eg.schema, dataset_id, etype, columns, rows))


def linked_from(eg):
    """Each link target of `eg` with the ids of the entities linking to it."""
    sources = {}
    for e in eg.entities.values():
        for _prop, target, _source in e.object_links:
            sources.setdefault(target, set()).add(e.id)
    return sources


def merged_graph(eg, fragment, matches):
    """The graph that `merge_entities`' changes make of `eg`, and the remap."""
    changed, remap = merge_entities(eg, fragment, matches, linked_from(eg))
    entities = {entity_id: e for entity_id, e in eg.entities.items() if entity_id not in remap}
    return eg._replace(entities={**entities, **changed}), remap


class TestReadRows:
    def test_reads_cells_as_read(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["Code", "Name"], [[" TN01 ", "Santa Chiara"]])
        header, rows = read_dataset_rows(path)
        assert header == ["code", "name"]
        assert rows == [[" TN01 ", "Santa Chiara"]]

    def test_arity_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(DocumentError) as err:
            read_dataset_rows(path)
        assert str(err.value) == f"{path}: line 3: expected 2 fields, got 1"

    @pytest.mark.parametrize(
        "header, message",
        [
            (["Name", "name"], "'Name' and 'name' both normalize to name"),
            (["code", " "], "label ' ' has no alphanumeric content"),
        ],
        ids=["names_alike", "blank_name"],
    )
    def test_header_is_refused_like_the_sidecar_check(self, tmp_path, header, message):
        # the column index of generate_entities is keyed by these names
        path = write_csv(tmp_path / "d.csv", header, [["1", "2"]])
        (tmp_path / "d.schema.json").write_text('{"etype": "site"}', encoding="utf-8")
        with pytest.raises(DocumentError) as rows_err:
            read_dataset_rows(path)
        with pytest.raises(DocumentError) as schema_err:
            load_dataset_schema(path, ResourceMeta(id="d", kind="dataset", category="core"))
        assert str(rows_err.value) == str(schema_err.value) == f"{path}: header: {message}"


class TestInferMapping:
    def test_explicit_columns_pass_through(self):
        mapping = mapping_for("d", "hospital", hospital_columns())
        assert mapping.etype == "hospital"
        assert list(mapping.identity_columns) == ["code"]
        assert mapping.property_of("beds") == "beds"
        assert all(prop is not None for _name, prop in mapping.columns)

    def test_unmapped_column_matched_by_similarity(self):
        # "nam" sits at similarity 3/4 to "name", above the 7/10 bar
        mapping = mapping_for(
            "d", "hospital", [("code", "code", "identity"), ("nam", None, "attribute")]
        )
        assert mapping.property_of("nam") == "name"

    def test_low_similarity_dropped(self):
        mapping = mapping_for(
            "d", "hospital", [("code", "code", "identity"), ("xyz", None, "attribute")]
        )
        assert mapping.property_of("xyz") is None
        assert ("xyz", None) in mapping.columns

    def test_taken_property_not_reused(self):
        # "name" is explicitly claimed; "nam" must not steal it
        mapping = mapping_for(
            "d",
            "hospital",
            [("name", "name", "attribute"), ("nam", None, "attribute")],
        )
        assert mapping.property_of("nam") is None

    def test_inherited_properties_usable(self):
        mapping = mapping_for("d", "hospital", [("operator", "operator", "attribute")])
        assert mapping.property_of("operator") == "operator"

    def test_undeclared_explicit_mapping_rejected(self):
        with pytest.raises(NotInGraphError, match="column x mapped to undeclared property hospital.helipad"):
            mapping_for("d", "hospital", [("x", "helipad", "attribute")])

    def test_etype_resolved_through_rename_map(self):
        mapping = mapping_for(
            "d",
            "hospitl",
            hospital_columns(),
            rename_map={"hospitl": "hospital"},
        )
        assert mapping.etype == "hospital"

    def test_unknown_etype(self):
        with pytest.raises(NotInGraphError, match="etype clinic is not part of the final graph"):
            mapping_for("d", "clinic", [("code", "code", "identity")])

    def test_override_replaces_everything(self):
        override = override_from_doc(
            {
                "dataset_id": "d",
                "columns": {
                    "code": ["hospital", "code"],
                    "name": "drop",
                    "beds": ["hospital", "beds"],
                },
                "identity_key": ["code"],
            }
        )
        mapping = mapping_for("d", "hospital", hospital_columns(), override=override)
        assert mapping.property_of("name") is None
        assert mapping.property_of("beds") == "beds"
        assert ("name", None) in mapping.columns

    def test_override_wrong_dataset(self):
        override = override_from_doc({"dataset_id": "other", "columns": {}, "identity_key": []})
        with pytest.raises(ModelError, match="override is for dataset 'other', not 'd'"):
            mapping_for("d", "hospital", hospital_columns(), override=override)

    def test_override_wrong_etype(self):
        override = override_from_doc(
            {"dataset_id": "d", "columns": {"code": ["covid_case", "case_id"]}, "identity_key": []}
        )
        with pytest.raises(ModelError, match="mapped into etype covid_case, which is not this dataset's etype"):
            mapping_for("d", "hospital", hospital_columns(), override=override)

    def test_override_identity_must_be_mapped(self):
        override = override_from_doc(
            {"dataset_id": "d", "columns": {"code": "drop"}, "identity_key": ["code"]}
        )
        with pytest.raises(ModelError, match="identity column code is not mapped to a property"):
            mapping_for("d", "hospital", hospital_columns(), override=override)


    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "mapping override must be an object, not an integer"),
            (["dataset_id"], "mapping override must be an object, not a list"),
            ({"dataset_id": "d", "columns": []}, "mapping override.columns must be an object"),
            ({"dataset_id": "d", "identity_key": "code"}, "mapping override.identity_key must be a list"),
        ],
        ids=["root_number", "root_list", "columns_list", "identity_key_string"],
    )
    def test_override_shape_checked(self, doc, message):
        with pytest.raises(DocumentError, match=re.escape(message)):
            override_from_doc(doc)


def oracle_etg():
    """sites are places; shops share `code` with sites. Column "rode" is as
    similar to `code` as to `node`."""
    return make_etg(
        "g",
        ["place", "site", "shop"],
        {"place": ["label"], "site": ["code", "name", "node", "town"], "shop": ["code", "owner"]},
        subclass=[("site", "place")],
    )


MAPPING_COLUMNS = ["code", "name", "nam", "rode", "town", "label", "owner", "xyz"]
MAPPING_PROPS = ["code", "name", "town", "label", "owner", "helipad"]
MAPPING_ETYPES = ["place", "site", "shop", "sight", "clinic"]


@st.composite
def mapping_case(draw):
    """A dataset schema over oracle_etg, a rename map, and either no override
    or one with at most one fault: another dataset's id, a column mapped into
    another etype or to an undeclared property, or an unmapped identity
    column. Sidecar mappings may name undeclared properties; "sight" and
    "clinic" are in the graph only when renamed."""
    header = draw(st.lists(st.sampled_from(MAPPING_COLUMNS), min_size=1, max_size=5, unique=True))
    mapped = [draw(st.sampled_from([None, None, None, *MAPPING_PROPS])) for _ in header]
    columns = [(name, prop, "attribute") for name, prop in zip(header, mapped)]
    keyed = [i for i, prop in enumerate(mapped) if prop is not None]
    if keyed and draw(st.booleans()):
        i = draw(st.sampled_from(keyed))
        columns[i] = (header[i], mapped[i], "identity")
    assigned = draw(st.sampled_from(["site", "site", "shop", "shop", "sight", "clinic"]))
    rename_map = draw(
        st.dictionaries(st.sampled_from(["sight", "site", "shop"]), st.sampled_from(["place", "site", "shop"]))
    )
    schema = make_schema("d", assigned, columns)
    if not draw(st.booleans()):
        return schema, rename_map, None
    etype = rename_map.get(assigned, assigned)
    declared = sorted(oracle_etg().declared_properties(etype)) or ["code"]
    own_etypes = [e for e in MAPPING_ETYPES if rename_map.get(e, e) == etype]
    spec = {}
    for name in header:
        action = draw(st.sampled_from(["map", "drop", "omit"]))
        if action == "map":
            spec[name] = [draw(st.sampled_from(own_etypes)), draw(st.sampled_from(declared))]
        elif action == "drop":
            spec[name] = "drop"
    targets = [name for name, value in spec.items() if value != "drop"]
    identity = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)) if targets else []
    fault = draw(st.sampled_from([None, "dataset", "etype", "property", "identity"]))
    dataset_id = "other" if fault == "dataset" else "d"
    if fault == "etype" and targets:
        spec[draw(st.sampled_from(targets))][0] = draw(
            st.sampled_from([e for e in MAPPING_ETYPES if e not in own_etypes])
        )
    if fault == "property" and targets:
        spec[draw(st.sampled_from(targets))][1] = draw(
            st.sampled_from([p for p in MAPPING_PROPS if p not in declared])
        )
    unmapped = [name for name in MAPPING_COLUMNS if name not in targets]
    if fault == "identity":
        identity.append(draw(st.sampled_from(unmapped)))
    override = override_from_doc({"dataset_id": dataset_id, "columns": spec, "identity_key": identity})
    return schema, rename_map, override


def mapping_outcome(infer, schema, rename_map, override):
    """The mapping `infer` returns, or the class and message of its error."""
    try:
        return infer(schema, oracle_etg(), rename_map=rename_map, override=override)
    except ModelError as exc:
        return type(exc), str(exc)


class TestInferMappingOracle:
    @settings(max_examples=400)
    @given(mapping_case())
    def test_one_path_equals_two_branches(self, case):
        assert mapping_outcome(infer_mapping, *case) == mapping_outcome(scan_infer_mapping, *case)


class TestGenerateEntities:
    def fragment(self, rows, columns=None):
        columns = columns or hospital_columns()
        mapping = mapping_for("ds_a", "hospital", columns)
        header = [normalize_text(c[0]) for c in columns]
        return generate_entities(mapping, header, rows, hospital_etg())

    def test_identity_key_normalized(self):
        fragment = self.fragment([["TN01", "Santa Chiara", "400"]])
        assert set(fragment.eg.entities) == {"ds_a/tn01"}
        entity = fragment.eg.entities["ds_a/tn01"]
        assert [v for p, v, _src in entity.data_values if p == "name"] == ["Santa Chiara"]

    def test_missing_key_falls_back_to_ordinal(self):
        fragment = self.fragment([["", "NoCode", "1"], ["TN02", "Ok", "2"]])
        assert set(fragment.eg.entities) == {"ds_a/row_1", "ds_a/tn02"}

    def test_ordinal_counts_all_rows(self):
        # the blank second row still advances the ordinal of the third
        fragment = self.fragment([["TN01", "A", "1"], ["", "", ""], ["", "B", "2"]])
        assert set(fragment.eg.entities) == {"ds_a/tn01", "ds_a/row_3"}
        assert fragment.stats["skipped_empty_rows"] == 1

    @pytest.mark.parametrize(
        "rows, first, second",
        [
            # a blank key takes the ordinal that another row's key spells
            ([["TN01", "Alpha", "1"], ["", "Beta", "2"], ["Row 2", "Gamma", "3"]], 2, 3),
            ([["row-2", "Gamma", "3"], ["", "Beta", "2"]], 1, 2),
            ([["TN01", "Alpha", "1"], ["--", "Beta", "2"], ["ROW_2", "Gamma", "3"]], 2, 3),
        ],
        ids=["key_after_ordinal", "key_before_ordinal", "unusable_key"],
    )
    def test_key_and_ordinal_minting_one_id_raise(self, rows, first, second):
        with pytest.raises(ModelError, match=f"data rows {first} and {second} both mint ds_a/row_2 "):
            self.fragment(rows)

    def test_a_colliding_dataset_is_read_once(self):
        class CountedRows(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        rows = CountedRows([["TN01", "Alpha", "1"], ["", "Beta", "2"], ["Row 2", "Gamma", "3"]])
        with pytest.raises(ModelError, match="data rows 2 and 3 both mint ds_a/row_2 "):
            self.fragment(rows)
        assert rows.iterations == 1

    def composite(self, rows):
        override = override_from_doc(
            {
                "dataset_id": "ds_a",
                "columns": {"name": ["hospital", "name"], "municipality": ["hospital", "municipality"]},
                "identity_key": ["name", "municipality"],
            }
        )
        schema = make_schema("ds_a", "hospital", ["name", "municipality"])
        mapping = infer_mapping(schema, hospital_etg(), override=override)
        return generate_entities(mapping, ["name", "municipality"], rows, hospital_etg())

    @pytest.mark.parametrize(
        "rows, first, second, entity_id",
        [
            ([["San Marco", "Via Roma"], ["San", "Marco Via Roma"]], 1, 2, "ds_a/san_marco_via_roma"),
            ([["A", "B"], ["San Marco", "Via Roma"], ["San Marco Via", "Roma"]], 2, 3, "ds_a/san_marco_via_roma"),
            ([["", "Via Roma"], ["Row", "1"]], 1, 2, "ds_a/row_1"),
        ],
        ids=["parts_split_apart", "later_rows", "ordinal_then_composite"],
    )
    def test_composite_keys_minting_one_id_raise(self, rows, first, second, entity_id):
        with pytest.raises(ModelError, match=f"data rows {first} and {second} both mint {entity_id} "):
            self.composite(rows)

    def test_equal_composite_keys_still_merge(self):
        fragment = self.composite([["San Marco", "Via Roma"], ["SAN  MARCO", " via-roma"], ["", "x"]])
        assert set(fragment.eg.entities) == {"ds_a/san_marco_via_roma", "ds_a/row_3"}

    @pytest.mark.parametrize("row", [["TN01", "A"], ["", "", "", "x"]], ids=["short", "long"])
    def test_ragged_row_raises(self, row):
        with pytest.raises(ModelError, match=f"^data row 2 has {len(row)} fields, the header 3$"):
            run_dataset(initial_state(hospital_etg(), "eg"), "ds_a", "hospital", hospital_columns(), [["TN02", "B", "2"], row])

    def test_empty_cells_skipped(self):
        fragment = self.fragment([["TN01", "", "400"]])
        entity = fragment.eg.entities["ds_a/tn01"]
        assert "name" not in {p for p, _v, _src in entity.data_values}
        assert fragment.stats["data_cells"] == 2

    def test_duplicate_key_single_entity_with_conflict(self):
        fragment = self.fragment([["TN01", "Santa Chiara", "400"], ["TN01", "S. Chiara", "400"]])
        assert len(fragment.eg.entities) == 1
        entity = fragment.eg.entities["ds_a/tn01"]
        assert [v for p, v, _src in entity.data_values if p == "name"] == ["Santa Chiara", "S. Chiara"]
        assert flagged_pairs(fragment.eg) == frozenset(
            {("ds_a/tn01", "name")}
        )

    def test_duplicate_rows_do_not_conflict(self):
        fragment = self.fragment([["TN01", "Santa Chiara", "400"]] * 2)
        entity = fragment.eg.entities["ds_a/tn01"]
        assert [v for p, v, _src in entity.data_values if p == "name"] == ["Santa Chiara"]
        assert flagged_pairs(fragment.eg) == frozenset()

    def test_case_variants_do_not_conflict(self):
        fragment = self.fragment([["TN01", "Santa Chiara", ""], ["TN01", "SANTA  CHIARA", ""]])
        assert flagged_pairs(fragment.eg) == frozenset()

    def test_object_cells_become_pending_links(self):
        columns = [
            ("case_id", "case_id", "identity"),
            ("hospital", "hospital", "link"),
        ]
        mapping = mapping_for("ds_c", "covid_case", columns)
        header = [normalize_text(c[0]) for c in columns]
        fragment = generate_entities(mapping, header, [["C1", "TN01"]], hospital_etg())
        (link,) = fragment.pending_links
        assert link.source_id == "ds_c/c1"
        assert link.target_text == "TN01"
        assert fragment.eg.entities["ds_c/c1"].object_links == frozenset()

    def test_entities_share_one_empty_link_set(self):
        fragment = self.fragment([["TN01", "A", "1"], ["TN02", "B", "2"], ["", "C", "3"]])
        links = {id(entity.object_links) for entity in fragment.eg.entities.values()}
        assert len(fragment.eg.entities) == 3
        assert len(links) == 1

    def test_composite_key_joined(self):
        etg = make_etg("g", ["reading"], {"reading": ["station", "day", "value"]})
        schema = make_schema(
            "ds_r",
            "reading",
            [("station", "station", "attribute"), ("day", "day", "attribute"), ("value", "value", "attribute")],
        )
        mapping = infer_mapping(schema, etg)
        override = override_from_doc(
            {
                "dataset_id": "ds_r",
                "columns": {
                    "station": ["reading", "station"],
                    "day": ["reading", "day"],
                    "value": ["reading", "value"],
                },
                "identity_key": ["station", "day"],
            }
        )
        mapping = infer_mapping(schema, etg, override=override)
        header = [normalize_text(c) for c in ("station", "day", "value")]
        fragment = generate_entities(mapping, header, [["S1", "Mon", "4"]], etg)
        assert set(fragment.eg.entities) == {"ds_r/s1_mon"}

    def test_row_buckets_freed_as_entities_are_built(self):
        # keeping every row bucket until all entities are built costs 0.73 of
        # what the fragment retains; popping each bucket as its entity is
        # built, about a tenth
        etg, columns, rows = wide_dataset(2000)
        mapping = infer_mapping(make_schema("ds_w", "site", columns), etg)
        header = [name for name, _prop, _role in columns]
        (fragment, retained, peak) = traced(lambda: generate_entities(mapping, header, rows, etg))
        assert len(fragment.eg.entities) == 2000
        assert peak - retained <= retained / 4

    def test_stored_cells_retain_little(self):
        # a stored cell costs one (property, value, source) triple and its slot
        # in the entity's tuple, about 91 bytes on CPython 3.10-3.13; a dict of
        # 1-tuples of (value, source) pairs cost 150-165
        etg, columns, rows = wide_dataset(2000)
        mapping = infer_mapping(make_schema("ds_w", "site", columns), etg)
        header = [name for name, _prop, _role in columns]
        (fragment, retained, _peak) = traced(lambda: generate_entities(mapping, header, rows, etg))
        assert fragment.stats["data_cells"] == 2000 * 13
        assert retained <= 112 * fragment.stats["data_cells"]


# Cell pools per column of `generate_case` and repeated values; the key
# cells of one row are drawn as a (c_code, c_town) pair: keys that normalize
# alike, blank and unusable keys, text that spells a row ordinal, and
# composite keys whose joins collide (a + b c and a b + c; row + 2 and the
# ordinal of a row without a usable key).
KEY_CELLS = [
    ("S1", "T"), ("s1", " t"), (" S 1", "U"), ("S2", ""), ("", "T"), ("--", "U"),
    ("Row 1", "T"), ("row 2", ""), ("a", "b c"), ("a b", "c"), ("row", "2"),
]
GENERATE_CELLS = {
    "c_name": ["A", "a", "B", ""],
    "c_alias": ["A", "B", ""],
    "c_near": ["S1", "zz", ""],
    "c_extra": ["q", ""],
}


def site_mapping(alias, identity):
    """report_etg's site mapped onto six columns, where `c_alias` fills
    `alias` (maybe the property another column fills) and `c_extra` is
    dropped, keyed on the `identity` columns."""
    columns = (
        ("c_code", "code"),
        ("c_name", "name"),
        ("c_alias", alias),
        ("c_town", "town"),
        ("c_near", "near"),
        ("c_extra", None),
    )
    return SchemaMapping(dataset_id="ds_a", etype="site", columns=columns, identity_columns=identity)


@st.composite
def generate_case(draw):
    """A `site_mapping`, keyless or keyed on one or two columns, a header in
    any column order, and up to eight rows drawn from small pools, so that
    rows repeat keys, leave cells blank and have no usable key."""
    alias = draw(st.sampled_from([None, "name", "town"]))
    mapping = site_mapping(alias, draw(st.sampled_from([(), ("c_code",), ("c_code", "c_town")])))
    header = draw(st.permutations([column for column, _prop in mapping.columns]))
    keys = st.sampled_from(KEY_CELLS).map(lambda pair: dict(zip(("c_code", "c_town"), pair)))
    cells = st.fixed_dictionaries({c: st.sampled_from(pool) for c, pool in GENERATE_CELLS.items()})
    rows = st.tuples(keys, cells).map(lambda both: {**both[0], **both[1]})
    return mapping, header, [[row[c] for c in header] for row in draw(st.lists(rows, max_size=8))]


def key_rows(identity, keys):
    """A `generate_case` case keyed on `identity` whose rows hold the
    (c_code, c_town) pairs `keys` and no other cell."""
    mapping = site_mapping(None, identity)
    return mapping, [column for column, _prop in mapping.columns], [[code, "", "", town, "", ""] for code, town in keys]


class TestGenerateEntitiesOracle:
    @settings(max_examples=300)
    @given(generate_case())
    # a key that spells the ordinal of a later row without a usable key
    @example(key_rows(("c_code",), [("row 2", "T"), ("", "U")]))
    @example(key_rows(("c_code", "c_town"), [("a", "b c"), ("a b", "c")]))
    # a row without a usable key before a key that spells its ordinal, and one that does not
    @example(key_rows(("c_code",), [("", "U"), ("row 1", "T")]))
    @example(key_rows(("c_code",), [("", "U"), ("row 01", "T")]))
    def test_one_pass_equals_per_cell_buckets(self, case):
        etg = report_etg()

        def outcome(generate):
            try:
                fragment = generate(*case, etg)
            except ModelError as exc:
                return str(exc)
            # the entities in first-seen order, and each one's triples in order, too
            order = [(e.id, list(e.data_values)) for e in fragment.eg.entities.values()]
            return fragment, order

        assert outcome(generate_entities) == outcome(scan_generate_entities)


def wide_dataset(count):
    """A one-etype graph of twelve data properties and `count` rows filling
    them all, the shape of the bulk_append workload."""
    props = [f"p{i:02d}" for i in range(12)]
    etg = make_etg("g", ["site"], {"site": ["code", *props]})
    columns = [("code", "code", "identity"), *((prop, prop, "attribute") for prop in props)]
    rows = [[f"S{n:05d}", *(f"value {n} of {prop}" for prop in props)] for n in range(count)]
    return etg, columns, rows


def traced(call):
    """call(), with the bytes its result retains and its peak allocation, both
    above the traced memory before the call."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - start, peak - start


def entity(eid, etype, values=None, links=()):
    return Entity(
        id=eid,
        etype=normalize_text(etype),
        data_values=value_triples({normalize_text(p): pairs for p, pairs in (values or {}).items()}),
        object_links=frozenset(
            (normalize_text(p), t, s) for p, t, s in links
        ),
    )


class TestMatchAndMerge:
    def seed_state(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state, "ds_a", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]
        )
        return state

    def test_key_property_match_merges(self):
        state = self.seed_state()
        state, report = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN01", "S. Chiara", "410"]]
        )
        assert set(state.eg.entities) == {"ds_a/tn01"}
        assert report.merged_entities == 1
        assert report.appended == 0
        merged = state.eg.entities["ds_a/tn01"]
        assert {v for p, v, _src in merged.data_values if p == "name"} == {"Santa Chiara", "S. Chiara"}

    def test_key_mismatch_appends(self):
        state = self.seed_state()
        state, report = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN99", "Elsewhere", "50"]]
        )
        assert set(state.eg.entities) == {"ds_a/tn01", "ds_b/tn99"}
        assert report.appended == 1
        assert report.merged_entities == 0

    def test_keyless_match_on_all_shared(self):
        state = self.seed_state()
        # no identity column: shared properties decide
        state, report = run_dataset(
            state,
            "ds_b",
            "hospital",
            [("name", "name", "attribute"), ("municipality", "municipality", "attribute")],
            [["Santa Chiara", "Trento"]],
        )
        assert set(state.eg.entities) == {"ds_a/tn01"}
        assert report.merged_entities == 1

    def test_keyless_disagreement_appends(self):
        state = self.seed_state()
        state, report = run_dataset(
            state,
            "ds_b",
            "hospital",
            [("name", "name", "attribute")],
            [["Some Other Place"]],
        )
        assert report.appended == 1

    def test_no_shared_property_never_matches(self):
        state = self.seed_state()
        state, report = run_dataset(
            state,
            "ds_b",
            "hospital",
            [("municipality", "municipality", "attribute")],
            [["Trento"]],
        )
        assert report.appended == 1

    def test_merged_id_is_lexicographic_min(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]
        )
        state, _ = run_dataset(
            state, "ds_a", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]
        )
        assert set(state.eg.entities) == {"ds_a/tn01"}

    def test_merge_remaps_link_targets(self):
        schema = hospital_etg()
        old = entity("ds_b/tn01", "hospital", {"code": [("TN01", "ds_b")]})
        case = entity(
            "ds_c/c1",
            "covid_case",
            {"case_id": [("C1", "ds_c")]},
            links=[("hospital", "ds_b/tn01", "ds_c")],
        )
        eg = EG(
            id="eg",
            schema=schema,
            entities={e.id: e for e in (old, case)},
        )
        mapping = mapping_for("ds_a", "hospital", hospital_columns())
        header = [normalize_text(c[0]) for c in hospital_columns()]
        fragment = generate_entities(
            mapping, header, [["TN01", "Santa Chiara", "400"]], schema
        )
        matches = match_entities(eg, fragment)
        assert matches == {"ds_a/tn01": "ds_b/tn01"}
        merged, remap = merged_graph(eg, fragment, matches)
        assert remap == {"ds_b/tn01": "ds_a/tn01"}
        assert set(merged.entities) == {"ds_a/tn01", "ds_c/c1"}
        assert merged.entities["ds_c/c1"].object_links == frozenset(
            {("hospital", "ds_a/tn01", "ds_c")}
        )

    def test_cross_dataset_conflict_flagged(self):
        state = self.seed_state()
        state, report = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN01", "Ospedale S.C.", "400"]]
        )
        assert ("ds_a/tn01", "name") in flagged_pairs(state.eg)
        assert report.conflicts == 1


# Small pools so that random entities often share, miss or contradict values.
MATCH_VALUES = ["a", "A", "a  b", "A B", "b"]
MATCH_PROPS = ["code", "name", "beds"]
# One property with few values, so that one value-set block holds many entities.
BLOCK_VALUES = ["Trento", "Arco", "Rovereto"]


@st.composite
def random_entity(draw, dataset_ids):
    values = {}
    for prop in draw(st.lists(st.sampled_from(MATCH_PROPS), unique=True)):
        texts = draw(st.lists(st.sampled_from(MATCH_VALUES), min_size=1, max_size=2, unique=True))
        values[prop] = [(text, "src") for text in texts]
    if draw(st.booleans()):
        values["municipality"] = [(draw(st.sampled_from(BLOCK_VALUES)), "src")]
    return entity(
        f"{draw(st.sampled_from(dataset_ids))}/e{draw(st.integers(0, 39))}",
        draw(st.sampled_from(["hospital", "facility"])),
        values,
    )


def graph_of(entities):
    return EG(
        id="eg",
        schema=hospital_etg(),
        entities={e.id: e for e in entities},
    )


def fragment_of(entities, identity_properties):
    return Fragment(
        eg=graph_of(entities),
        pending_links=(),
        identity_properties=identity_properties,
        stats={},
    )


def keyed_entities(dataset_id, codes):
    return [
        entity(f"{dataset_id}/h{i}", "hospital", {"code": [(code, dataset_id)]})
        for i, code in enumerate(codes)
    ]


class TestMatchIndex:
    @settings(max_examples=200)
    @given(
        st.lists(random_entity(["ds_a"]), max_size=40),
        st.lists(random_entity(["ds_a", "ds_b", "ds_c"]), max_size=40),
        st.sampled_from([(), ("code",), ("code", "name")]),
    )
    def test_match_equals_scan_oracle(self, existing, candidates, keys):
        eg = graph_of(existing)
        fragment = fragment_of(candidates, keys)
        assert match_entities(eg, fragment) == scan_match_entities(eg, fragment)

    @settings(max_examples=300)
    @given(
        random_entity(["ds_a"]),
        random_entity(["ds_b"]),
        st.sampled_from([(), ("code",), ("code", "name")]),
    )
    def test_same_entity_equals_scan_oracle(self, existing, candidate, keys):
        expected = scan_same_entity(existing, candidate, keys)
        sets = existing.value_sets(), candidate.value_sets()
        assert integration._same_entity(*sets, keys) == expected

    @pytest.mark.parametrize("seed, keys", [(1, ()), (2, ()), (3, ("p0",))])
    def test_sparse_wide_equals_scan_oracle(self, seed, keys):
        # 12 optional properties, each present with probability 1/2, give
        # hundreds of distinct populated-property sets; the 8-valued town is
        # always present, so every pair of one etype shares a property
        rng = random.Random(seed)

        def sparse(dataset_id, count):
            entities = []
            for i in range(count):
                values = {"town": [(f"t{rng.randrange(8)}", dataset_id)]}
                for p in range(12):
                    if rng.random() < 0.5:
                        values[f"p{p}"] = [(rng.choice(["x", "X ", "y"]), dataset_id)]
                etype = "hospital" if rng.random() < 0.9 else "facility"
                entities.append(entity(f"{dataset_id}/e{i}", etype, values))
            return entities

        existing, candidates = sparse("ds_a", 300), sparse("ds_b", 300)
        assert len({frozenset(e.value_sets()) for e in existing}) >= 250
        eg, fragment = graph_of(existing), fragment_of(candidates, keys)
        matches = match_entities(eg, fragment)
        assert matches == scan_match_entities(eg, fragment)
        assert 0 < len(matches) < len(candidates)

    @pytest.mark.parametrize("prefix, calls", [("L", 0), ("K", 200)])
    def test_same_entity_calls_are_counted_hits(self, monkeypatch, prefix, calls):
        made = []
        original = integration._same_entity

        def counted(existing_sets, candidate_sets, key_props):
            made.append(existing_sets)
            return original(existing_sets, candidate_sets, key_props)

        monkeypatch.setattr(integration, "_same_entity", counted)
        eg = graph_of(keyed_entities("ds_a", [f"K{i}" for i in range(200)]))
        candidates = keyed_entities("ds_b", [f"{prefix}{i}" for i in range(200)])
        fragment = fragment_of(candidates, ("code",))
        matches = match_entities(eg, fragment)
        assert len(made) == calls
        assert len(matches) == calls

    def test_value_sets_built_once_per_entity(self, monkeypatch):
        calls = []
        value_sets = Entity.value_sets
        monkeypatch.setattr(
            Entity, "value_sets", lambda self: calls.append(self.id) or value_sets(self)
        )
        compared = []
        original = integration._same_entity
        monkeypatch.setattr(
            integration, "_same_entity", lambda *args: compared.append(args) or original(*args)
        )
        n = 30

        def town_entities(dataset_id, etype):
            values = {"name": [(dataset_id, "src")], "municipality": [("Trento", "src")]}
            return [entity(f"{dataset_id}/e{i}", etype, values) for i in range(n)]

        existing = town_entities("ds_a", "hospital")
        candidates = town_entities("ds_b", "hospital")
        eg = graph_of(existing + town_entities("ds_c", "facility"))
        matches = match_entities(eg, fragment_of(candidates, ()))
        # every candidate shares the municipality block with every existing
        # hospital and agrees with none of them on the name; each is compared
        # at most once, and each value-sets map is built once
        assert matches == {}
        assert len(compared) <= len(candidates)
        assert sorted(calls) == sorted(e.id for e in existing + candidates)

    @pytest.mark.parametrize("keys", [(), ("code",)])
    def test_dense_and_sparse_records_take_both_routes(self, monkeypatch, keys):
        # one etype: 120 entities of one signature, all in one town, whose
        # records share big blocks and probe; and 120 sparse rows of a few
        # signatures, whose records share small blocks and scan them
        rng = random.Random(5)

        def dense(dataset_id):
            return [
                entity(f"{dataset_id}/d{i}", "hospital", {"code": [(f"K{i}", "s")], "name": [(rng.choice("AB"), "s")], "municipality": [("Trento", "s")]})
                for i in range(120)
            ]

        def sparse(dataset_id):
            entities = []
            for i in range(120):
                values = {"town": [(f"t{rng.randrange(8)}", "s")]}
                for prop in ("beds", "operator", "code"):
                    if rng.random() < 0.5:
                        values[prop] = [(rng.choice("xy"), "s")]
                entities.append(entity(f"{dataset_id}/s{i}", "hospital", values))
            return entities

        probes = []
        probe = EtypeIndex._probe
        monkeypatch.setattr(EtypeIndex, "_probe", lambda *args: probes.append(1) or probe(*args))
        eg = graph_of(dense("ds_a") + sparse("ds_a"))
        candidates = dense("ds_b") + sparse("ds_b")
        fragment = fragment_of(candidates, keys)
        matches = match_entities(eg, fragment)
        assert matches == scan_match_entities(eg, fragment)
        assert 120 <= len(probes) < len(candidates)
        assert matches


# Ids from several datasets, so fragment ids collide with existing ones or sort
# on either side of them; the key of a hospital id starts with h, a case's with c.
MERGE_IDS = [
    "ds_a/h1", "ds_a/h2", "ds_b/h1", "ds_b/h2", "ds_c/h1", "ds_c/h2",
    "ds_a/c1", "ds_b/c1", "ds_c/c1",
]
MERGE_HOSPITALS = [i for i in MERGE_IDS if "/h" in i]


@st.composite
def merge_case(draw):
    """A graph, a fragment and matches as match_entities shapes them: data
    values only on declared data properties and links only on the declared
    object property; a fragment id equal to an existing id matches it, any
    other fragment entity matches nothing or an existing entity of its etype,
    so several fragment entities may match one existing entity, and links
    may point at ids that the merge renames."""

    def make(entity_id):
        props = ["code", "name", "operator"] if "/h" in entity_id else ["case_id", "patient_count"]
        values = {}
        for prop in draw(st.lists(st.sampled_from(props), unique=True)):
            texts = draw(st.lists(st.sampled_from(MATCH_VALUES), min_size=1, max_size=2, unique=True))
            values[prop] = [(text, draw(st.sampled_from(["ds_a", "ds_b"]))) for text in texts]
        if "/h" in entity_id:
            return entity(entity_id, "hospital", values)
        targets = draw(
            st.lists(st.sampled_from(MERGE_HOSPITALS + ["ds_z/h9"]), unique=True, max_size=3)
        )
        links = [("hospital", target, draw(st.sampled_from(["ds_a", "ds_c"]))) for target in targets]
        return entity(entity_id, "covid_case", values, links)

    existing = [make(i) for i in draw(st.lists(st.sampled_from(MERGE_IDS), min_size=2, unique=True))]
    candidates = [make(i) for i in draw(st.lists(st.sampled_from(MERGE_IDS), min_size=2, unique=True))]
    existing_ids = sorted(e.id for e in existing)
    matches = {}
    for candidate in sorted(candidates, key=lambda e: e.id):
        if candidate.id in existing_ids:
            matches[candidate.id] = candidate.id
            continue
        same_etype = [i for i in existing_ids if ("/h" in i) == ("/h" in candidate.id)]
        target = draw(st.sampled_from([None, *same_etype]))
        if target is not None:
            matches[candidate.id] = target
    return graph_of(existing), fragment_of(candidates, ()), matches


class TestMergeOnePass:
    @settings(max_examples=300)
    @given(merge_case())
    def test_merge_equals_scan_oracle(self, case):
        eg, fragment, matches = case
        for graph in (eg, fragment.eg):
            assert [v for v in validate_eg(graph) if v.code != "dangling_link"] == []
        merged, remap = merged_graph(eg, fragment, matches)
        expected, expected_remap = scan_merge_entities(eg, fragment, matches)
        assert remap == expected_remap
        assert merged == expected
        assert flagged_pairs(merged) == scan_conflict_flags(expected.entities)
        for graph in (eg, fragment.eg, merged):
            assert missing_ratio(graph) == scan_missing_ratio(graph)

    def test_untouched_entities_are_the_same_objects(self):
        kept = entity("ds_z/h9", "hospital", {"code": [("Z9", "ds_z")]})
        old = entity("ds_b/h1", "hospital", {"code": [("TN01", "ds_b")]})
        linked_to_kept = entity("ds_c/c1", "covid_case", links=[("hospital", "ds_z/h9", "ds_c")])
        linked_to_old = entity("ds_c/c2", "covid_case", links=[("hospital", "ds_b/h1", "ds_c")])
        new = entity("ds_a/h1", "hospital", {"code": [("TN01", "ds_a")]})
        added = entity("ds_a/h2", "hospital", {"code": [("TN02", "ds_a")]})
        eg = graph_of([kept, old, linked_to_kept, linked_to_old])
        fragment = fragment_of([new, added], ("code",))
        changed, remap = merge_entities(eg, fragment, {"ds_a/h1": "ds_b/h1"}, linked_from(eg))
        assert sorted(changed) == ["ds_a/h1", "ds_a/h2", "ds_c/c2"]
        assert eg == graph_of([kept, old, linked_to_kept, linked_to_old])
        merged, remap = merged_graph(eg, fragment, {"ds_a/h1": "ds_b/h1"})
        assert remap == {"ds_b/h1": "ds_a/h1"}
        assert merged.entities["ds_z/h9"] is kept
        assert merged.entities["ds_c/c1"] is linked_to_kept
        assert merged.entities["ds_a/h2"] is added
        assert merged.entities["ds_c/c2"].object_links == frozenset(
            {("hospital", "ds_a/h1", "ds_c")}
        )

    def test_several_matches_of_one_existing_entity(self):
        """The existing entity and every fragment entity matched to it fold
        into the smallest of their ids."""
        old = entity("ds_b/h5", "hospital", {"code": [("X", "ds_b")]})
        case = entity("ds_b/c1", "covid_case", links=[("hospital", "ds_b/h5", "ds_b")])
        below = [entity(i, "hospital", {"code": [("X", "ds_a")]}) for i in ("ds_a/h1", "ds_a/h2")]
        above = entity("ds_c/h9", "hospital", {"code": [("X", "ds_c")]})
        matches = {"ds_a/h1": "ds_b/h5", "ds_a/h2": "ds_b/h5", "ds_c/h9": "ds_b/h5"}
        merged, remap = merged_graph(
            graph_of([old, case]), fragment_of([*below, above], ("code",)), matches
        )
        assert remap == {"ds_b/h5": "ds_a/h1", "ds_a/h2": "ds_a/h1", "ds_c/h9": "ds_a/h1"}
        assert sorted(merged.entities) == ["ds_a/h1", "ds_b/c1"]
        assert merged.entities["ds_a/h1"].data_values == value_triples(
            {"code": (("X", "ds_b"), ("X", "ds_a"), ("X", "ds_c"))}
        )
        assert merged.entities["ds_b/c1"].object_links == frozenset(
            {("hospital", "ds_a/h1", "ds_b")}
        )


def link_etg():
    """clinic is a hospital is a facility; a case links to one of each."""
    return make_etg(
        "g",
        ["facility", "hospital", "clinic", "case"],
        {
            "facility": ["code"],
            "case": [
                ("at", "object", "facility"),
                ("in", "object", "hospital"),
                ("of", "object", "clinic"),
                "note",
            ],
        },
        subclass=[("hospital", "facility"), ("clinic", "hospital")],
    )


RESOLVE_SUFFIXES = ["tn01", "tn_01", "row_1", "c1", "ds_a"]
RESOLVE_TEXTS = [
    "TN01", "tn 01", "Tn-01", "Row 1", "C1", "ds_a/tn01", "ds_b/c1", "!!", "zz", "DS A",
]


@st.composite
def random_link_graph(draw):
    """Targets of every etype under colliding id suffixes, plus `case`
    entities whose links point at them by id or by suffix text."""
    target_ids = draw(
        st.lists(
            st.one_of(
                st.builds(
                    "{}/{}".format,
                    st.sampled_from(["ds_a", "ds_b", "ds_c"]),
                    st.sampled_from(RESOLVE_SUFFIXES),
                ),
                st.sampled_from(RESOLVE_SUFFIXES),
            ),
            unique=True,
            max_size=12,
        )
    )
    entities = [
        entity(entity_id, draw(st.sampled_from(sorted(link_etg().etypes))))
        for entity_id in target_ids
    ]
    source_ids = [f"ds_s/s{i}" for i in range(3)]
    entities += [entity(entity_id, "case") for entity_id in source_ids]
    links = draw(
        st.lists(
            st.builds(
                PendingLink,
                source_id=st.sampled_from(source_ids + target_ids[:2] + ["ds_z/gone"]),
                property=st.sampled_from(["at", "in", "of", "note"]),
                target_text=st.sampled_from(RESOLVE_TEXTS),
                dataset_id=st.sampled_from(["ds_a", "ds_l"]),
            ),
            max_size=15,
        )
    )
    return entities, links


class TestResolveIndex:
    @settings(max_examples=200)
    @given(random_link_graph())
    def test_resolve_equals_scan_oracle(self, graph):
        entities, links = graph
        eg = EG(
            id="eg",
            schema=link_etg(),
            entities={e.id: e for e in entities},
        )
        start = initial_state(eg.schema, eg.id)._replace(eg=eg, pending=tuple(links))
        resolved, still = resolve_pending(start)
        expected = {}
        unresolved = []
        for link in links:
            target = scan_link_target(eg, link)
            if target is None:
                unresolved.append(link)
            else:
                expected.setdefault(link.source_id, set()).add((link.property, target, link.dataset_id))
        assert resolved == expected
        assert still == tuple(sorted(unresolved))
        assert start.eg.entities == {e.id: e for e in entities}


class TestResolvePending:
    def state_with_hospitals(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state,
            "ds_h",
            "hospital",
            hospital_columns(),
            [["TN01", "Santa Chiara", "400"], ["TN02", "San Camillo", "90"]],
        )
        return state

    def case_columns(self):
        return [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")]

    def test_suffix_resolution(self):
        state = self.state_with_hospitals()
        state, report = run_dataset(
            state, "ds_c", "covid_case", self.case_columns(), [["C1", "TN01"]]
        )
        case = state.eg.entities["ds_c/c1"]
        assert case.object_links == frozenset(
            {("hospital", "ds_h/tn01", "ds_c")}
        )
        assert report.unresolved_links == ()

    def test_exact_id_resolution(self):
        state = self.state_with_hospitals()
        state, _ = run_dataset(
            state, "ds_c", "covid_case", self.case_columns(), [["C1", "ds_h/tn02"]]
        )
        case = state.eg.entities["ds_c/c1"]
        assert case.object_links == frozenset(
            {("hospital", "ds_h/tn02", "ds_c")}
        )

    def test_unresolved_stays_out_of_graph(self):
        state = self.state_with_hospitals()
        state, report = run_dataset(
            state, "ds_c", "covid_case", self.case_columns(), [["C1", "TN99"]]
        )
        assert state.eg.entities["ds_c/c1"].object_links == frozenset()
        (link,) = report.unresolved_links
        assert link.target_text == "TN99"
        assert state.pending == report.unresolved_links

    def test_link_resolves_after_target_arrives(self):
        # cases come first, hospitals later; the retry picks the link up
        state = initial_state(hospital_etg(), "eg")
        state, report = run_dataset(
            state, "ds_c", "covid_case", self.case_columns(), [["C1", "TN01"]]
        )
        assert report.unresolved_links != ()
        state, report = run_dataset(
            state, "ds_h", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]
        )
        assert report.unresolved_links == ()
        case = state.eg.entities["ds_c/c1"]
        assert case.object_links == frozenset(
            {("hospital", "ds_h/tn01", "ds_c")}
        )

    def test_range_conformance_includes_subclasses(self):
        etg = make_etg(
            "g",
            ["facility", "hospital", "covid_case"],
            {
                "facility": ["operator"],
                "hospital": ["code"],
                "covid_case": ["case_id", ("hospital", "object", "facility")],
            },
            subclass=[("hospital", "facility")],
        )
        state = initial_state(etg, "eg")
        schema = make_schema("ds_h", "hospital", [("code", "code", "identity")])
        mapping = infer_mapping(schema, etg)
        state, _ = integrate_dataset(state, mapping, ["code"], [["TN01"]])
        case_schema = make_schema(
            "ds_c", "covid_case", [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")]
        )
        case_mapping = infer_mapping(case_schema, etg)
        state, report = integrate_dataset(
            state,
            case_mapping,
            ["case_id", "hospital"],
            [["C1", "TN01"]],
        )
        assert report.unresolved_links == ()

    def test_wrong_etype_never_conforms(self):
        state = self.state_with_hospitals()
        # a covid_case entity whose suffix collides with the link text
        state, _ = run_dataset(
            state,
            "ds_c",
            "covid_case",
            [("case_id", "case_id", "identity")],
            [["TN01"]],
        )
        state, report = run_dataset(
            state, "ds_d", "covid_case", self.case_columns(), [["C9", "TN01"]]
        )
        case = state.eg.entities["ds_d/c9"]
        # resolves to the hospital, not the same-suffix covid_case
        assert case.object_links == frozenset(
            {("hospital", "ds_h/tn01", "ds_d")}
        )

    def test_ambiguous_suffix_takes_min_id(self):
        state = initial_state(hospital_etg(), "eg")
        for ds in ("ds_y", "ds_x"):
            frag_state, _ = run_dataset(
                state,
                ds,
                "hospital",
                [("name", None, "attribute"), ("code", "code", "identity")],
                [[f"From {ds}", "TN01"]],
            )
            state = frag_state
        state, _ = run_dataset(
            state, "ds_c", "covid_case", self.case_columns(), [["C1", "TN01"]]
        )
        case = state.eg.entities["ds_c/c1"]
        assert case.object_links == frozenset(
            {("hospital", "ds_x/tn01", "ds_c")}
        )

    def test_resolve_pending_counts(self):
        state = self.state_with_hospitals()
        pending = state.pending
        assert pending == ()
        assert resolve_pending(state) == ({}, ())


link_texts = st.text(alphabet="ab/_", max_size=3)


class TestPendingLinkOrder:
    @given(st.lists(st.builds(PendingLink, link_texts, link_texts, link_texts, link_texts)))
    def test_links_sort_field_by_field(self, links):
        # the order in which integration_report.json lists unresolved links
        def by_fields(link):
            return (link.source_id, link.property, link.target_text, link.dataset_id)

        assert sorted(links) == sorted(links, key=by_fields)


class TestComponentsAndMissing:
    def test_component_count_known(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state,
            "ds_h",
            "hospital",
            hospital_columns(),
            [["TN01", "A", "1"], ["TN02", "B", "2"]],
        )
        assert connected_components(state.eg) == 2
        state, _ = run_dataset(
            state,
            "ds_c",
            "covid_case",
            [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")],
            [["C1", "TN01"]],
        )
        assert connected_components(state.eg) == 2

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=60),
        st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=120),
    )
    def test_components_match_bfs_oracle(self, n, raw_edges):
        etg = make_etg("g", ["node"], {"node": [("to", "object", "node")]})
        links = {}
        for i, j in raw_edges:
            links.setdefault(i % n, set()).add(j % n)
        entities = {
            f"d/n{i}": entity(
                f"d/n{i}",
                "node",
                links=[("to", f"d/n{j}", "d") for j in sorted(links.get(i, ()))],
            )
            for i in range(n)
        }
        eg = EG(id="eg", schema=etg, entities=entities)
        assert connected_components(eg) == bfs_component_count(eg)

    @settings(max_examples=100)
    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=40),
    )
    def test_components_match_full_union_find(self, n, raw_edges):
        # nodes from n on are no entity, so some links name a missing id, and
        # most entities hold no link
        etg = make_etg("g", ["node"], {"node": [("to", "object", "node")]})
        entities = {
            f"d/n{i}": entity(f"d/n{i}", "node", links=[("to", f"d/n{j}", "d") for k, j in raw_edges if k == i])
            for i in range(n)
        }
        eg = EG(id="eg", schema=etg, entities=entities)
        assert connected_components(eg) == union_find_component_count(eg)

    def test_missing_ratio_hand_computed(self):
        state = initial_state(hospital_etg(), "eg")
        state, report = run_dataset(
            state, "ds_h", "hospital", hospital_columns(), [["TN01", "A", ""]]
        )
        # hospital declares code, name, beds, municipality plus inherited
        # operator: five slots, two filled
        assert missing_ratio(state.eg) == Fraction(3, 5)
        assert report.missing_link_ratio == Fraction(3, 5)

    def test_missing_ratio_counts_links(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state,
            "ds_c",
            "covid_case",
            [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")],
            [["C1", "TN42"]],
        )
        # declared: case_id, case_date, hospital, patient_count; only case_id
        # is populated since the link never resolved
        assert missing_ratio(state.eg) == Fraction(3, 4)


class TestCaseReports:
    def test_case_and_overlap_enums(self):
        state = initial_state(hospital_etg(), "eg")
        state, first = run_dataset(
            state, "ds_a", "hospital", hospital_columns(), [["TN01", "A", "1"]]
        )
        assert (first.case, first.entity_overlap) == ("new_etype", "only_one")
        state, second = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN01", "A", "1"]]
        )
        assert (second.case, second.entity_overlap) == ("shared_etype", "populates_both")
        state, third = run_dataset(
            state, "ds_c", "covid_case", [("case_id", "case_id", "identity")], [["C1"]]
        )
        assert (third.case, third.entity_overlap) == ("new_etype", "only_one")

    def test_report_json_shape(self):
        state = initial_state(hospital_etg(), "eg")
        _, report = run_dataset(
            state, "ds_a", "hospital", hospital_columns(), [["TN01", "A", "1"]]
        )
        doc = report.to_json()
        assert doc["dataset_id"] == "ds_a"
        assert doc["case"] == "new_etype"
        assert doc["entity_overlap"] == "only_one"
        assert doc["missing_link_ratio"]["num"] == 2
        assert doc["unresolved_links"] == []
        assert doc["stats"]["rows"] == 1

    def test_double_integration_is_idempotent(self):
        state = initial_state(hospital_etg(), "eg")
        rows = [["TN01", "Santa Chiara", "400"], ["TN02", "San Camillo", "90"]]
        state, _ = run_dataset(state, "ds_a", "hospital", hospital_columns(), rows)
        before_occurrences = occurrence_count(state.eg)
        state, report = run_dataset(state, "ds_a", "hospital", hospital_columns(), rows)
        assert report.appended == 0
        assert occurrence_count(state.eg) == before_occurrences
        assert len(state.eg.entities) == 2

    def test_value_occurrences_conserved(self):
        state = initial_state(hospital_etg(), "eg")
        rows = [["TN01", "Santa Chiara", "400"], ["TN02", "", "90"]]
        state, report = run_dataset(state, "ds_a", "hospital", hospital_columns(), rows)
        non_empty_cells = sum(1 for row in rows for cell in row if cell)
        assert occurrence_count(state.eg) == non_empty_cells
        assert report.stats["data_cells"] == non_empty_cells

    def test_flags_are_derived_once_per_graph(self, monkeypatch):
        flagged, populated, value_sets = [], [], []
        conflicting = Entity.conflicting_properties
        monkeypatch.setattr(
            Entity,
            "conflicting_properties",
            lambda self: flagged.append(self.id) or conflicting(self),
        )
        sets = Entity.value_sets
        monkeypatch.setattr(Entity, "value_sets", lambda self: value_sets.append(self.id) or sets(self))
        original = integration._populated
        monkeypatch.setattr(
            integration, "_populated", lambda entity: populated.append(entity.id) or original(entity)
        )
        rows = [[f"TN{n:02d}", f"Hospital {n}", str(n)] for n in range(50)]
        state = initial_state(hospital_etg(), "eg")
        state, report = run_dataset(state, "ds_a", "hospital", hospital_columns(), rows)
        # flag and populated work once per new entity, and no value-set map:
        # no property holds two values
        assert len(flagged) == len(populated) == 50
        assert value_sets == []
        assert report.conflicts == 0
        # a 1-row dataset merging into one of the 50 entities does that work
        # for the old and new versions of that entity alone, not for all 51
        flagged.clear()
        populated.clear()
        first, entities = state.eg, dict(state.eg.entities)
        state, report = run_dataset(
            state, "ds_b", "hospital", hospital_columns(), [["TN01", "Other name", "7"]]
        )
        assert sorted(flagged) == sorted(populated) == ["ds_a/tn01", "ds_a/tn01"]
        assert report.conflicts == 2
        # the new graph leaves the first one and its flags as they were
        assert first.entities == entities
        assert flagged_pairs(first) == scan_conflict_flags(first.entities) == frozenset()
        assert flagged_pairs(state.eg) == {("ds_a/tn01", "name"), ("ds_a/tn01", "beds")}


def report_etg():
    """sites that link to sites, and cases that link to sites."""
    return make_etg(
        "g",
        ["site", "case"],
        {
            "site": ["code", "name", "town", ("near", "object", "site")],
            "case": ["case_id", ("at", "object", "site")],
        },
    )


REPORT_CELLS = {
    "code": ["S1", " s1", "S2", ""],
    "name": ["A", "a ", "B", ""],
    "town": ["T", "U", ""],
    "near": ["S1", "S2", "ds_a/s1", "Row 1", "zz", ""],
    "case_id": ["C1", "C2", ""],
    "at": ["S2", "row_2", ""],
}


@st.composite
def dataset_sequence(draw):
    """2-4 datasets with distinct ids, integrated in a drawn order so that
    later ids may sort below earlier ones and rename their entities; mostly
    sites, keyed on `code` or keyless, whose small value pools make rows
    overlap, merge, conflict and link to each other."""
    order = draw(st.permutations(["ds_a", "ds_b", "ds_c", "ds_d"]))
    datasets = []
    for dataset_id in order[: draw(st.integers(2, 4))]:
        etype = draw(st.sampled_from(["site", "site", "case"]))
        props = ["code", "name", "town", "near"] if etype == "site" else ["case_id", "at"]
        keyed = draw(st.booleans())
        columns = [(p, p, "identity" if keyed and i == 0 else "attribute") for i, p in enumerate(props)]
        rows = draw(
            st.lists(st.tuples(*(st.sampled_from(REPORT_CELLS[p]) for p in props)), max_size=6)
        )
        datasets.append((dataset_id, etype, columns, [list(row) for row in rows]))
    return datasets


SITE_COLUMNS = [("code", "code", "attribute"), ("name", "name", "attribute"), ("town", "town", "attribute"), ("near", "near", "attribute")]
KEYED_SITE_COLUMNS = [("code", "code", "identity"), *SITE_COLUMNS[1:]]
CASE_COLUMNS = [("case_id", "case_id", "attribute"), ("at", "at", "attribute")]


class TestCaseReportOracle:
    @settings(max_examples=300)
    @given(dataset_sequence())
    # two records of one dataset merge into one existing entity: merged 1
    @example([("ds_a", "site", SITE_COLUMNS, [["", "A", "", ""]]), ("ds_b", "site", SITE_COLUMNS, [["", "A", "T", ""], ["", "a", "U", ""]])])
    # a record's id renames the existing entity: merged 1, appended 0
    @example([("ds_b", "site", KEYED_SITE_COLUMNS, [["S1", "A", "", ""]]), ("ds_a", "site", KEYED_SITE_COLUMNS, [["s1", "", "T", ""]])])
    def test_report_equals_full_scan(self, datasets):
        state = initial_state(report_etg(), "eg")
        for dataset_id, etype, columns, rows in datasets:
            before = state.eg
            state, report = run_dataset(state, dataset_id, etype, columns, rows)
            after = state.eg
            assert validate_eg(after) == []
            flags_before = scan_conflict_flags(before.entities)
            assert report.conflicts == len(scan_conflict_flags(after.entities)) - len(flags_before)
            assert report.missing_link_ratio == scan_missing_ratio(after)
            assert report.components_before == bfs_component_count(before)
            assert report.connected_components == bfs_component_count(after)
            counts = scan_case_counts(before, after, dataset_id, etype)
            assert {name: getattr(report, name) for name in counts} == counts
            assert report.merged_entities >= 0
            overlap = "populates_both" if counts["merged_entities"] >= 1 else "only_one"
            assert report.entity_overlap == overlap
            assert state.totals.populated_elements(after.schema) == scan_populated_elements(after)

    def test_new_entity_holding_nothing_of_the_dataset_is_not_merged(self):
        # the one row's only cell is a link to a site that is not there yet
        columns = [("case_id", "case_id", "attribute"), ("at", "at", "attribute")]
        state = initial_state(report_etg(), "eg")
        state, report = run_dataset(state, "ds_a", "case", columns, [["", "S2"]])
        assert (report.appended, report.merged_entities) == (1, 0)
        assert report.entity_overlap == "only_one"
        assert len(state.pending) == 1


HOSPITAL_TOWN_COLUMNS = [*hospital_columns(), ("municipality", "municipality", "attribute")]
KEYLESS_TOWN_COLUMNS = [(name, prop, "attribute") for name, prop, _role in HOSPITAL_TOWN_COLUMNS]
TOWNS = ["Trento", "Rovereto", "Arco", "Pergine", "Cles", "Riva", "Borgo", "Tione"]


def overlap_datasets(n):
    """The merge_overlap shape: n keyed hospitals in 8 towns, the same rows
    reversed under a second id, and a keyless copy of half of them mixed
    with n/2 new rows."""
    rng = random.Random(n)

    def hospitals(start, count):
        return [[f"TN{i:05d}", f"Hospital {i}", str(rng.randrange(20, 900)), rng.choice(TOWNS)] for i in range(start, start + count)]

    rows = hospitals(0, n)
    keyless = rng.sample(rows, n // 2) + hospitals(n, n // 2)
    rng.shuffle(keyless)
    return [
        ("ds_a", HOSPITAL_TOWN_COLUMNS, rows),
        ("ds_b", HOSPITAL_TOWN_COLUMNS, rows[::-1]),
        ("ds_c", KEYLESS_TOWN_COLUMNS, keyless),
    ]


def fragment_for(state, dataset_id, etype, columns, rows):
    """The fragment that `run_dataset` makes of the same arguments."""
    mapping = mapping_for(dataset_id, etype, columns, etg=state.eg.schema)
    header = [normalize_text(column[0]) for column in columns]
    return generate_entities(mapping, header, rows, state.eg.schema)


def builder_of(schema_graph):
    return integration._GraphBuilder(initial_state(schema_graph, "eg"))


def index_fields(index):
    return index.etype, index.sets, index.groups, index.entries, index.stale


class TestPersistentMatchIndex:
    """One builder carries each etype's match index from dataset to dataset
    and updates it in place; it must match as a scan of the whole graph
    does."""

    @staticmethod
    def assert_describes_its_graph(builder):
        # brought up to date, each carried index equals one built afresh; the
        # copy keeps the carried one's stale ids for the datasets to come
        for etype, index in builder.indexes.items():
            carried = copy.deepcopy(index)
            carried.refresh(builder.entities)
            assert index_fields(carried) == index_fields(EtypeIndex.of(builder.entities, etype))

    @settings(max_examples=200)
    @given(dataset_sequence())
    # the cases are indexed by ds_b, whose appended case and the links that
    # ds_c's site resolves are two changes that no dataset has applied yet
    @example([("ds_a", "case", CASE_COLUMNS, [["C1", "S2"]]), ("ds_b", "case", CASE_COLUMNS, [["C2", "S2"]]), ("ds_c", "site", KEYED_SITE_COLUMNS, [["S2", "A", "T", "S1"]])])
    def test_each_step_matches_as_the_scan(self, datasets):
        builder = builder_of(report_etg())
        for dataset_id, etype, columns, rows in datasets:
            mapping, header, rows = dataset_args(builder.eg.schema, dataset_id, etype, columns, rows)
            fragment = generate_entities(mapping, header, rows, builder.eg.schema)
            expected = scan_match_entities(builder.eg, fragment)
            held = builder._index(etype)  # as `add` brings it up to date
            # the weights make every record probe, take its default route,
            # or scan: no record shares a million block entries
            for weight in (0, matching.PROBE_WEIGHT, 10**6):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(matching, "PROBE_WEIGHT", weight)
                    assert match_entities(builder.eg, fragment, {} if held is None else {etype: held}) == expected
            builder.add(mapping, header, rows)
            self.assert_describes_its_graph(builder)

    def test_a_used_state_integrates_alike_again(self):
        parent = initial_state(hospital_etg(), "eg")
        for dataset_id, columns, rows in overlap_datasets(40)[:2]:
            parent, _report = run_dataset(parent, dataset_id, "hospital", columns, rows)
        entities = dict(parent.eg.entities)
        _ds, columns, rows = overlap_datasets(40)[2]
        first = run_dataset(parent, "ds_c", "hospital", columns, rows)
        second = run_dataset(parent, "ds_c", "hospital", columns, rows)
        assert first == second
        assert first[1].merged_entities == 20
        # the parent still holds its graph
        assert parent.eg.entities == entities

    def test_a_state_given_another_graph_matches_as_the_scan(self):
        state = initial_state(hospital_etg(), "eg")
        state, _report = run_dataset(state, "ds_a", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]])
        state, _report = run_dataset(state, "ds_b", "hospital", hospital_columns(), [["TN02", "Villa Rosa", "90"]])
        other = graph_of([entity("ds_z/k1", "hospital", {"name": [("Santa Chiara", "ds_z")]})])
        moved = state._replace(eg=other)
        # in the first graph, the row would denote ds_a/tn01
        rows = [["", "santa chiara", ""]]
        fragment = fragment_for(moved, "ds_c", "hospital", hospital_columns(), rows)
        assert match_entities(moved.eg, fragment) == scan_match_entities(other, fragment) == {"ds_c/row_1": "ds_z/k1"}
        after, report = run_dataset(moved, "ds_c", "hospital", hospital_columns(), rows)
        assert list(after.eg.entities) == ["ds_c/row_1"]
        assert report.merged_entities == 1

    def test_comparisons_grow_linearly_with_the_rows(self, monkeypatch):
        compared = []
        original = integration._same_entity
        monkeypatch.setattr(integration, "_same_entity", lambda *args: compared.append(1) or original(*args))
        calls = {}
        for n in (400, 1600):
            compared.clear()
            builder = builder_of(hospital_etg())
            for dataset_id, columns, rows in overlap_datasets(n):
                builder.add(*dataset_args(builder.eg.schema, dataset_id, "hospital", columns, rows))
            assert len(builder.entities) == n + n // 2
            calls[n] = len(compared)
        # each reversed row and each overlapping keyless row is compared once,
        # with its match; no new row is compared at all
        assert calls == {400: 600, 1600: 2400}

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_value_sets_builds_do_not_grow_with_earlier_datasets(self, monkeypatch, k):
        built = []
        value_sets = Entity.value_sets
        monkeypatch.setattr(Entity, "value_sets", lambda self: built.append(self.id) or value_sets(self))
        m = 20
        builds = []
        builder = builder_of(hospital_etg())
        for j in range(k):
            # half of each dataset's codes are the previous dataset's
            rows = [[f"TN{i:03d}", f"Hospital {i}", str(i)] for i in range(j * m // 2, j * m // 2 + m)]
            built.clear()
            builder.add(*dataset_args(builder.eg.schema, f"ds_{j}", "hospital", hospital_columns(), rows))
            builds.append(len(built))
        # the first dataset meets no hospital, and the second indexes the
        # first's m; every later one builds the maps of its m records and of
        # the m / 2 entities that the dataset before it appended (the m / 2
        # it merged repeat their texts, so they keep their maps)
        assert builds == [0, 2 * m] + [m + m // 2] * (k - 2)

    def test_no_value_sets_when_no_dataset_shares_an_etype(self, monkeypatch):
        built = []
        value_sets = Entity.value_sets
        monkeypatch.setattr(Entity, "value_sets", lambda self: built.append(self.id) or value_sets(self))
        builder = builder_of(hospital_etg())
        rows = [[f"TN{i:02d}", f"Hospital {i}", str(i)] for i in range(30)]
        builder.add(*dataset_args(builder.eg.schema, "ds_h", "hospital", hospital_columns(), rows))
        case_columns = [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")]
        report = builder.add(*dataset_args(builder.eg.schema, "ds_c", "covid_case", case_columns, [[f"C{i}", f"TN{i:02d}"] for i in range(30)]))
        assert report.unresolved_links == ()
        operators = [("operator", "operator", "identity")]
        builder.add(*dataset_args(builder.eg.schema, "ds_f", "facility", operators, [["APSS"]]))
        assert built == []
        assert builder.indexes == {}


def state_snapshot(state):
    """What a state holds, down to each entity's object and fields and the
    totals' mappings, to check later that nothing changed it."""
    totals = state.totals
    return (
        state.eg.id,
        {entity_id: (e, tuple(e)) for entity_id, e in state.eg.entities.items()},
        state.pending,
        totals,
        dict(totals.etypes),
        {etype: dict(counts) for etype, counts in totals.populated.items()},
    )


class ChainOfCalls:
    """`_GraphBuilder`'s interface over a chain of `integrate_dataset` calls."""

    def __init__(self, state):
        self._state = state

    def add(self, mapping, header, rows):
        self._state, report = integrate_dataset(self._state, mapping, header, rows)
        return report

    def state(self):
        return self._state


def builder_and_chain_files(argv, out):
    """The `eg.nt` and `integration_report.json` bytes that `main(argv(o))`
    writes into `o` with one builder and with a chain of `integrate_dataset`
    calls."""
    written = []
    for name, builder in (("builder", integration._GraphBuilder), ("chain", ChainOfCalls)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_GraphBuilder", builder)
            code = main(argv(out / name))
        assert code in (0, 1)
        written.append([(out / name / f).read_bytes() for f in ("eg.nt", "integration_report.json")])
    return written


def integrate_argv(root, datasets):
    """A function from an out directory to the `itelos integrate` arguments
    for drawn datasets against `report_etg()`, which `--etg` names; with no
    selection the purpose's order is kept."""
    dump_etg(report_etg(), root / "etg.json")
    refs = []
    for dataset_id, etype, columns, rows in datasets:
        path = write_csv(root / f"{dataset_id}.csv", [name for name, _p, _r in columns], rows)
        sidecar = {"dataset_id": dataset_id, "etype": etype, "columns": [{"name": n, "property": p, "role": r} for n, p, r in columns]}
        path.with_suffix(".schema.json").write_text(json.dumps(sidecar), encoding="utf-8")
        refs.append({"id": dataset_id, "path": path.name, "category": "core", "popularity": 1})
    cqs = [{"id": "cq", "sentence": "Which sites are there?", "etypes": ["site"], "properties": []}]
    purpose = {"title": "drawn", "cqs": cqs, "datasets": refs, "ontologies": []}
    (root / "purpose.json").write_text(json.dumps(purpose), encoding="utf-8")
    return lambda out: ["integrate", "--purpose", str(root / "purpose.json"), "--etg", str(root / "etg.json"), "--out", str(out)]


class TestIntegrateDatasetWrapper:
    """`integrate_dataset` builds from a copy of its state's graph, so it
    never changes a state, and a chain of its calls writes what one builder
    writes. CI runs these tests under the 2,000-example hostile-input profile
    too."""

    @settings(deadline=None)
    @given(dataset_sequence())
    def test_a_state_is_never_changed(self, datasets):
        state = initial_state(report_etg(), "eg")
        *earlier, (dataset_id, etype, columns, rows) = datasets
        for dataset in earlier:
            state, _report = run_dataset(state, *dataset)
        snapshot = state_snapshot(state)
        first = run_dataset(state, dataset_id, etype, columns, rows)
        second = run_dataset(state, dataset_id, etype, columns, rows)
        assert first == second
        assert state_snapshot(state) == snapshot
        for entity_id, (entity, _fields) in snapshot[1].items():
            assert state.eg.entities[entity_id] is entity

    @settings(deadline=None)
    @given(dataset_sequence())
    def test_a_chain_of_calls_writes_what_one_builder_writes(self, datasets):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            built, chained = builder_and_chain_files(integrate_argv(root, datasets), root / "out")
        assert built == chained

    @pytest.mark.parametrize("source", ["fixture", "renames", *TINY])
    def test_a_chain_of_calls_runs_the_corpus_alike(self, source, tmp_path):
        _, argv = reuse_input(source, tmp_path / "input", seed=101)
        built, chained = builder_and_chain_files(argv, tmp_path / "out")
        assert built == chained


PADDING = st.text(" \t", max_size=2)


@st.composite
def padded_datasets(draw):
    """`dataset_sequence` datasets with every cell wrapped in runs of spaces
    and tabs, so that some empty cells become blank."""
    return [
        (dataset_id, etype, columns, [[draw(PADDING) + cell + draw(PADDING) for cell in row] for row in rows])
        for dataset_id, etype, columns, rows in draw(dataset_sequence())
    ]


class TestPaddedCells:
    """Rows reach `integrate_dataset` as read, so the library builds the
    graph that the CLI builds from the same file."""

    @settings(max_examples=200)
    @given(padded_datasets())
    @example([("ds_a", "site", KEYED_SITE_COLUMNS[:2], [["S1", "   "], ["  ", "  "]])])
    def test_padded_rows_integrate_as_stripped_ones(self, datasets):
        padded = stripped = initial_state(report_etg(), "eg")
        for dataset_id, etype, columns, rows in datasets:
            padded, padded_report = run_dataset(padded, dataset_id, etype, columns, rows)
            trimmed = [[cell.strip() for cell in row] for row in rows]
            stripped, stripped_report = run_dataset(stripped, dataset_id, etype, columns, trimmed)
            assert validate_eg(padded.eg) == []
            assert (padded, padded_report) == (stripped, stripped_report)

    def test_blank_cells_are_no_values(self, tmp_path):
        state = initial_state(report_etg(), "eg")
        state, report = run_dataset(state, "ds_a", "site", KEYED_SITE_COLUMNS[:2], [["S1", "   "], ["  ", "  "]])
        assert report.stats == {"rows": 2, "skipped_empty_rows": 1, "entities": 1, "data_cells": 1, "dropped_columns": 0}
        assert list(state.eg.entities) == ["ds_a/s1"]
        export_eg(state.eg, tmp_path / "eg.nt")
        assert "etg:name" not in (tmp_path / "eg.nt").read_text(encoding="utf-8")


class TestEvalPurpose:
    def populated_state(self):
        state = initial_state(hospital_etg(), "eg")
        state, _ = run_dataset(
            state, "ds_h", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]
        )
        return state

    def test_pass(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
        report = eval_purpose(self.populated_state(), cqs)
        assert report.gate == "eval_d"
        assert report.verdict == "pass"
        assert all(e.result.value == 1 for e in report.entries)

    def test_superclass_query_satisfied_by_subclass_instances(self):
        cqs = [make_cq("q", ["facility"])]
        report = eval_purpose(self.populated_state(), cqs)
        assert report.verdict == "pass"

    def test_missing_elements_listed(self):
        cqs = [make_cq("q", ["hospital", "covid_case"])]
        report = eval_purpose(self.populated_state(), cqs)
        assert report.verdict == "fail"
        (entry,) = report.entries
        assert entry.note == "missing: covid_case"

    def test_rename_map_translates_queries(self):
        cqs = [make_cq("q", ["hospitl"], [("hospitl", "name")])]
        report = eval_purpose(
            self.populated_state(), cqs, rename_map={"hospitl": "hospital"}
        )
        assert report.verdict == "pass"

    def test_unpopulated_property_fails(self):
        cqs = [make_cq("q", ["hospital"], [("hospital", "municipality")])]
        report = eval_purpose(self.populated_state(), cqs)
        assert report.verdict == "fail"
        notes = [e.note for e in report.entries if e.elements == "properties"]
        assert notes == ["missing: hospital.municipality"]

    def test_no_queries_fails(self):
        report = eval_purpose(self.populated_state(), [])
        assert report.verdict == "fail"


class TestExport:
    def test_sorted_deduped_output(self, tmp_path):
        schema = hospital_etg()
        # same value from two sources yields one line
        e = entity(
            "d/x",
            "hospital",
            {"name": [("Santa Chiara", "a"), ("Santa Chiara", "b")]},
        )
        eg = EG(id="eg", schema=schema, entities={"d/x": e})
        path = tmp_path / "eg.nt"
        warnings = export_eg(eg, path)
        assert warnings == []
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == 2
        assert '"Santa Chiara"' in lines[1]

    def test_typed_literals(self, tmp_path):
        e = entity(
            "d/x",
            "hospital",
            {"beds": [("400", "a")], "name": [("A", "a")]},
        )
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/x": e})
        path = tmp_path / "eg.nt"
        export_eg(eg, path)
        text = path.read_text()
        assert '"400"^^<http://www.w3.org/2001/XMLSchema#integer>' in text
        assert '"A"^^' not in text

    def test_invalid_typed_value_warns(self, tmp_path):
        e = entity("d/x", "hospital", {"beds": [("many", "a")]})
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/x": e})
        warnings = export_eg(eg, tmp_path / "eg.nt")
        (warning,) = warnings
        assert "not a valid integer" in warning
        assert '"many"' in (tmp_path / "eg.nt").read_text()
        assert "^^" not in (tmp_path / "eg.nt").read_text()

    def test_invalid_value_from_two_datasets_warns_once(self, tmp_path):
        e = entity("d/x", "hospital", {"beds": [("many", "d"), ("many", "e"), ("lots", "d")]})
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/x": e})
        warnings = export_eg(eg, tmp_path / "eg.nt")
        # one line per value, and one warning per line
        assert [w.split()[2] for w in warnings] == ["'many'", "'lots'"]
        assert len((tmp_path / "eg.nt").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "text, typed",
        [("2020-03-01", True), ("20200301", False), ("2020-W10-1", False), ("2020-02-30", False)],
    )
    def test_date_needs_xsd_lexical_form(self, tmp_path, text, typed):
        e = entity("d/c", "covid_case", {"case_date": [(text, "a")]})
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/c": e})
        warnings = export_eg(eg, tmp_path / "eg.nt")
        typed_literal = f'"{text}"^^<http://www.w3.org/2001/XMLSchema#date>'
        assert (typed_literal in (tmp_path / "eg.nt").read_text()) == typed
        assert len(warnings) == (0 if typed else 1)

    def test_escaping(self, tmp_path):
        e = entity("d/x", "hospital", {"name": [('He said "hi"\n', "a")]})
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/x": e})
        export_eg(eg, tmp_path / "eg.nt")
        text = (tmp_path / "eg.nt").read_text()
        assert '"He said \\"hi\\"\\n"' in text

    @pytest.mark.parametrize(
        "text, escaped",
        [
            ('\\ " \n \r \t', '\\\\ \\" \\n \\r \\t'),
            # each escaped character alone, in otherwise plain text
            ("a\\b", "a\\\\b"),
            ('a"b', 'a\\"b'),
            ("a\nb", "a\\nb"),
            ("a\rb", "a\\rb"),
            ("a\tb", "a\\tb"),
            ("Città di Trento – 病院 ü", "Città di Trento – 病院 ü"),
            ("plain text, 'quoted' / <b>", "plain text, 'quoted' / <b>"),
            ("", ""),
        ],
    )
    def test_escape_literal(self, text, escaped):
        assert integration._escape_literal(text) == escaped

    def test_type_and_link_triples(self, tmp_path):
        h = entity("d/h", "hospital", {"code": [("TN01", "a")]})
        c = entity("d/c", "covid_case", links=[("hospital", "d/h", "a")])
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/h": h, "d/c": c})
        export_eg(eg, tmp_path / "eg.nt")
        text = (tmp_path / "eg.nt").read_text()
        assert (
            "<urn:itelos:eg:d/c> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<urn:itelos:etg:covid_case> ." in text
        )
        assert "<urn:itelos:eg:d/c> <urn:itelos:etg:hospital> <urn:itelos:eg:d/h> ." in text

    def test_each_iri_is_quoted_once(self, tmp_path, monkeypatch):
        quoted = []
        original = integration.quote
        monkeypatch.setattr(
            integration, "quote", lambda text, safe: quoted.append(text) or original(text, safe=safe)
        )
        hospitals = [entity(f"d/h{i}", "hospital", {"code": [(f"H{i}", "a")]}) for i in range(3)]
        cases = [
            entity(f"d/c{i}", "covid_case", {"case_id": [(f"C{i}", "a")]}, [("hospital", f"d/h{i % 3}", "a")])
            for i in range(6)
        ]
        eg = EG(id="eg", schema=hospital_etg(), entities={e.id: e for e in hospitals + cases})
        export_eg(eg, tmp_path / "eg.nt")
        # 9 entity ids; hospital, covid_case, code and case_id (the link
        # property `hospital` has the etype's IRI)
        assert len(quoted) == len(set(quoted)) == 9 + 4
        assert len((tmp_path / "eg.nt").read_text().splitlines()) == 9 + 9 + 6

    def test_empty_graph_empty_file(self, tmp_path):
        eg = EG(id="eg", schema=hospital_etg(), entities={})
        export_eg(eg, tmp_path / "eg.nt")
        assert (tmp_path / "eg.nt").read_text() == ""

    def test_trailing_newline(self, tmp_path):
        e = entity("d/x", "hospital", {})
        eg = EG(id="eg", schema=hospital_etg(), entities={"d/x": e})
        export_eg(eg, tmp_path / "eg.nt")
        assert (tmp_path / "eg.nt").read_text().endswith(".\n")

    def test_peak_under_half_the_file(self, tmp_path):
        # a set of all the graph's lines and its sort take 2.8 times the file;
        # one entity's lines at a time, a sixth
        etg, columns, rows = wide_dataset(2000)
        mapping = infer_mapping(make_schema("ds_w", "site", columns), etg)
        header = [name for name, _prop, _role in columns]
        eg = generate_entities(mapping, header, rows, etg).eg
        path = tmp_path / "eg.nt"
        (_warnings, _retained, peak) = traced(lambda: export_eg(eg, path))
        assert peak < path.stat().st_size / 2


# Dataset ids with characters that `quote` escapes, so that subject-IRI order
# differs from entity-id order: "d/x" < "dé/x", but "<...:d%C3%A9/x>" < "<...:d/x>".
EXPORT_DATASETS = ["d", "d e", "d+", "d%", "dé", "z"]
EXPORT_VALUES = st.one_of(
    st.text(alphabet='aé1 "\\\r\n\t', max_size=5),
    st.sampled_from(["400", "many", "2020-03-01", "2020-02-30", "-7"]),
)


@st.composite
def export_graph(draw):
    """Entities of both etypes of hospital_etg: values of every datatype,
    valid or not, the same value from several sources, and links to drawn
    ids or to one outside the graph."""
    sources = st.sampled_from(EXPORT_DATASETS)
    id_of = st.builds("{}/{}".format, sources, st.sampled_from(["x", "1", "A b"]))
    ids = draw(st.lists(id_of, max_size=8, unique=True))
    entities = []
    for entity_id in ids:
        etype = draw(st.sampled_from(["hospital", "covid_case"]))
        props = sorted(hospital_etg().declared_properties(etype))
        pairs = st.lists(st.tuples(EXPORT_VALUES, sources), min_size=1, max_size=3, unique=True)
        values = {
            prop: draw(pairs)
            for prop in draw(st.lists(st.sampled_from(props), unique=True))
            if prop != "hospital"
        }
        targets = st.sampled_from([*ids, "q/out"])
        links = draw(st.lists(st.tuples(st.just("hospital"), targets, sources)))
        entities.append(entity(entity_id, etype, values, links))
    graph_id = draw(st.sampled_from(["eg", "g é"]))
    return EG(id=graph_id, schema=hospital_etg(), entities={e.id: e for e in entities})


class TestExportOracle:
    @settings(max_examples=300)
    @given(export_graph())
    @example(
        EG(
            id="eg",
            schema=hospital_etg(),
            entities={
                eid: entity(eid, "hospital", {"beds": [("many", "d"), ("400", "d"), ("few", "z")]})
                for eid in ("dé/x", "d/x", "d e/x")
            },
        )
    )
    def test_equals_sort_of_all_lines(self, tmp_path_factory, eg):
        out = tmp_path_factory.mktemp("export")
        warnings = export_eg(eg, out / "eg.nt")
        assert warnings == scan_export_eg(eg, out / "scan.nt")
        assert (out / "eg.nt").read_bytes() == (out / "scan.nt").read_bytes()


def typed_etg():
    """A site etype with a data property of every datatype, a key and a link,
    and a clinic subclass that inherits them."""
    return make_etg(
        "schema",
        ["site", "clinic"],
        {
            "site": [
                "code",
                "name",
                ("beds", "data", "integer"),
                ("share", "data", "decimal"),
                ("open", "data", "boolean"),
                ("opened", "data", "date"),
                ("near", "object", "site"),
            ],
            "clinic": ["ward"],
        },
        subclass=[("clinic", "site")],
    )


XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
# No surrogates: every text the pipeline holds was decoded from UTF-8.
ANY_CHAR = st.characters(blacklist_categories=("Cs",))
# Every character N-Triples escapes, tab, and non-ASCII text, among any other.
LITERAL_TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\\r\n\t é–病'), ANY_CHAR), max_size=8)
# Forms valid, or nearly so, under some datatype.
LEXICAL_FORMS = st.sampled_from(
    [
        "400", "-7", "+3", "007", "1_000", "1.5", ".5", "5.", "1e3", " 4", "\u0663",
        "true", "false", "1", "0", "TRUE", "yes",
        "2020-03-01", "2020-02-29", "2021-02-29", "2020-02-30", "0000-01-01",
        "12345-01-01", "2020-3-1", "2020-03-01Z", "20200301",
    ]
)
CELL_TEXT = st.one_of(LITERAL_TEXT, LEXICAL_FORMS)
# Dataset ids with characters outside quote's safe set; "/" separates the key.
DATASET_IDS = st.text(
    alphabet=st.one_of(
        st.sampled_from(' %<>"#?\\{}|^`\n\té'), st.characters(blacklist_categories=("Cs",), blacklist_characters="/")
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def round_trip_graph(draw):
    """A valid graph of typed_etg: ids `<dataset id>/<key>`, drawn non-blank
    text in every data property, the same value from several sources, and links
    between the graph's entities."""
    dataset_ids = draw(st.lists(DATASET_IDS, min_size=1, max_size=3, unique=True))
    sources = st.sampled_from(dataset_ids)
    id_of = st.builds("{}/{}".format, sources, st.sampled_from(["x", "1", "a_b", "é"]))
    ids = draw(st.lists(id_of, min_size=1, max_size=6, unique=True))
    schema = typed_etg()
    entities = []
    for entity_id in ids:
        etype = draw(st.sampled_from(["site", "clinic"]))
        declared = schema.declared_properties(etype)
        data_props = sorted(p for p, d in declared.items() if d.kind == "data")
        pairs = st.lists(st.tuples(CELL_TEXT.filter(str.strip), sources), min_size=1, max_size=3, unique=True)
        values = {p: draw(pairs) for p in draw(st.lists(st.sampled_from(data_props), unique=True))}
        links = draw(st.lists(st.tuples(st.just("near"), st.sampled_from(ids), sources), max_size=3))
        entities.append(entity(entity_id, etype, values, links))
    graph_id = draw(st.text(alphabet=ANY_CHAR, min_size=1, max_size=5))
    return EG(id=graph_id, schema=schema, entities={e.id: e for e in entities})


def assert_round_trip(eg, path):
    """Read back what export_eg writes for `eg` with the test-side N-Triples
    reader and check it against the graph."""
    warnings = export_eg(eg, path)
    triples = read_ntriples(path.read_bytes())
    prefix = f"urn:itelos:{eg.id}:"

    def entity_id(iri):
        text = unquote(iri, errors="strict")
        assert text.startswith(prefix) and text[len(prefix):] in eg.entities, iri
        return text[len(prefix):]

    def etg_term(iri):
        text = unquote(iri, errors="strict")
        assert text.startswith("urn:itelos:etg:"), iri
        return text[len("urn:itelos:etg:"):]

    types, values, links, fallbacks = set(), set(), set(), set()
    for subject, predicate, obj in triples:
        subject_id = entity_id(subject)
        if predicate == RDF_TYPE:
            assert obj[0] == "iri"
            types.add((subject_id, etg_term(obj[1])))
            continue
        prop = etg_term(predicate)
        if obj[0] == "iri":
            links.add((subject_id, prop, entity_id(obj[1])))
            continue
        _, lexical, datatype = obj
        values.add((subject_id, prop, lexical))
        declared = eg.schema.declared_properties(eg.entities[subject_id].etype)[prop].datatype
        if datatype is not None:
            assert datatype == f"{XSD}{declared}"
            assert xsd_valid(declared, lexical), (declared, lexical)
        elif declared != "string":
            fallbacks.add(
                f"{subject_id}: value {lexical!r} for {prop} is not a valid {declared}; "
                "exported as a plain string"
            )
    graph = eg.entities.values()
    assert types == {(e.id, e.etype) for e in graph}
    assert values == {(e.id, p, v) for e in graph for p, v, _ in e.data_values}
    assert links == {(e.id, p, t) for e in graph for p, t, _ in e.object_links}
    assert fallbacks == set(warnings)


class TestNTriplesRoundTrip:
    @settings(max_examples=200)
    @given(round_trip_graph())
    @example(
        EG(
            id="g é",
            schema=typed_etg(),
            entities={
                'd "<%41>/x': entity(
                    'd "<%41>/x',
                    "clinic",
                    {
                        "name": [('say "hi"\\\r\n\t–病', "d")],
                        "beds": [("400", "d"), ("many", "d"), ("many", "e")],
                        "opened": [("2020-02-29", "d"), ("2021-02-29", "d")],
                        "open": [("true", "d"), ("1", "d")],
                    },
                    [("near", 'd "<%41>/x', "d")],
                )
            },
        )
    )
    def test_export_reads_back_as_the_graph(self, tmp_path_factory, eg):
        assert validate_eg(eg) == []
        assert_round_trip(eg, tmp_path_factory.mktemp("export") / "eg.nt")

    @settings(max_examples=300)
    @given(st.sampled_from(["integer", "decimal", "boolean"]), CELL_TEXT)
    def test_typed_exactly_in_the_xsd_lexical_space(self, datatype, text):
        # a date keeps the narrower YYYY-MM-DD rule that README documents
        assert _valid_for(datatype, text) == xsd_valid(datatype, text)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                DATASET_IDS,
                st.lists(
                    st.tuples(st.sampled_from(["S1", "s1", "S2", "", "é"]), CELL_TEXT, CELL_TEXT, CELL_TEXT),
                    min_size=1,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda dataset: dataset[0],
        )
    )
    def test_integrated_graph_reads_back(self, tmp_path_factory, datasets):
        columns = [
            ("code", "code", "identity"),
            ("beds", "beds", "attribute"),
            ("opened", "opened", "attribute"),
            ("near", "near", "link"),
        ]
        state = initial_state(typed_etg(), "eg")
        for dataset_id, rows in datasets:
            state, _ = run_dataset(state, dataset_id, "site", columns, [list(row) for row in rows])
        assert_round_trip(state.eg, tmp_path_factory.mktemp("export") / "eg.nt")


class TestOrderIndependence:
    def datasets(self):
        return [
            ("ds_a", "hospital", hospital_columns(), [["TN01", "Santa Chiara", "400"]]),
            ("ds_b", "hospital", hospital_columns(), [["TN01", "S. Chiara", "410"], ["TN02", "B", "9"]]),
            (
                "ds_c",
                "covid_case",
                [("case_id", "case_id", "identity"), ("hospital", "hospital", "link")],
                [["C1", "TN01"], ["C2", "TN02"]],
            ),
        ]

    def export_for(self, order, tmp_path, name):
        state = initial_state(hospital_etg(), "eg")
        for spec in order:
            state, _ = run_dataset(state, *spec)
            assert validate_eg(state.eg) == []
        path = tmp_path / name
        export_eg(state.eg, path)
        return path.read_bytes()

    def test_export_identical_for_keyed_datasets(self, tmp_path):
        specs = self.datasets()
        forward = self.export_for(specs, tmp_path, "fwd.nt")
        backward = self.export_for(list(reversed(specs)), tmp_path, "bwd.nt")
        assert forward == backward


def exported(state) -> bytes:
    """The bytes export_eg writes for the state's graph."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "eg.nt"
        export_eg(state.eg, path)
        return path.read_bytes()


def integrated(datasets):
    """The state after integrating `datasets` in order into `report_etg`,
    checked with `validate_eg` after every dataset."""
    state = initial_state(report_etg(), "eg")
    for spec in datasets:
        state, _ = run_dataset(state, *spec)
        assert validate_eg(state.eg) == []
    return state


# Key pools of case variants and no blank key; link pools with targets that
# are the row's own key, arrive in a later dataset, or never arrive (zz).
KEYED_CELLS = {
    "code": ["S1", "s1", " S1 ", "S2", "s2", "S3"],
    "name": ["A", "a ", "B", ""],
    "near": ["S1", "s2", "S3", "zz", ""],
    "case_id": ["C1", "c1", "C2"],
    "at": ["S1", "S2", "s3", "zz", ""],
}


@st.composite
def keyed_dataset(draw, dataset_id, etype=None):
    """A dataset of sites keyed on `code`, or of cases keyed on `case_id`."""
    etype = etype or draw(st.sampled_from(["site", "case"]))
    props = ["code", "name", "near"] if etype == "site" else ["case_id", "at"]
    columns = [(p, p, "identity" if i == 0 else "attribute") for i, p in enumerate(props)]
    rows = draw(
        st.lists(st.tuples(*(st.sampled_from(KEYED_CELLS[p]) for p in props)), min_size=1, max_size=5)
    )
    return dataset_id, etype, columns, [list(row) for row in rows]


KEYED_DATASETS = st.integers(2, 4).flatmap(
    lambda n: st.tuples(*(keyed_dataset(f"ds_{c}") for c in "abcd"[:n]))
)


# Link cells that cite a site by key, or by the full id that one dataset
# mints and a later one may rename (ds_b/s1 becomes ds_a/s1 when ds_a
# arrives after ds_b), and a target that never arrives.
CITED_SITES = ["S1", "s2", "ds_a/s1", "ds_b/s1", "ds_c/s2", "ds_d/s2", "zz", ""]


@st.composite
def renaming_datasets(draw):
    """2-4 datasets with distinct ids in a drawn arrival order, so that ids
    sort against it: sites keyed on `code`, whose `near` cites sites, and
    cases keyed on `case_id`, whose `at` cites sites."""
    order = draw(st.permutations(["ds_a", "ds_b", "ds_c", "ds_d"]))
    datasets = []
    for dataset_id in order[: draw(st.integers(2, 4))]:
        if draw(st.booleans()):
            etype, props, pools = "site", ["code", "name", "near"], [["S1", "s1", "S2"], ["A", "B"], CITED_SITES]
        else:
            etype, props, pools = "case", ["case_id", "at"], [["C1", "C2"], CITED_SITES]
        columns = [(p, p, "identity" if i == 0 else "attribute") for i, p in enumerate(props)]
        rows = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), min_size=1, max_size=4))
        datasets.append((dataset_id, etype, columns, [list(row) for row in rows]))
    return datasets


class TestValidByConstruction:
    @settings(max_examples=100, deadline=None)
    @given(renaming_datasets())
    def test_no_link_dangles_in_any_order(self, datasets):
        # `integrated` checks validate_eg after every dataset
        for order in itertools.permutations(datasets):
            assert scan_exported_graph(exported(integrated(order)), report_etg()) == []


class TestMetamorphic:
    """Relations between runs that the module docstring and README promise,
    checked on the exported bytes."""

    @settings(max_examples=100, deadline=None)
    @given(KEYED_DATASETS)
    def test_keyed_datasets_export_the_same_in_every_order(self, datasets):
        expected = exported(integrated(datasets))
        for order in itertools.permutations(datasets):
            assert exported(integrated(order)) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data(), keyed_dataset("ds_a", "site"), keyed_dataset("ds_b"))
    def test_row_order_within_a_keyed_dataset_leaves_the_export_alone(self, data, sites, other):
        dataset_id, etype, columns, rows = sites
        shuffled = (dataset_id, etype, columns, data.draw(st.permutations(rows)))
        for datasets in ([sites, other], [other, sites]):
            expected = exported(integrated(datasets))
            assert exported(integrated([shuffled if d is sites else d for d in datasets])) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(st.text("abcxyz019", min_size=1, max_size=4), min_size=1, max_size=3))
    def test_key_variants_mint_one_entity(self, data, words):
        def variant(separators):
            """`words` in random letter case, joined by runs of `separators`
            and wrapped in runs of them or of whitespace."""
            runs = st.text(separators, min_size=1, max_size=3)
            cased = [
                "".join(c.upper() if data.draw(st.booleans()) else c for c in word) for word in words
            ]
            around = st.text(" \t", max_size=2) | runs
            return data.draw(around) + "".join(
                word if i == 0 else data.draw(runs) + word for i, word in enumerate(cased)
            ) + data.draw(around)

        columns = [("code", "code", "identity"), ("name", "name", "attribute"), ("near", "near", "attribute")]
        label = "_".join(words)
        keys = [variant(" -_./") for _ in range(data.draw(st.integers(2, 4)))]
        rows = [[key, f"n{n}", ""] for n, key in enumerate(keys)]
        state = integrated([("ds_a", "site", columns, rows)])
        assert list(state.eg.entities) == [f"ds_a/{label}"]
        # across datasets the keys are compared by value, so only letter case
        # and whitespace may vary there
        keys = [variant(" ") for _ in range(2)]
        split = [("ds_b", "site", columns, [[keys[0], "n0", ""]]), ("ds_a", "site", columns, [[keys[1], "n1", ""]])]
        assert list(integrated(split).eg.entities) == [f"ds_a/{label}"]
