"""Phase 4, data integration: map dataset columns onto the final graph, mint
entities row by row, merge duplicates, resolve cross-dataset links, and gate
on query coverage (eval_d).

An entity keeps its literals as (property, value, source) triples sorted by
property, the shape of its links. A repeated row's cells join its entity,
and a matched entity joins another, by one union rule (`_merge_values`).
Entities of one etype are compared by their `Entity.value_sets` maps: equal
identity keys decide, else agreement on every property both populate, with
at least one such property. A merged entity keeps the lexicographically
smallest of its ids, and unresolved links are retried after every merge, so
keyed datasets whose entities all match on identity keys give the same graph
in any order. Where no key decides, entities match greedily, and which ones
merge can depend on the dataset order (see `match_entities`).

A dataset's case report costs O(fragment + touched entities), plus one
identity comparison per entity and one `connected_components` pass: only the
entities the dataset changed or removed update the running totals that the
`IntegrationState` carries (see `integrate_dataset`), and eval_d reads the
populated etypes and properties from the same totals. So the write path
touches each entity version once to mint it, once to count it and once to
export it.
"""

from __future__ import annotations

import re
from datetime import date
from functools import cache
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import quote

from .alignment import name_similarity
from .metrics import (
    GateReport,
    Thresholds,
    coverage,
    fraction_json,
    gate_from_results,
)
from .model import (
    ELEMENT_KINDS,
    CompetencyQuery,
    EG,
    ETG,
    EmptyLabelError,
    Entity,
    DatasetSchema,
    ModelError,
    NotInGraphError,
    compound_key,
    expect_json,
    field,
    label_pair,
    normalize_text,
    read_csv,
    unique_key,
)

# Minimum name similarity for mapping an undeclared column onto a property.
INFER_THRESHOLD = Fraction(7, 10)

# The links of every minted entity: `frozenset()` builds a new object per call.
_NO_LINKS: frozenset[tuple[str, str, str]] = frozenset()


def read_dataset_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV dataset: normalized header names plus the data rows as read;
    `generate_entities` strips the cells."""
    records = read_csv(path)
    return next(records), list(records)


# ---------------------------------------------------------------------------
# Column mapping


class MappingOverride(NamedTuple):
    """Author-supplied replacement for the inferred column mapping."""

    dataset_id: str
    columns: Mapping[str, tuple[str, str] | None]
    identity_key: tuple[str, ...]


def override_from_doc(doc) -> MappingOverride:
    where = "mapping override"
    unknown = sorted(set(expect_json(doc, dict, where)) - set(MappingOverride._fields))
    if unknown:
        raise ModelError(f"unknown mapping override keys: {', '.join(unknown)}")
    dataset_id = field(doc, "dataset_id", where)
    columns: dict[str, tuple[str, str] | None] = {}
    names: dict[str, str] = {}
    for raw_name, spec in field(doc, "columns", where, dict, {}).items():
        spot = f'{where}.columns[{raw_name!r}] (if not "drop")'
        name = unique_key(normalize_text(raw_name), raw_name, names, f"{where}.columns")
        columns[name] = None if spec == "drop" else label_pair(spec, spot)
    identity = tuple(
        normalize_text(expect_json(c, str, f"{where}.identity_key[{i}]"))
        for i, c in enumerate(field(doc, "identity_key", where, list, []))
    )
    return MappingOverride(dataset_id=dataset_id, columns=columns, identity_key=identity)


class SchemaMapping(NamedTuple):
    """Resolved column-to-property mapping of one dataset against the final
    graph. `columns` follows header order; None means the column is dropped."""

    dataset_id: str
    etype: str
    columns: tuple[tuple[str, str | None], ...]
    identity_columns: tuple[str, ...]

    def property_of(self, column: str) -> str | None:
        for name, prop in self.columns:
            if name == column:
                return prop
        return None


def infer_mapping(
    schema: DatasetSchema,
    etg: ETG,
    *,
    rename_map: Mapping[str, str] | None = None,
    override: MappingOverride | None = None,
) -> SchemaMapping:
    """Resolve every dataset column to a property of the final graph.

    The sidecar schema, or an override file in its place, gives the explicit
    column mappings and the identity key; every identity column must be
    mapped, and explicit mappings must name properties declared for the
    dataset's etype. The other columns are matched by name similarity to the
    declared properties no column claims, or dropped; an override drops them
    all. An override may name only header columns. `rename_map` maps model
    etypes to final ones, both normalized, as the alignment plan writes it.
    """
    rename_map = rename_map or {}
    etype = rename_map.get(schema.assigned_etype, schema.assigned_etype)
    if etype not in etg.etypes:
        raise NotInGraphError(
            f"dataset {schema.dataset_id!r}: etype {etype} is not part of the final graph"
        )
    declared = etg.declared_properties(etype)
    where = f"dataset {schema.dataset_id!r}"
    # column -> property, or None for a column the override drops
    specs: dict[str, str | None] = {c.name: c.mapped for c in schema.mapped_columns()}
    identity = tuple(c.name for c in schema.identity_columns())
    if override is not None:
        if override.dataset_id != schema.dataset_id:
            raise ModelError(
                f"override is for dataset {override.dataset_id!r}, not {schema.dataset_id!r}"
            )
        header = {c.name for c in schema.columns}
        specs = {}
        for name, spec in override.columns.items():
            if name not in header:
                raise ModelError(f"{where}: override column {name} is not in the header")
            if spec is not None and rename_map.get(spec[0], spec[0]) != etype:
                raise ModelError(
                    f"{where}: column {name} mapped into etype {spec[0]}, "
                    f"which is not this dataset's etype"
                )
            specs[name] = None if spec is None else spec[1]
        identity = override.identity_key
    for name in identity:
        if specs.get(name) is None:
            raise ModelError(f"{where}: identity column {name} is not mapped to a property")

    taken = set(specs.values())
    columns = []
    for column in schema.columns:
        prop = specs.get(column.name)
        if prop is not None and prop not in declared:
            raise NotInGraphError(
                f"{where}: column {column.name} mapped to undeclared property {etype}.{prop}"
            )
        if column.name not in specs and override is None:
            best: tuple[str, Fraction] | None = None
            for prop_name in sorted(declared):
                if prop_name in taken:
                    continue
                similarity = name_similarity(column.name, prop_name)
                if similarity >= INFER_THRESHOLD and (best is None or similarity > best[1]):
                    best = (prop_name, similarity)
            if best is not None:
                prop = best[0]
                taken.add(prop)
        columns.append((column.name, prop))
    return SchemaMapping(
        dataset_id=schema.dataset_id, etype=etype, columns=tuple(columns), identity_columns=identity
    )


# ---------------------------------------------------------------------------
# Entity generation


class PendingLink(NamedTuple):
    """An object-property cell whose target entity has not appeared yet."""

    source_id: str
    property: str
    target_text: str
    dataset_id: str


class Fragment(NamedTuple):
    """The entities minted from one dataset, before merging."""

    eg: EG
    pending_links: tuple[PendingLink, ...]
    identity_properties: tuple[str, ...]
    stats: Mapping[str, int]


def generate_entities(
    mapping: SchemaMapping,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    schema_graph: ETG,
) -> Fragment:
    """Mint one entity per distinct identity key.

    This is where cells become values: each row must have as many cells as
    the header, and is stripped once as it is read. A row whose cells are
    all blank is skipped, and a blank cell is no value.
    The key is the normalized identity-column value (composite keys joined
    with underscores); rows without a usable key get their ordinal instead.
    Two rows whose ids agree although their normalized keys differ, or one of
    them has no usable key, raise a ModelError naming both data rows. `rows`
    is read once: the key parts and first row of each id that differing parts
    could mint are recorded; a single key not spelling `row_<n>` cannot be.

    Each entity is built from the row that mints its id, so no per-row
    bucket outlives its row. The data columns are sorted by property once,
    so a row's (property, value, source) triples come out sorted. A later
    row with the same id, or a row where two columns fill one property, is
    added by `_merge_values`, the union that merging entities follows.
    """
    index_of = {name: i for i, name in enumerate(header)}
    for column, _prop in mapping.columns:
        if column not in index_of:
            raise ModelError(
                f"dataset {mapping.dataset_id!r}: mapped column {column} is not in the header"
            )
    declared = schema_graph.declared_properties(mapping.etype)
    # (cell index, property) per mapped column, data and object properties apart
    value_cells = []
    link_cells = []
    for column, prop in mapping.columns:
        if prop is not None:
            cells = link_cells if declared[prop].kind == "object" else value_cells
            cells.append((index_of[column], prop))
    value_cells.sort(key=itemgetter(1))
    one_column_each = len({prop for _i, prop in value_cells}) == len(value_cells)
    key_indexes = [index_of[c] for c in mapping.identity_columns]
    dataset_id = mapping.dataset_id
    entities: dict[str, Entity] = {}
    pending: set[PendingLink] = set()
    # (key parts, first row) per ordinal, composite key or single key spelling row_<n>
    first: dict[str, tuple[tuple[str, ...] | None, int]] = {}
    data_cells = 0
    skipped = 0
    for ordinal, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ModelError(f"data row {ordinal} has {len(row)} fields, the header {len(header)}")
        row = [cell.strip() for cell in row]
        if not any(row):
            skipped += 1
            continue
        parts = None
        if key_indexes and all(row[i] for i in key_indexes):
            try:
                parts = tuple(normalize_text(row[i]) for i in key_indexes)
            except EmptyLabelError:
                pass
        key = "_".join(parts) if parts else f"row_{ordinal}"
        entity_id = f"{dataset_id}/{key}"
        if key_indexes and (len(key_indexes) > 1 or key.startswith("row_")):
            recorded, first_row = first.setdefault(entity_id, (parts, ordinal))
            if recorded != parts:
                raise ModelError(f"data rows {first_row} and {ordinal} both mint {entity_id} from different keys")
        for index, prop in link_cells:
            if row[index]:
                pending.add(PendingLink(entity_id, prop, row[index], dataset_id))
        values = tuple((prop, row[i], dataset_id) for i, prop in value_cells if row[i])
        data_cells += len(values)
        stored = entities[entity_id].data_values if entity_id in entities else ()
        # one column per property repeats no triple in a row, so a first row skips the union:
        # 2000 rows of twelve such columns take 8.7 ms, not 12.2 (best of 31; CPython 3.11.7, Xeon)
        if stored or not one_column_each:
            values = _merge_values(stored, values)
        entities[entity_id] = Entity(id=entity_id, etype=mapping.etype, data_values=values, object_links=_NO_LINKS)
    fragment_eg = EG(id=f"{mapping.dataset_id}-fragment", schema=schema_graph, entities=entities)
    identity_props = tuple(mapping.property_of(c) for c in mapping.identity_columns)
    stats = {
        "rows": len(rows),
        "skipped_empty_rows": skipped,
        "entities": len(entities),
        "data_cells": data_cells,
        "dropped_columns": sum(prop is None for _name, prop in mapping.columns),
    }
    return Fragment(
        eg=fragment_eg,
        pending_links=tuple(sorted(pending)),
        identity_properties=identity_props,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Matching and merging


def _same_entity(
    existing_sets: Mapping[str, frozenset[str]],
    candidate_sets: Mapping[str, frozenset[str]],
    key_props: Sequence[str],
) -> bool:
    """Identity decision for two same-etype entities, given by their
    `Entity.value_sets` maps.

    When both sides populate every key property the keys alone decide;
    otherwise the two must have equal value sets on every property both
    populate, and populate at least one in common.
    """
    shared = existing_sets.keys() & candidate_sets.keys()
    props = key_props if key_props and shared.issuperset(key_props) else shared
    return bool(props) and all(existing_sets[p] == candidate_sets[p] for p in props)


def match_entities(eg: EG, fragment: Fragment) -> dict[str, str]:
    """Pair each fragment entity with the first existing entity it denotes.

    An id collision is always a match; otherwise candidates of the same etype
    are tried in id order. `_same_entity` accepts a pair only when the two
    have an equal value set on some property, so the `Entity.value_sets` map
    of each existing entity of the fragment's etypes is built once and
    indexed by (etype, property, value set). A candidate's map is built only
    when its etype has indexed entities; the candidate probes the index with
    each of its entries, and only the existing entities it hits are compared.
    The result equals trying every same-etype entity in id order.
    """
    etypes = {entity.etype for entity in fragment.eg.entities.values()}
    sets_of: dict[str, dict[str, frozenset[str]]] = {}
    index: dict[str, dict[tuple[str, frozenset[str]], list[str]]] = {}
    for entity in eg.entities.values():
        if entity.etype in etypes:
            sets_of[entity.id] = entity.value_sets()
            for entry in sets_of[entity.id].items():
                index.setdefault(entity.etype, {}).setdefault(entry, []).append(entity.id)
    matches: dict[str, str] = {}
    for candidate in fragment.eg.entities.values():
        if candidate.id in eg.entities:
            matches[candidate.id] = candidate.id
            continue
        by_entry = index.get(candidate.etype)
        if by_entry is None:
            continue
        candidate_sets = candidate.value_sets()
        hits = {i for entry in candidate_sets.items() for i in by_entry.get(entry, ())}
        for existing_id in sorted(hits):
            if _same_entity(sets_of[existing_id], candidate_sets, fragment.identity_properties):
                matches[candidate.id] = existing_id
                break
    return matches


def _merge_values(first: tuple[tuple[str, str, str], ...], second: tuple[tuple[str, str, str], ...]) -> tuple:
    """The value triples of `first` and then those of `second` not in it,
    stably sorted by property: sorted, first-seen within a property, and
    each triple once, as `Entity` keeps them."""
    return tuple(sorted(dict.fromkeys((*first, *second)), key=itemgetter(0)))


def merge_entities(
    eg: EG, fragment: Fragment, matches: Mapping[str, str]
) -> tuple[EG, dict[str, str]]:
    """Fold the fragment into the graph, collapsing matched entities.

    An existing entity and every fragment entity matched to it fold into one
    entity under the lexicographically smallest of their ids; the returned
    remap records every id that changed, so callers can rewrite references
    they hold outside the graph. The graph's entities and then the
    fragment's are folded in id order: values of a merged entity keep that
    order, and its etype is the first one's. An entity that is not merged,
    renamed or re-linked is kept as the same object.
    """
    smallest: dict[str, str] = {}  # existing id -> the smallest id of its group
    for fragment_id, existing_id in matches.items():
        smallest[existing_id] = min(smallest.get(existing_id, existing_id), fragment_id)
    remap: dict[str, str] = {}
    for fragment_id, existing_id in matches.items():
        merged_id = smallest[existing_id]
        if existing_id != merged_id:
            remap[existing_id] = merged_id
        if fragment_id != merged_id:
            remap[fragment_id] = merged_id

    entities: dict[str, Entity] = {}
    for entity in [*eg.sorted_entities(), *fragment.eg.sorted_entities()]:
        new_id = remap.get(entity.id, entity.id)
        links = entity.object_links
        if remap and any(target in remap for _p, target, _s in links):
            links = frozenset((p, remap.get(target, target), s) for p, target, s in links)
        present = entities.get(new_id)
        if present is not None:
            entity = present._replace(
                data_values=_merge_values(present.data_values, entity.data_values),
                object_links=present.object_links | links,
            )
        elif new_id != entity.id or links is not entity.object_links:
            entity = entity._replace(id=new_id, object_links=links)
        entities[new_id] = entity
    return eg._replace(entities=entities), remap


# ---------------------------------------------------------------------------
# Link resolution


class GraphTotals(NamedTuple):
    """Aggregates of an integrated graph that its case reports and eval_d
    read. All but `components` are sums of per-entity contributions, so a
    dataset updates them from the entities it changed or removed."""

    declared: int = 0  # (entity, declared property) pairs
    missing: int = 0  # of those, the pairs with no value or link
    flagged: int = 0  # (entity, conflicting property) pairs
    etypes: Mapping[str, int] = MappingProxyType({})  # entities per etype
    # etype -> property -> its entities that hold a value or a link there
    populated: Mapping[str, Mapping[str, int]] = MappingProxyType({})
    components: int = 0  # connected_components(eg)

    @property
    def missing_ratio(self) -> Fraction:
        return Fraction(self.missing, self.declared) if self.declared else Fraction(0)

    def populated_elements(self, schema_graph: ETG) -> tuple[set[str], set[str]]:
        """The etypes that hold an entity and the "etype.property" keys that
        one populates, each also under every ancestor of its etype."""
        etypes: set[str] = set()
        props: set[str] = set()
        for etype, count in self.etypes.items():
            if not count:
                continue
            populated = [prop for prop, n in self.populated.get(etype, {}).items() if n]
            for holder in [etype, *schema_graph.ancestors_of(etype)]:
                etypes.add(holder)
                props.update(compound_key(holder, prop) for prop in populated)
        return etypes, props


class IntegrationState(NamedTuple):
    """The growing graph, the links still waiting for their targets, and the
    graph's totals."""

    eg: EG
    pending: tuple[PendingLink, ...]
    totals: GraphTotals


def initial_state(schema_graph: ETG, graph_id: str) -> IntegrationState:
    return IntegrationState(
        eg=EG(id=graph_id, schema=schema_graph, entities={}), pending=(), totals=GraphTotals()
    )


def _conforms(schema_graph: ETG, etype: str, range_etype: str) -> bool:
    return etype == range_etype or range_etype in schema_graph.ancestors_of(etype)


def resolve_pending(state: IntegrationState) -> IntegrationState:
    """Retry every pending link against the current graph.

    A link resolves to an exact entity id, or else to the entity of the
    declared range etype whose id suffix equals the normalized target text;
    ties go to the smallest id. Suffix lookups go through an index of id
    suffix -> ids in sorted order, built once per call and only when some link
    needs it; the first conforming id in that list is the smallest one.
    Unresolved links stay pending, sorted, and are never written into the graph.
    The state's totals are passed through as they are.
    """
    eg = state.eg
    added: dict[str, set[tuple[str, str, str]]] = {}
    still: list[PendingLink] = []
    by_suffix: dict[str, list[str]] | None = None
    for link in sorted(state.pending):
        source = eg.entities.get(link.source_id)
        declared = (
            eg.schema.declared_properties(source.etype).get(link.property)
            if source is not None
            else None
        )
        if declared is None or declared.kind != "object":
            still.append(link)
            continue
        range_etype = declared.range
        target_id = None
        exact = eg.entities.get(link.target_text)
        if exact is not None and _conforms(eg.schema, exact.etype, range_etype):
            target_id = exact.id
        else:
            try:
                key = normalize_text(link.target_text)
            except EmptyLabelError:
                key = None
            if key is not None:
                if by_suffix is None:
                    by_suffix = {}
                    for entity_id in sorted(eg.entities):
                        by_suffix.setdefault(entity_id.rpartition("/")[2], []).append(entity_id)
                for entity_id in by_suffix.get(key, ()):
                    if _conforms(eg.schema, eg.entities[entity_id].etype, range_etype):
                        target_id = entity_id
                        break
        if target_id is None:
            still.append(link)
            continue
        added.setdefault(link.source_id, set()).add(
            (link.property, target_id, link.dataset_id)
        )
    if not added:
        return state._replace(pending=tuple(still))
    entities = dict(eg.entities)
    for entity_id, links in added.items():
        entity = entities[entity_id]
        entities[entity_id] = entity._replace(object_links=entity.object_links | links)
    return state._replace(eg=eg._replace(entities=entities), pending=tuple(still))


# ---------------------------------------------------------------------------
# One dataset, end to end


class IntegrationCaseReport(NamedTuple):
    """Forensic summary of integrating one dataset into the graph.

    `case` says whether the dataset's etype was already populated;
    `entity_overlap` whether any of its entities denoted ones already there.
    """

    dataset_id: str
    etype: str
    case: str
    entity_overlap: str
    entities_before: int
    entities_after: int
    appended: int
    merged_entities: int
    conflicts: int
    components_before: int
    connected_components: int
    missing_link_ratio: Fraction
    unresolved_links: tuple[PendingLink, ...]
    stats: Mapping[str, int]

    def to_json(self) -> dict:
        """Every field under its own name; the ratio and the links in JSON form."""
        doc = self._asdict()
        doc["missing_link_ratio"] = fraction_json(self.missing_link_ratio)
        doc["unresolved_links"] = [
            {
                "source": link.source_id,
                "property": link.property,
                "target": link.target_text,
                "dataset": link.dataset_id,
            }
            for link in self.unresolved_links
        ]
        return doc


def connected_components(eg: EG) -> int:
    """Number of weakly connected components, links taken as undirected.
    Only the entities that a link joins get a union-find entry; every other
    entity is a component of its own."""
    parent: dict[str, str] = {}

    def find(node: str) -> str:
        root = parent.setdefault(node, node)
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for entity in eg.entities.values():
        for _prop, target, _source in entity.object_links:
            if target in eg.entities:
                left, right = find(entity.id), find(target)
                if left != right:
                    parent[max(left, right)] = min(left, right)
    return len(eg.entities) - len(parent) + len({find(node) for node in parent})


def _populated(entity: Entity) -> set[str]:
    """The properties of `entity` with a value or a link."""
    return {prop for prop, _x, _s in chain(entity.data_values, entity.object_links)}


def missing_ratio(eg: EG) -> Fraction:  # only tests call it: perfbench/tracing.py wraps this name
    """Share of (entity, declared property) pairs with no value or link."""
    return _updated(GraphTotals(), eg.schema, (), eg.entities.values(), 0).missing_ratio


def _updated(
    totals: GraphTotals,
    schema_graph: ETG,
    removed: Iterable[Entity],
    added: Iterable[Entity],
    components: int,
) -> GraphTotals:
    """`totals` less the contributions of the `removed` entities, plus those
    of the `added` ones, with the given component count. Each entity's
    populated properties are found once, for its missing and populated
    counts alike."""
    declared, missing, flagged = totals.declared, totals.missing, totals.flagged
    etypes = dict(totals.etypes)
    populated_counts = {etype: dict(counts) for etype, counts in totals.populated.items()}
    for sign, entities in ((-1, removed), (1, added)):
        for entity in entities:
            etype = entity.etype
            props = schema_graph.declared_properties(etype)
            populated = _populated(entity)
            declared += sign * len(props)
            missing += sign * (len(props) - len(props.keys() & populated))
            flagged += sign * len(entity.conflicting_properties())
            etypes[etype] = etypes.get(etype, 0) + sign
            counts = populated_counts.setdefault(etype, {})
            for prop in populated:
                counts[prop] = counts.get(prop, 0) + sign
    return GraphTotals(declared, missing, flagged, etypes, populated_counts, components)


def integrate_dataset(
    state: IntegrationState,
    mapping: SchemaMapping,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> tuple[IntegrationState, IntegrationCaseReport]:
    """Run one dataset through generation, matching, merging and resolution.

    The report costs O(fragment + touched entities), plus one identity
    comparison per entity and one `connected_components` pass. Merging and
    resolution keep every entity they leave alone as the same object, so
    identity finds the entities the dataset changed or removed; only they
    update the state's totals. `merged_entities` counts the existing
    entities that the dataset's records merged into, `conflicts` the net
    change in flagged (entity, property) pairs, and `components_before` is
    the count the previous dataset left.
    """
    before = state.eg
    totals = state.totals
    fragment = generate_entities(mapping, header, rows, before.schema)
    matches = match_entities(before, fragment)
    merged_eg, remap = merge_entities(before, fragment, matches)
    carried = {
        link._replace(source_id=remap[link.source_id]) if link.source_id in remap else link
        for link in state.pending + fragment.pending_links
    }
    resolved = resolve_pending(state._replace(eg=merged_eg, pending=tuple(carried)))
    after = resolved.eg
    # the old versions of changed or removed entities, and the changed or new ones
    removed = [e for entity_id, e in before.entities.items() if after.entities.get(entity_id) is not e]
    added = [e for entity_id, e in after.entities.items() if before.entities.get(entity_id) is not e]
    after_totals = _updated(totals, after.schema, removed, added, connected_components(after))
    merged_count = len(set(matches.values()))
    report = IntegrationCaseReport(
        dataset_id=mapping.dataset_id,
        etype=mapping.etype,
        case="shared_etype" if totals.etypes.get(mapping.etype) else "new_etype",
        entity_overlap="populates_both" if merged_count >= 1 else "only_one",
        entities_before=len(before.entities),
        entities_after=len(after.entities),
        appended=len(after.entities) - len(before.entities),
        merged_entities=merged_count,
        conflicts=after_totals.flagged - totals.flagged,
        components_before=totals.components,
        connected_components=after_totals.components,
        missing_link_ratio=after_totals.missing_ratio,
        unresolved_links=resolved.pending,
        stats=fragment.stats,
    )
    return resolved._replace(totals=after_totals), report


# ---------------------------------------------------------------------------
# Purpose evaluation (eval_d)


def eval_purpose(
    state: IntegrationState,
    cqs: Sequence[CompetencyQuery],
    rename_map: Mapping[str, str] | None = None,
    thresholds: Thresholds | None = None,
) -> GateReport:
    """Gate eval_d: every element a query asks for must be populated.

    Entities count for their etype and all its ancestors, so a query stated
    against a superclass is satisfied by subclass instances. Query names are
    translated through the alignment rename map first. The populated elements
    come from the state's totals (`GraphTotals.populated_elements`), so the
    graph is not scanned again.
    """
    rename_map = rename_map or {}
    thresholds = thresholds or Thresholds()
    populated = state.totals.populated_elements(state.eg.schema)

    def final_name(etype: str) -> str:
        return rename_map.get(etype, etype)

    items = []
    for cq in cqs:
        wanted = (
            frozenset(final_name(e) for e in cq.etypes),
            frozenset(compound_key(final_name(e), prop) for e, prop in cq.property_pairs),
        )
        for kind, alpha, beta in zip(ELEMENT_KINDS, wanted, populated):
            if not alpha:  # a query names at least one etype, but maybe no property
                continue
            result = coverage(alpha, beta)
            missing = sorted(alpha - beta)
            # nothing missing means coverage 1: the entry passes and drops its note
            note = f"missing: {', '.join(missing)}"
            items.append((cq.id, kind, result, note))
    return gate_from_results("eval_d", items, thresholds)


# ---------------------------------------------------------------------------
# Export


_RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_DECIMAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)\Z")
# fromisoformat alone accepts 20200301 and 2020-W10-1 from Python 3.11 on
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")

_LITERAL_ESCAPES = str.maketrans(
    {
        "\\": "\\\\",
        '"': '\\"',
        "\n": "\\n",
        "\r": "\\r",
        "\t": "\\t",
    }
)
# Most literals hold none of the escaped characters; one search skips translate.
_NEEDS_ESCAPE = re.compile("[" + re.escape("".join(map(chr, _LITERAL_ESCAPES))) + "]")


def _escape_literal(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return text.translate(_LITERAL_ESCAPES)


def _iri(text: str) -> str:
    return f"<{quote(text, safe=':/_-.~')}>"


def _valid_for(datatype: str, text: str) -> bool:
    if datatype == "integer":
        return _INTEGER_RE.match(text) is not None
    if datatype == "decimal":
        return _DECIMAL_RE.match(text) is not None
    if datatype == "boolean":
        return text in ("true", "false", "1", "0")
    if datatype == "date":
        if _DATE_RE.match(text) is None:
            return False
        try:
            date.fromisoformat(text)
        except ValueError:
            return False
        return True
    return True


def export_eg(eg: EG, path: Path) -> list[str]:
    """Write the graph as deduplicated, sorted N-Triples, one entity at a time;
    returns warnings, in entity-id order, for values that did not parse under
    their declared datatype and fell back to plain text.

    The file equals a sort of all the graph's lines, but only one entity's
    lines are held at a time. Every line starts with its subject IRI and a
    space, and a quoted IRI holds no `>` before its last character, so of two
    lines with different subjects neither subject is a prefix of the other
    and the lines compare as their subjects do. Entity ids are unique and
    `quote` is injective, so each entity has its own subject. Writing the
    entities in subject-IRI order, each with its own lines deduplicated and
    sorted, therefore gives the global order.

    An etype's type-line tail, and each of its properties' predicate IRI and
    datatype suffix, are built on first use, so a value costs its escape and,
    unless its datatype is `string`, its lexical check. One set deduplicates
    an entity's lines, which are sorted and written with one call; a value
    that falls back to a plain string warns once per line.
    """
    warnings: list[tuple[str, str]] = []
    # each entity id, etype and property name is quoted once per export
    term = cache(_iri)
    node = cache(lambda entity_id: _iri(f"urn:itelos:{eg.id}:{entity_id}"))
    # etype -> (type-line tail, property -> (predicate, datatype, suffix or ""))
    shapes: dict[str, tuple[str, dict[str, tuple[str, str, str]]]] = {}
    subjects = sorted((node(entity_id), entity_id) for entity_id in eg.entities)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for subject, entity_id in subjects:
            entity = eg.entities[entity_id]
            shape = shapes.get(entity.etype)
            if shape is None:
                type_tail = f" {_RDF_TYPE} {term(f'urn:itelos:etg:{entity.etype}')} ."
                shape = shapes[entity.etype] = (type_tail, {})
            type_tail, props = shape
            lines = [subject + type_tail]
            fallen: set[str] = set()  # the plain-string lines of typed values
            for prop, value, _source in entity.data_values:
                spec = props.get(prop)
                if spec is None:
                    definition = eg.schema.declared_properties(entity.etype).get(prop)
                    datatype = (
                        definition.datatype if definition and definition.kind == "data" else "string"
                    )
                    suffix = "" if datatype == "string" else f"^^<{_XSD}{datatype}>"
                    spec = props[prop] = (term(f"urn:itelos:etg:{prop}"), datatype, suffix)
                predicate, datatype, suffix = spec
                if suffix and not _valid_for(datatype, value):
                    line = f'{subject} {predicate} "{_escape_literal(value)}" .'
                    if line not in fallen:
                        fallen.add(line)
                        message = (
                            f"{entity_id}: value {value!r} for {prop} is not a valid "
                            f"{datatype}; exported as a plain string"
                        )
                        warnings.append((entity_id, message))
                    lines.append(line)
                else:
                    lines.append(f'{subject} {predicate} "{_escape_literal(value)}"{suffix} .')
            for prop, target, _source in entity.object_links:
                lines.append(f"{subject} {term(f'urn:itelos:etg:{prop}')} {node(target)} .")
            handle.write("\n".join(sorted(set(lines))) + "\n")
    return [message for _id, message in sorted(warnings, key=lambda w: w[0])]
