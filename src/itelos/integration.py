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
in any order, but for a link cell that spells an entity id which a later
merge retires: sites of `ds_a` and `ds_b` both keyed `S1`, and a case of
`ds_c` linking `ds_b/s1`, resolve the link in the order b, c, a and leave it
pending in the order a, b, c. Where no key decides, entities match greedily,
and which ones merge can depend on the dataset order (see `match_entities`).

A run integrates its datasets into one `_GraphBuilder`, in place. It knows
which entities each dataset created, merged, renamed or linked, and only
they update the running totals, which the case reports and eval_d read, and
the match index (`itelos.matching`). Three passes per dataset still cover
the whole graph or a whole etype: `connected_components`, the matched
etype's probe tables and blocks, and `resolve_pending`'s suffix index.
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
from .matching import EtypeIndex
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
    position = {name: i for i, name in enumerate(header)}
    for column, _prop in mapping.columns:
        if column not in position:
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
            cells.append((position[column], prop))
    value_cells.sort(key=itemgetter(1))
    one_column_each = len({prop for _i, prop in value_cells}) == len(value_cells)
    key_indexes = [position[c] for c in mapping.identity_columns]
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


def match_entities(eg: EG, fragment: Fragment, indexes: Mapping[str, EtypeIndex] | None = None) -> dict[str, str]:
    """Pair each fragment entity with the first existing entity it denotes.

    An id collision is always a match; otherwise the match is the first
    entity of the same etype, in id order, that `_same_entity` accepts.
    Existing entities' `Entity.value_sets` maps come from `indexes`, an
    up-to-date `EtypeIndex` per etype that has entities, or are built anew
    when it is None; a candidate's map is built only when its etype has
    entities. A candidate is compared only with the ids that
    `EtypeIndex.candidates` names, in order: the one hit of its signature
    probe, or the entities of its blocks (see `itelos.matching`). The result
    equals trying every same-etype entity in id order.
    """
    keys = fragment.identity_properties
    if indexes is None:
        etypes = {entity.etype for entity in fragment.eg.entities.values()}
        indexes = {etype: EtypeIndex.of(eg.entities, etype) for etype in etypes}
    caches = {etype: ({}, {}) for etype in indexes}  # etype -> its probe tables and blocks
    matches: dict[str, str] = {}
    for candidate in fragment.eg.entities.values():
        if candidate.id in eg.entities:
            matches[candidate.id] = candidate.id
            continue
        held = indexes.get(candidate.etype)
        if held is None or not held.sets:
            continue
        candidate_sets = candidate.value_sets()
        for existing_id in held.candidates(candidate_sets, keys, caches[candidate.etype]):
            if _same_entity(held.sets[existing_id], candidate_sets, keys):
                matches[candidate.id] = existing_id
                break
    return matches


def _merge_values(first: tuple[tuple[str, str, str], ...], second: tuple[tuple[str, str, str], ...]) -> tuple:
    """The value triples of `first` and then those of `second` not in it,
    stably sorted by property: sorted, first-seen within a property, and
    each triple once, as `Entity` keeps them."""
    return tuple(sorted(dict.fromkeys((*first, *second)), key=itemgetter(0)))


def merge_entities(
    eg: EG, fragment: Fragment, matches: Mapping[str, str], linked_from: Mapping[str, Iterable[str]]
) -> tuple[dict[str, Entity], dict[str, str]]:
    """What folding the fragment into the graph changes, which is left as it
    is: the new and changed entities by id, and the remap of every id that
    gives way to them. An existing entity and the fragment entities matched
    to it fold, in that order and then in id order, into one entity under the
    smallest of their ids, with the existing etype. Every link to a renamed
    id is rewritten; `linked_from` names the entities that may link to each
    id (a superset will do), and only they are searched.
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

    def renames(links: frozenset) -> bool:
        return any(target in remap for _p, target, _s in links)

    touched = dict.fromkeys(smallest)
    for old_id in remap:
        for source_id in linked_from.get(old_id, ()):
            source = eg.entities.get(source_id)
            if source is not None and renames(source.object_links):
                touched[source_id] = None
    merged: dict[str, Entity] = {}
    for entity in chain((eg.entities[entity_id] for entity_id in touched), fragment.eg.sorted_entities()):
        new_id = remap.get(entity.id, entity.id)
        links = entity.object_links
        if remap and renames(links):
            links = frozenset((p, remap.get(target, target), s) for p, target, s in links)
        present = merged.get(new_id)
        if present is not None:
            entity = present._replace(
                data_values=_merge_values(present.data_values, entity.data_values),
                object_links=present.object_links | links,
            )
        elif new_id != entity.id or links is not entity.object_links:
            entity = entity._replace(id=new_id, object_links=links)
        merged[new_id] = entity
    return merged, remap


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
    """The integrated graph, the links still waiting for their targets, and
    the graph's totals. A state is never changed: `integrate_dataset` builds
    from a copy of its graph, so a state may be integrated into more than
    once."""

    eg: EG
    pending: tuple[PendingLink, ...]
    totals: GraphTotals


def initial_state(schema_graph: ETG, graph_id: str) -> IntegrationState:
    return IntegrationState(eg=EG(id=graph_id, schema=schema_graph, entities={}), pending=(), totals=GraphTotals())


def _conforms(schema_graph: ETG, etype: str, range_etype: str) -> bool:
    return etype == range_etype or range_etype in schema_graph.ancestors_of(etype)


def resolve_pending(state) -> tuple[dict[str, set[tuple[str, str, str]]], tuple[PendingLink, ...]]:
    """The (property, target, dataset) links to add by source id that
    `state.pending` resolves to in `state.eg`, and the links still pending,
    sorted; `state` is left as it is.

    A link resolves to an exact entity id, or else to the entity of the
    declared range etype whose id suffix equals the normalized target text;
    ties go to the smallest id. Suffix lookups go through an index of id
    suffix -> ids in sorted order, built once per call and only when some link
    needs it; the first conforming id in that list is the smallest one.
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
    return added, tuple(still)


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


class _GraphBuilder:
    """A run's graph, built in place: `add` integrates one dataset after
    another, and `state` freezes the graph once, ending the builder's use.
    It owns the entities, the pending links, the running totals, an
    `EtypeIndex` per etype that a dataset probed while it had entities, and
    the ids that have linked to each id. `_put` and `_drop` record each id's
    version before the dataset, so the versions that gave way and those that
    came are known without a scan."""

    def __init__(self, state: IntegrationState):
        self.entities: dict[str, Entity] = {}
        self.eg = state.eg._replace(entities=self.entities)  # reads the dict as it grows
        self.pending = state.pending
        self.totals = state.totals
        self.indexes: dict[str, EtypeIndex] = {}
        self.linked_from: dict[str, set[str]] = {}
        self._held: dict[str, Entity | None] = {}  # id -> its version before the dataset
        self._put(state.eg.entities.values())
        self._held.clear()  # the state's graph is where the first dataset starts

    def _put(self, entities: Iterable[Entity]) -> None:
        for entity in entities:
            self._held.setdefault(entity.id, self.entities.get(entity.id))
            self.entities[entity.id] = entity
            for _prop, target, _source in entity.object_links:
                self.linked_from.setdefault(target, set()).add(entity.id)

    def _drop(self, entity_ids: Iterable[str]) -> None:
        for entity_id in entity_ids:
            self._held.setdefault(entity_id, self.entities.pop(entity_id))

    def _index(self, etype: str) -> EtypeIndex | None:
        """The etype's index brought up to date, or built if the etype has
        entities: an etype that no later dataset shares is never indexed."""
        index = self.indexes.get(etype)
        if index is not None:
            index.refresh(self.entities)
        else:
            index = EtypeIndex.of(self.entities, etype)
            if not index.sets:
                return None
            self.indexes[etype] = index
        return index

    def add(self, mapping: SchemaMapping, header: Sequence[str], rows: Sequence[Sequence[str]]) -> IntegrationCaseReport:
        """Run one dataset through generation, matching, merging and
        resolution. In the report, `merged_entities` counts the existing
        entities that its records merged into, `conflicts` the net change in
        flagged (entity, property) pairs, and `components_before` is the
        count the previous dataset left."""
        totals, before = self.totals, len(self.entities)
        fragment = generate_entities(mapping, header, rows, self.eg.schema)
        index = self._index(mapping.etype)
        matches = match_entities(self.eg, fragment, {} if index is None else {mapping.etype: index})
        merged, remap = merge_entities(self.eg, fragment, matches, self.linked_from)
        self._drop(remap.keys() & self.entities.keys())
        self._put(merged.values())
        carried = self.pending + fragment.pending_links
        self.pending = tuple({link._replace(source_id=remap[link.source_id]) if link.source_id in remap else link for link in carried})
        links, self.pending = resolve_pending(self)
        linked = (self.entities[entity_id] for entity_id in links)
        self._put(entity._replace(object_links=entity.object_links | links[entity.id]) for entity in linked)
        changed = [(i, held, now) for i, held in self._held.items() if (now := self.entities.get(i)) is not held]
        self._held.clear()
        if self.indexes:
            for entity_id, held, entity in changed:
                for version in (held, entity):
                    if version is not None and version.etype in self.indexes:
                        self.indexes[version.etype].stale.setdefault(entity_id, held)
        removed = [held for _id, held, _entity in changed if held is not None]
        added = [entity for _id, _held, entity in changed if entity is not None]
        self.totals = _updated(totals, self.eg.schema, removed, added, connected_components(self.eg))
        merged_count = len(set(matches.values()))
        return IntegrationCaseReport(
            dataset_id=mapping.dataset_id,
            etype=mapping.etype,
            case="shared_etype" if totals.etypes.get(mapping.etype) else "new_etype",
            entity_overlap="populates_both" if merged_count >= 1 else "only_one",
            entities_before=before,
            entities_after=len(self.entities),
            appended=len(self.entities) - before,
            merged_entities=merged_count,
            conflicts=self.totals.flagged - totals.flagged,
            components_before=totals.components,
            connected_components=self.totals.components,
            missing_link_ratio=self.totals.missing_ratio,
            unresolved_links=self.pending,
            stats=fragment.stats,
        )

    def state(self) -> IntegrationState:
        return IntegrationState(self.eg, self.pending, self.totals)


def integrate_dataset(
    state: IntegrationState,
    mapping: SchemaMapping,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> tuple[IntegrationState, IntegrationCaseReport]:
    """Integrate one dataset into a new state, leaving `state` as it is: a
    `_GraphBuilder` built from a copy of the state's graph adds the dataset
    (see `_GraphBuilder.add` for the report). Each call copies the graph and
    indexes a probed etype anew; `itelos run` adds every dataset to one
    builder instead."""
    builder = _GraphBuilder(state)
    report = builder.add(mapping, header, rows)
    return builder.state(), report


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
