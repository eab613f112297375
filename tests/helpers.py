"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles (plain
set arithmetic, breadth-first traversal) so the production code is checked
against a second, simpler implementation.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Mapping
from urllib.parse import unquote

from itelos.alignment import (
    AlignmentPolicy,
    Candidate,
    PredictionVector,
    _blend,
    etr_predict,
    name_similarity,
    property_sharability,
)
from itelos.integration import (
    INFER_THRESHOLD,
    _RDF_TYPE,
    _XSD,
    Fragment,
    MappingOverride,
    PendingLink,
    SchemaMapping,
    _escape_literal,
    _iri,
    _valid_for,
)
from itelos.modeling import ETGModel
from itelos.model import (
    EG,
    ETG,
    CompetencyQuery,
    Column,
    DatasetSchema,
    EmptyLabelError,
    Entity,
    ModelError,
    NotInGraphError,
    PropertyDef,
    ResourceMeta,
    normalize_text,
    normalize_value,
)

FIXTURES = Path(__file__).parent / "fixtures"
COVID = FIXTURES / "covid_trentino"
# two model etypes adopt ontology labels that are each other's names
RENAMES = FIXTURES / "renames"


def make_etg(
    graph_id,
    etypes,
    properties=None,
    subclass=(),
    category="core",
    popularity=0,
    kind="ontology",
    checked=True,
):
    """ETG from plain strings; properties maps etype -> list of specs, where a
    spec is a name or a (name, kind, datatype_or_range) tuple. With `checked`
    false it is built by `ETG._make`, which skips the validity check, so a
    test can hold an invalid graph."""
    props = {}
    for etype, specs in (properties or {}).items():
        defs = []
        for spec in specs:
            if isinstance(spec, str):
                defs.append(PropertyDef(name=normalize_text(spec)))
            else:
                name, prop_kind, extra = spec
                if prop_kind == "object":
                    defs.append(
                        PropertyDef(
                            name=normalize_text(name),
                            kind="object",
                            range=normalize_text(extra),
                        )
                    )
                else:
                    defs.append(
                        PropertyDef(name=normalize_text(name), datatype=extra)
                    )
        props[normalize_text(etype)] = tuple(defs)
    fields = (
        graph_id,
        frozenset(normalize_text(e) for e in etypes),
        props,
        frozenset((normalize_text(c), normalize_text(p)) for c, p in subclass),
        ResourceMeta(id=graph_id, kind=kind, category=category, popularity=popularity),
    )
    return ETG(*fields) if checked else ETG._make(fields)


def make_cq(cq_id, etypes, pairs=()):
    return CompetencyQuery(
        id=cq_id,
        sentence="",
        etypes=frozenset(normalize_text(e) for e in etypes),
        property_pairs=frozenset(
            (normalize_text(e), normalize_text(p)) for e, p in pairs
        ),
    )


def make_schema(dataset_id, etype, columns, category="core", popularity=0):
    """DatasetSchema from (name, mapped_or_None, role) triples or plain names
    (mapped to themselves as attributes)."""
    cols = []
    for spec in columns:
        if isinstance(spec, str):
            cols.append(Column(name=normalize_text(spec), mapped=normalize_text(spec)))
        else:
            name, mapped, role = spec
            cols.append(
                Column(
                    name=normalize_text(name),
                    mapped=normalize_text(mapped) if mapped is not None else None,
                    role=role,
                )
            )
    return DatasetSchema(
        dataset_id=dataset_id,
        assigned_etype=normalize_text(etype),
        columns=tuple(cols),
        meta=ResourceMeta(
            id=dataset_id, kind="dataset", category=category, popularity=popularity
        ),
    )


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_coverage(alpha: set, beta: set) -> Fraction:
    return Fraction(len(alpha & beta), len(alpha))


def oracle_extensiveness(alpha: set, beta: set) -> Fraction:
    if not alpha and not beta:
        return Fraction(0)
    return Fraction(len(beta - alpha), len(alpha | beta))


def oracle_sparsity(alpha: set, beta: set) -> Fraction:
    if not alpha and not beta:
        return Fraction(0)
    return Fraction(len(alpha ^ beta), len(alpha | beta))


def bfs_component_count(eg) -> int:
    """Weakly connected components by plain breadth-first search."""
    neighbours = {entity_id: set() for entity_id in eg.entities}
    for entity in eg.entities.values():
        for _prop, target, _src in entity.object_links:
            if target in neighbours:
                neighbours[entity.id].add(target)
                neighbours[target].add(entity.id)
    seen = set()
    components = 0
    for start in neighbours:
        if start in seen:
            continue
        components += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            for nxt in neighbours[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return components


def union_find_component_count(eg) -> int:
    """Weakly connected components by a union-find that holds an entry for
    every entity, linked or not."""
    parent = {entity_id: entity_id for entity_id in eg.entities}

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for entity in eg.entities.values():
        for _prop, target, _src in entity.object_links:
            if target in parent:
                parent[find(entity.id)] = find(target)
    return len({find(node) for node in parent})


def value_triples(values: Mapping) -> tuple:
    """`Entity.data_values` for `{property: [(value, source), ...]}`: its
    (property, value, source) triples sorted by property, each property's
    pairs in the order given."""
    return tuple((prop, value, source) for prop in sorted(values) for value, source in values[prop])


def occurrence_count(eg) -> int:
    """Total stored (property, value, source) triples across all entities."""
    return sum(len(entity.data_values) for entity in eg.entities.values())


def scan_elements(source) -> tuple[frozenset, frozenset]:
    """The etype and "etype.property" members of an ETG, a dataset schema or
    a collection of queries, each set built by its own pass over the source
    (queries are listed first, so one pass would also do for a generator)."""
    if isinstance(source, ETG):
        etypes = frozenset(source.etypes)
        props = frozenset(f"{e}.{p.name}" for e, defs in source.properties.items() for p in defs)
    elif isinstance(source, DatasetSchema):
        etypes = frozenset({source.assigned_etype})
        props = frozenset(
            f"{source.assigned_etype}.{col.mapped}" for col in source.columns if col.mapped is not None
        )
    else:
        source = list(source)
        etypes = frozenset(e for cq in source for e in cq.etypes)
        props = frozenset(f"{e}.{p}" for cq in source for e, p in cq.property_pairs)
    return etypes, props


def scan_ancestors(etg, etype) -> list[str]:
    """Transitive parents by breadth-first search that rescans every subclass
    edge at each step, with no cache."""
    seen: list[str] = []
    queue = sorted(p for c, p in etg.subclass_edges if c == etype)
    while queue:
        node = queue.pop(0)
        if node in seen:
            continue
        seen.append(node)
        queue.extend(sorted(p for c, p in etg.subclass_edges if c == node))
    return seen


def scan_declared_properties(etg, etype) -> dict:
    """Own plus inherited properties, nearest declaration first, found by
    walking scan_ancestors with no cache."""
    declared = {}
    for holder in [etype, *scan_ancestors(etg, etype)]:
        for prop in etg.props_of(holder):
            declared.setdefault(prop.name, prop)
    return declared


def scan_etr_predict(model, ontology, policy) -> PredictionVector:
    """etr_predict without pruning: every (model etype, ontology etype) pair
    is scored and kept when it reaches the match threshold."""
    by_etype = {}
    for etype in model.etg.sorted_etypes():
        model_props = model.etg.property_names(etype)
        candidates = []
        for onto_etype in ontology.sorted_etypes():
            similarity = name_similarity(etype, onto_etype)
            sharability = property_sharability(model_props, ontology.property_names(onto_etype))
            score = _blend(similarity, sharability, policy)
            if score >= policy.match_threshold:
                candidates.append(Candidate(label=onto_etype, score=score, sharability=sharability))
        candidates.sort(key=lambda c: (-c.score, -c.sharability, c.label))
        if candidates:
            by_etype[etype] = tuple(candidates)
    return PredictionVector(ontology_id=ontology.meta.id, candidates=by_etype)


def scan_pulled_properties(model, plan, ontologies) -> dict[tuple[str, str], str]:
    """(final etype, property name) -> the id of the ontology that put the
    property there: each adopting decision in turn claims the properties of
    its ontology's label and ancestors that neither the model, under its
    final etype names, nor an earlier decision holds."""
    claimed = {
        (plan.rename_map.get(etype, etype), prop.name): None
        for etype in model.etg.etypes
        for prop in model.etg.props_of(etype)
    }
    for decision in plan.decisions:
        if decision.action == "adopt":
            for holder in (decision.candidate, *decision.adopted_parents):
                for prop in ontologies[decision.ontology].props_of(holder):
                    claimed.setdefault((holder, prop.name), decision.ontology)
    return {key: ontology_id for key, ontology_id in claimed.items() if ontology_id is not None}


def matrix_levenshtein(a: str, b: str) -> int:
    """Edit distance read off the full (len(a) + 1) x (len(b) + 1) matrix."""
    dist = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            substitute = dist[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            dist[i][j] = min(dist[i - 1][j] + 1, dist[i][j - 1] + 1, substitute)
    return dist[len(a)][len(b)]


def etr_pair_score(name_a, props_a, name_b, props_b, policy=None) -> Fraction:
    """The score etr_predict gives etype `name_a` of a one-etype model against
    etype `name_b` of a one-etype ontology, each owning the given property
    names; a match threshold of 0 keeps the pair whatever its score."""

    def one_etype(graph_id, name, props, kind):
        return ETG(
            id=graph_id,
            etypes=frozenset({name}),
            properties={name: tuple(PropertyDef(name=p) for p in sorted(props))},
            subclass_edges=frozenset(),
            meta=ResourceMeta(id=graph_id, kind=kind, category="core"),
        )

    model = ETGModel(
        etg=one_etype("model", name_a, props_a, "dataset"), provenance={}, etype_categories={}
    )
    weight = (policy or AlignmentPolicy()).etr_name_weight
    policy = AlignmentPolicy(match_threshold=Fraction(0), etr_name_weight=weight)
    vector = etr_predict(model, one_etype("onto", name_b, props_b, "ontology"), policy)
    (candidate,) = vector.candidates[name_a]
    return candidate.score


def scan_value_set(entity, prop) -> frozenset:
    return frozenset(normalize_value(v) for p, v, _src in entity.data_values if p == prop and v.strip())


def scan_same_entity(existing, candidate, key_props) -> bool:
    """_same_entity with every value set recomputed where it is needed."""
    if key_props and all(
        scan_value_set(existing, p) and scan_value_set(candidate, p) for p in key_props
    ):
        return all(scan_value_set(existing, p) == scan_value_set(candidate, p) for p in key_props)
    shared = [
        p
        for p in sorted({t[0] for t in existing.data_values} & {t[0] for t in candidate.data_values})
        if scan_value_set(existing, p) and scan_value_set(candidate, p)
    ]
    if not shared:
        return False
    return all(scan_value_set(existing, p) == scan_value_set(candidate, p) for p in shared)


def scan_match_entities(eg, fragment) -> dict[str, str]:
    """match_entities without an index: every candidate is compared with
    every existing entity of its etype, in id order."""
    matches = {}
    for candidate in fragment.eg.sorted_entities():
        if candidate.id in eg.entities:
            matches[candidate.id] = candidate.id
            continue
        for existing in eg.sorted_entities():
            if existing.etype == candidate.etype and scan_same_entity(
                existing, candidate, fragment.identity_properties
            ):
                matches[candidate.id] = existing.id
                break
    return matches


def scan_link_target(eg, link):
    """The entity id resolve_pending should link `link` to, or None, found by
    scanning every entity of the graph."""
    source = eg.entities.get(link.source_id)
    if source is None:
        return None
    declared = eg.schema.declared_properties(source.etype).get(link.property)
    if declared is None or declared.kind != "object":
        return None

    def conforms(etype):
        return etype == declared.range or declared.range in scan_ancestors(eg.schema, etype)

    exact = eg.entities.get(link.target_text)
    if exact is not None and conforms(exact.etype):
        return exact.id
    try:
        key = normalize_text(link.target_text)
    except EmptyLabelError:
        return None
    candidates = [
        entity_id
        for entity_id, entity in eg.entities.items()
        if conforms(entity.etype) and entity_id.rpartition("/")[2] == key
    ]
    return min(candidates) if candidates else None


def flagged_pairs(eg) -> frozenset:
    """The (entity id, property) pairs that `Entity.conflicting_properties`
    lists for the entities of `eg`."""
    return frozenset(
        (entity.id, prop) for entity in eg.entities.values() for prop in entity.conflicting_properties()
    )


def scan_conflict_flags(entities) -> frozenset:
    """(entity id, property) pairs with two or more distinct non-blank
    normalized values, by a plain loop over every value."""
    flags = set()
    for entity in entities.values():
        distinct: dict[str, set[str]] = {}
        for prop, value, _src in entity.data_values:
            if value.strip():
                distinct.setdefault(prop, set()).add(normalize_value(value))
        flags.update((entity.id, prop) for prop, values in distinct.items() if len(values) >= 2)
    return frozenset(flags)


def scan_merge_entities(eg, fragment, matches):
    """merge_entities in two passes: fold every entity of the graph and then
    of the fragment into new Entity objects, then rebuild every entity again
    with its links rewritten through the remap. Each existing id and the
    fragment ids matched to it map to the smallest id among them."""
    group_of = {existing_id: {existing_id} for existing_id in matches.values()}
    for fragment_id, existing_id in matches.items():
        group_of[existing_id].add(fragment_id)
    remap = {
        member: min(group)
        for group in group_of.values()
        for member in group
        if member != min(group)
    }

    def target(entity_id: str) -> str:
        return remap.get(entity_id, entity_id)

    def union(first, second):
        """Each property's (value, source) pairs of `first`, then those of
        `second` not among them."""
        merged: dict[str, list] = {}
        for prop, value, source in (*first, *second):
            pairs = merged.setdefault(prop, [])
            if (value, source) not in pairs:
                pairs.append((value, source))
        return value_triples(merged)

    combined: dict[str, Entity] = {}

    def fold(entity: Entity) -> None:
        new_id = target(entity.id)
        present = combined.get(new_id)
        if present is None:
            combined[new_id] = Entity(
                id=new_id,
                etype=entity.etype,
                data_values=entity.data_values,
                object_links=entity.object_links,
            )
        else:
            combined[new_id] = Entity(
                id=new_id,
                etype=present.etype,
                data_values=union(present.data_values, entity.data_values),
                object_links=present.object_links | entity.object_links,
            )

    for entity in eg.sorted_entities():
        fold(entity)
    for entity in fragment.eg.sorted_entities():
        fold(entity)

    entities = {
        entity_id: Entity(
            id=entity_id,
            etype=entity.etype,
            data_values=entity.data_values,
            object_links=frozenset(
                (prop, target(link_target), source)
                for prop, link_target, source in entity.object_links
            ),
        )
        for entity_id, entity in combined.items()
    }
    return EG(id=eg.id, schema=eg.schema, entities=entities), remap


def scan_missing_ratio(eg) -> Fraction:
    """missing_ratio by asking, for every (entity, declared property) pair,
    whether that one property holds a link or a non-blank value."""
    total = 0
    missing = 0
    for entity in eg.sorted_entities():
        declared = eg.schema.declared_properties(entity.etype)
        linked = {prop for prop, _t, _s in entity.object_links}
        for prop_name, definition in sorted(declared.items()):
            total += 1
            if definition.kind == "object":
                populated = prop_name in linked
            else:
                populated = any(v.strip() for p, v, _src in entity.data_values if p == prop_name)
            if not populated:
                missing += 1
    if total == 0:
        return Fraction(0)
    return Fraction(missing, total)


def scan_populated_elements(eg) -> tuple[set[str], set[str]]:
    """The etypes that hold an entity and the "etype.property" keys that one
    populates with a link or a non-blank value, each also under every
    ancestor of its etype, by scanning every entity of the graph."""
    populated_of: dict[str, set[str]] = {}
    for entity in eg.entities.values():
        populated = populated_of.setdefault(entity.etype, set())
        populated.update(prop for prop, _t, _s in entity.object_links)
        populated.update(prop for prop, value, _s in entity.data_values if value.strip())
    etypes: set[str] = set()
    props: set[str] = set()
    for etype, populated in populated_of.items():
        for holder in [etype, *eg.schema.ancestors_of(etype)]:
            etypes.add(holder)
            props.update(f"{holder}.{prop}" for prop in populated)
    return etypes, props


def scan_generate_entities(mapping, header, rows, schema_graph) -> Fragment:
    """generate_entities by gathering every row's stripped cells in
    per-entity list buckets, one cell at a time, and turning the buckets into
    entities at the end: the reference for its one-pass minting."""
    index_of = {name: i for i, name in enumerate(header)}
    for column, _prop in mapping.columns:
        if column not in index_of:
            raise ModelError(
                f"dataset {mapping.dataset_id!r}: mapped column {column} is not in the header"
            )
    declared = schema_graph.declared_properties(mapping.etype)
    cells = [
        (index_of[column], prop, declared[prop].kind == "object")
        for column, prop in mapping.columns
        if prop is not None
    ]
    key_indexes = [index_of[c] for c in mapping.identity_columns]

    def mint(ordinal, row):
        parts = None
        if key_indexes and all(row[i] for i in key_indexes):
            try:
                parts = tuple(normalize_text(row[i]) for i in key_indexes)
            except EmptyLabelError:
                pass
        return f"{mapping.dataset_id}/{'_'.join(parts) if parts else f'row_{ordinal}'}", parts

    values: dict[str, dict[str, list[tuple[str, str]]]] = {}
    pending: set[PendingLink] = set()
    # each id's first data row and the key parts it was minted from, None for
    # a row without a usable key: an id minted from two different part
    # tuples, or from a keyless row and any other row, is refused
    first_of: dict = {}
    data_cells = 0
    skipped = 0
    for ordinal, raw in enumerate(rows, start=1):
        row = list(map(str.strip, raw))
        if all(cell == "" for cell in row):
            skipped += 1
            continue
        entity_id, parts = mint(ordinal, row)
        first, first_parts = first_of.setdefault(entity_id, (ordinal, parts))
        if first != ordinal and (parts is None or parts != first_parts):
            raise ModelError(f"data rows {first} and {ordinal} both mint {entity_id} from different keys")
        bucket = values.setdefault(entity_id, {})
        for index, prop, is_object in cells:
            cell = row[index]
            if cell == "":
                continue
            if is_object:
                pending.add(PendingLink(entity_id, prop, cell, mapping.dataset_id))
            else:
                pair = (cell, mapping.dataset_id)
                series = bucket.setdefault(prop, [])
                if pair not in series:
                    series.append(pair)
                data_cells += 1
    entities = {
        entity_id: Entity(
            id=entity_id,
            etype=mapping.etype,
            data_values=value_triples(bucket),
            object_links=frozenset(),
        )
        for entity_id, bucket in values.items()
    }
    return Fragment(
        eg=EG(id=f"{mapping.dataset_id}-fragment", schema=schema_graph, entities=entities),
        pending_links=tuple(sorted(pending)),
        identity_properties=tuple(mapping.property_of(c) for c in mapping.identity_columns),
        stats={
            "rows": len(rows),
            "skipped_empty_rows": skipped,
            "entities": len(entities),
            "data_cells": data_cells,
            "dropped_columns": sum(prop is None for _name, prop in mapping.columns),
        },
    )


def scan_case_counts(before, after, dataset_id, etype) -> dict:
    """The count fields of a dataset's case report, by scanning every entity
    of the graphs before and after it; the dataset touched the entities that
    hold one of its values or links, and an entity new after it that it did
    not touch is not subtracted from `merged_entities`."""

    def holds(entity):
        return any(
            source == dataset_id for _p, _v, source in entity.data_values
        ) or any(source == dataset_id for _p, _t, source in entity.object_links)

    touched = sum(1 for entity in after.entities.values() if holds(entity))
    bare = sum(
        1
        for entity_id, entity in after.entities.items()
        if entity_id not in before.entities and not holds(entity)
    )
    appended = len(after.entities) - len(before.entities)
    shared = any(entity.etype == etype for entity in before.entities.values())
    return {
        "case": "shared_etype" if shared else "new_etype",
        "entities_before": len(before.entities),
        "entities_after": len(after.entities),
        "appended": appended,
        "merged_entities": touched - (appended - bare),
    }


def scan_infer_mapping(
    schema: DatasetSchema,
    etg: ETG,
    *,
    rename_map: Mapping[str, str] | None = None,
    override: MappingOverride | None = None,
) -> SchemaMapping:
    """infer_mapping with a separate branch for override files, the reference
    that the single-loop infer_mapping is checked against.

    Columns the sidecar schema maps explicitly are taken as-is; the rest are
    matched to declared property names by similarity, or dropped. An override
    file replaces the whole mapping, including the identity key.
    """
    rename_map = rename_map or {}
    etype = rename_map.get(schema.assigned_etype, schema.assigned_etype)
    if etype not in etg.etypes:
        raise NotInGraphError(
            f"dataset {schema.dataset_id!r}: etype {etype} is not part of the final graph"
        )
    declared = etg.declared_properties(etype)

    if override is not None:
        if override.dataset_id != schema.dataset_id:
            raise ModelError(
                f"override is for dataset {override.dataset_id!r}, "
                f"not {schema.dataset_id!r}"
            )
        columns = []
        for column in schema.columns:
            spec = override.columns.get(column.name)
            if spec is None:
                columns.append((column.name, None))
                continue
            target_etype, prop = spec
            if rename_map.get(target_etype, target_etype) != etype:
                raise ModelError(
                    f"dataset {schema.dataset_id!r}: column {column.name} mapped "
                    f"into etype {target_etype}, which is not this dataset's etype"
                )
            if prop not in declared:
                raise NotInGraphError(
                    f"dataset {schema.dataset_id!r}: column {column.name} mapped to "
                    f"undeclared property {etype}.{prop}"
                )
            columns.append((column.name, prop))
        by_name = dict(columns)
        for key_column in override.identity_key:
            if by_name.get(key_column) is None:
                raise ModelError(
                    f"dataset {schema.dataset_id!r}: identity column {key_column} "
                    f"is not mapped to a property"
                )
        return SchemaMapping(
            dataset_id=schema.dataset_id,
            etype=etype,
            columns=tuple(columns),
            identity_columns=override.identity_key,
        )

    taken = set()
    for column in schema.mapped_columns():
        if column.mapped not in declared:
            raise NotInGraphError(
                f"dataset {schema.dataset_id!r}: column {column.name} mapped to "
                f"undeclared property {etype}.{column.mapped}"
            )
        taken.add(column.mapped)
    columns = []
    for column in schema.columns:
        if column.mapped is not None:
            columns.append((column.name, column.mapped))
            continue
        best: tuple[str, Fraction] | None = None
        for prop_name in sorted(declared):
            if prop_name in taken:
                continue
            similarity = name_similarity(column.name, prop_name)
            if similarity >= INFER_THRESHOLD and (best is None or similarity > best[1]):
                best = (prop_name, similarity)
        if best is not None:
            taken.add(best[0])
            columns.append((column.name, best[0]))
        else:
            columns.append((column.name, None))
    return SchemaMapping(
        dataset_id=schema.dataset_id,
        etype=etype,
        columns=tuple(columns),
        identity_columns=tuple(c.name for c in schema.identity_columns()),
    )


def scan_export_eg(eg: EG, path: Path) -> list[str]:
    """export_eg that collects every line of the graph and sorts them all, the
    reference that the entity-at-a-time export_eg is checked against.

    Write the graph as sorted N-Triples; returns one warning per line whose
    value did not parse under its declared datatype and fell back to plain text."""
    lines: set[str] = set()
    warnings: list[str] = []
    # each entity id, etype and property name is quoted once per export
    iri = cache(_iri)
    for entity in eg.sorted_entities():
        subject = iri(f"urn:itelos:{eg.id}:{entity.id}")
        etype_iri = iri(f"urn:itelos:etg:{entity.etype}")
        lines.add(f"{subject} {_RDF_TYPE} {etype_iri} .")
        declared = eg.schema.declared_properties(entity.etype)
        for prop, value, _source in sorted(entity.data_values, key=lambda triple: triple[0]):
            predicate = iri(f"urn:itelos:etg:{prop}")
            definition = declared.get(prop)
            datatype = definition.datatype if definition and definition.kind == "data" else "string"
            literal = f'"{_escape_literal(value)}"'
            if datatype != "string":
                if _valid_for(datatype, value):
                    literal = f"{literal}^^<{_XSD}{datatype}>"
                elif f"{subject} {predicate} {literal} ." not in lines:
                    warnings.append(
                        f"{entity.id}: value {value!r} for {prop} is not a valid "
                        f"{datatype}; exported as a plain string"
                    )
            lines.add(f"{subject} {predicate} {literal} .")
        for prop, target, _source in sorted(entity.object_links):
            predicate = iri(f"urn:itelos:etg:{prop}")
            target_iri = iri(f"urn:itelos:{eg.id}:{target}")
            lines.add(f"{subject} {predicate} {target_iri} .")
    # line by line: one joined string would be the run's peak memory
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{line}\n" for line in sorted(lines))
    return warnings


# ---------------------------------------------------------------------------
# An N-Triples reader for what export_eg writes, after W3C RDF 1.1 N-Triples
# (https://www.w3.org/TR/n-triples/): IRIREF subjects and predicates, and
# objects that are an IRIREF or a STRING_LITERAL_QUOTE with an optional
# '^^' IRIREF datatype. Blank nodes and language tags are not read.

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_HEX = frozenset("0123456789abcdefABCDEF")


class NTriplesSyntaxError(ValueError):
    """A line is not a triple of the productions this reader accepts."""


def _uchar(line: str, at: int) -> tuple[str, int]:
    """The character of the UCHAR at `line[at]` (just past the backslash,
    on `u` or `U`) and the index after it."""
    width = 4 if line[at] == "u" else 8
    digits = line[at + 1 : at + 1 + width]
    if len(digits) != width or not set(digits) <= _HEX:
        raise NTriplesSyntaxError(f"bad UCHAR at {at}: {line!r}")
    return chr(int(digits, 16)), at + 1 + width


def _iriref(line: str, at: int) -> tuple[str, int]:
    """IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\\] | UCHAR)* '>'"""
    if line[at : at + 1] != "<":
        raise NTriplesSyntaxError(f"expected '<' at {at}: {line!r}")
    at += 1
    chars = []
    while True:
        if at >= len(line):
            raise NTriplesSyntaxError(f"unterminated IRIREF: {line!r}")
        char = line[at]
        if char == ">":
            return "".join(chars), at + 1
        if char == "\\":
            if line[at + 1 : at + 2] not in ("u", "U"):
                raise NTriplesSyntaxError(f"bad escape in IRIREF at {at}: {line!r}")
            char, at = _uchar(line, at + 1)
            chars.append(char)
            continue
        if ord(char) <= 0x20 or char in '<"{}|^`':
            raise NTriplesSyntaxError(f"{char!r} not allowed in IRIREF at {at}: {line!r}")
        chars.append(char)
        at += 1


def _string_literal_quote(line: str, at: int) -> tuple[str, int]:
    """STRING_LITERAL_QUOTE ::= '"' ([^#x22#x5C#xA#xD] | ECHAR | UCHAR)* '"'"""
    at += 1
    chars = []
    while True:
        if at >= len(line):
            raise NTriplesSyntaxError(f"unterminated literal: {line!r}")
        char = line[at]
        if char == '"':
            return "".join(chars), at + 1
        if char in "\n\r":
            raise NTriplesSyntaxError(f"raw line break in literal at {at}: {line!r}")
        if char == "\\":
            escaped = line[at + 1 : at + 2]
            if escaped in ("u", "U"):
                char, at = _uchar(line, at + 1)
            elif escaped and escaped in _ECHAR:
                char, at = _ECHAR[escaped], at + 2
            else:
                raise NTriplesSyntaxError(f"bad ECHAR at {at}: {line!r}")
            chars.append(char)
            continue
        chars.append(char)
        at += 1


def _skip_ws(line: str, at: int) -> int:
    while at < len(line) and line[at] in " \t":
        at += 1
    return at


def read_ntriple(line: str):
    """(subject IRI, predicate IRI, object) of one N-Triples line without its
    end of line; the object is ("iri", IRI) or ("literal", lexical form,
    datatype IRI or None). Raises NTriplesSyntaxError otherwise."""
    at = _skip_ws(line, 0)
    subject, at = _iriref(line, at)
    predicate, at = _iriref(line, _skip_ws(line, at))
    at = _skip_ws(line, at)
    if line[at : at + 1] == '"':
        lexical, at = _string_literal_quote(line, at)
        datatype = None
        if line[at : at + 2] == "^^":
            datatype, at = _iriref(line, at + 2)
        obj = ("literal", lexical, datatype)
    else:
        iri, at = _iriref(line, at)
        obj = ("iri", iri)
    at = _skip_ws(line, at)
    if line[at : at + 1] != ".":
        raise NTriplesSyntaxError(f"expected '.' at {at}: {line!r}")
    if _skip_ws(line, at + 1) != len(line):
        raise NTriplesSyntaxError(f"text after '.': {line!r}")
    return subject, predicate, obj


def read_ntriples(data: bytes) -> list:
    """Every triple of an N-Triples document, in file order: UTF-8, each line
    ended by LF."""
    text = data.decode("utf-8")
    if not text:
        return []
    if not text.endswith("\n"):
        raise NTriplesSyntaxError("the last line has no end of line")
    return [read_ntriple(line) for line in text[:-1].split("\n")]


# Lexical spaces of the XSD 1.1 datatypes export_eg types literals with
# (https://www.w3.org/TR/xmlschema11-2/), written out independently of the
# exporter's own checks.
_XSD_LEXICAL = {
    "integer": r"[\-+]?[0-9]+",
    "decimal": r"(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)",
    "boolean": r"true|false|1|0",
    "date": (
        r"-?([1-9][0-9]{3,}|0[0-9]{3})-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
        r"(Z|(\+|-)((0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
    ),
}


def xsd_valid(datatype: str, text: str) -> bool:
    """Whether `text` is in the lexical space of xsd:`datatype`; a date's day
    must exist in its month (XSD years are proleptic Gregorian, 0000 a leap
    year)."""
    if re.fullmatch(_XSD_LEXICAL[datatype], text, re.ASCII) is None:
        return False
    if datatype != "date":
        return True
    year, month, day = (int(part) for part in re.match(r"-?([0-9]+)-([0-9]+)-([0-9]+)", text).groups())
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    days = [31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31][month - 1]
    return day <= days


# ---------------------------------------------------------------------------
# The schema oracle: an exported graph read back and checked against the
# schema graph it was integrated against, with no code of the exporter or of
# `validate_eg`.

_RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_XSD_IRI = "http://www.w3.org/2001/XMLSchema#"
_ETG_IRI = "urn:itelos:etg:"


def scan_exported_graph(data: bytes, etg: ETG) -> list[str]:
    """Every violation of `etg` in `data`, an exported `eg.nt`:
    - a subject without exactly one type line naming an etype of `etg`;
    - a predicate its subject's etype does not declare, own or inherited,
      or declares with the other kind (data for a literal, object for an IRI);
    - a link to an IRI that is no subject of the file, or to a subject whose
      etype is neither the range nor one of its subclasses;
    - a typed literal whose datatype is not the declared one, or whose
      lexical form that datatype does not allow."""
    triples = read_ntriples(data)
    type_lines: dict[str, list] = {subject: [] for subject, _p, _o in triples}
    for subject, predicate, obj in triples:
        if predicate == _RDF_TYPE_IRI:
            type_lines[subject].append(obj)
    problems = []
    etype_of = {}
    for subject, objs in type_lines.items():
        names = [unquote(o[1].removeprefix(_ETG_IRI)) for o in objs if o[0] == "iri" and o[1].startswith(_ETG_IRI)]
        if len(objs) == 1 and names and names[0] in etg.etypes:
            etype_of[subject] = names[0]
        else:
            problems.append(f"{subject}: type lines {objs}, not one etype of {etg.id}")
    declared = cache(lambda etype: scan_declared_properties(etg, etype))
    conforming = cache(lambda etype: (etype, *scan_ancestors(etg, etype)))
    for subject, predicate, obj in triples:
        if predicate == _RDF_TYPE_IRI or subject not in etype_of:
            continue
        etype = etype_of[subject]
        kind = "object" if obj[0] == "iri" else "data"
        definition = declared(etype).get(unquote(predicate.removeprefix(_ETG_IRI)))
        if not predicate.startswith(_ETG_IRI) or definition is None or definition.kind != kind:
            problems.append(f"{subject}: {etype} declares no {kind} property {predicate}")
        elif kind == "object":
            target = etype_of.get(obj[1])
            if obj[1] not in type_lines:
                problems.append(f"{subject}: {predicate} links to {obj[1]}, which is no subject")
            elif target is not None and definition.range not in conforming(target):
                problems.append(f"{subject}: {predicate} links to a {target}, not a {definition.range}")
        elif obj[2] is not None and (
            obj[2] != f"{_XSD_IRI}{definition.datatype}"
            or definition.datatype != "string" and not xsd_valid(definition.datatype, obj[1])
        ):
            problems.append(f"{subject}: {predicate} value {obj[1]!r} typed {obj[2]}, declared {definition.datatype}")
    return problems
