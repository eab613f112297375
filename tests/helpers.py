"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles (plain
set arithmetic, breadth-first traversal) so the production code is checked
against a second, simpler implementation.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from pathlib import Path

from itelos.alignment import (
    Candidate,
    PredictionVector,
    _blend,
    name_similarity,
    property_sharability,
)
from itelos.integration import _same_entity
from itelos.model import (
    ETG,
    CompetencyQuery,
    Column,
    DatasetSchema,
    EmptyLabelError,
    PropertyDef,
    ResourceMeta,
    normalize_text,
)

FIXTURES = Path(__file__).parent / "fixtures"
COVID = FIXTURES / "covid_trentino"


def make_etg(
    graph_id,
    etypes,
    properties=None,
    subclass=(),
    category="core",
    popularity=0,
    kind="ontology",
):
    """ETG from plain strings; properties maps etype -> list of specs, where a
    spec is a name or a (name, kind, datatype_or_range) tuple."""
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
    return ETG(
        id=graph_id,
        etypes=frozenset(normalize_text(e) for e in etypes),
        properties=props,
        subclass_edges=frozenset(
            (normalize_text(c), normalize_text(p)) for c, p in subclass
        ),
        meta=ResourceMeta(id=graph_id, kind=kind, category=category, popularity=popularity),
    )


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


def occurrence_count(eg) -> int:
    """Total stored (value, source) occurrences across all entities."""
    return sum(
        len(pairs)
        for entity in eg.entities.values()
        for pairs in entity.data_values.values()
    )


def scan_ancestors(etg, etype) -> list[str]:
    """Transitive parents by breadth-first search that rescans every subclass
    edge at each step, with no cache."""
    seen: list[str] = []
    queue = sorted(p for c, p in etg.subclass_edges if c == etype)
    while queue:
        node = queue.pop(0)
        if node in seen or node == etype:
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
                candidates.append(
                    Candidate(
                        label=onto_etype,
                        score=score,
                        name_similarity=similarity,
                        sharability=sharability,
                    )
                )
        candidates.sort(key=lambda c: (-c.score, -c.sharability, c.label))
        if candidates:
            by_etype[etype] = tuple(candidates)
    return PredictionVector(ontology_id=ontology.meta.id, candidates=by_etype)


def scan_match_entities(eg, fragment) -> dict[str, str]:
    """match_entities without an index: every candidate is compared with
    every existing entity of its etype, in id order."""
    matches = {}
    for candidate in fragment.eg.sorted_entities():
        if candidate.id in eg.entities:
            matches[candidate.id] = candidate.id
            continue
        for existing in eg.sorted_entities():
            if existing.etype == candidate.etype and _same_entity(
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
