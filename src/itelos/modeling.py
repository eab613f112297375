"""Phase 2, modeling: fold the competency queries and the shortlisted dataset
schemas into one entity type graph, then gate on extensiveness (eval_b).

The model records where each element came from and which reusability category
each etype inherits from its datasets; both drive the alignment policy later.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .metrics import GateReport, Thresholds, evaluate_gate
from .model import (
    CATEGORIES,
    ELEMENT_KINDS,
    CompetencyQuery,
    DatasetSchema,
    ETG,
    ModelError,
    NotInGraphError,
    PropertyDef,
    ResourceMeta,
    checked,
    compound_key,
    elements,
    field,
)

FROM_CQ = "from_cq"
FROM_DATASET = "from_dataset"

EXT_HINT = "the model adds nothing beyond the queries; consider richer datasets"


@checked
class ETGModel(NamedTuple):
    """The modeled graph plus provenance and per-etype category annotations.

    `provenance` maps each element of the graph that a query or a dataset
    mentions, an etype or an "etype.property" key, to `FROM_CQ` or
    `FROM_DATASET`; `etype_categories` maps etypes of the graph to a member of
    `CATEGORIES`. Every construction checks both, so a provenance artifact
    that was edited by hand is refused when it is read back.
    """

    etg: ETG
    provenance: Mapping[str, str]
    etype_categories: Mapping[str, str]

    def _check(self) -> None:
        etypes, props = elements(self.etg)
        for element, source in self.provenance.items():
            if element not in etypes and element not in props:
                raise NotInGraphError(f"provenance: {element} is not an element of the model")
            if source not in (FROM_CQ, FROM_DATASET):
                raise ModelError(f"provenance: unknown source {source!r} for {element}")
        for etype, category in self.etype_categories.items():
            if etype not in self.etg.etypes:
                raise NotInGraphError(f"etype_categories: {etype} is not an etype of the model")
            if category not in CATEGORIES:
                raise ModelError(f"etype_categories: unknown category {category!r} for {etype}")

    def category_of(self, etype: str) -> str:
        return self.etype_categories.get(etype, "contextual")


def _most_reusable(categories: Sequence[str]) -> str:
    if not categories:
        return "contextual"
    return min(categories, key=CATEGORIES.index)


def build_etg_model(
    cqs: Sequence[CompetencyQuery],
    schemas: Sequence[DatasetSchema],
    overrides: Mapping[str, PropertyDef] | None = None,
    base_id: str = "purpose",
) -> ETGModel:
    """Union the query elements with the dataset schemas into one model.

    Every property is a string-valued data property unless the overrides map
    its "etype.property" key to a definition, which is used as it is. A link
    column needs an object override, and the error names the first dataset
    whose sidecar declares the column; an object range outside the model is
    refused by the ETG itself (`dangling_range`).
    """
    overrides = overrides or {}
    etypes: set[str] = set()
    provenance: dict[str, str] = {}
    categories: dict[str, list[str]] = {}
    # (etype, property) -> the first dataset that links through it, or None
    linked_by: dict[tuple[str, str], str | None] = {}

    for schema in schemas:
        etypes.add(schema.assigned_etype)
        provenance.setdefault(schema.assigned_etype, FROM_DATASET)
        categories.setdefault(schema.assigned_etype, []).append(schema.meta.category)
        for column in schema.mapped_columns():
            pair = (schema.assigned_etype, column.mapped)
            linked_by[pair] = linked_by.get(pair) or (schema.dataset_id if column.role == "link" else None)
            provenance.setdefault(compound_key(*pair), FROM_DATASET)

    for cq in cqs:
        for etype in cq.etypes:
            etypes.add(etype)
            provenance[etype] = FROM_CQ
        for etype, prop in cq.property_pairs:
            linked_by.setdefault((etype, prop), None)
            provenance[compound_key(etype, prop)] = FROM_CQ

    properties: dict[str, list[PropertyDef]] = {}
    for (etype, prop), dataset_id in sorted(linked_by.items()):
        key = compound_key(etype, prop)
        definition = overrides.get(key, PropertyDef(name=prop))
        if dataset_id is not None and definition.kind == "data":
            if key in overrides:
                raise ModelError(
                    f"{key}: declared data-valued but dataset {dataset_id!r} links through it"
                )
            raise ModelError(
                f"{key}: link column of dataset {dataset_id!r} needs an object property "
                "override with a range"
            )
        properties.setdefault(etype, []).append(definition)

    etg = ETG(
        id=f"{base_id}-model",
        etypes=frozenset(etypes),
        properties={e: tuple(defs) for e, defs in properties.items()},
        subclass_edges=frozenset(),
        meta=ResourceMeta(id=f"{base_id}-model", kind="ontology", category="contextual"),
    )

    etype_categories = {e: _most_reusable(categories.get(e, [])) for e in etypes}
    return ETGModel(etg=etg, provenance=provenance, etype_categories=etype_categories)


def eval_modeling(
    cqs: Sequence[CompetencyQuery],
    model: ETGModel,
    thresholds: Thresholds | None = None,
) -> GateReport:
    """Gate eval_b: how much the model extends the queries.

    Low extensiveness is advisory only; the gate warns below the floor but
    never fails the run.
    """
    thresholds = thresholds or Thresholds()
    pairs = [("etg_model", *row) for row in zip(ELEMENT_KINDS, elements(cqs), elements(model.etg))]
    return evaluate_gate("eval_b", pairs, thresholds, default_note=EXT_HINT)


def provenance_to_json(model: ETGModel) -> dict:
    return {"provenance": model.provenance, "etype_categories": model.etype_categories}


def model_from_docs(etg: ETG, prov_doc: Mapping) -> ETGModel:
    """The model `provenance_to_json` wrote, on the graph `etg`. As
    `build_etg_model` gives every etype a category, one without is refused
    rather than read as contextual."""
    def table(key: str) -> dict[str, str]:
        raw = field(prov_doc, key, "", dict, {})
        return {name: field(raw, name, key) for name in raw}

    categories = table("etype_categories")
    missing = sorted(etg.etypes - categories.keys())
    if missing:
        raise ModelError(f"etype_categories: etype {missing[0]} has no category")
    return ETGModel(etg=etg, provenance=table("provenance"), etype_categories=categories)
