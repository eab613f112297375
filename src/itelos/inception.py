"""Phase 1, inception: parse the purpose, load the candidate resources, match
them against the competency queries, and gate on coverage (eval_a).

Resources are processed per reusability category (common, then core, then
contextual) and ranked inside each category by coverage first, popularity
second.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .metrics import (
    GateReport,
    MetricResult,
    Thresholds,
    coverage,
    gate_from_results,
)
from .model import (
    CATEGORIES,
    CompetencyQuery,
    Column,
    DatasetSchema,
    DocumentError,
    ETG,
    ModelError,
    PropertyDef,
    ResourceMeta,
    compound_key,
    elements,
    expect_json,
    field,
    label_pair,
    load_etg,
    normalize_text,
    read_csv,
    read_document,
    read_json,
    unique_key,
)

# Remediation shown when a dataset falls below the coverage gate.
REUSE_HINT = "below the coverage gate: revise the competency queries or drop this dataset"


class PurposeParseError(ModelError):
    """The purpose file is missing, malformed, or violates an invariant."""


class DuplicateIdError(PurposeParseError):
    """Two competency queries or two resources share an id."""


class ResourceRef(NamedTuple):
    """A purpose entry pointing at a dataset or schema file on disk."""

    path: str
    meta: ResourceMeta


class Purpose(NamedTuple):
    """The full input specification: narrative, competency queries, and the
    candidate resources with their catalog metadata."""

    title: str
    narrative: str
    cqs: tuple[CompetencyQuery, ...]
    dataset_refs: tuple[ResourceRef, ...]
    ontology_refs: tuple[ResourceRef, ...]
    property_overrides: Mapping[str, PropertyDef] = MappingProxyType({})

    @property
    def slug(self) -> str:
        return normalize_text(self.title)


def _parse_cq(raw, index: int) -> CompetencyQuery:
    where = f"cqs[{index}]"
    cq_id = field(expect_json(raw, dict, where), "id", where)
    etypes = frozenset(
        normalize_text(expect_json(e, str, f"{where}.etypes[{i}]"))
        for i, e in enumerate(field(raw, "etypes", where, list, []))
    )
    raw_pairs = field(raw, "properties", where, list, [])
    pairs = {label_pair(pair, f"{where}.properties[{i}]") for i, pair in enumerate(raw_pairs)}
    sentence = field(raw, "sentence", where, default="")
    try:
        return CompetencyQuery(
            id=cq_id, sentence=sentence, etypes=etypes, property_pairs=frozenset(pairs)
        )
    except ModelError as exc:
        raise PurposeParseError(f"{where}: {exc}") from exc


def _parse_refs(raw_list: list, kind: str, where: str) -> tuple[ResourceRef, ...]:
    refs = []
    for index, raw in enumerate(raw_list):
        spot = f"{where}[{index}]"
        resource_id = field(expect_json(raw, dict, spot), "id", spot)
        path = field(raw, "path", spot)
        category = field(raw, "category", spot)
        popularity = field(raw, "popularity", spot, int, 0)
        origin = field(raw, "origin", spot, default="")
        try:
            meta = ResourceMeta(resource_id, kind, category, popularity, origin)
        except ModelError as exc:
            raise PurposeParseError(f"{spot}: {exc}") from exc
        # "/" separates the dataset id from the key in every minted entity id
        if kind == "dataset" and "/" in meta.id:
            raise PurposeParseError(f"{spot}: dataset id {meta.id!r} must not contain '/'")
        refs.append(ResourceRef(path=path, meta=meta))
    return tuple(refs)


def _parse_overrides(raw: dict) -> dict[str, PropertyDef]:
    """The purpose's property overrides, keyed "etype.property", each parsed
    into the definition it puts in the model; `PropertyDef` checks the kind,
    the datatype and the range."""
    overrides: dict[str, PropertyDef] = {}
    keys: dict[str, str] = {}
    for raw_key, spec in sorted(raw.items()):
        where = f"property_overrides[{raw_key!r}]"
        kind = field(expect_json(spec, dict, where), "kind", where, default="data")
        datatype = field(spec, "datatype", where, default=None)
        rng = field(spec, "range", where, default=None)
        try:
            etype_part, _, prop_part = raw_key.partition(".")
            name = normalize_text(prop_part)
            key = compound_key(normalize_text(etype_part), name)
            definition = PropertyDef(
                name=name,
                kind=kind,
                datatype=datatype,
                range=normalize_text(rng) if rng is not None else None,
            )
        except ModelError as exc:
            raise PurposeParseError(f"{where}: {exc}") from exc
        overrides[unique_key(key, raw_key, keys, "property_overrides")] = definition
    return overrides


def parse_purpose(path: Path) -> Purpose:
    """Parse and validate a purpose file.

    Labels are normalized on the way in; competency queries must be non-empty
    and ids unique across queries and across resources. Every error names the
    file.
    """
    return read_document(path, "purpose file", _purpose_from_doc, PurposeParseError)


def _purpose_from_doc(doc: Mapping) -> Purpose:
    title = field(doc, "title", "")
    normalize_text(title)  # the title's slug prefixes every IRI the run mints
    raw_cqs = field(doc, "cqs", "", list, [])
    if not raw_cqs:
        raise PurposeParseError("purpose must state at least one competency query")
    cqs = tuple(_parse_cq(raw, i) for i, raw in enumerate(raw_cqs))
    seen: set[str] = set()
    for cq in cqs:
        if cq.id in seen:
            raise DuplicateIdError(f"duplicate competency query id {cq.id!r}")
        seen.add(cq.id)

    dataset_refs = _parse_refs(field(doc, "datasets", "", list, []), "dataset", "datasets")
    ontology_refs = _parse_refs(field(doc, "ontologies", "", list, []), "ontology", "ontologies")
    seen = set()
    for ref in dataset_refs + ontology_refs:
        if ref.meta.id in seen:
            raise DuplicateIdError(f"duplicate resource id {ref.meta.id!r}")
        seen.add(ref.meta.id)

    return Purpose(
        title=title,
        narrative=field(doc, "narrative", "", default=""),
        cqs=cqs,
        dataset_refs=dataset_refs,
        ontology_refs=ontology_refs,
        property_overrides=_parse_overrides(field(doc, "property_overrides", "", dict, {})),
    )


# ---------------------------------------------------------------------------
# Resource collection


class LoadFailure(NamedTuple):
    """One resource that could not be loaded; collection continues past it."""

    resource_id: str
    path: str
    message: str


class ResourceCatalog(NamedTuple):
    """The loaded resources, each kind keyed by id in the order of the refs
    that named them, plus the failures met on the way."""

    datasets: Mapping[str, DatasetSchema]
    ontologies: Mapping[str, ETG]
    errors: tuple[LoadFailure, ...]


def sidecar_schema_path(csv_path: Path) -> Path | None:
    """`<stem>.schema.json` next to the data file; None for a path that
    names no file (`/`), which has no sidecar."""
    if not csv_path.name:
        return None
    return csv_path.with_name(csv_path.stem + ".schema.json")


def load_dataset_schema(csv_path: Path, meta: ResourceMeta) -> DatasetSchema:
    """Load a dataset's sidecar schema and check it against the CSV header.

    The sidecar lives next to the data file as `<stem>.schema.json`; header
    columns it does not mention are kept as unmapped attributes. Every error
    names the file at fault once: the CSV for its header, else the sidecar.
    A path with no file name (`/`) has no sidecar and is refused first.
    """
    schema_path = sidecar_schema_path(csv_path)
    if schema_path is None:
        raise DocumentError(f"{csv_path}: the dataset path names no file")
    doc = read_json(schema_path, "schema sidecar")
    header = next(read_csv(csv_path))
    try:
        field(doc, "dataset_id", "", default="")  # unused: the purpose names the dataset
        etype = normalize_text(field(doc, "etype", ""))
        columns: dict[str, Column] = {}
        names: dict[str, str] = {}
        for index, raw in enumerate(field(doc, "columns", "", list, [])):
            where = f"columns[{index}]"
            raw_name = field(expect_json(raw, dict, where), "name", where)
            name = unique_key(normalize_text(raw_name), raw_name, names, f"{where}.name")
            if name not in header:
                raise DocumentError(f"column {name} is not present in the header of {csv_path}")
            mapped = field(raw, "property", where, default=None)
            columns[name] = Column(
                name=name,
                mapped=normalize_text(mapped) if mapped is not None else None,
                role=field(raw, "role", where, default="attribute"),
            )
        return DatasetSchema(
            dataset_id=meta.id,
            assigned_etype=etype,
            columns=tuple(columns.get(h, Column(name=h)) for h in header),
            meta=meta,
        )
    except ModelError as exc:
        raise DocumentError(f"{schema_path}: {exc}") from exc


def collect_resources(refs: Sequence[ResourceRef], base_dir: Path) -> ResourceCatalog:
    """Load the resource each ref names, and only those, from `base_dir /
    ref.path` (an absolute path stays as it is), validating as it goes.

    A dataset is its sidecar schema checked against its CSV header, an
    ontology a schema graph that must be valid; each is filed under its kind.
    Failures are collected per resource; everything loadable is still
    returned, so one bad file does not sink the whole catalog.
    """
    datasets: dict[str, DatasetSchema] = {}
    ontologies: dict[str, ETG] = {}
    errors: list[LoadFailure] = []
    for ref in refs:
        path = base_dir / ref.path
        try:
            if ref.meta.kind == "dataset":
                datasets[ref.meta.id] = load_dataset_schema(path, ref.meta)
            else:
                ontologies[ref.meta.id] = load_etg(path, meta=ref.meta)
        except (OSError, ModelError, ValueError) as exc:
            errors.append(LoadFailure(resource_id=ref.meta.id, path=str(path), message=str(exc)))
    return ResourceCatalog(datasets=datasets, ontologies=ontologies, errors=tuple(errors))


# ---------------------------------------------------------------------------
# Matching and ranking


class RankedResource(NamedTuple):
    """One shortlisted resource with its coverage scores against the queries.

    `property_coverage` is None when the queries declare no property pairs
    (coverage over an empty requirement set is undefined)."""

    resource_id: str
    kind: str
    category: str
    popularity: int
    etype_coverage: MetricResult
    property_coverage: MetricResult | None

    def sort_key(self):
        prop_cov = self.property_coverage.value if self.property_coverage else Fraction(0)
        return (-self.etype_coverage.value, -prop_cov, -self.popularity, self.resource_id)


class CandidateRanking(NamedTuple):
    """Per-category shortlists in ranking order, plus the excluded resources."""

    by_category: Mapping[str, tuple[RankedResource, ...]]
    excluded: tuple[tuple[str, str], ...]

    def all_entries(self) -> list[RankedResource]:
        return [e for cat in CATEGORIES for e in self.by_category.get(cat, ())]

    def datasets(self) -> list[RankedResource]:
        return [e for e in self.all_entries() if e.kind == "dataset"]


def select_datasets(ranking: CandidateRanking, max_per_category: int | None = None) -> list[str]:
    """Order the shortlisted datasets for integration, as inception writes them
    to `selection.json`: most reusable category first, ranking order inside
    each category, at most `max_per_category` from each."""
    selected: list[str] = []
    for category in CATEGORIES:
        in_category = [
            e.resource_id for e in ranking.by_category.get(category, ()) if e.kind == "dataset"
        ]
        if max_per_category is not None:
            in_category = in_category[:max_per_category]
        selected.extend(in_category)
    return selected


def match_resources(cqs: Sequence[CompetencyQuery], catalog: ResourceCatalog) -> CandidateRanking:
    """Score every loaded resource against the queries and rank per category.

    Resources overlapping the queries in neither etypes nor properties are
    excluded from reuse but recorded for auditability.
    """
    cq_etypes, cq_props = elements(cqs)
    buckets: dict[str, list[RankedResource]] = {c: [] for c in CATEGORIES}
    excluded: list[tuple[str, str]] = []
    # ids are unique across kinds (DuplicateIdError), so one map holds both
    resources = {**catalog.datasets, **catalog.ontologies}
    for resource_id in sorted(resources):
        resource = resources[resource_id]
        meta = resource.meta
        etypes, props = elements(resource)
        etype_cov = coverage(cq_etypes, etypes)
        prop_cov = coverage(cq_props, props) if cq_props else None
        prop_value = prop_cov.value if prop_cov else Fraction(0)
        if etype_cov.value == 0 and prop_value == 0:
            excluded.append((resource_id, "no overlap with the competency queries"))
            continue
        buckets[meta.category].append(
            RankedResource(
                resource_id=resource_id,
                kind=meta.kind,
                category=meta.category,
                popularity=meta.popularity,
                etype_coverage=etype_cov,
                property_coverage=prop_cov,
            )
        )
    ranked = {
        category: tuple(sorted(entries, key=RankedResource.sort_key))
        for category, entries in buckets.items()
    }
    return CandidateRanking(by_category=ranked, excluded=tuple(excluded))


def eval_inception(
    cqs: Sequence[CompetencyQuery],
    ranking: CandidateRanking,
    thresholds: Thresholds | None = None,
    load_errors: Sequence[LoadFailure] = (),
) -> GateReport:
    """Gate eval_a: every shortlisted dataset must cover the queries, on both
    etypes and properties, at least to `cov_min`.

    An empty shortlist fails outright: nothing is reusable for this purpose.
    Each resource that failed to load gets a note, since it was never ranked.
    """
    thresholds = thresholds or Thresholds()
    items = []
    for entry in ranking.datasets():
        items.append((entry.resource_id, "etypes", entry.etype_coverage, REUSE_HINT))
        if entry.property_coverage is not None:
            items.append((entry.resource_id, "properties", entry.property_coverage, REUSE_HINT))
    notes = [f"load failure: {e.resource_id}: {e.message}" for e in load_errors]
    if not items:
        notes.append("no dataset overlaps the competency queries; nothing can be reused")
    if not any(cq.property_pairs for cq in cqs):
        notes.append("competency queries declare no property pairs; property coverage not gated")
    return gate_from_results("eval_a", items, thresholds, notes=tuple(notes))


def inception_to_json(
    purpose: Purpose, ranking: CandidateRanking, load_errors: Sequence[LoadFailure]
) -> dict:
    """The document form of the inception phase, written to `inception.json`."""

    def entry_json(e: RankedResource) -> dict:
        return {
            "id": e.resource_id,
            "kind": e.kind,
            "popularity": e.popularity,
            "etype_coverage": e.etype_coverage.to_json(),
            "property_coverage": e.property_coverage.to_json() if e.property_coverage else None,
        }

    return {
        "purpose": {
            "title": purpose.title,
            "slug": purpose.slug,
            "competency_queries": [cq.id for cq in purpose.cqs],
        },
        "ranking": {
            "categories": {
                category: [entry_json(e) for e in ranking.by_category.get(category, ())]
                for category in CATEGORIES
            },
            "excluded": [{"id": rid, "reason": reason} for rid, reason in ranking.excluded],
        },
        "load_errors": [
            {"id": e.resource_id, "path": e.path, "message": e.message} for e in load_errors
        ],
    }
