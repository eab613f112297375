"""Core graph model: schema graphs (ETGs), instance graphs (EGs), competency
queries, dataset schemas and resource catalog entries.

Every name that participates in matching or metrics (etype, property, column)
is the plain string :func:`normalize_text` returns, so results never depend on
the spelling used in a particular source file.
"""

from __future__ import annotations

import csv
import json
import re
from collections import deque
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

PROPERTY_KINDS = ("data", "object")
DATATYPES = ("string", "integer", "decimal", "boolean", "date")
RESOURCE_KINDS = ("dataset", "ontology")
CATEGORIES = ("common", "core", "contextual")
COLUMN_ROLES = ("identity", "attribute", "link")


class ModelError(ValueError):
    """Invalid construction of a core model value."""


class EmptyLabelError(ModelError):
    """A label has no alphanumeric content left after normalization."""


class DocumentError(ModelError):
    """An input document (schema graph, sidecar, CSV file) is malformed."""


class NotInGraphError(ModelError):
    """A document names an etype or a property that the schema graph it is
    checked against lacks, so either of the two may be at fault."""


# ---------------------------------------------------------------------------
# Labels


_NON_ALNUM_RUN = re.compile(r"[^a-z0-9]+")


def normalize_text(raw: str) -> str:
    """Lowercase, collapse runs of non-alphanumerics to one underscore, strip.

    Raises EmptyLabelError when nothing alphanumeric remains.
    """
    collapsed = _NON_ALNUM_RUN.sub("_", raw.lower()).strip("_")
    if not collapsed:
        raise EmptyLabelError(f"label {raw!r} has no alphanumeric content")
    return collapsed


def normalize_value(raw: str) -> str:
    """Canonical form of a cell value for equality checks: lowercased, with
    whitespace runs collapsed. Unlike labels, values may normalize to ''."""
    return " ".join(raw.split()).lower()


def compound_key(etype: str, prop: str) -> str:
    """Canonical "etype.property" key; labels never contain dots."""
    return f"{etype}.{prop}"


def unique_key(key: str, raw: str, seen: dict[str, str], where: str) -> str:
    """`key`, the normalized form of the raw name `raw`, recorded in `seen`
    (key -> raw name). A reader keys its entries by normalized name, so a
    second raw name with the same key would silently replace the first entry:
    it raises DocumentError naming both and `where`, the key path."""
    if key in seen:
        raise DocumentError(f"{where}: {seen[key]!r} and {raw!r} both normalize to {key}")
    seen[key] = raw
    return key


def checked(cls):
    """Class decorator for a named tuple with a `_check` method, which every
    construction then runs; `_replace` and `_make` skip it."""
    make = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = make(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    return cls


# ---------------------------------------------------------------------------
# Schema-level types


@checked
class ResourceMeta(NamedTuple):
    """Catalog entry describing where a resource sits in the reuse hierarchy."""

    id: str
    kind: str
    category: str
    popularity: int = 0
    origin: str = ""

    def _check(self) -> None:
        if self.kind not in RESOURCE_KINDS:
            raise ModelError(f"unknown resource kind {self.kind!r}")
        if self.category not in CATEGORIES:
            raise ModelError(f"unknown category {self.category!r}")
        if self.popularity < 0:
            raise ModelError("popularity must be a non-negative integer")


class _PropertyDef(NamedTuple):
    name: str
    kind: str = "data"
    datatype: str | None = None
    range: str | None = None


class PropertyDef(_PropertyDef):
    """A data or object property attached to an etype.

    Data properties carry a datatype (default string); object properties carry
    the etype label of their target range instead. Unlike the `checked`
    records it has its own `__new__`, which fills in the default datatype as
    well as checking.
    """

    __slots__ = ()

    def __new__(cls, name, kind="data", datatype=None, range=None):
        if kind not in PROPERTY_KINDS:
            raise ModelError(f"unknown property kind {kind!r}")
        if kind == "data":
            if range is not None:
                raise ModelError(f"data property {name} must not declare a range")
            if datatype is None:
                datatype = "string"
            if datatype not in DATATYPES:
                raise ModelError(f"unknown datatype {datatype!r} on {name}")
        else:
            if datatype is not None:
                raise ModelError(f"object property {name} must not declare a datatype")
            if range is None:
                raise ModelError(f"object property {name} must declare a range etype")
        return super().__new__(cls, name, kind, datatype, range)


class _ETG(NamedTuple):
    id: str
    etypes: frozenset[str]
    properties: Mapping[str, tuple[PropertyDef, ...]]
    subclass_edges: frozenset[tuple[str, str]]
    meta: ResourceMeta


@checked
class ETG(_ETG):
    """Entity Type Graph: etypes, their properties, and subclass edges.

    A graph is valid because it exists: every construction runs
    `validate_etg` and raises ModelError listing each violation, so a
    reference ontology, a graph a phase builds and a graph read back from an
    artifact or `--etg` are all checked in this one place. `_make` and
    `_replace` skip the check.

    `ancestors_of` and `declared_properties` each look up one table, which
    is built whole from the graph on first use.
    """

    def _check(self) -> None:
        violations = validate_etg(self)
        if violations:
            raise ModelError("invalid schema graph: " + "; ".join(map(str, violations)))

    def sorted_etypes(self) -> list[str]:
        return sorted(self.etypes)

    def props_of(self, etype: str) -> tuple[PropertyDef, ...]:
        return self.properties.get(etype, ())

    def property_names(self, etype: str) -> frozenset[str]:
        return frozenset(p.name for p in self.props_of(etype))

    # The tables live in the instance __dict__ (ETG declares no __slots__), unseen by
    # equality, repr and _replace; `cyclic_edges` reads every parent's closure anyway.
    @cached_property
    def _ancestors(self) -> dict[str, tuple[str, ...]]:
        parents: dict[str, list[str]] = {}
        for child, parent in sorted(self.subclass_edges):
            parents.setdefault(child, []).append(parent)
        table = {}
        for etype, own in parents.items():
            seen: dict[str, None] = {}
            queue = deque(own)
            while queue:
                node = queue.popleft()
                if node not in seen:
                    seen[node] = None
                    queue.extend(parents.get(node, ()))
            table[etype] = tuple(seen)
        return table

    @cached_property
    def _declared(self) -> dict[str, Mapping[str, PropertyDef]]:
        table = {}
        for etype in self.etypes:
            props: dict[str, PropertyDef] = {}
            for holder in (etype, *self._ancestors.get(etype, ())):
                for prop in self.props_of(holder):
                    props.setdefault(prop.name, prop)
            table[etype] = MappingProxyType(props)
        return table

    def ancestors_of(self, etype: str) -> tuple[str, ...]:
        """All transitive parents in BFS order, parents sorted by name, or ()."""
        return self._ancestors.get(etype, ())

    def declared_properties(self, etype: str) -> Mapping[str, PropertyDef]:
        """Properties usable by entities of `etype`, own and inherited, read-only; the
        nearest declaration of a name wins. An etype not in the graph has none."""
        return self._declared.get(etype, _NO_PROPERTIES)


# ---------------------------------------------------------------------------
# Instance-level types


class Entity(NamedTuple):
    """An instance node: typed, with sourced data values and object links.

    `data_values` holds (property, value, source_dataset) triples, sorted by
    property and in first-seen order within one; the same triple is never
    stored twice.  `object_links` holds (property, target entity id,
    source_dataset) triples.
    """

    id: str
    etype: str
    data_values: tuple[tuple[str, str, str], ...]
    object_links: frozenset[tuple[str, str, str]]

    def value_sets(self) -> dict[str, frozenset[str]]:
        """Each data property mapped to its values in normalized form: the
        values that identity and conflict decisions compare. Values are never
        blank (`generate_entities`), so no set is empty. Computed on every
        call, in one pass over the triples."""
        sets: dict[str, frozenset[str]] = {}
        for prop, value, _src in self.data_values:
            sets[prop] = sets.get(prop, _NO_VALUES) | {normalize_value(value)}
        return sets

    def conflicting_properties(self) -> list[str]:
        """The data properties whose values disagree: two or more members in
        the property's `value_sets` entry. A property holding one text cannot
        disagree, so only properties holding two or more different texts are
        normalized; an entity that holds none is done after one set."""
        values = self.data_values
        if len({prop for prop, _v, _src in values}) == len(values):
            return []
        runs = ((prop, {v for _p, v, _src in run}) for prop, run in groupby(values, _property))
        return [prop for prop, texts in runs if len(texts) >= 2 and len(set(map(normalize_value, texts))) >= 2]


_NO_VALUES: frozenset[str] = frozenset()
_NO_PROPERTIES: Mapping[str, PropertyDef] = MappingProxyType({})
_property = itemgetter(0)


class EG(NamedTuple):
    """Entity Graph: entities conforming to a schema ETG, keyed by id.

    `entities` must not change after construction; every step that changes
    the graph builds a new EG.
    """

    id: str
    schema: ETG
    entities: Mapping[str, Entity]

    def sorted_entities(self) -> list[Entity]:
        return [self.entities[k] for k in sorted(self.entities)]


# ---------------------------------------------------------------------------
# Purpose-side types


@checked
class CompetencyQuery(NamedTuple):
    """A formalized requirement: the etypes and (etype, property) pairs one
    query needs the final graph to answer for."""

    id: str
    sentence: str
    etypes: frozenset[str]
    property_pairs: frozenset[tuple[str, str]]

    def _check(self) -> None:
        if not self.etypes:
            raise ModelError(f"competency query {self.id!r} lists no etypes")
        for etype, prop in self.property_pairs:
            if etype not in self.etypes:
                raise ModelError(
                    f"competency query {self.id!r}: property {prop} names etype "
                    f"{etype} which is not in its etype list"
                )


@checked
class Column(NamedTuple):
    """One CSV column of a dataset schema and its (optional) property mapping."""

    name: str
    mapped: str | None = None
    role: str = "attribute"

    def _check(self) -> None:
        if self.role not in COLUMN_ROLES:
            raise ModelError(f"unknown column role {self.role!r}")


@checked
class DatasetSchema(NamedTuple):
    """Schema of one tabular dataset: the etype its rows instantiate plus the
    column-to-property mapping declared by the catalog author."""

    dataset_id: str
    assigned_etype: str
    columns: tuple[Column, ...]
    meta: ResourceMeta

    def _check(self) -> None:
        identity = [c for c in self.columns if c.role == "identity"]
        if len(identity) > 1:
            raise ModelError(f"dataset {self.dataset_id!r} declares more than one identity column")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ModelError(f"dataset {self.dataset_id!r} has duplicate column names after normalization")
        for col in identity:
            if col.mapped is None:
                raise ModelError(
                    f"dataset {self.dataset_id!r}: identity column {col.name} must map to a property"
                )
        for col in self.columns:
            if col.role == "link" and col.mapped is None:
                raise ModelError(
                    f"dataset {self.dataset_id!r}: link column {col.name} must map to a property"
                )

    def identity_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role == "identity")

    def mapped_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.mapped is not None)


# ---------------------------------------------------------------------------
# Element sets

ELEMENT_KINDS = ("etypes", "properties")

ElementSource = Union[ETG, DatasetSchema, Iterable[CompetencyQuery]]


def elements(source: ElementSource) -> tuple[frozenset[str], frozenset[str]]:
    """The etypes and the "etype.property" keys (`ELEMENT_KINDS`) that an ETG,
    a dataset schema or some competency queries mention, read in one pass over
    `source`. A dataset schema gives its assigned etype and mapped columns."""
    if isinstance(source, ETG):
        etypes = source.etypes
        props = {compound_key(e, p.name) for e, defs in source.properties.items() for p in defs}
    elif isinstance(source, DatasetSchema):
        etypes = {source.assigned_etype}
        props = {compound_key(source.assigned_etype, c.mapped) for c in source.mapped_columns()}
    else:
        etypes, props = set(), set()
        for cq in source:
            etypes |= cq.etypes
            props.update(compound_key(e, p) for e, p in cq.property_pairs)
    return frozenset(etypes), frozenset(props)


# ---------------------------------------------------------------------------
# Validation


class Violation(NamedTuple):
    """One invariant violation found by a validator; violations are data, not
    exceptions, so reports can list all of them at once."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def cyclic_edges(g: ETG) -> list[tuple[str, str]]:
    """The subclass edges (child, parent) of `g` that lie on a cycle, sorted:
    those whose child is an ancestor of their parent, a self-loop included."""
    return [(child, parent) for child, parent in sorted(g.subclass_edges) if child in g.ancestors_of(parent)]


def validate_etg(g: ETG) -> list[Violation]:
    """Check every ETG invariant; an empty report means the graph is valid.
    This is the one statement of what makes a schema graph invalid; a cycle
    is reported once for each edge that lies on it (`cyclic_edges`)."""
    out: list[Violation] = []
    for etype in sorted(g.properties):
        if etype not in g.etypes:
            out.append(Violation("unknown_property_etype", f"properties declared for unknown etype {etype}"))
        names = [p.name for p in g.properties[etype]]
        for name in sorted(set(n for n in names if names.count(n) > 1)):
            out.append(Violation("duplicate_property", f"etype {etype} declares property {name} more than once"))
        for prop in g.properties[etype]:
            if prop.kind == "object" and prop.range not in g.etypes:
                out.append(
                    Violation("dangling_range", f"object property {etype}.{prop.name} targets unknown etype {prop.range}")
                )
    for child, parent in sorted(g.subclass_edges):
        for end in (child, parent):
            if end not in g.etypes:
                out.append(Violation("dangling_subclass", f"subclass edge ({child}, {parent}) references unknown etype {end}"))
    for child, parent in cyclic_edges(g):
        out.append(Violation("subclass_cycle", f"subclass edge ({child}, {parent}) lies on a cycle"))
    return out


def validate_eg(eg: EG) -> list[Violation]:
    """Check every EG invariant against its schema; empty report means valid.
    Conflicts need no check: `Entity.conflicting_properties` derives them
    from the values. An integrated graph is valid by construction, so this is
    the tests' oracle, kept in `src/` until the benchmark change."""
    out: list[Violation] = []
    for entity in eg.sorted_entities():
        if entity.etype not in eg.schema.etypes:
            out.append(Violation("unknown_etype", f"entity {entity.id} has unknown etype {entity.etype}"))
            continue
        declared = eg.schema.declared_properties(entity.etype)
        ordered = sorted(entity.data_values, key=_property)
        if list(entity.data_values) != ordered:
            out.append(Violation("unsorted_values", f"entity {entity.id} has values out of property order"))
        if len(set(ordered)) != len(ordered):
            out.append(Violation("duplicate_value", f"entity {entity.id} stores a value triple twice"))
        for prop, run in groupby(ordered, _property):
            if any(not value.strip() for _p, value, _src in run):
                out.append(Violation("blank_value", f"entity {entity.id} has a blank value for {prop}"))
            pdef = declared.get(prop)
            if pdef is None or pdef.kind != "data":
                out.append(Violation("undeclared_property", f"entity {entity.id} uses undeclared data property {prop}"))
        for prop, target, _src in sorted(entity.object_links):
            pdef = declared.get(prop)
            if pdef is None or pdef.kind != "object":
                out.append(Violation("undeclared_property", f"entity {entity.id} uses undeclared link property {prop}"))
            if target not in eg.entities:
                out.append(Violation("dangling_link", f"entity {entity.id} links to missing entity {target!r} via {prop}"))
    return out


# ---------------------------------------------------------------------------
# Schema-graph documents (JSON)


_JSON_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    float: "a number", bool: "true or false", type(None): "null",
}


def expect_json(value, kind: type, where: str, error: type[Exception] = DocumentError):
    """Return `value` if the JSON decoder gave it type `kind`; raise `error`
    saying what `where` must be otherwise."""
    if type(value) is not kind:
        found = _JSON_NAMES.get(type(value), type(value).__name__)
        raise error(f"{where} must be {_JSON_NAMES[kind]}, not {found}")
    return value


_REQUIRED = object()


def field(doc: Mapping, key: str, where: str, kind: type = str, default=_REQUIRED, error: type[Exception] = DocumentError):
    """The value of `key` in the JSON object `doc`, which `where` names ("" for
    a document root); it must have JSON type `kind`, else `error` is raised.

    An absent key gives `default`, or fails when there is none; null counts as
    absent only where `default` is None. A required string must not be blank.
    """
    value = doc.get(key)
    if value is None and (key not in doc or default is None):
        if default is _REQUIRED:
            raise error(f"{where}: missing {key!r}" if where else f"missing {key!r}")
        return default
    if type(value) is not kind or (default is _REQUIRED and kind is str and not value.strip()):
        path = f"{where}.{key}" if where else key
        expect_json(value, kind, path, error)
        raise error(f"{path} must not be empty or only whitespace")
    return value


def label_pair(value, where: str) -> tuple[str, str]:
    """The two normalized labels of a JSON list of two strings such as
    [etype, property]."""
    if type(value) is not list or len(value) != 2 or not all(type(v) is str for v in value):
        raise DocumentError(f"{where} must be a list of two labels, not {value!r}")
    return normalize_text(value[0]), normalize_text(value[1])


def _json_strings(doc) -> Iterator[tuple[str, str]]:
    """(location, string) for each key and string value of the JSON value
    `doc`, values in document order, walked without recursion."""
    stack = [("", doc)]
    while stack:
        where, value = stack.pop()
        if type(value) is str:
            yield where or "the document root", value
        elif type(value) is dict:
            yield from ((f"a key of {where or 'the document root'}", key) for key in value)
            stack.extend((f"{where}.{key}" if where else key, item) for key, item in reversed(value.items()))
        elif type(value) is list:
            stack.extend((f"{where}[{i}]", item) for i, item in reversed(list(enumerate(value))))


def read_json(path: Path, what: str, error: type[Exception] = DocumentError) -> dict:
    """Return the root of the UTF-8 JSON file at `path` (a leading BOM is
    skipped), which must be a JSON object whose strings hold no NUL and no
    unpaired surrogate. Every failure raises `error` naming the file; `what`
    says what the file is for."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
        doc = json.loads(text)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: not valid UTF-8 at line {line}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: unreadable JSON: {exc}") from exc
    # no path may hold a NUL, and UTF-8 cannot encode an unpaired surrogate (RFC 8259
    # section 8.2); strict JSON refuses a raw control character and UTF-8 never decodes
    # to a surrogate, so only an escape gives either
    if "\\u" in text:
        for where, string in _json_strings(doc):
            if "\x00" in string:
                raise error(f"{path}: {where} holds a NUL character")
            if any("\ud800" <= c <= "\udfff" for c in string):
                raise error(f"{path}: {where} holds an unpaired surrogate")
    return expect_json(doc, dict, f"{path}: document root", error)


def read_document(path: Path, what: str, parse, error: type[Exception] = DocumentError):
    """`parse` applied to the JSON object `read_json` reads from `path`. A ModelError or
    `error` that `parse` raises is raised again as `error` with the path in front, so
    every refusal names the file."""
    doc = read_json(path, what, error)
    try:
        return parse(doc)
    except (ModelError, error) as exc:
        raise error(f"{path}: {exc}") from exc


def write_json(path: Path, doc) -> None:
    """Write `doc` to `path` as UTF-8 JSON with sorted keys, indented by two
    spaces and ending in a newline: the form of every JSON artifact."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def etg_from_doc(doc: Mapping, *, meta: ResourceMeta | None = None) -> ETG:
    """Build an ETG from its JSON document form.

    The document's own `meta` block is required and always checked. `meta`
    overrides it; catalog metadata given in a purpose file wins over what the
    schema file says about itself. Two `properties` keys that normalize alike
    are rejected (`unique_key`).
    """
    graph_id = field(doc, "id", "")
    where = f"{graph_id}.meta"
    raw_meta = field(doc, "meta", graph_id, dict)
    own_meta = ResourceMeta(
        id=graph_id,
        kind="ontology",
        category=field(raw_meta, "category", where),
        popularity=field(raw_meta, "popularity", where, int, 0),
        origin=field(raw_meta, "origin", where, default=""),
    )
    meta = meta if meta is not None else own_meta
    etypes = frozenset(
        normalize_text(expect_json(e, str, f"{graph_id}.etypes[{i}]"))
        for i, e in enumerate(field(doc, "etypes", graph_id, list))
    )
    properties: dict[str, tuple[PropertyDef, ...]] = {}
    etype_names: dict[str, str] = {}
    for raw_etype, raw_props in sorted(field(doc, "properties", graph_id, dict, {}).items()):
        etype = unique_key(normalize_text(raw_etype), raw_etype, etype_names, f"{graph_id}.properties")
        where = f"{graph_id}.properties.{raw_etype}"
        defs = []
        for i, raw in enumerate(expect_json(raw_props, list, where)):
            spot = f"{where}[{i}]"
            rng = field(expect_json(raw, dict, spot), "range", spot, default=None)
            defs.append(
                PropertyDef(
                    name=normalize_text(field(raw, "name", spot)),
                    kind=field(raw, "kind", spot, default="data"),
                    datatype=field(raw, "datatype", spot, default=None),
                    range=normalize_text(rng) if rng is not None else None,
                )
            )
        properties[etype] = tuple(sorted(defs, key=lambda p: p.name))
    raw_subclass = field(doc, "subclass", graph_id, list, [])
    subclass = frozenset(
        label_pair(pair, f"{graph_id}.subclass[{i}]") for i, pair in enumerate(raw_subclass)
    )
    return ETG(id=graph_id, etypes=etypes, properties=properties, subclass_edges=subclass, meta=meta)


def etg_to_doc(g: ETG) -> dict:
    """Serialize an ETG to its canonical (sorted, normalized) document form."""
    properties = {}
    for etype in sorted(g.properties):
        serialized = []
        for p in sorted(g.props_of(etype), key=lambda p: p.name):
            entry: dict[str, str] = {"name": p.name, "kind": p.kind}
            if p.kind == "data":
                entry["datatype"] = p.datatype
            else:
                entry["range"] = p.range
            serialized.append(entry)
        properties[etype] = serialized
    return {
        "id": g.id,
        "meta": {"category": g.meta.category, "popularity": g.meta.popularity, "origin": g.meta.origin},
        "etypes": g.sorted_etypes(),
        "properties": properties,
        "subclass": sorted([c, p] for c, p in g.subclass_edges),
    }


def load_etg(path: Path, *, meta: ResourceMeta | None = None) -> ETG:
    return read_document(path, "schema graph", lambda doc: etg_from_doc(doc, meta=meta))


def dump_etg(g: ETG, path: Path) -> None:
    write_json(path, etg_to_doc(g))


# ---------------------------------------------------------------------------
# Dataset files (CSV)


def read_csv(path: Path) -> Iterator[list[str]]:
    """Yield the normalized header names of a UTF-8 CSV dataset file, then
    each data row.

    Every row must have as many fields as the header. A missing header, a
    blank header name or two that normalize alike, a malformed or oversized
    field, or a byte that is not UTF-8 raises a DocumentError naming the
    file; taking only the first item reads only the header.
    """
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DocumentError(f"{path}: dataset file has no header row")
            seen: dict[str, str] = {}
            yield [unique_key(normalize_text(name), name, seen, f"{path}: header") for name in header]
            for row in reader:
                if len(row) != len(header):
                    raise DocumentError(
                        f"{path}: line {reader.line_num}: expected "
                        f"{len(header)} fields, got {len(row)}"
                    )
                yield row
        except EmptyLabelError as exc:
            raise DocumentError(f"{path}: header: {exc}") from exc
        except csv.Error as exc:
            raise DocumentError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DocumentError(
                f"{path}: not valid UTF-8 after line {reader.line_num}"
            ) from exc
