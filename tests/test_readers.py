"""Property test of the input readers: a valid document with one string or
integer leaf retyped must be refused with the reader's own error, naming the
file (where the reader knows it) and the key path of the leaf."""

import copy
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from itelos.inception import (
    ResourceRef,
    collect_resources,
    load_dataset_schema,
    parse_purpose,
)
from itelos.integration import override_from_doc
from itelos.model import DocumentError, ResourceMeta, load_etg

from helpers import COVID

# A value of each JSON type but null. No list drawn here is a pair of labels.
JSON_VALUES = {
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    str: st.text(max_size=5),
    list: st.lists(st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}

OVERRIDE = {
    "dataset_id": "ds_cases",
    "columns": {"case_id": ["covid_case", "case_id"], "notes": "drop"},
    "identity_key": ["case_id"],
}


def leaves(doc, path=()):
    """The path of every string or integer (not boolean) leaf of `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, (*path, key))
        elif type(value) in (int, str):
            yield (*path, key)


def location(root, path, keyed):
    """The key path of `path` as messages write it: `[i]` for a list index,
    `['k']` for a key of an object listed in `keyed`, `.k` otherwise. An item
    of a label pair is reported as the pair."""
    if len(path) >= 3 and path[-3] in ("properties", "subclass", "columns") and isinstance(path[-1], int):
        path = path[:-1]
    text = root
    for index, step in enumerate(path):
        if isinstance(step, int):
            text += f"[{step}]"
        elif index and path[index - 1] in keyed:
            text += f"[{step!r}]"
        else:
            text += f".{step}" if text else step
    return text


def retyped(data, doc):
    """A copy of `doc` with one drawn leaf replaced, and the leaf's path."""
    path = data.draw(st.sampled_from(sorted(leaves(doc), key=repr)))
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    kind = type(target[path[-1]])
    target[path[-1]] = data.draw(st.one_of(*[v for k, v in JSON_VALUES.items() if k is not kind]))
    return doc, path


def fixture_doc(name):
    return json.loads((COVID / name).read_text(encoding="utf-8"))


class TestEveryRetypedLeafIsRefused:
    @settings(max_examples=150)
    @given(st.data())
    def test_purpose(self, data):
        doc, path = retyped(data, fixture_doc("purpose.json"))
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "purpose.json"
            file.write_text(json.dumps(doc), encoding="utf-8")
            try:
                parse_purpose(file)
            except DocumentError as exc:
                message = str(exc)
            else:
                raise AssertionError(f"{path} accepted")
        assert message.startswith(f"{file}: ")
        assert location("", path, ("property_overrides",)) in message

    @settings(max_examples=100)
    @given(st.data())
    def test_sidecar(self, data):
        doc, path = retyped(data, fixture_doc("data/hospitals.schema.json"))
        meta = ResourceMeta(id="ds_hospitals", kind="dataset", category="common")
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "hospitals.csv"
            shutil.copy(COVID / "data" / "hospitals.csv", csv_path)
            sidecar = Path(tmp) / "hospitals.schema.json"
            sidecar.write_text(json.dumps(doc), encoding="utf-8")
            try:
                load_dataset_schema(csv_path, meta)
            except DocumentError as exc:
                message = str(exc)
            else:
                raise AssertionError(f"{path} accepted")
        assert message.startswith(f"{sidecar}: ")
        assert location("", path, ()) in message

    @settings(max_examples=100)
    @given(st.data())
    def test_ontology(self, data):
        doc, path = retyped(data, fixture_doc("ontologies/onto_health.json"))
        with tempfile.TemporaryDirectory() as tmp:
            file = Path(tmp) / "onto.json"
            file.write_text(json.dumps(doc), encoding="utf-8")
            try:
                load_etg(file)
            except DocumentError as exc:
                message = str(exc)
            else:
                raise AssertionError(f"{path} accepted")
            # the purpose's catalog metadata does not hide the file's own meta block
            meta = ResourceMeta(id="onto_health", kind="ontology", category="core")
            catalog = collect_resources([ResourceRef(path=file.name, meta=meta)], Path(tmp))
        assert [e.message for e in catalog.errors] == [message]
        assert message.startswith(f"{file}: ")
        # the graph id names the document once it has been read
        root = "" if path == ("id",) else "onto_health"
        assert location(root, path, ()) in message

    @settings(max_examples=100)
    @given(st.data())
    def test_override(self, data):
        doc, path = retyped(data, OVERRIDE)
        try:
            override_from_doc(doc)
        except DocumentError as exc:
            message = str(exc)
        else:
            raise AssertionError(f"{path} accepted")
        assert location("mapping override", path, ("columns",)) in message
