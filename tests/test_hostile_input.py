"""Hostile-input oracle over the whole command line.

Each example copies the covid fixture, writes a config file and a mapping
override next to it, damages exactly one input file and runs `itelos run` in
process. A stepwise example runs the four subcommands one after another on
the renames fixture instead, whose `rename_map.json` is not empty, and
damages one artifact that an earlier phase wrote just before the phase that
reads it back. Whatever the damage, the run must end with exit
code 0, 1 or 2 and no traceback; every error message and every load failure
must name the damaged file; and a run that exits 0 must leave an `eg.nt`
that parses as N-Triples and holds to the `etg_final.json` it was
integrated against (`scan_exported_graph`).

CI runs this module alone under the `hostile-input` profile (see
conftest.py) with a larger example budget.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from itelos.cli import PHASES, main

from helpers import COVID, RENAMES

from test_cli import CASES_OVERRIDE, schema_violations

JSON_FILES = (
    "purpose.json",
    "data/hospitals.schema.json",
    "data/covid_cases.schema.json",
    "ontologies/onto_upper.json",
    "ontologies/onto_health.json",
    "config.json",
    "override.json",
)
CSV_FILES = ("data/hospitals.csv", "data/covid_cases.csv")
# each artifact a phase reads back, with the first phase that reads it
READ_BACK = {
    "selection.json": "model",
    "etg_model.json": "align",
    "etg_model_provenance.json": "align",
    "etg_final.json": "integrate",
    "rename_map.json": "integrate",
}
LEAVES = (None, True, 0, -1, 10**30, 1.5, float("inf"), float("nan"), "", "x", "Ospedale", [], {})


def json_nodes(value, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_nodes(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from json_nodes(item, (*path, index))


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def json_damage(draw, doc):
    """`doc` with one key dropped, one leaf given another JSON type, one
    string leaf respelled with a NUL or an unpaired surrogate, or one list
    item duplicated; the document root is never replaced."""
    nodes = list(json_nodes(doc))
    dicts = [path for path, value in nodes if isinstance(value, dict) and value]
    leaves = [path for path, value in nodes if path and not isinstance(value, (dict, list))]
    strings = [path for path, value in nodes if path and isinstance(value, str)]
    lists = [path for path, value in nodes if isinstance(value, list) and value]
    kinds = [
        kind
        for kind, paths in (("drop", dicts), ("retype", leaves), ("respell", strings), ("duplicate", lists))
        if paths
    ]
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        node = at(doc, draw(st.sampled_from(dicts)))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "retype":
        path = draw(st.sampled_from(leaves))
        old = at(doc, path)
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([v for v in LEAVES if type(v) is not type(old)]))
    elif kind == "respell":
        path = draw(st.sampled_from(strings))
        old = at(doc, path)
        cut = draw(st.integers(0, len(old)))
        at(doc, path[:-1])[path[-1]] = old[:cut] + draw(st.sampled_from(["\x00", "\ud800"])) + old[cut:]
    else:
        node = at(doc, draw(st.sampled_from(lists)))
        index = draw(st.integers(0, len(node) - 1))
        node.insert(index, json.loads(json.dumps(node[index])))
    return (json.dumps(doc) + "\n").encode("utf-8")


# a BOM, a quote, an embedded newline and a field over the csv module's limit
cell_texts = st.sampled_from(
    ["", " ", "TN01", "C001", "ds_hospitals/tn01", "row_1", "1e3", "2020-02-30", "\ufeff", '"', "a,b", "x\ny", "9" * 140_000]
)


@st.composite
def csv_damage(draw, data: bytes):
    """`data` with one cell replaced, one line dropped, duplicated or
    replaced, or one byte replaced."""
    kind = draw(st.sampled_from(["cell", "line", "byte"]))
    if kind == "byte":
        at_byte = draw(st.integers(0, len(data) - 1))
        return data[:at_byte] + bytes([draw(st.integers(0, 255))]) + data[at_byte + 1:]
    lines = data.decode("utf-8").split("\n")
    index = draw(st.integers(0, len(lines) - 1))
    if kind == "cell":
        cells = lines[index].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(cell_texts)
        lines[index] = ",".join(cells)
    else:
        action = draw(st.sampled_from(["drop", "duplicate", "replace"]))
        if action == "drop":
            del lines[index]
        elif action == "duplicate":
            lines.insert(index, lines[index])
        else:
            lines[index] = draw(cell_texts)
    return "\n".join(lines).encode("utf-8")


def written_docs(root: str) -> dict:
    """The config file and the mapping override that each run adds to the
    fixture copy at `root`; the config lists the override."""
    return {
        "override.json": CASES_OVERRIDE,
        "config.json": {"cov_min": "1/2", "match_threshold": 0.7, "fail_fast": False, "mappings": [f"{root}/override.json"]},
    }


@st.composite
def damaged_inputs(draw):
    """The relative name of one input file and its damaged bytes, in which
    `{root}` stands for the directory of the fixture copy."""
    name = draw(st.sampled_from(JSON_FILES + CSV_FILES))
    if name in CSV_FILES:
        return name, draw(csv_damage((COVID / name).read_bytes()))
    written = written_docs("{root}")
    doc = json.loads(json.dumps(written[name]) if name in written else (COVID / name).read_text(encoding="utf-8"))
    return name, draw(json_damage(doc))


def edited(name: str, edit) -> tuple[str, bytes]:
    """`name` from the fixture with `edit` applied to its JSON document."""
    doc = json.loads((COVID / name).read_text(encoding="utf-8"))
    edit(doc)
    return name, json.dumps(doc).encode("utf-8")


@st.composite
def damaged_artifacts(draw):
    """The name of one artifact that a phase reads back and its damaged bytes."""
    name = draw(st.sampled_from(sorted(READ_BACK)))
    return name, draw(json_damage(json.loads(undamaged_artifacts()[name])))


def run_phases(fixture: Path, commands, damage):
    """Exit code, stderr and the output directory's artifacts of running
    `commands` one after another on a copy of `fixture` and its config.json,
    stopping at the first that does not exit 0, and the input and output
    directories. `damage(command, root, out)` is called before each command
    runs."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "in"
        shutil.copytree(fixture, root, ignore=shutil.ignore_patterns("golden"))
        out = Path(scratch) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for command in commands:
                damage(command, root, out)
                code = main([command, "--purpose", str(root / "purpose.json"), "--config", str(root / "config.json"), "--out", str(out)])
                if code:
                    break
        artifacts = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
        return code, err.getvalue(), artifacts, root, out


@functools.cache
def undamaged_artifacts() -> dict:
    """The artifacts of `itelos run` on the undamaged renames fixture."""
    return run_phases(RENAMES, ["run"], lambda *_: None)[2]


def run_damaged(name: str, data: bytes):
    """`run_phases` of `itelos run` on the covid fixture and `written_docs`,
    with `name` replaced by `data`."""

    def damage(command, root, out):
        for written, doc in written_docs(str(root)).items():
            (root / written).write_text(json.dumps(doc), encoding="utf-8")
        (root / name).write_bytes(data.replace(b"{root}", str(root).encode()))

    return run_phases(COVID, ["run"], damage)


def check_run(name: str, data: bytes) -> None:
    code, err, artifacts, root, _ = run_damaged(name, data)
    check_outcome(code, err, artifacts, str(root / name), root)


def check_steps(name: str, data: bytes) -> None:
    """The subcommands one after another, with the artifact `name` replaced by
    `data` just before the phase that reads it back."""

    def damage(command, root, out):
        if command == READ_BACK[name]:
            (out / name).write_bytes(data)

    code, err, artifacts, root, out = run_phases(RENAMES, PHASES, damage)
    check_outcome(code, err, artifacts, str(out / name), root)


def check_outcome(code: int, err: str, artifacts: dict, damaged: str, root: Path) -> None:
    # the override is checked against the purpose's datasets and against the
    # graph modeled from the purpose, the sidecars and the ontologies, so
    # damage to one of those can leave the undamaged override at fault
    blamed = (damaged, str(root / "override.json"))
    assert code in (0, 1, 2), code
    for line in err.splitlines():
        assert any(path in line for path in blamed), f"{line!r} names neither of {blamed}"
    if code == 2:
        assert err
    if "inception.json" in artifacts:
        for failure in json.loads(artifacts["inception.json"])["load_errors"]:
            assert damaged in failure["message"], f"{failure} does not name {damaged}"
    if code == 1 and not err:
        gates = [json.loads(doc) for n, doc in artifacts.items() if n.startswith("eval_") and n.endswith(".json")]
        assert any(gate["verdict"] == "fail" for gate in gates), "exit 1 with no error and no failed gate"
    if code == 0:
        assert schema_violations(artifacts) == []


class TestHostileInputOracle:
    def test_undamaged_inputs_pass(self):
        code, err, artifacts, *_ = run_damaged("override.json", json.dumps(CASES_OVERRIDE).encode())
        assert (code, err) == (0, "")
        assert artifacts["eg.nt"] == (COVID / "golden" / "eg.nt").read_bytes()

    def test_undamaged_steps_give_the_bytes_of_run(self):
        code, err, artifacts, *_ = run_phases(RENAMES, PHASES, lambda *_: None)
        assert (code, err) == (0, "")
        assert {n: a for n, a in artifacts.items() if n != "run_manifest.json"} == {
            n: a for n, a in undamaged_artifacts().items() if n != "run_manifest.json"
        }

    @settings(deadline=None)
    @given(damaged_inputs())
    # three refusals that once named no file: they name the purpose or the sidecar
    @example(edited("purpose.json", lambda doc: doc.pop("ontologies")))
    @example(edited("purpose.json", lambda doc: doc.pop("property_overrides")))
    # a NUL in a dataset path and an unpaired surrogate in a query id once ended in a traceback
    @example(edited("purpose.json", lambda doc: doc["datasets"][1].update(path="data/covid\x00cases.csv")))
    @example(edited("purpose.json", lambda doc: doc["cqs"][0].update(id="\ud800")))
    @example(edited("data/covid_cases.schema.json", lambda doc: doc["columns"][2].update(property=float("nan"))))
    # a header the sidecar does not match: the load failure names the CSV by its full path
    @example(("data/hospitals.csv", b"\x00" + (COVID / "data/hospitals.csv").read_bytes()[1:]))
    # the config lists the override twice: it is read once
    @example(("config.json", b'{"mappings": ["{root}/override.json", "{root}/override.json"]}'))
    # a sidecar that maps no column leaves the override's properties undeclared
    @example(("data/covid_cases.schema.json", b'{"dataset_id": "ds_cases", "etype": "covid_case"}'))
    # a field over the csv module's size limit
    @example(("data/covid_cases.csv", (COVID / "data/covid_cases.csv").read_bytes() + b"C9," + b"9" * 140_000 + b",TN01,1,\n"))
    def test_damaged_input_is_refused_or_run_cleanly(self, damage):
        check_run(*damage)

    @settings(deadline=None)
    @given(damaged_artifacts())
    # a final graph whose subclass edges close a cycle
    @example(("etg_final.json", b'{"id": "g", "meta": {"category": "core"}, "etypes": ["a", "b"], "subclass": [["a", "b"], ["b", "a"]]}'))
    def test_damaged_artifact_is_refused_or_run_cleanly(self, damage):
        check_steps(*damage)
