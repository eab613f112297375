import contextlib
import csv
import functools
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import itelos
from itelos import cli
from itelos.cli import main
from itelos.model import etg_from_doc

from helpers import COVID, RENAMES, scan_exported_graph


def fixture_argv(command, out, *extra):
    return [command, "--purpose", str(COVID / "purpose.json"), "--out", str(out), *extra]


# A mapping override for ds_cases that mirrors its sidecar schema.
CASES_OVERRIDE = {
    "dataset_id": "ds_cases",
    "columns": {
        "case_id": ["covid_case", "case_id"],
        "case_date": ["covid_case", "case_date"],
        "hospital": ["covid_case", "hospital"],
        "patient_count": ["covid_case", "patient_count"],
        "notes": "drop",
    },
    "identity_key": ["case_id"],
}

ARTIFACTS = [
    "inception.json",
    "eval_a.json",
    "eval_a.txt",
    "etg_model.json",
    "etg_model_provenance.json",
    "selection.json",
    "eval_b.json",
    "eval_b.txt",
    "etg_final.json",
    "merge_plan.json",
    "rename_map.json",
    "eval_c.json",
    "eval_c.txt",
    "eg.nt",
    "integration_report.json",
    "eval_d.json",
    "eval_d.txt",
]


# sha256 of every fixture artifact but run_manifest.json (which carries a
# timestamp); the same on every interpreter that requires-python allows.
ARTIFACT_SHA256 = {
    "eg.nt": "087bbecfc61fe145162c0727c16614c2bf228fb1ec899cb457771baea276d2cf",
    "etg_final.json": "e46ceb68dded5a99f3d5a44eaae93f0077a8e039ae9e4daddc318674340a21ea",
    "etg_model.json": "f80b85f64df83f5f562716f9af2468fa6cab3de95cbe03294cd087c7587d2479",
    "etg_model_provenance.json": "d842684982c5df80949418c458fb4035bbe85224e91679397f75c028ef26aa6f",
    "eval_a.json": "0d307e2e6196d07abeb985b9d86ba39aeaae87a1fa714646e651d3f42d8285e1",
    "eval_a.txt": "9562ca5f945dba0df8b86743b99e0176e15ccc8911c2a3db700bb7396cc79fb2",
    "eval_b.json": "bf994c59b1a3452625e12d58d39a97ad5a074c50020a59ac68c5693e732d1f48",
    "eval_b.txt": "d746a87beb10a16bd02989c718b2a841cd95415a4fc818f1246c1ece4e5ff0e0",
    "eval_c.json": "e495afe9442e25b226fe635252ba2bbdd900890a479b093e1304465045086b5e",
    "eval_c.txt": "66282c118cef450d58dfd21f94aa5c6f669e4b249face97f5426d405de10d58e",
    "eval_d.json": "7835677ed27f521ef44cb5e131a680f0a7c374fbdf7d4cc3f7f60dd26bde6c1c",
    "eval_d.txt": "9e5f47fc0d1760b7e45ed0cee17d7e7f842291bc8942fa7424555b7d2aff7227",
    "inception.json": "1261cc26a615b005228a65a57bb95fb8f889e5ce61f2a94faae187fd9bf44680",
    "integration_report.json": "2ef1b8b1b001ac9f179e92440e65ffaae0b49e1f45c3616dc6b6dd48530e3f2c",
    "merge_plan.json": "8d0831612d5870504685a29debccce4b2f77d53d5d416d82fd3b9d546608e545",
    "rename_map.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    "selection.json": "e0e538b48f47c8c46bed1f154d19d574f9db75f6e3e40218ac33730bf69053e2",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_python(*argv):
    """A fresh interpreter that imports this checkout's itelos."""
    src = str(Path(itelos.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# Runs the fixture in a fresh interpreter, optionally with the built-in SHA-256
# modules made unimportable, and prints the manifest's inputs and which of the
# OpenSSL-backed modules the run loaded.
RUN_AND_LIST_MODULES = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from itelos.cli import main
main(["run", "--purpose", sys.argv[2], "--out", sys.argv[3]])
manifest = json.load(open(sys.argv[3] + "/run_manifest.json"))
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps({"inputs": manifest["inputs"], "loaded": loaded}))
"""


class TestRun:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # both cost every run tens of milliseconds of start-up; -S keeps any
        # .pth hook of this interpreter's site-packages from importing them first
        listing = "import sys, itelos.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        result = run_python("-S", "-c", listing)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_full_run_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out)) == 0
        for name in ARTIFACTS + ["run_manifest.json"]:
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        for gate in ("eval_a", "eval_b", "eval_c", "eval_d"):
            assert f"gate: {gate}" in stdout

    def test_ontology_range_keeps_its_name_through_model_renames(self, tmp_path):
        # model aab and aac adopt the labels aaa and aab; the ontology's
        # holder.to ranges over its own aab, which holds x, y and z
        out = tmp_path / "out"
        argv = ["run", "--purpose", str(RENAMES / "purpose.json"), "--config", str(RENAMES / "config.json")]
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "rename_map.json").read_text(encoding="utf-8")) == {"aab": "aaa", "aac": "aab"}
        final = json.loads((out / "etg_final.json").read_text(encoding="utf-8"))
        assert {"name": "to", "kind": "object", "range": "aab"} in final["properties"]["holder"]
        assert [p["name"] for p in final["properties"]["aab"]] == ["x", "y", "z"]

    @pytest.mark.parametrize(
        "respell",
        [lambda k, v: (k, v.upper()), lambda k, v: (f" {k.upper()}", f"{v.title()} ")],
        ids=["values_upper", "keys_and_values"],
    )
    def test_rename_map_is_read_in_final_names(self, tmp_path, respell):
        # a hand-written rename_map.json may spell a name in any form that
        # normalizes to it; integrate gives the bytes of the map as written,
        # for ds_aab through its sidecar and for ds_aac through an override
        # that maps into the model's etype aac
        argv = ["--purpose", str(RENAMES / "purpose.json"), "--config", str(RENAMES / "config.json")]
        written, respelled = tmp_path / "written", tmp_path / "respelled"
        for command in ("inception", "model", "align"):
            assert main([command, *argv, "--out", str(written)]) == 0
        shutil.copytree(written, respelled)
        renames = json.loads((written / "rename_map.json").read_text(encoding="utf-8"))
        assert renames == {"aab": "aaa", "aac": "aab"}
        (respelled / "rename_map.json").write_text(json.dumps(dict(respell(k, v) for k, v in renames.items())))
        override = tmp_path / "ds_aac.json"
        columns = {name: ["aac", name] for name in "xyz"}
        override.write_text(json.dumps({"dataset_id": "ds_aac", "columns": columns, "identity_key": ["x"]}))
        for out in (written, respelled):
            assert main(["integrate", *argv, "--mapping", str(override), "--out", str(out)]) == 0
        for name in ("eg.nt", "integration_report.json", "eval_d.json", "eval_d.txt"):
            assert (written / name).read_bytes() == (respelled / name).read_bytes(), name

    @pytest.mark.parametrize(
        "source", ["fixture", "renames", "link_heavy", "merge_overlap", "ontology_heavy", "bulk_append"]
    )
    def test_run_equals_composed_subcommands(self, source, tmp_path):
        # run holds inception's catalog for the later phases; the subcommands load it again
        _, argv = reuse_input(source, tmp_path / "input", seed=101)
        run_out, step_out = tmp_path / "run", tmp_path / "steps"
        assert main(argv(run_out)) == 0
        for command in ("inception", "model", "align", "integrate"):
            assert main([command, *argv(step_out)[1:]]) == 0
        names = sorted(p.name for p in run_out.iterdir() if p.name != "run_manifest.json")
        assert names == sorted(p.name for p in step_out.iterdir())
        assert set(ARTIFACTS) <= set(names)
        for name in names:
            assert (run_out / name).read_bytes() == (step_out / name).read_bytes(), name

    def test_run_reads_back_only_what_it_wrote(self, tmp_path, monkeypatch):
        # a run reads each ontology and sidecar once, and under --out only the
        # artifacts an earlier phase of the same run wrote, each where its
        # subcommand reads it
        out = tmp_path / "out"
        argv = ["--purpose", str(RENAMES / "purpose.json"), "--config", str(RENAMES / "config.json"), "--out", str(out)]
        events, phase = [], [None]
        for module in (itelos.model, itelos.inception):  # every JSON document goes through read_json
            def counting_read(path, *args, read=module.read_json, **kwargs):
                events.append((phase[0], "read", Path(path)))
                return read(path, *args, **kwargs)

            monkeypatch.setattr(module, "read_json", counting_read)
        for module in (itelos.model, itelos.cli):  # and every JSON artifact through write_json
            def counting_write(path, *args, write=module.write_json, **kwargs):
                events.append((phase[0], "write", Path(path)))
                return write(path, *args, **kwargs)

            monkeypatch.setattr(module, "write_json", counting_write)
        for name, run_phase in itelos.cli._PHASE_FUNCTIONS.items():
            def in_phase(*args, name=name, run_phase=run_phase):
                phase[0] = name
                return run_phase(*args)

            monkeypatch.setitem(itelos.cli._PHASE_FUNCTIONS, name, in_phase)
        assert main(["run", *argv]) == 0
        artifact_reads = {}  # phase -> (artifact, the phases that wrote it before the read)
        for index, (name, kind, path) in enumerate(events):
            if kind == "read" and out in path.parents:
                writers = {e[0] for e in events[:index] if e[1:] == ("write", path)}
                artifact_reads.setdefault(name, []).append((path.name, writers))
        assert artifact_reads == {
            "model": [("selection.json", {"inception"})],
            "align": [("etg_model.json", {"model"}), ("etg_model_provenance.json", {"model"})],
            "integrate": [("etg_final.json", {"align"}), ("rename_map.json", {"align"}), ("selection.json", {"inception"})],
        }
        reads = [path for _, kind, path in events if kind == "read" and out not in path.parents]
        purpose = json.loads((RENAMES / "purpose.json").read_text(encoding="utf-8"))
        inputs = [RENAMES / ref["path"] for ref in purpose["ontologies"]]
        inputs += [(RENAMES / ref["path"]).with_suffix(".schema.json") for ref in purpose["datasets"]]
        settings = (RENAMES / "purpose.json", RENAMES / "config.json")
        assert sorted(inputs) == sorted(path for path in reads if path not in settings)
        # a later integrate reads the artifacts back as before
        events.clear()
        assert main(["integrate", *argv]) == 0
        reads = {path for _, kind, path in events if kind == "read"}
        assert {out / name for name in ("etg_final.json", "rename_map.json", "selection.json")} <= reads

    def test_a_stopped_run_leaves_no_manifest(self, tmp_path, capsys):
        # the manifest of an earlier run into the same directory would claim
        # phases that this run never finished
        root, out = tmp_path / "fixture", tmp_path / "out"
        shutil.copytree(COVID, root)
        argv = ["run", "--purpose", str(root / "purpose.json"), "--out", str(out)]
        assert main(argv) == 0
        assert (out / "run_manifest.json").is_file()
        with (root / "data" / "hospitals.csv").open("a", encoding="utf-8") as rows:
            rows.write("TN99,Extra\n")
        capsys.readouterr()
        assert main(argv) == 1
        assert "line 5: expected 4 fields, got 2" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    def test_a_dirty_output_directory_gives_the_bytes_of_an_empty_one(self, tmp_path):
        # every later phase reads back what an earlier one wrote, so no stale
        # artifact of another purpose's run may reach the output
        dirty, clean = tmp_path / "dirty", tmp_path / "clean"
        renames = ["--purpose", str(RENAMES / "purpose.json"), "--config", str(RENAMES / "config.json")]
        assert main(["run", *renames, "--out", str(dirty)]) == 0
        stale = {p.name: p.read_bytes() for p in dirty.iterdir()}
        for out in (dirty, clean):
            assert main(fixture_argv("run", out)) == 0
        names = sorted(p.name for p in clean.iterdir() if p.name != "run_manifest.json")
        assert names == sorted(p.name for p in dirty.iterdir() if p.name != "run_manifest.json")
        assert set(ARTIFACTS) <= set(names)
        assert any(stale[name] != (clean / name).read_bytes() for name in names)
        for name in names:
            assert (dirty / name).read_bytes() == (clean / name).read_bytes(), name

    def test_each_subcommand_loads_only_the_resources_it_reads(self, tmp_path, monkeypatch):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = json.loads((root / "purpose.json").read_text(encoding="utf-8"))
        purpose["datasets"][1]["category"] = "common"  # so that ds_cases is not selected
        (root / "purpose.json").write_text(json.dumps(purpose), encoding="utf-8")
        loaded, parses = [], []
        collect, parse = itelos.cli.collect_resources, itelos.cli.parse_purpose

        def counting_collect(refs, base_dir):
            loaded.append([ref.meta.id for ref in refs])
            return collect(refs, base_dir)

        def counting_parse(path):
            parses.append(path)
            return parse(path)

        monkeypatch.setattr(itelos.cli, "collect_resources", counting_collect)
        monkeypatch.setattr(itelos.cli, "parse_purpose", counting_parse)
        expected = {
            "inception": [["ds_hospitals", "ds_cases", "onto_upper", "onto_health"]],
            "model": [["ds_hospitals"]],
            "align": [["onto_upper", "onto_health"]],
            "integrate": [["ds_hospitals"]],
        }
        flags = ["--purpose", str(root / "purpose.json"), "--max-per-category", "1", "--no-fail-fast"]
        for command, loads in expected.items():
            loaded.clear()
            main([command, "--out", str(tmp_path / "steps"), *flags])
            assert loaded == loads, command
        selection = json.loads((tmp_path / "steps" / "selection.json").read_text())
        assert selection == {"datasets": ["ds_hospitals"]}
        loaded.clear()
        parses.clear()
        main(["run", "--out", str(tmp_path / "run"), *flags])
        # a run loads once, at inception, and holds the catalog for the later phases
        assert loaded == expected["inception"]
        assert len(parses) == 5

    def test_renames_missing_from_the_etg_flag_graph_name_the_rename_map(self, tmp_path, capsys):
        # the renames align wrote meet --etg's graph, which has no etype aaa,
        # and run refuses them as integrate does, naming the file
        etg = COVID / "ontologies" / "onto_health.json"
        argv = ["--purpose", str(RENAMES / "purpose.json"), "--config", str(RENAMES / "config.json")]
        argv += ["--out", str(tmp_path / "out"), "--etg", str(etg)]
        errors = []
        for command in ("run", "integrate"):
            assert main([command, *argv]) == 1
            errors.append(capsys.readouterr().err.removeprefix(f"{command} error: "))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"{tmp_path / 'out' / 'rename_map.json'}: ")
        assert f"which is not an etype of {etg}" in errors[0]

    def test_manifest_shape(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cov_min": 0.5}))
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--config", str(config))) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tool"].startswith("itelos ")
        assert manifest["phases"] == {
            "inception": "pass",
            "model": "pass",
            "align": "pass",
            "integrate": "pass",
        }
        files = [
            COVID / "purpose.json",
            config,
            COVID / "data" / "hospitals.csv",
            COVID / "data" / "hospitals.schema.json",
            COVID / "data" / "covid_cases.csv",
            COVID / "data" / "covid_cases.schema.json",
            COVID / "ontologies" / "onto_upper.json",
            COVID / "ontologies" / "onto_health.json",
        ]
        assert manifest["inputs"] == {str(path): sha256_of(path) for path in files}

    def test_etg_and_mapping_files_are_hashed(self, tmp_path):
        first = tmp_path / "first"
        assert main(fixture_argv("run", first)) == 0
        override = tmp_path / "ds_cases.json"
        override.write_text(json.dumps(CASES_OVERRIDE))
        etg = first / "etg_final.json"
        out = tmp_path / "out"
        argv = fixture_argv("run", out, "--etg", str(etg), "--mapping", str(override))
        assert main(argv) == 0
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert inputs[str(etg)] == sha256_of(etg)
        assert inputs[str(override)] == sha256_of(override)

    @pytest.mark.parametrize("sha_modules", ["builtin", "blocked"])
    def test_openssl_loaded_only_without_builtin_sha256(self, sha_modules, tmp_path):
        builtin = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
        if sha_modules == "builtin" and not builtin:
            pytest.skip("this interpreter has no built-in SHA-256 module")
        out = tmp_path / "out"
        result = run_python("-c", RUN_AND_LIST_MODULES, sha_modules, COVID / "purpose.json", out)
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen["loaded"] == ([] if sha_modules == "builtin" else ["_hashlib", "hashlib"])
        assert seen["inputs"] and all(
            digest == sha256_of(path) for path, digest in seen["inputs"].items()
        )

    def test_gate_fail_exits_one_and_fail_fast_stops(self, tmp_path):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--cov-min", "0.99")) == 1
        assert (out / "eval_a.json").is_file()
        assert not (out / "eval_b.json").exists()
        assert not (out / "eg.nt").exists()
        report = json.loads((out / "eval_a.json").read_text())
        assert report["verdict"] == "fail"

    def test_no_fail_fast_continues(self, tmp_path):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--cov-min", "0.99", "--no-fail-fast")) == 1
        assert (out / "eval_d.json").is_file()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["phases"]["inception"] == "fail"
        assert manifest["phases"]["integrate"] == "pass"

    def test_warn_still_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--ext-floor", "0.9")) == 0
        assert "verdict: warn" in capsys.readouterr().out

    def test_out_may_name_triples_file(self, tmp_path):
        target = tmp_path / "result" / "graph.nt"
        assert main(fixture_argv("run", target)) == 0
        assert target.is_file()
        assert (tmp_path / "result" / "eval_d.json").is_file()


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic garbage collector switched on or off, and set back after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def integrate_garbage(purpose: Path, out: Path) -> int:
    """The unreachable objects that a collection finds after the integrate
    phase ran on `purpose` with the collector off, after a full run."""
    argv = ["--purpose", str(purpose), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", *argv]) == 0
        config = cli.resolve_config(cli.build_parser().parse_args(["integrate", *argv]))
        with collector(False):
            gc.collect()
            cli.phase_integrate(config)
            return gc.collect()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_leaves_the_callers_setting(self, tmp_path, monkeypatch, capsys, enabled):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        argv = ["run", "--purpose", str(root / "purpose.json"), "--out", str(tmp_path / "out")]
        exporting = []
        export_eg = cli.export_eg
        monkeypatch.setattr(cli, "export_eg", lambda *args: exporting.append(gc.isenabled()) or export_eg(*args))
        with collector(enabled):
            assert main(argv) == 0
            assert gc.isenabled() is enabled
            # integrate stops on a ragged row, inside the pause
            with (root / "data" / "hospitals.csv").open("a", encoding="utf-8") as rows:
                rows.write("TN99,Extra\n")
            assert main(argv) == 1
            assert "line 5: expected 4 fields, got 2" in capsys.readouterr().err
            assert gc.isenabled() is enabled
        assert exporting == [False]
        assert gc.get_freeze_count() == 0

    def test_a_callers_frozen_objects_stay_frozen(self, tmp_path, capsys):
        marker = [[]]  # a container, so the collector tracks it
        gc.freeze()
        try:
            assert main(fixture_argv("run", tmp_path / "out")) == 0
            assert not any(held is marker for held in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(held is marker for held in gc.get_objects())

    def test_integrate_leaves_cyclic_garbage_that_does_not_grow_with_rows(self, tmp_path):
        # the graph holds no cycle, which is why integrate may pause the collector
        larger = tmp_path / "larger"
        shutil.copytree(COVID, larger, ignore=shutil.ignore_patterns("golden"))
        for name in ("hospitals.csv", "covid_cases.csv"):
            path = larger / "data" / name
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            copies = [row.replace("TN0", f"TN{k}").replace("C00", f"C{k}0") for k in range(1, 4) for row in rows]
            path.write_text("\n".join([header, *rows, *copies]) + "\n", encoding="utf-8")
        fixture = integrate_garbage(COVID / "purpose.json", tmp_path / "fixture_out")
        assert fixture == integrate_garbage(larger / "purpose.json", tmp_path / "larger_out")
        graph = (tmp_path / "larger_out" / "eg.nt").read_text(encoding="utf-8")
        assert graph.count("rdf-syntax-ns#type") == 4 * (COVID / "golden" / "eg.nt").read_text().count("rdf-syntax-ns#type")


class TestExitCodes:
    def test_missing_purpose_file(self, tmp_path, capsys):
        code = main(["run", "--purpose", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_no_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_phase_out_of_order(self, tmp_path, capsys):
        assert main(fixture_argv("model", tmp_path / "fresh")) == 1
        assert "run the" in capsys.readouterr().err

    def test_align_out_of_order_names_the_missing_model(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(fixture_argv("align", out)) == 1
        assert capsys.readouterr().err == (
            f"align error: missing artifact {out / 'etg_model.json'}; "
            "run the earlier phases into this output directory first\n"
        )

    def test_integrate_without_etg(self, tmp_path, capsys):
        assert main(fixture_argv("integrate", tmp_path / "fresh")) == 1
        assert "--etg" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "itelos" in capsys.readouterr().out


class TestConfigMerging:
    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"coverage_min": 0.5}))
        code = main(fixture_argv("run", tmp_path / "out", "--config", str(config)))
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_threshold_value(self, tmp_path, capsys):
        code = main(fixture_argv("run", tmp_path / "out", "--cov-min", "1.5"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, config, field",
        [(["--match-threshold", "2"], None, "match_threshold"), ([], {"cov_min": 1.5}, "cov_min")],
    )
    def test_out_of_range_value_names_the_field(self, tmp_path, capsys, flags, config, field):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", str(tmp_path / "cfg.json")]
        assert main(fixture_argv("run", tmp_path / "out", *flags)) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, config, names_file",
        [
            ([], {"cov_min": 1.5}, True),
            (["--cov-min", "1.5"], {"ext_floor": 0.5}, False),
            ([], {"etr_name_weight": -1}, True),
            ([], {"spr_band_min": 0.7}, True),
            (["--spr-band-max", "0.1"], {"spr_band_min": 0.2}, True),
            (["--spr-band-min", "0.7"], {"spr_band_max": 0.9}, False),
            ([], {"max_per_category": 0}, True),
        ],
    )
    def test_failed_check_names_the_file_unless_the_flags_fail_it(
        self, tmp_path, capsys, flags, config, names_file
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = main(fixture_argv("run", tmp_path / "out", *flags, "--config", str(path)))
        err = capsys.readouterr().err
        if names_file:
            assert code == 2
            assert err.startswith(f"config error: {path}: ")
        elif flags[0] == "--cov-min":
            assert code == 2
            assert err == "config error: threshold cov_min must be in [0, 1], got 3/2\n"
        else:
            # the flags alone fail no check, so together with the file they pass
            assert code != 2
            assert "config error" not in err

    def test_flag_beats_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cov_min": 0.99}))
        out = tmp_path / "out"
        argv = fixture_argv("inception", out, "--config", str(config), "--cov-min", "0.5")
        assert main(argv) == 0

    def test_config_applies_without_flag(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cov_min": 0.99}))
        out = tmp_path / "out"
        assert main(fixture_argv("inception", out, "--config", str(config))) == 1

    def test_env_out_fallback(self, tmp_path, monkeypatch):
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("ITELOS_OUT", str(env_out))
        code = main(["inception", "--purpose", str(COVID / "purpose.json")])
        assert code == 0
        assert (env_out / "eval_a.json").is_file()

    def test_flag_beats_env_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ITELOS_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert main(fixture_argv("inception", out)) == 0
        assert (out / "eval_a.json").is_file()
        assert not (tmp_path / "ignored").exists()

    def test_config_out_key(self, tmp_path):
        out = tmp_path / "from_config"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": str(out)}))
        code = main(
            ["inception", "--purpose", str(COVID / "purpose.json"), "--config", str(config)]
        )
        assert code == 0
        assert (out / "eval_a.json").is_file()

    def test_config_fail_fast_false_runs_every_phase(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"fail_fast": False, "cov_min": 0.99}))
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--config", str(config))) == 1
        assert (out / "eval_d.json").is_file()

    @pytest.mark.parametrize("flag", ["--mapping", "--mappings"])
    @pytest.mark.parametrize("form", ["list", "directory"])
    def test_config_mappings_are_read_unless_mapping_flags_are_given(self, tmp_path, capsys, form, flag):
        for name in ("bad", "good"):
            (tmp_path / name).mkdir()
        bad, good = tmp_path / "bad" / "bad.json", tmp_path / "good" / "good.json"
        bad.write_text(json.dumps({**CASES_OVERRIDE, "dataset_id": "ds_hospitalz"}))
        good.write_text(json.dumps(CASES_OVERRIDE))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mappings": [str(bad)] if form == "list" else str(bad.parent)}))
        assert main(fixture_argv("run", tmp_path / "configured", "--config", str(config))) == 1
        assert capsys.readouterr().err == f"run error: {bad}: the purpose has no dataset 'ds_hospitalz'\n"
        flagged = good if flag == "--mapping" else good.parent
        argv = fixture_argv("run", tmp_path / "flagged", "--config", str(config), flag, str(flagged))
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_missing_mappings_directory_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(fixture_argv("run", tmp_path / "out", "--mappings", str(missing))) == 2
        assert capsys.readouterr().err == f"config error: mapping directory {missing} does not exist\n"

    def test_missing_config_mappings_directory_exits_two_naming_the_config(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mappings": str(missing)}))
        assert main(fixture_argv("run", tmp_path / "out", "--config", str(config))) == 2
        assert capsys.readouterr().err == f"config error: {config}: mapping directory {missing} does not exist\n"

    def test_a_mapping_file_given_twice_is_read_once(self, tmp_path, capsys):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(CASES_OVERRIDE))
        argv = fixture_argv("run", tmp_path / "out", "--mapping", str(path), "--mappings", str(tmp_path))
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config_file"])
    def test_unparseable_fraction_exits_two(self, tmp_path, capsys, from_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cov_min": "abc"} if from_file else {}))
        flags = [] if from_file else ["--cov-min", "abc"]
        assert main(fixture_argv("run", tmp_path / "out", *flags, "--config", str(config))) == 2
        err = capsys.readouterr().err
        origin = f"{config}: " if from_file else ""
        assert err.startswith(f"config error: {origin}bad value for cov_min: ")
        assert (str(config) in err) == from_file

    def test_max_per_category_validated(self, tmp_path, capsys):
        code = main(fixture_argv("run", tmp_path / "out", "--max-per-category", "0"))
        assert code == 2
        assert capsys.readouterr().err == "config error: max_per_category must be a positive integer\n"

    def test_max_per_category_caps_the_selection_of_inception(self, tmp_path):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = json.loads((root / "purpose.json").read_text(encoding="utf-8"))
        purpose["datasets"][1]["category"] = "common"
        (root / "purpose.json").write_text(json.dumps(purpose), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["inception", "--purpose", str(root / "purpose.json"), "--out", str(out)]
        assert main(argv + ["--max-per-category", "1"]) == 0
        common = json.loads((out / "inception.json").read_text())["ranking"]["categories"]["common"]
        ranked = [e["id"] for e in common if e["kind"] == "dataset"]
        assert ranked == ["ds_hospitals", "ds_cases"]
        assert json.loads((out / "selection.json").read_text()) == {"datasets": ["ds_hospitals"]}


class TestStandaloneIntegrate:
    def test_integrate_with_explicit_etg(self, tmp_path):
        pipeline_out = tmp_path / "pipeline"
        assert main(fixture_argv("run", pipeline_out)) == 0
        solo_out = tmp_path / "solo"
        code = main(
            fixture_argv(
                "integrate",
                solo_out / "eg.nt",
                "--etg",
                str(pipeline_out / "etg_final.json"),
            )
        )
        assert code == 0
        assert (solo_out / "eg.nt").read_bytes() == (pipeline_out / "eg.nt").read_bytes()

    def test_datasets_dir_override(self, tmp_path):
        moved = tmp_path / "elsewhere"
        (moved / "data").mkdir(parents=True)
        for source in (COVID / "data").iterdir():
            shutil.copy(source, moved / "data" / source.name)
        out = tmp_path / "out"
        code = main(fixture_argv("run", out, "--datasets", str(moved)))
        assert code == 0
        baseline = tmp_path / "baseline"
        assert main(fixture_argv("run", baseline)) == 0
        assert (out / "eg.nt").read_bytes() == (baseline / "eg.nt").read_bytes()

    def test_mapping_override_flag(self, tmp_path):
        out = tmp_path / "out"
        override = tmp_path / "ds_hospitals.json"
        override.write_text(
            json.dumps(
                {
                    "dataset_id": "ds_hospitals",
                    "columns": {
                        "code": ["hospital", "code"],
                        "name": ["hospital", "name"],
                        "beds": "drop",
                        "municipality": "drop",
                    },
                    "identity_key": ["code"],
                }
            )
        )
        code = main(fixture_argv("run", out, "--mapping", str(override)))
        assert code == 1  # dropping beds breaks the capacity query
        report = json.loads((out / "eval_d.json").read_text())
        assert report["verdict"] == "fail"
        failing = [e for e in report["entries"] if e["status"] == "fail"]
        assert any("hospital.beds" in e.get("note", "") for e in failing)

    def test_mappings_directory(self, tmp_path):
        out = tmp_path / "out"
        overrides = tmp_path / "maps"
        overrides.mkdir()
        (overrides / "ds_cases.json").write_text(json.dumps(CASES_OVERRIDE))
        code = main(fixture_argv("run", out, "--mappings", str(overrides)))
        assert code == 0
        baseline = tmp_path / "baseline"
        assert main(fixture_argv("run", baseline)) == 0
        # the override mirrors the sidecar, so the export is unchanged
        assert (out / "eg.nt").read_bytes() == (baseline / "eg.nt").read_bytes()

    @pytest.mark.parametrize(
        "columns, message",
        [
            # a typo must not silently drop the real column as unmentioned
            ({"hospitl": ["covid_case", "hospital"]}, "override column hospitl is not in the header"),
            ({"notes": ["hospital", "name"]}, "column notes mapped into etype hospital"),
            ({"notes": ["covid_case", "notes"]}, "column notes mapped to undeclared property"),
            ({"case_id": "drop"}, "identity column case_id is not mapped to a property"),
        ],
        ids=["column_not_in_header", "wrong_etype", "undeclared_property", "identity_not_mapped"],
    )
    def test_bad_override_names_its_file(self, tmp_path, capsys, columns, message):
        path = tmp_path / "ds_cases.json"
        doc = {**CASES_OVERRIDE, "columns": {**CASES_OVERRIDE["columns"], **columns}}
        path.write_text(json.dumps(doc))
        assert main(fixture_argv("run", tmp_path / "out", "--mapping", str(path))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"run error: {path}: dataset 'ds_cases': {message}")

    @pytest.mark.parametrize(
        "dataset_id, message",
        [
            ("ds_hospitalz", "the purpose has no dataset 'ds_hospitalz'"),
            ("onto_health", "the purpose has no dataset 'onto_health'"),
            (["ds_cases"], "mapping override.dataset_id must be a string, not a list"),
        ],
        ids=["typo", "ontology", "list"],
    )
    def test_override_for_no_purpose_dataset_exits_one(self, tmp_path, capsys, dataset_id, message):
        path = tmp_path / "cases.json"
        path.write_text(json.dumps({**CASES_OVERRIDE, "dataset_id": dataset_id}))
        assert main(fixture_argv("run", tmp_path / "out", "--mapping", str(path))) == 1
        assert capsys.readouterr().err == f"run error: {path}: {message}\n"

    def test_two_overrides_of_one_dataset_exit_one_naming_both(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps(CASES_OVERRIDE))
        second.write_text(json.dumps({**CASES_OVERRIDE, "identity_key": []}))
        argv = fixture_argv("run", tmp_path / "out", "--mapping", str(first), "--mapping", str(second))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"run error: {first} and {second} both override dataset 'ds_cases'\n"

    def test_override_of_an_unselected_purpose_dataset_is_allowed(self, tmp_path, capsys):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = json.loads((root / "purpose.json").read_text(encoding="utf-8"))
        purpose["datasets"][1]["category"] = "common"
        (root / "purpose.json").write_text(json.dumps(purpose), encoding="utf-8")
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(CASES_OVERRIDE))
        out = tmp_path / "out"
        argv = ["run", "--purpose", str(root / "purpose.json"), "--out", str(out)]
        main(argv + ["--max-per-category", "1", "--no-fail-fast", "--mapping", str(path)])
        assert json.loads((out / "selection.json").read_text()) == {"datasets": ["ds_hospitals"]}
        assert (out / "eg.nt").is_file()
        assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(fixture_argv("run", first)) == 0
        assert main(fixture_argv("run", second)) == 0
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_every_artifact_has_its_recorded_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out)) == 0
        assert sorted(ARTIFACT_SHA256) == sorted(ARTIFACTS)
        assert {name: sha256_of(out / name) for name in ARTIFACTS} == ARTIFACT_SHA256

    def test_fixture_reproduces_golden_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out)) == 0
        golden = COVID / "golden" / "integration_report.json"
        assert (out / "integration_report.json").read_bytes() == golden.read_bytes()

    def test_summary_counts_conflicts_and_components(self, tmp_path):
        root = copied_datasets(tmp_path)
        with (root / "data" / "hospitals.csv").open("a", encoding="utf-8") as handle:
            handle.write("TN01,S. Chiara,410,Trento\nTN04,Ospedale di Arco,90,Arco\n")
        out = tmp_path / "out"
        assert main(fixture_argv("run", out, "--datasets", str(root))) == 0
        report = json.loads((out / "integration_report.json").read_text(encoding="utf-8"))
        # tn01 holds two names and two bed counts; tn04 has no cases
        assert report["summary"] == {
            "entities": 8,
            "conflicts": 2,
            "connected_components": 4,
            "unresolved_links": 0,
        }
        assert [case["conflicts"] for case in report["cases"]] == [2, 0]
        assert [case["components_before"] for case in report["cases"]] == [0, 4]

    @pytest.mark.parametrize("source", ["fixture", "renames", "ontology_heavy"])
    def test_own_final_schema_is_a_fixed_point(self, source, tmp_path):
        # align again with the first run's etg_final.json as the most popular
        # ontology: the schema, the renames and the graph stay as they were
        purpose, argv = reuse_input(source, tmp_path / "input")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv(first)) == 0
        doc = json.loads(purpose.read_text(encoding="utf-8"))
        popularity = max(ref.get("popularity", 0) for ref in doc["ontologies"]) + 1
        doc["ontologies"].append(
            {"id": "own_etg", "path": str(first / "etg_final.json"), "category": "common", "popularity": popularity}
        )
        purpose.write_text(json.dumps(doc), encoding="utf-8")
        assert main(argv(second)) == 0
        plan = json.loads((second / "merge_plan.json").read_text(encoding="utf-8"))
        assert plan["ontology_ranking"]["included"][0]["id"] == "own_etg"
        for name in ("etg_final.json", "rename_map.json", "eg.nt", "integration_report.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# tiny sizes of the benchmark's workloads, each a run of well under a second
TINY = {"link_heavy": 6, "merge_overlap": 8, "ontology_heavy": 60, "bulk_append": 20}


def reuse_input(source, root, seed=7):
    """A writable copy of the fixture (`fixture`) or of the renames fixture
    (`renames`), or the tiny corpus of a workload of `perfbench/corpus.py`
    written afresh from `seed`, as its purpose path and a function from an
    out directory to the `run` arguments."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import corpus

    if source in ("fixture", "renames"):
        shutil.copytree(COVID if source == "fixture" else RENAMES, root, ignore=shutil.ignore_patterns("golden"))
    else:
        corpus.generate(COVID, source, seed, root, TINY[source])
    return root / "purpose.json", lambda out: corpus.cli_args(root, out)


def layout_run(source, rewrite=None):
    """Exit code, stdout, stderr and every artifact but `run_manifest.json` of
    `itelos run` on `reuse_input(source, ..., seed=101)`, with the layout
    rewrite of that name applied to the input first."""
    with tempfile.TemporaryDirectory() as scratch:
        _, argv = reuse_input(source, Path(scratch) / "input", seed=101)
        if rewrite is not None:
            LAYOUT_REWRITES[rewrite](Path(scratch) / "input")
        out = Path(scratch) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv(out))
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_manifest.json"}
    return code, stdout.getvalue(), stderr.getvalue(), artifacts


unrewritten_run = functools.cache(layout_run)


def schema_violations(artifacts) -> list[str]:
    """`scan_exported_graph` of a run's `eg.nt` against the `etg_final.json`
    it was integrated against."""
    return scan_exported_graph(artifacts["eg.nt"], etg_from_doc(json.loads(artifacts["etg_final.json"])))


def rewrite_csvs(edit):
    """A layout rewrite that replaces the header and rows of every CSV under
    the input root by `edit(path, header, rows)`."""

    def rewrite(root):
        for path in sorted(root.rglob("*.csv")):
            with path.open(encoding="utf-8", newline="") as handle:
                header, *rows = csv.reader(handle)
            with path.open("w", encoding="utf-8", newline="") as handle:
                csv.writer(handle, lineterminator="\n").writerows(edit(path, header, rows))

    return rewrite


def rewrite_jsons(edit):
    """A layout rewrite that replaces every JSON document under the input root
    by `edit(path, doc, purpose)`, `purpose` being the purpose document."""

    def rewrite(root):
        purpose = json.loads((root / "purpose.json").read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(edit(path.relative_to(root), doc, purpose)), encoding="utf-8")

    return rewrite


def keys_reversed(value):
    if isinstance(value, dict):
        return {key: keys_reversed(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [keys_reversed(item) for item in value]
    return value


def lists_reversed(path, doc, purpose):
    """`doc` with its lists reversed: the purpose's datasets and ontologies, a
    sidecar's columns, and an ontology's etypes, subclass edges and the
    property list of each etype."""
    if path.name == "purpose.json":
        return dict(doc, datasets=doc["datasets"][::-1], ontologies=doc["ontologies"][::-1])
    if path.name.endswith(".schema.json"):
        return dict(doc, columns=doc.get("columns", [])[::-1])
    if str(path) in {ref["path"] for ref in purpose["ontologies"]}:
        properties = {etype: props[::-1] for etype, props in doc.get("properties", {}).items()}
        return dict(doc, etypes=doc["etypes"][::-1], subclass=doc.get("subclass", [])[::-1], properties=properties)
    return doc


def keyed(csv_path) -> bool:
    sidecar = json.loads(csv_path.with_name(f"{csv_path.stem}.schema.json").read_text(encoding="utf-8"))
    return any(column.get("role") == "identity" for column in sidecar.get("columns", []))


def crlf_line_ends(root):
    for path in sorted([*root.rglob("*.csv"), *root.rglob("*.json")]):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


# Rewrites of valid input that change its layout, not its content. Row order
# in a keyless dataset is not one: its rows are numbered in file order.
LAYOUT_REWRITES = {
    "crlf_line_ends": crlf_line_ends,
    "csv_columns_reversed": rewrite_csvs(lambda _path, header, rows: [row[::-1] for row in [header, *rows]]),
    "keyed_rows_shuffled": rewrite_csvs(
        lambda path, header, rows: [header, *(random.Random(path.name).sample(rows, len(rows)) if keyed(path) else rows)]
    ),
    "json_keys_reversed": rewrite_jsons(lambda _path, doc, _purpose: keys_reversed(doc)),
    "json_lists_reversed": rewrite_jsons(lists_reversed),
    "csv_cells_padded": rewrite_csvs(lambda _path, header, rows: [[f" \t{cell}  " for cell in row] for row in [header, *rows]]),
}
LAYOUT_SOURCES = ["fixture", "renames", *TINY]


class TestLayoutRewrites:
    """The same content in another file layout gives the same run: every
    artifact but the manifest, the output and the exit code, checked on the
    fixtures and on a tiny seed-101 corpus of each benchmark workload."""

    @pytest.mark.parametrize("rewrite", sorted(LAYOUT_REWRITES))
    @pytest.mark.parametrize("source", LAYOUT_SOURCES)
    def test_rewrite_leaves_the_run_alone(self, source, rewrite):
        code, _, stderr, artifacts = expected = unrewritten_run(source)
        assert (code, stderr) == (0, "")
        assert schema_violations(artifacts) == []
        assert layout_run(source, rewrite) == expected

    def test_golden_graph_passes_the_schema_oracle(self):
        artifacts = unrewritten_run("fixture")[3]
        assert schema_violations(dict(artifacts, **{"eg.nt": (COVID / "golden" / "eg.nt").read_bytes()})) == []


def damaged_golden_graph(edit) -> bytes:
    """The fixture's golden `eg.nt` with `edit` applied to its list of lines."""
    lines = (COVID / "golden" / "eg.nt").read_text(encoding="utf-8").splitlines()
    return "".join(f"{line}\n" for line in edit(lines)).encode("utf-8")


def replaced(old, new):
    """An edit of a list of lines that replaces the first `old` by `new`."""
    return lambda lines: "\n".join(lines).replace(old, new, 1).split("\n")


EG_IRI = "urn:itelos:covid_19_monitoring_for_trentino-eg"
TYPE_IRI = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"


class TestSchemaOracle:
    """`scan_exported_graph` reports each kind of damage to an exported graph."""

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda lines: [l for l in lines if not l.startswith(f"<{EG_IRI}:ds_hospitals/tn01>")], "which is no subject"),
            (replaced(f"{TYPE_IRI} <urn:itelos:etg:covid_case>", f"{TYPE_IRI} <urn:itelos:etg:ward>"), "not one etype"),
            (lambda lines: [*lines, f"<{EG_IRI}:ds_cases/c001> {TYPE_IRI} <urn:itelos:etg:hospital> ."], "not one etype"),
            (lambda lines: [l for l in lines if TYPE_IRI not in l or "ds_cases/c001" not in l], "not one etype"),
            (replaced("<urn:itelos:etg:case_id>", "<urn:itelos:etg:beds>"), "declares no data property"),
            (replaced(f"<urn:itelos:etg:hospital> <{EG_IRI}:ds_hospitals/tn01>", '<urn:itelos:etg:hospital> "TN01"'), "declares no data property"),
            (replaced('<urn:itelos:etg:case_id> "C001"', f"<urn:itelos:etg:case_id> <{EG_IRI}:ds_cases/c001>"), "declares no object property"),
            (replaced(f"<{EG_IRI}:ds_hospitals/tn01> .", f"<{EG_IRI}:ds_cases/c002> ."), "not a hospital"),
            (replaced("XMLSchema#integer", "XMLSchema#date"), "declared integer"),
            (replaced('"12"^^', '"twelve"^^'), "declared integer"),
        ],
        ids=[
            "link_target_removed", "retyped", "typed_twice", "untyped", "undeclared_predicate",
            "literal_on_link", "link_on_data_property", "link_to_wrong_etype", "wrong_datatype", "bad_lexical_form",
        ],
    )
    def test_damage_is_reported(self, edit, problem):
        problems = schema_violations(dict(unrewritten_run("fixture")[3], **{"eg.nt": damaged_golden_graph(edit)}))
        assert problems and all(problem in p for p in problems), problems


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    return run_python("-m", "itelos.cli", *argv)


def copied_datasets(tmp_path):
    """A copy of the fixture's data directory, for use with --datasets."""
    root = tmp_path / "datasets"
    shutil.copytree(COVID / "data", root / "data")
    return root


class TestHostileInput:
    def test_oversized_field_exits_one(self, tmp_path, capsys):
        root = copied_datasets(tmp_path)
        with (root / "data" / "covid_cases.csv").open("a", encoding="utf-8") as handle:
            handle.write(f"C999,2020-03-09,TN01,1,{'x' * 131073}\n")
        code = main(fixture_argv("run", tmp_path / "out", "--datasets", str(root)))
        assert code == 1
        err = capsys.readouterr().err
        assert "covid_cases.csv: line 6: field larger than field limit" in err

    def test_non_utf8_byte_after_first_chunk_exits_one(self, tmp_path, capsys):
        root = copied_datasets(tmp_path)
        rows = "".join(f"C{n:04d},2020-03-09,TN01,1,\n" for n in range(1000, 1400))
        with (root / "data" / "covid_cases.csv").open("ab") as handle:
            handle.write(rows.encode("utf-8") + b"C9999,2020-03-09,TN01,1,caf\xe9\n")
        assert (root / "data" / "covid_cases.csv").stat().st_size > 8192
        code = main(fixture_argv("run", tmp_path / "out", "--datasets", str(root)))
        assert code == 1
        err = capsys.readouterr().err
        assert "covid_cases.csv: not valid UTF-8" in err

    def test_bom_before_header_changes_nothing(self, tmp_path):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        for path in [*root.glob("data/*"), *root.glob("ontologies/*"), root / "purpose.json"]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        out = tmp_path / "bom"
        assert main(["run", "--purpose", str(root / "purpose.json"), "--out", str(out)]) == 0
        assert (out / "eg.nt").read_bytes() == (COVID / "golden" / "eg.nt").read_bytes()

    def test_load_failure_shows_in_eval_a(self, tmp_path, capsys):
        root = copied_datasets(tmp_path)
        (root / "data" / "covid_cases.csv").write_bytes(b"case_id,case_d\xe9te\nC001,x\n")
        out = tmp_path / "out"
        main(fixture_argv("run", out, "--datasets", str(root)))
        assert "load failure: ds_cases: " in (out / "eval_a.txt").read_text()
        assert "load failure: ds_cases: " in capsys.readouterr().out
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert error["id"] == "ds_cases"

    def test_empty_csv_is_a_load_failure_naming_it(self, tmp_path):
        root = copied_datasets(tmp_path)
        csv_path = root / "data" / "covid_cases.csv"
        csv_path.write_bytes(b"")
        out = tmp_path / "out"
        main(fixture_argv("inception", out, "--datasets", str(root)))
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert error == {
            "id": "ds_cases",
            "path": str(csv_path),
            "message": f"{csv_path}: dataset file has no header row",
        }

    def test_dataset_path_without_file_name_is_hashed_as_missing(self, tmp_path):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = root / "purpose.json"
        doc = json.loads(purpose.read_text(encoding="utf-8"))
        doc["datasets"].append({"id": "ds_root", "path": "/", "category": "contextual"})
        purpose.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        done = run_cli("run", "--purpose", purpose, "--out", out)
        assert "Traceback" not in done.stderr
        inputs = json.loads((out / "run_manifest.json").read_text())["inputs"]
        assert inputs["/"] is None
        sidecars = sorted(p for p in inputs if p.endswith(".schema.json"))
        assert sidecars == [str(root / "data" / n) for n in ("covid_cases.schema.json", "hospitals.schema.json")]

    def test_datasets_directory_name_that_is_not_utf8(self, tmp_path):
        # Python reads the byte 0xFF of a path name as the lone surrogate \udcff
        moved = tmp_path / os.fsdecode(b"moved_\xff")
        shutil.copytree(COVID / "data", moved / "data")
        done = run_cli(*fixture_argv("run", tmp_path / "found", "--datasets", moved))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "found" / "eg.nt").read_bytes() == (COVID / "golden" / "eg.nt").read_bytes()
        # a note repeating the path escapes the byte, as stderr and the JSON artifacts do
        out = tmp_path / "missing"
        done = run_cli(*fixture_argv("run", out, "--datasets", moved / "missing"))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        named = f"{tmp_path}/moved_\\udcff/missing/data/hospitals.schema.json"
        assert named in (out / "eval_a.txt").read_text(encoding="utf-8")
        assert named in done.stdout

    def test_malformed_purpose_exits_one_without_traceback(self, tmp_path):
        purpose = tmp_path / "p.json"
        purpose.write_text(json.dumps({"title": "x"}), encoding="utf-8")
        done = run_cli("run", "--purpose", purpose, "--out", tmp_path / "out")
        assert done.returncode == 1
        assert str(purpose) in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            ("datasets", "", "datasets[1].id must not be empty"),
            ("datasets", ["x"], "datasets[1].id must be a string, not a list"),
            ("datasets", 7, "datasets[1].id must be a string, not an integer"),
            ("ontologies", None, "ontologies[1].id must be a string, not null"),
            ("datasets", " ", "datasets[1].id must not be empty or only whitespace"),
        ],
    )
    def test_bad_resource_id_exits_one_naming_the_file(self, tmp_path, kind, value, message):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = root / "purpose.json"
        doc = json.loads(purpose.read_text(encoding="utf-8"))
        doc[kind][1]["id"] = value
        purpose.write_text(json.dumps(doc), encoding="utf-8")
        done = run_cli("run", "--purpose", purpose, "--out", tmp_path / "out")
        assert done.returncode == 1
        assert f"{purpose}: {message}" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (["title"], None, "title must be a string, not null"),
            (["cqs", 1, "id"], ["x"], "cqs[1].id must be a string, not a list"),
            (["cqs", 1, "id"], " ", "cqs[1].id must not be empty or only whitespace"),
            (["cqs", 1, "etypes", 0], ["hospital"], "cqs[1].etypes[0] must be a string, not a list"),
            (["cqs", 1, "sentence"], 5, "cqs[1].sentence must be a string, not an integer"),
            (["datasets", 0, "path"], None, "datasets[0].path must be a string, not null"),
            (["datasets", 0, "origin"], None, "datasets[0].origin must be a string, not null"),
            (
                ["property_overrides", "hospital.beds", "datatype"], ["integer"],
                "property_overrides['hospital.beds'].datatype must be a string, not a list",
            ),
            (
                ["property_overrides", "Hospital.Beds"], {"kind": "data", "datatype": "string"},
                "property_overrides: 'Hospital.Beds' and 'hospital.beds' both normalize to hospital.beds",
            ),
        ],
        ids=[
            "title_null", "cq_id_list", "cq_id_blank", "cq_etype_list", "cq_sentence_number",
            "dataset_path_null", "dataset_origin_null", "override_datatype_list", "override_keys_alike",
        ],
    )
    def test_purpose_value_of_another_type_exits_one(self, tmp_path, capsys, path, value, message):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        purpose = root / "purpose.json"
        doc = json.loads(purpose.read_text(encoding="utf-8"))
        purpose.write_text(json.dumps(set_in(doc, path, value)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--purpose", str(purpose), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"run error: {purpose}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, path, value, resource_id, message",
        [
            (
                "data/hospitals.schema.json", ["columns", 1, "name"], ["name"], "ds_hospitals",
                "columns[1].name must be a string, not a list",
            ),
            (
                "data/hospitals.schema.json", ["etype"], None, "ds_hospitals",
                "etype must be a string, not null",
            ),
            (
                "ontologies/onto_health.json", ["subclass"], [[["hospital"], "facility"]], "onto_health",
                "onto_health.subclass[0] must be a list of two labels, not [['hospital'], 'facility']",
            ),
            (
                "ontologies/onto_health.json", ["properties", "hospital", 1, "kind"], None, "onto_health",
                "onto_health.properties.hospital[1].kind must be a string, not null",
            ),
            (
                "data/hospitals.schema.json", ["columns", 1], {"name": "Code", "property": "name"},
                "ds_hospitals", "columns[1].name: 'code' and 'Code' both normalize to code",
            ),
            (
                "ontologies/onto_health.json", ["properties", "Hospital"], [], "onto_health",
                "onto_health.properties: 'Hospital' and 'hospital' both normalize to hospital",
            ),
        ],
        ids=[
            "sidecar_name_list", "sidecar_etype_null", "ontology_subclass_nested", "ontology_kind_null",
            "sidecar_names_alike", "ontology_properties_alike",
        ],
    )
    def test_resource_value_of_another_type_is_a_load_failure(
        self, tmp_path, capsys, name, path, value, resource_id, message
    ):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        target = root / name
        doc = json.loads(target.read_text(encoding="utf-8"))
        target.write_text(json.dumps(set_in(doc, path, value)), encoding="utf-8")
        out = tmp_path / "out"
        main(["inception", "--purpose", str(root / "purpose.json"), "--out", str(out)])
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert (error["id"], error["message"]) == (resource_id, f"{target}: {message}")
        note = f"load failure: {resource_id}: {target}: {message}"
        assert note in json.loads((out / "eval_a.json").read_text())["notes"]
        assert note in capsys.readouterr().out

    def test_override_columns_that_normalize_alike_exit_one(self, tmp_path, capsys):
        path = tmp_path / "cases.json"
        columns = {**CASES_OVERRIDE["columns"], "Case ID": ["covid_case", "case_id"]}
        path.write_text(json.dumps({**CASES_OVERRIDE, "columns": columns}))
        assert main(fixture_argv("run", tmp_path / "out", "--mapping", str(path))) == 1
        message = "mapping override.columns: 'case_id' and 'Case ID' both normalize to case_id"
        assert capsys.readouterr().err == f"run error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "meta, message",
        [(5, "onto_health.meta must be an object, not an integer"), (None, "onto_health: missing 'meta'")],
        ids=["number", "missing"],
    )
    def test_ontology_meta_is_checked_though_the_purpose_gives_it(self, tmp_path, meta, message):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        target = root / "ontologies" / "onto_health.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        if meta is None:
            del doc["meta"]
        else:
            doc["meta"] = meta
        target.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        main(["inception", "--purpose", str(root / "purpose.json"), "--out", str(out)])
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert (error["id"], error["message"]) == ("onto_health", f"{target}: {message}")
        note = f"load failure: onto_health: {target}: {message}"
        assert note in json.loads((out / "eval_a.json").read_text())["notes"]

    @pytest.mark.parametrize("phase", ["model", "integrate"])
    @pytest.mark.parametrize("dataset_id", ["onto_health", "ds_nowhere"])
    def test_selection_of_no_purpose_dataset_exits_one(self, tmp_path, phase, dataset_id):
        out = tmp_path / "out"
        assert main(fixture_argv("run", out)) == 0
        (out / "selection.json").write_text(json.dumps({"datasets": ["ds_hospitals", dataset_id]}))
        done = run_cli(phase, "--purpose", COVID / "purpose.json", "--out", out)
        assert done.returncode == 1
        cause = f"datasets[1]: the purpose lists no dataset {dataset_id!r}"
        assert done.stderr == f"{phase} error: {out / 'selection.json'}: {cause}\n"

    def test_sidecar_column_without_name_is_a_load_failure(self, tmp_path, capsys):
        root = copied_datasets(tmp_path)
        sidecar = root / "data" / "hospitals.schema.json"
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        del doc["columns"][0]["name"]
        sidecar.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        main(fixture_argv("inception", out, "--datasets", str(root)))
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert error["id"] == "ds_hospitals"
        assert "hospitals.schema.json: columns[0]: missing 'name'" in error["message"]
        assert "load failure: ds_hospitals: " in (out / "eval_a.txt").read_text()
        assert "load failure: ds_hospitals: " in capsys.readouterr().out

    def test_unloadable_dataset_error_gives_the_cause(self, tmp_path, capsys):
        pipeline_out = tmp_path / "pipeline"
        assert main(fixture_argv("run", pipeline_out)) == 0
        root = copied_datasets(tmp_path)
        (root / "data" / "covid_cases.csv").write_bytes(b"case_id,case_d\xe9te\nC001,x\n")
        capsys.readouterr()
        code = main(
            fixture_argv(
                "integrate",
                tmp_path / "solo",
                "--etg",
                str(pipeline_out / "etg_final.json"),
                "--datasets",
                str(root),
            )
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "selected dataset 'ds_cases' is not loadable" in err
        assert "not valid UTF-8" in err

    def test_dataset_broken_after_inception_stops_model(self, tmp_path, capsys):
        root = copied_datasets(tmp_path)
        out = tmp_path / "out"
        assert main(fixture_argv("inception", out, "--datasets", str(root))) == 0
        (root / "data" / "hospitals.csv").write_bytes(b"code,n\xe9me\nTN01,x\n")
        capsys.readouterr()
        assert main(fixture_argv("model", out, "--datasets", str(root))) == 1
        err = capsys.readouterr().err
        assert "selected dataset 'ds_hospitals' is not loadable: " in err
        assert "not valid UTF-8" in err
        assert not (out / "etg_model.json").exists()

    def test_header_edited_during_run_stops_integrate(self, tmp_path, monkeypatch, capsys):
        # run hands on the sidecar schema loaded at inception; the rows are read
        # when integrate starts, so a header edited after align is refused there
        root = copied_datasets(tmp_path)
        csv_path = root / "data" / "hospitals.csv"
        align = itelos.cli._PHASE_FUNCTIONS["align"]

        def align_then_edit(*args):
            report = align(*args)
            csv_path.write_text(csv_path.read_text(encoding="utf-8").replace("code,name,", "code,label,", 1), encoding="utf-8")
            return report

        monkeypatch.setitem(itelos.cli._PHASE_FUNCTIONS, "align", align_then_edit)
        assert main(fixture_argv("run", tmp_path / "out", "--datasets", str(root))) == 1
        err = capsys.readouterr().err
        assert f"run error: {csv_path}: " in err
        assert "mapped column name is not in the header" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rows, identity, message",
        [
            (
                ["TN01,Alpha,1,Trento", ",Beta,2,Trento", "Row 2,Gamma,3,Trento"],
                ["code"],
                "data rows 2 and 3 both mint ds_hospitals/row_2 from different keys",
            ),
            (
                ["TN01,San Marco,1,Via Roma", "TN02,San,2,Marco Via Roma"],
                ["name", "municipality"],
                "data rows 1 and 2 both mint ds_hospitals/san_marco_via_roma from different keys",
            ),
        ],
        ids=["blank_key_and_key", "composite_parts"],
    )
    def test_two_rows_minting_one_id_exit_one(self, tmp_path, capsys, rows, identity, message):
        root = copied_datasets(tmp_path)
        csv_path = root / "data" / "hospitals.csv"
        csv_path.write_text("code,name,beds,municipality\n" + "".join(f"{row}\n" for row in rows))
        override = tmp_path / "ds_hospitals.json"
        columns = {name: ["hospital", name] for name in ("code", "name", "beds", "municipality")}
        doc = {"dataset_id": "ds_hospitals", "columns": columns, "identity_key": identity}
        override.write_text(json.dumps(doc))
        argv = fixture_argv("run", tmp_path / "out", "--datasets", str(root), "--mapping", str(override))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"run error: {csv_path}: {message}\n"


# (file to break, path inside its JSON document or None to write the value as
# it is, the value or None to delete the file, the resource that fails to
# load, and optionally the whole message). The message of every load failure
# names the file at fault once.
LOAD_FAILURES = {
    "csv_not_utf8": ("data/covid_cases.csv", None, b"case_id,case_d\xe9te\nC001,x\n", "ds_cases"),
    "csv_header_blank": ("data/hospitals.csv", None, b"code,,beds,municipality\n", "ds_hospitals"),
    "csv_header_alike": ("data/hospitals.csv", None, b"code,name,beds,municipality,Name\n", "ds_hospitals"),
    "sidecar_missing": ("data/covid_cases.schema.json", None, None, "ds_cases"),
    "sidecar_column_without_name": (
        "data/hospitals.schema.json", ["columns", 0], {"property": "code"}, "ds_hospitals"
    ),
    "sidecar_two_identities": (
        "data/hospitals.schema.json", ["columns", 1, "role"], "identity", "ds_hospitals"
    ),
    "ontology_etypes_number": ("ontologies/onto_health.json", ["etypes"], 5, "onto_health"),
    "ontology_dangling_subclass": (
        "ontologies/onto_health.json", ["subclass"], [["hospital", "nowhere"]], "onto_health"
    ),
    # the file at fault is the dataset path itself, which names no file
    "dataset_path_without_file_name": (
        "purpose.json", ["datasets", 1, "path"], "/", "ds_cases", "/: the dataset path names no file"
    ),
}


class TestLoadFailureNotes:
    @pytest.mark.parametrize("case", sorted(LOAD_FAILURES))
    def test_note_names_the_file_once(self, case, tmp_path):
        name, path, value, resource_id, *message = LOAD_FAILURES[case]
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        target = root / name
        if value is None:
            target.unlink()
        elif path is None:
            target.write_bytes(value)
        else:
            doc = json.loads(target.read_text(encoding="utf-8"))
            target.write_text(json.dumps(set_in(doc, path, value)), encoding="utf-8")
        out = tmp_path / "out"
        main(["inception", "--purpose", str(root / "purpose.json"), "--out", str(out)])
        notes = json.loads((out / "eval_a.json").read_text())["notes"]
        (note,) = [n for n in notes if n.startswith("load failure: ")]
        if message:
            assert note == f"load failure: {resource_id}: {message[0]}"
        else:
            assert note.startswith(f"load failure: {resource_id}: ")
            assert note.count(str(target)) == 1

    def test_invalid_ontology_lists_every_violation(self, tmp_path):
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        target = root / "ontologies" / "onto_health.json"
        doc = json.loads(target.read_text(encoding="utf-8"))
        doc["properties"]["hospital"].append({"name": "part_of", "kind": "object", "range": "ghost"})
        doc["subclass"].append(["facility", "hospital"])
        target.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        main(["inception", "--purpose", str(root / "purpose.json"), "--out", str(out)])
        (error,) = json.loads((out / "inception.json").read_text())["load_errors"]
        assert error["message"] == (
            f"{target}: invalid schema graph: "
            "dangling_range: object property hospital.part_of targets unknown etype ghost; "
            "subclass_cycle: subclass edge (facility, hospital) lies on a cycle; "
            "subclass_cycle: subclass edge (hospital, facility) lies on a cycle"
        )


def set_in(doc, path, value):
    """`doc` with the value at `path` (a list of keys and indexes) replaced."""
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


# A JSON document with a byte that is not UTF-8.
NOT_UTF8 = b'{"name": "caf\xe9"}'

# (phase to run, file to write: a fixture file or out/<artifact>, path inside
# it or None for the whole document, the value written there (bytes are
# written as they are), the exit code expected). The out directory starts as
# a copy of a full run's artifacts.
WRONG_SHAPES = {
    "sidecar_number": ("integrate", "data/hospitals.schema.json", None, 5, 1),
    "sidecar_list": ("integrate", "data/hospitals.schema.json", None, ["etype"], 1),
    "sidecar_not_utf8": ("integrate", "data/hospitals.schema.json", None, NOT_UTF8, 1),
    "cq_number": ("integrate", "purpose.json", ["cqs", 0], 5, 1),
    "overrides_list": ("integrate", "purpose.json", ["property_overrides"], [], 1),
    "override_spec_string": (
        "integrate", "purpose.json", ["property_overrides", "hospital.beds"], "integer", 1
    ),
    "cq_pair_of_one": ("integrate", "purpose.json", ["cqs", 0, "properties", 0], ["a"], 1),
    "dataset_id_with_slash": ("integrate", "purpose.json", ["datasets", 0, "id"], "a/b", 1),
    "purpose_not_utf8": ("integrate", "purpose.json", None, NOT_UTF8, 1),
    "mapping_number": ("integrate", "mapping.json", None, 5, 1),
    "mapping_list": ("integrate", "mapping.json", None, ["dataset_id"], 1),
    "mapping_not_utf8": ("integrate", "mapping.json", None, NOT_UTF8, 1),
    "config_count_text": ("integrate", "config.json", None, {"max_per_category": "two"}, 2),
    "config_flag_text": ("integrate", "config.json", None, {"fail_fast": "false"}, 2),
    "config_out_number": ("integrate", "config.json", None, {"out": 5}, 2),
    "config_mapping_number": ("integrate", "config.json", None, {"mappings": ["a.json", 5]}, 2),
    "config_fraction_list": ("integrate", "config.json", None, {"cov_min": [1]}, 2),
    "config_not_utf8": ("integrate", "config.json", None, NOT_UTF8, 2),
    # neither a NUL nor an unpaired surrogate reaches a path or a report
    "dataset_path_nul": ("run", "purpose.json", ["datasets", 1, "path"], "data/covid\u0000cases.csv", 1),
    "cq_id_surrogate": ("run", "purpose.json", ["cqs", 0, "id"], "\ud800", 1),
    "config_datasets_nul": ("integrate", "config.json", None, {"datasets": "d\u0000x"}, 2),
    # an ontology that cannot be read is a load failure in the eval_a report
    "ontology_etypes_number": ("inception", "ontologies/onto_health.json", ["etypes"], 5, 0),
    "etg_not_utf8": ("integrate", "out/etg_final.json", None, NOT_UTF8, 1),
    "etg_etypes_number": ("integrate", "out/etg_final.json", ["etypes"], 5, 1),
    "etg_properties_list": ("integrate", "out/etg_final.json", ["properties"], [], 1),
    "etg_property_number": ("integrate", "out/etg_final.json", ["properties", "hospital", 0], 5, 1),
    "etg_property_list_number": ("integrate", "out/etg_final.json", ["properties", "hospital"], 5, 1),
    "etg_subclass_of_one": ("integrate", "out/etg_final.json", ["subclass"], [[1]], 1),
    "etg_model_meta_number": ("align", "out/etg_model.json", ["meta"], 5, 1),
    "etg_popularity_text": ("integrate", "out/etg_final.json", ["meta", "popularity"], "x", 1),
    "model_selection_not_utf8": ("model", "out/selection.json", None, NOT_UTF8, 1),
    "model_selection_list": ("model", "out/selection.json", None, [], 1),
    "model_selection_empty": ("model", "out/selection.json", None, {}, 1),
    "model_selection_datasets_number": ("model", "out/selection.json", ["datasets"], 5, 1),
    "model_selection_entry_number": ("model", "out/selection.json", ["datasets", 0], 5, 1),
    "provenance_list": ("align", "out/etg_model_provenance.json", None, [], 1),
    "provenance_table_number": ("align", "out/etg_model_provenance.json", ["provenance"], 5, 1),
    "rename_map_list": ("integrate", "out/rename_map.json", None, [], 1),
    "selection_empty": ("integrate", "out/selection.json", None, {}, 1),
    "selection_datasets_number": ("integrate", "out/selection.json", ["datasets"], 5, 1),
    "selection_entry_number": ("integrate", "out/selection.json", ["datasets", 0], 5, 1),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The artifacts of one full run on the fixture."""
    out = tmp_path_factory.mktemp("pipeline")
    assert main(fixture_argv("run", out)) == 0
    return out


class TestWrongShapes:
    @pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
    def test_wrong_shape_names_the_file(self, case, pipeline, tmp_path):
        phase, name, path, value, code = WRONG_SHAPES[case]
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        shutil.copytree(pipeline, root / "out")
        target = root / name
        if isinstance(value, bytes):
            target.write_bytes(value)
        else:
            doc = json.loads(target.read_text(encoding="utf-8")) if target.exists() else None
            target.write_text(json.dumps(value if path is None else set_in(doc, path, value)))
        argv = [phase, "--purpose", root / "purpose.json", "--out", root / "out"]
        if phase == "integrate":
            argv += ["--etg", root / "out" / "etg_final.json"]
        if name == "mapping.json":
            argv += ["--mapping", target]
        if name == "config.json":
            argv += ["--config", target]
        done = run_cli(*argv)
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        # a failed phase says why on stderr; a load failure is a gate note
        assert str(target) in (done.stderr if code else done.stdout)


# (file to edit or None, path inside its JSON document, the value written
# there or None to delete that top-level key, the command and its flags, the
# file the refusal must name, the dataset it must name or None).
REFUSALS = {
    "no_ontologies": ("purpose.json", ["ontologies"], [], ["run"], "purpose.json", None),
    "no_property_overrides": (
        "purpose.json", ["property_overrides"], None, ["run"], "purpose.json", "ds_cases"
    ),
    "link_column_nan": (
        "data/covid_cases.schema.json", ["columns", 2, "property"], "NaN",
        ["run", "--no-fail-fast"], "purpose.json", "ds_cases",
    ),
    "integrate_etg_without_override": (
        None, None, None, ["integrate", "--etg", "ontologies/onto_health.json"],
        "data/hospitals.schema.json", None,
    ),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal_names_the_file(self, case, tmp_path):
        name, path, value, (command, *flags), named, dataset_id = REFUSALS[case]
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        if name is not None:
            target = root / name
            doc = json.loads(target.read_text(encoding="utf-8"))
            if value is None:
                (key,) = path
                del doc[key]
            else:
                set_in(doc, path, value)
            target.write_text(json.dumps(doc), encoding="utf-8")
        flags = [root / flag if flag.endswith(".json") else flag for flag in flags]
        done = run_cli(command, "--purpose", root / "purpose.json", "--out", root / "out", *flags)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"{command} error: {root / named}: ")
        if dataset_id is not None:
            assert f"dataset {dataset_id!r}" in done.stderr


def add_cycle(graph):
    graph["subclass"].append(["facility", "hospital"])


def duplicate_property(graph):
    graph["properties"]["hospital"].append(graph["properties"]["hospital"][0])


def add_located_in(ontology):
    ontology["etypes"].append("municipality")
    ontology["properties"]["facility"].append({"name": "located_in", "kind": "object", "range": "municipality"})


# (file to damage: a fixture file, override.json (CASES_OVERRIDE), g.json (a
# copy of the final graph) or out/<artifact> of a full run; the edit to its
# JSON document; the command that reads it back and its flags). Each damage
# used to be accepted, or refused with a message that named no file or
# another one.
READ_BACK = {
    "etg_flag_cycle": ("g.json", add_cycle, ["integrate", "--etg", "g.json"]),
    "final_cycle": ("out/etg_final.json", add_cycle, ["integrate"]),
    "final_duplicate_property": ("out/etg_final.json", duplicate_property, ["integrate"]),
    "final_unknown_etype_properties": (
        "out/etg_final.json", lambda g: g["properties"].update(ghost=[{"name": "x"}]), ["integrate"]
    ),
    "final_dangling_subclass": ("out/etg_final.json", lambda g: g["subclass"].append(["hospital", "ghost"]), ["integrate"]),
    "model_duplicate_property": ("out/etg_model.json", duplicate_property, ["align"]),
    "provenance_unknown_source": (
        "out/etg_model_provenance.json", lambda d: d["provenance"].update(hospital="whatever"), ["align"]
    ),
    "provenance_unknown_etype_category": (
        "out/etg_model_provenance.json", lambda d: d["etype_categories"].update(ghost="core"), ["align"]
    ),
    "provenance_unknown_category": (
        "out/etg_model_provenance.json", lambda d: d["etype_categories"].update(hospital="bogus"), ["align"]
    ),
    "provenance_missing_category": (
        "out/etg_model_provenance.json", lambda d: d["etype_categories"].pop("hospital"), ["align"]
    ),
    "provenance_unknown_property": (
        "out/etg_model_provenance.json", lambda d: d["provenance"].update({"ghost.prop": "from_cq"}), ["align"]
    ),
    "rename_map_unknown_etype": ("out/rename_map.json", lambda d: d.update(hospital="ghost"), ["integrate"]),
    "rename_map_keys_alike": (
        "out/rename_map.json", lambda d: d.update({"Hospital": "hospital", "HOSPITAL": "hospital"}), ["integrate"]
    ),
    "selection_unknown_dataset": ("out/selection.json", lambda d: d["datasets"].append("ds_ghost"), ["model"]),
    "selection_duplicate_dataset": ("out/selection.json", lambda d: d["datasets"].append("ds_hospitals"), ["model"]),
    "ontology_range_left_out": ("ontologies/onto_health.json", add_located_in, ["align"]),
    "override_unknown_key": (
        "override.json",
        lambda d: d.update(identity=d.pop("identity_key")),
        ["integrate", "--mapping", "override.json"],
    ),
}


class TestReadBackRefusals:
    @pytest.mark.parametrize("case", sorted(READ_BACK))
    def test_refusal_names_the_damaged_file(self, case, pipeline, tmp_path, capsys):
        name, edit, (command, *flags) = READ_BACK[case]
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        shutil.copytree(pipeline, root / "out")
        shutil.copy(root / "out" / "etg_final.json", root / "g.json")
        (root / "override.json").write_text(json.dumps(CASES_OVERRIDE), encoding="utf-8")
        target = root / name
        doc = json.loads(target.read_text(encoding="utf-8"))
        edit(doc)
        target.write_text(json.dumps(doc), encoding="utf-8")
        flags = [str(root / flag) if flag.endswith(".json") else flag for flag in flags]
        code = main([command, "--purpose", str(root / "purpose.json"), "--out", str(root / "out"), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"{command} error: {target}: "), err

    def test_subclass_cycle_joined_from_two_ontologies_names_both(self, pipeline, tmp_path, capsys):
        # onto_upper, ranked first, now gives covid_case < facility < hospital,
        # and covid_case adopts it; hospital adopts onto_health's hospital < facility
        root = tmp_path / "fixture"
        shutil.copytree(COVID, root)
        shutil.copytree(pipeline, root / "out")
        upper, health = root / "ontologies" / "onto_upper.json", root / "ontologies" / "onto_health.json"
        doc = json.loads(upper.read_text(encoding="utf-8"))
        doc["etypes"] += ["covid_case", "facility", "hospital"]
        doc["properties"]["covid_case"] = [{"name": n} for n in ("case_id", "case_date", "hospital", "patient_count")]
        doc["subclass"] += [["covid_case", "facility"], ["facility", "hospital"]]
        upper.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["align", "--purpose", str(root / "purpose.json"), "--out", str(root / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(
            f"align error: {upper}, {health}: joining the subclass edges of onto_upper, onto_health "
            "gives an invalid schema graph: subclass_cycle: "
        ), err
