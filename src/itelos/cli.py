"""Command line front end.

One subcommand per phase plus `run` for the whole pipeline. Every phase writes
its artifacts to the output directory. A subcommand reads its inputs, and the
artifacts of the phases before it, from files, so a user may edit them between
phases. `run` loads each input once, at inception, and hands what one phase
loaded or built to the later ones in memory (a `Handoff`), so it reads back
nothing it wrote. Both routes give byte-identical artifacts (the run
manifest, which carries timestamps, is the one exception).

Exit codes: 0 all gates passed (warnings allowed), 1 a gate failed or a phase
errored, 2 the invocation or configuration was unusable.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Sequence

# CPython's built-in SHA-256 gives the same digests as hashlib's without
# loading OpenSSL's libcrypto, a few MiB of every run's peak RSS; the module
# is _sha2 from 3.12 on and _sha256 before. hashlib stays the fallback for a
# build without either.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .alignment import (
    AlignmentPolicy,
    OntologyConflictError,
    etr_predict,
    eval_alignment,
    generate_etg,
    plan_to_json,
    rank_ontologies,
)
from .inception import (
    Purpose,
    ResourceCatalog,
    ResourceRef,
    collect_resources,
    eval_inception,
    inception_to_json,
    match_resources,
    parse_purpose,
    select_datasets,
    sidecar_schema_path,
)
from .integration import (
    _GraphBuilder,
    connected_components,  # unused here: perfbench/tracing.py wraps this name
    eval_purpose,
    export_eg,
    infer_mapping,
    initial_state,
    override_from_doc,
    read_dataset_rows,
)
from .metrics import GateReport, MetricError, Thresholds, as_fraction
from .model import ETG, DatasetSchema, ModelError, NotInGraphError, dump_etg, etg_from_doc, expect_json, field, load_etg, normalize_text, read_document, unique_key, validate_eg, write_json  # validate_eg is unused here: perfbench/tracing.py wraps this name
from .modeling import ETGModel, build_etg_model, eval_modeling, model_from_docs, provenance_to_json

PHASES = ("inception", "model", "align", "integrate")


class ConfigError(ValueError):
    """The invocation cannot be turned into a usable configuration."""


class PhaseError(RuntimeError):
    """A phase could not run to completion."""


class Handoff:
    """What the phases of one `run` have loaded or built for the later ones.
    Each field is None until its phase sets it; `phase_align` drops the
    ontologies and the model, which nothing after it reads."""

    __slots__ = ("catalog", "selection", "model", "final", "rename_map")

    def __init__(self) -> None:
        self.catalog: ResourceCatalog | None = None  # inception's, every resource of the purpose
        self.selection: list[str] | None = None  # as selection.json lists it
        self.model: ETGModel | None = None
        self.final: ETG | None = None  # the graph dumped to etg_final.json
        self.rename_map: dict[str, str] | None = None  # the document of rename_map.json


class PipelineConfig(NamedTuple):
    purpose: Path
    out: Path
    thresholds: Thresholds
    policy: AlignmentPolicy
    max_per_category: int | None = None
    fail_fast: bool = True
    mappings: tuple[Path, ...] = ()
    etg: Path | None = None
    datasets_dir: Path | None = None
    config_file: Path | None = None

    @property
    def base_dir(self) -> Path:
        return self.purpose.parent


# The JSON type of each config key that is neither a threshold or policy
# field (those go through as_fraction) nor "mappings"; null leaves a key unset.
_CONFIG_TYPES = {"out": str, "max_per_category": int, "fail_fast": bool, "etg": str, "datasets": str}
_FRACTION_KEYS = [*Thresholds._fields, *AlignmentPolicy._fields]
_CONFIG_KEYS = {*_CONFIG_TYPES, *_FRACTION_KEYS, "mappings"}


def _checked_config(doc: dict) -> dict:
    """`doc`, the config file's object, once each key is known and of its JSON type."""
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, kind in _CONFIG_TYPES.items():
        field(doc, key, "", kind, None, ConfigError)
    listed = doc.get("mappings")
    if isinstance(listed, list):
        for index, item in enumerate(listed):
            expect_json(item, str, f"mappings[{index}]", ConfigError)
    else:
        field(doc, "mappings", "", str, None, ConfigError)
    return doc


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge flags, the optional config file, and the environment.

    Flags win over the config file; ITELOS_OUT is consulted for the output
    directory only, after both.
    """
    file_cfg = {}
    config_path = Path(args.config) if args.config is not None else None
    if config_path is not None:
        file_cfg = read_document(config_path, "config file", _checked_config, ConfigError)

    def pick(flag_value, key):
        return flag_value if flag_value is not None else file_cfg.get(key)

    purpose = Path(args.purpose)
    if not purpose.is_file():
        raise ConfigError(f"purpose file {purpose} does not exist")
    out = pick(args.out, "out") or os.environ.get("ITELOS_OUT") or "out"

    def with_fractions(record):
        """`record` with each field its flag or config key (both named after the
        field) sets, built so that its checks run; a bad value from the file
        names it, and so does a failed check that the flags alone pass."""
        values = {}
        for name in record._fields:
            flag_value = getattr(args, name)
            value = pick(flag_value, name)
            if value is None:
                continue
            try:
                values[name] = as_fraction(value)
            except (MetricError, ValueError, ZeroDivisionError) as exc:
                origin = "" if flag_value is not None else f"{config_path}: "
                raise ConfigError(f"{origin}bad value for {name}: {exc}") from exc
        try:
            return record(**values)
        except MetricError as exc:
            error = exc
        try:
            record(**{name: v for name, v in values.items() if getattr(args, name) is not None})
        except MetricError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"{config_path}: {error}") from error

    thresholds = with_fractions(Thresholds)
    policy = with_fractions(AlignmentPolicy)

    max_per_category = pick(args.max_per_category, "max_per_category")
    if max_per_category is not None and max_per_category < 1:
        origin = "" if args.max_per_category is not None else f"{config_path}: "
        raise ConfigError(f"{origin}max_per_category must be a positive integer")
    fail_fast = pick(args.fail_fast, "fail_fast")
    # --mapping names override files one by one and --mappings a directory of
    # them; the config's "mappings", a list of files or a directory, counts
    # only when neither flag is given.
    mappings = [Path(m) for m in args.mapping or []]
    mappings_dir = args.mappings
    if not mappings and mappings_dir is None:
        configured = file_cfg.get("mappings")
        if isinstance(configured, list):
            mappings = [Path(m) for m in configured]
        else:
            mappings_dir = configured
    if mappings_dir is not None:
        directory = Path(mappings_dir)
        if not directory.is_dir():
            origin = "" if args.mappings is not None else f"{config_path}: "
            raise ConfigError(f"{origin}mapping directory {directory} does not exist")
        mappings.extend(sorted(directory.glob("*.json")))
    etg = pick(args.etg, "etg")
    datasets_dir = pick(args.datasets, "datasets")
    return PipelineConfig(
        purpose=purpose,
        out=Path(out),
        thresholds=thresholds,
        policy=policy,
        max_per_category=max_per_category,
        fail_fast=True if fail_fast is None else fail_fast,
        mappings=tuple(dict.fromkeys(mappings)),  # a file given twice is read once
        etg=Path(etg) if etg is not None else None,
        datasets_dir=Path(datasets_dir).absolute() if datasets_dir is not None else None,
        config_file=config_path,
    )


def _write_gate(out: Path, report: GateReport) -> None:
    write_json(out / f"{report.gate}.json", report.to_json())
    (out / f"{report.gate}.txt").write_text(report.to_text(), encoding="utf-8")


def _in_file(path: Path, step, *args, **kwargs):
    """`step(*args, **kwargs)`; a ModelError it raises stops the phase with a
    PhaseError naming `path`, the file to fix."""
    try:
        return step(*args, **kwargs)
    except ModelError as exc:
        raise PhaseError(f"{path}: {exc}") from exc


def _against(graph: Path | str, check, *args, **kwargs):
    """`check(*args, **kwargs)`, which checks a document against the schema
    graph that `graph` describes by its path. When the graph lacks what the
    document names, either file may be at fault, so the error names the
    graph too."""
    try:
        return check(*args, **kwargs)
    except NotInGraphError as exc:
        raise NotInGraphError(f"{exc} (schema graph {graph})") from exc


def _read_artifact(out: Path, name: str, parse):
    """`parse` applied to the artifact an earlier phase wrote to `out / name`."""
    path = out / name
    if not path.is_file():
        raise PhaseError(
            f"missing artifact {path}; run the earlier phases into this output directory first"
        )
    return read_document(path, "artifact", parse, PhaseError)


def _read_selection(out: Path, purpose: Purpose, run: Handoff | None) -> list[str]:
    """The dataset ids in integration order, as the inception phase wrote
    them to `out / selection.json`; each must be a dataset of `purpose`,
    listed once. In a run, the list inception handed on."""
    if run is not None:
        return run.selection
    dataset_ids = {ref.meta.id for ref in purpose.dataset_refs}

    def parse(doc) -> list[str]:
        listed = field(doc, "datasets", "", list)
        for index, item in enumerate(listed):
            if expect_json(item, str, f"datasets[{index}]") not in dataset_ids:
                raise PhaseError(f"datasets[{index}]: the purpose lists no dataset {item!r}")
            if listed.index(item) != index:
                raise PhaseError(f"datasets[{index}]: dataset {item!r} is listed twice")
        return listed

    return _read_artifact(out, "selection.json", parse)


def _selected_schemas(
    config: PipelineConfig, purpose: Purpose, selection: list[str], run: Handoff | None
) -> list[tuple[ResourceRef, DatasetSchema]]:
    """Each selected dataset's ref and schema, in selection order, loading only
    these. One that no longer loads stops the phase with the cause, so no
    phase drops a dataset that inception selected."""
    refs = {ref.meta.id: ref for ref in purpose.dataset_refs}
    catalog = _load(config, [refs[dataset_id] for dataset_id in selection], run)
    for dataset_id in selection:
        if dataset_id not in catalog.datasets:
            cause = "".join(f": {e.message}" for e in catalog.errors if e.resource_id == dataset_id)
            raise PhaseError(f"selected dataset {dataset_id!r} is not loadable{cause}")
    return [(refs[dataset_id], catalog.datasets[dataset_id]) for dataset_id in selection]


def _out_dirs(config: PipelineConfig) -> tuple[Path, Path]:
    """Artifact directory and triples path; --out may name eg.nt directly."""
    if config.out.suffix == ".nt":
        return config.out.parent, config.out
    return config.out, config.out / "eg.nt"


def _resource_path(config: PipelineConfig, ref: ResourceRef) -> Path:
    """Where the run reads `ref`'s file: under --datasets for a dataset when
    it is given, else relative to the purpose file."""
    if config.datasets_dir is not None and ref.meta.kind == "dataset":
        return config.datasets_dir / ref.path
    return config.base_dir / ref.path


def _load(config: PipelineConfig, refs: Sequence[ResourceRef], run: Handoff | None = None) -> ResourceCatalog:
    """The resources `refs` name, each read from its `_resource_path`; in a
    run, taken from the catalog inception loaded, which holds them all."""
    if run is not None:
        ids = {ref.meta.id for ref in refs}
        held = run.catalog
        return ResourceCatalog(
            datasets={i: schema for i, schema in held.datasets.items() if i in ids},
            ontologies={i: etg for i, etg in held.ontologies.items() if i in ids},
            errors=tuple(e for e in held.errors if e.resource_id in ids),
        )
    resolved = [ref._replace(path=str(_resource_path(config, ref))) for ref in refs]
    return collect_resources(resolved, Path())  # the paths are resolved already


def phase_inception(config: PipelineConfig, run: Handoff | None = None) -> GateReport:
    """Rank the resources and gate on coverage (eval_a); write `inception.json`
    and `selection.json`, the datasets to integrate in order."""
    purpose = parse_purpose(config.purpose)
    catalog = _load(config, purpose.dataset_refs + purpose.ontology_refs)
    ranking = match_resources(purpose.cqs, catalog)
    report = eval_inception(purpose.cqs, ranking, config.thresholds, catalog.errors)
    out, _ = _out_dirs(config)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "inception.json", inception_to_json(purpose, ranking, catalog.errors))
    selection = select_datasets(ranking, config.max_per_category)
    write_json(out / "selection.json", {"datasets": selection})
    _write_gate(out, report)
    if run is not None:
        run.catalog, run.selection = catalog, selection
    return report


def phase_model(config: PipelineConfig, run: Handoff | None = None) -> GateReport:
    """Model the queries and the datasets in `selection.json` and gate on
    extensiveness (eval_b); write `etg_model.json` and its provenance."""
    purpose = parse_purpose(config.purpose)
    out, _ = _out_dirs(config)
    selection = _read_selection(out, purpose, run)
    schemas = [schema for _, schema in _selected_schemas(config, purpose, selection, run)]
    model = _in_file(
        config.purpose, build_etg_model, purpose.cqs, schemas, purpose.property_overrides,
        base_id=purpose.slug,
    )
    if run is not None:
        run.model = model
    dump_etg(model.etg, out / "etg_model.json")
    write_json(out / "etg_model_provenance.json", provenance_to_json(model))
    report = eval_modeling(purpose.cqs, model, config.thresholds)
    _write_gate(out, report)
    return report


def phase_align(config: PipelineConfig, run: Handoff | None = None) -> GateReport:
    """Align the model with the ontologies and gate on sparsity (eval_c); write
    `etg_final.json`, `merge_plan.json` and `rename_map.json`."""
    purpose = parse_purpose(config.purpose)
    out, _ = _out_dirs(config)
    out.mkdir(parents=True, exist_ok=True)
    if run is not None:
        model = run.model
    else:
        model_path = out / "etg_model.json"
        etg = _read_artifact(out, "etg_model.json", etg_from_doc)
        model = _read_artifact(out, "etg_model_provenance.json", lambda doc: _against(model_path, model_from_docs, etg, doc))
    ontologies = _load(config, purpose.ontology_refs, run).ontologies
    ranking = _in_file(config.purpose, rank_ontologies, model, ontologies)
    predictions = {
        entry.ontology_id: etr_predict(model, ontologies[entry.ontology_id], config.policy)
        for entry in ranking.included
    }
    try:
        final, plan = generate_etg(model, predictions, ranking, ontologies, config.policy)
    except OntologyConflictError as exc:
        refs = {ref.meta.id: ref for ref in purpose.ontology_refs}
        paths = ", ".join(str(_resource_path(config, refs[oid])) for oid in exc.ontology_ids)
        raise PhaseError(f"{paths}: {exc}") from exc
    dump_etg(final, out / "etg_final.json")
    write_json(out / "merge_plan.json", plan_to_json(plan))
    write_json(out / "rename_map.json", plan.rename_map)
    report = eval_alignment(final, ranking, ontologies, config.thresholds)
    _write_gate(out, report)
    if run is not None:
        run.final, run.rename_map = final, plan.rename_map
        run.model, run.catalog = None, run.catalog._replace(ontologies={})
    return report


def phase_integrate(config: PipelineConfig, run: Handoff | None = None) -> GateReport:
    """Integrate the datasets in `selection.json` order (purpose order without
    it) into `eg.nt` and gate on coverage (eval_d) with `integration_report.json`."""
    purpose = parse_purpose(config.purpose)
    out, triples_path = _out_dirs(config)
    out.mkdir(parents=True, exist_ok=True)
    etg_path = config.etg if config.etg is not None else out / "etg_final.json"
    if run is not None and config.etg is None:
        etg = run.final
    elif etg_path.is_file():
        etg = load_etg(etg_path)
    else:
        raise PhaseError(
            f"missing schema graph {etg_path}; run the align phase first or pass --etg"
        )

    def renames(doc) -> dict[str, str]:  # in final names: keys and values normalized
        renamed, seen = {}, {}
        for raw in doc:
            new = field(doc, raw, "")
            if normalize_text(new) not in etg.etypes:
                raise PhaseError(f"{raw} is renamed to {new}, which is not an etype of {etg_path}")
            renamed[unique_key(normalize_text(raw), raw, seen, "keys")] = normalize_text(new)
        return renamed

    # standalone use (--etg without earlier phases): no renames, purpose order;
    # in a run, align and inception have written both files
    rename_map, graph = {}, str(etg_path)
    renames_path = out / "rename_map.json"
    if run is not None:
        try:  # the renames align made are etypes of its graph, maybe not of --etg's
            rename_map = renames(run.rename_map)
        except PhaseError as exc:
            raise PhaseError(f"{renames_path}: {exc}") from exc
    elif renames_path.is_file():
        rename_map = _read_artifact(out, "rename_map.json", renames)
    if renames_path.is_file():
        # a dataset's etype reaches the graph through the renames, which may be at fault too
        graph += f" as renamed by {renames_path}"
    if (out / "selection.json").is_file():
        selection = _read_selection(out, purpose, run)
    else:
        selection = [ref.meta.id for ref in purpose.dataset_refs]
    overrides = {}  # dataset id -> (override file, override)
    dataset_ids = {ref.meta.id for ref in purpose.dataset_refs}
    for mapping_path in config.mappings:
        override = read_document(mapping_path, "mapping override", override_from_doc, PhaseError)
        if override.dataset_id not in dataset_ids:
            raise PhaseError(f"{mapping_path}: the purpose has no dataset {override.dataset_id!r}")
        if override.dataset_id in overrides:
            first = overrides[override.dataset_id][0]
            raise PhaseError(f"{first} and {mapping_path} both override dataset {override.dataset_id!r}")
        overrides[override.dataset_id] = (mapping_path, override)

    graph_id = etg.id
    if graph_id.endswith("-etg"):
        graph_id = graph_id[: -len("-etg")]
    builder = _GraphBuilder(initial_state(etg, f"{graph_id}-eg"))
    cases = []
    for ref, schema in _selected_schemas(config, purpose, selection, run):
        path = _resource_path(config, ref)
        header, rows = read_dataset_rows(path)
        # the override replaces the sidecar's mapping, so a mapping error is its fault
        mapping_path, override = overrides.get(schema.dataset_id, (sidecar_schema_path(path), None))
        mapping = _in_file(
            mapping_path, _against, graph, infer_mapping, schema, etg, rename_map=rename_map, override=override
        )
        cases.append(_in_file(path, builder.add, mapping, header, rows))

    state = builder.state()
    warnings = export_eg(state.eg, triples_path)
    report = eval_purpose(state, purpose.cqs, rename_map, config.thresholds)
    write_json(
        out / "integration_report.json",
        {
            "cases": [case.to_json() for case in cases],
            "export_warnings": warnings,
            "summary": {
                "entities": len(state.eg.entities),
                "conflicts": state.totals.flagged,
                "connected_components": state.totals.components,
                "unresolved_links": len(state.pending),
            },
        },
    )
    _write_gate(out, report)
    return report


_PHASE_FUNCTIONS = {
    "inception": phase_inception,
    "model": phase_model,
    "align": phase_align,
    "integrate": phase_integrate,
}


def _sha256(path: Path) -> str | None:
    try:
        return sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _input_digests(config: PipelineConfig) -> dict[str, str | None]:
    """SHA-256 of every file the run read: the purpose, the config file, each
    dataset with its sidecar schema, each ontology, each mapping override and
    the --etg schema graph, keyed by the path as the run resolved it."""
    digests = {str(config.purpose): _sha256(config.purpose)}
    purpose = parse_purpose(config.purpose)
    for ref in purpose.dataset_refs + purpose.ontology_refs:
        path = _resource_path(config, ref)
        digests[str(path)] = _sha256(path)
        sidecar = sidecar_schema_path(path) if ref.meta.kind == "dataset" else None
        if sidecar is not None:
            digests[str(sidecar)] = _sha256(sidecar)
    for path in (config.config_file, *config.mappings, config.etg):
        if path is not None:
            digests[str(path)] = _sha256(path)
    return digests


def phase_run(config: PipelineConfig) -> int:
    """All four phases in order, stopping at the first failed gate unless
    --no-fail-fast was given, each handing what it loaded or built to the
    later ones through one `Handoff`. Writes a manifest with input digests."""
    verdicts: dict[str, str | None] = {name: None for name in PHASES}
    failed = False
    run = Handoff()
    for name in PHASES:
        report = _PHASE_FUNCTIONS[name](config, run)
        print(report.to_text())
        verdicts[name] = report.verdict
        if report.verdict == "fail":
            failed = True
            if config.fail_fast:
                break
    out, _ = _out_dirs(config)
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "run_manifest.json",
        {
            "tool": f"itelos {__version__}",
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "inputs": _input_digests(config),
            "phases": verdicts,
        },
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itelos",
        description="Purpose-driven data integration: build an aligned schema "
        "graph and an integrated entity graph, with a quality gate after "
        "every phase.",
    )
    parser.add_argument("--version", action="version", version=f"itelos {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--purpose", required=True, help="purpose JSON file")
    common.add_argument("--out", default=None, help="output directory (default: out)")
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--cov-min", default=None, help="eval_a coverage threshold")
    common.add_argument("--ext-floor", default=None, help="eval_b extensiveness floor")
    common.add_argument("--spr-band-min", default=None, help="eval_c sparsity band lower edge")
    common.add_argument("--spr-band-max", default=None, help="eval_c sparsity band upper edge")
    common.add_argument("--match-threshold", default=None, help="minimum etype match score")
    common.add_argument(
        "--core-adopt-threshold", default=None, help="adoption score needed for core etypes"
    )
    common.add_argument("--etr-name-weight", default=None, help="name weight in the match score")
    common.add_argument(
        "--max-per-category", type=int, default=None, help="cap on datasets per category"
    )
    common.add_argument(
        "--fail-fast",
        action="store_true",
        default=None,
        help="stop at the first failed gate (default)",
    )
    common.add_argument(
        "--no-fail-fast", dest="fail_fast", action="store_false", help="run every phase regardless"
    )
    common.add_argument(
        "--mapping",
        action="append",
        default=None,
        help="mapping override JSON for one dataset (repeatable)",
    )
    common.add_argument(
        "--mappings", default=None, help="directory of mapping override JSON files"
    )
    common.add_argument(
        "--etg", default=None, help="final schema graph to integrate against"
    )
    common.add_argument(
        "--datasets", default=None, help="directory to resolve dataset paths against"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("inception", parents=[common], help="rank candidate resources (eval_a)")
    subparsers.add_parser("model", parents=[common], help="build the schema model (eval_b)")
    subparsers.add_parser("align", parents=[common], help="align with reference ontologies (eval_c)")
    subparsers.add_parser(
        "integrate", parents=[common], help="populate and export the entity graph (eval_d)"
    )
    subparsers.add_parser("run", parents=[common], help="all phases in order")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return phase_run(config)
        report = _PHASE_FUNCTIONS[args.command](config)
    except (ModelError, MetricError, PhaseError, OSError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 1
    print(report.to_text())
    return 1 if report.verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
