"""Deterministic synthetic corpora for the itelos benchmark.

Each workload is a purpose file plus datasets, sidecar schemas and ontologies,
written from a seed and a size. The same (workload, seed, size) always gives
the same bytes. The generator never imports itelos: next to each corpus it
writes `expected.json`, the counts a correct run must report, derived from how
the corpus was built.

The three hospital/case workloads start from tests/fixtures/covid_trentino
(its purpose, sidecar schemas and ontologies) and scale or reshape its CSVs.
`ontology_heavy` is built from scratch in the fixture's file formats.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
from pathlib import Path

# Default sizes, chosen so one `itelos run` takes about a second on a
# 2-core x86 box at the seed commit (see perfbench/README.md).
SIZES = {
    "link_heavy": 150,  # hospitals; 4x as many cases link to them
    "merge_overlap": 200,  # keyed hospitals; the other datasets scale with it
    "ontology_heavy": 110,  # etypes per reference ontology (4 ontologies)
    "bulk_append": 2000,  # hospitals with 8 extra attribute columns
}

WORKLOADS = tuple(SIZES)

# Thresholds for corpora whose shape the fixture's defaults would reject by
# design: a one-etype dataset covers 1/43 of the queries (eval_a) and extra
# columns push the schema sparsity past 3/5 (eval_c).
RELAXED_CONFIG = {"cov_min": "1/100", "spr_band_max": "1"}

MUNICIPALITIES = ("Trento", "Rovereto", "Arco", "Pergine", "Cles", "Riva", "Borgo", "Tione")
SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _write_json(path: Path, doc) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _dataset(out: Path, ref: dict, schema: dict, header, rows) -> None:
    """Write the dataset CSV that `ref` points at, plus its sidecar schema."""
    csv_path = out / ref["path"]
    _write(csv_path, _csv_text(header, rows))
    _write_json(csv_path.with_name(csv_path.stem + ".schema.json"), schema)


def _hospital_rows(rng: random.Random, count: int, start: int = 1) -> list[list[str]]:
    return [
        [
            f"TN{i:05d}",
            f"Ospedale {_word(rng, 3).title()} {i}",
            str(rng.randrange(20, 900)),
            rng.choice(MUNICIPALITIES),
        ]
        for i in range(start, start + count)
    ]


def _case_rows(rng: random.Random, count: int, hospital_codes: list[str]) -> list[list[str]]:
    return [
        [
            f"C{i:06d}",
            f"2020-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            rng.choice(hospital_codes),
            str(rng.randrange(1, 60)),
            rng.choice(("", "", "cluster", "first wave", "transfer")),
        ]
        for i in range(1, count + 1)
    ]


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(SYLLABLES) for _ in range(syllables))


def _fixture_purpose(fixture: Path, datasets: list[dict]) -> dict:
    purpose = json.loads((fixture / "purpose.json").read_text(encoding="utf-8"))
    purpose["datasets"] = datasets
    return purpose


def _copy_ontologies(fixture: Path, out: Path) -> None:
    shutil.copytree(fixture / "ontologies", out / "ontologies")


def _fixture_schema(fixture: Path, name: str) -> dict:
    return json.loads((fixture / "data" / name).read_text(encoding="utf-8"))


HOSPITAL_HEADER = ["code", "name", "beds", "municipality"]
CASE_HEADER = ["case_id", "case_date", "hospital", "patient_count", "notes"]


def _hospitals_and_cases(
    fixture: Path, out: Path, rng: random.Random, hospitals: int, cases: int, extra_columns: int
) -> dict:
    """H keyed hospitals plus linked cases, in the fixture's own layout."""
    schema = _fixture_schema(fixture, "hospitals.schema.json")
    header = list(HOSPITAL_HEADER)
    rows = _hospital_rows(rng, hospitals)
    for k in range(1, extra_columns + 1):
        column = f"attr_{k}"
        header.append(column)
        schema["columns"].append({"name": column, "property": column, "role": "attribute"})
        for row in rows:
            row.append(_word(rng, 2) if k % 2 else str(rng.randrange(0, 1000)))
    refs = [
        {"id": "ds_hospitals", "path": "data/hospitals.csv", "category": "common", "popularity": 7},
        {"id": "ds_cases", "path": "data/covid_cases.csv", "category": "core", "popularity": 5},
    ]
    _dataset(out, refs[0], schema, header, rows)
    codes = [row[0] for row in rows]
    _dataset(
        out,
        refs[1],
        _fixture_schema(fixture, "covid_cases.schema.json"),
        CASE_HEADER,
        _case_rows(rng, cases, codes),
    )
    _copy_ontologies(fixture, out)
    _write_json(out / "purpose.json", _fixture_purpose(fixture, refs))
    return {"entities": hospitals + cases, "link_triples": cases, "merged_entities": 0}


def link_heavy(fixture: Path, out: Path, rng: random.Random, size: int) -> dict:
    return _hospitals_and_cases(fixture, out, rng, size, 4 * size, extra_columns=0)


def bulk_append(fixture: Path, out: Path, rng: random.Random, size: int) -> dict:
    _write_json(out / "config.json", RELAXED_CONFIG)
    return _hospitals_and_cases(fixture, out, rng, size, 10, extra_columns=8)


def merge_overlap(fixture: Path, out: Path, rng: random.Random, size: int) -> dict:
    """Keyed hospitals, the same rows reversed under a second id, a keyless
    half-overlapping copy, and a few cases.

    Dataset ids are chosen so the first keyed id sorts lowest; merged
    entities keep it, and case links resolve against its code suffix.
    """
    hospital_schema = _fixture_schema(fixture, "hospitals.schema.json")
    keyless_schema = {
        **hospital_schema,
        "columns": [dict(c, role="attribute") for c in hospital_schema["columns"]],
    }
    rows = _hospital_rows(rng, size)
    half = size // 2
    keyless_rows = rng.sample(rows, half) + _hospital_rows(rng, size - half, start=size + 1)
    rng.shuffle(keyless_rows)
    cases = max(1, size // 4)
    refs = [
        {"id": "ds_hospitals", "path": "data/hospitals.csv", "category": "common", "popularity": 9},
        {"id": "ds_hospitals_rev", "path": "data/hospitals_rev.csv", "category": "common", "popularity": 8},
        {"id": "ds_hospitals_x", "path": "data/hospitals_x.csv", "category": "common", "popularity": 7},
        {"id": "ds_cases", "path": "data/covid_cases.csv", "category": "core", "popularity": 5},
    ]
    _dataset(out, refs[0], hospital_schema, HOSPITAL_HEADER, rows)
    _dataset(out, refs[1], hospital_schema, HOSPITAL_HEADER, rows[::-1])
    _dataset(out, refs[2], keyless_schema, HOSPITAL_HEADER, keyless_rows)
    _dataset(
        out,
        refs[3],
        _fixture_schema(fixture, "covid_cases.schema.json"),
        CASE_HEADER,
        _case_rows(rng, cases, [row[0] for row in rows]),
    )
    _copy_ontologies(fixture, out)
    _write_json(out / "purpose.json", _fixture_purpose(fixture, refs))
    return {
        "entities": size + (size - half) + cases,
        "link_triples": cases,
        # every reversed row, plus the overlapping half of the keyless copy
        "merged_entities": size + half,
    }


ONTOLOGIES = 4
ONTO_DATASETS = 40
ONTO_ADOPTED = 3
ONTO_ROWS = 5
ONTO_HEAD = 20  # leading etypes of each ontology that are not dataset etypes


def ontology_heavy(fixture: Path, out: Path, rng: random.Random, size: int) -> dict:
    """Many one-etype datasets aligned against four large ontologies.

    Every ontology holds all dataset etype names (so none is excluded from
    alignment) among `size` etypes with deep subclass chains: each etype's
    parent is one of the five before it in a shuffled order. Only the first
    ONTO_ADOPTED dataset etypes share properties with their copy in onto_0,
    so they alone are adopted, pulling in their ancestor chains. One extra
    query per adopted etype asks for an ancestor, which only the subclass
    closure populates.
    """
    if size < ONTO_DATASETS + ONTO_HEAD:
        raise ValueError(f"ontology_heavy needs at least {ONTO_DATASETS + ONTO_HEAD} etypes")
    names: set[str] = set()

    def fresh() -> str:
        while True:
            name = _word(rng, rng.randrange(3, 5))
            if name not in names:
                names.add(name)
                return name

    model_etypes = [fresh() for _ in range(ONTO_DATASETS)]
    adopted = model_etypes[:ONTO_ADOPTED]
    own_props = ["code", "label", "amount"]
    ancestors: list[str] = []
    ontology_refs = []
    for j in range(ONTOLOGIES):
        head = [fresh() for _ in range(ONTO_HEAD)]
        tail = model_etypes + [fresh() for _ in range(size - ONTO_DATASETS - ONTO_HEAD)]
        rng.shuffle(tail)
        if j == 0:
            # Adopted etypes sit among the first etypes, whose ancestors are
            # all ontology-only: their chains enter the final graph, and deep
            # ones would make integrate dominate the run.
            head[12:12] = adopted
            tail = [etype for etype in tail if etype not in adopted]
        order = head + tail
        parent = {
            order[i]: order[rng.randrange(max(0, i - 5), i)] for i in range(1, len(order))
        }
        properties = {
            etype: [{"name": f"{etype}_{j}_{k}", "kind": "data", "datatype": "string"} for k in range(2)]
            for etype in order
        }
        if j == 0:
            for etype in adopted:
                properties[etype] = [
                    {"name": p, "kind": "data", "datatype": "string"} for p in own_props + ["note"]
                ]
                chain = [etype]
                while chain[-1] in parent:
                    chain.append(parent[chain[-1]])
                eligible = [n for n in chain if n not in model_etypes and n not in ancestors]
                ancestors.append(eligible[min(3, len(eligible) - 1)])
        ontology_id = f"onto_{j}"
        _write_json(
            out / "ontologies" / f"{ontology_id}.json",
            {
                "id": ontology_id,
                "meta": {"category": "common", "popularity": 10 + j, "origin": "synthetic"},
                "etypes": sorted(order),
                "properties": properties,
                "subclass": sorted([child, p] for child, p in parent.items()),
            },
        )
        ontology_refs.append(
            {"id": ontology_id, "path": f"ontologies/{ontology_id}.json", "category": "common", "popularity": 10 + j}
        )

    dataset_refs = []
    for k, etype in enumerate(model_etypes):
        ref = {
            "id": f"ds_{k:02d}",
            "path": f"data/{etype}.csv",
            "category": "common" if etype in adopted else "contextual",
            "popularity": 1,
        }
        schema = {
            "dataset_id": ref["id"],
            "etype": etype,
            "columns": [
                {"name": "code", "property": "code", "role": "identity"},
                {"name": "label", "property": "label", "role": "attribute"},
                {"name": "amount", "property": "amount", "role": "attribute"},
            ],
        }
        rows = [
            [f"K{k:02d}R{r}", _word(rng, 2), str(rng.randrange(1000))] for r in range(ONTO_ROWS)
        ]
        _dataset(out, ref, schema, own_props, rows)
        dataset_refs.append(ref)

    queries = [
        {"id": f"cq_{k:02d}", "sentence": f"Which {etype} have a label?", "etypes": [etype], "properties": [[etype, "label"]]}
        for k, etype in enumerate(model_etypes)
    ] + [
        {"id": f"cq_anc_{a}", "sentence": f"Which {etype} have a label?", "etypes": [etype], "properties": [[etype, "label"]]}
        for a, etype in enumerate(ancestors)
    ]
    _write_json(
        out / "purpose.json",
        {
            "title": "Synthetic ontology alignment",
            "narrative": "Many small datasets aligned against large reference ontologies.",
            "cqs": queries,
            "datasets": dataset_refs,
            "ontologies": ontology_refs,
        },
    )
    _write_json(out / "config.json", RELAXED_CONFIG)
    return {"entities": ONTO_DATASETS * ONTO_ROWS, "link_triples": 0, "merged_entities": 0}


def cli_args(corpus: Path, out: Path) -> list[str]:
    """Arguments of `itelos run` for a corpus written by `generate`."""
    args = ["run", "--purpose", str(corpus / "purpose.json"), "--out", str(out)]
    if (corpus / "config.json").is_file():
        args += ["--config", str(corpus / "config.json")]
    return args


BUILDERS = {
    "link_heavy": link_heavy,
    "merge_overlap": merge_overlap,
    "ontology_heavy": ontology_heavy,
    "bulk_append": bulk_append,
}


def generate(fixture: Path, workload: str, seed: int, out: Path, size: int | None = None) -> dict:
    """Write the corpus for (workload, seed, size) into the empty or missing
    directory `out` and return the expectations also written to
    `out/expected.json`."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload] if size is None else size
    out.mkdir(parents=True, exist_ok=False)
    rng = random.Random(f"{workload}:{seed}:{size}")
    expected = BUILDERS[workload](fixture, out, rng, size)
    expected.update(
        {
            "workload": workload,
            "seed": seed,
            "size": size,
            "unresolved_links": 0,
            "gates": {gate: "pass" for gate in ("eval_a", "eval_b", "eval_c", "eval_d")},
        }
    )
    _write_json(out / "expected.json", expected)
    return expected
