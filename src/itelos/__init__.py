"""Purpose-driven knowledge graph construction.

The pipeline turns a purpose (competency queries plus candidate datasets and
reference ontologies) into an aligned schema graph and an integrated entity
graph, evaluating coverage, extensiveness and sparsity after every phase.
"""

__version__ = "0.1.0"

from .alignment import (
    AlignmentPolicy,
    etr_predict,
    eval_alignment,
    generate_etg,
    levenshtein,
    name_similarity,
    property_sharability,
    rank_ontologies,
)
from .inception import (
    Purpose,
    collect_resources,
    eval_inception,
    match_resources,
    parse_purpose,
    select_datasets,
)
from .integration import (
    connected_components,
    eval_purpose,
    export_eg,
    infer_mapping,
    initial_state,
    integrate_dataset,
    read_dataset_rows,
)
from .metrics import (
    MetricResult,
    Thresholds,
    coverage,
    extensiveness,
    sparsity,
)
from .model import (
    EG,
    ETG,
    CompetencyQuery,
    DatasetSchema,
    ElementSet,
    Entity,
    PropertyDef,
    ResourceMeta,
    etype_elements,
    load_etg,
    property_elements,
    validate_eg,
    validate_etg,
)
from .modeling import ETGModel, build_etg_model, eval_modeling

__all__ = [
    "__version__",
    "AlignmentPolicy",
    "CompetencyQuery",
    "DatasetSchema",
    "EG",
    "ETG",
    "ETGModel",
    "ElementSet",
    "Entity",
    "MetricResult",
    "PropertyDef",
    "Purpose",
    "ResourceMeta",
    "Thresholds",
    "build_etg_model",
    "collect_resources",
    "connected_components",
    "coverage",
    "etr_predict",
    "etype_elements",
    "eval_alignment",
    "eval_inception",
    "eval_modeling",
    "eval_purpose",
    "export_eg",
    "extensiveness",
    "generate_etg",
    "infer_mapping",
    "initial_state",
    "integrate_dataset",
    "levenshtein",
    "load_etg",
    "match_resources",
    "name_similarity",
    "parse_purpose",
    "property_elements",
    "property_sharability",
    "rank_ontologies",
    "read_dataset_rows",
    "select_datasets",
    "sparsity",
    "validate_eg",
    "validate_etg",
]
