"""Purpose-driven knowledge graph construction.

The pipeline turns a purpose (competency queries plus candidate datasets and
reference ontologies) into an aligned schema graph and an integrated entity
graph, evaluating coverage, extensiveness and sparsity after every phase.

The package root exports the names of README's "Library use"; every other
name is imported from its module, for example `from itelos.model import Entity`.
"""

__version__ = "0.1.0"

from .alignment import etr_predict, generate_etg, rank_ontologies
from .inception import collect_resources, match_resources, parse_purpose
from .integration import export_eg, infer_mapping, initial_state, integrate_dataset
from .modeling import build_etg_model

__all__ = [
    "__version__",
    "build_etg_model",
    "collect_resources",
    "etr_predict",
    "export_eg",
    "generate_etg",
    "infer_mapping",
    "initial_state",
    "integrate_dataset",
    "match_resources",
    "parse_purpose",
    "rank_ontologies",
]
