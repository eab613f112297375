"""Phase 3, knowledge alignment: rank the reference ontologies, predict which
of their etypes match the model (entity type recognition), adopt reference
structure by category policy, and gate on sparsity (eval_c).

Common etypes always take the reference shape, core ones only on a strong
match, and contextual ones are never renamed; that keeps the purpose-specific
tail of the graph intact while the reusable head converges on shared terms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .metrics import (
    GateReport,
    MetricResult,
    Thresholds,
    coverage,
    evaluate_gate,
    fraction_json,
)
from .model import (
    ETG,
    ModelError,
    PropertyDef,
    ResourceMeta,
    checked,
    compound_key,
    etype_elements,
    property_elements,
    require_valid,
    validate_etg,
)
from .modeling import ETGModel

SPARSITY_HINT = "sparsity outside the agreed band; revisit the alignment with this ontology"


class AlignmentError(ModelError):
    """Alignment could not produce a valid final graph."""


class InvalidPolicyError(AlignmentError):
    """A policy knob is outside [0, 1]."""


class NoOntologiesError(AlignmentError):
    """The purpose lists no loadable reference ontology."""


def levenshtein(a: str, b: str) -> int:
    """Edit distance with two-row dynamic programming."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[len(b)]


def name_similarity(a: str, b: str) -> Fraction:
    """1 minus the edit distance normalized by the longer name."""
    longest = max(len(a), len(b))
    if longest == 0:
        return Fraction(1)
    return 1 - Fraction(levenshtein(a, b), longest)


def property_sharability(a_names: Iterable[str], b_names: Iterable[str]) -> Fraction:
    """Overlap of two property-name sets, symmetric in its arguments.

    Empty against empty counts as no sharing, not full sharing.
    """
    first, second = set(a_names), set(b_names)
    union = first | second
    if not union:
        return Fraction(0)
    return Fraction(len(first & second), len(union))


@checked
class AlignmentPolicy(NamedTuple):
    """Knobs for matching and adoption, all on a 0..1 scale."""

    match_threshold: Fraction = Fraction(7, 10)
    core_adopt_threshold: Fraction = Fraction(3, 4)
    etr_name_weight: Fraction = Fraction(1, 2)

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not 0 <= value <= 1:
                raise InvalidPolicyError(f"{name} must lie in [0, 1], got {value}")


def _blend(similarity: Fraction, sharability: Fraction, policy: AlignmentPolicy) -> Fraction:
    return policy.etr_name_weight * similarity + (1 - policy.etr_name_weight) * sharability


class Candidate(NamedTuple):
    """One ontology etype proposed for a model etype, with its score parts."""

    label: str
    score: Fraction
    name_similarity: Fraction
    sharability: Fraction


class PredictionVector(NamedTuple):
    """Per model etype, the candidates from one ontology that cleared the
    match threshold, best first."""

    ontology_id: str
    candidates: Mapping[str, tuple[Candidate, ...]]

    def best_for(self, etype: str) -> Candidate | None:
        ranked = self.candidates.get(etype, ())
        return ranked[0] if ranked else None


def etr_predict(model: ETGModel, ontology: ETG, policy: AlignmentPolicy) -> PredictionVector:
    """Keep the (model etype, ontology etype) pairs whose score is at or above
    the match threshold.

    The score blends name similarity with property sharability; sharability
    compares each etype's own property names, not inherited ones.

    A length-gap bound is applied first: the edit distance of two names is at
    least the difference of their lengths, so name similarity is at most
    ``min(len) / max(len)``, and the score never falls as similarity grows.
    A pair whose score stays below the threshold even at that bound is pruned
    and never scored; the rest are scored exactly. The candidates therefore
    equal those of scoring every pair.
    """
    weight_num, weight_den = policy.etr_name_weight.as_integer_ratio()
    threshold_num, threshold_den = policy.match_threshold.as_integer_ratio()
    onto_props = [(e, ontology.property_names(e)) for e in ontology.sorted_etypes()]
    by_etype: dict[str, tuple[Candidate, ...]] = {}
    for etype in model.etg.sorted_etypes():
        model_props = model.etg.property_names(etype)
        candidates = []
        for onto_etype, props in onto_props:
            shared = len(model_props & props)
            union = len(model_props) + len(props) - shared or 1
            sim_num = min(len(etype), len(onto_etype))
            sim_den = max(len(etype), len(onto_etype))
            # weight*sim + (1-weight)*shared/union < threshold, multiplied by
            # every denominator so a pruned pair builds no Fraction (two empty
            # names give 0 < 0 and are never pruned)
            bound = weight_num * sim_num * union + (weight_den - weight_num) * shared * sim_den
            if bound * threshold_den < threshold_num * weight_den * sim_den * union:
                continue
            similarity = name_similarity(etype, onto_etype)
            sharability = property_sharability(model_props, props)
            score = _blend(similarity, sharability, policy)
            if score >= policy.match_threshold:
                candidates.append(
                    Candidate(
                        label=onto_etype,
                        score=score,
                        name_similarity=similarity,
                        sharability=sharability,
                    )
                )
        candidates.sort(key=lambda c: (-c.score, -c.sharability, c.label))
        if candidates:
            by_etype[etype] = tuple(candidates)
    return PredictionVector(ontology_id=ontology.meta.id, candidates=by_etype)


class RankedOntology(NamedTuple):
    ontology_id: str
    popularity: int
    etype_coverage: MetricResult
    mean_sharability: Fraction

    def sort_key(self):
        return (
            -self.popularity,
            -self.etype_coverage.value,
            -self.mean_sharability,
            self.ontology_id,
        )


class OntologyRanking(NamedTuple):
    included: tuple[RankedOntology, ...]
    excluded: tuple[tuple[str, str], ...]

    def ordered_ids(self) -> list[str]:
        return [entry.ontology_id for entry in self.included]


def rank_ontologies(model: ETGModel, ontologies: Mapping[str, ETG]) -> OntologyRanking:
    """Order the reference ontologies by popularity, then how much of the
    model they cover, then how well properties of same-named etypes line up.

    Ontologies sharing no etype with the model are excluded from alignment.
    """
    if not ontologies:
        raise NoOntologiesError("no reference ontology was loaded for alignment")
    model_elements = etype_elements(model.etg)
    included = []
    excluded = []
    for ontology_id in sorted(ontologies):
        ontology = ontologies[ontology_id]
        cov = coverage(model_elements, etype_elements(ontology))
        if cov.value == 0:
            excluded.append((ontology_id, "shares no etype with the model"))
            continue
        shared = model.etg.etypes & ontology.etypes
        shares = [
            property_sharability(
                model.etg.property_names(e), ontology.property_names(e)
            )
            for e in sorted(shared)
        ]
        mean = sum(shares, Fraction(0)) / len(shares) if shares else Fraction(0)
        included.append(
            RankedOntology(
                ontology_id=ontology_id,
                popularity=ontology.meta.popularity,
                etype_coverage=cov,
                mean_sharability=mean,
            )
        )
    included.sort(key=RankedOntology.sort_key)
    return OntologyRanking(included=tuple(included), excluded=tuple(excluded))


class Decision(NamedTuple):
    """What happened to one model etype during alignment."""

    etype: str
    category: str
    action: str
    ontology: str | None = None
    candidate: str | None = None
    score: Fraction | None = None
    adopted_properties: tuple[str, ...] = ()
    adopted_parents: tuple[str, ...] = ()


class MergePlan(NamedTuple):
    """The ontology ranking alignment followed and what it did per etype."""

    ranking: OntologyRanking
    decisions: tuple[Decision, ...]
    adoption_rates: Mapping[str, Fraction | None]
    rename_map: Mapping[str, str]


def _closure_edges(ontology: ETG, members: set[str]) -> set[tuple[str, str]]:
    return {
        (child, parent)
        for child, parent in ontology.subclass_edges
        if child in members and parent in members
    }


def generate_etg(
    model: ETGModel,
    predictions: Mapping[str, PredictionVector],
    ranking: OntologyRanking,
    ontologies: Mapping[str, ETG],
    policy: AlignmentPolicy | None = None,
) -> tuple[ETG, MergePlan]:
    """Merge the model with its best reference matches into the final graph.

    Each model etype takes its top candidate from the highest-ranked ontology
    that offers one. Adopting an etype renames it to the reference label and
    pulls in the reference properties plus the full ancestor chain; on a
    property name clash the model's definition stands.
    """
    policy = policy or AlignmentPolicy()
    decisions: list[Decision] = []
    rename_map: dict[str, str] = {}
    final_etypes: set[str] = set()
    # insertion order fixes precedence: model definitions land first
    final_props: dict[str, dict[str, PropertyDef]] = {}
    final_edges: set[tuple[str, str]] = set()
    adopted_count: dict[str, int] = {}
    category_count: dict[str, int] = {}

    def add_props(etype: str, defs: Iterable[PropertyDef]) -> list[str]:
        bucket = final_props.setdefault(etype, {})
        added = []
        for definition in defs:
            if definition.name not in bucket:
                bucket[definition.name] = definition
                added.append(definition.name)
        return added

    for etype in model.etg.sorted_etypes():
        category = model.category_of(etype)
        category_count[category] = category_count.get(category, 0) + 1
        best: tuple[str, Candidate] | None = None
        for ontology_id in ranking.ordered_ids():
            vector = predictions.get(ontology_id)
            candidate = vector.best_for(etype) if vector else None
            if candidate is not None:
                best = (ontology_id, candidate)
                break

        adopt = False
        if best is not None:
            if category == "common":
                adopt = True
            elif category == "core":
                adopt = best[1].score >= policy.core_adopt_threshold

        if not adopt:
            final_etypes.add(etype)
            add_props(etype, model.etg.props_of(etype))
            decisions.append(
                Decision(
                    etype=etype,
                    category=category,
                    action="keep",
                    ontology=best[0] if best else None,
                    candidate=best[1].label if best else None,
                    score=best[1].score if best else None,
                )
            )
            continue

        ontology_id, candidate = best
        ontology = ontologies[ontology_id]
        final_name = candidate.label
        if final_name != etype:
            rename_map[etype] = final_name
        final_etypes.add(final_name)
        add_props(final_name, model.etg.props_of(etype))
        adopted = add_props(final_name, ontology.props_of(final_name))
        ancestors = ontology.ancestors_of(final_name)
        for ancestor in ancestors:
            final_etypes.add(ancestor)
            add_props(ancestor, ontology.props_of(ancestor))
        final_edges |= _closure_edges(ontology, {final_name, *ancestors})
        adopted_count[category] = adopted_count.get(category, 0) + 1
        decisions.append(
            Decision(
                etype=etype,
                category=category,
                action="adopt",
                ontology=ontology_id,
                candidate=final_name,
                score=candidate.score,
                adopted_properties=tuple(sorted(adopted)),
                adopted_parents=tuple(ancestors),
            )
        )

    properties = {
        etype: tuple(
            PropertyDef(
                name=d.name,
                kind=d.kind,
                datatype=d.datatype,
                range=rename_map.get(d.range, d.range),
            )
            for d in bucket.values()
        )
        for etype, bucket in final_props.items()
    }

    base = model.etg.id
    if base.endswith("-model"):
        base = base[: -len("-model")]
    final = ETG(
        id=f"{base}-etg",
        etypes=frozenset(final_etypes),
        properties=properties,
        subclass_edges=frozenset(final_edges),
        meta=ResourceMeta(id=f"{base}-etg", kind="ontology", category="contextual"),
    )
    require_valid(validate_etg(final), "aligned graph is invalid", AlignmentError)
    _check_queries_preserved(model, final, rename_map)

    rates = {
        category: Fraction(adopted_count.get(category, 0), total) if total else None
        for category, total in category_count.items()
    }
    plan = MergePlan(
        ranking=ranking, decisions=tuple(decisions), adoption_rates=rates, rename_map=rename_map
    )
    return final, plan


def _check_queries_preserved(model: ETGModel, final: ETG, rename_map: Mapping[str, str]) -> None:
    """Every query element in the model must survive alignment, possibly under
    its reference name."""
    final_pairs = {
        compound_key(e, d.name) for e in final.etypes for d in final.props_of(e)
    }
    for element, source in model.provenance.items():
        if source != "from_cq":
            continue
        if "." in element:
            etype_name, _, prop_name = element.partition(".")
            if compound_key(rename_map.get(etype_name, etype_name), prop_name) not in final_pairs:
                raise AlignmentError(f"alignment lost the query property {element}")
        else:
            if rename_map.get(element, element) not in final.etypes:
                raise AlignmentError(f"alignment lost the query etype {element}")


def eval_alignment(
    final: ETG,
    ranking: OntologyRanking,
    ontologies: Mapping[str, ETG],
    thresholds: Thresholds | None = None,
) -> GateReport:
    """Gate eval_c: the final graph must sit close enough to each retained
    reference ontology, measured as sparsity over etypes and properties."""
    thresholds = thresholds or Thresholds()
    pairs = []
    for ontology_id in ranking.ordered_ids():
        ontology = ontologies[ontology_id]
        pairs.append((ontology_id, etype_elements(final), etype_elements(ontology)))
        pairs.append((ontology_id, property_elements(final), property_elements(ontology)))
    notes = []
    if not pairs:
        notes.append("no reference ontology overlaps the model; nothing to align against")
    return evaluate_gate(
        "eval_c", pairs, thresholds, notes=tuple(notes), default_note=SPARSITY_HINT
    )


def plan_to_json(plan: MergePlan) -> dict:
    """The document form of `plan`, written to `merge_plan.json`."""
    return {
        "ontology_ranking": {
            "included": [
                {
                    "id": entry.ontology_id,
                    "popularity": entry.popularity,
                    "etype_coverage": entry.etype_coverage.to_json(),
                    "mean_sharability": fraction_json(entry.mean_sharability),
                }
                for entry in plan.ranking.included
            ],
            "excluded": [{"id": oid, "reason": reason} for oid, reason in plan.ranking.excluded],
        },
        "decisions": [
            {
                "etype": d.etype,
                "category": d.category,
                "action": d.action,
                "ontology": d.ontology,
                "candidate": d.candidate,
                "score": fraction_json(d.score) if d.score is not None else None,
                "adopted_properties": list(d.adopted_properties),
                "adopted_parents": list(d.adopted_parents),
            }
            for d in plan.decisions
        ],
        "adoption_rates": {
            category: fraction_json(rate) if rate is not None else None
            for category, rate in plan.adoption_rates.items()
        },
        "rename_map": plan.rename_map,
    }
