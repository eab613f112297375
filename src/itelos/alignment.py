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
    MetricError,
    MetricResult,
    Thresholds,
    coverage,
    evaluate_gate,
    fraction_json,
)
from .model import (
    ELEMENT_KINDS,
    ETG,
    ModelError,
    PropertyDef,
    ResourceMeta,
    checked,
    cyclic_edges,
    elements,
)
from .modeling import ETGModel

SPARSITY_HINT = "sparsity outside the agreed band; revisit the alignment with this ontology"


class OntologyConflictError(ModelError):
    """The final graph cannot hold what the ontologies `ontology_ids`
    contribute: an adopted etype brings in an object property whose range
    etype the graph leaves out, or subclass edges from several ontologies
    close a cycle."""

    def __init__(self, ontology_ids: tuple[str, ...], message: str):
        super().__init__(message)
        self.ontology_ids = ontology_ids


def levenshtein(a: str, b: str) -> int:
    """Edit distance with two-row dynamic programming."""
    if a == b:
        return 0
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
                raise MetricError(f"{name} must lie in [0, 1], got {value}")


def _blend(similarity: Fraction, sharability: Fraction, policy: AlignmentPolicy) -> Fraction:
    return policy.etr_name_weight * similarity + (1 - policy.etr_name_weight) * sharability


class Candidate(NamedTuple):
    """One ontology etype proposed for a model etype, with its score parts."""

    label: str
    score: Fraction
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
    and never scored; the rest are scored exactly.

    The pairs the bound is tried on come from an index built once per call:
    each property name an ontology etype owns maps to the etypes that own it,
    and a model etype counts its shared properties through the map. A pair
    that shares nothing scores ``weight * similarity``, at most the name
    weight, so such pairs are tried only when the name weight reaches the
    threshold (it does not under the default policy); the bound then prunes
    them as before. No pair left out can be a candidate, so the candidates
    equal those of scoring every pair.
    """
    weight_num, weight_den = policy.etr_name_weight.as_integer_ratio()
    threshold_num, threshold_den = policy.match_threshold.as_integer_ratio()
    onto_props: dict[str, frozenset[str]] = {}
    owners: dict[str, list[str]] = {}
    for onto_etype in ontology.sorted_etypes():
        props = onto_props[onto_etype] = ontology.property_names(onto_etype)
        for name in props:
            owners.setdefault(name, []).append(onto_etype)
    name_only_reaches = policy.etr_name_weight >= policy.match_threshold
    by_etype: dict[str, tuple[Candidate, ...]] = {}
    for etype in model.etg.sorted_etypes():
        model_props = model.etg.property_names(etype)
        # a pair that shares nothing scores at most the name weight
        shared_counts = dict.fromkeys(onto_props, 0) if name_only_reaches else {}
        for name in model_props:
            for onto_etype in owners.get(name, ()):
                shared_counts[onto_etype] = shared_counts.get(onto_etype, 0) + 1
        candidates = []
        for onto_etype, shared in shared_counts.items():
            props = onto_props[onto_etype]
            union = len(model_props) + len(props) - shared or 1
            sim_num = min(len(etype), len(onto_etype))
            sim_den = max(len(etype), len(onto_etype))
            # weight*sim + (1-weight)*shared/union < threshold, multiplied by
            # every denominator so a pruned pair builds no Fraction (two empty
            # names give 0 < 0 and are never pruned). With the name weight at
            # the threshold a Fraction form took 0.49 s, not 0.29 s, against
            # four 110-etype ontologies and 1.96 s, not 1.27 s, against four of
            # 440 (medians of 7, CPython 3.11.7 on a shared 2-vCPU VM).
            bound = weight_num * sim_num * union + (weight_den - weight_num) * shared * sim_den
            if bound * threshold_den < threshold_num * weight_den * sim_den * union:
                continue
            sharability = property_sharability(model_props, props)
            score = _blend(name_similarity(etype, onto_etype), sharability, policy)
            if score >= policy.match_threshold:
                candidates.append(Candidate(label=onto_etype, score=score, sharability=sharability))
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
        raise ModelError("no reference ontology was loaded for alignment")
    included = []
    excluded = []
    for ontology_id in sorted(ontologies):
        ontology = ontologies[ontology_id]
        cov = coverage(model.etg.etypes, ontology.etypes)
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
    adoption_rates: Mapping[str, Fraction]
    rename_map: Mapping[str, str]


def _closure_edges(ontology: ETG, members: set[str]) -> set[tuple[str, str]]:
    return {
        (child, parent)
        for child, parent in ontology.subclass_edges
        if child in members and parent in members
    }


def _cycle_sources(
    edge_sources: Mapping[tuple[str, str], set[str]], ranking: OntologyRanking
) -> tuple[str, ...]:
    """The ontologies, in ranking order, that gave a subclass edge lying on a
    cycle of the joined edges `edge_sources` (edge -> ontology ids), the
    edges `validate_etg` names in its refusal (`cyclic_edges`)."""
    joined = ETG._make(("", frozenset(), {}, frozenset(edge_sources), None))  # unchecked: cyclic
    looped = {oid for edge in cyclic_edges(joined) for oid in edge_sources[edge]}
    return tuple(oid for oid in ranking.ordered_ids() if oid in looped)


def generate_etg(
    model: ETGModel,
    predictions: Mapping[str, PredictionVector],
    ranking: OntologyRanking,
    ontologies: Mapping[str, ETG],
    policy: AlignmentPolicy | None = None,
) -> tuple[ETG, MergePlan]:
    """Merge the model with its best reference matches into the final graph.

    Alignment decides first, then builds. Each model etype takes its top
    candidate from the highest-ranked ontology that offers one, and its
    category decides whether it adopts it; adopting renames the etype to the
    reference label. That fixes `rename_map` and every final etype (kept
    names, adopted labels and their ancestors) before any property is placed.
    Then every model property lands under its etype's final name, an object
    range renamed through `rename_map`, so every element of the model
    survives under `rename_map` and on a property name clash the model's
    definition stands. Last, each adopted etype pulls in its ontology's
    properties and full ancestor chain, ranges kept as the ontology wrote
    them. A pulled object property whose range etype is not final, or
    subclass edges from several ontologies that close a cycle, raise
    OntologyConflictError naming the ontologies.
    """
    policy = policy or AlignmentPolicy()
    decisions: list[Decision] = []
    rename_map: dict[str, str] = {}
    final_etypes: set[str] = set()
    for etype in model.etg.sorted_etypes():
        category = model.category_of(etype)
        decision = Decision(etype, category, "keep")
        for ontology_id in ranking.ordered_ids():
            vector = predictions.get(ontology_id)
            candidate = vector.best_for(etype) if vector else None
            if candidate is not None:
                decision = decision._replace(
                    ontology=ontology_id, candidate=candidate.label, score=candidate.score
                )
                break
        if decision.candidate is not None and (
            category == "common"
            or category == "core" and decision.score >= policy.core_adopt_threshold
        ):
            ancestors = ontologies[decision.ontology].ancestors_of(decision.candidate)
            decision = decision._replace(action="adopt", adopted_parents=ancestors)
            if decision.candidate != etype:
                rename_map[etype] = decision.candidate
            final_etypes.update([decision.candidate, *ancestors])
        else:
            final_etypes.add(etype)
        decisions.append(decision)

    # insertion order fixes precedence: model definitions land first
    final_props: dict[str, dict[str, PropertyDef]] = {e: {} for e in sorted(final_etypes)}
    for etype in model.etg.sorted_etypes():
        bucket = final_props[rename_map.get(etype, etype)]
        for definition in model.etg.props_of(etype):
            renamed = definition._replace(range=rename_map.get(definition.range, definition.range))
            bucket.setdefault(definition.name, renamed)

    edge_sources: dict[tuple[str, str], set[str]] = {}
    for index, decision in enumerate(decisions):
        if decision.action != "adopt":
            continue
        ontology = ontologies[decision.ontology]
        chain = [decision.candidate, *decision.adopted_parents]
        adopted = []
        for holder in chain:
            bucket = final_props[holder]
            for definition in ontology.props_of(holder):
                if definition.name in bucket:
                    continue
                # validate_etg would refuse this too (dangling_range), but it
                # cannot name the ontology to blame
                if definition.kind == "object" and definition.range not in final_etypes:
                    raise OntologyConflictError(
                        (decision.ontology,),
                        f"adopting {decision.candidate} brings in {holder}.{definition.name}, "
                        f"whose range etype {definition.range} is not in the final graph",
                    )
                bucket[definition.name] = definition
                if holder == decision.candidate:
                    adopted.append(definition.name)
        for edge in _closure_edges(ontology, set(chain)):
            edge_sources.setdefault(edge, set()).add(decision.ontology)
        decisions[index] = decision._replace(adopted_properties=tuple(sorted(adopted)))

    base = model.etg.id.removesuffix("-model")
    try:
        final = ETG(
            id=f"{base}-etg",
            etypes=frozenset(final_etypes),
            properties={etype: tuple(bucket.values()) for etype, bucket in final_props.items()},
            subclass_edges=frozenset(edge_sources),
            meta=ResourceMeta(id=f"{base}-etg", kind="ontology", category="contextual"),
        )
    except ModelError as exc:
        # the steps above leave only a cycle, and each ontology's own edges
        # are acyclic, so the cycle joins the edges of two or more
        sources = _cycle_sources(edge_sources, ranking)
        raise OntologyConflictError(
            sources, f"joining the subclass edges of {', '.join(sources)} gives an {exc}"
        ) from exc

    adoptions: dict[str, list[bool]] = {}
    for decision in decisions:
        adoptions.setdefault(decision.category, []).append(decision.action == "adopt")
    rates = {category: Fraction(sum(flags), len(flags)) for category, flags in adoptions.items()}
    plan = MergePlan(
        ranking=ranking, decisions=tuple(decisions), adoption_rates=rates, rename_map=rename_map
    )
    return final, plan


def eval_alignment(
    final: ETG,
    ranking: OntologyRanking,
    ontologies: Mapping[str, ETG],
    thresholds: Thresholds | None = None,
) -> GateReport:
    """Gate eval_c: the final graph must sit close enough to each retained
    reference ontology, measured as sparsity over etypes and properties."""
    thresholds = thresholds or Thresholds()
    final_elements = elements(final)
    pairs = [
        (ontology_id, *row)
        for ontology_id in ranking.ordered_ids()
        for row in zip(ELEMENT_KINDS, final_elements, elements(ontologies[ontology_id]))
    ]
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
            category: fraction_json(rate) for category, rate in plan.adoption_rates.items()
        },
        "rename_map": plan.rename_map,
    }
