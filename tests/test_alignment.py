from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from itelos import alignment
from itelos.alignment import (
    AlignmentPolicy,
    InvalidPolicyError,
    NoOntologiesError,
    OntologyConflictError,
    SubclassCycleError,
    UnadoptedRangeError,
    etr_predict,
    eval_alignment,
    generate_etg,
    levenshtein,
    name_similarity,
    plan_to_json,
    property_sharability,
    rank_ontologies,
)
from itelos.modeling import ETGModel, build_etg_model
from itelos.model import (
    ETG,
    PropertyDef,
    compound_key,
    etg_to_doc,
)

from helpers import (
    etr_pair_score,
    make_cq,
    make_etg,
    make_schema,
    matrix_levenshtein,
    scan_ancestors,
    scan_etr_predict,
    scan_pulled_properties,
)

names = st.text(alphabet="abcdefgh", min_size=0, max_size=8)
prop_sets = st.frozensets(st.sampled_from(["p", "q", "r", "s"]), max_size=4)


class TestStringSimilarity:
    def test_levenshtein_known(self):
        assert levenshtein("", "") == 0
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "") == 3

    @given(names, names)
    def test_levenshtein_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(names, names)
    @example("", "")
    @example("", "abc")
    @example("abc", "")
    def test_levenshtein_equals_full_matrix(self, a, b):
        # the two-row loop has no special case for an empty name
        assert levenshtein(a, b) == matrix_levenshtein(a, b)

    @given(names, names)
    def test_name_similarity_bounds(self, a, b):
        value = name_similarity(a, b)
        assert 0 <= value <= 1
        assert value == name_similarity(b, a)

    def test_name_similarity_values(self):
        assert name_similarity("person", "person") == 1
        assert name_similarity("person", "persons") == Fraction(6, 7)
        assert name_similarity("", "") == 1

    def test_sharability_jaccard(self):
        assert property_sharability({"a", "b"}, {"b", "c"}) == Fraction(1, 3)
        assert property_sharability({"a"}, {"a"}) == 1
        assert property_sharability(set(), set()) == 0
        assert property_sharability({"a"}, set()) == 0


class TestEtrScore:
    """The pair score of etr_predict, read through `etr_pair_score`: one model
    etype against one ontology etype, at a match threshold of 0."""

    def test_hand_computed_case(self):
        # person vs persons, disjoint property sets
        assert etr_pair_score("person", {"age"}, "persons", {"count"}) == Fraction(3, 7)

    def test_identical_is_one(self):
        assert etr_pair_score("hospital", {"name", "beds"}, "hospital", {"name", "beds"}) == 1

    @given(names, prop_sets, names, prop_sets)
    def test_symmetric_and_bounded(self, a, pa, b, pb):
        # symmetric: swapping the model and ontology roles gives the same score
        forward = etr_pair_score(a, pa, b, pb)
        assert forward == etr_pair_score(b, pb, a, pa)
        assert 0 <= forward <= 1

    def test_weight_shifts_blend(self):
        heavy_name = AlignmentPolicy(etr_name_weight=Fraction(1))
        assert etr_pair_score("person", {"age"}, "persons", {"count"}, heavy_name) == Fraction(6, 7)
        heavy_props = AlignmentPolicy(etr_name_weight=Fraction(0))
        assert etr_pair_score("person", {"age"}, "persons", {"age"}, heavy_props) == 1

    def test_policy_range_checked(self):
        with pytest.raises(InvalidPolicyError):
            AlignmentPolicy(match_threshold=Fraction(3, 2))


def hospital_model(category="common"):
    """Model with one hospital etype carrying 4 own properties."""
    cqs = [make_cq("q", ["hospital"], [("hospital", "name")])]
    ds = make_schema(
        "d",
        "hospital",
        [
            ("code", "code", "identity"),
            ("name", "name", "attribute"),
            ("beds", "beds", "attribute"),
            ("municipality", "municipality", "attribute"),
        ],
        category=category,
    )
    return build_etg_model(cqs, [ds])


def health_ontology(popularity=10):
    return make_etg(
        "onto_health",
        ["facility", "hospital"],
        {
            "facility": ["operator"],
            "hospital": ["name", "beds", "address"],
        },
        subclass=[("hospital", "facility")],
        popularity=popularity,
    )


class TestEtrPredict:
    def test_threshold_inclusive(self):
        # name match 1, property Jaccard 2/5: score exactly 7/10
        model = hospital_model()
        vector = etr_predict(model, health_ontology(), AlignmentPolicy())
        best = vector.best_for("hospital")
        assert best is not None
        assert best.score == Fraction(7, 10)
        assert best.sharability == Fraction(2, 5)

    def test_below_threshold_dropped(self):
        model = hospital_model()
        vector = etr_predict(
            model, health_ontology(), AlignmentPolicy(match_threshold=Fraction(71, 100))
        )
        assert vector.best_for("hospital") is None

    def test_candidates_sorted_by_score(self):
        model = hospital_model()
        onto = make_etg(
            "o",
            ["hospital", "hospitals"],
            {"hospital": ["name", "beds", "address"], "hospitals": ["name", "beds", "address"]},
        )
        vector = etr_predict(model, onto, AlignmentPolicy(match_threshold=Fraction(1, 2)))
        ranked = vector.candidates["hospital"]
        assert [c.label for c in ranked] == ["hospital", "hospitals"]
        assert ranked[0].score > ranked[1].score


def bare_model(properties):
    """ETGModel over one ETG whose etypes are the keys of `properties`."""
    return ETGModel(
        etg=make_etg("m", list(properties), properties), provenance={}, etype_categories={}
    )


# identical names, a one-letter gap and a wide length gap all occur
etype_names = st.one_of(
    st.sampled_from(["a", "ab", "hospital", "hospitals", "hospitalhospitalhospital"]),
    st.text(alphabet="abh", min_size=1, max_size=12),
)
etype_graphs = st.dictionaries(etype_names, prop_sets, min_size=1, max_size=5)
policy_values = st.sampled_from(
    [Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(7, 10), Fraction(1)]
)


# names of one length, so pairs that share nothing can still reach the
# threshold through name similarity alone
four_letter_names = st.text(alphabet="abh", min_size=4, max_size=4)


@st.composite
def shared_property_case(draw):
    """A model and an ontology where many ontology etypes own the property
    `hub`, the etype `heir` owns none of it but inherits it from one of them,
    and a policy whose name weight covers the threshold, so equal-length
    names that share nothing are scored."""
    names = st.one_of(etype_names, four_letter_names)
    model_props = draw(st.dictionaries(names, prop_sets, min_size=1, max_size=5))
    hub_etype = draw(st.sampled_from(sorted(model_props)))
    model_props[hub_etype] = model_props[hub_etype] | {"hub"}
    onto_names = draw(st.lists(names.filter(lambda n: n != "heir"), min_size=1, max_size=20, unique=True))
    onto_props = {
        name: draw(prop_sets) | ({"hub"} if draw(st.booleans()) else set()) for name in onto_names
    }
    onto_props["heir"] = draw(prop_sets)
    parent = draw(st.sampled_from(onto_names))
    onto_props[parent] = onto_props[parent] | {"hub"}
    weight = draw(policy_values)
    threshold = draw(policy_values.filter(lambda t: t <= weight))
    onto = make_etg("o", list(onto_props), onto_props, subclass=[("heir", parent)])
    return bare_model(model_props), onto, AlignmentPolicy(match_threshold=threshold, etr_name_weight=weight)


class CountingNames(frozenset):
    """A property-name set that counts each `&` taken with it."""

    intersections = 0

    def __and__(self, other):
        CountingNames.intersections += 1
        return frozenset.__and__(self, other)

    __rand__ = __and__


class TestEtrPruning:
    @given(etype_graphs, etype_graphs, policy_values, policy_values)
    def test_candidates_equal_scan_oracle(self, model_props, onto_props, threshold, weight):
        model = bare_model(model_props)
        onto = make_etg("o", list(onto_props), onto_props)
        policy = AlignmentPolicy(match_threshold=threshold, etr_name_weight=weight)
        expected = scan_etr_predict(model, onto, policy)
        assert etr_predict(model, onto, policy).candidates == expected.candidates

    def count_similarity_calls(self, monkeypatch, policy):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return name_similarity(a, b)

        monkeypatch.setattr(alignment, "name_similarity", counting)
        model = bare_model({"hospital": ["name", "beds"], "person": ["age"], "site": []})
        onto = make_etg(
            "o",
            ["hospital", "hospitals", "facility", "place"],
            {"hospital": ["operator"], "facility": ["address"], "place": ["geo"]},
        )
        etr_predict(model, onto, policy)
        return len(calls)

    def test_disjoint_properties_are_never_scored(self, monkeypatch):
        # with no shared property the best reachable score is 1/2 < 7/10
        assert self.count_similarity_calls(monkeypatch, AlignmentPolicy()) == 0

    def test_threshold_zero_scores_every_pair(self, monkeypatch):
        policy = AlignmentPolicy(match_threshold=Fraction(0))
        assert self.count_similarity_calls(monkeypatch, policy) == 3 * 4

    @given(shared_property_case())
    def test_shared_properties_and_name_only_pairs_equal_scan_oracle(self, case):
        model, onto, policy = case
        assert onto.ancestors_of("heir") and "hub" not in onto.property_names("heir")
        expected = scan_etr_predict(model, onto, policy)
        assert etr_predict(model, onto, policy).candidates == expected.candidates

    def test_inherited_property_is_not_shared(self, monkeypatch):
        scored = []
        monkeypatch.setattr(
            alignment, "name_similarity", lambda a, b: scored.append((a, b)) or name_similarity(a, b)
        )
        model = bare_model({"hospital": ["name"]})
        onto = make_etg(
            "o",
            ["facility", "hospitals"],
            {"facility": ["name"], "hospitals": ["beds"]},
            subclass=[("hospitals", "facility")],
        )
        etr_predict(model, onto, AlignmentPolicy())
        # hospitals only inherits name, so its bound is 1/2 * 8/9 < 7/10
        assert scored == [("hospital", "facility")]

    def test_disjoint_ontology_intersects_no_property_sets(self, monkeypatch):
        # 2000 etypes that share no property with the model: under the default
        # policy none can reach the threshold, so none is looked at
        own_names = ETG.property_names
        monkeypatch.setattr(
            ETG, "property_names", lambda self, etype: CountingNames(own_names(self, etype))
        )
        monkeypatch.setattr(CountingNames, "intersections", 0)
        model = bare_model({"hospital": ["name", "beds"], "person": ["age"], "site": []})
        names = [f"etype{i:04d}" for i in range(2000)]
        onto = make_etg("o", names, {name: [f"{name}_code"] for name in names})
        assert etr_predict(model, onto, AlignmentPolicy()).candidates == {}
        assert CountingNames.intersections == 0


class TestRankOntologies:
    def test_requires_ontologies(self):
        with pytest.raises(NoOntologiesError):
            rank_ontologies(hospital_model(), {})

    def test_exclusion_and_order(self):
        model = hospital_model()
        relevant_hi = health_ontology(popularity=10)
        relevant_lo = make_etg(
            "onto_b", ["hospital"], {"hospital": ["name"]}, popularity=2
        )
        unrelated = make_etg("onto_x", ["galaxy"], {"galaxy": ["mass"]}, popularity=99)
        ranking = rank_ontologies(
            model,
            {"onto_health": relevant_hi, "onto_b": relevant_lo, "onto_x": unrelated},
        )
        assert ranking.ordered_ids() == ["onto_health", "onto_b"]
        assert ranking.excluded == (("onto_x", "shares no etype with the model"),)

    def test_popularity_dominates_coverage(self):
        model = build_etg_model(
            [make_cq("q", ["a", "b"])],
            [make_schema("d", "a", ["p"]), make_schema("d2", "b", ["q"])],
        )
        full_cov = make_etg("o_full", ["a", "b"], popularity=1)
        popular = make_etg("o_pop", ["a"], popularity=5)
        ranking = rank_ontologies(model, {"o_full": full_cov, "o_pop": popular})
        assert ranking.ordered_ids() == ["o_pop", "o_full"]


ALIGN_NAMES = ["hospital", "hospitl", "hospitals", "ward", "wards", "case"]
ALIGN_PROPS = ["p", "q", "r", "s"]


@st.composite
def alignment_cases(draw):
    """A model built from one query and one dataset per etype, some reference
    ontologies with data properties and acyclic subclass edges over similar
    names, and a policy whose low thresholds make adoption and renames common."""
    cqs, schemas = [], []
    for i, etype in enumerate(draw(st.lists(st.sampled_from(ALIGN_NAMES), min_size=1, max_size=4, unique=True))):
        queried = draw(st.lists(st.sampled_from(ALIGN_PROPS), max_size=3, unique=True))
        cqs.append(make_cq(f"q{i}", [etype], [(etype, p) for p in queried]))
        columns = draw(st.lists(st.sampled_from(ALIGN_PROPS), max_size=3, unique=True))
        category = draw(st.sampled_from(["common", "core", "contextual"]))
        schemas.append(make_schema(f"d{i}", etype, columns, category=category))
    ontologies = {}
    for i in range(draw(st.integers(1, 2))):
        etypes = draw(st.lists(st.sampled_from(ALIGN_NAMES), min_size=1, max_size=4, unique=True))
        props = {e: draw(st.lists(st.sampled_from(ALIGN_PROPS + ["t"]), max_size=3, unique=True)) for e in etypes}
        pairs = draw(st.lists(st.tuples(st.sampled_from(etypes), st.sampled_from(etypes)), max_size=4))
        # an edge runs from a later etype to an earlier one, so none closes a cycle
        edges = [(child, parent) for child, parent in pairs if etypes.index(child) > etypes.index(parent)]
        ontologies[f"o{i}"] = make_etg(f"o{i}", etypes, props, subclass=edges, popularity=draw(st.integers(0, 2)))
    threshold = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(7, 10)]))
    policy = AlignmentPolicy(match_threshold=threshold, core_adopt_threshold=draw(st.sampled_from([Fraction(0), Fraction(3, 4)])))
    return build_etg_model(cqs, schemas), ontologies, policy


@st.composite
def linked_alignment_cases(draw):
    """An `alignment_cases` case whose ontologies also hold object
    properties, each named after its range, between their own etypes."""
    model, ontologies, policy = draw(alignment_cases())
    linked = {}
    for ontology_id, ontology in ontologies.items():
        etypes = ontology.sorted_etypes()
        links = draw(st.lists(st.tuples(st.sampled_from(etypes), st.sampled_from(etypes)), max_size=3, unique=True))
        props = {
            etype: (*ontology.props_of(etype), *(PropertyDef(f"to_{r}", "object", range=r) for h, r in links if h == etype))
            for etype in etypes
        }
        linked[ontology_id] = ETG(*ontology._replace(properties=props))
    return model, linked, policy


def renamed_range_case():
    """Model etypes aab (p, q, r) and aac (x, y, z) adopt the ontology's aaa
    and aab, which hold those properties, so aab is a name in both the model
    and the ontology for different etypes. The ontology's holder.to ranges
    over its own aab, the etype holding x, y and z."""
    model = build_etg_model(
        [make_cq("q1", ["aab"], [("aab", "p")]), make_cq("q2", ["aac"], [("aac", "x")]), make_cq("q3", ["holder"], [("holder", "n")])],
        [
            make_schema("d1", "aab", ["p", "q", "r"], category="common"),
            make_schema("d2", "aac", ["x", "y", "z"], category="common"),
            make_schema("d3", "holder", ["n"], category="common"),
        ],
    )
    onto = make_etg(
        "o",
        ["aaa", "aab", "holder"],
        {"aaa": ["p", "q", "r"], "aab": ["x", "y", "z"], "holder": ["n", ("to", "object", "aab")]},
    )
    return model, {"o": onto}, AlignmentPolicy()


def common_model(owned):
    """A model of common etypes, each etype of `owned` from its own dataset
    with the properties listed for it, all of them queried."""
    return build_etg_model(
        [make_cq("q", list(owned), [(e, p) for e, props in owned.items() for p in props])],
        [make_schema(f"d_{e}", e, props, category="common") for e, props in owned.items()],
    )


def subclass_cycle_case():
    """Ontology a gives xx < yy and b gives yy < xx, and xx adopts from a and
    yy from b; c's zz < ww lies on no cycle."""
    ontologies = {
        "a": make_etg("a", ["xx", "yy"], {"xx": ["p"]}, subclass=[("xx", "yy")], popularity=5),
        "b": make_etg("b", ["xx", "yy"], {"yy": ["q"]}, subclass=[("yy", "xx")], popularity=1),
        "c": make_etg("c", ["zz", "ww"], {"zz": ["r"]}, subclass=[("zz", "ww")]),
    }
    return common_model({"xx": ["p"], "yy": ["q"], "zz": ["r"]}), ontologies, AlignmentPolicy()


SUBCLASS_POOL = ["xx", "yy", "zz"]


@st.composite
def subclass_cases(draw):
    """A model of two or more common etypes from a shared pool, and two or
    three valid ontologies of the whole pool with data properties only. Each
    ontology's random subclass edges run against one drawn order of the
    pool or against its reverse, so no ontology holds a cycle but two may
    form one together. The one or two etypes an ontology offers own the
    model's properties of that name, so they are candidates under the
    default policy; its other etypes own none and are not."""
    props = st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=2, unique=True)
    owned = {etype: draw(props) for etype in draw(st.lists(st.sampled_from(SUBCLASS_POOL), min_size=2, unique=True))}
    order = draw(st.permutations(SUBCLASS_POOL))
    ontologies = {}
    for ontology_id in ["a", "b", "c"][: draw(st.integers(2, 3))]:
        etypes = order if draw(st.booleans()) else order[::-1]
        edges = [(child, parent) for i, child in enumerate(etypes) for parent in etypes[:i] if draw(st.booleans())]
        offered = draw(st.lists(st.sampled_from(SUBCLASS_POOL), min_size=1, max_size=2, unique=True))
        own = {etype: owned.get(etype, ["r"]) if etype in offered else [] for etype in etypes}
        ontologies[ontology_id] = make_etg(ontology_id, etypes, own, subclass=edges, popularity=draw(st.integers(0, 3)))
    return common_model(owned), ontologies, AlignmentPolicy()


def align(model, ontologies, policy=None):
    policy = policy or AlignmentPolicy()
    ranking = rank_ontologies(model, ontologies)
    predictions = {
        oid: etr_predict(model, ontologies[oid], policy) for oid in ranking.ordered_ids()
    }
    return generate_etg(model, predictions, ranking, ontologies, policy)


class TestGenerateEtg:
    def test_common_adopts_and_pulls_ancestors(self):
        final, plan = align(hospital_model("common"), {"onto_health": health_ontology()})
        etypes = set(final.etypes)
        assert etypes == {"hospital", "facility"}
        hospital_props = set(final.property_names("hospital"))
        assert hospital_props == {"code", "name", "beds", "municipality", "address"}
        assert final.property_names("facility") == frozenset({"operator"})
        assert ("hospital", "facility") in final.subclass_edges
        (decision,) = plan.decisions
        assert decision.action == "adopt"
        assert decision.adopted_properties == ("address",)
        assert decision.adopted_parents == ("facility",)
        assert plan.adoption_rates == {"common": Fraction(1, 1)}

    def test_common_adopts_even_below_core_threshold(self):
        # score 7/10 is under the core bar of 3/4, yet category common adopts
        final, plan = align(hospital_model("common"), {"onto_health": health_ontology()})
        assert plan.decisions[0].score == Fraction(7, 10)
        assert plan.decisions[0].action == "adopt"

    def test_core_respects_adopt_threshold(self):
        _, plan = align(hospital_model("core"), {"onto_health": health_ontology()})
        (decision,) = plan.decisions
        assert decision.action == "keep"
        assert decision.candidate == "hospital"
        assert plan.adoption_rates["core"] == Fraction(0, 1)

    def test_core_adopts_at_exact_threshold(self):
        # identical name plus Jaccard 1/2 lands exactly on 3/4
        model = build_etg_model(
            [make_cq("q", ["ward"], [("ward", "a"), ("ward", "b")])],
            [make_schema("d", "ward", ["a", "b"], category="core")],
        )
        onto = make_etg("o", ["ward"], {"ward": ["a", "b", "c", "d"]})
        _, plan = align(model, {"o": onto})
        (decision,) = plan.decisions
        assert decision.score == Fraction(3, 4)
        assert decision.action == "adopt"

    def test_contextual_never_renamed(self):
        _, plan = align(hospital_model("contextual"), {"onto_health": health_ontology()})
        (decision,) = plan.decisions
        assert decision.action == "keep"
        assert plan.rename_map == {}

    def test_rename_rewrites_object_ranges(self):
        cqs = [
            make_cq("q", ["covid_case", "hospitl"], [("covid_case", "hospitl")]),
        ]
        ds = make_schema(
            "d",
            "hospitl",
            [("name", "name", "attribute"), ("beds", "beds", "attribute")],
            category="common",
        )
        overrides = {
            "covid_case.hospitl": PropertyDef(name="hospitl", kind="object", range="hospitl")
        }
        model = build_etg_model(cqs, [ds], overrides)
        # covid_case shared by name keeps the ontology in the ranking;
        # hospitl itself only matches after the rename this test checks
        onto = make_etg(
            "o", ["hospital", "covid_case"], {"hospital": ["name", "beds"]}
        )
        final, plan = align(model, {"o": onto})
        assert plan.rename_map == {"hospitl": "hospital"}
        case_props = {p.name: p for p in final.props_of("covid_case")}
        assert case_props["hospitl"].range == "hospital"
        etypes = set(final.etypes)
        assert "hospitl" not in etypes and "hospital" in etypes

    def test_model_definition_wins_on_clash(self):
        # model declares beds as integer-typed; ontology's string-typed beds must not replace it
        cqs = [make_cq("q", ["hospital"], [("hospital", "beds"), ("hospital", "name")])]
        ds = make_schema("d", "hospital", [("name", "name", "attribute"), ("beds", "beds", "attribute")], category="common")
        model = build_etg_model(
            cqs, [ds], {"hospital.beds": PropertyDef(name="beds", datatype="integer")}
        )
        onto = make_etg("o", ["hospital"], {"hospital": [("beds", "data", "string"), "name"]})
        final, _ = align(model, {"o": onto})
        props = {p.name: p for p in final.props_of("hospital")}
        assert props["beds"].datatype == "integer"

    def test_query_elements_survive_rename(self):
        model = hospital_model("common")
        final, plan = align(model, {"onto_health": health_ontology()})
        final_etypes = set(final.etypes)
        final_pairs = {
            compound_key(e, p.name) for e in final.etypes for p in final.props_of(e)
        }
        for element, source in model.provenance.items():
            if source != "from_cq":
                continue
            if "." in element:
                etype, _, prop = element.partition(".")
                renamed = plan.rename_map.get(etype, etype)
                assert f"{renamed}.{prop}" in final_pairs
            else:
                assert plan.rename_map.get(element, element) in final_etypes

    def test_final_id_derived_from_model(self):
        final, _ = align(hospital_model(), {"onto_health": health_ontology()})
        assert final.id == "purpose-etg"

    def test_deterministic_documents(self):
        ontos = {"onto_health": health_ontology(), "onto_b": make_etg("onto_b", ["hospital"], {"hospital": ["name"]})}
        first_final, first_plan = align(hospital_model(), dict(ontos))
        second_final, second_plan = align(hospital_model(), dict(reversed(list(ontos.items()))))
        assert etg_to_doc(first_final) == etg_to_doc(second_final)
        assert plan_to_json(first_plan) == plan_to_json(second_plan)

    @given(alignment_cases())
    def test_every_model_element_survives_under_the_rename_map(self, case):
        model, ontologies, policy = case
        final, plan = align(model, ontologies, policy)
        for element, _source in model.provenance.items():
            etype, _, prop = element.partition(".")
            renamed = plan.rename_map.get(etype, etype)
            assert renamed in final.etypes
            if prop:
                assert prop in final.property_names(renamed)

    def test_adopted_property_whose_range_is_left_out_names_its_ontology(self):
        onto = make_etg(
            "onto_health",
            ["facility", "hospital", "municipality"],
            {"facility": [("located_in", "object", "municipality")], "hospital": ["name", "beds", "address"]},
            subclass=[("hospital", "facility")],
        )
        with pytest.raises(UnadoptedRangeError) as caught:
            align(hospital_model("common"), {"onto_health": onto})
        assert caught.value.ontology_ids == ("onto_health",)
        assert str(caught.value) == (
            "adopting hospital brings in facility.located_in, whose range etype municipality "
            "is not in the final graph"
        )

    def test_ontology_range_keeps_its_ontology_name(self):
        model, ontologies, policy = renamed_range_case()
        final, plan = align(model, ontologies, policy)
        assert plan.rename_map == {"aab": "aaa", "aac": "aab"}
        assert {p.name: p.range for p in final.props_of("holder")} == {"n": None, "to": "aab"}
        assert final.property_names("aab") == {"x", "y", "z"}

    @given(linked_alignment_cases())
    @example(renamed_range_case())
    def test_ontology_ranges_hold_their_ontology_properties(self, case):
        """Every property an ontology contributes keeps its definition, range
        included, and when that range etype was pulled in from the same
        ontology the final graph's etype of that name holds its properties."""
        model, ontologies, policy = case
        try:
            final, plan = align(model, ontologies, policy)
        except OntologyConflictError:
            return
        pulled = {
            (d.ontology, etype)
            for d in plan.decisions
            if d.action == "adopt"
            for etype in (d.candidate, *d.adopted_parents)
        }
        for (holder, name), ontology_id in scan_pulled_properties(model, plan, ontologies).items():
            ontology = ontologies[ontology_id]
            (written,) = [p for p in ontology.props_of(holder) if p.name == name]
            assert written in final.props_of(holder)
            if written.kind == "object" and (ontology_id, written.range) in pulled:
                assert ontology.property_names(written.range) <= final.property_names(written.range)

    def test_model_definition_wins_on_clash_across_etypes(self):
        # ward adopts ward, a subclass of zone, and sorts before the model's
        # own zone: the ontology's zone.beds must not replace the model's
        model = build_etg_model(
            [make_cq("q1", ["ward"], [("ward", "name")]), make_cq("q2", ["zone"], [("zone", "beds")])],
            [make_schema("d1", "ward", ["name"], category="common"), make_schema("d2", "zone", ["beds"], category="contextual")],
            {"zone.beds": PropertyDef(name="beds", datatype="integer")},
        )
        onto = make_etg(
            "o", ["ward", "zone"], {"ward": ["name"], "zone": [("beds", "data", "string")]}, subclass=[("ward", "zone")]
        )
        final, plan = align(model, {"o": onto})
        assert [d.action for d in plan.decisions] == ["adopt", "keep"]
        assert final.props_of("zone") == (PropertyDef(name="beds", datatype="integer"),)

    def test_subclass_cycle_joined_from_two_ontologies_names_them(self):
        model, ontologies, policy = subclass_cycle_case()
        with pytest.raises(SubclassCycleError) as caught:
            align(model, ontologies, policy)
        assert caught.value.ontology_ids == ("a", "b")
        assert str(caught.value) == (
            "joining the subclass edges of a, b gives an invalid schema graph: "
            "subclass_cycle: subclass edge (yy, xx) closes a cycle"
        )

    @settings(max_examples=200)
    @given(subclass_cases())
    @example(subclass_cycle_case())
    def test_subclass_edges_are_the_adopted_closures_or_a_named_cycle(self, case):
        """The final graph's subclass edges are exactly each adopting
        decision's ontology's edges among its label and that label's
        ancestors; where those edges close a cycle, SubclassCycleError names
        two or more ontologies in ranking order, and nothing else escapes."""
        model, ontologies, policy = case
        try:
            final, plan = align(model, ontologies, policy)
        except SubclassCycleError as exc:
            ranked = rank_ontologies(model, ontologies).ordered_ids()
            assert len(exc.ontology_ids) >= 2
            assert list(exc.ontology_ids) == [oid for oid in ranked if oid in exc.ontology_ids]
            return
        closures = set()
        for decision in plan.decisions:
            if decision.action == "adopt":
                ontology = ontologies[decision.ontology]
                chain = {decision.candidate, *scan_ancestors(ontology, decision.candidate)}
                assert chain == {decision.candidate, *decision.adopted_parents}
                closures |= {(c, p) for c, p in ontology.subclass_edges if c in chain and p in chain}
        assert final.subclass_edges == closures

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10), Fraction(1)]),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10), Fraction(1)]),
    )
    def test_core_adoption_monotone_in_threshold(self, overlaps, t1, t2):
        lo, hi = sorted([t1, t2])
        pool = ["p0", "p1", "p2", "p3"]
        cqs = []
        schemas = []
        onto_props = {}
        for i, k in enumerate(overlaps):
            etype = f"etype{i}"
            cqs.append(make_cq(f"q{i}", [etype]))
            schemas.append(make_schema(f"d{i}", etype, pool, category="core"))
            # k shared properties and 4 - k fresh ones on the ontology side
            onto_props[etype] = pool[:k] + [f"x{i}{j}" for j in range(4 - k)]
        onto = make_etg("o", list(onto_props), onto_props)

        def core_rate(threshold):
            model = build_etg_model(cqs, schemas)
            policy = AlignmentPolicy(match_threshold=Fraction(0), core_adopt_threshold=threshold)
            _, plan = align(model, {"o": onto}, policy)
            return plan.adoption_rates["core"]

        assert core_rate(hi) <= core_rate(lo)


class TestEvalAlignment:
    def test_two_entries_per_ontology(self):
        model = hospital_model()
        ontologies = {"onto_health": health_ontology()}
        ranking = rank_ontologies(model, ontologies)
        final, _ = align(model, ontologies)
        report = eval_alignment(final, ranking, ontologies)
        assert report.gate == "eval_c"
        assert [(e.resource, e.elements) for e in report.entries] == [
            ("onto_health", "etypes"),
            ("onto_health", "properties"),
        ]
        assert report.verdict == "pass"

    def test_no_overlap_noted(self):
        model = hospital_model()
        ontologies = {"onto_x": make_etg("onto_x", ["galaxy"])}
        ranking = rank_ontologies(model, ontologies)
        report = eval_alignment(model.etg, ranking, ontologies)
        assert report.entries == ()
        assert any("nothing to align against" in n for n in report.notes)

    def test_ranking_json_shape(self):
        model = hospital_model()
        ontologies = {"onto_health": health_ontology()}
        _, plan = align(model, ontologies)
        doc = plan_to_json(plan)["ontology_ranking"]
        assert doc["included"][0]["id"] == "onto_health"
        assert doc["excluded"] == []
