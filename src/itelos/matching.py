"""The match index: what `integration.match_entities` keeps of the graph
from one dataset to the next, and how it finds the entities that a record
may denote.

Two entities of one etype are compared by their `Entity.value_sets` maps
(`integration._same_entity`). An etype's `EtypeIndex` holds each of its
entities' maps, built when a dataset first probes the etype and then carried
from graph to graph: the next dataset that probes it builds only the maps of
the entity versions changed or added since, and copies the rest (Gruenheid,
Dong and Srivastava, "Incremental Record Linkage", PVLDB 2014). Equal value
sets are one object.

A record of the etype, with populated properties P, needs the first entity
in id order that `_same_entity` accepts. It finds it by exact blocking
(Christen, "A Survey of Indexing Techniques for Scalable Record Linkage and
Deduplication", TKDE 2012), by one of two routes:
- the block scan tries, in id order, the entities that share a (property,
  value set) entry with it, since `_same_entity` accepts no other;
- the signature probe uses that all the entities whose maps have the key set
  S are compared on the same properties: the identity keys when every one is
  in S and in P, else S ∩ P. One lookup per signature, in a table from the
  value sets on those properties to the smallest id, finds the group's first
  match, and the smallest over all signatures is the answer.
A record takes the probe when its blocks hold at least `PROBE_WEIGHT` times
as many entities as the etype has signatures. Both routes are exact, so the
choice changes only the cost: `_same_entity` runs once per probed record.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import EG, Entity

# A signature probe builds and hashes a tuple of value sets, and fills a table
# on its signature's first probe in a call; one entity of a scanned block costs
# a set insertion. Matching 3000 sparse rows (a town and 12 optional
# properties) against 3000 took 18.3 s when every record probed, 2.3 s when
# every record scanned, 2.8 s with a weight of 4 and 2.3 s with 8 or 16
# (CPython 3.11.7, Xeon).
PROBE_WEIGHT = 8


class EtypeIndex(NamedTuple):
    """What matching keeps of one etype's entities: each one's
    `Entity.value_sets` map, the entities grouped by signature (the key set
    of that map), and for each (property, value set) entry the one set
    object that the entities holding it share, with how many hold it."""

    sets: Mapping[str, Mapping[str, frozenset[str]]]
    groups: Mapping[frozenset[str], frozenset[str]]
    entries: Mapping[tuple[str, frozenset[str]], tuple[frozenset[str], int]]

    def candidates(
        self, candidate_sets: Mapping[str, frozenset[str]], keys: Sequence[str], cache: tuple[dict, dict]
    ) -> list[str]:
        """The ids of the entities to compare with a record's value sets, in
        the order to try them: none when it shares no entry; one, the match,
        when it takes the signature probe; else its blocks' ids in order.
        `cache` holds one call's probe tables and blocks, built on first use."""
        shared = sum(self.entries.get(entry, (None, 0))[1] for entry in candidate_sets.items())
        if not shared:
            return []
        tables, blocks = cache
        if PROBE_WEIGHT * len(self.groups) <= shared:
            hit = self._probe(candidate_sets, keys, tables)
            return [] if hit is None else [hit]
        if not blocks:
            for entity_id, sets in self.sets.items():
                for entry in sets.items():
                    blocks.setdefault(entry, []).append(entity_id)
        return sorted({i for entry in candidate_sets.items() for i in blocks.get(entry, ())})

    def _probe(self, candidate_sets: Mapping[str, frozenset[str]], keys: Sequence[str], tables: dict) -> str | None:
        """The smallest id that `_same_entity` accepts: one lookup per signature."""
        populated = candidate_sets.keys()
        keyed = bool(keys) and all(key in populated for key in keys)
        best = None
        for signature, ids in self.groups.items():
            props = keys if keyed and signature.issuperset(keys) else tuple(sorted(signature.intersection(populated)))
            if not props:
                continue
            probe = tables.get((signature, props))
            if probe is None:
                # value sets on `props`, one set alone when there is one property
                get = itemgetter(*props)
                table: dict = {}
                for entity_id in ids:
                    value = get(self.sets[entity_id])
                    if value not in table or entity_id < table[value]:
                        table[value] = entity_id
                probe = tables[signature, props] = (get, table)
            get, table = probe
            hit = table.get(get(candidate_sets))
            if hit is not None and (best is None or hit < best):
                best = hit
        return best


_NO_ENTITIES = EtypeIndex({}, {}, {})


class MatchIndex(NamedTuple):
    """The index of the graph `entities`: an `EtypeIndex` for each etype that
    a dataset has probed, and for each such etype the changes since, in
    order, as (removed versions, added versions) pairs. `index_of` applies
    an etype's changes when a dataset probes it again, so the last dataset
    of an etype builds no maps for the graph it leaves. An etype with no
    entity has an empty `EtypeIndex`, which `moved_index` drops: an etype
    that no later dataset shares is never indexed."""

    entities: Mapping[str, Entity]
    etypes: Mapping[str, EtypeIndex]
    behind: Mapping[str, tuple[tuple[Sequence[Entity], Sequence[Entity]], ...]]


def _indexed(old: EtypeIndex, removed: Sequence[Entity], added: Sequence[Entity]) -> EtypeIndex:
    """`old` less the `removed` entity versions, plus the `added` ones, in new
    mappings: `old` stays as it is. An added version keeps the value sets of
    the removed one under its id when it keeps its `data_values` object, its
    (property, text) pairs or its sets; the others' are built once, and a set
    equal to one the etype holds is replaced by that one."""
    sets = dict(old.sets)
    entries = dict(old.entries)
    members: dict[frozenset[str], set[str]] = {}  # the ids of each changed group

    def tally(entity_id: str, value_sets: Mapping[str, frozenset[str]], sign: int) -> None:
        signature = frozenset(value_sets)
        if signature not in members:
            members[signature] = set(old.groups.get(signature, ()))
        if sign > 0:
            sets[entity_id] = value_sets
            members[signature].add(entity_id)
        else:
            del sets[entity_id]
            members[signature].discard(entity_id)
        for entry in value_sets.items():
            shared, count = entries.get(entry, (entry[1], 0))
            if count + sign:
                entries[entry] = (shared, count + sign)
            else:
                del entries[entry]

    kept = {entity.id: entity.data_values for entity in removed}
    for entity in added:
        value_sets = sets.get(entity.id)
        if value_sets is not None:
            data_values = kept.pop(entity.id)
            # the same (property, text) pairs, say from one more source, give the same sets
            if data_values is entity.data_values or {t[:2] for t in entity.data_values} == {t[:2] for t in data_values}:
                continue
        built = {prop: entries.get((prop, values), (values,))[0] for prop, values in entity.value_sets().items()}
        if value_sets is not None:
            if built == value_sets:
                continue
            tally(entity.id, value_sets, -1)
        tally(entity.id, built, 1)
    for entity_id in kept:
        tally(entity_id, sets[entity_id], -1)
    groups = dict(old.groups)
    for signature, ids in members.items():
        if ids:
            groups[signature] = frozenset(ids)
        else:
            del groups[signature]
    return EtypeIndex(sets, groups, entries)


def index_of(eg: EG, index: MatchIndex | None, etypes: Iterable[str]) -> MatchIndex:
    """`index` if it describes `eg.entities`, else an empty index of them,
    with each of `etypes` brought up to date, or indexed if it is not."""
    if index is None or index.entities is not eg.entities:
        index = MatchIndex(eg.entities, {}, {})
    wanted = set(etypes)
    late = wanted & index.behind.keys()
    members: dict[str, list[Entity]] = {etype: [] for etype in wanted - index.etypes.keys()}
    if not late and not members:
        return index
    indexes = dict(index.etypes)
    behind = dict(index.behind)
    for etype in late:
        for gone, new in behind.pop(etype):
            indexes[etype] = _indexed(indexes[etype], gone, new)
    if members:
        for entity in eg.entities.values():
            if entity.etype in members:
                members[entity.etype].append(entity)
        for etype, held in members.items():
            indexes[etype] = _indexed(_NO_ENTITIES, (), held) if held else _NO_ENTITIES
    return MatchIndex(eg.entities, indexes, behind)


def moved_index(
    index: MatchIndex, entities: Mapping[str, Entity], removed: Sequence[Entity], added: Sequence[Entity]
) -> MatchIndex:
    """The index of `entities`, the graph that `index`'s became when its
    `removed` entity versions gave way to the `added` ones: each indexed
    etype records its share of the change."""
    changes = {etype: ([], []) for etype, held in index.etypes.items() if held.sets}
    for side, versions in enumerate((removed, added)):
        for entity in versions:
            if entity.etype in changes:
                changes[entity.etype][side].append(entity)
    behind = {etype: steps for etype, steps in index.behind.items() if etype in changes}
    for etype, (gone, new) in changes.items():
        if gone or new:
            behind[etype] = behind.get(etype, ()) + ((gone, new),)
    return MatchIndex(entities, {etype: index.etypes[etype] for etype in changes}, behind)
