"""The match index: what matching keeps of the graph that a run builds,
and how it finds the entities that a record may denote.

Two entities of one etype are compared by their `Entity.value_sets` maps
(`integration._same_entity`). An etype's `EtypeIndex` holds each of its
entities' maps, built when a dataset first probes the etype and then updated
in place: the builder (`integration._GraphBuilder`) records each entity it
changes, and the next dataset that probes the etype builds only the maps of
the entities changed or added since (Gruenheid, Dong and Srivastava,
"Incremental Record Linkage", PVLDB 2014). Equal value sets are one object.

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
The probe tables and the blocks are built per `match_entities` call, over
the etype's whole signature groups.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from .model import Entity

# A signature probe builds and hashes a tuple of value sets, and fills a table
# on its signature's first probe in a call; one entity of a scanned block costs
# a set insertion. Matching 3000 sparse rows (a town and 12 optional
# properties) against 3000 took 18.3 s when every record probed, 2.3 s when
# every record scanned, 2.8 s with a weight of 4 and 2.3 s with 8 or 16
# (CPython 3.11.7, Xeon).
PROBE_WEIGHT = 8


class EtypeIndex:
    """What matching keeps of one etype's entities: each one's
    `Entity.value_sets` map, the entities grouped by signature (the key set
    of that map), and for each (property, value set) entry the one set
    object that the entities holding it share, with how many hold it.
    `stale` maps each id changed since the maps were last brought up to
    date to the version they hold of it, None if they hold none."""

    def __init__(self, etype: str) -> None:
        self.etype = etype
        self.sets: dict[str, dict[str, frozenset[str]]] = {}
        self.groups: dict[frozenset[str], set[str]] = {}
        self.entries: dict[tuple[str, frozenset[str]], tuple[frozenset[str], int]] = {}
        self.stale: dict[str, Entity | None] = {}

    @classmethod
    def of(cls, entities: Mapping[str, Entity], etype: str) -> EtypeIndex:
        """The index of the entities of `etype`, built anew."""
        index = cls(etype)
        index.stale = {entity_id: None for entity_id, entity in entities.items() if entity.etype == etype}
        index.refresh(entities)
        return index

    def refresh(self, entities: Mapping[str, Entity]) -> None:
        """Bring the maps of the `stale` ids up to date with `entities`. A
        version keeps the held one's map when it keeps its `data_values`, its
        (property, text) pairs or its sets; a set equal to one the etype holds
        is replaced by that one."""
        for entity_id, held in self.stale.items():
            entity = entities.get(entity_id)
            value_sets = self.sets.get(entity_id)
            if entity is None or entity.etype != self.etype:
                if value_sets is not None:
                    self._tally(entity_id, value_sets, -1)
                continue
            if value_sets is not None:
                # the same (property, text) pairs, say from one more source, give the same sets
                if held.data_values is entity.data_values or {t[:2] for t in entity.data_values} == {t[:2] for t in held.data_values}:
                    continue
            built = {prop: self.entries.get((prop, values), (values,))[0] for prop, values in entity.value_sets().items()}
            if value_sets is not None:
                if built == value_sets:
                    continue
                self._tally(entity_id, value_sets, -1)
            self._tally(entity_id, built, 1)
        self.stale.clear()

    def _tally(self, entity_id: str, value_sets: dict[str, frozenset[str]], sign: int) -> None:
        signature = frozenset(value_sets)
        if sign > 0:
            self.sets[entity_id] = value_sets
            self.groups.setdefault(signature, set()).add(entity_id)
        else:
            del self.sets[entity_id]
            members = self.groups[signature]
            members.discard(entity_id)
            if not members:
                del self.groups[signature]
        for entry in value_sets.items():
            shared, count = self.entries.get(entry, (entry[1], 0))
            if count + sign:
                self.entries[entry] = (shared, count + sign)
            else:
                del self.entries[entry]

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
