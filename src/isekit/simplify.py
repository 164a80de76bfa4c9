"""Compress families of discovered SE-conditions into short formulas.

A clique is a 2^x-sized family of conditions forming a subcube of the
condition lattice: pick a max condition with non-empty sets U and a free set
D ⊆ U; the family holds one condition per subset between U−D and U, each with
its singletons projected from the max. A clique collapses into a single
conjunction (Sim): common non-empty sets, common empty sets, and |I|<=1 for
the max's singletons. Conditions not covered by any maximal clique are kept
verbatim as residual disjuncts, so the output is always complete.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .isets import ISCondition


@dataclass(frozen=True)
class Clique:
    """The cube [low, max_member.nis]: one member per nis between the two,
    each with sis = nis ∩ max_member.sis."""

    max_member: ISCondition
    low: frozenset[int]


@dataclass(frozen=True)
class SimplifiedCondition:
    nonempty: tuple[int, ...]
    empty: tuple[int, ...]
    at_most_one: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "nonempty": list(self.nonempty),
            "empty": list(self.empty),
            "at_most_one": list(self.at_most_one),
        }

    @classmethod
    def from_json(cls, obj) -> "SimplifiedCondition":
        return cls(tuple(obj["nonempty"]), tuple(obj["empty"]), tuple(obj["at_most_one"]))

    def format(self) -> str:
        parts = [f"I_{k} ≠ ∅" for k in self.nonempty]
        parts += [f"I_{k} = ∅" for k in self.empty]
        parts += [f"|I_{k}| ≤ 1" for k in self.at_most_one]
        return " ∧ ".join(parts) if parts else "⊤"


@dataclass
class SimplifyResult:
    disjuncts: list[SimplifiedCondition]
    cliques: list[Clique]
    residual: list[ISCondition]

    def to_json(self) -> dict:
        return {
            "disjuncts": [d.to_json() for d in self.disjuncts],
            "residual": [c.to_json() for c in self.residual],
        }


def sis_irrelevant_partition(mgic: Iterable[ISCondition]) -> list[list[ISCondition]]:
    """Maximal subsets whose singleton constraints cannot block a clique.

    Two defining predicates: all-sis-empty, or nis ∩ (union of all sis) = sis.
    Returns the deduplicated maximal subsets, largest first.
    """
    conds = list(mgic)
    if not conds:
        return []
    ic_s = set()
    for c in conds:
        ic_s |= c.sis
    s1 = [c for c in conds if not c.sis]
    s2 = [c for c in conds if c.nis & ic_s == c.sis]
    subsets = []
    for s in (s1, s2):
        if s and not any(set(s) == set(t) for t in subsets):
            subsets.append(s)
    subsets.sort(key=len, reverse=True)
    return subsets


def _mask(names) -> int:
    m = 0
    for v in names:
        m |= 1 << v
    return m


def find_max_cliques(subset: Iterable[ISCondition]) -> list[Clique]:
    """All maximal cliques of a SIS-irrelevant condition set.

    Every maximal clique is a cube [low, U] under a maximal condition U (a
    top). For a top with singletons S, a free set F = U − nis collects the
    members below U whose sis is nis ∩ S; [U − F, U] is a clique iff every
    subset of F is such a free set. Free sets are visited in ascending
    integer order, so each F − {e} is decided before F, and the cost is
    linear in the members under U. Tops form an antichain and the low
    corners of one top do too, so no clique found here contains another.
    """
    by_mask = {_mask(c.nis): c for c in subset}
    tops: list[int] = []
    for n in sorted(by_mask, key=int.bit_count, reverse=True):
        if not any(n & ~t == 0 for t in tops):
            tops.append(n)
    cliques: list[Clique] = []
    for U in tops:
        top = by_mask[U]
        S = _mask(top.sis)
        free_sets = sorted(U & ~n for n, c in by_mask.items()
                           if n & ~U == 0 and _mask(c.sis) == n & S)
        bits = [1 << v for v in top.nis]
        valid: set[int] = set()
        extendable: set[int] = set()
        for F in free_sets:
            drops = [F ^ b for b in bits if F & b]
            if valid.issuperset(drops):
                valid.add(F)
                extendable.update(drops)
        for F in valid - extendable:
            low = frozenset(v for v in top.nis if not F >> v & 1)
            cliques.append(Clique(max_member=top, low=low))
    cliques.sort(key=_clique_order)
    return cliques


def _clique_order(c: Clique):
    """Largest cube first (|U − low| free names), then by top and low."""
    return (len(c.low) - len(c.max_member.nis), c.max_member.sort_key(), sorted(c.low))


def _cube_sim(low: frozenset[int], top: ISCondition) -> SimplifiedCondition:
    return SimplifiedCondition(
        nonempty=tuple(sorted(low)),
        empty=tuple(v for v in range(1, 1 << (3 * top.n_rules)) if v not in top.nis),
        at_most_one=tuple(sorted(top.sis)),
    )


def sim(clique: Clique) -> SimplifiedCondition:
    """The conjunction of a cube [low, U]: low non-empty, all names outside U
    empty, and the top's singletons of size at most one."""
    return _cube_sim(clique.low, clique.max_member)


def condition_as_sim(c: ISCondition) -> SimplifiedCondition:
    """A lone condition rendered in the same conjunctive vocabulary."""
    return _cube_sim(c.nis, c)


def simplify(mgic: Iterable[ISCondition]) -> SimplifyResult:
    """Raises ValueError if two conditions share a nis: cliques and the
    residual test match conditions by nis alone."""
    conds = list(mgic)
    if len({c.nis for c in conds}) < len(conds):
        raise ValueError("two conditions share a nis")
    if not conds:
        return SimplifyResult(disjuncts=[], cliques=[], residual=[])
    cliques: list[Clique] = []
    for subset in sis_irrelevant_partition(conds):
        cliques.extend(find_max_cliques(subset))
    # keep cliques maximal across partition subsets, deduplicated; a cube
    # holds another iff its interval [low, U] contains the other's
    spans = {(c.low, c.max_member.nis): c for c in cliques}
    out = sorted((c for (lo, hi), c in spans.items()
                  if not any(l2 <= lo and hi <= h2 and (l2, h2) != (lo, hi)
                             for l2, h2 in spans)),
                 key=_clique_order)
    residual = sorted((c for c in conds
                       if not any(k.low <= c.nis <= k.max_member.nis for k in out)),
                      key=ISCondition.sort_key)
    disjuncts = [sim(c) for c in out] + [condition_as_sim(c) for c in residual]
    return SimplifyResult(disjuncts=disjuncts, cliques=out, residual=residual)


# --- semantic checks over size assignments ---------------------------------
# an assignment gives each set name a size class: 0 (empty), 1 (singleton),
# or 2 (two or more atoms)

def condition_holds(c: ISCondition, sizes: dict[int, int]) -> bool:
    for k, v in sizes.items():
        if k in c.sis:
            if v != 1:
                return False
        elif k in c.nis:
            if v == 0:
                return False
        else:
            if v != 0:
                return False
    return all(sizes.get(k, 0) >= 1 for k in c.nis)


def sim_holds(s: SimplifiedCondition, sizes: dict[int, int]) -> bool:
    return (
        all(sizes.get(k, 0) >= 1 for k in s.nonempty)
        and all(sizes.get(k, 0) == 0 for k in s.empty)
        and all(sizes.get(k, 0) <= 1 for k in s.at_most_one)
    )
