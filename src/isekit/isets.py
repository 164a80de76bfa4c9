"""Independent-set calculus.

Every atom of an n-rule tuple lies in a unique membership pattern across the
3n sets (head, pbody, nbody per rule); the pattern, read as a 3n-bit binary
number with rule 1's head as the most significant bit, names the independent
set holding the atom. Per rule, the 3 pattern bits form an octal "local"
digit: 4 = head-only, 2 = pbody-only, 1 = nbody-only, combinations for the
overlaps, 0 = absent from that rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .program import Program, ProgramTuple, Rule, Universe, bits


class ShapeMismatchError(ValueError):
    pass


def locals_from_name(value: int, n_rules: int) -> list[int]:
    """Octal digits of the set name, most significant digit = rule 1."""
    if not 1 <= value < 1 << (3 * n_rules):
        raise ValueError(f"set name {value} out of range for {n_rules} rules")
    out = []
    for k in range(n_rules - 1, -1, -1):
        out.append((value >> (3 * k)) & 7)
    return out


def name_from_locals(digits: Iterable[int]) -> int:
    value = 0
    for d in digits:
        if not 0 <= d <= 7:
            raise ValueError(f"local index {d} out of range")
        value = (value << 3) | d
    if value == 0:
        raise ValueError("all-zero pattern does not name an independent set")
    return value


def classify_locals(value: int, n_rules: int) -> list[tuple[bool, bool, bool]]:
    """Per-rule (in_head, in_pbody, in_nbody) membership flags."""
    return [(bool(d & 4), bool(d & 2), bool(d & 1)) for d in locals_from_name(value, n_rules)]


def extract_isets(T: ProgramTuple) -> dict[int, int]:
    """Bucket each atom of at(T) under its membership-pattern name.

    Only non-empty buckets are returned; values are atom masks.
    """
    rules = T.rules
    out: dict[int, int] = {}
    for a in bits(T.atoms()):
        bit = 1 << a
        name = 0
        for r in rules:
            digit = (4 if r.head & bit else 0) | (2 if r.pbody & bit else 0) | (1 if r.nbody & bit else 0)
            name = (name << 3) | digit
        out[name] = out.get(name, 0) | bit
    return out


def _rules_of(n_rules: int, assignment: dict[int, int]) -> list[Rule]:
    """Rules in which each atom mask of the assignment forms the set it is keyed by."""
    heads = [0] * n_rules
    pbodies = [0] * n_rules
    nbodies = [0] * n_rules
    for name, mask in assignment.items():
        for k in range(n_rules):
            d = (name >> (3 * (n_rules - 1 - k))) & 7
            if d & 4:
                heads[k] |= mask
            if d & 2:
                pbodies[k] |= mask
            if d & 1:
                nbodies[k] |= mask
    return [Rule(heads[k], pbodies[k], nbodies[k]) for k in range(n_rules)]


def _tuple_of(universe: Universe, sizes: tuple[int, ...], rules: list[Rule]) -> ProgramTuple:
    programs = []
    i = 0
    for size in sizes:
        programs.append(Program(rules=tuple(rules[i:i + size]), universe=universe))
        i += size
    return ProgramTuple(programs=tuple(programs), segment_sizes=sizes, universe=universe)


def reconstruct_tuple(universe: Universe, segment_sizes: Iterable[int],
                      assignment: dict[int, int]) -> ProgramTuple:
    """Inverse of extract_isets for a given shape."""
    sizes = tuple(segment_sizes)
    n = sum(sizes)
    for name in assignment:
        if not 1 <= name < 1 << (3 * n):
            raise ShapeMismatchError(f"set name {name} does not fit a {n}-rule tuple")
    seen = 0
    for mask in assignment.values():
        if seen & mask:
            raise ValueError("assignment masks must be pairwise disjoint")
        seen |= mask
    return _tuple_of(universe, sizes, _rules_of(n, assignment))


@dataclass(frozen=True)
class ISCondition:
    """Pattern over independent sets: nis non-empty, sis ⊆ nis singletons.

    The empty sets are implicit: every name in [1, 2^(3(k+m+n))) outside nis.
    """

    shape: tuple[int, int, int]
    nis: frozenset[int]
    sis: frozenset[int]

    def __post_init__(self):
        if not self.sis <= self.nis:
            raise ValueError("sis must be a subset of nis")
        top = 1 << (3 * sum(self.shape))
        for v in self.nis:
            if not 1 <= v < top:
                raise ValueError(f"name {v} out of range for shape {self.shape}")

    @property
    def n_rules(self) -> int:
        return sum(self.shape)

    def sort_key(self):
        return (len(self.nis), sorted(self.nis), sorted(self.sis))

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "nis": sorted(self.nis),
            "sis": sorted(self.sis),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ISCondition":
        return cls(
            shape=tuple(obj["shape"]),
            nis=frozenset(obj["nis"]),
            sis=frozenset(obj["sis"]),
        )


def make_condition(shape, nis, sis=None) -> ISCondition:
    nis = frozenset(nis)
    sis = nis if sis is None else frozenset(sis)
    return ISCondition(shape=tuple(shape), nis=nis, sis=sis)


def canonical_rules(shape, nis, sis) -> list[Rule]:
    """Rules of the smallest witness tuple of the condition (nis, sis).

    Each sis name gets 1 atom and every other nis name 2; atom ids are dense,
    handed out in ascending name order.
    """
    assignment: dict[int, int] = {}
    j = 0
    for name in sorted(nis):
        width = 1 if name in sis else 2
        assignment[name] = ((1 << width) - 1) << j
        j += width
    return _rules_of(sum(shape), assignment)


def canonical_tuple(c: ISCondition) -> ProgramTuple:
    """canonical_rules as a tuple over the atoms x0, x1, ..."""
    rules = canonical_rules(c.shape, c.nis, c.sis)
    width = sum(1 if name in c.sis else 2 for name in c.nis)
    return _tuple_of(Universe(f"x{j}" for j in range(width)), tuple(c.shape), rules)


def relation(c1: ISCondition, c2: ISCondition) -> str:
    """One of equal / less (c1 < c2) / subset (c1 ⊂ c2) / incomparable."""
    if c1.shape != c2.shape:
        raise ShapeMismatchError(f"shapes differ: {c1.shape} vs {c2.shape}")
    if c1.nis == c2.nis and c1.sis == c2.sis:
        return "equal"
    if c1.nis == c2.nis and c2.sis < c1.sis:
        return "less"
    if c1.sis == c1.nis and c2.sis == c2.nis and c1.nis < c2.nis:
        return "subset"
    return "incomparable"
