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
from .semantics import Semantics


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


def _rule_masks(n_rules: int, assignment: dict[int, int]) -> list[tuple[int, int, int]]:
    """(head, pbody, nbody) of the rules in which each atom mask of the
    assignment forms the set it is keyed by."""
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
    return list(zip(heads, pbodies, nbodies))


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
    return _tuple_of(universe, sizes, [Rule(*t) for t in _rule_masks(n, assignment)])


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
    return [Rule(*t) for t in _rule_masks(sum(shape), assignment)]


# --- name-level HT search -----------------------------------------------------
#
# An HT pair (X, Y) gives each atom a value: 0 (not in Y), 1 (in Y, not in X)
# or 2 (in X). Whether a rule built from set names holds at the pair depends
# only on each name's (lo, hi) = (least, greatest) value over its atoms. So a
# name of a canonical instance ranges over the 6 states lo <= hi (its 2 atoms
# realise them all), and a sis name, with 1 atom, over the 3 states lo == hi.
# The states a name may still take form a 6-bit mask; the masks of all names
# are packed into one int, 6 bits per name. A term is a conjunction of
# per-name restrictions packed the same way, so applying it is one AND, and
# it is unsatisfiable iff some 6-bit field ends up empty.

_STATES = [(lo, hi) for lo in range(3) for hi in range(lo, 3)]


def _states(test) -> int:
    return sum(1 << i for i, (lo, hi) in enumerate(_STATES) if test(lo, hi))


_ANY = (1 << len(_STATES)) - 1
_ONE_ATOM = _states(lambda lo, hi: lo == hi)
_SOME_Y = _states(lambda lo, hi: hi >= 1)
_SOME_X = _states(lambda lo, hi: hi == 2)
_ALL_Y = _states(lambda lo, hi: lo >= 1)
_ALL_X = _states(lambda lo, hi: lo == 2)


def _pick(mask: int, items: list) -> list:
    """items[i] for each bit i of the mask, lowest first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(items[b.bit_length() - 1])
        mask ^= b
    return out


class CanonicalSearch:
    """HT-equivalence of K∪M and K∪N in the canonical instances of the
    subsets of a list of names.

    Rules are compiled from the octal digits of the names into DNF terms
    over name states, with H, B and N a rule's head, positive-body and
    negative-body names:
      YH = some H name meets Y     XH = some H name meets X
      BY = every B name within Y   BX = every B name within X
      NY = some N name meets Y
      holds     asp    NY or XH or not BY or (YH and not BX)
                lpmln  NY or XH or not BX or (not YH and not NY and BY)
      violated  asp    not NY and not XH and BY and (not YH or BX)
                lpmln  YH and not NY and not XH and BX
    The two programs differ iff some HT pair satisfies one and violates a
    rule of the other that the first does not contain. `equivalent` looks for
    such a pair by DFS over the terms; its cost grows with the number of
    rules, not with 2^atoms.

    The terms are compiled once, over all the names: names[i] owns the field
    at bit 6i, and bit i of a mask stands for names[i]. `select(mask)` (at
    first every name) restricts the questions to the instance of the mask's
    names. Its domains are 0 outside its fields and an AND keeps them 0, so a
    term on all names of a rule serves every selection, while a term that
    needs one name (two for asp's YH and not BX) to take some state is
    picked only for selected names: the others are empty. Rules are told
    apart, and terms checked for a name left with no state, on the selection.
    """

    def __init__(self, shape, names, sem: Semantics):
        n = sum(shape)
        if not all(1 <= v < 1 << (3 * n) for v in names):
            raise ValueError(f"set names out of range for shape {tuple(shape)}")
        self.names = list(names)
        self.index = {v: i for i, v in enumerate(self.names)}
        self.sem = sem
        k, m = shape[0], shape[1]
        self.programs = (range(k + m), [*range(k), *range(k + m, n)])   # rule indices
        self.rules = _rule_masks(n, {v: 1 << i for v, i in self.index.items()})
        self.fields = [1 << 6 * i for i in range(len(self.names))]
        full = _ANY * sum(self.fields)

        def _all(names: int, states: int) -> int:
            """The term: every one of the names takes one of the states."""
            return full ^ sum(_pick(names, self.fields)) * (_ANY ^ states)

        # the one-name terms by name index: that name takes one of the states
        self.some = {s: [full ^ f * (_ANY ^ s) for f in self.fields]
                     for s in (_SOME_Y, _SOME_X, _ANY ^ _ALL_Y, _ANY ^ _ALL_X)}
        # per rule, the violation terms (asp: two on all its names; lpmln:
        # one per name, picked for its H names) and lpmln's last holds term
        self.violated, self.both = [], []
        for H, B, N in self.rules:
            base = _all(N, _ANY ^ _SOME_Y) & _all(H, _ANY ^ _SOME_X)
            if sem is Semantics.ASP:
                self.violated.append([base & _all(H, _ANY ^ _SOME_Y) & _all(B, _ALL_Y),
                                      base & _all(B, _ALL_X)])
            else:
                base &= _all(B, _ALL_X)
                self.violated.append([base & t for t in self.some[_SOME_Y]])
                self.both.append(_all(H | N, _ANY ^ _SOME_Y) & _all(B, _ALL_Y))
        self.select((1 << len(self.names)) - 1)

    def select(self, mask: int) -> "CanonicalSearch":
        """Ask about the canonical instance of the mask's names from now on."""
        self.low = sum(_pick(mask, self.fields))
        self.full = _ANY * self.low
        self.cut = [(h & mask, b & mask, n & mask) for h, b, n in self.rules]
        self.holds = [None] * len(self.cut)   # filled on first use
        # per program, one rule of each form the selection gives it
        km, kn = ({self.cut[r]: r for r in rules} for rules in self.programs)
        # per direction: (violation terms of the rules only the other side
        # has, the rules this side must satisfy); `equivalent` drops dead terms
        self.directions = [
            ([t for rule, r in other.items() if rule not in side for t in self._violated(r)],
             list(side.values()))
            for side, other in ((km, kn), (kn, km))
        ]
        return self

    def mask(self, names) -> int:
        """Bit i for each names[i] among the names."""
        return sum(1 << self.index[v] for v in names)

    def members(self, mask: int) -> frozenset:
        return frozenset(_pick(mask, self.names))

    def _holds(self, r: int) -> list[int]:
        """DNF terms of rule r holding, picked on first use."""
        terms = self.holds[r]
        if terms is not None:
            return terms
        H, B, N = self.cut[r]
        some = self.some   # one term per name: it takes one of the states
        terms = _pick(N, some[_SOME_Y]) + _pick(H, some[_SOME_X])
        if self.sem is Semantics.ASP:
            terms += _pick(B, some[_ANY ^ _ALL_Y])
            terms += [h & b for h in _pick(H, some[_SOME_Y])
                      for b in _pick(B, some[_ANY ^ _ALL_X])]   # never empty
        else:
            terms += _pick(B, some[_ANY ^ _ALL_X])
            terms += [self.both[r]] if self._alive(self.both[r]) else []
        self.holds[r] = terms
        return terms

    def _violated(self, r: int) -> list[int]:
        """DNF terms of rule r being violated."""
        if self.sem is Semantics.ASP:
            return self.violated[r]
        return _pick(self.cut[r][0], self.violated[r])

    def _alive(self, d: int) -> bool:
        """Does every selected name keep at least one state?"""
        d |= d >> 1
        d |= d >> 2
        d |= d >> 2
        return d & self.low == self.low

    def domains(self, sis: int) -> int:
        """Start domains: one atom for each name of the mask sis, two for
        every other selected name."""
        return self.full ^ sum(_pick(sis, self.fields)) * (_ANY ^ _ONE_ATOM)

    def grow(self, domains: int, name: int) -> int:
        """Give the one-atom name (a one-bit mask) only the states a second
        atom adds (lo < hi).

        Every other state is one of the one-atom instance, so when that is SE
        the search on these domains answers for the name with two atoms.
        """
        return domains ^ sum(_pick(name, self.fields)) * _ANY

    def equivalent(self, domains: int) -> bool:
        """Does no HT pair within the domains tell the two programs apart?"""
        for targets, side in self.directions:
            for t in targets:
                d = domains & t
                if self._alive(d) and self._satisfiable(d, side, 0):
                    return False
        return True

    def _satisfiable(self, d: int, rules: list[int], i: int) -> bool:
        """Can every rule from rules[i] on hold within the domains d?"""
        if i == len(rules):
            return True
        branches = []
        for t in self._holds(rules[i]):
            e = d & t
            if e == d:
                return self._satisfiable(d, rules, i + 1)   # already entailed
            if self._alive(e):
                branches.append(e)
        return any(self._satisfiable(e, rules, i + 1) for e in branches)


def canonical_tuple(c: ISCondition) -> ProgramTuple:
    """canonical_rules as a tuple over the atoms x0, x1, ..."""
    rules = canonical_rules(c.shape, c.nis, c.sis)
    width = sum(1 if name in c.sis else 2 for name in c.nis)
    return _tuple_of(Universe(f"x{j}" for j in range(width)), tuple(c.shape), rules)

