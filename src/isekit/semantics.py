"""Classical and here-and-there semantics for ground programs.

Two rule semantics are supported: plain disjunctive rules ("asp") and
weighted/soft rules ("lpmln") whose reduct keeps only the rules classically
satisfied by the candidate interpretation. Equivalence checking compares
HT-model sets over the joint atom alphabet; the kernel encodes, for each
"there"-world Y, the set of admissible "here"-worlds X as a big integer over
the 2^u X-space so that whole-program comparison is a handful of int ops.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .program import Program, Rule, bits, popcount


class Semantics(Enum):
    ASP = "asp"
    LPMLN = "lpmln"


class CapExceededError(RuntimeError):
    pass


class MissingWeightError(ValueError):
    pass


DEFAULT_POW2_CAP = 20   # 2^n model scans
DEFAULT_POW3_CAP = 17   # 3^n HT scans


@dataclass(frozen=True)
class HTInterpretation:
    """Pair (here, there) of interpretations with here ⊆ there."""

    here: int
    there: int

    def __post_init__(self):
        if self.here & ~self.there:
            raise ValueError("here must be a subset of there")

    @property
    def total(self) -> bool:
        return self.here == self.there

    def format(self, universe) -> str:
        def fmt(mask):
            return "{" + ",".join(universe.names[i] for i in bits(mask)) + "}"

        return f"({fmt(self.here)}, {fmt(self.there)})"


def satisfies(X: int, r: Rule) -> bool:
    """Classical satisfaction: head hit, positive body unmet, or negative body hit."""
    return bool(X & r.head) or bool(r.pbody & ~X) or bool(r.nbody & X)


def satisfies_program(X: int, p: Program) -> bool:
    return all(satisfies(X, r) for r in p.rules)


def gl_reduct(p: Program, X: int) -> Program:
    rules = tuple(
        Rule(r.head, r.pbody, 0, r.weight) for r in p.rules if not (r.nbody & X)
    )
    return Program(rules=rules, universe=p.universe)


def lpmln_reduct(p: Program, X: int) -> Program:
    rules = tuple(r for r in p.rules if satisfies(X, r))
    return Program(rules=rules, universe=p.universe)


def _check_pow2_cap(n_atoms: int, cap: int):
    if n_atoms > cap:
        raise CapExceededError(f"universe of {n_atoms} atoms exceeds 2^n cap {cap}")


def _submasks(mask: int):
    """All submasks of mask, descending, including mask and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _asp_stable(p: Program, X: int) -> bool:
    red = gl_reduct(p, X)
    if not satisfies_program(X, red):
        return False
    for sub in _submasks(X):
        if sub != X and satisfies_program(sub, red):
            return False
    return True


def is_stable(p: Program, X: int, sem: Semantics) -> bool:
    if sem is Semantics.ASP:
        return _asp_stable(p, X)
    return _asp_stable(lpmln_reduct(p, X), X)


def stable_models(p: Program, sem: Semantics, universe_mask: int,
                  cap: int = DEFAULT_POW2_CAP) -> set[int]:
    if p.atoms() & ~universe_mask:
        raise ValueError("universe does not cover the program's atoms")
    _check_pow2_cap(popcount(universe_mask), cap)
    out = set()
    for X in _submasks(universe_mask):
        if is_stable(p, X, sem):
            out.add(X)
    return out


def weight_degree(p: Program, X: int) -> float:
    total = 0.0
    for r in lpmln_reduct(p, X).rules:
        if r.weight is None:
            raise MissingWeightError("rule without weight in weight_degree")
        total += r.weight
    return math.exp(total)


def ht_satisfies(i: HTInterpretation, r: Rule, sem: Semantics) -> bool:
    X, Y = i.here, i.there
    sat_there = satisfies(Y, r)
    if not sat_there:
        # soft rules drop out of the reduct; hard rules fail outright
        return sem is Semantics.LPMLN
    if r.nbody & Y:
        return True  # negative body fires: rule vanishes from the GL-reduct
    return bool(X & r.head) or bool(r.pbody & ~X)


def ht_models(p: Program, universe_mask: int, sem: Semantics,
              cap: int = DEFAULT_POW3_CAP) -> set[HTInterpretation]:
    if p.atoms() & ~universe_mask:
        raise ValueError("universe does not cover the program's atoms")
    if popcount(universe_mask) > cap:
        raise CapExceededError(f"3^n scan over {popcount(universe_mask)} atoms exceeds cap {cap}")
    out = set()
    for Y in _submasks(universe_mask):
        for X in _submasks(Y):
            i = HTInterpretation(X, Y)
            if all(ht_satisfies(i, r, sem) for r in p.rules):
                out.add(i)
    return out


# --- fast HT-profile kernel -------------------------------------------------
#
# For a fixed there-world Y over u atoms, the admissible here-worlds of a
# program form a subset of {0..2^u-1}; we store it as an int with bit X set
# iff X is admissible. Per-rule masks only depend on (head, pbody), so they
# are cached across the programs of one process: the pairs `check` compares
# and the programs the tests verify (discovery uses `isets.CanonicalSearch`).

@lru_cache(maxsize=None)
def _atom_mask(a: int, u: int) -> int:
    """Big integer over the X-space: bit X set iff atom a ∈ X."""
    s = 1 << a
    unit = ((1 << s) - 1) << s          # 2s-wide chunk: s zeros then s ones
    reps = 1 << (u - a - 1)
    period = 1 << (2 * s)
    return unit * (((1 << (2 * s * reps)) - 1) // (period - 1))


@lru_cache(maxsize=None)
def _full_space(u: int) -> int:
    return (1 << (1 << u)) - 1


@lru_cache(maxsize=1 << 16)
def _reduct_allowed(head: int, pbody: int, u: int) -> int:
    """X-sets satisfying head <- pbody classically (negative body already gone)."""
    full = _full_space(u)
    m = 0
    for a in bits(head):
        m |= _atom_mask(a, u)
    if pbody:
        sup = full
        for a in bits(pbody):
            sup &= _atom_mask(a, u)
        m |= full ^ sup
    return m


@lru_cache(maxsize=1 << 15)
def _subset_space(Y: int) -> int:
    """Big integer with bit X set iff X ⊆ Y."""
    m = 1
    y = Y
    while y:
        b = y & -y
        m |= m << b
        y ^= b
    return m


def _allowed_here(rule_triples, Y: int, sem: Semantics, u: int) -> int:
    """Admissible here-worlds of the program at there-world Y (unrestricted)."""
    full = _full_space(u)
    allowed = full
    for h, pb, nb in rule_triples:
        if (Y & h) or (pb & ~Y) or (nb & Y):      # Y satisfies the rule
            if nb & Y:
                continue                          # dropped by the GL-reduct
            allowed &= _reduct_allowed(h, pb, u)
            if not allowed:
                return 0
        else:
            if sem is Semantics.ASP:
                return 0                          # hard rule fails at Y
            # soft rule: vacuously HT-satisfied
    return allowed


def _compact_triples(rules, remap: dict[int, int]):
    def squeeze(mask):
        m = 0
        for a in bits(mask):
            m |= 1 << remap[a]
        return m

    seen = set()
    out = []
    for r in rules:
        t = (squeeze(r.head), squeeze(r.pbody), squeeze(r.nbody))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def equivalent(p: Program, q: Program, sem: Semantics,
               cap: int = DEFAULT_POW3_CAP) -> tuple[bool, Optional[HTInterpretation]]:
    """HT-model-set comparison over at(p) ∪ at(q).

    Returns (verdict, witness); the witness is the lexicographically first
    distinguishing (Y, X) pair, mapped back to the shared universe.
    """
    joint = p.atoms() | q.atoms()
    atoms = list(bits(joint))
    u = len(atoms)
    if u > cap:
        raise CapExceededError(f"HT scan over {u} atoms exceeds cap {cap}")
    remap = {a: i for i, a in enumerate(atoms)}
    tp = _compact_triples(p.rules, remap)
    tq = _compact_triples(q.rules, remap)
    if sorted(tp) == sorted(tq):
        return True, None
    for Y in range(1 << u):
        ap = _allowed_here(tp, Y, sem, u)
        aq = _allowed_here(tq, Y, sem, u)
        if ap == aq:
            continue
        diff = (ap ^ aq) & _subset_space(Y)
        if diff:
            Xc = (diff & -diff).bit_length() - 1
            expand = lambda m: sum(1 << atoms[i] for i in bits(m))
            return False, HTInterpretation(expand(Xc), expand(Y))
    return True, None
