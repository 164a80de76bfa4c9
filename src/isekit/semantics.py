"""Classical and here-and-there semantics for ground programs.

Two rule semantics are supported: plain disjunctive rules ("asp") and
weighted/soft rules ("lpmln") whose reduct keeps only the rules classically
satisfied by the candidate interpretation. Equivalence checking compares
HT-model sets over the joint atom alphabet; the kernel encodes, for each
"there"-world Y, the set of admissible "here"-worlds X as a big integer over
the 2^u X-space so that whole-program comparison is a handful of int ops.

The kernel scans only the Ys where a rule that one program lacks is kept (at
any other Y both keep just their shared rules), in ascending order, so its
witness is the first distinguishing (Y, X) pair; `ht_models` is its oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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


def _check_cap(n_atoms: int, cap: int, scan: str):
    if n_atoms > cap:
        raise CapExceededError(f"{scan} scan over {n_atoms} atoms exceeds cap {cap}")


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


def stable_models(p: Program, sem: Semantics, universe_mask: int) -> set[int]:
    if p.atoms() & ~universe_mask:
        raise ValueError("universe does not cover the program's atoms")
    _check_cap(popcount(universe_mask), DEFAULT_POW2_CAP, "2^n")
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


def ht_models(p: Program, universe_mask: int, sem: Semantics) -> set[HTInterpretation]:
    if p.atoms() & ~universe_mask:
        raise ValueError("universe does not cover the program's atoms")
    _check_cap(popcount(universe_mask), DEFAULT_POW3_CAP, "3^n")
    out = set()
    for Y in _submasks(universe_mask):
        # ht_satisfies's there-part once per rule; a kept rule then needs X & h or pb & ~X
        there = [satisfies(Y, r) for r in p.rules]
        if sem is Semantics.ASP and not all(there):
            continue            # a hard rule fails at Y
        kept = [(r.head, r.pbody) for r, t in zip(p.rules, there) if t and not r.nbody & Y]
        for X in _submasks(Y):
            for h, pb in kept:
                if not (X & h or pb & ~X):
                    break
            else:
                out.add(HTInterpretation(X, Y))
    return out


# --- fast HT-profile kernel -------------------------------------------------
#
# For a fixed there-world Y over u atoms, the admissible here-worlds of a
# program form a subset of {0..2^u-1}; we store it as an int with bit X set
# iff X is admissible. Each call compiles its rules once and keeps nothing
# after it returns.

def _compile(p: Program, q: Program, atoms: list[int]):
    """The distinct rules of p and of q over the dense numbering of atoms.

    Each rule becomes (head, pbody, nbody, here), where bit X of `here` is set
    iff X satisfies head <- pbody classically; a rule of both is compiled once.
    Both results map (head, pbody, nbody) to that 4-tuple; the full X-space
    and the column masks are returned beside them.
    """
    u = len(atoms)
    full = (1 << (1 << u)) - 1
    column = []                      # bit X of column[a] set iff atom a ∈ X
    for a in range(u):
        s = 1 << a
        column.append((((1 << s) - 1) << s) * (full // ((1 << 2 * s) - 1)))
    index = {a: i for i, a in enumerate(atoms)}
    compiled = {}

    def squeeze(mask):
        return sum(1 << index[a] for a in bits(mask))

    def rules(prog):
        out = {}
        for r in prog.rules:
            t = (squeeze(r.head), squeeze(r.pbody), squeeze(r.nbody))
            if t not in compiled:
                here = 0
                for a in bits(t[0]):
                    here |= column[a]
                if t[1]:
                    sup = full
                    for a in bits(t[1]):
                        sup &= column[a]
                    here |= full ^ sup
                compiled[t] = (*t, here)
            out[t] = compiled[t]
        return out

    return rules(p), rules(q), full, column


def _allowed_here(rules, Y: int, hard: bool, allowed: int) -> int:
    """allowed narrowed to the admissible here-worlds X ⊆ Y of rules at
    there-world Y; bits of X ⊄ Y are left unspecified."""
    for h, pb, nb, here in rules:
        if nb & Y or pb & ~Y:
            continue            # dropped by the GL-reduct, or vacuous for X ⊆ Y
        if h & Y:
            allowed &= here
            if not allowed:
                return 0
        elif hard:
            return 0            # a hard rule fails at Y
        # a soft rule that Y violates is vacuously HT-satisfied
    return allowed


def _subset_space(Y: int) -> int:
    """Big integer with bit X set iff X ⊆ Y."""
    m = 1
    for a in bits(Y):
        m |= m << (1 << a)
    return m


def equivalent(p: Program, q: Program,
               sem: Semantics) -> tuple[bool, Optional[HTInterpretation]]:
    """HT-model-set comparison over at(p) ∪ at(q).

    Returns (verdict, witness); the witness is the lexicographically first
    distinguishing (Y, X) pair, mapped back to the shared universe.

    `_allowed_here` skips a rule at Y when nbody ∩ Y ≠ ∅ or pbody ⊄ Y, so the
    programs can differ only at a Y in the box pbody ⊆ Y, nbody ∩ Y = ∅ of a
    rule that only one of them has. Those Ys are scanned in ascending order,
    which keeps the witness of a scan of all 2^u Ys; the shared rules are
    evaluated once per Y.
    """
    atoms = list(bits(p.atoms() | q.atoms()))
    u = len(atoms)
    _check_cap(u, DEFAULT_POW3_CAP, "HT")
    rp, rq, full, column = _compile(p, q, atoms)
    if rp.keys() == rq.keys():
        return True, None
    common = [rp[t] for t in rp if t in rq]
    only_p = [rp[t] for t in rp if t not in rq]
    only_q = [rq[t] for t in rq if t not in rp]
    ys = 0
    for _, pb, nb, _ in only_p + only_q:
        box = full
        for a in bits(pb):
            box &= column[a]
        for a in bits(nb):
            box &= ~column[a]
        ys |= box
    hard = sem is Semantics.ASP
    for Y in bits(ys):
        ac = _allowed_here(common, Y, hard, full)
        if not ac:
            continue
        ap = _allowed_here(only_p, Y, hard, ac)
        aq = _allowed_here(only_q, Y, hard, ac)
        if ap == aq:
            continue
        diff = (ap ^ aq) & _subset_space(Y)
        if diff:
            Xc = (diff & -diff).bit_length() - 1
            expand = lambda m: sum(1 << atoms[i] for i in bits(m))
            return False, HTInterpretation(expand(Xc), expand(Y))
    return True, None
