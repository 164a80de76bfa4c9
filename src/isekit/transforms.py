"""Atom-level edits of a single independent set, with cardinality guards.

Each transformation takes an atom out of one set, puts a fresh atom in, or
both. Every atom of a set lies in the same rule parts, so an edit of the set
is one bit edit of every rule; rule weights, rule order and all other sets
are kept by construction:

  replace (size > 0)           swap one atom of the set for a fresh one
  delete_large (size > 2)      remove an atom from a big set
  delete_small (0 < size <= 2) remove an atom from a small set
  add (size >= 2)              grow a big set with a fresh atom
  extend (size <= 1)           grow an empty/singleton set with a fresh atom
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .program import ProgramTuple, Rule, popcount
from .isets import ShapeMismatchError, _rule_masks, _tuple_of, extract_isets


class TransformKind(Enum):
    S_RP = "s-rp"
    S_DL = "s-dl"
    S_RD = "s-rd"
    S_AD = "s-ad"
    S_EX = "s-ex"


class TransformGuardError(ValueError):
    pass


class UnknownAtomError(ValueError):
    pass


class FreshAtomCollisionError(ValueError):
    pass


@dataclass(frozen=True)
class PreservationClass:
    se_preserving: bool
    nse_preserving: bool


# kind: (least set size, greatest set size or None, takes an atom out,
#        puts a fresh atom in)
_EDITS = {
    TransformKind.S_RP: (1, None, True, True),
    TransformKind.S_DL: (3, None, True, False),
    TransformKind.S_RD: (1, 2, True, False),
    TransformKind.S_AD: (2, None, False, True),
    TransformKind.S_EX: (0, 1, False, True),
}


def _guard(kind: TransformKind, size: int):
    least, greatest, _, _ = _EDITS[kind]
    if size < least or (greatest is not None and size > greatest):
        bound = f"{least} <= |I|" + ("" if greatest is None else f" <= {greatest}")
        raise TransformGuardError(f"{kind.value} needs {bound}, got |I|={size}")


def apply_transform(T: ProgramTuple, kind: TransformKind, name: int,
                    atom: str | None = None, fresh: str | None = None) -> ProgramTuple:
    n = T.n_rules
    if not 1 <= name < 1 << (3 * n):
        raise ShapeMismatchError(f"set name {name} does not fit a {n}-rule tuple")
    bucket = extract_isets(T).get(name, 0)
    _guard(kind, popcount(bucket))
    _, _, takes_out, puts_in = _EDITS[kind]
    universe = T.universe
    out = new = 0
    if takes_out:
        if atom is None:
            raise UnknownAtomError(f"{kind.value} needs an atom to act on")
        if atom not in universe:
            raise UnknownAtomError(f"unknown atom {atom!r}")
        out = 1 << universe.id_of(atom)
        if not bucket & out:
            raise UnknownAtomError(f"atom {atom!r} is not in independent set {name}")
    if puts_in:
        if fresh is None:
            raise FreshAtomCollisionError(f"{kind.value} needs a fresh atom name")
        if fresh in universe and (1 << universe.id_of(fresh)) & T.atoms():
            raise FreshAtomCollisionError(f"atom {fresh!r} already occurs in the tuple")
        new = 1 << universe.intern(fresh)
    rules = [Rule((r.head & ~out) | h, (r.pbody & ~out) | b, (r.nbody & ~out) | nb, r.weight)
             for r, (h, b, nb) in zip(T.rules, _rule_masks(n, {name: new}))]
    return _tuple_of(universe, T.segment_sizes, rules)


def preservation_class(kind: TransformKind, set_size_before: int) -> PreservationClass:
    """SE/NSE preservation per transformation variant (same for both semantics)."""
    _guard(kind, set_size_before)
    if kind is TransformKind.S_RD:
        return PreservationClass(set_size_before == 2, False)
    if kind is TransformKind.S_EX:
        return PreservationClass(False, set_size_before == 1)
    return PreservationClass(True, True)
