"""Independent-set transformations: edits, guards, preservation classes."""

import itertools
import random

import pytest

import isekit as ik
from isekit import Semantics, TransformKind
from isekit.semantics import HTInterpretation

LPMLN = Semantics.LPMLN
ASP = Semantics.ASP

RP, DL, RD, AD, EX = (TransformKind.S_RP, TransformKind.S_DL,
                      TransformKind.S_RD, TransformKind.S_AD,
                      TransformKind.S_EX)


def one_rule_tuple():
    u = ik.Universe()
    p = ik.parse_program("a | b | d :- b, c, not c.", u)
    return ik.concat_tuple([p])


def rendered(T):
    return "".join(ik.render_program(p) for p in T.programs)


def test_replace_swaps_atom():
    T = ik.apply_transform(one_rule_tuple(), RP, 3, atom="c", fresh="x")
    assert rendered(T) == "a | b | d :- b, x, not x.\n"


def test_add_then_delete_large():
    T = ik.apply_transform(one_rule_tuple(), AD, 4, fresh="x")
    assert rendered(T) == "a | b | d | x :- b, c, not c.\n"
    T2 = ik.apply_transform(T, DL, 4, atom="a")
    assert rendered(T2) == "b | d | x :- b, c, not c.\n"


def test_extend_empty_set():
    T = ik.apply_transform(one_rule_tuple(), EX, 1, fresh="x")
    assert rendered(T) == "a | b | d :- b, c, not c, not x.\n"


def test_delete_small_singleton_and_pair():
    T = ik.apply_transform(one_rule_tuple(), RD, 6, atom="b")
    assert rendered(T) == "a | d :- c, not c.\n"
    T2 = ik.apply_transform(one_rule_tuple(), RD, 4, atom="d")
    assert rendered(T2) == "a | b :- b, c, not c.\n"


def test_extend_singleton_set():
    T = ik.apply_transform(one_rule_tuple(), EX, 3, fresh="x")
    assert rendered(T) == "a | b | d :- b, c, x, not c, not x.\n"


def test_guard_errors():
    T = one_rule_tuple()
    with pytest.raises(ik.TransformGuardError):
        ik.apply_transform(T, RP, 1, atom="a", fresh="x")  # empty set
    with pytest.raises(ik.TransformGuardError):
        ik.apply_transform(T, DL, 4, atom="a")  # |I_4| = 2
    with pytest.raises(ik.TransformGuardError):
        ik.apply_transform(T, RD, 1, atom="a")  # empty set
    with pytest.raises(ik.TransformGuardError):
        ik.apply_transform(T, AD, 3, fresh="x")  # |I_3| = 1
    with pytest.raises(ik.TransformGuardError):
        ik.apply_transform(T, EX, 4, fresh="x")  # |I_4| = 2


def test_atom_and_fresh_errors():
    T = one_rule_tuple()
    with pytest.raises(ik.UnknownAtomError):
        ik.apply_transform(T, RD, 6, atom="zzz")
    with pytest.raises(ik.UnknownAtomError):
        ik.apply_transform(T, RD, 6, atom="a")  # a is not in I_6
    with pytest.raises(ik.UnknownAtomError):
        ik.apply_transform(T, RD, 6)  # atom required
    with pytest.raises(ik.FreshAtomCollisionError):
        ik.apply_transform(T, AD, 4, fresh="b")  # already in the tuple
    with pytest.raises(ik.FreshAtomCollisionError):
        ik.apply_transform(T, AD, 4)  # fresh name required


def test_name_out_of_range_raises_shape_mismatch():
    T = one_rule_tuple()
    for kind in TransformKind:
        for name in (0, -1, 8, 99):
            with pytest.raises(ik.ShapeMismatchError):
                ik.apply_transform(T, kind, name, atom="a", fresh="x")


TAKES_OUT = {RP, DL, RD}
PUTS_IN = {RP, AD, EX}


def _old_route(T, kind, name, atom, fresh):
    """The edit as a rebuild: extract the sets, edit one, reconstruct."""
    assignment = ik.extract_isets(T)
    bucket = assignment.get(name, 0)
    if kind in TAKES_OUT:
        bucket &= ~(1 << T.universe.id_of(atom))
    if kind in PUTS_IN:
        bucket |= 1 << T.universe.id_of(fresh)
    if bucket:
        assignment[name] = bucket
    else:
        assignment.pop(name, None)
    return ik.reconstruct_tuple(T.universe, T.segment_sizes, assignment)


def _random_weighted_tuple(rng):
    """A 3-segment tuple with sets of 1 to 4 atoms; rules weighted or not."""
    sizes = tuple(rng.randrange(3) for _ in range(3))
    while not sum(sizes):
        sizes = tuple(rng.randrange(3) for _ in range(3))
    n = sum(sizes)
    u = ik.Universe()
    assignment = {}
    for name in rng.sample(range(1, 1 << (3 * n)), min(4, (1 << (3 * n)) - 1)):
        mask = 0
        for _ in range(rng.randrange(1, 5)):
            mask |= 1 << u.intern(f"v{len(u)}")
        assignment[name] = mask
    T = ik.reconstruct_tuple(u, sizes, assignment)
    weighted = rng.random() < 0.5
    rules = [ik.Rule(r.head, r.pbody, r.nbody,
                     rng.choice([None, 1.0, 2.5, -3.0]) if weighted else None)
             for r in T.rules]
    programs = [ik.Program(rules=tuple(rules[i - k:i]), universe=u)
                for i, k in zip(itertools.accumulate(sizes), sizes)]
    return ik.ProgramTuple(programs=tuple(programs), segment_sizes=sizes, universe=u)


def test_edit_matches_rebuild_and_keeps_weights():
    rng = random.Random(83)
    seen = set()
    for _ in range(300):
        T = _random_weighted_tuple(rng)
        assignment = ik.extract_isets(T)
        empty = next(v for v in range(1, 1 << (3 * T.n_rules)) if v not in assignment)
        for name in [*assignment, empty]:
            mask = assignment.get(name, 0)
            size = bin(mask).count("1")
            atom = T.universe.names[(mask & -mask).bit_length() - 1] if mask else None
            for kind in TransformKind:
                try:
                    ik.preservation_class(kind, size)
                except ik.TransformGuardError:
                    continue
                seen.add((kind, min(size, 3)))
                T2 = ik.apply_transform(T, kind, name, atom=atom, fresh="f0")
                want = _old_route(T, kind, name, atom, "f0")
                assert [(r.head, r.pbody, r.nbody) for r in T2.rules] == \
                    [(r.head, r.pbody, r.nbody) for r in want.rules]
                assert [r.weight for r in T2.rules] == [r.weight for r in T.rules]
                assert T2.segment_sizes == T.segment_sizes
    assert {kind for kind, _ in seen} == set(TransformKind)
    assert (DL, 3) in seen


def test_preservation_classes():
    assert ik.preservation_class(RP, 1) == ik.PreservationClass(True, True)
    assert ik.preservation_class(RP, 5) == ik.PreservationClass(True, True)
    assert ik.preservation_class(DL, 3) == ik.PreservationClass(True, True)
    assert ik.preservation_class(AD, 2) == ik.PreservationClass(True, True)
    assert ik.preservation_class(RD, 2) == ik.PreservationClass(True, False)
    assert ik.preservation_class(RD, 1) == ik.PreservationClass(False, False)
    assert ik.preservation_class(EX, 1) == ik.PreservationClass(False, True)
    assert ik.preservation_class(EX, 0) == ik.PreservationClass(False, False)
    for kind, size in [(RP, 0), (DL, 2), (AD, 1), (RD, 0), (RD, 3), (EX, 2)]:
        with pytest.raises(ik.TransformGuardError):
            ik.preservation_class(kind, size)


def test_round_trips():
    T = one_rule_tuple()
    # add then delete the added atom restores the assignment
    T2 = ik.apply_transform(ik.apply_transform(T, AD, 4, fresh="x"), DL, 4, atom="x")
    assert rendered(T2) == rendered(T)
    # extend then shrink restores it as well
    T3 = ik.apply_transform(ik.apply_transform(T, EX, 3, fresh="x"), RD, 3, atom="x")
    assert rendered(T3) == rendered(T)
    # replace is its own inverse up to the atom name
    T4 = ik.apply_transform(ik.apply_transform(T, RP, 6, atom="b", fresh="t"),
                            RP, 6, atom="t", fresh="w")
    assert rendered(T4) == "a | d | w :- c, w, not c.\n"


def test_shrinking_overlap_set_breaks_soft_equivalence():
    u = ik.Universe()
    p = ik.parse_program("a | c :- b, c.", u)
    empty = ik.Program(rules=(), universe=u)
    assert ik.equivalent(p, empty, LPMLN)[0]
    T = ik.apply_transform(ik.concat_tuple([p]), RD, 6, atom="c")
    q = T.programs[0]
    assert ik.render_program(q) == "a :- b.\n"
    verdict, witness = ik.equivalent(q, ik.Program(rules=(), universe=u), LPMLN)
    assert not verdict
    assert witness.format(u) == "({b}, {a,b})"


def test_shrinking_head_pair_breaks_inequivalence():
    u = ik.Universe()
    p = ik.parse_program("a | b.", u)
    q = ik.parse_program("b.", u)
    T = ik.concat_tuple([p, q])
    assert not ik.equivalent(p, q, LPMLN)[0]
    # I_32 = {a}: head of rule 1 only; deleting it merges the programs
    T2 = ik.apply_transform(T, RD, 32, atom="a")
    assert ik.equivalent(T2.programs[0], T2.programs[1], LPMLN)[0]


def test_shrinking_shared_pair_breaks_example_tuple():
    u = ik.Universe()
    p = ik.parse_program("a | c.\nb.", u)
    q = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u)
    T = ik.concat_tuple([p, q])
    assert not ik.equivalent(p, q, LPMLN)[0]
    T2 = ik.apply_transform(T, RD, 16674, atom="c")
    # the reduced pair becomes equivalent: NSE is not preserved at size 2
    assert ik.equivalent(T2.programs[0], T2.programs[1], LPMLN)[0]


def _preservation_oracle_tuples(rng, n_atoms=3):
    """Random two-program tuples over a small universe."""
    u = ik.Universe()
    for i in range(n_atoms):
        u.intern(f"v{i}")

    def rand_prog(k):
        rules = tuple(ik.Rule(rng.randrange(1 << n_atoms),
                              rng.randrange(1 << n_atoms),
                              rng.randrange(1 << n_atoms)) for _ in range(k))
        return ik.Program(rules=rules, universe=u)

    p = rand_prog(rng.randrange(1, 3))
    q = rand_prog(rng.randrange(1, 3))
    return u, p, q, ik.concat_tuple([p, q])


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_se_preserving_transforms_keep_equivalence(sem):
    """Applying a (T, T) transform never flips an equivalent pair."""
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        u, p, q, T = _preservation_oracle_tuples(rng)
        if not ik.equivalent(p, q, sem)[0]:
            continue
        assignment = ik.extract_isets(T)
        for name, mask in assignment.items():
            size = bin(mask).count("1")
            if size >= 1:
                T2 = ik.apply_transform(T, RP, name,
                                        atom=u.names[(mask & -mask).bit_length() - 1],
                                        fresh="f0")
                assert ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size >= 2:
                T2 = ik.apply_transform(T, AD, name, fresh="f0")
                assert ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size > 2:
                T2 = ik.apply_transform(T, DL, name,
                                        atom=u.names[(mask & -mask).bit_length() - 1])
                assert ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size == 2:
                T2 = ik.apply_transform(T, RD, name,
                                        atom=u.names[(mask & -mask).bit_length() - 1])
                assert ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
        checked += 1


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_nse_preserving_transforms_keep_inequivalence(sem):
    """Applying a (*, T) transform never repairs an inequivalent pair."""
    rng = random.Random(67)
    checked = 0
    while checked < 40:
        u, p, q, T = _preservation_oracle_tuples(rng)
        if ik.equivalent(p, q, sem)[0]:
            continue
        assignment = ik.extract_isets(T)
        full = 1 << (3 * T.n_rules)
        for name in range(1, full):
            mask = assignment.get(name, 0)
            size = bin(mask).count("1")
            if size >= 1:
                T2 = ik.apply_transform(T, RP, name,
                                        atom=u.names[(mask & -mask).bit_length() - 1],
                                        fresh="f0")
                assert not ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size >= 2:
                T2 = ik.apply_transform(T, AD, name, fresh="f0")
                assert not ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size > 2:
                T2 = ik.apply_transform(T, DL, name,
                                        atom=u.names[(mask & -mask).bit_length() - 1])
                assert not ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
            if size == 1:
                T2 = ik.apply_transform(T, EX, name, fresh="f0")
                assert not ik.equivalent(T2.programs[0], T2.programs[1], sem)[0]
        checked += 1


def _build_rule(digit, free_h, free_p, free_n, iset_atoms):
    """One rule whose free part uses 2 atoms and whose I-part is `digit`."""
    h, p, n = free_h, free_p, free_n
    if digit & 4:
        h |= iset_atoms
    if digit & 2:
        p |= iset_atoms
    if digit & 1:
        n |= iset_atoms
    return ik.Rule(h, p, n)


@pytest.mark.parametrize("digit", [0, 1, 2, 4, 5, 3, 6, 7])
def test_growth_implication_table(digit):
    """How satisfaction of one rule transfers when a big set gains an atom.

    For a rule r whose membership pattern on a >=3-atom set I is `digit`,
    compare HT-satisfaction of (X, Y) for r against r with one more I-atom
    visible (a in I, a not in Y), for the three grown pairs.
    """
    n_free = 2
    iset = 0b11100  # three atoms beyond the free ones
    grown = 1 << 5  # the atom a joining the interpretations
    rows = {
        # digit: per-column claims; True = transfers, None = no claim,
        # False = the premise cannot occur. Columns: (X,Y) sat, (X,Y) unsat,
        # (X,Y') sat, (X,Y') unsat, (X',Y') sat, (X',Y') unsat.
        0: (True, True, True, True, True, True),
        1: (True, True, None, False, None, False),
        2: (None, False, None, False, True, True),
        4: (True, True, True, None, None, False),
        5: (True, True, None, False, None, False),
        3: (True, False, True, False, True, False),
        6: (True, False, True, False, True, False),
        7: (True, False, True, False, True, False),
    }[digit]
    u = ik.Universe()
    for i in range(6):
        u.intern(f"v{i}")
    for free_h in range(4):
        for free_p in range(4):
            for free_n in range(4):
                r_small = _build_rule(digit, free_h, free_p, free_n, iset)
                r_big = _build_rule(digit, free_h, free_p, free_n, iset | grown)
                for Y in range(4):
                    for X in range(4):
                        if X & ~Y:
                            continue
                        # interpretations never touch I: a is outside Y
                        pairs = [
                            (HTInterpretation(X, Y), HTInterpretation(X, Y)),
                            (HTInterpretation(X, Y | grown), HTInterpretation(X, Y)),
                            (HTInterpretation(X | grown, Y | grown), HTInterpretation(X, Y)),
                        ]
                        for col, (big_i, small_i) in enumerate(pairs):
                            big_sat = ik.ht_satisfies(big_i, r_big, LPMLN)
                            small_claim_sat = rows[2 * col]
                            small_claim_unsat = rows[2 * col + 1]
                            small_sat = ik.ht_satisfies(small_i, r_small, LPMLN)
                            if big_sat:
                                if small_claim_sat is True:
                                    assert small_sat
                                elif small_claim_sat is False:
                                    pytest.fail("satisfied case marked impossible occurred")
                            else:
                                if small_claim_unsat is True:
                                    assert not small_sat
                                elif small_claim_unsat is False:
                                    pytest.fail("unsatisfied case marked impossible occurred")
