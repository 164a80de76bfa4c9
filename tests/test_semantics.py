"""Classical satisfaction, reducts, stable models, HT-models, equivalence."""

import importlib
import math
import pkgutil
import random

import pytest

import isekit as ik
from isekit import Semantics
from isekit.program import bits
from isekit.semantics import (HTInterpretation, _allowed_here, _compile, _submasks,
                              _subset_space)

ASP = Semantics.ASP
LPMLN = Semantics.LPMLN


def setup_weighted():
    """The running three-rule weighted program."""
    u = ik.Universe()
    p = ik.parse_program("1 : a.\n1 : a :- b.\n2 : :- a, not c.", u)
    return p, u


def test_satisfies():
    u = ik.Universe()
    p = ik.parse_program("a :- b.\n:- a, not c.\n:- .", u)
    X = u.mask_of(["a"])
    assert ik.satisfies(X, p.rules[0])
    assert not ik.satisfies(X, p.rules[1])
    assert not ik.satisfies(0, p.rules[2])


def test_gl_reduct_weighted_program():
    p, u = setup_weighted()
    X = u.mask_of(["a"])
    red = ik.gl_reduct(p, X)
    assert ik.render_program(red) == "1 : a.\n1 : a :- b.\n2 : :- a.\n"


def test_gl_reduct_empty_interpretation_keeps_all():
    u = ik.Universe()
    p = ik.parse_program("a :- b, not c.\nd :- not a.", u)
    red = ik.gl_reduct(p, 0)
    assert len(red) == 2
    assert all(r.nbody == 0 for r in red.rules)


def test_gl_reduct_drops_fired_negation():
    u = ik.Universe()
    p = ik.parse_program("a :- not a.", u)
    assert len(ik.gl_reduct(p, u.mask_of(["a"]))) == 0


def test_lpmln_reduct():
    p, u = setup_weighted()
    X = u.mask_of(["a"])
    red = ik.lpmln_reduct(p, X)
    assert ik.render_program(red) == "1 : a.\n1 : a :- b.\n"
    # a model of the whole program keeps the whole program
    Xc = u.mask_of(["a", "c"])
    assert len(ik.lpmln_reduct(p, Xc)) == 3
    # the empty rule is never satisfied
    q = ik.parse_program(":- .", u)
    assert len(ik.lpmln_reduct(q, X)) == 0


def test_stable_models_weighted_example():
    p, u = setup_weighted()
    universe = u.mask_of(["a", "b", "c"])
    X = u.mask_of(["a"])
    assert X in ik.stable_models(p, LPMLN, universe)
    assert X not in ik.stable_models(ik.gl_reduct(p, X), ASP, universe)


def test_stable_models_empty_program():
    u = ik.Universe()
    u.intern("a")
    u.intern("b")
    p = ik.Program(rules=(), universe=u)
    assert ik.stable_models(p, ASP, 3) == {0}


def test_stable_models_cap():
    u = ik.Universe()
    p = ik.Program(rules=(), universe=u)
    with pytest.raises(ik.CapExceededError):
        ik.stable_models(p, ASP, (1 << 25) - 1)


def test_weight_degree():
    p, u = setup_weighted()
    assert ik.weight_degree(p, u.mask_of(["a"])) == pytest.approx(math.exp(2))
    empty = ik.Program(rules=(), universe=u)
    assert ik.weight_degree(empty, 0) == 1.0
    q = ik.parse_program("3 : a.", u)
    assert ik.weight_degree(q, u.mask_of(["a"])) == pytest.approx(math.exp(3))
    bare = ik.parse_program("a.", u)
    with pytest.raises(ik.MissingWeightError):
        ik.weight_degree(bare, u.mask_of(["a"]))


def test_ht_satisfies_examples():
    u = ik.Universe()
    p = ik.parse_program("a :- b.\na | b.\nb.\na :- not a.", u)
    a, b = u.mask_of(["a"]), u.mask_of(["b"])
    assert not ik.ht_satisfies(HTInterpretation(b, a | b), p.rules[0], ASP)
    assert ik.ht_satisfies(HTInterpretation(a, a | b), p.rules[1], ASP)
    assert not ik.ht_satisfies(HTInterpretation(a, a | b), p.rules[2], ASP)
    # unsatisfied rule is vacuous for soft semantics only
    assert ik.ht_satisfies(HTInterpretation(0, 0), p.rules[3], LPMLN)
    assert not ik.ht_satisfies(HTInterpretation(0, 0), p.rules[3], ASP)


def test_ht_models_empty_program():
    u = ik.Universe()
    u.intern("a")
    p = ik.Program(rules=(), universe=u)
    assert len(ik.ht_models(p, 1, ASP)) == 3


def test_ht_models_overlap_rule_matches_empty():
    u = ik.Universe()
    p = ik.parse_program("a | c :- b, c.", u)
    empty = ik.Program(rules=(), universe=u)
    universe = u.mask_of(["a", "b", "c"])
    assert ik.ht_models(p, universe, LPMLN) == ik.ht_models(empty, universe, LPMLN)


def test_ht_models_empty_rule_hard():
    u = ik.Universe()
    p = ik.parse_program(":- .", u)
    u.intern("a")
    assert ik.ht_models(p, 1, ASP) == set()


def test_equivalent_inequivalent_pair_with_witness():
    u = ik.Universe()
    p = ik.parse_program("a | c.\nb.", u)
    q = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u)
    verdict, witness = ik.equivalent(p, q, LPMLN)
    assert not verdict
    assert witness.format(u) == "({a}, {a,b})"


def test_equivalent_identical():
    u = ik.Universe()
    p = ik.parse_program("a :- b, not c.", u)
    assert ik.equivalent(p, p, ASP) == (True, None)


def test_equivalent_soft_vs_hard_negation_loop():
    u = ik.Universe()
    p = ik.parse_program("a :- not a.", u)
    empty = ik.Program(rules=(), universe=u)
    assert ik.equivalent(p, empty, LPMLN)[0]
    assert not ik.equivalent(p, empty, ASP)[0]


def rule_from_masks(h, p, n):
    return ik.Rule(h, p, n)


def closed_form_empty_equiv(r, sem):
    """Single-rule-vs-empty equivalence, direct from the membership sets."""
    overlap = bool((r.head | r.nbody) & r.pbody)
    if sem is ASP:
        return overlap
    return overlap or not (r.head & ~r.nbody)


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_single_rule_closed_form_two_atoms(sem):
    for h in range(4):
        for p in range(4):
            for n in range(4):
                u = ik.Universe()
                u.intern("a")
                u.intern("b")
                prog = ik.Program(rules=(ik.Rule(h, p, n),), universe=u)
                empty = ik.Program(rules=(), universe=u)
                verdict, _ = ik.equivalent(prog, empty, sem)
                assert verdict == closed_form_empty_equiv(prog.rules[0], sem)


def _random_rules(rng, n_atoms, n_rules):
    return tuple(
        ik.Rule(rng.randrange(1 << n_atoms), rng.randrange(1 << n_atoms),
                rng.randrange(1 << n_atoms))
        for _ in range(n_rules)
    )


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_fresh_atom_closure(sem):
    """HT-models extend to a fresh atom in the two canonical ways."""
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(1, 5)
        u = ik.Universe()
        for i in range(n + 1):
            u.intern(f"v{i}")
        p = ik.Program(rules=_random_rules(rng, n, rng.randrange(0, 4)), universe=u)
        base = (1 << n) - 1
        fresh = 1 << n
        models = ik.ht_models(p, base, sem)
        extended = ik.ht_models(p, base | fresh, sem)
        for m in models:
            assert HTInterpretation(m.here, m.there | fresh) in extended
            assert HTInterpretation(m.here | fresh, m.there | fresh) in extended


def test_total_ht_model_vs_classical_model():
    rng = random.Random(31)
    for _ in range(100):
        n = 3
        r = _random_rules(rng, n, 1)[0]
        for Y in range(1 << n):
            total = HTInterpretation(Y, Y)
            classical = ik.satisfies(Y, r)
            assert ik.ht_satisfies(total, r, ASP) == classical
            # under the soft reading an unsatisfied rule is vacuous, so a
            # total pair always conditionally satisfies a single rule
            assert ik.ht_satisfies(total, r, LPMLN)


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_ht_models_match_definition(sem):
    """ht_models is {(X, Y) : X ⊆ Y ⊆ U, every rule ht_satisfied}, on random
    programs with empty heads, weights and overlapping masks."""
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randrange(1, 6)
        u = ik.Universe(f"v{i}" for i in range(n))
        rules = [ik.Rule(rng.randrange(1 << n) if rng.random() < 0.8 else 0,
                         rng.randrange(1 << n), rng.randrange(1 << n),
                         rng.choice((None, 1.0, -2.5)))
                 for _ in range(rng.randrange(5))]
        p = ik.Program(rules=tuple(rules), universe=u)
        U = (1 << n) - 1
        literal = {HTInterpretation(X, Y) for Y in range(U + 1) for X in range(Y + 1)
                   if not X & ~Y and all(ik.ht_satisfies(HTInterpretation(X, Y), r, sem)
                                         for r in rules)}
        assert ik.ht_models(p, U, sem) == literal


def test_asp_ht_models_subset_of_lpmln():
    rng = random.Random(37)
    for _ in range(40):
        u = ik.Universe()
        for i in range(4):
            u.intern(f"v{i}")
        p = ik.Program(rules=_random_rules(rng, 4, 3), universe=u)
        assert ik.ht_models(p, 15, ASP) <= ik.ht_models(p, 15, LPMLN)


def _sparse_rule(rng, n_atoms):
    """A rule with 0-3 atoms in each of head, positive and negative body."""
    def pick():
        return sum(1 << a for a in rng.sample(range(n_atoms), rng.randrange(4)))
    return ik.Rule(pick(), pick(), pick())


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_equivalent_agrees_with_ht_model_sets(sem):
    """The bigint kernel against HT-model sets on universes of 3 to 7 atoms.

    q is p plus one rule: a copy of a rule of p with one more positive body
    atom (HT-entailed, so the pair is equivalent) or a fresh sparse rule.
    """
    rng = random.Random(41)
    for n in range(3, 8):
        u = ik.Universe(f"v{i}" for i in range(n))
        verdicts = set()
        widths = []
        for _ in range(60):
            p = ik.Program(rules=tuple(_sparse_rule(rng, n) for _ in range(rng.randrange(5))),
                           universe=u)
            if p.rules and rng.random() < 0.4:
                r = rng.choice(p.rules)
                extra = ik.Rule(r.head, r.pbody | 1 << rng.randrange(n), r.nbody)
            else:
                extra = _sparse_rule(rng, n)
            q = ik.Program(rules=p.rules + (extra,), universe=u)
            joint = p.atoms() | q.atoms()
            widths.append(joint.bit_count())
            verdict, witness = ik.equivalent(p, q, sem)
            split = ik.ht_models(p, joint, sem) ^ ik.ht_models(q, joint, sem)
            assert verdict == (not split)
            if not verdict:
                in_p = all(ik.ht_satisfies(witness, r, sem) for r in p.rules)
                in_q = all(ik.ht_satisfies(witness, r, sem) for r in q.rules)
                assert in_p != in_q
                # the witness is the first distinguishing pair, there-world first
                assert (witness.there, witness.here) == min((i.there, i.here) for i in split)
            verdicts.add(verdict)
        assert verdicts == {True, False}, n
        assert widths.count(n) >= 15, (n, widths)   # the kernel scans all n atoms


def _full_scan(p, q, sem):
    """The kernel's former loop over all 2^u there-worlds, kept as its reference."""
    atoms = list(bits(p.atoms() | q.atoms()))
    rp, rq, full, _ = _compile(p, q, atoms)
    rp, rq = list(rp.values()), list(rq.values())
    hard = sem is ASP
    for Y in range(1 << len(atoms)):
        ap = _allowed_here(rp, Y, hard, full)
        aq = _allowed_here(rq, Y, hard, full)
        diff = (ap ^ aq) & _subset_space(Y)
        if diff:
            X = (diff & -diff).bit_length() - 1
            expand = lambda m: sum(1 << atoms[i] for i in bits(m))
            return False, HTInterpretation(expand(X), expand(Y))
    return True, None


@pytest.mark.parametrize("sem", [ASP, LPMLN])
def test_equivalent_matches_full_scan(sem):
    """Scanning only the there-worlds where a rule of one side is kept gives
    the verdict and the witness of the scan over every there-world."""
    rng = random.Random(43)
    for n in range(3, 13):
        u = ik.Universe(f"v{i}" for i in range(n))
        verdicts, widths = set(), []
        for case in ("own", "shared", "empty-body", "empty-box", "duplicates"):
            for _ in range(6):
                shared = [_sparse_rule(rng, n) for _ in range(rng.randrange(2 + n // 3))]
                if case == "shared":       # constraints, which a Y violates hard under ASP
                    shared += [ik.Rule(0, r.pbody, r.nbody) for r in shared]
                own_p = [_sparse_rule(rng, n) for _ in range(rng.randrange(1, 3))]
                own_q = [_sparse_rule(rng, n) for _ in range(rng.randrange(case == "own", 3))]
                if case == "empty-body":   # its box is every there-world
                    own_p[0] = ik.Rule(own_p[0].head, 0, 0)
                elif case == "empty-box":  # an atom in both bodies: kept at no Y
                    both = 1 << rng.randrange(n)
                    own_q.append(ik.Rule(1 << rng.randrange(n), both | own_p[0].pbody, both))
                elif case == "duplicates":
                    own_p += own_p + shared[:1]
                p_rules = shared + own_p
                q_rules = own_q + shared[::-1]
                if case == "duplicates":
                    q_rules += shared
                    rng.shuffle(q_rules)
                p = ik.Program(rules=tuple(p_rules), universe=u)
                q = ik.Program(rules=tuple(q_rules), universe=u)
                for a, b in ((p, q), (q, p)):
                    got, want = ik.equivalent(a, b, sem), _full_scan(a, b, sem)
                    assert got == want, (n, case)
                    verdicts.add(got[0])
                widths.append((p.atoms() | q.atoms()).bit_count())
        assert verdicts == {True, False} and max(widths) == n, (n, widths)


def test_no_module_keeps_a_cache():
    """The package keeps no process-global memo: no function is an lru_cache."""
    for info in pkgutil.iter_modules(ik.__path__, "isekit."):
        module = importlib.import_module(info.name)
        cached = [name for name, obj in vars(module).items() if hasattr(obj, "cache_info")]
        assert not cached, (info.name, cached)


def test_ht_interpretation_requires_subset():
    with pytest.raises(ValueError):
        HTInterpretation(3, 1)
