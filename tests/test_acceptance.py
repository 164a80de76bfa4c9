"""End-to-end acceptance gate: one pass/fail line per criterion."""

import contextlib
import itertools
import os
import pathlib
import random
import subprocess
import sys

import isekit as ik
from isekit import Semantics, TransformKind
from isekit.semantics import HTInterpretation

ASP = Semantics.ASP
LPMLN = Semantics.LPMLN

RD = TransformKind.S_RD


@contextlib.contextmanager
def criterion(n):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {n} PASS", flush=True)


def assert_counts(report, elapsed, budget, expect):
    assert elapsed < budget, f"run took {elapsed:.1f}s, budget {budget}s"
    got = {
        "is": report.stats["is"],
        "is_prime": report.stats["is_prime"],
        "is_dprime": report.stats["is_dprime"],
        "tr": report.tr,
        "mgic": len(report.mgic),
        "mnse": len(report.mnse),
        "max_nse": report.max_nse,
    }
    for key, val in expect.items():
        assert got[key] == val, f"{key}: got {got[key]}, expected {val}"


def test_criterion_01_single_fact_counts(sound_reports):
    with criterion(1):
        report, elapsed = sound_reports[(0, 1, 0)]
        assert_counts(report, elapsed, 10, ik.KNOWN_COUNTS[(0, 1, 0)])


def test_criterion_02_single_fact_simplification(sound_reports):
    with criterion(2):
        report, _ = sound_reports[(0, 1, 0)]
        result = ik.simplify(report.mgic)

        def reference(sizes):
            # the one-rule semi-validity formula over set sizes
            return (sizes[3] >= 1 or sizes[4] == 0
                    or sizes[6] >= 1 or sizes[7] >= 1)

        for combo in itertools.product((0, 1, 2), repeat=7):
            sizes = dict(zip(range(1, 8), combo))
            ours = any(ik.sim_holds(d, sizes) for d in result.disjuncts)
            assert ours == reference(sizes), f"diverges at {sizes}"


def test_criterion_03_two_rule_counts(sound_reports):
    with criterion(3):
        report, elapsed = sound_reports[(0, 1, 1)]
        assert_counts(report, elapsed, 600, ik.KNOWN_COUNTS[(0, 1, 1)])


def test_criterion_04_context_rule_counts(sound_reports):
    with criterion(4):
        report, elapsed = sound_reports[(1, 1, 0)]
        assert_counts(report, elapsed, 900, ik.KNOWN_COUNTS[(1, 1, 0)])


def test_criterion_05_three_rule_counts(sound_reports):
    with criterion(5):
        report, elapsed = sound_reports[(0, 2, 1)]
        assert_counts(report, elapsed, 1800, ik.KNOWN_COUNTS[(0, 2, 1)])


def test_criterion_06_large_shapes_sound(large_sound_reports):
    with criterion(6):
        for shape in [(1, 2, 0), (1, 1, 1)]:
            report, elapsed = large_sound_reports[shape]
            assert_counts(report, elapsed, 4 * 3600, ik.KNOWN_COUNTS[shape])


IS_011 = frozenset({36, 9, 13, 18, 41, 45})
IS_110 = IS_011 | {1, 2, 5, 33, 37}


def test_criterion_07_simplified_name_sets(sound_reports):
    with criterion(7):
        for shape, names in [((0, 1, 1), IS_011), ((1, 1, 0), IS_110)]:
            report, _ = sound_reports[shape]
            result = ik.simplify(report.mgic)
            assert len(result.disjuncts) == 1
            assert result.residual == []
            d = result.disjuncts[0]
            assert d.nonempty == (36,)
            assert d.at_most_one == ()
            space = set(range(1, 64))
            assert set(d.empty) == space - names


def test_criterion_08_single_rule_closed_forms():
    with criterion(8):
        u = ik.Universe()
        for i in range(3):
            u.intern(f"v{i}")
        empty = ik.Program(rules=(), universe=u)
        for h in range(8):
            for b in range(8):
                for c in range(8):
                    r = ik.Rule(h, b, c)
                    p = ik.Program(rules=(r,), universe=u)
                    eq1 = bool((h | c) & b)
                    eq2 = eq1 or not (h & ~c)
                    assert ik.equivalent(p, empty, ASP)[0] == eq1
                    assert ik.equivalent(p, empty, LPMLN)[0] == eq2


def _check_round_trips(rng, count=1000):
    for _ in range(count):
        n_rules = rng.randrange(1, 4)
        n_names = rng.randrange(1, min(6, 1 << (3 * n_rules)))
        names = rng.sample(range(1, 1 << (3 * n_rules)), n_names)
        u = ik.Universe()
        assignment = {}
        i = 0
        budget = 5
        for name in names:
            size = min(rng.randrange(1, 3), budget)
            if size == 0:
                break
            budget -= size
            m = 0
            for _ in range(size):
                m |= 1 << u.intern(f"v{i}")
                i += 1
            assignment[name] = m
        split = rng.randrange(n_rules + 1)
        T = ik.reconstruct_tuple(u, (split, n_rules - split), assignment)
        assert ik.extract_isets(T) == assignment


def _check_fresh_atom_closure():
    """All single rules over 3 atoms: exact model lift to a 4th, fresh atom."""
    fresh = 1 << 3
    for sem in (ASP, LPMLN):
        for h in range(8):
            for b in range(8):
                for c in range(8):
                    u = ik.Universe()
                    for i in range(4):
                        u.intern(f"v{i}")
                    p = ik.Program(rules=(ik.Rule(h, b, c),), universe=u)
                    base = ik.ht_models(p, 7, sem)
                    lifted = {HTInterpretation(m.here | a1, m.there | a2)
                              for m in base
                              for a1 in (0, fresh) for a2 in (0, fresh)
                              if not (a1 & ~a2)}
                    assert ik.ht_models(p, 15, sem) == lifted


GROWTH_ROWS = {
    # digit of the grown set -> transfer claims for the six premise columns
    # (pair sat, pair unsat) x ((X,Y), (X,Y'), (X',Y')); True = transfers to
    # the shrunken rule at (X,Y), None = no claim, False = premise impossible
    0: (True, True, True, True, True, True),
    1: (True, True, None, False, None, False),
    2: (None, False, None, False, True, True),
    4: (True, True, True, None, None, False),
    5: (True, True, None, False, None, False),
    3: (True, False, True, False, True, False),
    6: (True, False, True, False, True, False),
    7: (True, False, True, False, True, False),
}


def _check_growth_table():
    """Satisfaction transfer when a >=3-atom set loses an atom; 5-atom rules."""
    iset = 0b01100
    grown = 1 << 4

    def build(digit, fh, fp, fn, atoms):
        return ik.Rule(fh | (atoms if digit & 4 else 0),
                       fp | (atoms if digit & 2 else 0),
                       fn | (atoms if digit & 1 else 0))

    for digit, rows in GROWTH_ROWS.items():
        for fh in range(4):
            for fp in range(4):
                for fn in range(4):
                    r_small = build(digit, fh, fp, fn, iset)
                    r_big = build(digit, fh, fp, fn, iset | grown)
                    for Y in range(4):
                        for X in range(4):
                            if X & ~Y:
                                continue
                            small = HTInterpretation(X, Y)
                            premises = [
                                HTInterpretation(X, Y),
                                HTInterpretation(X, Y | grown),
                                HTInterpretation(X | grown, Y | grown),
                            ]
                            small_sat = ik.ht_satisfies(small, r_small, LPMLN)
                            for col, big_i in enumerate(premises):
                                big_sat = ik.ht_satisfies(big_i, r_big, LPMLN)
                                claim = rows[2 * col] if big_sat else rows[2 * col + 1]
                                if claim is True:
                                    assert small_sat == big_sat
                                elif claim is False:
                                    raise AssertionError(
                                        f"impossible premise occurred: digit {digit}")


def _first_atom(universe, mask):
    return universe.names[(mask & -mask).bit_length() - 1]


def split_tuple(T):
    """K∪M and K∪N programs of a <K, M, N> tuple."""
    K, M, N = T.programs
    km = ik.Program(rules=K.rules + M.rules, universe=T.universe)
    kn = ik.Program(rules=K.rules + N.rules, universe=T.universe)
    return km, kn


def _tuple_equivalent(T):
    km, kn = split_tuple(T)
    return ik.equivalent(km, kn, LPMLN)[0]


def _check_preservation_matrix(shape, conds, expect_equiv):
    """Transform every canonical tuple and check the preservation claims.

    Tuples beyond the HT-scan atom cap (a few of the largest conditions)
    are skipped; coverage must stay above 90%. A tuple's set names and set
    sizes fix it up to a renaming of atoms, which keeps HT-model equality, so
    each verdict is computed once per such shape and reused.
    """
    verdicts = {}

    def tuple_equivalent(T, assignment):
        key = (T.segment_sizes,
               frozenset((name, bin(mask).count("1")) for name, mask in assignment.items()))
        if key not in verdicts:
            verdicts[key] = _tuple_equivalent(T)
        return verdicts[key]

    skipped = 0
    total = 0
    for c in conds:
        total += 1
        if sum(1 if v in c.sis else 2 for v in c.nis) > 16:
            skipped += 1
            continue
        T = ik.canonical_tuple(c)
        assignment = ik.extract_isets(T)
        assert tuple_equivalent(T, assignment) == expect_equiv
        exhaustive = bin(T.atoms()).count("1") <= 14
        done = set()
        for name in sorted(assignment):
            mask = assignment[name]
            size = bin(mask).count("1")
            atom = _first_atom(T.universe, mask)
            for kind in TransformKind:
                try:
                    claims = ik.preservation_class(kind, size)
                except ik.TransformGuardError:
                    continue
                if not exhaustive and (kind, size) in done:
                    continue
                done.add((kind, size))
                if not (claims.se_preserving if expect_equiv else claims.nse_preserving):
                    continue
                T2 = ik.apply_transform(T, kind, name, atom=atom, fresh="z0")
                assert tuple_equivalent(T2, ik.extract_isets(T2)) == expect_equiv, \
                    f"{kind.value} on I_{name} of {sorted(c.nis)} flipped the verdict"
    assert skipped <= total * 0.10, f"too many over-cap tuples: {skipped}/{total}"


def _check_counterexamples():
    # deleting from a singleton overlap set breaks equivalence
    u = ik.Universe()
    p = ik.parse_program("a | c :- b, c.", u)
    empty = ik.Program(rules=(), universe=u)
    assert ik.equivalent(p, empty, LPMLN)[0]
    T = ik.apply_transform(ik.concat_tuple([p]), RD, 6, atom="c")
    verdict, witness = ik.equivalent(T.programs[0], empty, LPMLN)
    assert not verdict and witness.format(u) == "({b}, {a,b})"
    # deleting a lone head atom repairs an inequivalent pair
    u2 = ik.Universe()
    p2 = ik.parse_program("a | b.", u2)
    q2 = ik.parse_program("b.", u2)
    assert not ik.equivalent(p2, q2, LPMLN)[0]
    T2 = ik.apply_transform(ik.concat_tuple([p2, q2]), RD, 32, atom="a")
    assert ik.equivalent(T2.programs[0], T2.programs[1], LPMLN)[0]
    # the two-program witness pair and its bucket structure
    u3 = ik.Universe()
    p3 = ik.parse_program("a | c.\nb.", u3)
    q3 = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u3)
    verdict, witness = ik.equivalent(p3, q3, LPMLN)
    assert not verdict and witness.format(u3) == "({a}, {a,b})"
    T3 = ik.concat_tuple([p3, q3])
    buckets = ik.extract_isets(T3)
    named = {k: sorted(u3.mask_names(m)) for k, m in buckets.items()}
    assert named == {16674: ["a", "c"], 2324: ["b"]}
    # shrinking the shared two-atom set repairs the pair
    T4 = ik.apply_transform(T3, RD, 16674, atom="c")
    assert ik.equivalent(T4.programs[0], T4.programs[1], LPMLN)[0]


def _check_extension_oracle(rng):
    """Equivalent pairs stay indistinguishable under program extensions."""
    n = 2
    u = ik.Universe()
    u.intern("v0")
    u.intern("v1")

    def rand_prog(k):
        return ik.Program(rules=tuple(
            ik.Rule(rng.randrange(4), rng.randrange(4), rng.randrange(4))
            for _ in range(k)), universe=u)

    singles = [ik.Program(rules=(ik.Rule(h, b, c),), universe=u)
               for h in range(4) for b in range(4) for c in range(4)]
    pairs = []
    while len(pairs) < 50:
        sem = ASP if len(pairs) % 2 == 0 else LPMLN
        p = rand_prog(rng.randrange(1, 3))
        q = rand_prog(rng.randrange(1, 3))
        if ik.equivalent(p, q, sem)[0]:
            pairs.append((p, q, sem))
    for p, q, sem in pairs:
        extensions = singles + [rand_prog(rng.randrange(1, 4)) for _ in range(100)]
        for ext in extensions:
            pr = ik.Program(rules=p.rules + ext.rules, universe=u)
            qr = ik.Program(rules=q.rules + ext.rules, universe=u)
            assert ik.stable_models(pr, sem, 3) == ik.stable_models(qr, sem, 3)


def test_criterion_09_property_suites(sound_reports):
    with criterion(9):
        _check_round_trips(random.Random(71))
        _check_fresh_atom_closure()
        _check_growth_table()
        for shape in [(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 2, 1)]:
            report, _ = sound_reports[shape]
            _check_preservation_matrix(shape, report.mgic, True)
            _check_preservation_matrix(shape, report.mnse, False)
        _check_counterexamples()
        _check_extension_oracle(random.Random(73))


def test_criterion_10_conjectural_matches_sound(sound_reports, large_sound_reports,
                                               conjectural_reports):
    with criterion(10):
        for shape, (sound, _) in {**sound_reports, **large_sound_reports}.items():
            assert conjectural_reports[shape].same_findings(sound)


def test_criterion_11_determinism_across_processes(sound_reports):
    """Fresh processes with different string-hash seeds print the same bytes
    as an in-process run."""
    want = sound_reports[(0, 1, 1)][0].dumps()
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    with criterion(11):
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-m", "isekit.cli", "discover", "0", "1", "1"],
                                 env=env, capture_output=True, text=True, check=True)
            assert run.stdout == want, seed
