"""Set names, extraction, reconstruction, canonical tuples, condition order."""

import random

import pytest

import isekit as ik
from isekit.isets import CanonicalSearch, canonical_rules, locals_from_name


def test_locals_from_name_single_rule():
    assert locals_from_name(4, 1) == [4]
    assert locals_from_name(7, 1) == [7]
    assert locals_from_name(1, 1) == [1]


def test_locals_from_name_known_values():
    assert locals_from_name(16674, 5) == [4, 0, 4, 4, 2]
    assert locals_from_name(2324, 5) == [0, 4, 4, 2, 4]
    assert locals_from_name(36, 2) == [4, 4]
    assert locals_from_name(48, 2) == [6, 0]


def test_name_range_checks():
    with pytest.raises(ValueError):
        locals_from_name(0, 1)
    with pytest.raises(ValueError):
        locals_from_name(8, 1)


def test_extract_single_overlapping_rule():
    u = ik.Universe()
    p = ik.parse_program("a | b | d :- b, c, not c.", u)
    T = ik.concat_tuple([p])
    buckets = ik.extract_isets(T)
    named = {name: sorted(u.mask_names(m)) for name, m in buckets.items()}
    assert named == {3: ["c"], 4: ["a", "d"], 6: ["b"]}


def test_extract_two_program_tuple():
    u = ik.Universe()
    p = ik.parse_program("a | c.\nb.", u)
    q = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u)
    T = ik.concat_tuple([p, q])
    buckets = ik.extract_isets(T)
    named = {name: sorted(u.mask_names(m)) for name, m in buckets.items()}
    assert named == {16674: ["a", "c"], 2324: ["b"]}


def test_extract_skips_unused_atoms():
    u = ik.Universe()
    u.intern("z")
    p = ik.parse_program("a.", u)
    buckets = ik.extract_isets(ik.concat_tuple([p]))
    assert set(buckets) == {4}


def test_reconstruct_example_tuple():
    u = ik.Universe()
    x, y = u.intern("x"), u.intern("y")
    T = ik.reconstruct_tuple(u, (1, 1), {36: (1 << x) | (1 << y)})
    assert ik.render_program(T.programs[0]) == "x | y.\n"
    assert ik.render_program(T.programs[1]) == "x | y.\n"


def test_reconstruct_round_trip_known():
    u = ik.Universe()
    masks = {16674: (1 << u.intern("a")) | (1 << u.intern("c")),
             2324: 1 << u.intern("b")}
    T = ik.reconstruct_tuple(u, (2, 3), masks)
    assert ik.render_program(T.programs[0]) == "a | c.\nb.\n"
    # atoms render in intern order: a, c, b
    assert ik.render_program(T.programs[1]) == "a | c | b.\na | c :- b.\nb :- a, c.\n"
    assert ik.extract_isets(T) == masks


def test_reconstruct_rejects_bad_assignment():
    u = ik.Universe()
    a = u.intern("a")
    with pytest.raises(ik.ShapeMismatchError):
        ik.reconstruct_tuple(u, (1,), {9: 1 << a})  # 9 needs two rules
    with pytest.raises(ValueError):
        ik.reconstruct_tuple(u, (1,), {4: 1 << a, 2: 1 << a})  # overlap


def _random_assignment(rng, n_rules, n_names):
    names = rng.sample(range(1, 1 << (3 * n_rules)), n_names)
    u = ik.Universe()
    assignment = {}
    i = 0
    for name in names:
        size = rng.randrange(1, 3)
        m = 0
        for _ in range(size):
            m |= 1 << u.intern(f"v{i}")
            i += 1
        assignment[name] = m
    return u, assignment


def test_extract_reconstruct_round_trip_random():
    rng = random.Random(17)
    for _ in range(1000):
        n_rules = rng.randrange(1, 4)
        n_names = rng.randrange(1, min(6, 1 << (3 * n_rules)))
        u, assignment = _random_assignment(rng, n_rules, n_names)
        sizes = [0] * n_rules
        cut = rng.randrange(n_rules + 1)
        sizes = tuple((1 if j < cut else 0) + 1 for j in range(n_rules))
        # segment sizes just partition the rules; use a random split
        total = n_rules
        split = rng.randrange(total + 1)
        T = ik.reconstruct_tuple(u, (split, total - split), assignment)
        assert ik.extract_isets(T) == assignment


def test_condition_validation_and_json():
    c = ik.make_condition((0, 1, 1), {36, 9}, {36})
    assert c.sis == frozenset({36})
    assert ik.ISCondition.from_json(c.to_json()) == c
    d = ik.make_condition((0, 1, 1), {36, 9})
    assert d.sis == frozenset({36, 9})
    with pytest.raises(ValueError):
        ik.make_condition((0, 1, 1), {36}, {9})  # sis not within nis
    with pytest.raises(ValueError):
        ik.make_condition((0, 1, 0), {9})  # name out of range for one rule


def test_canonical_tuple_single_fact_shapes():
    c = ik.make_condition((0, 1, 0), {4}, {4})
    T = ik.canonical_tuple(c)
    assert T.segment_sizes == (0, 1, 0)
    assert ik.render_program(T.programs[1]) == "x0.\n"
    d = ik.make_condition((0, 1, 0), {4}, set())
    T2 = ik.canonical_tuple(d)
    assert ik.render_program(T2.programs[1]) == "x0 | x1.\n"


def test_canonical_tuple_orders_names_ascending():
    c = ik.make_condition((0, 1, 1), {36, 9}, {36})
    T = ik.canonical_tuple(c)
    buckets = ik.extract_isets(T)
    u = T.universe
    assert sorted(u.mask_names(buckets[9])) == ["x0", "x1"]
    assert sorted(u.mask_names(buckets[36])) == ["x2"]
    assert T.segment_sizes == (0, 1, 1)


def test_condition_sort_key_orders_by_size_then_content():
    shape = (0, 1, 1)
    cs = [ik.make_condition(shape, {36, 9}, {9}),
          ik.make_condition(shape, {4}, {4}),
          ik.make_condition(shape, {36, 9}, {36})]
    cs.sort(key=lambda c: c.sort_key())
    assert [sorted(c.nis) for c in cs] == [[4], [9, 36], [9, 36]]
    assert sorted(cs[1].sis) == [9]


# --- the name-level HT search against the bigint kernel -----------------------

SHAPES = [(0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 0), (1, 2, 0),
          (1, 1, 1), (2, 1, 1)]


def bigint_se(shape, rules, sem):
    """`equivalent` on the K∪M and K∪N slices of a tuple's rules."""
    k, m = shape[0], shape[1]
    km = ik.Program(rules=tuple(rules[:k + m]))
    kn = ik.Program(rules=tuple(rules[:k] + rules[k + m:]))
    return ik.equivalent(km, kn, sem)[0]


def random_condition(rng, shape):
    """1-5 names drawn from all of the shape's names, overlap digits included."""
    nis = rng.sample(range(1, 1 << (3 * sum(shape))), rng.randint(1, 5))
    return nis, [v for v in nis if rng.random() < 0.5]


@pytest.mark.parametrize("sem", list(ik.Semantics), ids=lambda s: s.value)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_search_matches_bigint_kernel(shape, sem):
    rng = random.Random(f"{shape} {sem.value}")
    verdicts = set()
    overlaps = 0
    for _ in range(100):
        nis, sis = random_condition(rng, shape)
        search = CanonicalSearch(shape, nis, sem)
        got = search.equivalent(search.domains(search.mask(sis)))
        assert got == bigint_se(shape, canonical_rules(shape, nis, sis), sem), (nis, sis)
        verdicts.add(got)
        overlaps += any(d in (3, 5, 6, 7) for v in nis for d in locals_from_name(v, sum(shape)))
    assert verdicts == {True, False}
    assert overlaps >= 20


@pytest.mark.parametrize("sem", list(ik.Semantics), ids=lambda s: s.value)
def test_grown_singleton_matches_bigint_kernel(sem):
    """On an SE condition, `grow` answers for the singleton with two atoms.

    Load-bearing singletons are rare, so the names come from the overlap-free
    universes of the 3- and 4-rule shapes. There asp has some (x0 forced both
    in and out by ":- x0." and ":- not x0."), lpmln about 1 in 300.
    """
    rng = random.Random(f"grow {sem.value}")
    pools = {shape: ik.base_name_universe(shape) for shape in SHAPES if sum(shape) >= 3}
    verdicts = []
    while len(verdicts) < 300:
        shape = rng.choice(sorted(pools))
        nis = rng.sample(pools[shape], rng.randint(1, 4))
        search = CanonicalSearch(shape, nis, sem)
        start = search.domains(search.mask(nis))
        if not search.equivalent(start):
            continue
        for s in nis:
            got = search.equivalent(search.grow(start, search.mask([s])))
            rules = canonical_rules(shape, nis, [v for v in nis if v != s])
            assert got == bigint_se(shape, rules, sem), (shape, nis, s)
            verdicts.append(got)
    assert verdicts.count(False) >= (10 if sem is ik.Semantics.ASP else 1)


@pytest.mark.parametrize("sem", list(ik.Semantics), ids=lambda s: s.value)
def test_three_atom_set_keeps_the_verdict(sem):
    """Three atoms in a set realise no (lo, hi) state that two do not."""
    rng = random.Random(f"widen {sem.value}")
    verdicts = set()
    for _ in range(150):
        shape = rng.choice(SHAPES)
        nis, sis = random_condition(rng, shape)
        wide = [v for v in nis if v not in sis]
        if not wide:
            continue
        widths = {v: 1 if v in sis else 2 for v in nis}
        widths[rng.choice(wide)] = 3
        assignment, j = {}, 0
        for v in sorted(nis):
            assignment[v] = ((1 << widths[v]) - 1) << j
            j += widths[v]
        T = ik.reconstruct_tuple(ik.Universe(f"x{i}" for i in range(j)), shape, assignment)
        rules = [r for p in T.programs for r in p.rules]
        search = CanonicalSearch(shape, nis, sem)
        got = search.equivalent(search.domains(search.mask(sis)))
        assert got == bigint_se(shape, rules, sem), (shape, nis, sis, widths)
        verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("sem", list(ik.Semantics), ids=lambda s: s.value)
def test_equivalent_is_monotone_in_the_domains(sem):
    """No witness within d means none within any d' inside d.

    `verify_and_compute_mgse` rests on this when one answer on the two-atom
    domains settles the condition and all its singletons.
    """
    rng = random.Random(f"monotone {sem.value}")
    held = only_inner = 0
    for _ in range(400):
        shape = rng.choice([s for s in SHAPES if sum(s) in (2, 3)])
        nis, _ = random_condition(rng, shape)
        search = CanonicalSearch(shape, nis, sem)
        outer = inner = 0
        for i in range(len(nis)):   # every 6-bit field keeps a state
            field = rng.randint(1, 63)
            sub = field & rng.randint(0, 63) or 1 << rng.choice(
                [b for b in range(6) if field >> b & 1])
            outer |= field << (6 * i)
            inner |= sub << (6 * i)
        if search.equivalent(outer):
            held += 1
            assert search.equivalent(inner), (shape, nis, outer, inner)
        only_inner += search.equivalent(inner) and not search.equivalent(outer)
    assert held >= 100 and only_inner >= 10, (held, only_inner)
