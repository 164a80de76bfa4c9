"""Clique compression of discovered condition families."""

import importlib
import itertools
import json
import random
from functools import lru_cache

import pytest

import isekit as ik
from isekit.simplify import condition_as_sim, sim


SHAPE2 = (0, 1, 1)


def mk(nis, sis=frozenset(), shape=SHAPE2):
    return ik.make_condition(shape, nis, sis)


def cis(conditions, kind):
    """Common non-empty ('nonempty') or common empty ('empty') set names:
    the paper's CIS, an oracle for `sim` over the conditions of a clique."""
    conds = list(conditions)
    if not conds:
        raise ValueError("cis of an empty condition set")
    shape = conds[0].shape
    if any(c.shape != shape for c in conds):
        raise ValueError("conditions must share a shape")
    if kind == "nonempty":
        return frozenset.intersection(*(c.nis for c in conds))
    if kind == "empty":
        space = frozenset(range(1, 1 << (3 * sum(shape))))
        return space - frozenset().union(*(c.nis for c in conds))
    raise ValueError(f"unknown kind {kind!r}")


def test_cis():
    c1, c2, c3 = mk({1, 2, 3}), mk({1, 3}), mk({1, 2})
    assert cis([c1, c2], "nonempty") == frozenset({1, 3})
    assert cis([c1, c2, c3], "nonempty") == frozenset({1})
    empties = cis([c2, c3], "empty")
    assert 1 not in empties and 2 not in empties and 3 not in empties
    assert 4 in empties and len(empties) == 63 - 3
    with pytest.raises(ValueError):
        cis([], "nonempty")
    with pytest.raises(ValueError):
        cis([c1, ik.make_condition((0, 1, 0), {1})], "nonempty")
    with pytest.raises(ValueError):
        cis([c1], "both")


def interval(low, top):
    """Every nis of the cube [low, top.nis]."""
    free = sorted(top.nis - low)
    return [low | {free[j] for j in range(len(free)) if bits >> j & 1}
            for bits in range(1 << len(free))]


def spans(cliques):
    return [(c.low, c.max_member) for c in cliques]


def test_sis_irrelevant_partition():
    plain = [mk({1}), mk({1, 2})]
    parts = ik.sis_irrelevant_partition(plain)
    assert len(parts) == 1 and set(parts[0]) == set(plain)
    # a singleton constraint splits the family in two overlapping subsets
    mixed = [mk({1}), mk({1, 2}, {2}), mk({2}, {2})]
    parts = ik.sis_irrelevant_partition(mixed)
    assert len(parts) == 2
    assert set(parts[0]) == {mk({1}), mk({1, 2}, {2}), mk({2}, {2})}
    assert set(parts[1]) == {mk({1})}
    assert ik.sis_irrelevant_partition([]) == []


def test_full_cube_collapses_to_one_clique():
    conds = [mk({1}), mk({1, 2}), mk({1, 3}), mk({1, 2, 3})]
    cliques = ik.find_max_cliques(conds)
    assert spans(cliques) == [(frozenset({1}), mk({1, 2, 3}))]
    s = sim(cliques[0])
    assert s.nonempty == (1,)
    assert s.at_most_one == ()
    assert 2 not in s.empty and 3 not in s.empty and 4 in s.empty


def test_punctured_cube_gives_two_maximal_cliques():
    conds = [mk({1, 2}), mk({1, 3}), mk({1, 2, 3})]
    cliques = ik.find_max_cliques(conds)
    assert spans(cliques) == [(frozenset({1, 2}), mk({1, 2, 3})),
                              (frozenset({1, 3}), mk({1, 2, 3}))]


def test_lone_condition_is_a_trivial_clique():
    c = mk({1, 2}, {2})
    cliques = ik.find_max_cliques([c])
    assert spans(cliques) == [(c.nis, c)]
    s = sim(cliques[0])
    assert s == condition_as_sim(c)
    assert s.nonempty == (1,) or (1 in s.nonempty and 2 in s.at_most_one)


def test_clique_intervals_are_conditions_of_their_subset(sound_reports):
    for shape in [(0, 1, 1), (1, 1, 0), (0, 2, 1)]:
        report, _ = sound_reports[shape]
        for subset in ik.sis_irrelevant_partition(report.mgic):
            family = {c.nis: c.sis for c in subset}
            for clique in ik.find_max_cliques(subset):
                top = clique.max_member
                assert clique.low <= top.nis
                for nis in interval(clique.low, top):
                    assert family.get(nis) == nis & top.sis, (shape, sorted(nis))


def test_sim_is_cis_over_the_interval(sound_reports, large_sound_reports):
    reports = {**sound_reports, **large_sound_reports}
    for shape in [(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 2, 1), (1, 2, 0)]:
        report, _ = reports[shape]
        for subset in ik.sis_irrelevant_partition(report.mgic):
            index = {c.nis: c for c in subset}
            for clique in ik.find_max_cliques(subset):
                members = [index[nis] for nis in interval(clique.low, clique.max_member)]
                s = sim(clique)
                assert s.nonempty == tuple(sorted(cis(members, "nonempty"))), shape
                assert s.empty == tuple(sorted(cis(members, "empty"))), shape
                singletons = frozenset().union(*(c.sis for c in members))
                assert s.at_most_one == tuple(sorted(singletons)), shape


def test_fifteen_name_condition_is_a_trivial_clique():
    c = ik.make_condition((1, 1, 1), range(1, 16))
    cliques = ik.find_max_cliques([c])
    assert spans(cliques) == [(c.nis, c)]
    assert sim(cliques[0]) == condition_as_sim(c)


def _oracle_cliques(conds):
    """The cube walk from the top down, with a memo over 3^|nis| splits.

    Returns (low, top) per maximal clique, largest first, then by top and
    low.
    """
    index = {c.nis: c for c in conds}
    maxes = [c for c in conds if not any(c.nis < d.nis for d in conds)]
    cliques = []
    for top in maxes:
        smax, U = top.sis, top.nis

        @lru_cache(maxsize=None)
        def cube_ok(low, free):
            if not free:
                c = index.get(low)
                return c is not None and c.sis == low & smax
            d = min(free)
            rest = free - {d}
            return cube_ok(low, rest) and cube_ok(low | {d}, rest)

        minimal, seen, stack = set(), set(), [U]
        while stack:
            low = stack.pop()
            if low in seen:
                continue
            seen.add(low)
            shrinkable = False
            for e in low:
                cand = low - {e}
                if cube_ok(cand, U - cand):
                    shrinkable = True
                    stack.append(cand)
            if not shrinkable:
                minimal.add(low)
        cliques.extend((low, top, frozenset(interval(low, top))) for low in minimal)
    out, out_keys = [], []
    for low, top, k in cliques:
        if not any(k < o for _, _, o in cliques) and k not in out_keys:
            out.append((low, top))
            out_keys.append(k)
    out.sort(key=lambda c: (-len(c[1].nis - c[0]), c[1].sort_key(), sorted(c[0])))
    return out


def _got_cliques(conds):
    return spans(ik.find_max_cliques(conds))


def test_find_max_cliques_matches_cube_walk_on_reports(sound_reports):
    for shape in [(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 2, 1)]:
        report, _ = sound_reports[shape]
        for subset in ik.sis_irrelevant_partition(report.mgic):
            assert _got_cliques(subset) == _oracle_cliques(subset), shape


def _random_family(rng):
    """A punctured union of subcubes over 4-8 names, sis from a small pool."""
    names = rng.sample(range(1, 64), rng.randint(4, 8))
    pool = [frozenset()] + [frozenset(rng.sample(names, rng.randint(1, 3)))
                            for _ in range(2)]
    family = {}
    for _ in range(rng.randint(1, 3)):
        top = rng.sample(names, rng.randint(1, len(names)))
        low = rng.sample(top, rng.randint(0, len(top) - 1))
        free = [v for v in top if v not in low]
        for bits in range(1 << len(free)):
            nis = frozenset(low) | {free[j] for j in range(len(free)) if bits >> j & 1}
            if nis and rng.random() > 0.15:
                family[nis] = nis & rng.choice(pool)
    conds = [mk(nis, sis) for nis, sis in family.items()]
    rng.shuffle(conds)
    return conds


def test_find_max_cliques_matches_cube_walk_on_random_families():
    rng = random.Random(4242)
    for _ in range(200):
        conds = _random_family(rng)
        assert _got_cliques(conds) == _oracle_cliques(conds), [c.to_json() for c in conds]


def _simplify_bytes(conds):
    return json.dumps(ik.simplify(conds).to_json(), sort_keys=True, separators=(",", ":"))


def test_simplify_ignores_input_order(sound_reports):
    rng = random.Random(7)
    for shape in [(0, 1, 0), (1, 1, 0)]:
        report, _ = sound_reports[shape]
        want = _simplify_bytes(report.mgic)
        for _ in range(3):
            shuffled = list(report.mgic)
            rng.shuffle(shuffled)
            assert _simplify_bytes(shuffled) == want, shape
        assert _simplify_bytes(c for c in report.mgic) == want, shape


def test_simplify_rejects_a_repeated_nis():
    # either order: one of the two would be dropped, and with it the size
    # assignment {1: 2} that only the first admits
    pair = [mk({1}), mk({1}, {1})]
    for conds in (pair, pair[::-1]):
        with pytest.raises(ValueError, match="share a nis"):
            ik.simplify(conds)


def test_simplify_rejects_random_families_with_a_repeated_nis():
    rng = random.Random(1729)
    for _ in range(100):
        conds = _random_family(rng)
        if not conds:
            continue
        twin = rng.choice(conds)
        conds.insert(rng.randint(0, len(conds)),
                     mk(twin.nis, frozenset(rng.sample(sorted(twin.nis), rng.randint(0, 1)))))
        with pytest.raises(ValueError, match="share a nis"):
            ik.simplify(conds)


def test_simplify_ignores_partition_order(large_sound_reports, simplify_stdout, monkeypatch):
    """With distinct nis, the order of the partition's subsets cannot change
    the output: sound 1-1-1 has two subsets, tried here the other way round."""
    report, _ = large_sound_reports[(1, 1, 1)]
    want = simplify_stdout((1, 1, 1))
    module = importlib.import_module("isekit.simplify")
    partition = module.sis_irrelevant_partition
    seen = []

    def reversed_partition(conds):
        subsets = partition(conds)
        seen.append(len(subsets))
        return subsets[::-1]

    monkeypatch.setattr(module, "sis_irrelevant_partition", reversed_partition)
    assert _simplify_bytes(report.mgic) + "\n" == want
    assert seen == [2]


def _mask(names):
    return sum(1 << v for v in names)


def test_simplify_three_rule_problem_is_exact(large_sound_reports, simplify_stdout):
    """Sound 1-1-1 (39392 conditions, |nis| up to 15), support by support,
    on what `isekit simplify` prints."""
    report, _ = large_sound_reports[(1, 1, 1)]
    result = json.loads(simplify_stdout((1, 1, 1)))
    assert len(result["disjuncts"]) == 19 and result["residual"] == []
    family = {_mask(c.nis): _mask(c.sis) for c in report.mgic}
    space = range(1, 1 << (3 * sum(report.shape)))
    dis = [(_mask(d["nonempty"]), _mask(d["empty"]), _mask(d["at_most_one"]))
           for d in result["disjuncts"]]
    # every condition, at its canonical sizes (1 atom per sis name, 2 per
    # other nis name), satisfies some disjunct
    for n, s in family.items():
        assert any(dn & ~n == 0 and de & n == 0 and ds & n & ~s == 0
                   for dn, de, ds in dis), n
    # every support a disjunct admits is a condition whose singletons the
    # disjunct bounds
    for dn, de, ds in dis:
        free = [1 << v for v in space if not (dn | de) >> v & 1]
        for bits in range(1 << len(free)):
            n = dn | sum(b for j, b in enumerate(free) if bits >> j & 1)
            assert n in family and family[n] & ~(n & ds) == 0, n


def _space_names(shape, mgic):
    out = set()
    for c in mgic:
        out |= c.nis
    return sorted(out)


def _covers_same_assignments(shape, mgic, result, extra_names=()):
    """Brute-force comparison over size assignments touching the used names."""
    names = _space_names(shape, mgic) + list(extra_names)
    for combo in itertools.product((0, 1, 2), repeat=len(names)):
        sizes = dict(zip(names, combo))
        lhs = any(ik.condition_holds(c, sizes) for c in mgic)
        rhs = any(ik.sim_holds(d, sizes) for d in result.disjuncts)
        if lhs != rhs:
            return False, sizes
    return True, None


def test_simplify_single_fact_problem_is_exact(sound_reports):
    report, _ = sound_reports[(0, 1, 0)]
    result = ik.simplify(report.mgic)
    ok, bad = _covers_same_assignments((0, 1, 0), report.mgic, result)
    assert ok, f"diverges at {bad}"


def test_simplify_two_rule_problem_is_exact(sound_reports):
    report, _ = sound_reports[(0, 1, 1)]
    result = ik.simplify(report.mgic)
    assert len(result.disjuncts) == 1
    assert result.residual == []
    ok, bad = _covers_same_assignments((0, 1, 1), report.mgic, result,
                                       extra_names=[32])
    assert ok, f"diverges at {bad}"


def test_simplify_empty_input():
    result = ik.simplify([])
    assert result.disjuncts == [] and result.residual == []


def test_simplified_condition_json_and_format():
    s = ik.SimplifiedCondition(nonempty=(36,), empty=(1, 2), at_most_one=(9,))
    assert ik.SimplifiedCondition.from_json(s.to_json()) == s
    text = s.format()
    assert "I_36 ≠ ∅" in text and "I_1 = ∅" in text and "|I_9| ≤ 1" in text
    assert ik.SimplifiedCondition((), (), ()).format() == "⊤"


def test_condition_and_sim_holds():
    c = mk({1, 2}, {2})
    assert ik.condition_holds(c, {1: 2, 2: 1})
    assert not ik.condition_holds(c, {1: 2, 2: 2})  # singleton violated
    assert not ik.condition_holds(c, {1: 0, 2: 1})  # required set empty
    assert not ik.condition_holds(c, {1: 1, 2: 1, 3: 1})  # outside name occupied
    s = condition_as_sim(c)
    assert ik.sim_holds(s, {1: 2, 2: 1})
    assert not ik.sim_holds(s, {1: 2, 2: 2})
    # singleton names stay required: at-most-one is paired with non-empty
    assert not ik.sim_holds(s, {1: 2, 2: 0})
