"""Condition search: filters, verification, enumeration, checkpoints."""

import hashlib
import json
import random
from collections import Counter

import pytest

import isekit as ik
from isekit.discovery import (CheckpointError, _border, _border_verdicts, _coverers, _head_cover,
                              _layer_candidates, _verify)
from isekit.isets import CanonicalSearch


def _universe_with_digit_5(shape):
    """The names with no local digit 3, 6 or 7: IS' with its digit-5 names."""
    n = sum(shape)
    return [v for v in range(1, 1 << (3 * n))
            if not any(d in (3, 6, 7) for d in ik.locals_from_name(v, n))]


def test_full_and_filtered_universe_sizes():
    assert len(ik.base_name_universe((0, 1, 1))) == 24
    assert len(ik.base_name_universe((1, 1, 0))) == 24
    assert len(ik.base_name_universe((0, 2, 1))) == 63
    assert len(ik.base_name_universe((1, 1, 1))) == 63
    # two rules keep their digit-5 names; three drop them from 124 names
    assert ik.base_name_universe((0, 1, 1)) == _universe_with_digit_5((0, 1, 1))
    with_5 = _universe_with_digit_5((1, 1, 1))
    assert len(with_5) == 124
    assert ik.base_name_universe((1, 1, 1)) == [v for v in with_5
                                                if 5 not in ik.locals_from_name(v, 3)]


@pytest.mark.parametrize("sem", [ik.Semantics.LPMLN, ik.Semantics.ASP], ids=["lpmln", "asp"])
def test_head_atom_in_the_negative_body_leaves_the_head(sem):
    """The lemma of `base_name_universe`: removing head & nbody from every
    head keeps the HT models, on random weighted programs that have such
    an atom."""
    rng = random.Random(f"digit-5-{sem.name}")
    for _ in range(800):
        u = rng.randint(2, 5)
        rules = [ik.Rule(*(rng.getrandbits(u) for _ in range(3)), weight=rng.choice((-1.5, 0.5, 2.0)))
                 for _ in range(rng.randint(1, 4))]
        r, a = rng.randrange(len(rules)), 1 << rng.randrange(u)
        rules[r] = ik.Rule(rules[r].head | a, rules[r].pbody, rules[r].nbody | a, rules[r].weight)
        p = ik.Program(rules=tuple(rules))
        q = ik.Program(rules=tuple(ik.Rule(x.head & ~x.nbody, x.pbody, x.nbody, x.weight)
                                   for x in rules))
        assert ik.ht_models(p, (1 << u) - 1, sem) == ik.ht_models(q, (1 << u) - 1, sem), rules


def _five_to_one(name):
    """The name with every local digit 5 made 1."""
    return int(oct(name)[2:].replace("5", "1"), 8)


@pytest.mark.parametrize("sem", [ik.Semantics.LPMLN, ik.Semantics.ASP], ids=["lpmln", "asp"])
def test_digit_5_conditions_have_the_verdict_of_their_rewrite(sem):
    """A condition with digit-5 names verifies as its rewrite: every 5 made
    1, names that coincide merged, and a merged set a singleton only if it
    came from one singleton name. The kept singletons correspond too, and
    the bigint kernel on the rewrite's canonical tuple agrees."""
    rng = random.Random(f"rewrite-{sem.name}")
    keepers = {(1, 1, 1): 0o402, (0, 2, 2): 0o424}   # kept beside the all-4 name
    seen = Counter()
    for shape in [(0, 2, 1), (1, 1, 1), (1, 2, 0), (0, 2, 2)]:
        n = sum(shape)
        core = int("4" * n, 8)
        pool = _universe_with_digit_5(shape)
        fives = [v for v in pool if 5 in ik.locals_from_name(v, n)]
        for j in range(250):
            five = rng.choice(fives)
            if shape in keepers and j % 3 == 0:
                nis = {five, core, keepers[shape]}
            else:
                nis = {five, *rng.sample(pool, rng.randint(0, 3))}
                if rng.random() < 0.6:
                    nis.add(core)
            if rng.random() < 0.3:   # the name that five becomes
                nis.add(_five_to_one(five))
            sis = {v for v in nis if rng.random() < 0.5 or v == keepers.get(shape)}
            images = Counter(map(_five_to_one, nis))
            nis2 = set(images)
            sis2 = {_five_to_one(v) for v in sis if images[_five_to_one(v)] == 1}
            got = ik.verify_and_compute_mgse(shape, nis, sis, sem)
            want = ik.verify_and_compute_mgse(shape, nis2, sis2, sem)
            assert (got is None) == (want is None), (shape, nis, sis)
            if got is not None:
                assert set(map(_five_to_one, got.sis)) == want.sis, (shape, nis, sis)
            if j % 10 == 0:
                assert _oracle_verify(shape, nis2, sis2, sem) == want, (shape, nis2, sis2)
            seen["SE" if got else "not SE"] += 1
            seen["kept singletons"] += bool(got and got.sis)
            seen["merged"] += len(nis2) < len(nis)
    assert min(seen.values()) >= 10, seen
    if sem is ik.Semantics.ASP:
        # 0o250 and 0o210, two singletons of 0-2-1, merge into a set of two
        # atoms: not SE, although 0o210 alone as a singleton is
        both = {0o210, 0o250}
        assert ik.verify_and_compute_mgse((0, 2, 1), both, both, sem) is None
        assert ik.verify_and_compute_mgse((0, 2, 1), {0o210}, {0o210}, sem) is not None


def test_filtered_universe_content():
    names = ik.base_name_universe((0, 1, 1))
    assert 36 in names and 9 in names
    assert all(d not in (3, 6, 7) for v in names
               for d in ik.locals_from_name(v, 2))


def test_verify_fact_against_empty_fails():
    assert ik.verify_and_compute_mgse((0, 1, 0), {4}, {4}) is None


def test_verify_rejects_malformed_conditions():
    with pytest.raises(ValueError, match="subset"):
        ik.verify_and_compute_mgse((0, 1, 0), {4}, {2})
    for nis in ({8}, {0, 4}):   # one rule names 1..7
        with pytest.raises(ValueError, match="out of range"):
            ik.verify_and_compute_mgse((0, 1, 0), nis, nis)


def test_verify_tautology_generalizes_singleton():
    res = ik.verify_and_compute_mgse((0, 1, 0), {3}, {3})
    assert res is not None
    assert res.nis == frozenset({3})
    assert res.sis == frozenset()


def test_verify_retains_load_bearing_singletons():
    # x0. vs x0. with matching heads: the pair stays equivalent however the
    # shared set grows, so no singleton is retained
    res = ik.verify_and_compute_mgse((0, 1, 1), {36}, {36})
    assert res is not None and res.sis == frozenset()


def test_verify_known_se_condition():
    cond_names = {36, 9, 13, 18, 41, 45}
    res = ik.verify_and_compute_mgse((0, 1, 1), cond_names, cond_names)
    assert res is not None


def test_basic_counts_single_fact_problem(sound_reports):
    report, _ = sound_reports[(0, 1, 0)]
    assert report.stats["is"] == 7
    assert report.tr == 7
    assert len(report.mgic) == 120
    assert len(report.mnse) == 1
    assert report.mnse[0].nis == frozenset({4})
    assert report.max_nse == 1


def _candidates(names, i, n_rules, prev_se):
    """`_layer_candidates` in name terms: the masks are over the names in
    descending order, as `discover` passes them. Checks that the masks come
    in descending order and that this is `sort_key` order of their names."""
    desc = sorted(names, reverse=True)
    prev = {sum(1 << desc.index(v) for v in nis) for nis in prev_se}
    masks = _layer_candidates(desc, i, n_rules, prev)
    assert masks == sorted(masks, reverse=True)
    conds = [ik.make_condition((0, 0, n_rules), [v for idx, v in enumerate(desc) if s >> idx & 1])
             for s in masks]
    assert [c.sort_key() for c in conds] == sorted(c.sort_key() for c in conds)
    return [tuple(sorted(c.nis)) for c in conds]


def test_layer_candidates_drops_sets_over_a_failed_subset():
    names = [36, 9, 18, 33]   # 36 = 0o44 covers both rules, 33 = 0o41 only one
    # layer 1: only names covering both rules with a head-only digit survive
    assert _candidates(names, 1, 2, []) == [(36,)]
    assert _candidates(names, 2, 2, [{36}]) == [(9, 36), (18, 36), (33, 36)]
    # a covered S - {u} that was not SE ({9, 36}) removes S; the uncovered
    # {18, 33} does not remove {18, 33, 36}
    assert _candidates(names, 3, 2, [{18, 36}, {33, 36}]) == [(18, 33, 36)]
    assert _candidates(names, 3, 2, [{18, 36}]) == []


def _submasks(universe):
    s = universe
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & universe


def test_border_matches_brute_force_on_random_antichains():
    """`_border` alone, for "holds none of the antichain's sets": its
    failures are the minimal failures that meet every edge, of at most
    `limit` names; with no limit its tops are the maximal sets that hold and
    meet every edge; with one, each is such a set, and the sets of at most
    `limit` names that meet the edges and hold are those under a top."""
    rng = random.Random(28)
    for trial in range(80):
        n = 16 if trial == 0 else rng.randint(1, 10)
        spread = rng.sample(range(16), n)   # the universe need not be 0..n-1
        universe = sum(1 << x for x in spread)

        def some(lo, hi):
            return sum(1 << x for x in rng.sample(spread, rng.randint(lo, min(hi, n))))

        drawn = [some(1, 4) for _ in range(rng.randint(0, 8))]
        antichain = {a for a in drawn if not any(b != a and not b & ~a for b in drawn)}
        edges = [some(1, n) for _ in range(rng.randint(0, 3))]

        def holds(s):
            return all(a & ~s for a in antichain)

        def meets(s):
            return all(s & e for e in edges)

        covered = [s for s in _submasks(universe) if meets(s)]
        true = [s for s in covered if holds(s)]
        tops = {s for s in true if not any(holds(s | 1 << x) for x in spread if not s >> x & 1)}
        failures = {s for s in covered if not holds(s)
                    and all(holds(s ^ 1 << x) or not meets(s ^ 1 << x) for x in spread if s >> x & 1)}
        for limit in (n, 1, 2, 3, 4):
            got_tops, got_failures = _border(universe, edges, limit, holds)
            assert sorted(got_failures) == sorted(f for f in failures if f.bit_count() <= limit), trial
            if limit == n:
                assert sorted(got_tops) == sorted(tops), trial
            else:
                assert set(got_tops) <= tops, (trial, limit)
                assert ({s for s in true if s.bit_count() <= limit}
                        == {s for s in true if s.bit_count() <= limit
                            and any(not s & ~t for t in got_tops)}), (trial, limit)


class _ModelSearch:
    """The questions of `CanonicalSearch` on a model: (S, sis) is SE iff S
    holds none of the antichain's sets and no pair (p, b) with p within S
    and b not in sis. A domain is the mask of the one-atom names."""

    def __init__(self, n, antichain, pairs):
        self.names, self.antichain, self.pairs = range(n), antichain, pairs

    def select(self, mask):
        self.selected, self.full = mask, 0
        return self

    def domains(self, sis):
        return sis

    def grow(self, domains, name):
        return domains & ~name

    def equivalent(self, domains):
        s = self.selected
        return (all(a & ~s for a in self.antichain)
                and not any(not p & ~s and b & ~domains for p, b in self.pairs))


def test_border_verdicts_match_verify_on_a_model_search():
    """`_border_verdicts` against `_verify` on every covered set of at most
    `limit` names, where the sets that keep a singleton come from random
    minimal pairs."""
    rng = random.Random(2028)
    kept_seen = 0
    for trial in range(60):
        n = rng.randint(2, 9)

        def some(lo, hi):
            return sum(1 << x for x in rng.sample(range(n), rng.randint(lo, min(hi, n))))

        antichain = [some(2, 4) for _ in range(rng.randint(0, 4))]
        pairs = []
        for _ in range(rng.randint(0, 4)):
            p = some(1, 3)
            pairs.append((p, 1 << rng.choice([x for x in range(n) if p >> x & 1])))
        coverers = [some(1, n) for _ in range(rng.randint(1, 3))]
        search = _ModelSearch(n, antichain, pairs)
        for limit in (n, 2, 3):
            verdict = _border_verdicts(search, coverers, limit)
            for s in range(1 << n):
                if s.bit_count() <= limit and all(s & c for c in coverers):
                    want = _verify(search.select(s), s)
                    assert verdict(s) == want, (trial, limit, s)
                    kept_seen += bool(want)
    assert kept_seen > 100


def _layered_verdicts(shape, max_layer):
    """Per layer, the candidates and their verdicts as the layered search
    asked them, one `_verify` per candidate, with the report's stop test."""
    total = sum(shape)
    names = sorted((x for x in ik.base_name_universe(shape)
                    if ik.verify_and_compute_mgse(shape, (x,), (x,)) is not None), reverse=True)
    search = CanonicalSearch(shape, names, ik.Semantics.LPMLN)
    layers, prev = [], set()
    for i in range(1, max_layer + 1):
        results = [(s, _verify(search.select(s), s)) for s in _layer_candidates(names, i, total, prev)]
        layers.append(results)
        prev = {s for s, kept in results if kept is not None}
        if not prev and i >= total:
            break
    return names, search, layers


@pytest.mark.parametrize("shape", [(0, 2, 1), (1, 2, 0), (2, 1, 0), (1, 1, 1)],
                         ids=["0-2-1", "1-2-0", "2-1-0", "1-1-1"])
def test_border_verdicts_equal_the_layered_ones(shape):
    """The verdicts that `discover` reads off the border are those of one
    `_verify` per candidate, layer by layer, up to layer 3."""
    names, search, layers = _layered_verdicts(shape, 3)
    verdict = _border_verdicts(search, _coverers(names, sum(shape)), 3)
    for i, results in enumerate(layers, 1):
        assert [(s, verdict(s)) for s, _ in results] == results, (shape, i)


def test_improved_matches_known_counts(sound_reports):
    for shape in [(0, 1, 1), (1, 1, 0), (0, 2, 1)]:
        report, _ = sound_reports[shape]
        expect = ik.KNOWN_COUNTS[shape]
        assert report.stats["is"] == expect["is"]
        assert report.stats["is_prime"] == expect["is_prime"]
        assert report.stats["is_dprime"] == expect["is_dprime"]
        assert report.tr == expect["tr"]
        assert len(report.mgic) == expect["mgic"]
        assert len(report.mnse) == expect["mnse"]
        assert report.max_nse == expect["max_nse"]


def test_report_json_round_trip(sound_reports):
    report, _ = sound_reports[(0, 1, 1)]
    again = ik.SearchReport.from_json(json.loads(report.dumps()))
    assert again.same_findings(report)
    assert again.dumps() == report.dumps()


def test_conjectural_agrees_with_sound(sound_reports):
    for shape in [(0, 1, 1), (1, 1, 0)]:
        sound, _ = sound_reports[shape]
        conj = ik.discover(shape, ik.RunConfig(mode="conjectural"))
        assert conj.mode == "conjectural"
        assert conj.same_findings(sound)


def test_checkpoint_resume_reproduces_report(tmp_path, sound_reports):
    sound, _ = sound_reports[(0, 1, 1)]
    path = str(tmp_path / "ck.jsonl")
    first = ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=path))
    assert first.dumps() == sound.dumps()
    # the log holds IS'' and candidate masks, no conditions
    with open(path) as f:
        records = [json.loads(line) for line in f]
    assert [sorted(r) for r in records[1:]] == [["is2", "kind"]] + [["i", "kind", "results"]] * first.tr
    # a resumed run replays the log instead of re-verifying, byte-identically
    again = ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=path))
    assert again.dumps() == first.dumps()


def test_checkpoint_rejects_other_run(tmp_path):
    path = str(tmp_path / "ck.jsonl")
    ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=path))
    with pytest.raises(CheckpointError):
        ik.discover((1, 1, 0), ik.RunConfig(checkpoint_path=path))


def test_max_layer_marks_partial():
    report = ik.discover((0, 1, 1), ik.RunConfig(max_layer=2))
    assert report.stats.get("partial") is True
    assert all(len(c.nis) <= 2 for c in report.mgic)


def _oracle_verify(shape, nis, sis, sem):
    """The tuple route: canonical tuple, K∪M vs K∪N, then S-EX per singleton."""
    def se(T):
        K, M, N = T.programs
        km = ik.Program(rules=K.rules + M.rules, universe=T.universe)
        kn = ik.Program(rules=K.rules + N.rules, universe=T.universe)
        return ik.equivalent(km, kn, sem)[0]

    c = ik.make_condition(shape, nis, sis)
    T = ik.canonical_tuple(c)
    if not se(T):
        return None
    kept = {s for s in c.sis
            if not se(ik.apply_transform(T, ik.TransformKind.S_EX, s, fresh="y"))}
    return ik.make_condition(shape, c.nis, kept)


def test_verify_matches_tuple_route_on_reports(sound_reports):
    for shape in [(0, 1, 1), (1, 1, 0), (0, 2, 1)]:
        report, _ = sound_reports[shape]
        for c, expect_se in [(c, True) for c in report.mgic] + [(c, False) for c in report.mnse]:
            for sem in (ik.Semantics.ASP, ik.Semantics.LPMLN):
                got = ik.verify_and_compute_mgse(shape, c.nis, c.nis, sem)
                assert got == _oracle_verify(shape, c.nis, c.nis, sem), (shape, c, sem)
                if sem is ik.Semantics.LPMLN:
                    assert got == (c if expect_se else None)


def test_verify_matches_tuple_route_on_random_conditions():
    rng = random.Random(29)
    shapes = [(0, 1, 1), (1, 1, 0), (1, 0, 1), (0, 2, 1), (1, 2, 0), (1, 1, 1)]
    conditions = []
    for _ in range(200):
        shape = rng.choice(shapes)
        nis = rng.sample(range(1, 1 << (3 * sum(shape))), rng.randint(1, 5))
        conditions.append((shape, nis, [v for v in nis if rng.random() < 0.5]))
    # a random singleton is seldom kept; in the sound 1-1-1 MGIC every kept
    # one is 0o402 or 0o420 beside 0o444, so grow that core by random names
    for _ in range(50):
        s = rng.choice((0o402, 0o420))
        extra = rng.sample(range(1, 1 << 9), rng.randint(0, 3))
        conditions.append(((1, 1, 1), list({0o444, s, *extra}),
                           [s] + [v for v in extra if rng.random() < 0.5]))
    outcomes = {sem: Counter() for sem in ik.Semantics}
    for shape, nis, sis in conditions:
        for sem in (ik.Semantics.ASP, ik.Semantics.LPMLN):
            got = ik.verify_and_compute_mgse(shape, nis, sis, sem)
            assert got == _oracle_verify(shape, nis, sis, sem), (shape, nis, sis, sem)
            search = CanonicalSearch(shape, nis, sem)
            if got is None:
                outcomes[sem]["not SE"] += 1
            elif search.equivalent(search.full):
                outcomes[sem]["two atoms each"] += 1
            elif got.sis:
                outcomes[sem]["kept singletons"] += 1
    # each way out of verification is taken in both semantics: SE settled by
    # the two-atom question, SE keeping a singleton, and not SE
    for sem, seen in outcomes.items():
        assert min(seen[k] for k in ("not SE", "two atoms each", "kept singletons")) >= 5, (sem, seen)


# per shape, the name with a head-only digit in every rule and a name that
# this alone keeps as a singleton, in both semantics
CORES = {(0, 2, 2): (0o4444, 0o424), (1, 2, 1): (0o4444, 0o4002),
         (2, 1, 1): (0o4444, 0o2402), (2, 1, 0): (0o444, 0o420)}


def test_selections_of_one_table_match_tuple_route():
    """A search compiled over a pool of names, asked about a sub-mask,
    answers as the tuple route does on the sub-mask's names alone."""
    rng = random.Random(61)
    outcomes = {sem: Counter() for sem in ik.Semantics}
    coinciding = products = alike = 0
    for shape, core in CORES.items():
        for _ in range(10):
            pool = list({*core, *rng.sample(range(1, 1 << (3 * sum(shape))), 7)})
            rng.shuffle(pool)
            for sem in ik.Semantics:
                search = CanonicalSearch(shape, pool, sem)
                for _ in range(8):
                    if rng.random() < 0.4:   # the core and up to two more names
                        mask = search.mask(core) | search.mask(rng.sample(pool, rng.randint(0, 2)))
                    else:
                        mask = search.mask(rng.sample(pool, rng.randint(1, 4)))
                    sis = mask & rng.getrandbits(len(pool))
                    kept = _verify(search.select(mask), sis)
                    nis = search.members(mask)
                    got = None if kept is None else ik.make_condition(shape, nis, search.members(kept))
                    expect = _oracle_verify(shape, nis, search.members(sis), sem)
                    assert got == expect, (shape, pool, nis, search.members(sis), sem)
                    if kept is None:
                        outcomes[sem]["not SE"] += 1
                    elif search.equivalent(search.full):
                        outcomes[sem]["two atoms each"] += 1
                    elif kept:
                        outcomes[sem]["kept singletons"] += 1
                    # rules told apart over the pool, alike on the selection
                    coinciding += any(search.cut[a] == search.cut[b] and search.rules[a] != search.rules[b]
                                      for a in range(sum(shape)) for b in range(a))
                    # programs alike on the selection leave nothing to violate
                    km, kn = ({search.cut[r] for r in rules} for rules in search.programs)
                    if km == kn:
                        alike += 1
                        assert search.directions == [([], d[1]) for d in search.directions]
                    products += sem is ik.Semantics.ASP and any(
                        terms is not None and search.cut[r][0] and search.cut[r][1]
                        for r, terms in enumerate(search.holds))
    for sem, seen in outcomes.items():
        assert min(seen[k] for k in ("not SE", "two atoms each", "kept singletons")) >= 5, (sem, seen)
    assert min(coinciding, products) >= 20 and alike >= 5, (coinciding, products, alike)


def test_checkpoint_drops_torn_tail(tmp_path, sound_reports):
    sound, _ = sound_reports[(0, 1, 1)]
    path = tmp_path / "ck.jsonl"
    ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=str(path)))
    log = path.read_bytes()
    lines = log.splitlines(keepends=True)
    # a crash mid-write: header, base and layer 1, then half of layer 2
    torn = b"".join(lines[:3]) + lines[3][:len(lines[3]) // 2]
    path.write_bytes(torn)
    with pytest.raises(CheckpointError):
        ik.discover((1, 1, 0), ik.RunConfig(checkpoint_path=str(path)))
    again = ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=str(path)))
    assert again.dumps() == sound.dumps()
    assert path.read_bytes() == log
    # a torn header alone leaves nothing to resume
    path.write_bytes(lines[0][:10])
    assert ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=str(path))).dumps() == sound.dumps()
    assert path.read_bytes() == log


def _dfs_layer_candidates(names, i, n_rules, mnse_sets):
    """The earlier candidate generator, kept as oracle: a coverage-first DFS
    over size-i subsets that skips any superset of a recorded failure."""
    full = (1 << n_rules) - 1
    names = sorted(names, key=lambda v: (_head_cover(v, n_rules) == 0, v))
    index = {v: idx for idx, v in enumerate(names)}
    masks = []
    for e in mnse_sets:
        if all(v in index for v in e):
            masks.append(sum(1 << index[v] for v in e))
    cover = [_head_cover(v, n_rules) for v in names]
    suffix = [0] * (len(names) + 1)
    for idx in range(len(names) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | cover[idx]
    masks_with = [[m for m in masks if m >> idx & 1] for idx in range(len(names))]
    out = []
    chosen = []

    def dfs(start, idx_mask, covered, slots):
        if slots == 0:
            if covered == full:
                out.append(tuple(sorted(chosen)))
            return
        for idx in range(start, len(names) - slots + 1):
            if covered | suffix[idx] != full:
                break
            nmask = idx_mask | (1 << idx)
            if any(m & ~nmask == 0 for m in masks_with[idx]):
                continue
            chosen.append(names[idx])
            dfs(idx + 1, nmask, covered | cover[idx], slots - 1)
            chosen.pop()

    dfs(0, 0, 0, i)
    out.sort()
    return out


def test_layer_candidates_match_dfs_on_reports(sound_reports, large_sound_reports):
    reports = {**sound_reports, **large_sound_reports}
    for shape in [(0, 1, 1), (1, 1, 0), (0, 2, 1), (1, 2, 0), (1, 1, 1)]:
        report, _ = reports[shape]
        n = sum(shape)
        # the one-name failures are those of the base pass
        base_fail = {c.nis for c in report.mnse if len(c.nis) == 1}
        names = [v for v in ik.base_name_universe(shape) if frozenset({v}) not in base_fail]
        assert len(names) == report.stats["is_dprime"]
        for i in range(1, min(report.tr + 1, len(names)) + 1):
            prev_se = [c.nis for c in report.mgic if len(c.nis) == i - 1]
            failures = [c.nis for c in report.mnse if len(c.nis) < i]
            got = _candidates(names, i, n, prev_se)
            assert got == _dfs_layer_candidates(names, i, n, failures), (shape, i)
            # every candidate was verified, and only candidates were
            assert {frozenset(c) for c in got} == {c.nis for c in report.mgic + report.mnse
                                                   if len(c.nis) == i and c.nis not in base_fail}


def _random_name(rng, n_rules):
    return sum(rng.choice((0, 1, 2, 4, 4, 5)) << (3 * k) for k in range(n_rules)) or 4


def test_layer_candidates_match_dfs_on_random_histories():
    rng = random.Random(41)
    four_name_covers = 0
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        names = sorted({_random_name(rng, n) for _ in range(rng.randint(n + 2, 11))})
        if n == 4:   # one name per rule, so a 4-name minimal cover exists
            names = sorted(set(names) | {4 << (3 * k) for k in range(4)})
        p_se = rng.choice((0.6, 0.85, 0.95))
        salt = rng.random()
        prev_se, failures = [], []
        for i in range(1, len(names) + 1):
            got = _candidates(names, i, n, prev_se)
            assert got == _dfs_layer_candidates(names, i, n, failures), (names, i)
            if i == n == 4:   # a minimal cover of 4 names covers each rule once
                four_name_covers += sum(
                    sorted(_head_cover(v, n) for v in c) == [1, 2, 4, 8] for c in got)
            # the same seeded verdict for a candidate, whichever generator made it
            se = {c for c in got if random.Random(f"{salt}{c}").random() < p_se}
            prev_se = [frozenset(c) for c in got if c in se]
            failures += [frozenset(c) for c in got if c not in se]
    assert four_name_covers > 0


def test_mnse_is_an_antichain(sound_reports, large_sound_reports, conjectural_reports):
    reports = [r for r, _ in {**sound_reports, **large_sound_reports}.values()]
    reports += [conjectural_reports[shape] for shape in [(1, 2, 0), (1, 1, 1)]]
    assert len(reports) == 8
    for report in reports:
        sets = [c.nis for c in report.mnse]
        assert len(set(sets)) == len(sets)
        assert not [(a, b) for a in sets for b in sets if a < b], report.shape


def test_checkpoint_resumes_at_every_layer_boundary(tmp_path):
    """In both modes. The conjectural 1-1-0 log holds the guessed layers
    3..12; on 1-1-1 the guessed layer 4 takes singletons from layer 2."""
    path = tmp_path / "ck.jsonl"
    for shape, mode, max_layer in [((1, 1, 0), "sound", None), ((1, 1, 0), "conjectural", None),
                                   ((1, 1, 1), "conjectural", 4)]:
        config = ik.RunConfig(mode=mode, max_layer=max_layer, checkpoint_path=str(path))
        path.unlink(missing_ok=True)
        whole = ik.discover(shape, config).dumps()
        log = path.read_bytes()
        lines = log.splitlines(keepends=True)
        assert len(lines) == 2 + (max_layer or 12), mode   # header, base, layers 1..TR
        for keep in range(2, len(lines)):   # after the base, after each layer k
            path.write_bytes(b"".join(lines[:keep]))
            again = ik.discover(shape, config)
            assert again.dumps() == whole, (shape, mode, keep)
            assert path.read_bytes() == log, (shape, mode, keep)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="mode"):
        ik.RunConfig(mode="conj")


def test_shape_must_be_three_non_negative_counts():
    for shape in [(1, -1, 1), (0, -1, 0), (-1, 1, 1), (0, 1), (0, 1, 1, 0)]:
        with pytest.raises(ValueError, match="shape"):
            ik.discover(shape)


def test_max_layer_below_one_is_rejected():
    for max_layer in (0, -1):
        with pytest.raises(ValueError, match="max_layer"):
            ik.RunConfig(max_layer=max_layer)
    assert ik.discover((0, 1, 1), ik.RunConfig(max_layer=1)).tr == 1


def test_discovery_without_a_checkpoint_serializes_nothing(monkeypatch):
    calls = Counter()
    to_json = ik.ISCondition.to_json

    def counted(self):
        calls["to_json"] += 1
        return to_json(self)

    monkeypatch.setattr(ik.ISCondition, "to_json", counted)
    report = ik.discover((0, 2, 1))
    assert calls["to_json"] == 0
    # the report is written as text: no condition goes through to_json
    report.dumps()
    assert calls["to_json"] == 0


def test_dumps_equals_the_json_of_to_json(sound_reports, large_sound_reports, conjectural_reports):
    reports = [r for r, _ in {**sound_reports, **large_sound_reports}.values()]
    reports += list(conjectural_reports.values())
    partial = ik.discover((1, 1, 1), ik.RunConfig(max_layer=3))
    assert partial.stats["partial"]
    empty = ik.discover((0, 2, 0))
    assert not empty.mgic
    reports += [partial, empty]
    one_rule, _ = sound_reports[(0, 1, 0)]
    assert any(not c.sis for c in one_rule.mgic)
    assert len(reports) == 14
    for report in reports:
        want = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        assert report.dumps() == want, (report.shape, report.mode)


def test_checkpoint_in_the_older_spacing_resumes(tmp_path, sound_reports):
    """A log whose lines were written by json.dumps(rec), with spaces after
    every separator, resumes to the same report bytes."""
    sound, _ = sound_reports[(0, 1, 1)]
    path = tmp_path / "ck.jsonl"
    ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    assert all(json.loads(line)["kind"] for line in lines)
    for keep in (2, 4, len(lines)):   # after the base, after layer 2, complete
        path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines[:keep]))
        again = ik.discover((0, 1, 1), ik.RunConfig(checkpoint_path=str(path)))
        assert again.dumps() == sound.dumps(), keep


def _extensions_stay_non_se(report, sem, rng, names, per_entry):
    """(failures checked, SE supersets) over `per_entry` seeded names from
    `names` added, one at a time, to each MNSE entry that is not SE under
    sem; every set of the superset is a singleton."""
    checked = se = 0
    for c in report.mnse:
        if ik.verify_and_compute_mgse(report.shape, c.nis, c.nis, sem) is not None:
            continue   # an LP^MLN failure may be SE under ASP
        checked += 1
        outside = [v for v in names if v not in c.nis]
        for x in rng.sample(outside, min(per_entry, len(outside))):
            nis = c.nis | {x}
            se += ik.verify_and_compute_mgse(report.shape, nis, nis, sem) is not None
    return checked, se


@pytest.mark.parametrize("sem", [ik.Semantics.LPMLN, ik.Semantics.ASP], ids=["lpmln", "asp"])
def test_failures_plus_one_name_stay_non_se(sem, sound_reports, large_sound_reports):
    """The pruning lemma of `_layer_candidates`: a name of IS' (no digit 3,
    6 or 7) added to a non-SE condition keeps it non-SE. With digits 3, 6
    and 7 allowed, the negative control finds SE supersets."""
    reports = {**sound_reports, **large_sound_reports}
    rng = random.Random(f"lemma-{sem.name}")
    for shape, (report, _) in reports.items():
        is_prime = _universe_with_digit_5(shape)
        checked, se = _extensions_stay_non_se(report, sem, rng, is_prime, 3)
        assert checked and not se, (shape, checked, se)
    for shape in [(0, 1, 1), (1, 1, 1)]:
        n = sum(shape)
        blocked = [v for v in range(1, 1 << (3 * n))
                   if any(d in (3, 6, 7) for d in ik.locals_from_name(v, n))]
        _, se = _extensions_stay_non_se(reports[shape][0], sem, rng, blocked, 3)
        assert se, shape


def test_empty_mgic_shapes_stop_at_layer_k_m_n():
    """With no SE set at layer k+m+n, no later layer has a candidate."""
    for shape, tr, n_mnse in [((0, 2, 0), 2, 9), ((0, 0, 2), 2, 9), ((0, 3, 0), 3, 37)]:
        report = ik.discover(shape)
        assert (report.tr, len(report.mgic), len(report.mnse)) == (tr, 0, n_mnse), shape
        assert "partial" not in report.stats


def test_one_rule_shapes_take_no_layer_cap_or_checkpoint(tmp_path):
    # the 2^7 enumeration has no layers to cap or resume
    path = tmp_path / "run.jsonl"
    for shape in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)]:
        for config in (ik.RunConfig(max_layer=2), ik.RunConfig(checkpoint_path=str(path))):
            with pytest.raises(ValueError, match="max_layer and checkpoint_path"):
                ik.discover(shape, config)
    assert not path.exists()


# sha256 prefixes of report.dumps(), (mode, shape, max_layer) -> digest
REPORT_DIGESTS = {
    ("sound", (0, 0, 0), None): "dff2dc75ee9b97d4",
    ("sound", (0, 0, 1), None): "7a69deb861fa5abf",
    ("sound", (1, 0, 0), None): "e34b654338108dc6",
    ("sound", (0, 1, 0), None): "3946828880b9e3a7",
    ("sound", (0, 1, 1), None): "2d2733c859ac488e",
    ("sound", (1, 1, 0), None): "3e2c46e64f66b4e5",
    ("sound", (0, 2, 1), None): "d9b15e43fc59b98b",
    ("sound", (1, 2, 0), None): "482a2fbbc82e7344",
    ("sound", (1, 1, 1), None): "1c6909ad0785cc78",
    ("sound", (1, 1, 1), 7): "5ac6fc1f64fbd855",
    ("conjectural", (0, 1, 0), None): "564fba6672269062",
    ("conjectural", (0, 1, 1), None): "4a53696fdf6044ba",
    ("conjectural", (1, 1, 0), None): "ae69aa82b8b4f484",
    ("conjectural", (0, 2, 1), None): "d137f53730df7bea",
    ("conjectural", (1, 2, 0), None): "2bd4955733addac1",
    ("conjectural", (1, 1, 1), None): "0a0f7eec27a36272",
}


def _digest(report):
    return hashlib.sha256(report.dumps().encode()).hexdigest()[:16]


@pytest.mark.parametrize("shape, digest", [((0, 2, 2), "58aa7f83bada0938"),
                                           ((2, 1, 0), "ed5487d3cd755211")],
                         ids=["0-2-2", "2-1-0"])
def test_four_rule_and_two_context_reports_are_pinned(shape, digest):
    """The first four layers: 4-rule minimal covers, and K of two rules."""
    assert _digest(ik.discover(shape, ik.RunConfig(max_layer=4))) == digest


def test_report_bytes_are_pinned(sound_reports, large_sound_reports, conjectural_reports):
    got = {("sound", shape, None): _digest(report)
           for shape, (report, _) in {**sound_reports, **large_sound_reports}.items()}
    got[("sound", (1, 1, 1), 7)] = _digest(ik.discover((1, 1, 1), ik.RunConfig(max_layer=7)))
    for shape in [(0, 0, 0), (0, 0, 1), (1, 0, 0)]:
        got[("sound", shape, None)] = _digest(ik.discover(shape))
    got.update({("conjectural", shape, None): _digest(report)
                for shape, report in conjectural_reports.items()})
    assert got == REPORT_DIGESTS
