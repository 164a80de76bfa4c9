"""Parser, renderer, and tuple plumbing."""

import pathlib
import random

import pytest

import isekit as ik
from isekit.program import bits


def parse_one(text):
    u = ik.Universe()
    p = ik.parse_program(text, u)
    assert len(p) == 1
    return p.rules[0], u


def test_parse_basic_rule():
    r, u = parse_one("a | b :- c, not d.")
    assert u.mask_names(r.head) == ["a", "b"]
    assert u.mask_names(r.pbody) == ["c"]
    assert u.mask_names(r.nbody) == ["d"]
    assert r.weight is None


def test_parse_weighted_constraint():
    r, u = parse_one("2 : :- a, not c.")
    assert r.head == 0
    assert u.mask_names(r.pbody) == ["a"]
    assert u.mask_names(r.nbody) == ["c"]
    assert r.weight == 2


def test_parse_empty_input():
    p = ik.parse_program("", ik.Universe())
    assert len(p) == 0


def test_parse_comments_and_blanks():
    u = ik.Universe()
    p = ik.parse_program("% a comment\n\na.\n   % another\nb :- a.\n"
                         "c | d :- a, not b.   % trailing comment\n", u)
    assert len(p) == 3
    assert u.names == ["a", "b", "c", "d"]


def test_parse_readme_format_block():
    """The program-format example of the README parses verbatim."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Program text format", 1)[1]
    block = section.split("```", 2)[1]
    u = ik.Universe()
    p = ik.parse_program(block, u)
    assert ik.render_program(p) == ("a | b :- c, not d.\na.\n:- a, not c.\n"
                                    "2 : :- a, not c.\n:- .\n")


def test_parse_fact_line_has_empty_body():
    r, u = parse_one("a | b.")
    assert r.pbody == 0 and r.nbody == 0
    assert u.mask_names(r.head) == ["a", "b"]


def test_parse_empty_rule():
    r, _ = parse_one(":- .")
    assert r.head == 0 and r.pbody == 0 and r.nbody == 0


def test_parse_interns_first_appearance_order():
    u = ik.Universe()
    ik.parse_program("a | c.\nb.", u)
    assert u.names == ["a", "c", "b"]


def test_parse_syntax_error_has_location():
    with pytest.raises(ik.ParseError) as e:
        ik.parse_program("a |.\n", ik.Universe())
    assert e.value.line == 1
    with pytest.raises(ik.ParseError):
        ik.parse_program("a :- not.\n", ik.Universe())
    with pytest.raises(ik.ParseError):
        ik.parse_program("a b.\n", ik.Universe())


def test_parse_missing_terminator():
    with pytest.raises(ik.ParseError):
        ik.parse_program("a :- b\n", ik.Universe())


def test_parse_duplicate_terminator():
    from isekit.program import DuplicateTerminatorError

    with pytest.raises(DuplicateTerminatorError):
        ik.parse_program("a..\n", ik.Universe())


def test_render_overlapping_rule():
    u = ik.Universe()
    p = ik.parse_program("a | b | d :- b, c, not c.", u)
    assert ik.render_program(p) == "a | b | d :- b, c, not c.\n"


def test_render_empty_program():
    assert ik.render_program(ik.Program(rules=(), universe=ik.Universe())) == ""


def test_render_empty_rule():
    u = ik.Universe()
    p = ik.Program(rules=(ik.Rule(0, 0, 0),), universe=u)
    assert ik.render_program(p) == ":- .\n"


def test_render_weight_prefix():
    u = ik.Universe()
    p = ik.parse_program("2 : :- a, not c.\n1.5 : a.", u)
    assert ik.render_program(p) == "2 : :- a, not c.\n1.5 : a.\n"


def _random_program(rng, universe, n_rules, n_atoms=5):
    names = [f"v{i}" for i in range(n_atoms)]
    rules = []
    for _ in range(n_rules):
        h = rng.randrange(1 << n_atoms)
        p = rng.randrange(1 << n_atoms)
        n = rng.randrange(1 << n_atoms)
        hm = pm = nm = 0
        for i in range(n_atoms):
            if h >> i & 1:
                hm |= 1 << universe.intern(names[i])
            if p >> i & 1:
                pm |= 1 << universe.intern(names[i])
            if n >> i & 1:
                nm |= 1 << universe.intern(names[i])
        rules.append(ik.Rule(hm, pm, nm))
    return ik.Program(rules=tuple(rules), universe=universe)


def test_parse_render_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        u = ik.Universe()
        p = _random_program(rng, u, rng.randrange(0, 5))
        text = ik.render_program(p)
        q = ik.parse_program(text, u)
        assert q.rules == p.rules


def test_concat_tuple_shape():
    u = ik.Universe()
    p = ik.parse_program("a | c.\nb.", u)
    q = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u)
    T = ik.concat_tuple([p, q])
    assert T.segment_sizes == (2, 3)
    assert T.n_rules == 5
    assert T.rules == p.rules + q.rules


def test_concat_tuple_empty_and_middle():
    u = ik.Universe()
    empty = ik.Program(rules=(), universe=u)
    assert ik.concat_tuple([empty]).n_rules == 0
    r = ik.parse_program("a.", u)
    t = ik.parse_program("b.", u)
    T = ik.concat_tuple([r, empty, t])
    assert T.segment_sizes == (1, 0, 1)
    assert T.n_rules == 2


def test_concat_tuple_mixed_universe():
    p = ik.parse_program("a.", ik.Universe())
    q = ik.parse_program("a.", ik.Universe())
    with pytest.raises(ik.MixedUniverseError):
        ik.concat_tuple([p, q])


def test_atoms_of():
    u = ik.Universe()
    p = ik.parse_program("a | b | d :- b, c, not c.", u)
    assert sorted(u.mask_names(p.atoms())) == ["a", "b", "c", "d"]
    u2 = ik.Universe()
    p2 = ik.parse_program("a | c.\nb.", u2)
    q2 = ik.parse_program("a | b | c.\na | c :- b.\nb :- a, c.", u2)
    T = ik.concat_tuple([p2, q2])
    assert sorted(u2.mask_names(T.atoms())) == ["a", "b", "c"]
    assert ik.concat_tuple([]).atoms() == 0


def test_atoms_of_matches_triple_union():
    rng = random.Random(5)
    for _ in range(50):
        u = ik.Universe()
        p = _random_program(rng, u, 3)
        T = ik.concat_tuple([p])
        m = 0
        for r in T.rules:
            m |= r.head | r.pbody | r.nbody
        assert T.atoms() == m


def test_universe_rejects_bad_names():
    u = ik.Universe()
    with pytest.raises(ValueError):
        u.intern("Abc")
    with pytest.raises(ValueError):
        u.intern("1a")
    assert u.intern("a_B9") == 0
