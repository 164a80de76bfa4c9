"""Ground rules, programs, and program tuples, plus a line-oriented text format.

Atoms are interned into a shared Universe (name <-> dense id) and every atom set
is stored as an int bitmask over those ids, which keeps set algebra cheap for
the brute-force model enumeration elsewhere in the package.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z][A-Za-z0-9_]*)"
    r"|(?P<arrow>:-)"
    r"|(?P<punct>[|,.:]))"
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateTerminatorError(ParseError):
    pass


class MixedUniverseError(ValueError):
    pass


class Universe:
    """Mutable symbol table; atom ids are dense and assigned in intern order."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> int:
        if not NAME_RE.fullmatch(name):
            raise ValueError(f"bad atom name: {name!r}")
        i = self._index.get(name)
        if i is None:
            i = len(self.names)
            self.names.append(name)
            self._index[name] = i
        return i

    def id_of(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            m |= 1 << self._index[n]
        return m

    def mask_names(self, mask: int) -> list[str]:
        return [self.names[i] for i in bits(mask)]


def bits(mask: int):
    """Yield set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Rule:
    """head <- pbody, not nbody; the three masks may overlap."""

    head: int
    pbody: int
    nbody: int
    weight: Optional[float] = None

    def atoms(self) -> int:
        return self.head | self.pbody | self.nbody


@dataclass(frozen=True)
class Program:
    """Ordered rule list; duplicates allowed, equality is positional."""

    rules: tuple[Rule, ...]
    universe: Universe = field(compare=False, repr=False, default_factory=Universe)

    def atoms(self) -> int:
        m = 0
        for r in self.rules:
            m |= r.atoms()
        return m

    def __len__(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class ProgramTuple:
    """Concatenation of programs with remembered segment boundaries."""

    programs: tuple[Program, ...]
    segment_sizes: tuple[int, ...]
    universe: Universe = field(compare=False, repr=False)

    @property
    def rules(self) -> tuple[Rule, ...]:
        out: list[Rule] = []
        for p in self.programs:
            out.extend(p.rules)
        return tuple(out)

    @property
    def n_rules(self) -> int:
        return sum(self.segment_sizes)

    def atoms(self) -> int:
        m = 0
        for p in self.programs:
            m |= p.atoms()
        return m


def concat_tuple(programs: list[Program]) -> ProgramTuple:
    if programs:
        uni = programs[0].universe
        for p in programs[1:]:
            if p.universe is not uni:
                raise MixedUniverseError("programs do not share a universe")
    else:
        uni = Universe()
    return ProgramTuple(
        programs=tuple(programs),
        segment_sizes=tuple(len(p) for p in programs),
        universe=uni,
    )


def _tokenize(line: str, lineno: int):
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if not m or m.end() == pos:
            # skip leading whitespace-only tail
            if line[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {line[pos:].lstrip()[0]!r}", lineno, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind) + 1))
    return toks


def _parse_rule_tokens(toks, lineno: int, universe: Universe) -> Rule:
    i = 0

    def peek():
        return toks[i] if i < len(toks) else (None, None, len(toks))

    def err(msg, col=None):
        c = col if col is not None else (toks[i][2] if i < len(toks) else toks[-1][2])
        raise ParseError(msg, lineno, c)

    weight = None
    if peek()[0] == "num" and i + 1 < len(toks) and toks[i + 1][1] == ":":
        weight = float(toks[i][1])
        i += 2

    head: list[str] = []
    pbody: list[str] = []
    nbody: list[str] = []

    # head part (up to ':-' or '.')
    while True:
        kind, val, col = peek()
        if kind is None:
            err("missing '.' terminator", toks[-1][2] if toks else 1)
        if kind == "arrow" or (kind == "punct" and val == "."):
            break
        if kind != "name" or val == "not":
            err(f"expected atom in head, got {val!r}", col)
        head.append(val)
        i += 1
        kind, val, col = peek()
        if kind == "punct" and val == "|":
            i += 1
            kind, val, col = peek()
            if kind != "name" or val == "not":
                err(f"expected atom in head, got {val!r}", col)
            continue
        break

    kind, val, col = peek()
    if kind == "arrow":
        i += 1
        # body literals
        while True:
            kind, val, col = peek()
            if kind == "punct" and val == ".":
                break
            if kind is None:
                err("missing '.' terminator", toks[-1][2])
            neg = False
            if kind == "name" and val == "not":
                neg = True
                i += 1
                kind, val, col = peek()
            if kind != "name" or val == "not":
                err(f"expected atom in body, got {val!r}", col)
            (nbody if neg else pbody).append(val)
            i += 1
            kind, val, col = peek()
            if kind == "punct" and val == ",":
                i += 1
                continue
            break

    kind, val, col = peek()
    if not (kind == "punct" and val == "."):
        err(f"expected '.', got {val!r}", col)
    i += 1
    if i < len(toks):
        kind, val, col = toks[i]
        if kind == "punct" and val == ".":
            raise DuplicateTerminatorError("duplicate '.' terminator", lineno, col)
        err(f"trailing input after '.': {val!r}", col)

    hm = 0
    for n in head:
        hm |= 1 << universe.intern(n)
    pm = 0
    for n in pbody:
        pm |= 1 << universe.intern(n)
    nm = 0
    for n in nbody:
        nm |= 1 << universe.intern(n)
    return Rule(head=hm, pbody=pm, nbody=nm, weight=weight)


def parse_program(text: str, universe: Universe) -> Program:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a comment runs from '%' to the end of the line; no token holds '%'
        toks = _tokenize(raw.partition("%")[0], lineno)
        if toks:
            rules.append(_parse_rule_tokens(toks, lineno, universe))
    return Program(rules=tuple(rules), universe=universe)


def _fmt_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return repr(w)


def render_rule(r: Rule, universe: Universe) -> str:
    head = " | ".join(universe.names[i] for i in bits(r.head))
    body_parts = [universe.names[i] for i in bits(r.pbody)]
    body_parts += ["not " + universe.names[i] for i in bits(r.nbody)]
    body = ", ".join(body_parts)
    if head and body:
        s = f"{head} :- {body}."
    elif head:
        s = f"{head}."
    elif body:
        s = f":- {body}."
    else:
        s = ":- ."
    if r.weight is not None:
        s = f"{_fmt_weight(r.weight)} : {s}"
    return s


def render_program(p: Program) -> str:
    if not p.rules:
        return ""
    return "\n".join(render_rule(r, p.universe) for r in p.rules) + "\n"
