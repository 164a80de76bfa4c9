"""Search for k-m-n SE-conditions.

A k-m-n problem asks which conditions on the independent sets of a tuple
T = <K, M, N> (k, m, n rules) force K∪M and K∪N to be equivalent for every
instantiation. A condition (nis, sis) is verified on its canonical instance,
by a search over the here-and-there states of its set names
(`isets.CanonicalSearch`, compiled once per run over IS'' and restricted to
each candidate's mask); one question, with two atoms for every name,
settles most conditions and all their singletons at once.

`discover(shape, RunConfig(mode=...))` is the one entry point:
  sound        lists conditions layer by layer (layer i = conditions with
               i non-empty sets) built from layer i-1's SE sets, kept as int
               masks over IS''; its failures are the minimal non-SE-conditions
  conjectural  decides only the first k+m+n layers and classifies the rest
               by the observed minimality/singleton regularities
A listed candidate is not verified on its own: its verdict is read off the
border, found once per run by Dualize and Advance (`_border_verdicts`). It
is SE iff it lies under a maximal SE set (a top), and it keeps the
singletons of the minimal kept pairs that it holds.
Shapes of at most one rule enumerate every subset of their (at most 7)
names instead, since layered pruning is unsound there.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .program import bits
from .semantics import Semantics
from .isets import CanonicalSearch, ISCondition, locals_from_name, make_condition

CHECKPOINT_FORMAT = 4   # part of the log's config hash: bump to reject older logs


class CheckpointError(RuntimeError):
    pass


@dataclass
class RunConfig:
    # discovery runs in the calling process, so jobs must be 1; the field
    # goes once the benchmark stops passing jobs=1 (ROADMAP item 2)
    jobs: int = 1
    max_layer: Optional[int] = None
    mode: str = "sound"
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs!r}")
        if self.max_layer is not None and self.max_layer < 1:
            raise ValueError("max_layer must be >= 1")
        if self.mode not in ("sound", "conjectural"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SearchReport:
    shape: tuple[int, int, int]
    mgic: list[ISCondition]
    mnse: list[ISCondition]
    tr: int
    max_nse: int
    stats: dict
    mode: str = "sound"

    def to_json(self) -> dict:
        """The report as a JSON tree, for `from_json` round trips; `dumps`
        writes the same JSON as text, and this is its test oracle."""
        return {
            "shape": list(self.shape),
            "mgic": [c.to_json() for c in self.mgic],
            "mnse": [c.to_json() for c in self.mnse],
            "tr": self.tr,
            "max_nse": self.max_nse,
            "stats": self.stats,
            "mode": self.mode,
        }

    def dumps(self) -> str:
        """`to_json` as compact JSON with sorted keys, and a newline. The
        conditions are written as text, so no dict or list is built for each."""
        def scalar(v) -> str:
            return json.dumps(v, sort_keys=True, separators=(",", ":"))
        return (f'{{"max_nse":{scalar(self.max_nse)},"mgic":{_conditions_text(self.mgic)},'
                f'"mnse":{_conditions_text(self.mnse)},"mode":{scalar(self.mode)},'
                f'"shape":{scalar(list(self.shape))},"stats":{scalar(self.stats)},'
                f'"tr":{scalar(self.tr)}}}\n')

    @classmethod
    def from_json(cls, obj: dict) -> "SearchReport":
        return cls(
            shape=tuple(obj["shape"]),
            mgic=[ISCondition.from_json(c) for c in obj["mgic"]],
            mnse=[ISCondition.from_json(c) for c in obj["mnse"]],
            tr=obj["tr"],
            max_nse=obj["max_nse"],
            stats=obj["stats"],
            mode=obj.get("mode", "sound"),
        )

    def same_findings(self, other: "SearchReport") -> bool:
        """Equality of the search results proper (mode/stats may differ)."""
        return (
            self.shape == other.shape
            and sorted(self.mgic, key=ISCondition.sort_key) == sorted(other.mgic, key=ISCondition.sort_key)
            and sorted(self.mnse, key=ISCondition.sort_key) == sorted(other.mnse, key=ISCondition.sort_key)
            and self.tr == other.tr
            and self.max_nse == other.max_nse
        )

    def summary_line(self) -> str:
        k, m, n = self.shape
        s = self.stats
        parts = [f"{k}-{m}-{n}:", f"|IS|={s.get('is')}"]
        if s.get("is_prime") is not None:
            parts.append(f"|IS'|={s['is_prime']}")
        if s.get("is_dprime") is not None:
            parts.append(f"|IS''|={s['is_dprime']}")
        parts += [
            f"|MGIC|={len(self.mgic)}",
            f"|MNSE|={len(self.mnse)}",
            f"TR={self.tr}",
            f"Max={self.max_nse}",
            f"[{self.mode}]",
        ]
        return " ".join(parts)


def _conditions_text(conds: list[ISCondition]) -> str:
    """The compact JSON array of the conditions' `to_json`, with keys sorted,
    written as text. The str of a list of ints is its JSON with spaces."""
    shapes: dict = {}
    texts = []
    for c in conds:
        shape = shapes.get(c.shape)
        if shape is None:
            shape = shapes[c.shape] = str(list(c.shape)).replace(" ", "")
        texts.append(f'{{"nis":{str(sorted(c.nis)).replace(" ", "")},"shape":{shape},'
                     f'"sis":{str(sorted(c.sis)).replace(" ", "")}}}')
    return f'[{",".join(texts)}]'


def base_name_universe(shape) -> list[int]:
    """IS': the names with no local digit 3, 6 or 7, nor 5 (head and
    negative body) on shapes of more than two rules; `KNOWN_COUNTS` keeps 5
    for two. Lemma: an atom in the head and the negative body of a rule can
    leave the head; each HT pair (X, Y) satisfies the rule after iff before,
    in both semantics. Proof: if the atom is in Y, the negative body meets
    Y, so both rules hold at Y and leave its reduct; if not, it is not in X
    either, and neither meets the head through it (rule-local, as in Eiter,
    Fink, Tompits and Woltran, LPNMR 2004, on the HT models of Lifschitz,
    Pearce and Valverde, ACM TOCL 2001). So the default report decides a
    tuple with digit-5 names by its rewrite, every 5 made 1: names that then
    coincide merge into one set, a singleton only if it came from one
    singleton name (two names give it two atoms or more).
    """
    n = sum(shape)
    banned = {3, 6, 7} | ({5} if n > 2 else set())
    out = []
    for v in range(1, 1 << (3 * n)):
        if not any(d in banned for d in locals_from_name(v, n)):
            out.append(v)
    return out


def _head_cover(name: int, n_rules: int) -> int:
    """Rule positions (one bit each) where the name's local digit is 4."""
    cover = 0
    for k in range(n_rules):
        if (name >> (3 * k)) & 7 == 4:
            cover |= 1 << k
    return cover


def _verify(search: CanonicalSearch, sis: int) -> Optional[int]:
    """Verify the selected names, with the singletons of the mask sis, on
    their canonical instance: None if it is not SE, else the mask of the
    singletons kept. A singleton s is kept only if the instance without s in
    sis is not SE: it is the canonical one with I_s grown by a fresh atom,
    up to a renaming of atoms, which keeps HT-model equality.

    The first question is the two-atom one, `search.full` = (nis, {}).
    `equivalent(d)` says no witness lies within the domains d, so it holds
    on every d' within d if it holds on d. The start domains and every
    `grow(start, s)` lie within `full`: if it holds, no singleton is kept.
    """
    if search.equivalent(search.full):
        return 0
    start = search.domains(sis)
    if not search.equivalent(start):
        return None
    return sum(1 << i for i in bits(sis) if not search.equivalent(search.grow(start, 1 << i)))


def verify_and_compute_mgse(shape, nis, sis,
                            sem: Semantics = Semantics.LPMLN) -> Optional[ISCondition]:
    """(nis, sis) with only its kept singletons, or None if not SE (`_verify`)."""
    if not set(sis) <= set(nis):
        raise ValueError("sis must be a subset of nis")
    search = CanonicalSearch(shape, sorted(set(nis)), sem)
    kept = _verify(search, search.mask(sis))
    return None if kept is None else ISCondition(shape=tuple(shape), nis=frozenset(search.names),
                                                 sis=search.members(kept))


def _discover_plain(shape, mode: str) -> SearchReport:
    """Verify every subset of the full name universe as a singleton condition.

    Only for shapes of at most one rule (at most 7 names). Layered pruning
    would be unsound there: in 0-1-0, 56 supersets of the one minimal
    failure {4} are SE.
    """
    names = list(range(1, 1 << (3 * sum(shape))))
    mgic: list[ISCondition] = []
    mnse: list[ISCondition] = []
    # combinations come in sort_key order, so both lists are sorted; sizes
    # ascend, so a failure is minimal unless it holds an earlier one
    for size in range(0, len(names) + 1):
        for combo in combinations(names, size):
            res = verify_and_compute_mgse(shape, combo, combo)
            if res is not None:
                mgic.append(res)
            elif not any(e.nis <= set(combo) for e in mnse):
                mnse.append(make_condition(shape, combo))
    stats = {"is": len(names), "is_prime": None, "is_dprime": None,
             "verified": 1 << len(names)}
    return SearchReport(
        shape=shape,
        mgic=mgic,
        mnse=mnse,
        tr=len(names),
        max_nse=max((len(c.sis) for c in mnse), default=0),
        stats=stats,
        mode=mode,
    )


def _coverers(names: list[int], n_rules: int) -> list[int]:
    """Per rule, the mask of the names (bit idx for names[idx]) with digit 4
    there: a set covers the rule iff it meets this mask."""
    return [sum(1 << idx for idx, v in enumerate(names) if _head_cover(v, n_rules) >> k & 1)
            for k in range(n_rules)]


def _layer_candidates(names: list[int], i: int, n_rules: int, prev: set[int]) -> list[int]:
    """Size-i sets of names that cover every rule with a digit-4 name and
    hold no failure, given `prev`, the masks of layer i-1's SE sets.

    Bit idx of a mask stands for names[idx]; `discover` passes the names in
    descending order, so the masks, returned in descending order, come in
    `ISCondition.sort_key` order.

    Failures are covered, so a covered S holds one iff some covered S - {u}
    was not SE. S - {u} is covered unless u alone covers a rule; the other
    names of S are spare. A minimal cover (no spare name) grows by a coverer
    of its lowest uncovered rule while every name alone covers a rule; a
    coverer tried for a rule is not tried again below it. Every other S is
    built once, from S minus its largest spare name, and kept iff S - {u} is
    in prev for every spare u. The rules that a parent t covers once are
    listed once per t: in t | bit, those that bit covers are covered twice,
    and the others keep their one name.

    Skipping every superset of a failure is exact, by this lemma: if
    (nis, sis) is not SE and the name x has no digit 3, 6 or 7, then
    nis ∪ {x} is not SE, whichever sets are singletons, in both semantics.
    Proof: take a witness (X, Y) of the canonical instance; it satisfies
    one side and violates a rule r that only the other side has. Give
    every atom of x the value 2 (in X) if r has x in its positive body, and
    0 (outside Y) otherwise. Value 0 keeps every satisfied rule satisfied:
    outside Y, x is invisible in a head or a negative body, and in a
    positive body it falsifies the body (in X under LP^MLN, in Y under
    ASP). Value 2 does too: x in a head satisfies the head in X, x in a
    negative body blocks the rule in Y, and in a positive body it changes
    nothing. r stays violated: its digit for x is 0, 1, 2, 4 or 5, and
    value 0 meets 0, 1, 4 and 5 while value 2 meets 2. Rules that were
    distinct stay distinct, so r is still only on the other side, and
    extra atoms of the old names take the value of their name's atom.
    Digits 3, 6 and 7 put x in a rule's positive body together with its
    head or negative body, where neither value keeps r violated; that is
    why shapes of at most one rule, which keep them, use `_discover_plain`.
    """
    coverers = _coverers(names, n_rules)

    def lone(s: int) -> int:
        """The names of s that alone cover some rule."""
        alone = 0
        for c in coverers:
            c &= s
            if c and not c & (c - 1):
                alone |= c
        return alone

    out: list[int] = []

    def grow_covers(s: int, size: int, tried: int):
        uncovered = [c for c in coverers if not c & s]
        if not uncovered or size == i:
            if not uncovered and size == i:
                out.append(s)
            return
        c = uncovered[0] & ~tried
        while c:
            bit = c & -c
            if lone(s | bit) == s | bit:
                grow_covers(s | bit, size + 1, tried)
            tried |= bit
            c ^= bit

    if i <= n_rules:
        grow_covers(0, 0, 0)
    for t in prev:   # t covers, and so does every t | bit
        # the rules that t covers once, as (coverers, the one name of t)
        once = [(c, c & t) for c in coverers if (c & t).bit_count() == 1]
        lone_t = 0
        for _, one in once:
            lone_t |= one
        for b in range((t ^ lone_t).bit_length(), len(names)):
            bit = 1 << b
            if t & bit:
                continue
            # in s a rule that bit covers is covered twice, and bit alone
            # covers no rule, since t covers them all
            alone = 0
            for c, one in once:
                if not c & bit:
                    alone |= one
            s = t | bit
            others = t ^ alone   # the spare names of s other than b
            if others > bit:
                continue   # b is not the largest spare name of s
            while others:
                low = others & -others
                if s ^ low not in prev:
                    break
                others ^= low
            else:
                out.append(s)
    out.sort(reverse=True)
    return out


def _border(universe: int, edges: list[int], limit: int, holds) -> tuple[list[int], list[int]]:
    """Dualize and Advance (Gunopulos, Khardon, Mannila, Saluja, Toivonen and
    Sharma, ACM TODS 2003) for a predicate `holds` closed under subsets, over
    the subsets of the mask `universe` that meet every edge: (tops, failures),
    tops maximal sets where it holds and failures the minimal sets where it
    fails, of at most `limit` names.

    The minimal transversals of the edges, and of each top's complement, are
    kept up to date by Berge's one-edge step (as in Fredman and Khachiyan,
    J. Algorithms 1996). Each is asked once: a failure lies under no top, so
    it meets every later edge and stays minimal. The first that holds grows
    into a top by each other name in turn that keeps `holds` true. When
    every transversal fails, they are the failures, and each set of at most
    `limit` names that meets the edges and holds lies under a top: it holds
    a minimal transversal, which holds too. The limit is exact, as a minimal
    transversal after a step holds one before it of no more names.
    """
    hypergraph: list[int] = []

    def add(transversals: list[int], edge: int) -> list[int]:
        out = []
        for t in transversals:
            if t & edge:
                out.append(t)
                continue
            if t.bit_count() >= limit:
                continue
            # t | e is minimal unless e lies in every edge that meets t in
            # one name only, for one of t's names
            private: dict[int, int] = {}
            for h in hypergraph:
                one = h & t
                if one and not one & (one - 1):
                    private[one] = private.get(one, h) & h
            dead = 0
            for h in private.values():
                dead |= h
            out.extend(t | 1 << e for e in bits(edge & ~dead))
        hypergraph.append(edge)
        return out

    pending = [0]
    for edge in edges:
        pending = add(pending, edge)
    tops: list[int] = []
    failures: list[int] = []
    while pending:
        t = pending.pop()
        if not holds(t):
            failures.append(t)
            continue
        top = t
        for e in bits(universe & ~t):
            if holds(top | 1 << e):
                top |= 1 << e
        tops.append(top)
        pending.append(t)
        pending = add(pending, universe & ~top)
    return tops, failures


def _border_verdicts(search: CanonicalSearch, coverers: list[int], limit: int):
    """The verdict of `_verify(search.select(s), s)` for every covered mask s
    of at most `limit` names, read off the border: s is SE iff it lies under
    a top, and it keeps the singleton b iff it holds a minimal pair (t | b, b).

    "(S, S) is SE" is closed under subsets by `_layer_candidates`' lemma.
    For one name b, so is "(T ∪ {b}, T) is SE", and b is kept in an SE set S
    iff that fails for T = S - {b}, since the two-atom name b adds only the
    states that `grow` gives it. So keeping b is closed under supersets: if
    S lies under the top M, b is kept in M too, and the minimal pairs come
    from the tops and the names that they keep.
    """
    def se(s: int) -> bool:
        return search.select(s).equivalent(search.domains(s))

    tops, _ = _border((1 << len(search.names)) - 1, coverers, limit, se)
    pairs = set()   # (t | b, b): the SE sets that hold t | b keep b
    for top in tops:
        for i in bits(_verify(search.select(top), top)):
            b = 1 << i

            def loose(t: int, b=b) -> bool:   # b is not kept in t | b
                return search.select(t | b).equivalent(search.domains(t))

            _, lows = _border(top ^ b, [c & top for c in coverers if not c & b], limit - 1, loose)
            pairs.update((t | b, b) for t in lows)

    # bit j of above[idx]: tops[j] holds names[idx]; per top, its pairs
    above = [sum(1 << j for j, top in enumerate(tops) if top >> idx & 1)
             for idx in range(len(search.names))]
    under_top = [[(p, b) for p, b in pairs if not p & ~top] for top in tops]

    def verdict(s: int) -> Optional[int]:
        under = (1 << len(tops)) - 1   # the tops that hold s
        for idx in bits(s):
            under &= above[idx]
        if not under:
            return None
        kept = 0   # a pair within s lies under every top that holds s
        for p, b in under_top[(under & -under).bit_length() - 1]:
            if not p & ~s:
                kept |= b
        return kept

    return verdict


def _config_hash(shape, config: RunConfig) -> str:
    payload = json.dumps(
        {
            "shape": list(shape),
            "mode": config.mode,
            "max_layer": config.max_layer,
            "format": CHECKPOINT_FORMAT,
        },
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


class _Checkpoint:
    """Append-only JSON-lines log of what a run cannot derive, validated on
    resume: the base record holds IS'' (`is2`), and each layer record the
    verdicts `[mask, kept]` of its candidates, masks over the names in
    descending order, `kept` the mask of the kept singletons or null if the
    candidate is not SE.

    An unterminated last line is a torn write: it is ignored on load and cut
    off before the next append. Any other line that is not a record of its
    kind raises CheckpointError.
    """

    def __init__(self, path: Optional[str], shape, config: RunConfig, is_prime: list[int]):
        self.path = path
        self.hash = _config_hash(shape, config)
        self.shape = list(shape)
        self.base: Optional[list[int]] = None   # is2
        self.layers: dict[int, list] = {}   # i -> [[mask, kept], ...]
        self.lines: dict[int, int] = {}   # i -> the line number of layer i's record
        self.has_header = False
        self.torn_at: Optional[int] = None
        if path and os.path.exists(path):
            self._load(set(is_prime))

    def _load(self, is_prime: set[int]):
        with open(self.path, "rb") as f:
            data = f.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            self.torn_at = end
        for lineno, line in enumerate(data[:end].splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                kind = rec["kind"]
                if not self.has_header:
                    if kind != "header" or rec["config"] != self.hash:
                        raise CheckpointError(f"checkpoint {self.path} does not match this run")
                    self.has_header = True
                elif kind == "base":
                    is2 = rec["is2"]
                    if self.base is not None:
                        raise ValueError("a second base record")
                    if not (type(is2) is list and all(type(v) is int for v in is2)
                            and set(is2) <= is_prime and is2 == sorted(set(is2))):
                        raise ValueError("is2 is not a strictly ascending list of names of IS'")
                    self.base = is2
                elif kind == "layer":
                    i, results = rec["i"], rec["results"]
                    if self.base is None:
                        raise ValueError("a layer record before the base record")
                    if i in self.layers:
                        raise ValueError(f"a second record of layer {i}")
                    if type(results) is not list:
                        raise ValueError("results is not a list")
                    limit = 1 << len(self.base)
                    for mask, kept in results:
                        if not (type(mask) is int and 0 < mask < limit and mask.bit_count() == i):
                            raise ValueError(f"mask {mask!r} is not a set of {i} names of IS''")
                        if not (kept is None or type(kept) is int and kept | mask == mask):
                            raise ValueError(f"kept {kept!r} is not null or a subset of {mask}")
                    self.layers[i] = results
                    self.lines[i] = lineno
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:   # ValueError: bad JSON too
                raise CheckpointError(f"checkpoint {self.path} line {lineno}: "
                                      f"bad record ({type(e).__name__}: {e})") from None

    def _append(self, rec: dict):
        with open(self.path, "a") as f:
            if self.torn_at is not None:
                f.truncate(self.torn_at)
                self.torn_at = None
            if not self.has_header:
                f.write(json.dumps({"kind": "header", "shape": self.shape,
                                    "config": self.hash}) + "\n")
                self.has_header = True
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def record_base(self, is2: list[int]):
        if self.path:
            self._append({"kind": "base", "is2": is2})

    def record_layer(self, i: int, results: list):
        if self.path:
            self._append({"kind": "layer", "i": i, "results": results})


def discover(shape, config: Optional[RunConfig] = None) -> SearchReport:
    config = config or RunConfig()
    shape = tuple(shape)
    if len(shape) != 3 or min(shape) < 0:
        raise ValueError(f"a shape is three non-negative rule counts, got {shape}")
    conjectural = config.mode == "conjectural"
    total = sum(shape)
    if total <= 1:
        if config.max_layer is not None or config.checkpoint_path is not None:
            raise ValueError("shapes of at most one rule have no layers to cap or resume: "
                             "drop max_layer and checkpoint_path")
        return _discover_plain(shape, config.mode)

    is_prime = base_name_universe(shape)
    ckpt = _Checkpoint(config.checkpoint_path, shape, config, is_prime)
    is2 = ckpt.base
    if is2 is None:
        is2 = [x for x in is_prime if verify_and_compute_mgse(shape, (x,), (x,)) is not None]
        ckpt.record_base(is2)
    mnse = [make_condition(shape, [x]) for x in sorted(set(is_prime) - set(is2))]
    verified = len(is_prime)

    names = sorted(is2, reverse=True)   # bit idx of a layer mask stands for names[idx]
    search = CanonicalSearch(shape, names, Semantics.LPMLN)   # compiled once per run
    members = search.members

    mgic: list[ISCondition] = []
    pool_mask = 0   # singletons seen in layer-2 conditions
    layer_hi = len(names) if config.max_layer is None else min(config.max_layer, len(names))
    tr = layer_hi
    partial = False
    # the verdicts of the layers that are not guessed
    verdict = _border_verdicts(search, _coverers(names, total),
                               min(layer_hi, total) if conjectural else layer_hi)

    prev: set[int] = set()   # the SE masks of the last layer
    for i in range(1, layer_hi + 1):
        # deep conjectural layers: every candidate is taken as SE; its
        # singletons come from the layer-2 harvest
        guessed = conjectural and i > total
        results = ckpt.layers.get(i)   # (mask, kept mask or None) per candidate
        if results is None:
            # masks come in descending order, so both lists are sorted
            cands = _layer_candidates(names, i, total, prev)
            if guessed:
                results = [(s, s & pool_mask) for s in cands]
            else:
                results = [(s, verdict(s)) for s in cands]
            ckpt.record_layer(i, results)
        elif not guessed:   # a logged verdict must be the border's
            for s, kept in results:
                if kept != verdict(s):
                    logged, border = (json.dumps([s, v], separators=(",", ":")) for v in (kept, verdict(s)))
                    raise CheckpointError(f"checkpoint {ckpt.path} line {ckpt.lines[i]}: layer {i} "
                                          f"logs {logged}, but the border gives {border}")
        layer_mgic = [ISCondition(shape=shape, nis=members(s), sis=members(kept))
                      for s, kept in results if kept is not None]
        mgic.extend(layer_mgic)
        mnse.extend(ISCondition(shape=shape, nis=members(s), sis=members(s))
                    for s, kept in results if kept is None)   # they hold no earlier failure
        prev = {s for s, kept in results if kept is not None}
        verified += 0 if guessed else len(results)
        if i == 2:
            for _, kept in results:
                pool_mask |= kept or 0
        # exact: a minimal cover has at most k+m+n names and every other
        # candidate extends an SE set of the layer before
        if not layer_mgic and i >= total:
            tr = i
            break
    else:
        partial = layer_hi < len(names)

    stats = {
        "is": (1 << (3 * total)) - 1,
        "is_prime": len(is_prime),
        "is_dprime": len(is2),
        "verified": verified,
    }
    if partial:
        stats["partial"] = True
    return SearchReport(
        shape=shape,
        mgic=mgic,   # each layer is sorted, and sort_key leads with |nis|
        mnse=sorted(mnse, key=ISCondition.sort_key),
        tr=tr,
        max_nse=max((len(c.sis) for c in mnse), default=0),
        stats=stats,
        mode=config.mode,
    )


# reference counts for the verified problem sizes, used by the regression CLI
KNOWN_COUNTS = {
    (0, 1, 0): {"is": 7, "is_prime": None, "is_dprime": None,
                "tr": 7, "mgic": 120, "mnse": 1, "max_nse": 1},
    (0, 1, 1): {"is": 63, "is_prime": 24, "is_dprime": 16,
                "tr": 7, "mgic": 32, "mnse": 18, "max_nse": 2},
    (1, 1, 0): {"is": 63, "is_prime": 24, "is_dprime": 20,
                "tr": 12, "mgic": 1024, "mnse": 13, "max_nse": 2},
    (0, 2, 1): {"is": 511, "is_prime": 63, "is_dprime": 33,
                "tr": 7, "mgic": 60, "mnse": 71, "max_nse": 3},
    (1, 2, 0): {"is": 511, "is_prime": 63, "is_dprime": 42,
                "tr": 15, "mgic": 10240, "mnse": 81, "max_nse": 3},
    (1, 1, 1): {"is": 511, "is_prime": 63, "is_dprime": 45,
                "tr": 16, "mgic": 39392, "mnse": 409, "max_nse": 3},
}
