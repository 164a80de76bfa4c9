"""Spans recorded from outside the package by rebinding module attributes.

Every wrapped call appends one span (name, start, end, parent span) to flat
in-memory arrays; a few wrappers also keep attributes measured from the
call's arguments and result. Nothing is written until `dump` at the end, and
`layer_metrics` turns the spans into the benchmark's per-layer figures.
"""
from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

LAYERS = range(1, 8)   # discovery layers reported, grouped by |nis|

# (module, attribute, span name) rebound while tracing. `isekit.discovery`
# calls these through its own globals. `isekit.simplify` is looked up in
# sys.modules because the package re-exports a function of the same name.
TARGETS = [
    ("isekit.discovery", "equivalent", "semantics.equivalent"),
    ("isekit.discovery", "canonical_tuple", "isets.canonical_tuple"),
    ("isekit.discovery", "apply_transform", "transforms.apply_transform"),
    ("isekit.discovery", "verify_and_compute_mgse", "discovery.verify"),
    ("isekit.discovery", "mnse_insert_minimal", "discovery.antichain"),
    ("isekit.simplify", "sis_irrelevant_partition", "simplify.partition"),
    ("isekit.simplify", "find_max_cliques", "simplify.find_max_cliques"),
]


def _equivalent_attrs(args, result):
    """(atoms, verdict, there-worlds the scan must visit)."""
    joint = args[0].atoms() | args[1].atoms()
    u = joint.bit_count()
    verdict, witness = result
    if verdict:
        return (u, True, 1 << u)
    rank, i = 0, 0
    while joint:
        low = joint & -joint
        if witness.there & low:
            rank |= 1 << i
        joint ^= low
        i += 1
    return (u, False, rank + 1)


def _verify_attrs(args, result):
    return (len(args[1]), result is not None)


ATTRS = {
    "semantics.equivalent": _equivalent_attrs,
    "discovery.verify": _verify_attrs,
}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attrs: dict[int, tuple] = {}
        self.stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        kind_id = self.names.index(name)
        attrs = ATTRS.get(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if attrs is not None:
                self.attrs[idx] = attrs(args, result)
            return result

        return traced

    def install(self):
        """Rebind every target that exists, for the rest of the process."""
        for mod_name, attr, span in TARGETS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, self.wrap(span, fn))

    def dump(self, path: str):
        with open(path, "w") as f:
            for i in range(len(self.kind)):
                rec = [self.names[self.kind[i]], self.start[i], self.end[i], self.parent[i]]
                if i in self.attrs:
                    rec.append(list(self.attrs[i]))
                f.write(json.dumps(rec) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer figures per traced operation (totals divided by n_ops)."""
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls: dict[str, int] = {}
        secs: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.kind[i]]
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

        def attrs_of(name):
            return [(i, a) for i, a in self.attrs.items() if self.names[self.kind[i]] == name]

        eq = attrs_of("semantics.equivalent")
        ver = attrs_of("discovery.verify")
        verify_ids = {i for i, _ in ver}
        kernel_in_verify = sum(1 for i, _ in eq if self.parent[i] in verify_ids)
        atoms = [a[0] for _, a in eq]
        m = {
            "semantics.equivalent.calls": len(eq),
            "semantics.equivalent.s": secs.get("semantics.equivalent", 0.0),
            "semantics.equivalent.atoms_mean": sum(atoms) / len(atoms) if atoms else 0.0,
            "semantics.equivalent.atoms_max": max(atoms, default=0),
            "semantics.equivalent.eq_ratio": (sum(1 for _, a in eq if a[1]) / len(eq)
                                              if eq else 0.0),
            "semantics.there_worlds": sum(a[2] for _, a in eq),
            "discovery.discover.s": secs.get("discover", 0.0),
            "discovery.search.self_s": self_s.get("discover", 0.0),
            "discovery.verify.calls": len(ver),
            "discovery.verify.s": secs.get("discovery.verify", 0.0),
            "discovery.verify.se_ratio": (sum(1 for _, a in ver if a[1]) / len(ver)
                                          if ver else 0.0),
            "discovery.verify.kernel_calls_per_verify": (kernel_in_verify / len(ver)
                                                         if ver else 0.0),
            "discovery.antichain.calls": calls.get("discovery.antichain", 0),
            "discovery.antichain.s": secs.get("discovery.antichain", 0.0),
            "isets.canonical_tuple.calls": calls.get("isets.canonical_tuple", 0),
            "isets.canonical_tuple.s": secs.get("isets.canonical_tuple", 0.0),
            "transforms.apply_transform.calls": calls.get("transforms.apply_transform", 0),
            "transforms.apply_transform.s": secs.get("transforms.apply_transform", 0.0),
            "program.parse.calls": calls.get("program.parse", 0),
            "program.parse.s": secs.get("program.parse", 0.0),
            "simplify.simplify.s": secs.get("simplify", 0.0),
            "simplify.partition.s": secs.get("simplify.partition", 0.0),
            "simplify.find_max_cliques.s": secs.get("simplify.find_max_cliques", 0.0),
            "simplify.self_s": self_s.get("simplify", 0.0),
        }
        for layer in LAYERS:
            rows = [(i, a) for i, a in ver if a[0] == layer]
            m[f"discovery.layer{layer}.verified"] = len(rows)
            m[f"discovery.layer{layer}.se"] = sum(1 for _, a in rows if a[1])
            m[f"discovery.layer{layer}.s"] = sum(dur[i] for i, _ in rows)
        for k in m:
            if not k.endswith(("_ratio", "_mean", "_max", "_per_verify")):
                m[k] /= n_ops
        return m
