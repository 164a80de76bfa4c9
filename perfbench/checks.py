"""Output checks of the benchmark, kept independent of the code they judge.

Discovery reports are reduced to a digest of their findings (the sorted
MGIC and MNSE conditions, optionally restricted to |nis| <= a layer cap) and
to the counts of the KNOWN_COUNTS table. `simplify` output is checked for
exactness over its input family with plain bitmask arithmetic, and `check`
verdicts are checked against the brute-force HT semantics.
"""
from __future__ import annotations

import hashlib
import json

# Counts of the published reference shapes, copied into the benchmark so that
# a change to the package's own table cannot move the bar.
KNOWN_COUNTS = {
    "0-1-1": {"is": 63, "is_prime": 24, "is_dprime": 16,
              "tr": 7, "mgic": 32, "mnse": 18, "max_nse": 2},
    "1-1-0": {"is": 63, "is_prime": 24, "is_dprime": 20,
              "tr": 12, "mgic": 1024, "mnse": 13, "max_nse": 2},
    "1-2-0": {"is": 511, "is_prime": 63, "is_dprime": 42,
              "tr": 15, "mgic": 10240, "mnse": 81, "max_nse": 3},
    "1-1-1": {"is": 511, "is_prime": 63, "is_dprime": 45,
              "tr": 16, "mgic": 39392, "mnse": 409, "max_nse": 3},
}


def shape_key(shape) -> str:
    return "-".join(str(x) for x in shape)


def report_summary(report_json: dict, max_layer=None) -> dict:
    """Counts and findings digest of a serialized SearchReport.

    With max_layer set, only conditions with |nis| <= max_layer are kept, so a
    layer-capped run can be compared with a full run of the same shape.
    """
    def keep(conds):
        out = sorted((sorted(c["nis"]), sorted(c["sis"])) for c in conds
                     if max_layer is None or len(c["nis"]) <= max_layer)
        return [list(x) for x in out]

    mgic = keep(report_json["mgic"])
    mnse = keep(report_json["mnse"])
    blob = json.dumps({"mgic": mgic, "mnse": mnse}, separators=(",", ":"))
    stats = report_json["stats"]
    out = {
        "is": stats.get("is"),
        "is_prime": stats.get("is_prime"),
        "is_dprime": stats.get("is_dprime"),
        "mgic": len(mgic),
        "mnse": len(mnse),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }
    if max_layer is None:
        out["tr"] = report_json["tr"]
        out["max_nse"] = report_json["max_nse"]
    return out


def summary_diffs(got: dict, expect: dict) -> list[str]:
    """Human-readable mismatches of every expected key."""
    return [f"{k}: got {got.get(k)!r}, expected {v!r}"
            for k, v in expect.items() if got.get(k) != v]


def _mask(names) -> int:
    m = 0
    for v in names:
        m |= 1 << v
    return m


def simplify_exactness(conds, disjuncts, n_rules: int) -> list[str]:
    """Check that the disjuncts describe exactly the input condition family.

    conds: (nis, sis) pairs; disjuncts: (nonempty, empty, at_most_one)
    triples of set names. Every input condition's canonical sizes (1 atom per
    sis name, 2 per other nis name) must satisfy some disjunct, and every
    support a disjunct admits must be an input condition whose singleton
    constraints the disjunct implies (sis ⊆ nis ∩ at_most_one).
    """
    family = {}
    for nis, sis in conds:
        family[_mask(nis)] = _mask(sis)
    dis = [(_mask(n), _mask(e), _mask(s)) for n, e, s in disjuncts]
    errors = []
    for n, s in family.items():
        big = n & ~s
        if not any(dn & ~n == 0 and de & n == 0 and ds & big == 0
                   for dn, de, ds in dis):
            errors.append(f"input condition {_names(n)} is covered by no disjunct")
            break
    for dn, de, ds in dis:
        free = [v for v in range(1, 1 << (3 * n_rules)) if not (dn | de) >> v & 1]
        if len(free) > 20:
            errors.append(f"disjunct leaves {len(free)} names free")
            break
        for sel in range(1 << len(free)):
            n = dn
            for j, v in enumerate(free):
                if sel >> j & 1:
                    n |= 1 << v
            s = family.get(n)
            if s is None or s & ~(n & ds):
                errors.append(f"disjunct admits {_names(n)}, which is no input condition")
                break
        if errors:
            break
    return errors


def _names(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def check_pair(ik, sem_name, p_text, q_text, verdict, witness, with_models,
               equivalent_by_construction=False) -> list[str]:
    """Verify one `check` output with the brute-force HT semantics of ik.

    witness is (here names, there names) or None. A witness must be an HT
    interpretation that is a model of exactly one program; with with_models
    the verdict itself is compared with the HT-model sets. A pair that is
    equivalent by construction must get the verdict True.
    """
    uni = ik.Universe()
    p = ik.parse_program(p_text, uni)
    q = ik.parse_program(q_text, uni)
    sem = ik.Semantics(sem_name)
    errors = []
    if equivalent_by_construction and verdict is not True:
        errors.append(f"verdict {verdict} on a pair that is equivalent by construction")
    if verdict:
        if witness is not None:
            errors.append("equivalent verdict carries a witness")
    else:
        if witness is None:
            errors.append("inequivalent verdict without a witness")
        else:
            here, there = uni.mask_of(witness[0]), uni.mask_of(witness[1])
            if here & ~there:
                errors.append("witness here-world is not inside its there-world")
            else:
                w = ik.HTInterpretation(here, there)
                in_p = all(ik.ht_satisfies(w, r, sem) for r in p.rules)
                in_q = all(ik.ht_satisfies(w, r, sem) for r in q.rules)
                if in_p == in_q:
                    errors.append("witness does not separate the programs")
    if with_models and not errors:
        mask = p.atoms() | q.atoms()
        same = ik.ht_models(p, mask, sem) == ik.ht_models(q, mask, sem)
        if same != bool(verdict):
            errors.append(f"verdict {verdict} disagrees with the HT-model sets")
    return errors
