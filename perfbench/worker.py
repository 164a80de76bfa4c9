"""One fresh benchmark process: set up, run the timed work, check it, report.

The parent (run.py) writes one JSON job to stdin, including the monotonic
time at which it spawned this process, and reads one JSON result line from
stdout. Kinds of job:

  setup   import the package and report how long set-up took
  sound   sound discover(shape, max_layer) followed by report.dumps()
  conj    conjectural discover of each shape (with dumps), then simplify of
          the first shape's MGIC
  check   parse + equivalent on `count` seeded random program pairs

Every timing is reported raw and scaled to the reference machine speed (see
speed.py); spans are timed on the probe's busy clock, so that they hold none
of its handler's time. Outputs are summarized after the timed region
(discovery digests, simplify exactness, witness and HT-model checks) for the
parent to judge.
"""
from __future__ import annotations

import json
import os
import random
import resource
import sys
import traceback
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from speed import REF_S, SpeedProbe  # noqa: E402

# pairs with at most this many atoms may also get the brute-force ht_models check
MODEL_CHECK_ATOMS = 10
STRATUM = 28    # gen_pair holds each size-mix combination once per STRATUM pairs


def pair_atoms(i: int) -> int:
    """Atom count u of pair i: 8-14, cycling every 14 pairs."""
    return 8 + i // 2 % 7


def adds_copy(i: int) -> bool:
    """Whether q of pair i adds a weakened copy of a rule of p, which makes
    the pair equivalent; otherwise q adds a fresh rule."""
    return i // 14 % 2 == 0


def model_check_ids(first: int, count: int, n: int) -> list[int]:
    """The n pairs of a job whose verdict is compared with the ht_models sets.

    They are fresh-rule pairs with at most MODEL_CHECK_ATOMS atoms, taken from
    successive strata and stepping through the small (semantics, u)
    combinations, so both verdicts and every small u are checked.
    """
    small = [o for o in range(STRATUM)
             if not adds_copy(o) and pair_atoms(o) <= MODEL_CHECK_ATOMS]
    strata = max(count // STRATUM, 1)
    return [first + s % strata * STRATUM + small[s % len(small)] for s in range(n)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_package():
    sys.path.insert(0, SRC)
    import isekit
    if os.path.dirname(os.path.abspath(isekit.__file__)) != os.path.join(SRC, "isekit"):
        raise ImportError(f"isekit imported from {isekit.__file__}, not from {SRC}")
    return isekit


def gen_pair(seed: int, i: int) -> tuple[str, str, str, int]:
    """Pair i of a seed: (semantics, p text, q text, atoms).

    The size mix is stratified: every STRATUM consecutive pairs hold each
    combination once of semantics (alternating ASP, LPMLN), u (cycling
    through 8-14 atoms) and added rule (alternating in blocks of 14), and the
    number of rules of p steps through 6-10 from one stratum to the next.
    p's rules are random over the u atoms, each atom used at least once; q is
    p plus either a copy of a rule of p with one or two extra body literals
    (HT-entailed in both semantics, so the pair is equivalent) or a fresh
    rule over 2-4 distinct atoms with a non-empty head (usually not
    entailed). Only the rule contents come from the seeded generator.
    """
    rng = random.Random(seed * 1_000_003 + i)
    sem = ("asp", "lpmln")[i % 2]
    u = pair_atoms(i)
    atoms = list(range(u))

    def rand_rule():
        return [set(rng.sample(atoms, rng.choice((0, 1, 1, 1, 2)))),
                set(rng.sample(atoms, rng.randint(0, 3))),
                set(rng.sample(atoms, rng.randint(0, 2)))]

    rules = [rand_rule() for _ in range(6 + i // STRATUM % 5)]
    used = set().union(*(part for r in rules for part in r))
    for a in atoms:
        if a not in used:
            rng.choice(rules)[rng.randrange(3)].add(a)
    if adds_copy(i):
        head, pbody, nbody = (set(x) for x in rng.choice(rules))
        fresh = [a for a in atoms if a not in pbody | nbody]
        for a in rng.sample(fresh, min(len(fresh), rng.randint(1, 2))):
            (pbody if rng.randrange(2) else nbody).add(a)
        extra = [head, pbody, nbody]
    else:
        picked = rng.sample(atoms, rng.randint(2, 4))
        cut = rng.randint(1, len(picked) - 1)
        extra = [set(picked[:cut]), set(), set()]
        for a in picked[cut:]:
            extra[rng.randint(1, 2)].add(a)
    weighted = sem == "lpmln"
    p_text = "".join(_render(r, rng, weighted) for r in rules)
    q_text = p_text + _render(extra, rng, weighted)
    return sem, p_text, q_text, u


def _render(rule, rng, weighted: bool) -> str:
    head, pbody, nbody = rule
    body = [f"a{a}" for a in sorted(pbody)] + [f"not a{a}" for a in sorted(nbody)]
    text = " | ".join(f"a{a}" for a in sorted(head))
    if body:
        text += " :- " + ", ".join(body)
    text = (text or ":-") + "."
    if weighted:
        text = f"{rng.randint(1, 5)} : {text}"
    return text + "\n"


def _require_empty_verify_cache():
    """The verification memo is process-global; a warm one would fake speed."""
    if getattr(sys.modules["isekit.discovery"], "_verify_cache", None):
        raise AssertionError("discovery verification cache is not empty at start")


def run_sound(ik, job, tracer, probe) -> dict:
    from checks import report_summary
    discover = tracer.wrap("discover", ik.discover) if tracer else ik.discover
    _require_empty_verify_cache()
    config = ik.RunConfig(jobs=1, mode="sound", max_layer=job["max_layer"])
    with probe:
        text, op = probe.timed(lambda: discover(tuple(job["shape"]), config).dumps())
    rss = peak_rss_mb()
    summary = report_summary(json.loads(text), job["max_layer"])
    return {"ops": [op], "discover_s": op[1], "peak_rss_mb": rss,
            "summaries": {"sound": summary}}


def run_conj(ik, job, tracer, probe) -> dict:
    from checks import report_summary, shape_key, simplify_exactness
    discover = tracer.wrap("discover", ik.discover) if tracer else ik.discover
    simplify = tracer.wrap("simplify", ik.simplify) if tracer else ik.simplify
    _require_empty_verify_cache()
    config = ik.RunConfig(jobs=1, mode="conjectural")

    def discover_all():
        reports = [discover(tuple(shape), config) for shape in job["shapes"]]
        return reports, [r.dumps() for r in reports]

    with probe:
        (reports, texts), disc = probe.timed(discover_all)
        result, simp = probe.timed(simplify, reports[0].mgic)
    rss = peak_rss_mb()
    summaries = {shape_key(s): report_summary(json.loads(t))
                 for s, t in zip(job["shapes"], texts)}
    conds = [(c.nis, c.sis) for c in reports[0].mgic]
    disjuncts = [(d.nonempty, d.empty, d.at_most_one) for d in result.disjuncts]
    errors = simplify_exactness(conds, disjuncts, sum(job["shapes"][0]))
    return {"ops": [[disc[0] + simp[0], disc[1] + simp[1]]],
            "discover_s": disc[1], "simplify_s": simp[1],
            "peak_rss_mb": rss, "summaries": summaries, "errors": errors,
            "simplify": {"simplify.cliques": len(result.cliques),
                         "simplify.residual": len(result.residual),
                         "simplify.disjuncts": len(result.disjuncts)}}


def run_check(ik, job, tracer, probe) -> dict:
    """A closed loop over the job's pairs; each check is timed on its own.

    In a traced job every other stratum of STRATUM pairs is traced, so the
    traced and the untraced pairs hold the same size mix.
    """
    from checks import check_pair
    plain = (ik.parse_program, ik.equivalent)
    traced = (tracer.wrap("program.parse", ik.parse_program),
              tracer.wrap("semantics.equivalent", ik.equivalent)) if tracer else plain
    seed, first = job["seed"], job["first"]

    def check(parse, equivalent, sem, p_text, q_text):
        uni = ik.Universe()
        p = parse(p_text, uni)
        q = parse(q_text, uni)
        verdict, witness = equivalent(p, q, sem)
        return verdict, None if witness is None else (uni.mask_names(witness.here),
                                                      uni.mask_names(witness.there))

    ops, traced_ops, outputs = [], [], []
    with probe:
        for i in range(first, first + job["count"]):
            sem_name, p_text, q_text, u = gen_pair(seed, i)
            on = bool(tracer) and i // STRATUM % 2 == 1
            out, op = probe.timed(check, *(traced if on else plain), ik.Semantics(sem_name),
                                 p_text, q_text)
            (traced_ops if on else ops).append(op)
            outputs.append((i, *out))
    rss = peak_rss_mb()
    errors, failed = [], 0
    with_models = set(model_check_ids(first, job["count"], job["model_checks"]))
    for i, verdict, witness in outputs:
        sem_name, p_text, q_text, u = gen_pair(seed, i)
        errs = check_pair(ik, sem_name, p_text, q_text, verdict, witness,
                          i in with_models, adds_copy(i))
        failed += bool(errs)
        errors += [f"pair {seed}:{i}: {e}" for e in errs]
    return {"ops": ops, "traced_ops": traced_ops, "peak_rss_mb": rss,
            "attempted": len(outputs), "failed": failed, "errors": errors[:5],
            "equivalent": sum(1 for _, v, _ in outputs if v), "model_checked": len(with_models)}


RUNNERS = {"sound": run_sound, "conj": run_conj, "check": run_check}


def main() -> int:
    job = json.loads(sys.stdin.read())
    os.environ.pop("SE_DISCOVERY_JOBS", None)
    try:
        ik = load_package()
    except ImportError as e:
        print(f"perfbench worker: {e}", file=sys.stderr)
        return 3
    setup_s = monotonic() - job["spawned"]
    probe = SpeedProbe()
    speed = sorted(probe.sample() for _ in range(3))[1]
    out = {"setup_s": [setup_s, setup_s * REF_S / speed]}
    if job["kind"] != "setup":
        tracer = None
        if job.get("trace"):
            from tracing import Tracer
            tracer = Tracer(clock=probe.busy_clock)
            tracer.install()
        try:
            out.update(RUNNERS[job["kind"]](ik, job, tracer, probe))
        except Exception:
            traceback.print_exc()
            out["errors"] = [traceback.format_exc().strip().splitlines()[-1]]
            out["crashed"] = True
        if tracer and not out.get("crashed"):
            n_ops = len(out["traced_ops"]) if "traced_ops" in out else 1
            out["layers"] = tracer.layer_metrics(max(n_ops, 1))
            out["layers"].update(out.get("simplify", {}))
            if job.get("trace_path"):
                tracer.dump(job["trace_path"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
