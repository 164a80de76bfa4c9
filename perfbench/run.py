"""isekit benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every operation runs in a fresh `python`
process (perfbench/worker.py) with jobs=1 and SE_DISCOVERY_JOBS cleared; one
closed-loop client starts the next process only after the previous one has
ended. Workloads (see perfbench/README.md for why each was chosen):

  sound-111-L7   sound discover((1,1,1), max_layer=7) + report.dumps()
  conj-simplify  conjectural discover of 1-2-0 and 1-1-1, simplify of the
                 1-2-0 MGIC
  check-random   parse + equivalent on seeded random program pairs

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced operations, measured by
perfbench/tracing.py, and the tracing overhead. Earlier stdout lines hold
details (phase times, environment) as `# {json}`. The exit code is 0 only
when every output matched its reference. --smoke swaps in tiny sizes for the
benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(HERE, "traces")

sys.path.insert(0, HERE)
from checks import KNOWN_COUNTS, summary_diffs  # noqa: E402
from tracing import LAYERS  # noqa: E402
from worker import STRATUM  # noqa: E402

HOLDOUT_SEED = 7919     # never used while tuning; later perf claims must hold on it too
SETUP_SPAWNS = 10       # set-up-only processes per run, on top of the operation processes
DEADLINE_SLACK_S = 145  # a worker still running this long after --seconds is killed

# A check process runs BATCH pairs: whole cycles of the generator's size mix
# (5 rule counts x 2 traced/untraced strata), so that every process sees the
# same mix and its peak memory does not depend on how fast the machine is.
BATCH = 20 * STRATUM

WORKLOADS = {
    "sound-111-L7": {"kind": "sound", "shape": [1, 1, 1], "max_layer": 7, "ref": "1-1-1-L7"},
    "conj-simplify": {"kind": "conj", "shapes": [[1, 2, 0], [1, 1, 1]]},
    "check-random": {"kind": "check", "count": BATCH, "model_checks": 6},
}
SMOKE = {
    "sound-111-L7": {"kind": "sound", "shape": [0, 1, 1], "max_layer": None, "ref": "0-1-1",
                     "max_procs": 2},
    "conj-simplify": {"kind": "conj", "shapes": [[1, 1, 0]], "max_procs": 2},
    "check-random": {"kind": "check", "count": 2 * STRATUM, "model_checks": 6, "max_procs": 1},
}

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "semantics.equivalent.calls": "count",
    "semantics.equivalent.s": "s",
    "semantics.equivalent.atoms_mean": "atoms",
    "semantics.equivalent.atoms_max": "atoms",
    "semantics.equivalent.eq_ratio": "ratio",
    "semantics.there_worlds": "count",
    "discovery.discover.s": "s",
    "discovery.search.self_s": "s",
    "discovery.verify.calls": "count",
    "discovery.verify.s": "s",
    "discovery.verify.se_ratio": "ratio",
    "discovery.verify.kernel_calls_per_verify": "ratio",
    **{f"discovery.layer{i}.{k}": u for i in LAYERS
       for k, u in (("verified", "count"), ("se", "count"), ("s", "s"))},
    "discovery.antichain.calls": "count",
    "discovery.antichain.s": "s",
    "isets.canonical_tuple.calls": "count",
    "isets.canonical_tuple.s": "s",
    "transforms.apply_transform.calls": "count",
    "transforms.apply_transform.s": "s",
    "program.parse.calls": "count",
    "program.parse.s": "s",
    "simplify.simplify.s": "s",
    "simplify.partition.s": "s",
    "simplify.find_max_cliques.s": "s",
    "simplify.self_s": "s",
    "simplify.cliques": "count",
    "simplify.residual": "count",
    "simplify.disjuncts": "count",
    "trace.overhead_pct": "%",
}


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion, or kill it at the monotonic
    deadline; a crash becomes an error result."""
    env = dict(os.environ)
    env.pop("SE_DISCOVERY_JOBS", None)
    env.pop("PYTHONPATH", None)
    t0 = monotonic()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    timeout = max(1.0, deadline - t0)
    try:
        out, _ = proc.communicate(json.dumps({**job, "spawned": t0}), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": True, "errors": [f"worker killed after {timeout:.0f}s"]}
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        res = None
    if res is None:
        return {"crashed": True, "errors": [f"worker exited with {proc.returncode}"]}
    return res


def judge(spec: dict, res: dict, ref: dict) -> list[str]:
    """Errors of one process's outputs; discovery reports go against the reference."""
    errors = list(res.get("errors", []))
    if res.get("crashed"):
        return errors
    if spec["kind"] == "sound":
        errors += [f"sound {spec['ref']}: {d}"
                   for d in summary_diffs(res["summaries"]["sound"], ref["sound"][spec["ref"]])]
    elif spec["kind"] == "conj":
        for key, got in res["summaries"].items():
            errors += [f"conjectural {key}: {d}"
                       for d in summary_diffs(got, KNOWN_COUNTS[key])]
            errors += [f"conjectural {key}: {d}"
                       for d in summary_diffs(got, ref["conj"][key])]
    return errors


def run_ops(spec, args, ref, deadline):
    """Closed loop of fresh operation processes.

    A discovery process makes one operation, a check process one batch of
    pairs. Time is counted as the operations' busy time at the reference
    speed, so that the number of processes depends on the program and not
    on how busy the machine is: a further process starts while at least half
    of the last one's time is left. A traced discovery run alternates traced
    and untraced processes and makes at least one of each; a traced check
    process traces every other stratum of its pairs.
    """
    procs, errors = [], []
    min_procs = 2 if args.trace and spec["kind"] != "check" else 1
    used = 0.0
    while len(procs) < spec.get("max_procs", 1_000):
        k = len(procs)
        job = {**spec, "seed": args.seed, "first": k * spec.get("count", 0),
               "trace": bool(args.trace) and (spec["kind"] == "check" or k % 2 == 0),
               "trace_path": os.path.join(TRACE_DIR, f"{args.workload}-{k}.jsonl")}
        res = spawn(job, deadline)
        res["traced"] = job["trace"]
        errs = judge(spec, res, ref)
        errors += errs
        if spec["kind"] == "check":
            res.setdefault("attempted", spec["count"])
            res["failed"] = res["attempted"] if res.get("crashed") else res["failed"]
        else:
            res["attempted"], res["failed"] = 1, int(bool(errs))
        procs.append(res)
        if res.get("crashed"):
            break
        last = sum(t for _, t in res["ops"] + res.get("traced_ops", []))
        used += last
        if len(procs) >= min_procs and args.seconds - used < last / 2:
            break
    return procs, errors


def p99(values):
    """Nearest-rank 99th percentile: the maximum below 100 samples."""
    s = sorted(values)
    return s[math.ceil(0.99 * len(s)) - 1]


def environment() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes for the benchmark's tests")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "isekit", "__init__.py")):
        print(f"perfbench: no isekit sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        with open(args.reference) as f:
            ref = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perfbench: cannot read reference: {e}", file=sys.stderr)
        return 2
    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)

    deadline = monotonic() + args.seconds + DEADLINE_SLACK_S
    setups = [spawn({"kind": "setup"}, deadline) for _ in range(SETUP_SPAWNS)]
    procs, errors = run_ops(spec, args, ref, deadline)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    crashed = [p for p in setups + procs if p.get("crashed")]
    errors += [e for p in setups if p.get("crashed") for e in p["errors"]]
    done = [p for p in procs if not p.get("crashed")]

    detail = {"workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
              "smoke": args.smoke, "trace": args.trace, "env": environment(),
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / max(attempted, 1), "errors": errors[:10]}
    metrics = {}
    if done and not crashed:
        metrics = (trace_metrics if args.trace else end_to_end_metrics)(
            spec, setups + done, done, detail)
    print("# " + json.dumps(detail))

    correct = not errors and not crashed and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def end_to_end_metrics(spec, all_procs, done, detail) -> dict:
    """Metrics from times at the reference speed; raw medians go to the detail line."""
    ops = [op for p in done if not p["traced"] for op in p["ops"]]
    scaled = [s for _, s in ops]
    setup = [p["setup_s"][1] for p in all_procs]
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": statistics.median(scaled) * 1000,
        "op_ms_p99": p99(scaled) * 1000,
        "ops_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
    }
    detail["samples"] = {"setup": len(setup), "ops": len(ops), "processes": len(done)}
    detail["raw"] = {"setup_s": statistics.median(p["setup_s"][0] for p in all_procs),
                     "op_ms_p50": statistics.median(r for r, _ in ops) * 1000,
                     "op_ms_p99": p99([r for r, _ in ops]) * 1000}
    if spec["kind"] == "check":
        detail["check_ms_p50"] = values["op_ms_p50"]
        detail["check_ms_p99"] = values["op_ms_p99"]
        detail["checks_per_s"] = values["ops_per_s"]
        detail["equivalent_ratio"] = sum(p["equivalent"] for p in done) / len(ops)
        detail["model_checked"] = sum(p["model_checked"] for p in done)
    else:
        detail["discover_s"] = statistics.median(p["discover_s"] for p in done)
        if spec["kind"] == "conj":
            detail["simplify_s"] = statistics.median(p["simplify_s"] for p in done)
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def trace_metrics(spec, all_procs, done, detail) -> dict:
    """Per-layer figures averaged over traced operations, plus the overhead."""
    traced = [p for p in done if p["traced"]]
    if spec["kind"] == "check":
        weights = [len(p["traced_ops"]) for p in traced]
        plain_s = [s for p in done for _, s in p["ops"]]
        traced_s = [s for p in done for _, s in p["traced_ops"]]
    else:
        weights = [1] * len(traced)
        plain_s = [s for p in done if not p["traced"] for _, s in p["ops"]]
        traced_s = [s for p in traced for _, s in p["ops"]]
    values = {}
    for name in PER_LAYER:
        got = [(p["layers"].get(name, 0), w) for p, w in zip(traced, weights)]
        values[name] = sum(v * w for v, w in got) / max(sum(weights), 1)
    if plain_s and traced_s:
        values["trace.overhead_pct"] = (statistics.fmean(traced_s)
                                        / statistics.fmean(plain_s) - 1) * 100
    base = values["discovery.discover.s"]
    if base:
        detail["discover_split"] = {
            "semantics.equivalent": values["semantics.equivalent.s"] / base,
            "discovery.verify": values["discovery.verify.s"] / base,
            "discovery.antichain": values["discovery.antichain.s"] / base,
            "discovery.search.self": values["discovery.search.self_s"] / base,
            "isets+transforms": (values["isets.canonical_tuple.s"]
                                 + values["transforms.apply_transform.s"]) / base,
        }
    base = values["simplify.simplify.s"]
    if base:
        detail["simplify_split"] = {
            "simplify.find_max_cliques": values["simplify.find_max_cliques.s"] / base,
            "simplify.partition": values["simplify.partition.s"] / base,
            "simplify.self": values["simplify.self_s"] / base,
        }
    return {k: {"value": values.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
