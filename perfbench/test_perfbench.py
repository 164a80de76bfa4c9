"""Tests of the benchmark itself, on its tiny smoke configuration.

    python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
from checks import check_pair  # noqa: E402
from run import SMOKE, WORKLOADS as FULL  # noqa: E402

WORKLOADS = ["sound-111-L7", "conj-simplify", "check-random"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(workload, trace=0, reference=None, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--smoke"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, result = run_bench(workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _break_sound(ref):
    ref["sound"]["0-1-1"]["sha256"] = "0" * 64


def _break_conj(ref):
    ref["conj"]["1-1-0"]["mgic"] += 1


@pytest.mark.parametrize("workload,breaker", [("sound-111-L7", _break_sound),
                                              ("conj-simplify", _break_conj)])
def test_wrong_reference_fails_the_run(tmp_path, workload, breaker):
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    breaker(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    code, result = run_bench(workload, reference=str(path))
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("spec", [FULL["check-random"], SMOKE["check-random"]])
def test_model_checks_cover_fresh_rules_and_every_small_size(spec):
    ids = worker.model_check_ids(0, spec["count"], spec["model_checks"])
    assert len(set(ids)) == len(ids) and all(0 <= i < spec["count"] for i in ids)
    assert not any(worker.adds_copy(i) for i in ids)
    assert {(i % 2, worker.pair_atoms(i)) for i in ids} == \
        {(s, u) for s in (0, 1) for u in range(8, worker.MODEL_CHECK_ATOMS + 1)}


def test_wrong_check_verdicts_are_caught():
    ik = worker.load_package()
    spec = SMOKE["check-random"]
    wrong = 0
    for i in worker.model_check_ids(0, spec["count"], spec["model_checks"]):
        sem, p_text, q_text, _ = worker.gen_pair(3, i)
        uni = ik.Universe()
        verdict, _ = ik.equivalent(ik.parse_program(p_text, uni), ik.parse_program(q_text, uni),
                                   ik.Semantics(sem))
        if not verdict:
            assert check_pair(ik, sem, p_text, q_text, True, None, True)
            wrong += 1
    assert wrong
    sem, p_text, q_text, _ = worker.gen_pair(3, 0)
    assert worker.adds_copy(0)
    assert not check_pair(ik, sem, p_text, q_text, True, None, False, True)
    assert any("by construction" in e
               for e in check_pair(ik, sem, p_text, q_text, False, None, False, True))


# Appended to a copy of the package: every check over 9 or more atoms answers
# "equivalent" without scanning, as a kernel that cut its scan short would.
CUT_SCAN = """
_equivalent = equivalent


def equivalent(p, q, sem, *args, **kwargs):
    if (p.atoms() | q.atoms()).bit_count() >= 9:
        return True, None
    return _equivalent(p, q, sem, *args, **kwargs)
"""


def test_kernel_that_skips_its_scan_fails_the_run(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "isekit" / "__init__.py", "a") as f:
        f.write(CUT_SCAN)
    code, result = run_bench("check-random", cwd=tmp_path)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    code, result = run_bench("check-random", cwd=tmp_path)
    assert code != 0 and result is None
