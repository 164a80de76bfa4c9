"""Record perfbench/reference.json from the current package.

    python3 perfbench/record_reference.py

Runs full sound 1-1-1 (several minutes at jobs=1) and 0-1-1, checks both
against KNOWN_COUNTS, and stores the findings digests the benchmark compares
with: sound 1-1-1 restricted to |nis| <= 7, sound 0-1-1 in full, and the
conjectural 1-2-0, 1-1-1 and 1-1-0 reports. Refuses to write if any count
disagrees with KNOWN_COUNTS.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import isekit as ik  # noqa: E402
from checks import KNOWN_COUNTS, report_summary, shape_key, summary_diffs  # noqa: E402


def run(shape, mode, max_layer=None) -> dict:
    t0 = time.monotonic()
    rep = ik.discover(shape, ik.RunConfig(jobs=1, mode=mode, max_layer=max_layer))
    print(f"{mode} {shape_key(shape)} L{max_layer}: {time.monotonic() - t0:.1f}s",
          file=sys.stderr)
    return json.loads(rep.dumps())


def main() -> int:
    os.environ.pop("SE_DISCOVERY_JOBS", None)
    ref = {"sound": {}, "conj": {}}
    errors = []
    for shape, layer in [((0, 1, 1), None), ((1, 1, 1), 7)]:
        full = run(shape, "sound")
        key = shape_key(shape)
        errors += [f"sound {key}: {d}"
                   for d in summary_diffs(report_summary(full), KNOWN_COUNTS[key])]
        summary = report_summary(full, layer)
        if layer is not None:
            capped = report_summary(run(shape, "sound", layer), layer)
            errors += [f"sound {key} L{layer}: {d}" for d in summary_diffs(capped, summary)]
            key += f"-L{layer}"
        ref["sound"][key] = summary
    for shape in [(1, 2, 0), (1, 1, 1), (1, 1, 0)]:
        key = shape_key(shape)
        summary = report_summary(run(shape, "conjectural"))
        errors += [f"conjectural {key}: {d}" for d in summary_diffs(summary, KNOWN_COUNTS[key])]
        ref["conj"][key] = summary
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
