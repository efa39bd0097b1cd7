"""Fast self-test of the benchmark harness:

    python3 bench/smoke.py

For a small slice of each workload, untraced and traced, it checks that every
metric named in BENCHMARK.json is emitted with its unit and that the slice
passes against the reference.  It then runs the slices against a
deliberately wrong reference and checks that the failures are counted, so the
correctness check is not vacuous.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 4242
SLICE = 2  # operations per workload: the cheapest ones come first


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def metric_units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def check_metrics(result: dict, wanted: dict, label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{label}: metrics/units differ: "
           f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
           f"units {[(n, got[n], wanted[n]) for n in got if n in wanted and got[n] != wanted[n]]}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")


def wrong_reference(path: Path) -> None:
    ref = workloads.load_reference()
    for job in ref["search"].values():
        job["hits"] += 1
    for name in ref["suites"]:
        ref["suites"][name] += 1
    for rid in ref["cli"]:
        ref["cli"][rid] = 1 - ref["cli"][rid]
    path.write_text(json.dumps(ref), encoding="utf-8")


def main() -> int:
    end_to_end = metric_units("end_to_end")
    per_layer = metric_units("per_layer")
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            label = f"{name} trace={int(trace)}"
            result, record = run.run(name, SEED, 0, trace, limit=SLICE)
            check_metrics(result, wanted, label)
            if name != "bracket-dgla":  # the F2 bracket squares fail at present
                expect(result["failed"] == 0, f"{label}: {record['failures']}")
            print(f"smoke: {label}: ok ({result['attempted']} verdicts, "
                  f"{result['failed']} failed)")

    run.OUT.mkdir(exist_ok=True)
    bad = run.OUT / "smoke-wrong-reference.json"
    wrong_reference(bad)
    for name in ("search-fp", "suite-catalog", "cli-check"):
        result, record = run.run(name, SEED, 0, False, reference_path=bad, limit=SLICE)
        expect(result["failed"] > 0 and record["failed_frac"] > 0 and not result["correct"],
               f"{name}: a wrong reference was not detected")
        print(f"smoke: {name} wrong reference: detected "
              f"(failed_frac {record['failed_frac']:.3g})")
    bad.unlink()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
