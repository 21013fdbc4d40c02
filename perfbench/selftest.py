"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Checks that
1. one seed gives byte-identical inputs twice: the prepared store and
   every session's queries are generated in two fresh interpreters
   with different hash seeds and their SHA-256 digests compared, and
   another seed gives different inputs;
2. a short run of each workload -- those ``BENCHMARK.json`` gates and
   ``checkout-stopwait`` -- untraced and traced, passes its checks and
   emits every metric ``BENCHMARK.json`` names, with its unit.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _python(args: list[str], hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def check_inputs(workload: str, seed: int) -> list[str]:
    def digest(run_seed: int, hash_seed: str) -> str:
        done = _python([os.path.join(HERE, "workloads.py"), "--digest",
                        "--workload", workload, "--seed", str(run_seed)],
                       hash_seed)
        return done.stdout.strip()

    first, second = digest(seed, "1"), digest(seed, "2")
    problems = []
    if not first or first != second:
        problems.append(f"{workload}: seed {seed} gave inputs {first!r} "
                        f"and {second!r}")
    if digest(seed + 1, "1") == first:
        problems.append(f"{workload}: seeds {seed} and {seed + 1} gave "
                        "identical inputs")
    return problems


def check_run(workload: str, seconds: float, trace: int,
              expected: dict[str, str]) -> list[str]:
    done = _python([os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", str(seconds),
                    "--trace", str(trace)])
    label = f"{workload} --trace {trace}"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"{label}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: checks failed: {result}")
    metrics = result["metrics"]
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
        elif got["unit"] != unit or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {name} reads {got}")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    kinds = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        problems += check_inputs(workload, seed=5)
        for trace in (0, 1):
            problems += check_run(workload, args.seconds, trace, kinds[trace])
        print(f"{workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    for line in problems:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
