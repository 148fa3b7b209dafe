"""Record the answers the benchmark checks against, from the code in src/.

    python3 perfbench/record_refs.py

writes perfbench/refs.json: every law's expected verdict, its counterexample
count over the acceptance inputs (ACCEPTANCE_TRIALS trials per law at
ACCEPTANCE_SEED) and at each of the LAW_SEEDS seeded generator seeds
(SEEDED_TRIALS trials per law), and the render of every program in the
random-program pool.
The checked-in file was recorded from the commit that added the benchmark.
Re-record only when a change means to alter these answers, and say so in
CHANGES.md; never to make a failing check pass.  It takes about 5 minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from convexchoice.laws import REGISTRY, GenConfig, check_all  # noqa: E402
from convexchoice.programs import render, run  # noqa: E402
from workloads import (  # noqa: E402
    ACCEPTANCE_SEED,
    ACCEPTANCE_TRIALS,
    LAW_SEEDS,
    SEEDED_TRIALS,
    program_pool,
)


def _counts(seed, trials):
    start = time.perf_counter()
    reports = check_all(GenConfig(trials=trials, seed=seed))
    seconds = time.perf_counter() - start
    print(f"seed {seed}, {trials} trials: {seconds:.2f} s", flush=True)
    failed = [r.name for r in reports if not r.ok]
    if failed:
        sys.exit(f"seed {seed}, {trials} trials: {', '.join(failed)} failed; no reference recorded")
    return {"trials": trials, "counterexamples": {r.name: len(r.failures) for r in reports}}


def main() -> None:
    refs = {
        "laws": {
            "expected": {name: case.expected for name, case in REGISTRY.items()},
            "acceptance": _counts(ACCEPTANCE_SEED, ACCEPTANCE_TRIALS),
            "seeded": {str(seed): _counts(seed, SEEDED_TRIALS) for seed in range(LAW_SEEDS)},
        },
        "programs": [{"source": src, "render": render(run(src))} for src in program_pool()],
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
