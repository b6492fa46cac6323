"""Reference figures: learner cost per round against the expert count M.

Usage (from the root of a checkout):

    python3 bench/msweep.py

Plays one traced fixed-share game with bandit feedback and piecewise
losses (the wide-switching-run set-up) at each M, and prints a markdown
table of the inclusive time per ``learner.step`` call and the share of it
spent in ``classnet.advance``. These figures feed bench/README.md; they
are not part of the benchmark's metrics.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"

import partialmix as pm  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

# (M, rounds): each game takes one to a few seconds
SIZES = ((4, 4000), (32, 4000), (256, 1000), (1024, 100))


def inclusive_s(tracer: Tracer, span: str) -> tuple[float, int]:
    index = SPAN_NAMES.index(span)
    total = calls = 0
    for name, start, end in zip(tracer.names, tracer.starts, tracer.ends):
        if name == index:
            total += end - start
            calls += 1
    return total / 1e9, calls


def main() -> int:
    print("| M | rounds | µs/round (learner.step) | advance share |")
    print("|---|---|---|---|")
    for m, horizon in SIZES:
        kernel = pm.fixed_share_kernel(m, 1e-3)
        w_budget = 2 * math.log(m) + 30.0
        config = pm.LearnerConfig(n_experts=m, kernel=kernel, w_budget=w_budget)
        losses = pm.PiecewiseLosses(m, (0.0, 1.0), best_arms=[0, m // 2, m - 1],
                                    boundaries=[1 / 3, 2 / 3])
        tracer = Tracer()
        tracer.install()
        try:
            pm.environment.run_game(config, losses, pm.bandit_feedback(m), horizon, seed=1)
        finally:
            tracer.uninstall()
        step_s, calls = inclusive_s(tracer, "learner.step")
        advance_s, _ = inclusive_s(tracer, "classnet.advance")
        print(f"| {m} | {calls} | {1e6 * step_s / calls:.0f} | {advance_s / step_s:.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
