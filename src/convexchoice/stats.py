"""Opt-in counters of the exact simplex: LPs solved and pivots made.

Counting is off by default.  The pivot loop keeps its pivot count in a local
and reports it once per LP, only when counting is on, so the counters cost
one flag test per LP when they are off.

    stats.start()
    ...                       # any convexchoice work
    print(stats.render())     # "stats: lp_calls=12 pivots=31"
"""

from __future__ import annotations

from typing import Dict

enabled = False
lp_calls = 0
pivots = 0


def start() -> None:
    """Zero the counters and turn counting on."""
    global enabled, lp_calls, pivots
    enabled = True
    lp_calls = 0
    pivots = 0


def stop() -> None:
    """Turn counting off; the counts stay readable."""
    global enabled
    enabled = False


def record_lp(lp_pivots: int) -> None:
    """Count one LP that made `lp_pivots` pivots."""
    global lp_calls, pivots
    lp_calls += 1
    pivots += lp_pivots


def snapshot() -> Dict[str, int]:
    return {"lp_calls": lp_calls, "pivots": pivots}


def render() -> str:
    return "stats: " + " ".join(f"{k}={v}" for k, v in snapshot().items())
