"""Opt-in counters of the exact simplex, of canonicalization, of `from_pairs` and of crash bases.

Counted: LPs solved and pivots made, `canonicalize` calls with the
generators they take in and give out, calls of `from_pairs`, the one
checked entry for `Fraction` weights (in the law suite only the oracle
`bind_gcm_direct` calls it), and the points `HullForm.contains` asks a crash
basis about, with those it settles with no LP.  The counts live in one dict,
`counts`, whose keys keep the order `render` prints them in.  Counting is off
by default.  The pivot loop keeps its pivot count in a local and adds it once
per LP, and the others add theirs once per call or check, each only when
counting is on, so the counters cost one flag test each when they are off.

    stats.start()
    ...                       # any convexchoice work
    print(stats.render())     # "stats: lp_calls=12 pivots=31 canonicalize_calls=4 ..."
"""

from __future__ import annotations

from typing import Dict

enabled = False
counts: Dict[str, int] = dict.fromkeys(
    ("lp_calls", "pivots", "canonicalize_calls", "gens_in", "gens_out", "from_pairs_calls", "crash_checks",
     "crash_settled"), 0
)


def start() -> None:
    """Zero the counters and turn counting on."""
    global enabled
    enabled = True
    counts.update(dict.fromkeys(counts, 0))


def stop() -> None:
    """Turn counting off; the counts stay readable."""
    global enabled
    enabled = False


def render() -> str:
    return "stats: " + " ".join(f"{k}={v}" for k, v in counts.items())
