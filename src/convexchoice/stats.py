"""Opt-in counters of the exact simplex, of canonicalization and of `from_pairs`.

Counted: LPs solved and pivots made, `canonicalize` calls with the
generators they take in and give out, and calls of `from_pairs`, the one
checked entry for `Fraction` weights (in the law suite only the oracle
`bind_gcm_direct` calls it).  The counts live in one dict, `counts`, whose
keys keep the order `render` prints them in.  Counting is off by default.
The pivot loop keeps its pivot count in a local and adds it once per LP,
and `canonicalize` and `from_pairs` add theirs once per call, each only
when counting is on, so the counters cost one flag test per LP and per
call when they are off.

    stats.start()
    ...                       # any convexchoice work
    print(stats.render())     # "stats: lp_calls=12 pivots=31 canonicalize_calls=4 ..."
"""

from __future__ import annotations

from typing import Dict

enabled = False
counts: Dict[str, int] = dict.fromkeys(
    ("lp_calls", "pivots", "canonicalize_calls", "gens_in", "gens_out", "from_pairs_calls"), 0
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
