"""Opt-in counters of the exact simplex, of canonicalization and of `from_pairs`.

Counted: LPs solved and pivots made, `canonicalize` calls with the
generators they take in and give out, and calls of `from_pairs`, the one
checked entry for `Fraction` weights (in the law suite only the oracle
`bind_gcm_direct` calls it).  Counting is off by default.  The pivot loop
keeps its pivot count in a local and reports it once per LP, and
`canonicalize` and `from_pairs` report once per call, each only when
counting is on, so the counters cost one flag test per LP and per call
when they are off.

    stats.start()
    ...                       # any convexchoice work
    print(stats.render())     # "stats: lp_calls=12 pivots=31 canonicalize_calls=4 ..."
"""

from __future__ import annotations

from typing import Dict

enabled = False
lp_calls = 0
pivots = 0
canonicalize_calls = 0
gens_in = 0
gens_out = 0
from_pairs_calls = 0


def start() -> None:
    """Zero the counters and turn counting on."""
    global enabled, lp_calls, pivots, canonicalize_calls, gens_in, gens_out, from_pairs_calls
    enabled = True
    lp_calls = pivots = canonicalize_calls = gens_in = gens_out = from_pairs_calls = 0


def stop() -> None:
    """Turn counting off; the counts stay readable."""
    global enabled
    enabled = False


def record_lp(lp_pivots: int) -> None:
    """Count one LP that made `lp_pivots` pivots."""
    global lp_calls, pivots
    lp_calls += 1
    pivots += lp_pivots


def record_canonicalize(n_in: int, n_out: int) -> None:
    """Count one `canonicalize` call that took `n_in` generators and kept `n_out`."""
    global canonicalize_calls, gens_in, gens_out
    canonicalize_calls += 1
    gens_in += n_in
    gens_out += n_out


def snapshot() -> Dict[str, int]:
    return {
        "lp_calls": lp_calls,
        "pivots": pivots,
        "canonicalize_calls": canonicalize_calls,
        "gens_in": gens_in,
        "gens_out": gens_out,
        "from_pairs_calls": from_pairs_calls,
    }


def render() -> str:
    return "stats: " + " ".join(f"{k}={v}" for k, v in snapshot().items())
