"""The opt-in LP, canonicalization, `from_pairs` and crash-basis counters and the `--stats` flag."""

import io
from fractions import Fraction

from convexchoice import stats
from convexchoice.cli import cli_main
from convexchoice.convexgeom import canonicalize, in_hull
from convexchoice.dist import from_pairs, point
from convexchoice.laws import GenConfig, check_law, law_names


def _stats_line(err):
    lines = [l for l in err.splitlines() if l.startswith("stats: ")]
    assert len(lines) == 1, err
    return lines[0]


def test_counters_are_off_by_default_and_count_when_on():
    gens = [point("a"), point("b"), point("c")]
    query = from_pairs([("a", Fraction(1, 2)), ("c", Fraction(1, 2))])
    centre = from_pairs([("a", Fraction(1, 3)), ("b", Fraction(1, 3)), ("c", Fraction(1, 3))])
    stats.start()
    stats.stop()
    assert in_hull(query, gens)  # one LP, not counted
    assert in_hull(centre, gens)  # settled by the crash basis, not counted
    canonicalize(gens + [query])  # one LP, not counted
    from_pairs([("a", Fraction(1))])  # not counted
    assert stats.counts == {
        "lp_calls": 0, "pivots": 0, "canonicalize_calls": 0, "gens_in": 0, "gens_out": 0,
        "from_pairs_calls": 0, "crash_checks": 0, "crash_settled": 0,
    }
    stats.start()
    try:
        # the query has a zero weight, so the simplex answers it; the centre has
        # none and the crash basis (the three points) settles it with no LP
        assert in_hull(query, gens)
        assert in_hull(centre, gens)
        # one call: four generators and a duplicate in, the three extreme ones out
        assert canonicalize(gens + [query, point("a")]) == gens
        assert from_pairs([("a", Fraction(1, 2)), ("a", Fraction(1, 2))]) == gens[0]
    finally:
        stats.stop()
    counts = stats.counts
    assert counts["lp_calls"] == 2 and counts["pivots"] >= 2
    assert (counts["canonicalize_calls"], counts["gens_in"], counts["gens_out"]) == (1, 5, 3)
    assert counts["from_pairs_calls"] == 1
    assert (counts["crash_checks"], counts["crash_settled"]) == (1, 1)


def test_check_laws_stats_are_deterministic_at_seed_42(capsys):
    lines = []
    for _ in range(2):
        code = cli_main(["check-laws", "--trials", "3", "--seed", "42", "--stats"])
        out = capsys.readouterr()
        assert code == 0
        assert "stats" not in out.out
        lines.append(_stats_line(out.err))
    assert lines[0] == lines[1]
    counts = dict(part.split("=") for part in lines[0][len("stats: "):].split())
    assert set(counts) == {
        "lp_calls", "pivots", "canonicalize_calls", "gens_in", "gens_out", "from_pairs_calls",
        "crash_checks", "crash_settled",
    }
    assert int(counts["lp_calls"]) > 0 and int(counts["pivots"]) >= int(counts["lp_calls"])
    assert int(counts["from_pairs_calls"]) > 0  # the oracle `bind_gcm_direct` mixes `Fraction` weights
    assert not stats.enabled


def test_only_the_product_formula_oracle_calls_from_pairs_in_the_law_suite():
    # the generators mix on integer weights; `bind_gcm_direct` mixes `Fraction` products
    config = GenConfig(trials=10, seed=42)
    calls = {}
    for name in law_names():
        stats.start()
        try:
            check_law(name, config)
        finally:
            stats.stop()
        calls[name] = stats.counts["from_pairs_calls"]
    assert calls == {name: 26 if name == "bind_two_path" else 0 for name in law_names()}


def test_eval_stats_line_leaves_stdout_alone(capsys, monkeypatch):
    program = "do x <- ret 0 [~] ret 1; ret x <|1/3|> ret 2"
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert cli_main(["eval", "-"]) == 0
    plain = capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert cli_main(["eval", "-", "--stats"]) == 0
    counted = capsys.readouterr()
    assert counted.out == plain.out and plain.err == ""
    assert _stats_line(counted.err) == (
        "stats: lp_calls=0 pivots=0 canonicalize_calls=2 gens_in=4 gens_out=4 from_pairs_calls=0"
        " crash_checks=0 crash_settled=0"
    )


def test_eval_stats_of_the_k8_program(capsys, monkeypatch):
    # y is never read, so it binds nothing; z's set reads no variable, so it is
    # built once, and the rest is evaluated once per x: 11 canonicalizations of
    # 96 generators, x's and z's sets, one per x and one for the whole (18 of 152
    # when z's set was built once per x, 138 of 1064 when evaluated per pair);
    # evaluation builds every distribution from integer weights, with no `from_pairs`
    values = ", ".join(str(i) for i in range(8))
    program = (
        f"do x <- arbitrary 0 [{values}]; do y <- uniform 0 [{values}]; "
        f"do z <- arbitrary 0 [{values}]; ret (x == z)"
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(program))
    assert cli_main(["eval", "-", "--stats"]) == 0
    assert _stats_line(capsys.readouterr().err) == (
        "stats: lp_calls=0 pivots=0 canonicalize_calls=11 gens_in=96 gens_out=34 from_pairs_calls=0"
        " crash_checks=0 crash_settled=0"
    )
