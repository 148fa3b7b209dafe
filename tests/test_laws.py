import hashlib
import random
from dataclasses import fields

import pytest

from conftest import time_budget, validate_dist
from convexchoice import laws
from convexchoice.gcm import alt_gcm, bind_gcm, ret_gcm
from convexchoice.laws import (
    Counterexample,
    GenConfig,
    LawReport,
    REGISTRY,
    _below,
    _sample,
    carrier_of,
    check_all,
    check_law,
    gen_dist,
    gen_function,
    gen_gcm,
    gen_kleisli,
    gen_prob,
    law_names,
    render_report,
    run_trial,
    trial_rng,
)
from convexchoice.necset import from_generators
from convexchoice.dist import _normalized, outcome_key, point
from convexchoice.prob import prob_make
from convexchoice.programs import bcoin

FAST = GenConfig(trials=12, seed=42)


def test_registry_names_unique_and_covered():
    names = law_names()
    assert len(names) == len(set(names))
    reports = check_all(GenConfig(trials=1, seed=3))
    assert [r.name for r in reports] == names


def test_a_law_name_registered_twice_is_rejected():
    case = REGISTRY["choicemm"]
    with pytest.raises(ValueError, match="choicemm"):
        laws._registry(case, REGISTRY["altC"], case)
    assert list(laws._registry(case, REGISTRY["altC"])) == ["choicemm", "altC"]


def test_expected_negative_controls():
    negatives = {name for name, case in REGISTRY.items() if case.expected == "fail"}
    assert negatives == {"neg_bindDr_alt", "neg_bindDr_choice"}


def test_unknown_law_rejected():
    with pytest.raises(ValueError):
        check_law("no_such_law", FAST)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(trials=0)
    with pytest.raises(ValueError):
        GenConfig(seed=-1)
    # trials and seed are the only settings; the instance bounds are fixed
    assert [f.name for f in fields(GenConfig)] == ["trials", "seed"]
    with pytest.raises(TypeError):
        GenConfig(carrier_size=1)


def test_gen_determinism():
    cfg = GenConfig(trials=1, seed=9)
    for gen in (gen_prob, gen_dist, gen_gcm, gen_function, gen_kleisli):
        a = gen(trial_rng(9, "x", 0), cfg)
        b = gen(trial_rng(9, "x", 0), cfg)
        assert a == b


def test_degenerate_carrier():
    cfg = GenConfig(trials=1)
    for i in range(50):
        d = gen_dist(trial_rng(0, "deg", i), cfg, keys=["a"])
        assert d == point("a")


def test_generated_dists_validate():
    cfg = GenConfig(trials=1, seed=5)
    for i in range(1000):
        validate_dist(gen_dist(trial_rng(5, "valid", i), cfg))


def test_bounds_respected():
    cfg = GenConfig(trials=1)
    assert (cfg.carrier_size, cfg.max_support, cfg.max_generators, cfg.max_denominator) == (4, 4, 4, 12)
    assert carrier_of(cfg) == ["a", "b", "c", "d"]
    for i in range(200):
        d = gen_dist(trial_rng(1, "bounds", i), cfg)
        assert len(d.entries) <= 4
        assert set(d.outcomes) <= {"a", "b", "c", "d"}
        assert all(w.denominator <= 12 for _, w in d.entries)
        m = gen_gcm(trial_rng(1, "bounds2", i), cfg)
        assert len(m.generators) <= 4


def _pair(seed):
    """A trial RNG and a second `random.Random` in the same state."""
    rng = trial_rng(seed, "draws", 0)
    base = random.Random()
    base.setstate(rng.getstate())
    return rng, base


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_trial_rng_draws_as_random_does(seed):
    # the trial RNG is a plain `random.Random`, and on this Python its own
    # `randint`, `sample`, `choice` and `shuffle` read `getrandbits` by the
    # rules `gen_dist` holds in `_below` and `_sample`; every argument shape the
    # suite draws with, in one stream, so a call that read a different number
    # of bits would also shift every later draw
    rng, ref = _pair(seed)
    assert type(rng) is random.Random
    bits = ref.getrandbits
    for a in range(-12, 25):
        for b in range(a, 25):
            assert rng.randint(a, b) == a + _below(bits, b - a + 1), (a, b)
    for lo in (-3, 0, 1):
        for n in range(1, 22):
            for k in range(1, n + 1):
                population = range(lo, lo + n)
                assert rng.sample(population, k) == _sample(bits, population, k), (lo, n, k)
    for n in range(1, 13):
        items = [f"x{i}" for i in range(n)]
        assert rng.choice(items) == items[_below(bits, n)], n
    for n in range(1, 10):
        got, want = list(range(n)), list(range(n))
        rng.shuffle(got)
        for i in reversed(range(1, n)):
            j = _below(bits, i + 1)
            want[i], want[j] = want[j], want[i]
        assert got == want, n
    assert rng.getstate() == ref.getstate()


def _reference_gen_dist(rng, cfg, keys=None, max_support=None):
    """`gen_dist` drawn by `random.Random`'s own methods and built by `_normalized`."""
    pool = list(keys) if keys is not None else carrier_of(cfg)
    cap = min(max_support or cfg.max_support, len(pool), cfg.max_denominator)
    size = rng.randint(1, cap)
    support = rng.sample(range(len(pool)), size)
    den = rng.randint(size, cfg.max_denominator)
    bounds = [0, *sorted(rng.sample(range(1, den), size - 1)), den]
    widths = [b - a for a, b in zip(bounds, bounds[1:])]
    return _normalized((outcome_key(pool[i]), pool[i], w) for i, w in zip(support, widths))


# the carrier; one key; equal values (1 twice, and True, which is not 1); nested
# values, one of them twice; and pools past the 21 items `_sample` takes
_POOLS = [
    None,
    ["a"],
    ["c", 1, "a", True, 1, 0],
    [point("b"), point(2), point("b"), from_generators([point("a"), point(True)])],
    list(range(22)),
    [f"s{i}" for i in range(30, 0, -1)],
]


@pytest.mark.parametrize("keys", _POOLS, ids=["carrier", "one", "equal", "nested", "22", "30"])
def test_gen_dist_draws_and_builds_as_the_reference(keys):
    cfg = GenConfig(trials=1)
    for max_support in (None, 1, 2, 3, 4):
        for seed in range(150):
            rng, base = _pair(seed)
            got = gen_dist(rng, cfg, keys=keys, max_support=max_support)
            want = _reference_gen_dist(base, cfg, keys=keys, max_support=max_support)
            assert got == want and got.okeys == want.okeys, (seed, max_support)
            assert (got.outcomes, got.nums, got.den) == (want.outcomes, want.nums, want.den)
            assert rng.getstate() == base.getstate(), (seed, max_support)
            validate_dist(got)


def test_gen_dist_from_an_empty_pool_raises():
    with time_budget(5, "a draw below 0"):  # getrandbits(0) is always 0
        with pytest.raises(ValueError):
            gen_dist(trial_rng(0, "empty", 0), GenConfig(trials=1), keys=[])


def test_draw_helpers_match_random():
    for seed in range(40):
        rng, base = _pair(seed)
        getrandbits = rng.getrandbits
        for n in (1, 2, 3, 4, 5, 8, 12, 16, 21, 22, 33, 64):
            assert _below(getrandbits, n) == base.randrange(n), (seed, n)
        for n in (1, 2, 3, 4, 7, 11, 16, 21):
            for k in range(1, n + 1):
                population = range(-1, n - 1)
                assert _sample(getrandbits, population, k) == base.sample(population, k), (seed, n, k)
        assert rng.getstate() == base.getstate()


def test_trial_instances_depend_on_seed_law_and_trial_alone():
    # each checker gives the same verdict and counterexample text from the trial
    # RNG as from a `random.Random` seeded the documented way
    for seed in (0, 42, 2**64 - 1):
        config = GenConfig(trials=5, seed=seed)
        for name, case in REGISTRY.items():
            for trial in range(config.trials):
                digest = hashlib.sha256(f"{seed}|{name}|{trial}".encode()).digest()
                base = random.Random(int.from_bytes(digest[:8], "big"))
                got = case.checker(trial_rng(seed, name, trial), config)
                assert got == case.checker(base, config), (seed, name, trial)


def test_every_law_instance_is_pinned(monkeypatch):
    # every equation renders its inputs and both sides, equal or not, so the
    # digest pins the drawn instances and the two sides of every law
    monkeypatch.setattr(laws, "_eq_or_ce", lambda lhs, rhs, **inputs: laws._ce(**inputs, lhs=lhs, rhs=rhs))
    config = GenConfig(trials=10, seed=42)
    digest, rendered = hashlib.sha256(), 0
    for name in law_names():
        for trial in range(config.trials):
            found = run_trial(name, config, trial)
            rendered += found is not None
            digest.update(f"{name}|{trial}|{found}\n".encode())
    assert rendered == 400
    assert digest.hexdigest() == "e9959ea1d0ba788e50802b7927d571e233da5522cf6dba2472fc23e602070cc2"


def test_reports_deterministic():
    r1 = check_law("choiceC", FAST)
    r2 = check_law("choiceC", FAST)
    assert render_report(r1) == render_report(r2)
    n1 = check_law("neg_bindDr_alt", FAST)
    n2 = check_law("neg_bindDr_alt", FAST)
    assert [c.rendered for c in n1.failures] == [c.rendered for c in n2.failures]


def test_negative_controls_find_counterexamples():
    for law in ("neg_bindDr_alt", "neg_bindDr_choice"):
        report = check_law(law, FAST)
        assert report.expected == "fail"
        assert len(report.failures) >= 1
        assert report.ok  # a refuted negative control counts as pass


def test_counterexamples_reproduce_standalone():
    report = check_law("neg_bindDr_alt", FAST)
    for ce in report.failures:
        assert run_trial("neg_bindDr_alt", FAST, ce.trial) == ce.rendered
    # a passing trial stays passing
    passing = sorted(set(range(FAST.trials)) - {c.trial for c in report.failures})
    assert run_trial("neg_bindDr_alt", FAST, passing[0]) is None


def test_documented_negative_instance():
    # m = fair coin, k1 = ret, k2 = negation: right-distributivity over alt fails
    m = bcoin(prob_make(1, 2))
    k1 = lambda x: ret_gcm(x)
    k2 = lambda x: ret_gcm(not x)
    lhs = bind_gcm(m, lambda x: alt_gcm(k1(x), k2(x)))
    rhs = alt_gcm(bind_gcm(m, k1), bind_gcm(m, k2))
    assert lhs == from_generators([point(True), point(False)])
    assert rhs == m
    assert lhs != rhs


def test_verdicts_positive_suite_fast():
    reports = check_all(FAST)
    bad = [r.name for r in reports if not r.ok]
    assert bad == []


def test_render_report_shape():
    report = check_law("neg_bindDr_choice", FAST)
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("PASS neg_bindDr_choice")
    assert "trials=12" in lines[0]
    assert all(line.startswith("    ") for line in lines[1:])
    assert len(lines) == 1 + len(report.failures) == 5
    # at most five counterexamples are listed, the rest counted on one line
    many = LawReport("law", "pass", 9, [Counterexample(t, f"ce{t}") for t in range(7)])
    assert render_report(many).splitlines()[1:] == [f"    trial {t}: ce{t}" for t in range(5)] + ["    ... 2 more"]
