"""The benchmark's workloads: the law suite, scaled DSL programs, hull queries.

A workload is built from the benchmark seed (its set-up, timed as `setup_s`),
then `run_pass(tracer, tick)` runs its fixed list of operations once, in
order, one after another, calling `tick` before each (the runner samples host
speed there, outside the operation's time), and returns each operation's
latency and the failures it saw.  Every
answer is checked against a reference that the code under test did not
produce: law verdicts, counterexample counts and random-program renders
recorded in `refs.json` from the commit that added the benchmark,
hand-derived renders, and hull membership known by construction.

convexchoice modules are looked up when used, never kept, because the runner
re-imports the package for every timed set-up and because the tracer swaps
functions inside the modules.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import random
import signal
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# --- laws ------------------------------------------------------------------

# The timed pass is check_all over the acceptance inputs: the default generator
# seed that `check-laws` and the acceptance gate use, ACCEPTANCE_TRIALS trials
# per law.  Per-trial cost is heavy-tailed (bindA, prob_bindDl, the negative
# controls): at 150 trials per law the pass time of 14 generator seeds spread
# by 17 % between quartiles, so the seed does not pick the timed trials.  It
# picks SEEDED_TRIALS further trials per law, at one of the LAW_SEEDS
# generator seeds whose counterexample counts refs.json holds, which run once
# after the timed passes and are checked the same way.  The pass is short so
# that a run holds many of them: CPU speed on a shared host drifts by tens of
# percent within a minute, and a median over many passes rides that out better
# than a few long passes.
ACCEPTANCE_SEED = 42
ACCEPTANCE_TRIALS = 10
# Enough trials that both negative controls are refuted at every recorded seed;
# at 10, generator seed 13 left neg_bindDr_choice unrefuted.
SEEDED_TRIALS = 30
LAW_SEEDS = 32


def _mod(name):
    return importlib.import_module("convexchoice." + name)


class Laws:
    """`check_all` over every registered law; one operation is one law trial."""

    def __init__(self, seed, refs):
        laws = _mod("laws")
        ref = refs["laws"]
        gen_seed = seed % LAW_SEEDS
        self.expected = ref["expected"]
        self.timed = (laws.GenConfig(trials=ACCEPTANCE_TRIALS, seed=ACCEPTANCE_SEED), ref["acceptance"])
        self.seeded = (laws.GenConfig(trials=SEEDED_TRIALS, seed=gen_seed), ref["seeded"][str(gen_seed)])
        for config, counts in (self.timed, self.seeded):
            if counts["trials"] != config.trials:
                raise ValueError(f"refs.json holds {counts['trials']} trials at seed {config.seed}")
        self.describe = (
            f"check_all at generator seed {ACCEPTANCE_SEED}, {ACCEPTANCE_TRIALS} trials/law; "
            f"checked, untimed: generator seed {gen_seed}, {SEEDED_TRIALS} trials/law"
        )

    def run_pass(self, tracer, tick):
        return self._check(*self.timed, tracer, tick)

    def cross_check(self):
        """The seeded trials, once; their failures."""
        return self._check(*self.seeded, None)[1]

    def _check(self, config, counts, tracer, tick=None):
        laws = _mod("laws")
        latencies, failures = [], []

        def timed(name, checker, expected):
            def check(rng, cfg):
                if tracer is not None:
                    tracer.op = len(latencies)
                if tick is not None:
                    tick()
                start = perf_counter()
                try:
                    found = checker(rng, cfg)
                except Exception as exc:  # a raising trial is a failed operation
                    latencies.append(perf_counter() - start)
                    failures.append(f"{name}: raised {exc!r}")
                    return f"raised {exc!r}"
                latencies.append(perf_counter() - start)
                if expected == "pass" and found is not None:
                    failures.append(f"{name}: counterexample {found}")
                return found

            return check

        saved = dict(laws.REGISTRY)
        for name, case in saved.items():
            laws.REGISTRY[name] = dataclasses.replace(
                case, checker=timed(name, case.checker, case.expected)
            )
        try:
            reports = laws.check_all(config)
        finally:
            laws.REGISTRY.update(saved)

        for name in sorted(set(self.expected) ^ {r.name for r in reports}):
            failures.append(f"{name}: law set differs from the reference")
        for r in reports:
            if r.name not in self.expected:
                continue
            if r.expected != self.expected[r.name]:
                failures.append(f"{r.name}: registered as {r.expected!r}")
            found, want = len(r.failures), counts["counterexamples"][r.name]
            if r.expected == "fail":
                # A negative control's count is checked per law, not per trial.
                failures.extend([f"{r.name}: {found} counterexamples, reference {want}"] * abs(found - want))
                if not r.failures:
                    failures.append(f"{r.name}: negative control not refuted")
        return latencies, failures


# --- eval-scaled -------------------------------------------------------------

K_LADDER = (4, 5, 6, 7, 8)
ARBITRARY_WIDTHS = (8, 16, 24)
UNIFORM_WIDTHS = (16, 64, 256)
CORPUS = {
    "arbitrary.choice": "{A: 1}\n{B: 1}\n{C: 1}",
    "coinarb.choice": "{true: 1}\n{false: 1}",
    "mix.choice": "{1: 1/3, 3: 2/3}\n{2: 1/3, 3: 2/3}",
    "negint.choice": "{-3: 1}\n{0: 1/2, 7: 1/2}",
    "nested_do.choice": "{true: 2/5, false: 3/5}\n{false: 1}",
    "uniform.choice": "{A: 1/3, B: 1/3, C: 1/3}",
}
MONTY = {"stick": "stick: {true: 1/3, false: 2/3}", "switch": "switch: {true: 2/3, false: 1/3}"}
# Random programs from the pool recorded in refs.json.  The timed pass runs the
# first RANDOM_PROGRAMS of the pool; drawing them per seed moved op_ms_tail by
# 17 % between quartiles over five seeds, because which programs are the
# largest changes with the draw.  The benchmark seed draws RANDOM_PROGRAMS more
# from the rest of the pool, which run once after the timed passes and are
# checked the same way.
RANDOM_PROGRAMS = 64
POOL_SIZE = 256
POOL_SEED = 20030999

# Known-defect inputs: each must end in a value with exit 0 or a one-line error
# with exit 1, within EDGE_BUDGET_S seconds.
EDGE_BUDGET_S = 5.0
EDGE_PARENS = 3000
EDGE_UNIFORM = 1500
EDGE_CHAIN = 1200


def _ints(n):
    return ", ".join(str(i) for i in range(n))


def _k_family(k):
    r = _ints(k)
    return f"do x <- arbitrary 0 [{r}]; do y <- uniform 0 [{r}]; do z <- arbitrary 0 [{r}]; ret (x == z)"


def _rational(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _uniform_render(n):
    w = _rational(Fraction(1, n))
    return "{" + ", ".join(f"{i}: {w}" for i in range(n)) + "}"


def _chain_render(n):
    # ((ret 0 <|1/2|> ret 1) <|1/2|> ret 0) ...: item i weighs 2^-(n-i), item 0 as item 1
    weight = {0: Fraction(0), 1: Fraction(0)}
    for i in range(n):
        weight[i % 2] += Fraction(1, 2 ** (n - max(i, 1)))
    return "{" + ", ".join(f"{k}: {_rational(weight[k])}" for k in (0, 1) if weight[k]) + "}"


ATOMS = {"int": ("0", "1", "2"), "bool": ("true", "false"), "sym": ("A", "B", "C")}


def random_program(rng, scope=(), depth=3, kind=None):
    """A small closed, well-typed DSL program of outcome type `kind`.

    `scope` holds (variable, type) pairs of the enclosing binders; `==` only
    compares values of one type, so evaluation never raises a type error.
    """
    kind = kind or rng.choice(list(ATOMS))

    def value(of, nest=True):
        names = [v for v, t in scope if t == of]
        r = rng.random()
        if names and r < 0.4:
            return rng.choice(names)
        if of == "bool" and nest and r < 0.6:
            other = rng.choice(list(ATOMS))
            return f"({value(other, False)} == {value(other, False)})"
        return rng.choice(ATOMS[of])

    form = rng.choice(["ret", "uniform", "arbitrary"] + ["choice", "alt", "do"] * (depth > 0))
    if form == "ret":
        return f"ret {value(kind)}"
    if form in ("uniform", "arbitrary"):
        items = ", ".join(value(kind) for _ in range(rng.randint(0, 3)))
        return f"{form} {value(kind)} [{items}]"
    if form == "do":
        var, bound = f"v{len(scope)}", rng.choice(list(ATOMS))
        left = random_program(rng, scope, depth - 1, bound)
        body = random_program(rng, scope + ((var, bound),), depth - 1, kind)
        return f"do {var} <- ({left}); {body}"
    left = random_program(rng, scope, depth - 1, kind)
    right = random_program(rng, scope, depth - 1, kind)
    if form == "alt":
        return f"({left}) [~] ({right})"
    den = rng.randint(1, 6)
    return f"({left}) <|{rng.randint(0, den)}/{den}|> ({right})"


def program_pool():
    rng = random.Random(POOL_SEED)
    return [random_program(rng) for _ in range(POOL_SIZE)]


class _OverBudget(BaseException):
    pass


def _raise_over_budget(_signum, _frame):
    raise _OverBudget()


def _call_cli(argv, stdin_text=None, budget=None):
    """Run `cli_main(argv)` with captured streams: (exit code or exception, stdout, stderr)."""
    cli = _mod("cli")
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    if budget is not None:
        previous = signal.signal(signal.SIGALRM, _raise_over_budget)
        signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.cli_main(argv)
    except _OverBudget:
        status = f"over the {budget:g} s budget"
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:
        status = f"raised {type(exc).__name__}"
    finally:
        if budget is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved_stdin
    return status, out.getvalue(), err.getvalue()


class EvalScaled:
    """DSL programs and CLI inputs through `cli_main`; one operation is one call."""

    def __init__(self, seed, refs):
        pool = refs["programs"]
        seeded = random.Random(seed).sample(range(RANDOM_PROGRAMS, len(pool)), RANDOM_PROGRAMS)
        self.seeded = [(f"random/{i}", ["eval", "-"], pool[i]["source"], pool[i]["render"]) for i in seeded]
        ops = [(f"k={k}", ["eval", "-"], _k_family(k), "{true: 1}\n{false: 1}") for k in K_LADDER]
        for n in ARBITRARY_WIDTHS:
            want = "\n".join(f"{{{i}: 1}}" for i in range(n))
            ops.append((f"arbitrary/{n}", ["eval", "-"], f"arbitrary 0 [{_ints(n)}]", want))
        for n in UNIFORM_WIDTHS:
            ops.append((f"uniform/{n}", ["eval", "-"], f"uniform 0 [{_ints(n)}]", _uniform_render(n)))
        for i in range(RANDOM_PROGRAMS):
            ops.append((f"random/{i}", ["eval", "-"], pool[i]["source"], pool[i]["render"]))
        for name, want in CORPUS.items():
            ops.append((name, ["eval", str(ROOT / "tests" / "corpus" / name)], None, want))
        for strategy, want in MONTY.items():
            ops.append((f"monty/{strategy}", ["monty", "--strategy", strategy], None, want))
        self.ops = ops
        chain = " <|1/2|> ".join(f"ret {i % 2}" for i in range(EDGE_CHAIN))
        self.edges = [
            (f"parens/{EDGE_PARENS}", ["eval", "-"], "(" * EDGE_PARENS + "ret 1" + ")" * EDGE_PARENS, "{1: 1}"),
            (f"uniform/{EDGE_UNIFORM}", ["eval", "-"], f"uniform 0 [{_ints(EDGE_UNIFORM)}]", _uniform_render(EDGE_UNIFORM)),
            (f"chain/{EDGE_CHAIN}", ["eval", "-"], chain, _chain_render(EDGE_CHAIN)),
            ("check-laws --trials 0", ["check-laws", "--trials", "0"], None, None),
            ("check-laws --seed -1", ["check-laws", "--seed", "-1"], None, None),
        ]
        self.describe = (
            f"{len(ops)} programs and CLI inputs, {RANDOM_PROGRAMS} of them random; "
            f"checked, untimed: {RANDOM_PROGRAMS} random programs drawn by the seed"
        )

    def run_pass(self, tracer, tick):
        return self._eval(self.ops, tracer, tick)

    def cross_check(self):
        """The seeded random programs, once; their failures."""
        return self._eval(self.seeded)[1]

    @staticmethod
    def _eval(ops, tracer=None, tick=None):
        latencies, failures = [], []
        for i, (label, argv, stdin_text, want) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if tick is not None:
                tick()
            start = perf_counter()
            status, out, err = _call_cli(argv, stdin_text)
            latencies.append(perf_counter() - start)
            if status != 0 or out.rstrip("\n") != want:
                failures.append(f"{label}: exit {status}, stdout {out[:60]!r}, stderr {err[:60]!r}")
        return latencies, failures

    def run_edges(self):
        """Each known-defect input once, untimed by the pass metrics: (label, seconds, outcome)."""
        results = []
        for label, argv, stdin_text, want in self.edges:
            start = perf_counter()
            status, out, err = _call_cli(argv, stdin_text, EDGE_BUDGET_S)
            seconds = perf_counter() - start
            if status == 0 and (want is None or out.rstrip("\n") == want):
                outcome = "value"
            elif status == 1 and not out and err.count("\n") == 1 and err.strip():
                outcome = "error"
            elif status == 0:
                outcome = "wrong value"
            else:
                outcome = f"exit {status}" if isinstance(status, int) else status
            results.append((label, seconds, outcome))
        return results


# --- hull-queries ------------------------------------------------------------

HULL_GRID = [(n, d) for n in (8, 16, 32, 64) for d in (4, 8)]
# The timed hulls and queries come from a fixed generator seed.  A query's cost
# varies by a factor of two with its point (the simplex path), so the slowest
# queries, and with them op_ms_tail, moved by 23 % between quartiles from one
# seed to the next even with seeds run interleaved.  The benchmark seed draws
# a second grid of hulls and queries that is checked once, untimed.
TIMED_SEED = 1
QUERIES_PER_HULL = 24  # half inside, half outside
SEEDED_QUERIES_PER_HULL = 8
def _random_dist(rng, d):
    dist = _mod("dist")
    w = [rng.randint(1, 12) for _ in range(d)]
    total = sum(w)
    return dist.from_pairs((k, Fraction(x, total)) for k, x in enumerate(w))


def _mixture(rng, points):
    dist = _mod("dist")
    w = [rng.randint(1, 6) for _ in points]
    total = sum(w)
    return dist.from_pairs(
        (k, Fraction(wi, total) * p) for g, wi in zip(points, w) for k, p in g.entries
    )


def _beyond(rng, gens, d):
    """A point past an extreme point g, away from a point c of the hull.

    x = g + t (g - c) with t > 0.  If x were in the hull, g would be a proper
    mixture of x and c, both in the hull, so g would not be extreme.  Every
    generator has full support, so a small t keeps x a distribution.
    """
    g = rng.choice(gens)
    others = [h for h in gens if h is not g]
    c = _mixture(rng, rng.sample(others, min(len(others), rng.randint(1, 3))))
    gw = dict(g.entries)
    cw = dict(c.entries)
    t = min([Fraction(1)] + [gw[k] / (cw.get(k, 0) - gw[k]) for k in range(d) if cw.get(k, 0) > gw[k]]) / 2
    return _mod("dist").from_pairs((k, gw[k] + t * (gw[k] - cw.get(k, 0))) for k in range(d))


def _hull_queries(rng, queries_per_hull):
    """One canonical hull per grid cell and its queries: ((n, d, generators), ...), [op, ...]."""
    necset = _mod("necset")
    hulls, ops = [], []
    for n, d in HULL_GRID:
        hull = necset.from_generators([_random_dist(rng, d) for _ in range(n)])
        gens = list(hull.generators)
        if len(gens) < 2:
            raise ValueError(f"hull {n}x{d} has one generator; no point lies outside by construction")
        hulls.append((n, d, len(gens)))
        for q in range(queries_per_hull):
            if q % 2 == 0:
                point = _mixture(rng, rng.sample(gens, min(len(gens), rng.randint(2, 4))))
            else:
                point = _beyond(rng, gens, d)
            ops.append((f"{n}x{d}", point, hull, q % 2 == 0))
    rng.shuffle(ops)
    return hulls, ops


def _member_failures(ops, member, tracer=None, tick=None):
    latencies, failures = [], []
    for i, (label, point, hull, inside) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if tick is not None:
            tick()
        start = perf_counter()
        try:
            found = member(point, hull)
        except Exception as exc:
            found = f"raised {exc!r}"
        latencies.append(perf_counter() - start)
        if found is not inside:
            failures.append(f"{label}: gave {found}, constructed {'inside' if inside else 'outside'}")
    return latencies, failures


class HullQueries:
    """`member` queries against canonical hulls built in set-up; one operation is one query."""

    def __init__(self, seed, refs):
        hulls, self.ops = _hull_queries(random.Random(TIMED_SEED), QUERIES_PER_HULL)
        self.seed = seed
        self.describe = "hulls (n x d -> generators): " + ", ".join(f"{n}x{d}->{g}" for n, d, g in hulls)

    def run_pass(self, tracer, tick):
        return _member_failures(self.ops, _mod("necset").member, tracer, tick)

    def cross_check(self):
        """The seeded grid by `member`, and its smallest hull's queries by the enumeration oracle."""
        _, ops = _hull_queries(random.Random(self.seed), SEEDED_QUERIES_PER_HULL)
        failures = _member_failures(ops, _mod("necset").member)[1]
        smallest = [op for op in ops if op[0] == "{}x{}".format(*HULL_GRID[0])]
        oracle = _mod("convexgeom").in_hull_oracle
        failures += _member_failures(smallest, lambda point, hull: oracle(point, hull.generators))[1]
        return failures


WORKLOADS = {"laws": Laws, "eval-scaled": EvalScaled, "hull-queries": HullQueries}
