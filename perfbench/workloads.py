"""Set-up, inputs, task lists and output checks of the four workloads.

A task mirrors one CLI command (or one library job such as a stability
slope) and calls the package's public functions directly.  ``run`` is the
timed part: a generator whose bare ``yield`` statements cut the task into
operations of at most about half a second, each timed on its own, and whose
last ``yield`` hands over the task's outputs.  ``check`` runs afterwards,
outside the timed region, and returns one message per failed check.  Every
call into a package module goes through ``Tracer.call`` (or a ``span``), so a
traced pass records one span per layer call.

Checks use the repository's own criteria bounds: exact results must be equal
(residuals exactly 0, stored normalizers), statistical ones must meet the
acceptance-suite thresholds.  Tasks whose statistic is a maximum over many
comparisons (reversibility max z) or that reproduce a criterion verbatim
(stability slopes) run at the criterion's pinned seed; all other inputs are
derived from the run's ``--seed``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

MODULES = ("graphs", "measures", "policies", "chain", "stationary", "detailed", "drift", "cli")

# model name -> (graph fixture, measure fixture)
MODELS = {
    "path_loop": ("path_loop", "path_loop.mu"),
    "path_loop_unstable": ("path_loop", "path_loop.mu_unstable"),
    "tripartite_loop": ("tripartite_loop", "tripartite_loop.mu"),
    "diamond_hub_loop": ("diamond_hub_loop", "diamond_hub_loop.mu"),
    "square_loops": ("square_loops", "square_loops.mu_uniform"),
}
V2FAV_FIXTURE = "tripartite_loop.policy_v2fav.json"

# alpha enumerates every ordering of every independent set, so its cost is
# factorial in n: C11 takes about 0.3 s and C13 about 4 s on a 2-core Xeon.
# C11 is the largest size one run can time often enough for a steady median.
CYCLE_SIZES = (5, 7, 9, 11)
SIM_POLICIES = ("lcfm", "ml", "ms", "random", "priority", "v2fav")  # besides fcfm
BLOCKS_MAX_N = 9  # the enumeration oracle is as costly; run it on the small cycles only

# criterion bounds (tests/test_acceptance.py)
TV_BOUND = 0.02
MAX_Z_BOUND = 3.0
SLOPE_UNSTABLE_MIN = 0.05
SLOPE_STABLE_MAX = 0.01
FINITE_SOLVER_TOL = 1e-9

# pinned seeds of criteria 08 and 10
REVERSIBILITY_SEED = 2
SLOPE_SEED = 0

# (steps, replicas); TV is taken over the replicas' pooled visit counts.
# path_loop needs criterion 07's 1e6 steps in all: at 2.5e5 steps its TV
# reached 0.0207 on one of nine seeds.  Replicas keep each timed operation
# short (about 0.15 s).
TV_RUNS = {"path_loop": (50_000, 20), "tripartite_loop": (50_000, 4)}
TV_MAX_LEN = 4
REVERSIBILITY_STEPS = 100_000
REVERSIBILITY_MIN_VISITS = 500
EXCURSION_STEPS = 50_000
POLICY_SIM_STEPS = 15_000
SLOPE_STEPS = 200_000
BALANCE_MAX_LEN = 8
IDENTITY_MAX_LEN = 4
RANDOM_WORDS = 12  # extra seeded words of length 5..8 per model, as in criterion 05
DRIFT_MAX_LEN = 6


@dataclass
class Task:
    name: str
    kind: str  # "sim" or "exact" feed the throughput rates; others do not
    seeded: bool  # True when the inputs come from --seed
    run: Callable  # run(tracer) -> generator; see the module docstring
    check: Callable


# -- set-up -------------------------------------------------------------------


def import_package() -> SimpleNamespace:
    """Import every module of the package afresh, so set-up can be repeated."""
    for name in [m for m in sys.modules if m == "multimatch" or m.startswith("multimatch.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("multimatch." + m) for m in MODULES})


def cycle_graph(graphs_mod, labels: list[str], loop_at: str):
    """Odd cycle through ``labels`` in order, with one self-loop."""
    n = len(labels)
    edges = [(labels[k], labels[(k + 1) % n]) for k in range(n)]
    return graphs_mod.Multigraph.build(labels, edges, [loop_at])


def tied_priority(pkg, g):
    """Each class ranks its neighbourhood in sorted pairs, ties broken at random."""
    order = {}
    for v in g.nodes:
        nb = sorted(g.adjacency[v])
        order[v] = [nb[k : k + 2] for k in range(0, len(nb), 2)]
    return pkg.policies.Priority.from_lists(order)


def setup(root: Path, workload: str, seed: int) -> SimpleNamespace:
    """Import the package, load and validate the fixtures, build the models."""
    pkg = import_package()
    fixtures = root / "fixtures"

    def read(name: str) -> str:
        return (fixtures / name).read_text(encoding="utf-8")

    models = {}
    for name, (gname, mname) in MODELS.items():
        g = pkg.graphs.Multigraph.loads(read(gname + ".graph.json"))
        mu = pkg.measures.ProbMeasure.loads(read(mname + ".json"))
        mu.check_support(g)
        models[name] = (g, mu)
    trip = models["tripartite_loop"][0]
    bundled = pkg.policies.policy_loads(read(V2FAV_FIXTURE))
    pkg.policies.validate_policy(bundled, trip)

    ctx = SimpleNamespace(root=root, pkg=pkg, models=models, bundled_v2fav=bundled, cycles=[])
    if workload == "normalizer":
        rng = random.Random(f"normalizer:{seed}")
        for n in CYCLE_SIZES:
            labels = [f"c{k}" for k in range(n)]
            rng.shuffle(labels)
            g = cycle_graph(pkg.graphs, labels, labels[rng.randrange(n)])
            ctx.cycles.append((n, g, pkg.measures.ProbMeasure.uniform(g)))
    return ctx


def policy_battery(pkg, g, bundled=None) -> dict:
    """Simulation policies by label; ``v2fav`` wraps the tied priority unless bundled."""
    pol = pkg.policies
    tied = tied_priority(pkg, g)
    battery = {
        "fcfm": pol.Fcfm(),
        "lcfm": pol.Lcfm(),
        "ml": pol.match_the_longest(),
        "ms": pol.match_the_shortest(),
        "random": pol.RandomPolicy(),
        "priority": tied,
        "v2fav": bundled if bundled is not None else pol.V2Favorable(tied),
    }
    for p in battery.values():
        pol.validate_policy(p, g)
    return battery


def identity_battery(pkg, g) -> dict:
    """The six policies of ``multimatch verify-identities``."""
    pol = pkg.policies
    return {
        "fcfm": pol.Fcfm(),
        "lcfm": pol.Lcfm(),
        "uniform": pol.RandomPolicy(),
        "priority": pol.Priority.from_lists({v: sorted(g.adjacency[v]) for v in g.nodes}),
        "match_longest": pol.match_the_longest(),
        "match_shortest": pol.match_the_shortest(),
    }


def random_words(pkg, g, rng: random.Random, count: int) -> list[tuple]:
    """Admissible words of length 5..8 grown one random admissible letter at a time."""
    out = []
    while len(out) < count:
        length = rng.randrange(5, 9)
        w: tuple = ()
        while len(w) < length:
            options = [c for c in g.nodes if pkg.chain.is_admissible_word(g, w + (c,))]
            if not options:
                break
            w += (rng.choice(options),)
        if len(w) == length:
            out.append(w)
    return out


# -- checks shared by several tasks ------------------------------------------


def sim_problems(res, steps: int, label: str) -> list[str]:
    """Bookkeeping identities every simulation result must satisfy."""
    out = []
    if res.total_steps != steps or res.recorded_steps != steps - res.burn_in:
        out.append(f"{label}: step counts {res.total_steps}/{res.recorded_steps}")
    if sum(res.counts.values()) + res.overflow_steps != res.recorded_steps:
        out.append(f"{label}: visit counts do not add up to the recorded steps")
    if any(len(w) > res.word_cap for w in res.counts):
        out.append(f"{label}: a tallied word exceeds the word cap")
    occ = sum(res.class_occupancy.values())
    if abs(occ - res.mean_queue_len) > 1e-9 * max(1.0, occ):
        out.append(f"{label}: class occupancy {occ} != mean queue length {res.mean_queue_len}")
    return out


def count_sim(tr, res) -> None:
    tr.count("chain.steps", res.total_steps)
    tr.count("chain.overflow_steps", res.overflow_steps)
    tr.count("chain.distinct_words", len(res.counts))


# -- workloads ------------------------------------------------------------------


def sim_fcfm_tasks(ctx, seed: int, scratch: Path) -> list[Task]:
    pkg = ctx.pkg
    ch, st, de, pol = pkg.chain, pkg.stationary, pkg.detailed, pkg.policies
    tasks = []

    def tv_compare(name: str, steps: int, replicas: int, seed0: int) -> Task:
        """``tv-compare --replicas``, with TV over the pooled visit counts."""
        g, mu = ctx.models[name]

        def run(tr):
            dist = tr.call("stationary.product_form", st.product_form, g, mu)
            states = tr.call("chain.enumerate_states", ch.enumerate_states, g, TV_MAX_LEN)
            tr.count("chain.states", len(states))
            with tr.span("stationary.pi"):
                exact = [float(dist.pi(w)) for w in states]
            tr.count("stationary.pi", len(states))
            inside = tr.call("stationary.truncated_mass", dist.truncated_mass, TV_MAX_LEN)
            sims = []
            for r in range(replicas):
                yield
                res = tr.call(
                    "chain.simulate", ch.simulate, g, mu, pol.Fcfm(),
                    steps=steps, seed=seed0 + r, word_cap=TV_MAX_LEN,
                )
                count_sim(tr, res)
                sims.append(res)
            recorded = sum(res.recorded_steps for res in sims)
            tv = 0.5 * (
                sum(abs(sum(res.counts.get(w, 0) for res in sims) / recorded - p) for w, p in zip(states, exact))
                + abs(sum(res.overflow_steps for res in sims) / recorded - (1 - float(inside)))
            )
            yield {"units": steps * replicas, "alpha": dist.alpha, "tv": tv, "sims": sims}

        def check(out):
            errs = []
            for r, res in enumerate(out["sims"]):
                errs += sim_problems(res, steps, f"tv-compare {name} seed {seed0 + r}")
            if not out["tv"] < TV_BOUND:
                errs.append(f"tv-compare {name} seeds {seed0}+: TV {out['tv']} >= {TV_BOUND}")
            return errs

        return Task(f"tv-compare:{name}:{seed0}", "sim", True, run, check)

    for k, (name, (steps, replicas)) in enumerate(TV_RUNS.items()):
        tasks.append(tv_compare(name, steps, replicas, seed * 1000 + 100 * k))

    sq, mu_sq = ctx.models["square_loops"]

    def reversibility(tr):
        rep = tr.call(
            "detailed.verify_local_balance_empirical", de.verify_local_balance_empirical,
            sq, mu_sq, steps=REVERSIBILITY_STEPS, seed=REVERSIBILITY_SEED,
            min_visits=REVERSIBILITY_MIN_VISITS,
        )
        tr.count("detailed.pairs_tested", rep.pairs_tested)
        yield {"units": REVERSIBILITY_STEPS, "report": rep}

    def reversibility_check(out):
        rep = out["report"]
        if rep.pairs_tested == 0:
            return ["reversibility: no pair tested"]
        if not rep.max_z <= MAX_Z_BOUND:
            return [f"reversibility: max z {rep.max_z} > {MAX_Z_BOUND}"]
        return []

    tasks.append(Task("reversibility:square_loops", "sim", False, reversibility, reversibility_check))

    g, mu = ctx.models["path_loop"]
    exc_seed = seed * 1000 + 500

    def excursions(tr):
        rep = tr.call(
            "detailed.analyze_excursions", de.analyze_excursions,
            g, mu, steps=EXCURSION_STEPS, seed=exc_seed,
        )
        tr.count("detailed.excursions", rep.n_excursions)
        yield {"units": EXCURSION_STEPS, "report": rep}

    def excursions_check(out):
        rep = out["report"]
        if rep.n_excursions == 0:
            return ["excursions: none completed"]
        if not (rep.all_permutation_valid and rep.all_roundtrip_valid):
            return [
                f"excursions: {rep.permutation_valid}/{rep.roundtrip_valid} of "
                f"{rep.n_excursions} permutation/round-trip valid"
            ]
        return []

    tasks.append(Task("excursions:path_loop", "sim", True, excursions, excursions_check))
    return tasks


def sim_policies_tasks(ctx, seed: int, scratch: Path) -> list[Task]:
    pkg = ctx.pkg
    ch = pkg.chain
    tasks = []
    for m, name in enumerate(("tripartite_loop", "diamond_hub_loop")):
        g, mu = ctx.models[name]
        bundled = ctx.bundled_v2fav if name == "tripartite_loop" else None
        battery = policy_battery(pkg, g, bundled)
        for k, label in enumerate(SIM_POLICIES):
            tasks.append(
                simulate_task(ch, name, g, mu, label, battery[label], seed * 1000 + 100 * m + k)
            )

    g, _ = ctx.models["path_loop"]
    fcfm = pkg.policies.Fcfm()
    for label, model in (("unstable", "path_loop_unstable"), ("stable", "path_loop")):
        tasks.append(slope_task(ch, g, ctx.models[model][1], fcfm, label))
    return tasks


def slope_task(ch, g, mu, policy, label: str) -> Task:
    """Criterion 10's queue-growth slope on path_loop under one measure."""

    def run(tr):
        slope = tr.call("chain.stability_slope", ch.stability_slope, g, mu, policy, SLOPE_STEPS, seed=SLOPE_SEED)
        yield {"units": SLOPE_STEPS, "slope": slope}

    def check(out):
        slope = out["slope"]
        if label == "unstable" and not slope > SLOPE_UNSTABLE_MIN:
            return [f"stability-slope: unstable slope {slope} <= {SLOPE_UNSTABLE_MIN}"]
        if label == "stable" and not abs(slope) < SLOPE_STABLE_MAX:
            return [f"stability-slope: stable slope {slope} outside +-{SLOPE_STABLE_MAX}"]
        return []

    return Task(f"stability-slope:path_loop:{label}", "sim", False, run, check)


def simulate_task(ch, name, g, mu, label, policy, sim_seed) -> Task:
    def run(tr):
        res = tr.call("chain.simulate", ch.simulate, g, mu, policy, POLICY_SIM_STEPS, seed=sim_seed)
        count_sim(tr, res)
        yield {"units": POLICY_SIM_STEPS, "sim": res}

    def check(out):
        return sim_problems(out["sim"], POLICY_SIM_STEPS, f"simulate {name} {label}")

    return Task(f"simulate:{name}:{label}", "sim", True, run, check)


def exact_words_tasks(ctx, seed: int, scratch: Path) -> list[Task]:
    pkg = ctx.pkg
    ch, st, dr, ms = pkg.chain, pkg.stationary, pkg.drift, pkg.measures
    rng = random.Random(f"exact_words:{seed}")
    tasks = []

    g, mu = ctx.models["tripartite_loop"]
    balance_states = len(ch.enumerate_states(g, BALANCE_MAX_LEN))

    def balance(tr):
        worst, word = tr.call("stationary.balance_residual", st.balance_residual, g, mu, BALANCE_MAX_LEN)
        tr.count("stationary.balance_states", balance_states)
        yield {"units": balance_states, "residual": worst, "word": word}

    def balance_check(out):
        return [] if out["residual"] == 0 else [f"verify-balance: residual {out['residual']} at {out['word']}"]

    tasks.append(Task("verify-balance:tripartite_loop", "exact", False, balance, balance_check))

    for name in ("tripartite_loop", "diamond_hub_loop"):
        tasks.append(identities_task(ctx, name, random_words(pkg, ctx.models[name][0], rng, RANDOM_WORDS)))

    policy = ctx.bundled_v2fav

    def drift_ldelta(tr):
        report = tr.call("measures.ncond_check", ms.ncond_check, g, mu)
        fn = dr.ldelta(g, mu, report.margin)
        states = tr.call("chain.enumerate_states", ch.enumerate_states, g, DRIFT_MAX_LEN)
        tr.count("chain.states", len(states))
        drifts = [tr.call("drift.exact_drift", dr.exact_drift, g, mu, policy, w, fn) for w in states]
        tr.count("drift.exact_drift", len(states))
        rep = tr.call("drift.verify_ppartite_bound", dr.verify_ppartite_bound, g, mu, policy, DRIFT_MAX_LEN)
        tr.count("drift.ppartite_states", rep.states_checked)
        yield {"units": len(states) + rep.states_checked, "drifts": drifts, "bound": rep}

    def drift_check(out):
        errs = []
        if not out["bound"].ok:
            errs.append(f"drift Ldelta: bound violated at {out['bound'].violations[:3]}")
        for d in out["drifts"]:
            if sum(d.per_class.values(), Fraction(0)) != d.drift:
                errs.append(f"drift Ldelta: per-class drifts do not add up at {d.state}")
        return errs

    tasks.append(Task("drift-ldelta:tripartite_loop", "exact", False, drift_ldelta, drift_check))

    sq, mu_sq = ctx.models["square_loops"]
    fcfm = pkg.policies.Fcfm()

    def finite(tr):
        table = tr.call("stationary.finite_stationary", st.finite_stationary, sq, mu_sq)
        solved = tr.call("stationary.solve_finite_chain", st.solve_finite_chain, sq, mu_sq, fcfm)
        yield {"units": len(table) + len(solved), "table": table, "solved": solved}

    def finite_check(out):
        table, solved = out["table"], out["solved"]
        total = sum(table.values(), Fraction(0))
        if total != 1:
            return [f"finite table sums to {total}"]
        if set(table) != set(solved):
            return ["finite table and linear solve cover different states"]
        gap = max(abs(float(table[w]) - solved[w]) for w in table)
        return [] if gap <= FINITE_SOLVER_TOL else [f"finite table vs linear solve: gap {gap}"]

    tasks.append(Task("finite-table:square_loops", "exact", False, finite, finite_check))
    tasks.append(cli_task(ctx, scratch))
    return tasks


def identities_task(ctx, name: str, extra_words: list[tuple]) -> Task:
    pkg = ctx.pkg
    ch, dr = pkg.chain, pkg.drift
    g, mu = ctx.models[name]
    battery = identity_battery(pkg, g)

    def run(tr):
        states = tr.call("chain.enumerate_states", ch.enumerate_states, g, IDENTITY_MAX_LEN)
        tr.count("chain.states", len(states))
        words = states + extra_words
        worst = {}
        for k, (label, pol) in enumerate(battery.items()):
            if k:
                yield
            local = 0.0
            for w in words:
                rq = tr.call("drift.verify_quadratic_identity", dr.verify_quadratic_identity, g, mu, pol, w)
                rl, rr = tr.call("drift.verify_linear_chain", dr.verify_linear_chain, g, mu, pol, w)
                local = max(local, rq, rl, rr)
            worst[label] = local
        checks = 2 * len(words) * len(battery)
        tr.count("drift.identity_checks", checks)
        yield {"units": checks, "worst": worst, "words": len(words)}

    def check(out):
        return [
            f"verify-identities {name} {label}: residual {r}"
            for label, r in out["worst"].items()
            if r != 0
        ]

    return Task(f"verify-identities:{name}", "exact", True, run, check)


CLI_COMMANDS = (
    ("info", ["--graph", "{graph}"]),
    ("ncond", ["--graph", "{graph}", "--mu", "{mu}"]),
    ("mudeg", ["--graph", "{graph}"]),
    ("transform", ["--graph", "{graph}", "--check", "--blowup"]),
    ("extend-measure", ["--graph", "{graph}", "--mu", "{mu}"]),
    ("stationary-fcfm", ["--graph", "{graph}", "--mu", "{mu}", "--max-len", "4"]),
)


def cli_task(ctx, scratch: Path) -> Task:
    """The cheap CLI commands on tripartite_loop, in-process, with ``--out``."""
    pkg = ctx.pkg
    files = {
        "graph": str(ctx.root / "fixtures" / "tripartite_loop.graph.json"),
        "mu": str(ctx.root / "fixtures" / "tripartite_loop.mu.json"),
    }
    g, mu = ctx.models["tripartite_loop"]
    expected_alpha = str(pkg.stationary.alpha(g, mu))
    argvs = [
        (cmd, [cmd] + [a.format(**files) for a in args] + ["--out", str(scratch / cmd)])
        for cmd, args in CLI_COMMANDS
    ]

    def run(tr):
        codes, artifacts, written = {}, {}, 0
        for cmd, argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[cmd] = tr.call("cli." + cmd, pkg.cli.main, argv)
            out_dir = argv[-1]
            for fname in sorted(os.listdir(out_dir)):
                text = Path(out_dir, fname).read_text(encoding="utf-8")
                artifacts[f"{cmd}/{fname}"] = text
                written += len(text.encode("utf-8"))
        tr.count("cli.bytes_written", written)
        yield {"units": len(argvs), "codes": codes, "artifacts": artifacts}

    def check(out):
        errs = [f"cli {cmd}: exit {code}" for cmd, code in out["codes"].items() if code != 0]
        art = out["artifacts"]
        for cmd, _ in CLI_COMMANDS:
            if f"{cmd}/{cmd}.json" not in art:
                errs.append(f"cli {cmd}: no summary written")
        if errs:
            return errs
        if json.loads(art["stationary-fcfm/stationary-fcfm.json"])["alpha"] != expected_alpha:
            errs.append("cli stationary-fcfm: alpha differs from the library's")
        if json.loads(art["ncond/ncond.json"])["satisfied"] is not True:
            errs.append("cli ncond: bundled measure reported outside the stability region")
        return errs

    return Task("cli-slice:tripartite_loop", "cli", False, run, check)


def normalizer_tasks(ctx, seed: int, scratch: Path, stored: dict) -> list[Task]:
    pkg = ctx.pkg
    st, ms, de = pkg.stationary, pkg.measures, pkg.detailed
    tasks = []
    for n, g, mu in ctx.cycles:
        ref = stored[str(n)]

        def run(tr, n=n, g=g, mu=mu, ref=ref):
            report = tr.call("measures.ncond_check", ms.ncond_check, g, mu)
            sets = tr.call("graphs.independent_sets", lambda: list(g.independent_sets()))
            tr.count("graphs.independent_sets", len(sets))
            a = tr.call(f"stationary.alpha.c{n}", st.alpha, g, mu)
            out = {
                "units": 1,
                "alpha": a,
                "margin": report.margin,
                "satisfied": report.satisfied,
                "sets": len(sets),
            }
            if n <= BLOCKS_MAX_N:
                yield
                out["inverse"] = tr.call(
                    "detailed.alpha_inverse_from_blocks", de.alpha_inverse_from_blocks, g, mu
                )
                tr.count("detailed.blocks", ref["blocks"])
            yield out

        def check(out, n=n, ref=ref):
            errs = []
            if out["alpha"] != Fraction(ref["alpha"]):
                errs.append(f"alpha C{n}: {out['alpha']} != stored {ref['alpha']}")
            if "inverse" in out and out["inverse"] != 1 / Fraction(ref["alpha"]):
                errs.append(f"blocks C{n}: {out['inverse']} != 1/alpha")
            if not out["satisfied"] or out["margin"] != Fraction(ref["margin"]):
                errs.append(f"ncond C{n}: margin {out['margin']} != stored {ref['margin']}")
            if out["sets"] != ref["independent_sets"]:
                errs.append(f"independent sets C{n}: {out['sets']} != {ref['independent_sets']}")
            return errs

        tasks.append(Task(f"alpha:C{n}", "alpha", True, run, check))
    return tasks


def build_tasks(ctx, workload: str, seed: int, scratch: Path, data_dir: Path) -> list[Task]:
    if workload == "normalizer":
        stored = json.loads((data_dir / "alpha_cycles.json").read_text(encoding="utf-8"))
        return normalizer_tasks(ctx, seed, scratch, stored)
    builders = {
        "sim_fcfm": sim_fcfm_tasks,
        "sim_policies": sim_policies_tasks,
        "exact_words": exact_words_tasks,
    }
    return builders[workload](ctx, seed, scratch)


WORKLOADS = ("sim_fcfm", "sim_policies", "exact_words", "normalizer")
