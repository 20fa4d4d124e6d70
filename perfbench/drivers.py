"""Per-step drivers for the layers that ``simulate`` and the exact checks hide.

Each driver times one public call, or a loop of calls, over inputs generated
beforehand from the run's seed, and records one span plus a counter of the
calls or steps it covered; the per-layer metrics divide the two.  Drivers run
only in traced runs, after the traced passes, and each returns its problems
like a task's check does.
"""

from __future__ import annotations

import random
from fractions import Fraction

from workloads import SIM_POLICIES, policy_battery

ENGINE_STEPS = 30_000
PARTNER_STEPS = 50_000
DECISION_INPUTS = 2_000
REPEATS = 200  # calls of the cheap per-model functions
PI_MAX_LEN = 6
KERNEL_MAX_LEN = 6
PREDECESSOR_MAX_LEN = 4

# policies.<metric>.<kind> uses the policy family names
DECISION_KINDS = {
    "fcfm": "fcfm",
    "lcfm": "lcfm",
    "random": "random",
    "priority": "priority",
    "maxweight": "ml",
    "v2fav": "v2fav",
}


def engine_and_simulate(ctx, tr, seed: int, labels) -> list[str]:
    """Arrival sampling, bare ``BufferEngine.offer`` and ``simulate`` per policy."""
    pkg = ctx.pkg
    ch = pkg.chain
    g, mu = ctx.models["tripartite_loop"]
    battery = policy_battery(pkg, g, ctx.bundled_v2fav)
    arrivals = tr.call("chain.draw_arrivals", ch.draw_arrivals, mu, ENGINE_STEPS, random.Random(seed))
    tr.count("chain.draw_arrivals", ENGINE_STEPS)
    errs = []
    for k, label in enumerate(labels):
        engine = ch.BufferEngine(g, battery[label])
        offer, rng, matches = engine.offer, random.Random(seed + k), 0
        with tr.span("chain.engine." + label):
            for v in arrivals:
                if offer(v, rng) is not None:
                    matches += 1
        tr.count("chain.engine." + label, ENGINE_STEPS)
        tr.count("policies.matches", matches)
        tr.count("policies.arrivals", ENGINE_STEPS)
        word = engine.word()
        if engine.length != len(word) or not ch.is_admissible_word(g, word):
            errs.append(f"engine {label}: final buffer {word} inconsistent")
        tr.call("chain.simulate." + label, ch.simulate, g, mu, battery[label], ENGINE_STEPS, seed=seed + k)
        tr.count("chain.simulate." + label, ENGINE_STEPS)
    return errs


def decision_inputs(ctx, seed: int) -> list[tuple]:
    """Fixed (word, arrival) pairs: stored words up to length 6 of tripartite_loop."""
    ch = ctx.pkg.chain
    g, _ = ctx.models["tripartite_loop"]
    states = ch.enumerate_states(g, PI_MAX_LEN)
    rng = random.Random(f"decisions:{seed}")
    return [(rng.choice(states), rng.choice(g.nodes)) for _ in range(DECISION_INPUTS)]


def decide(ctx, tr, seed: int) -> list[str]:
    """Sampled decisions, each checked against the support of the exact law."""
    pol = ctx.pkg.policies
    g, _ = ctx.models["tripartite_loop"]
    battery = policy_battery(ctx.pkg, g, ctx.bundled_v2fav)
    inputs = decision_inputs(ctx, seed)
    errs = []
    for kind, label in DECISION_KINDS.items():
        policy, rng, fn = battery[label], random.Random(seed), pol.decide
        with tr.span("policies.decide." + kind):
            decisions = [fn(g, policy, w, v, rng) for w, v in inputs]
        tr.count("policies.decide." + kind, len(inputs))
        for (w, v), d in zip(inputs, decisions):
            if d not in pol.decision_distribution(g, policy, w, v):
                errs.append(f"decide {kind}: {d} outside the exact law at {w}, {v}")
                break
    return errs


def decision_law(ctx, tr, seed: int) -> list[str]:
    """Exact decision laws; each must sum to one."""
    pol = ctx.pkg.policies
    g, _ = ctx.models["tripartite_loop"]
    battery = policy_battery(ctx.pkg, g, ctx.bundled_v2fav)
    inputs = decision_inputs(ctx, seed)
    errs = []
    for kind, label in DECISION_KINDS.items():
        policy, fn = battery[label], pol.decision_distribution
        with tr.span("policies.decision_law." + kind):
            laws = [fn(g, policy, w, v) for w, v in inputs]
        tr.count("policies.decision_law." + kind, len(inputs))
        if any(sum(law.values(), Fraction(0)) != 1 for law in laws):
            errs.append(f"decision_distribution {kind}: a law does not sum to 1")
    return errs


def match_partners(ctx, tr, seed: int) -> list[str]:
    """The FCFM partner table that the trajectory code of ``detailed`` builds."""
    pkg = ctx.pkg
    g, mu = ctx.models["path_loop"]
    arrivals = pkg.chain.draw_arrivals(mu, PARTNER_STEPS, random.Random(seed))
    partners = tr.call("detailed.fcfm_match_partners", pkg.detailed.fcfm_match_partners, g, arrivals)
    tr.count("detailed.fcfm_match_partners", PARTNER_STEPS)
    if any(p is not None and partners[p] != k for k, p in enumerate(partners)):
        return ["fcfm_match_partners: partner table not symmetric"]
    return []


def product_form_pi(ctx, tr, seed: int) -> list[str]:
    pkg = ctx.pkg
    g, mu = ctx.models["tripartite_loop"]
    dist = pkg.stationary.product_form(g, mu)
    states = pkg.chain.enumerate_states(g, PI_MAX_LEN)
    with tr.span("stationary.pi"):
        values = [dist.pi(w) for w in states]
    tr.count("stationary.pi", len(states))
    if not sum(values, Fraction(0)) < 1 or min(values) <= 0:
        return ["product form: truncated mass not in (0, 1)"]
    return []


def kernels(ctx, tr, seed: int) -> list[str]:
    """``kernel_row`` and ``predecessors`` over every state up to a length."""
    pkg = ctx.pkg
    ch = pkg.chain
    g, mu = ctx.models["tripartite_loop"]
    fcfm = pkg.policies.Fcfm()
    states = ch.enumerate_states(g, KERNEL_MAX_LEN)
    with tr.span("chain.kernel_row"):
        rows = [ch.kernel_row(g, mu, fcfm, w) for w in states]
    tr.count("chain.kernel_row", len(states))
    short = ch.enumerate_states(g, PREDECESSOR_MAX_LEN)
    with tr.span("chain.predecessors"):
        preds = [ch.predecessors(g, mu, fcfm, w) for w in short]
    tr.count("chain.predecessors", len(short))
    errs = []
    if any(sum(row.values(), Fraction(0)) != 1 for row in rows):
        errs.append("kernel_row: a row does not sum to 1")
    if any(not 0 < p <= 1 for pred in preds for p in pred.values()):
        errs.append("predecessors: a transition probability outside (0, 1]")
    return errs


def per_model(ctx, tr, seed: int) -> list[str]:
    """Derived graphs and the extended measure, rebuilt per state by the identities."""
    pkg = ctx.pkg
    errs = []
    for name in ("tripartite_loop", "diamond_hub_loop"):
        g, mu = ctx.models[name]
        with tr.span("graphs.derived"):
            for _ in range(REPEATS):
                g.maximal_subgraph()
                bmap = g.minimal_blowup()
        tr.count("graphs.derived", REPEATS)
        with tr.span("measures.extend_measure"):
            for _ in range(REPEATS):
                mu_hat = pkg.measures.extend_measure(mu, bmap)
        tr.count("measures.extend_measure", REPEATS)
        if pkg.measures.reduce_measure(mu_hat, bmap) != mu:
            errs.append(f"extend_measure {name}: reduction does not give the measure back")
    return errs


DRIVERS = {
    "sim_fcfm": (
        lambda ctx, tr, seed: engine_and_simulate(ctx, tr, seed, ("fcfm",)),
        match_partners,
        product_form_pi,
    ),
    "sim_policies": (
        lambda ctx, tr, seed: engine_and_simulate(ctx, tr, seed, SIM_POLICIES),
        decide,
    ),
    "exact_words": (decision_law, kernels, product_form_pi, per_model),
    "normalizer": (),
}
