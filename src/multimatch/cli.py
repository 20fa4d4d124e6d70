"""Command-line front end for reproducible matching-model experiments.

Inputs are JSON files (graph, measure, policy); outputs are CSV tables and a
JSON summary, printed to stdout and optionally written under ``--out``.
Output files carry no timestamps, so identical configurations produce
byte-identical artifacts.

Exit codes: 0 success or verified, 1 verification failure, 2 input error,
3 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from typing import Optional, Sequence

from . import chain, detailed, drift, measures, policies, stationary
from .graphs import GraphError, Multigraph
from .measures import MeasureError, ProbMeasure
from .policies import Policy, PolicyError, Word


class InputError(Exception):
    pass


EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

_PARSE_ERRORS = (
    GraphError,
    MeasureError,
    PolicyError,
    chain.ChainError,
    stationary.StationaryError,
    detailed.DetailedError,
    drift.DriftError,
    InputError,
    json.JSONDecodeError,
    OSError,
)


def _load_graph(path: str) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return Multigraph.loads(fh.read())


def _load_measure(path: str) -> ProbMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return ProbMeasure.loads(fh.read())


def _load_policy(spec: Optional[str]) -> Policy:
    """Accept a file path or an inline JSON object; default is FCFM."""
    if spec is None:
        return policies.Fcfm()
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return policies.policy_loads(fh.read())
    stripped = spec.strip()
    if stripped.startswith("{"):
        return policies.policy_loads(stripped)
    if stripped in ("fcfm", "lcfm", "ml", "ms", "random"):
        return policies.policy_from_json_dict(
            {"kind": "random" if stripped == "random" else stripped}
        )
    raise InputError(f"policy {spec!r} is neither a file, inline JSON, nor a known name")


def _fmt_word(w: Word) -> str:
    return " ".join(w)


def _fmt_value(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json_safe(x):
    """Keep summaries strict-JSON: infinities become strings."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


class Artifacts:
    """Collects the artifacts of one command and writes them out once."""

    def __init__(self, out_dir: Optional[str], command: str):
        self.out_dir = out_dir
        self.command = command
        self.files: dict[str, str] = {}

    def add_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_value(x) for x in row])
        self.files[name + ".csv"] = buf.getvalue()

    def finish(self, summary: dict) -> None:
        text = json.dumps(summary, indent=2, sort_keys=True, default=_fmt_value)
        self.files[self.command + ".json"] = text + "\n"
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            for name, content in self.files.items():
                with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
                    fh.write(content)
        print(text)


# -- commands --------------------------------------------------------------


def cmd_info(args) -> int:
    g = _load_graph(args.graph)
    art = Artifacts(args.out, "info")
    bip, parts = g.is_bipartite()
    decomposition = g.complete_multipartite_decomposition()
    bmap = g.minimal_blowup()
    art.finish(
        {
            "nodes": list(g.nodes),
            "edge_count": len(g.edges),
            "ordered_edge_count": g.ordered_edge_count,
            "self_loops": sorted(g.self_loops),
            "degrees": {i: g.degree(i) for i in g.nodes},
            "bipartite": bip,
            "bipartition": [sorted(s) for s in parts] if parts else None,
            "multipartite_parts": (
                [sorted(p) for p in decomposition] if decomposition else None
            ),
            "blowup_copies": dict(sorted(bmap.copy_of.items())),
            "independent_set_count": sum(1 for _ in g.independent_sets()),
        }
    )
    return EXIT_OK


def cmd_ncond(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    report = measures.ncond_check(g, mu)
    bip, _ = g.is_bipartite()
    art = Artifacts(args.out, "ncond")
    art.finish(
        {
            "satisfied": report.satisfied,
            "margin": _json_safe(report.margin),
            "witness": sorted(report.witness) if report.witness else None,
            "region_empty": bip,
        }
    )
    return EXIT_OK


def cmd_mudeg(args) -> int:
    g = _load_graph(args.graph)
    mu = measures.mu_deg(g)
    report = measures.ncond_check(g, mu)
    art = Artifacts(args.out, "mudeg")
    art.files["mudeg_measure.json"] = mu.dumps()
    art.finish(
        {
            "measure": mu.to_json_dict(),
            "satisfied": report.satisfied,
            "margin": _json_safe(report.margin),
        }
    )
    return EXIT_OK


def cmd_stationary_fcfm(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    dist = stationary.product_form(g, mu)
    states = chain.enumerate_states(g, args.max_len)
    rows = [(_fmt_word(w), dist.pi(w)) for w in states]
    inside = sum((p for _, p in rows), Fraction(0))
    art = Artifacts(args.out, "stationary-fcfm")
    art.add_csv("stationary_fcfm", ["word", "probability"], rows)
    art.finish(
        {
            "alpha": dist.alpha,
            "max_len": args.max_len,
            "states": len(states),
            "truncated_mass": inside,
            "tail_mass": 1 - inside,
        }
    )
    return EXIT_OK


def cmd_verify_balance(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    rows: list = []
    residual, worst = stationary.balance_residual(
        g, mu, args.max_len, report=lambda w, r: rows.append((_fmt_word(w), r))
    )
    ok = residual <= args.tol
    art = Artifacts(args.out, "verify-balance")
    art.add_csv("balance_residuals", ["word", "residual"], rows)
    art.finish(
        {
            "max_residual": residual,
            "argmax_word": _fmt_word(worst) if worst is not None else None,
            "max_len": args.max_len,
            "tol": args.tol,
            "verified": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _replica_runs(g, mu, policy, args, word_cap: int) -> list:
    """One simulation per replica; replica ``k`` runs with seed ``seed + k``."""
    if args.replicas < 1:
        raise InputError("--replicas must be at least 1")
    return [
        chain.simulate(
            g,
            mu,
            policy,
            steps=args.steps,
            burn_in=args.burn_in,
            seed=args.seed + k,
            word_cap=word_cap,
        )
        for k in range(args.replicas)
    ]


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    policy = _load_policy(args.policy)
    policies.validate_policy(policy, g)
    results = _replica_runs(g, mu, policy, args, args.word_cap)
    counts: dict[Word, int] = {}
    for res in results:
        for w, c in res.counts.items():
            counts[w] = counts.get(w, 0) + c
    recorded = sum(r.recorded_steps for r in results)
    rows = [
        (_fmt_word(w), c, c / recorded)
        for w, c in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    art = Artifacts(args.out, "simulate")
    art.add_csv("simulate", ["word", "visit_count", "frequency"], rows)
    art.finish(
        {
            "seed": args.seed,
            "replicas": args.replicas,
            "steps": args.steps,
            "burn_in": results[0].burn_in,
            "recorded_steps": recorded,
            "mean_queue_len": sum(r.mean_queue_len for r in results) / len(results),
            "max_queue_len": max(r.max_queue_len for r in results),
            "tail_slope": sum(r.tail_slope for r in results) / len(results),
            "overflow_steps": sum(r.overflow_steps for r in results),
            "word_cap": args.word_cap,
        }
    )
    return EXIT_OK


def cmd_tv_compare(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    policy = _load_policy(args.policy)
    policies.validate_policy(policy, g)
    dist = stationary.product_form(g, mu)
    states = chain.enumerate_states(g, args.max_len)
    pi = {w: dist.pi(w) for w in states}
    exact_tail = 1 - float(sum(pi.values(), Fraction(0)))
    tvs = []
    freq_cols = []
    for res in _replica_runs(g, mu, policy, args, args.max_len):
        freqs = {w: res.frequency(w) for w in states}
        emp_tail = res.overflow_steps / res.recorded_steps
        tv = 0.5 * (
            sum(abs(freqs[w] - float(pi[w])) for w in states)
            + abs(emp_tail - exact_tail)
        )
        tvs.append(tv)
        freq_cols.append(freqs)
    rows = [
        tuple([_fmt_word(w), pi[w]] + [col[w] for col in freq_cols])
        for w in states
    ]
    ok = all(tv <= args.tol for tv in tvs)
    art = Artifacts(args.out, "tv-compare")
    art.add_csv(
        "tv_compare",
        ["word", "probability"] + [f"frequency_seed{args.seed + k}" for k in range(args.replicas)],
        rows,
    )
    art.finish(
        {
            "alpha": dist.alpha,
            "max_len": args.max_len,
            "exact_tail_mass": exact_tail,
            "tv_per_replica": tvs,
            "tol": args.tol,
            "verified": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_reversibility(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    report = detailed.verify_local_balance_empirical(
        g, mu, steps=args.steps, seed=args.seed, min_visits=args.min_visits
    )
    if not report.pairs_tested:
        raise InputError(
            f"no transition was visited --min-visits {args.min_visits} times on both "
            f"sides in --steps {args.steps}; raise --steps or lower --min-visits"
        )
    ok = report.max_z <= 3.0
    art = Artifacts(args.out, "reversibility")
    art.finish(
        {
            "steps": report.steps,
            "seed": report.seed,
            "min_visits": report.min_visits,
            "pairs_tested": report.pairs_tested,
            "max_normalized_discrepancy": report.max_z,
            "fraction_within_2se": report.fraction_within(2.0),
            "fraction_within_3se": report.fraction_within(3.0),
            "undetermined_forward_count": report.undetermined_forward,
            "verified": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_excursions(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    report = detailed.analyze_excursions(g, mu, steps=args.steps, seed=args.seed)
    art = Artifacts(args.out, "excursions")
    art.add_csv(
        "excursion_lengths",
        ["length", "count"],
        sorted(report.length_histogram.items()),
    )
    total = report.total_letters
    rows = []
    for c in g.nodes:
        cnt = report.matched_class_counts[c]
        freq = cnt / total
        m = float(mu[c])
        sigma = (m * (1 - m) / total) ** 0.5
        rows.append((c, cnt, freq, m, abs(freq - m) / sigma if sigma else 0.0))
    art.add_csv(
        "matched_letters",
        ["class", "count", "frequency", "arrival_probability", "deviation_sigmas"],
        rows,
    )
    ok = report.all_permutation_valid and report.all_roundtrip_valid
    art.finish(
        {
            "steps": args.steps,
            "seed": args.seed,
            "excursions": report.n_excursions,
            "total_letters": report.total_letters,
            "permutation_valid": report.permutation_valid,
            "roundtrip_valid": report.roundtrip_valid,
            "verified": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _lyapunov_from_name(name: str, g, mu, delta):
    """The Lyapunov function, the delta it was built with (Ldelta only), and
    the NCOND report that delta was read from, if any."""
    if name != "Ldelta":
        if delta is not None:
            raise InputError(f"--delta sets the margin of Ldelta; --fn {name} takes none")
        return {"Q": drift.Quadratic, "L": drift.Linear}[name](), None, None
    if delta is not None:
        delta = measures._to_weight(delta)
        return drift.ldelta(g, mu, delta), delta, None
    report = measures.ncond_check(g, mu)
    if not report.satisfied:
        raise InputError("Ldelta needs a stability margin; measure is outside the region")
    return drift.ldelta(g, mu, report.margin), report.margin, report


def cmd_drift(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    policy = _load_policy(args.policy)
    policies.validate_policy(policy, g)
    fn, delta, report = _lyapunov_from_name(args.fn, g, mu, args.delta)
    states = chain.enumerate_states(g, args.max_len)
    rows = []
    for w in states:
        residuals = drift._residuals(g, mu, policy, w, None)  # first: exact_drift reuses its pass
        rows.append((_fmt_word(w), drift.exact_drift(g, mu, policy, w, fn).drift, *residuals))
    worst = max(max(row[2:]) for row in rows)
    ok = worst <= args.tol
    art = Artifacts(args.out, "drift")
    header = ["word", "drift", "residual_quadratic", "residual_linear_left", "residual_linear_right"]
    art.add_csv("drift", header, rows)
    summary = {
        "function": args.fn,
        "max_len": args.max_len,
        "states": len(states),
        "max_identity_residual": worst,
        "tol": args.tol,
        "verified": ok,
    }
    if args.fn == "Ldelta" and g.complete_multipartite_decomposition() is not None:
        try:
            rep = drift._ppartite_bound(g, mu, policy, args.max_len, delta, args.tol, report)
            ok = ok and rep.ok
            summary.update(ldelta_bound_holds=rep.ok, delta=rep.delta, verified=ok)
        except drift.DriftError:
            pass
    art.finish(summary)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def cmd_transform(args) -> int:
    g = _load_graph(args.graph)
    art = Artifacts(args.out, "transform")
    summary: dict = {}
    if args.check:
        check = g.maximal_subgraph()
        art.files["maximal_subgraph.json"] = check.dumps()
        summary["maximal_subgraph"] = check.to_json_dict()
    if args.blowup:
        bmap = g.minimal_blowup()
        art.files["blowup.json"] = bmap.blown.dumps()
        summary["blowup"] = bmap.blown.to_json_dict()
        summary["copy_map"] = dict(sorted(bmap.copy_of.items()))
    if not args.check and not args.blowup:
        raise InputError("transform needs --check and/or --blowup")
    art.finish(summary)
    return EXIT_OK


def cmd_extend_measure(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    bmap = g.minimal_blowup()
    split = None
    if args.split:
        raw = json.loads(args.split)
        if not isinstance(raw, dict):
            raise InputError("--split must be a JSON object {class: share}")
        split = {k: measures._to_weight(v) for k, v in raw.items()}
    extended = measures.extend_measure(mu, bmap, split)
    art = Artifacts(args.out, "extend-measure")
    art.files["extended_measure.json"] = extended.dumps()
    art.finish(
        {
            "measure": extended.to_json_dict(),
            "copy_map": dict(sorted(bmap.copy_of.items())),
        }
    )
    return EXIT_OK


def cmd_verify_identities(args) -> int:
    g = _load_graph(args.graph)
    mu = _load_measure(args.mu)
    battery: dict[str, Policy] = {
        "fcfm": policies.Fcfm(),
        "lcfm": policies.Lcfm(),
        "uniform": policies.RandomPolicy(),
        "priority": policies.Priority.from_lists(
            {v: sorted(g.adjacency[v]) for v in g.nodes}
        ),
        "match_longest": policies.match_the_longest(),
        "match_shortest": policies.match_the_shortest(),
    }
    states = chain.enumerate_states(g, args.max_len)
    per_policy = {
        name: max(max(drift._residuals(g, mu, pol, w, None)) for w in states)
        for name, pol in battery.items()
    }
    worst = max(per_policy.values())
    ok = worst <= args.tol
    art = Artifacts(args.out, "verify-identities")
    art.finish(
        {
            "max_len": args.max_len,
            "states": len(states),
            "max_residual_per_policy": per_policy,
            "max_residual": worst,
            "tol": args.tol,
            "verified": ok,
        }
    )
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


# -- parser -----------------------------------------------------------------


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number >= 0 (NaN would fail every check)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "graph" in names:
        p.add_argument("--graph", required=True, help="graph JSON file")
    if "mu" in names:
        p.add_argument("--mu", required=True, help="measure JSON file")
    if "policy" in names:
        p.add_argument("--policy", help="policy JSON file, inline JSON, or name (default fcfm)")
    if "steps" in names:
        p.add_argument("--steps", type=int, default=100000)
    if "burn_in" in names:
        p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)
    if "max_len" in names:
        p.add_argument("--max-len", dest="max_len", type=int, default=4)
    if "tol" in names:
        p.add_argument("--tol", type=_tolerance, default=1e-12)
    if "replicas" in names:
        p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--out", help="directory for artifact files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimatch",
        description="Stochastic matching models on multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph structure report")
    _add_common(p, "graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ncond", help="stability-condition check")
    _add_common(p, "graph", "mu")
    p.set_defaults(func=cmd_ncond)

    p = sub.add_parser("mudeg", help="degree-proportional measure")
    _add_common(p, "graph")
    p.set_defaults(func=cmd_mudeg)

    p = sub.add_parser("stationary-fcfm", help="exact product-form table")
    _add_common(p, "graph", "mu", "max_len")
    p.set_defaults(func=cmd_stationary_fcfm)

    p = sub.add_parser("verify-balance", help="exact global-balance residual")
    _add_common(p, "graph", "mu", "max_len", "tol")
    p.set_defaults(func=cmd_verify_balance)

    p = sub.add_parser("simulate", help="Monte-Carlo run with visit counts")
    _add_common(p, "graph", "mu", "policy", "steps", "burn_in", "seed", "replicas")
    p.add_argument("--word-cap", dest="word_cap", type=int, default=16)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tv-compare", help="simulation vs product form in total variation")
    _add_common(p, "graph", "mu", "policy", "steps", "burn_in", "seed", "max_len", "tol", "replicas")
    p.set_defaults(func=cmd_tv_compare, tol=0.02)

    p = sub.add_parser("reversibility", help="empirical local-balance check")
    _add_common(p, "graph", "mu", "steps", "seed")
    p.add_argument("--min-visits", dest="min_visits", type=int, default=500)
    p.set_defaults(func=cmd_reversibility)

    p = sub.add_parser("excursions", help="buffer-emptying segments and matched letters")
    _add_common(p, "graph", "mu", "steps", "seed")
    p.set_defaults(func=cmd_excursions)

    p = sub.add_parser("drift", help="exact Lyapunov drifts and identity residuals")
    _add_common(p, "graph", "mu", "policy", "max_len", "tol")
    p.add_argument("--fn", choices=["Q", "L", "Ldelta"], default="Q")
    p.add_argument("--delta", help="margin for Ldelta (default: computed)")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("transform", help="emit derived graphs")
    _add_common(p, "graph")
    p.add_argument("--check", action="store_true", help="maximal (loop-free) subgraph")
    p.add_argument("--blowup", action="store_true", help="minimal blow-up graph")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("extend-measure", help="measure on the blow-up graph")
    _add_common(p, "graph", "mu")
    p.add_argument("--split", help='JSON share kept by each looped class, e.g. {"3":"0.6"}')
    p.set_defaults(func=cmd_extend_measure)

    p = sub.add_parser("verify-identities", help="all drift identities over a policy battery")
    _add_common(p, "graph", "mu", "max_len", "tol")
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
