"""Command-line front end for reproducible matching-model experiments.

Inputs are JSON files (graph, measure, policy); outputs are CSV tables and a
JSON summary, printed to stdout and optionally written under ``--out``.
Output files carry no timestamps, so identical configurations produce
byte-identical artifacts.

Every command is a function from its parsed options, its ``Artifacts`` and
its loaded inputs (graph, measure, policy) to a JSON summary; :func:`main`
loads the inputs, writes the artifacts and picks the exit code, the same way
for every command.  Exit codes: 0 success, 1 exactly when the summary's
``verified`` is false, 2 input error, 3 internal error (an unexpected
exception; its traceback goes to stderr).  The exact commands never load
numpy: only the simulating ones (``simulate``, ``tv-compare``,
``reversibility``, ``excursions``) do.

Each command is declared once, in the table :func:`build_parser` reads: its
function, its help, the shared options it takes, its own options and its
parser defaults.  :func:`main` gives only the named command its options.
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


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _parse(loads, text: str, what: str):
    """``loads(text)`` for one input document; a document nested too deeply to
    parse is bad input (a RecursionError anywhere else is still a crash)."""
    try:
        return loads(text)
    except RecursionError:
        raise InputError(f"{what} is nested too deeply to parse") from None


def _load_policy(spec: Optional[str]) -> Policy:
    """Accept a file path or an inline JSON object; default is FCFM."""
    if spec is None:
        return policies.Fcfm()
    if os.path.exists(spec):
        return _parse(policies.policy_loads, _read(spec), spec)
    stripped = spec.strip()
    if stripped.startswith("{"):
        return _parse(policies.policy_loads, stripped, "the inline --policy")
    if stripped in ("fcfm", "lcfm", "ml", "ms", "random"):
        return policies.policy_from_json_dict({"kind": stripped})
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


def cmd_info(args, art: Artifacts, g: Multigraph) -> dict:
    bip, parts = g.is_bipartite()
    decomposition = g.complete_multipartite_decomposition()
    bmap = g.minimal_blowup()
    return {
        "nodes": list(g.nodes),
        "edge_count": len(g.edges),
        "ordered_edge_count": g.ordered_edge_count,
        "self_loops": sorted(g.self_loops),
        "degrees": {i: g.degree(i) for i in g.nodes},
        "bipartite": bip,
        "bipartition": [sorted(s) for s in parts] if parts else None,
        "multipartite_parts": [sorted(p) for p in decomposition] if decomposition else None,
        "blowup_copies": dict(sorted(bmap.copy_of.items())),
        "independent_set_count": sum(1 for _ in g.independent_sets()),
    }


def cmd_ncond(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    report = measures.ncond_check(g, mu)
    bip, _ = g.is_bipartite()
    return {
        "satisfied": report.satisfied,
        "margin": _json_safe(report.margin),
        "witness": sorted(report.witness) if report.witness else None,
        "region_empty": bip,
    }


def cmd_mudeg(args, art: Artifacts, g: Multigraph) -> dict:
    mu = measures.mu_deg(g)
    report = measures.ncond_check(g, mu)
    art.files["mudeg_measure.json"] = mu.dumps()
    return {
        "measure": mu.to_json_dict(),
        "satisfied": report.satisfied,
        "margin": _json_safe(report.margin),
    }


def cmd_stationary_fcfm(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    dist = stationary.product_form(g, mu)
    pi = dist.table(args.max_len)
    rows = [(_fmt_word(w), p) for w, p in pi.items()]
    inside = sum(pi.values(), Fraction(0))
    art.add_csv("stationary_fcfm", ["word", "probability"], rows)
    return {
        "alpha": dist.alpha,
        "max_len": args.max_len,
        "states": len(pi),
        "truncated_mass": inside,
        "tail_mass": 1 - inside,
    }


def cmd_verify_balance(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    rows: list = []
    residual, worst = stationary.balance_residual(
        g, mu, args.max_len, report=lambda w, r: rows.append((_fmt_word(w), r))
    )
    art.add_csv("balance_residuals", ["word", "residual"], rows)
    return {
        "max_residual": residual,
        "argmax_word": _fmt_word(worst) if worst is not None else None,
        "max_len": args.max_len,
        "tol": args.tol,
        "verified": residual <= args.tol,
    }


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


def cmd_simulate(args, art: Artifacts, g: Multigraph, mu: ProbMeasure, policy: Policy) -> dict:
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
    art.add_csv("simulate", ["word", "visit_count", "frequency"], rows)
    return {
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


def cmd_tv_compare(args, art: Artifacts, g: Multigraph, mu: ProbMeasure, policy: Policy) -> dict:
    if not isinstance(policy, policies.Fcfm):
        raise InputError("tv-compare compares with the FCFM product form, the stationary law "
                         "of --policy fcfm only")
    dist = stationary.product_form(g, mu)
    pi = dist.table(args.max_len)
    exact_tail = 1 - float(sum(pi.values(), Fraction(0)))
    tvs = []
    freq_cols = []
    for res in _replica_runs(g, mu, policy, args, args.max_len):
        freqs = {w: res.frequency(w) for w in pi}
        emp_tail = res.overflow_steps / res.recorded_steps
        tv = 0.5 * (
            sum(abs(freqs[w] - float(pi[w])) for w in pi)
            + abs(emp_tail - exact_tail)
        )
        tvs.append(tv)
        freq_cols.append(freqs)
    rows = [
        tuple([_fmt_word(w), pi[w]] + [col[w] for col in freq_cols])
        for w in pi
    ]
    art.add_csv(
        "tv_compare",
        ["word", "probability"] + [f"frequency_seed{args.seed + k}" for k in range(args.replicas)],
        rows,
    )
    return {
        "alpha": dist.alpha,
        "max_len": args.max_len,
        "exact_tail_mass": exact_tail,
        "tv_per_replica": tvs,
        "tol": args.tol,
        "verified": all(tv <= args.tol for tv in tvs),
    }


def cmd_reversibility(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    report = detailed.verify_local_balance_empirical(
        g, mu, steps=args.steps, seed=args.seed, min_visits=args.min_visits
    )
    if not report.pairs_tested:
        raise InputError(
            f"no transition was visited --min-visits {args.min_visits} times on both "
            f"sides in --steps {args.steps}; raise --steps or lower --min-visits"
        )
    return {
        "steps": report.steps,
        "seed": report.seed,
        "min_visits": report.min_visits,
        "pairs_tested": report.pairs_tested,
        "max_normalized_discrepancy": report.max_z,
        "fraction_within_2se": report.fraction_within(2.0),
        "fraction_within_3se": report.fraction_within(3.0),
        "undetermined_forward_count": report.undetermined_forward,
        "verified": report.max_z <= 3.0,
    }


def cmd_excursions(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    report = detailed.analyze_excursions(g, mu, steps=args.steps, seed=args.seed)
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
    return {
        "steps": args.steps,
        "seed": args.seed,
        "excursions": report.n_excursions,
        "total_letters": report.total_letters,
        "permutation_valid": report.permutation_valid,
        "roundtrip_valid": report.roundtrip_valid,
        "verified": report.all_permutation_valid and report.all_roundtrip_valid,
    }


def _lyapunov_from_name(name: str, g, mu, delta):
    """The Lyapunov function, the delta it was built with (Ldelta only), and
    the NCOND report that delta was read from, if any."""
    if name != "Ldelta":
        if delta is not None:
            raise InputError(f"--delta sets the margin of Ldelta; --fn {name} takes none")
        return {"Q": drift.Quadratic, "L": drift.Linear}[name](), None, None
    if delta is not None:
        delta = measures.to_weight(delta)
        return drift.ldelta(g, mu, delta), delta, None
    report = measures.ncond_check(g, mu)
    if not report.satisfied:
        raise InputError("Ldelta needs a stability margin; measure is outside the region")
    if report.margin == math.inf:
        raise InputError("the stability margin is infinite, as every independent set meets a "
                         "looped class; give Ldelta a finite --delta")
    return drift.ldelta(g, mu, report.margin), report.margin, report


def cmd_drift(args, art: Artifacts, g: Multigraph, mu: ProbMeasure, policy: Policy) -> dict:
    fn, delta, report = _lyapunov_from_name(args.fn, g, mu, args.delta)
    states = chain.enumerate_states(g, args.max_len)
    rows, drifts = [], {}
    for w in states:
        # the identity checks first: exact_drift reuses their law pass
        residuals = (drift.verify_quadratic_identity(g, mu, policy, w),
                     *drift.verify_linear_chain(g, mu, policy, w))
        drifts[w] = drift.exact_drift(g, mu, policy, w, fn).drift
        rows.append((_fmt_word(w), drifts[w], *residuals))
    worst = max(max(row[2:]) for row in rows)
    header = ["word", "drift", "residual_quadratic", "residual_linear_left", "residual_linear_right"]
    art.add_csv("drift", header, rows)
    summary = {
        "function": args.fn,
        "max_len": args.max_len,
        "states": len(states),
        "max_identity_residual": worst,
        "tol": args.tol,
        "verified": worst <= args.tol,
    }
    if args.fn == "Ldelta" and g.complete_multipartite_decomposition() is not None:
        try:
            rep = drift.verify_ppartite_bound(g, mu, policy, args.max_len, delta, args.tol,
                                              report=report, drifts=drifts)
            summary.update(ldelta_bound_holds=rep.ok, delta=rep.delta,
                           verified=summary["verified"] and rep.ok)
        except drift.DriftError:
            pass
    return summary


def cmd_transform(args, art: Artifacts, g: Multigraph) -> dict:
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
    return summary


def cmd_extend_measure(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
    bmap = g.minimal_blowup()
    split = None
    if args.split:
        raw = _parse(json.loads, args.split, "--split")
        if not isinstance(raw, dict):
            raise InputError("--split must be a JSON object {class: share}")
        split = {k: measures.to_weight(v) for k, v in raw.items()}
    extended = measures.extend_measure(mu, bmap, split)
    art.files["extended_measure.json"] = extended.dumps()
    return {
        "measure": extended.to_json_dict(),
        "copy_map": dict(sorted(bmap.copy_of.items())),
    }


def cmd_verify_identities(args, art: Artifacts, g: Multigraph, mu: ProbMeasure) -> dict:
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
        name: max(max(drift.verify_quadratic_identity(g, mu, pol, w),
                      *drift.verify_linear_chain(g, mu, pol, w)) for w in states)
        for name, pol in battery.items()
    }
    worst = max(per_policy.values())
    return {
        "max_len": args.max_len,
        "states": len(states),
        "max_residual_per_policy": per_policy,
        "max_residual": worst,
        "tol": args.tol,
        "verified": worst <= args.tol,
    }


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


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per declaration in ``commands``.  Built per call, so it
    takes the command functions the module holds at that moment."""
    return _build_parser()


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`.  Given ``only``, every other
    command is added by name and help alone, without its options: the
    top-level usage, help and errors are unchanged, and a run of ``only``
    parses as with the full parser."""
    shared = {  # in the order every command lists them, followed by --out
        "graph": dict(required=True, help="graph JSON file"),
        "mu": dict(required=True, help="measure JSON file"),
        "policy": dict(help="policy JSON file, inline JSON, or name (default fcfm)"),
        "steps": dict(type=int, default=100000),
        "burn_in": dict(type=int, default=None),
        "seed": dict(type=int, default=0),
        "max_len": dict(type=int, default=4),
        "tol": dict(type=_tolerance, default=1e-12),
        "replicas": dict(type=int, default=1),
    }
    # name, function, help, shared options, own options[, parser defaults]
    commands = [
        ("info", cmd_info, "graph structure report", "graph", {}),
        ("ncond", cmd_ncond, "stability-condition check", "graph mu", {}),
        ("mudeg", cmd_mudeg, "degree-proportional measure", "graph", {}),
        ("stationary-fcfm", cmd_stationary_fcfm, "exact product-form table",
         "graph mu max_len", {}),
        ("verify-balance", cmd_verify_balance, "exact global-balance residual",
         "graph mu max_len tol", {}),
        ("simulate", cmd_simulate, "Monte-Carlo run with visit counts",
         "graph mu policy steps burn_in seed replicas", {"word_cap": dict(type=int, default=16)}),
        ("tv-compare", cmd_tv_compare, "simulation vs product form in total variation",
         "graph mu policy steps burn_in seed max_len tol replicas", {}, {"tol": 0.02}),
        ("reversibility", cmd_reversibility, "empirical local-balance check",
         "graph mu steps seed", {"min_visits": dict(type=int, default=500)}),
        ("excursions", cmd_excursions, "buffer-emptying segments and matched letters",
         "graph mu steps seed", {}),
        ("drift", cmd_drift, "exact Lyapunov drifts and identity residuals",
         "graph mu policy max_len tol",
         {"fn": dict(choices=["Q", "L", "Ldelta"], default="Q"),
          "delta": dict(help="margin for Ldelta (default: computed)")}),
        ("transform", cmd_transform, "emit derived graphs", "graph",
         {"check": dict(action="store_true", help="maximal (loop-free) subgraph"),
          "blowup": dict(action="store_true", help="minimal blow-up graph")}),
        ("extend-measure", cmd_extend_measure, "measure on the blow-up graph", "graph mu",
         {"split": dict(help='JSON share kept by each looped class, e.g. {"3":"0.6"}')}),
        ("verify-identities", cmd_verify_identities, "all drift identities over a policy battery",
         "graph mu max_len tol", {}),
    ]
    parser = argparse.ArgumentParser(
        prog="multimatch",
        description="Stochastic matching models on multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, takes, own, *defaults in commands:
        p = sub.add_parser(name, help=help_text)
        if only is not None and name != only:
            continue
        options = [(o, kwargs) for o, kwargs in shared.items() if o in takes.split()]
        options += [("out", dict(help="directory for artifact files")), *own.items()]
        for dest, kwargs in options:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kwargs)
        p.set_defaults(func=func, **dict(*defaults))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: load its graph, measure and policy, hand it its
    ``Artifacts``, write them once, and read the exit code off its summary."""
    tokens = sys.argv[1:] if argv is None else argv
    # the command is the first token that is not an option: the top level
    # takes no option with a value, and no command name starts with "-"
    command = next((a for a in tokens if not a.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    try:
        g = _parse(Multigraph.loads, _read(args.graph), args.graph)
        inputs = {"g": g}
        if "mu" in args:
            inputs["mu"] = _parse(ProbMeasure.loads, _read(args.mu), args.mu)
        if "policy" in args:
            inputs["policy"] = _load_policy(args.policy)
            policies.validate_policy(inputs["policy"], g)
        art = Artifacts(args.out, args.command)
        summary = args.func(args, art, **inputs)
        art.finish(summary)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR
    return EXIT_OK if summary.get("verified", True) else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
