"""The package's public surface, pinned.

A public name is one that a module defines (a function, a class or an
assignment) without a leading underscore.  A class also lists its public
methods and properties, as ``Class.member``.  The pin records each name with
its ``inspect.signature`` string, or None for a name that is neither a
function nor a class, or that has no signature.  Renaming, deleting or
re-signing a public name is therefore a visible edit to the pin, and so is a
change to what ``multimatch`` itself exports.  The modules also keep their
underscore names to themselves: the last test scans the package's source for
one module's use of another's private names.
"""

import ast
import importlib
import inspect
import types
from functools import cached_property
from pathlib import Path

import multimatch

MODULES = ("graphs", "measures", "policies", "chain", "stationary", "detailed", "drift", "cli")


def signature(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # exception classes have none
        return None


def public_surface(module) -> dict:
    """{name: signature}, in the order the module defines its names."""
    surface = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_"):
                continue
            if isinstance(node, ast.Assign | ast.AnnAssign):  # a constant or a type alias
                surface[name] = None
                continue
            obj = getattr(module, name)
            surface[name] = signature(obj)
            if isinstance(node, ast.ClassDef):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, property | cached_property):
                        surface[f"{name}.{attr}"] = "property"
                    elif isinstance(member, types.FunctionType | staticmethod | classmethod):
                        surface[f"{name}.{attr}"] = signature(getattr(obj, attr))
    return surface


def exported_names() -> list[str]:
    """The names ``import multimatch`` binds, apart from its submodules."""
    return sorted(n for n, v in vars(multimatch).items()
                  if not n.startswith("_") and not isinstance(v, types.ModuleType))


# an edit here is a change to the package's contract
PINNED_SURFACE = {
    "graphs": {
        "Node": None,
        "Edge": None,
        "GraphError": None,
        "Multigraph": (
            "(nodes: 'tuple[Node, ...]', edges: 'tuple[Edge, ...]', "
            "self_loops: 'frozenset[Node]' = <factory>) -> None"
        ),
        "Multigraph.build": (
            "(nodes: 'Iterable[Node]', edges: 'Iterable[Sequence[Node]]', "
            'self_loops: \'Iterable[Node]\' = ()) -> "\'Multigraph\'"'
        ),
        "Multigraph.adjacency": 'property',
        "Multigraph.sorted_adjacency": 'property',
        "Multigraph.v1": 'property',
        "Multigraph.v2": 'property',
        "Multigraph.check_node": "(self, i: 'Node') -> 'None'",
        "Multigraph.neighborhood": "(self, nodes: 'Iterable[Node]') -> 'frozenset[Node]'",
        "Multigraph.degree": "(self, i: 'Node') -> 'int'",
        "Multigraph.ordered_edge_count": 'property',
        "Multigraph.is_bipartite": (
            "(self) -> 'tuple[bool, Optional[tuple[frozenset[Node], frozenset[Node]]]]'"
        ),
        "Multigraph.independent_masks": (
            "(self, loop_free: 'bool' = False) -> 'Iterator[tuple[int, int]]'"
        ),
        "Multigraph.independent_sets": "(self) -> 'Iterator[frozenset[Node]]'",
        "Multigraph.maximal_subgraph": '(self) -> "\'Multigraph\'"',
        "Multigraph.minimal_blowup": '(self) -> "\'BlowupMap\'"',
        "Multigraph.complete_multipartite_decomposition": (
            "(self) -> 'Optional[tuple[frozenset[Node], ...]]'"
        ),
        "Multigraph.to_json_dict": "(self) -> 'dict'",
        "Multigraph.dumps": "(self) -> 'str'",
        "Multigraph.from_json_dict": '(data: \'dict\') -> "\'Multigraph\'"',
        "Multigraph.loads": '(text: \'str\') -> "\'Multigraph\'"',
        "BlowupMap": (
            "(original: 'Multigraph', blown: 'Multigraph', copy_of: 'dict[Node, Node]') -> None"
        ),
        "BlowupMap.base_of": 'property',
        "BlowupMap.base": "(self, node: 'Node') -> 'Node'",
        "BlowupMap.copies": "(self, nodes: 'Iterable[Node]') -> 'frozenset[Node]'",
    },
    "measures": {
        "Weight": None,
        "SUM_TOL": None,
        "MeasureError": None,
        "to_weight": "(v) -> 'Weight'",
        "cumulative": "(weights: 'Iterable[Weight]') -> 'list[float]'",
        "ProbMeasure": "(weights: 'Mapping[Node, Weight]') -> None",
        "ProbMeasure.from_dict": '(raw: \'Mapping[Node, object]\') -> "\'ProbMeasure\'"',
        "ProbMeasure.uniform": '(g: \'Multigraph\') -> "\'ProbMeasure\'"',
        "ProbMeasure.validate": "(self) -> 'None'",
        "ProbMeasure.is_exact": 'property',
        "ProbMeasure.support": 'property',
        "ProbMeasure.mass": "(self, nodes: 'Iterable[Node]') -> 'Weight'",
        "ProbMeasure.check_support": "(self, g: 'Multigraph') -> 'None'",
        "ProbMeasure.to_json_dict": "(self) -> 'dict'",
        "ProbMeasure.dumps": "(self) -> 'str'",
        "ProbMeasure.loads": '(text: \'str\') -> "\'ProbMeasure\'"',
        "NcondReport": (
            "(satisfied: 'bool', margin: 'Weight', "
            "witness: 'Optional[frozenset[Node]]') -> None"
        ),
        "ncond_check": "(g: 'Multigraph', mu: 'ProbMeasure') -> 'NcondReport'",
        "subset_table": (
            "(g: 'Multigraph', mu: 'ProbMeasure') -> 'tuple[NcondReport, list[Weight], "
            "dict[int, Weight]]'"
        ),
        "mu_deg": "(g: 'Multigraph') -> 'ProbMeasure'",
        "extend_measure": (
            "(mu: 'ProbMeasure', bmap: 'BlowupMap', split: 'Optional[Mapping[Node, "
            "Weight]]' = None) -> 'ProbMeasure'"
        ),
        "reduce_measure": "(mu_hat: 'ProbMeasure', bmap: 'BlowupMap') -> 'ProbMeasure'",
    },
    "policies": {
        "Word": None,
        "PolicyError": None,
        "Fcfm": '() -> None',
        "Lcfm": '() -> None',
        "RandomPolicy": (
            "(perms: 'Optional[Mapping[Node, tuple[tuple[tuple[Node, ...], Weight], "
            "...]]]' = None) -> None"
        ),
        "Group": None,
        "Priority": "(order: 'Mapping[Node, tuple[Group, ...]]') -> None",
        "Priority.from_lists": '(order: \'Mapping[Node, Sequence[object]]\') -> "\'Priority\'"',
        "MaxWeight": (
            "(beta: 'Weight', rewards: 'Mapping[tuple[Node, Node], "
            "Weight]' = <factory>) -> None"
        ),
        "MaxWeight.reward": "(self, v: 'Node', j: 'Node') -> 'Weight'",
        "V2Favorable": (
            '(inner: "\'Policy\'", favored: \'Optional[frozenset[Node]]\' = None) -> None'
        ),
        "V2Favorable.resolve_favored": "(self, g: 'Multigraph') -> 'frozenset[Node]'",
        "Policy": None,
        "is_class_admissible": "(policy: 'Policy') -> 'bool'",
        "is_draw_free": "(policy: 'Policy') -> 'bool'",
        "match_the_longest": "(beta: 'Weight' = 1) -> 'MaxWeight'",
        "match_the_shortest": "(beta: 'Weight' = -1) -> 'MaxWeight'",
        "validate_policy": "(policy: 'Policy', g: 'Multigraph') -> 'None'",
        "word_counts": "(w: 'Word') -> 'dict[Node, int]'",
        "sample": "(spec, rng: 'random.Random') -> 'int'",
        "class_rule": "(policy: 'Policy')",
        "transition": "(g: 'Multigraph', policy: 'Policy', w: 'Word', v: 'Node')",
        "decision_distribution": (
            "(g: 'Multigraph', policy: 'Policy', w: 'Word', v: 'Node') -> 'dict[Optional[int], "
            "Weight]'"
        ),
        "decide": (
            "(g: 'Multigraph', policy: 'Policy', w: 'Word', v: 'Node', "
            "rng: 'random.Random') -> 'Optional[int]'"
        ),
        "extend_policy": "(policy: 'Policy', bmap: 'BlowupMap') -> 'Policy'",
        "reduce_policy": "(policy: 'Policy', g: 'Multigraph') -> 'Policy'",
        "policy_to_json_dict": "(policy: 'Policy') -> 'dict'",
        "policy_from_json_dict": "(data: 'dict') -> 'Policy'",
        "policy_dumps": "(policy: 'Policy') -> 'str'",
        "policy_loads": "(text: 'str') -> 'Policy'",
    },
    "chain": {
        "ChainError": None,
        "is_admissible_word": "(g: 'Multigraph', w: 'Word') -> 'bool'",
        "check_admissible": "(g: 'Multigraph', w: 'Word') -> 'None'",
        "apply_decision": "(w: 'Word', v: 'Node', x: 'Optional[int]') -> 'Word'",
        "step": (
            "(g: 'Multigraph', policy: 'Policy', w: 'Word', v: 'Node', "
            "rng: 'Optional[random.Random]' = None) -> 'Word'"
        ),
        "enumerate_states": "(g: 'Multigraph', max_len: 'int') -> 'list[Word]'",
        "kernel_row": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', w: 'Word') -> 'dict[Word, "
            "Weight]'"
        ),
        "predecessors": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', w: 'Word') -> 'dict[Word, "
            "Weight]'"
        ),
        "draw_arrival_indices": (
            "(mu: 'ProbMeasure', steps: 'int', rng: 'random.Random') -> 'np.ndarray'"
        ),
        "draw_arrivals": "(mu: 'ProbMeasure', steps: 'int', rng: 'random.Random') -> 'list[Node]'",
        "BufferEngine": "(g: 'Multigraph', policy: 'Policy')",
        "BufferEngine.length": 'property',
        "BufferEngine.word": "(self) -> 'Word'",
        "BufferEngine.offer": (
            "(self, v: 'Node', rng: 'Optional[random.Random]') -> 'Optional[int]'"
        ),
        "BufferEngine.load": "(self, w: 'Word') -> 'None'",
        "SimulationResult": (
            "(total_steps: 'int', burn_in: 'int', recorded_steps: 'int', seed: 'int', "
            "word_cap: 'int', counts: 'dict[Word, int]', overflow_steps: 'int', "
            "max_queue_len: 'int', mean_queue_len: 'float', class_occupancy: 'dict[Node, "
            "float]', final_queue_len: 'int', tail_slope: 'float') -> None"
        ),
        "SimulationResult.frequency": "(self, w: 'Word') -> 'float'",
        "simulate": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', steps: 'int', "
            "burn_in: 'Optional[int]' = None, seed: 'int' = 0, "
            "word_cap: 'int' = 16) -> 'SimulationResult'"
        ),
        "least_squares_slope": "(lengths) -> 'float'",
        "stability_slope": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', steps: 'int', "
            "seed: 'int' = 0) -> 'float'"
        ),
    },
    "stationary": {
        "StationaryError": None,
        "alpha": "(g: 'Multigraph', mu: 'ProbMeasure') -> 'Weight'",
        "ProductFormDistribution": (
            "(graph: 'Multigraph', measure: 'ProbMeasure', alpha: 'Weight') -> None"
        ),
        "ProductFormDistribution.pi": "(self, w: 'Word') -> 'Weight'",
        "ProductFormDistribution.table": "(self, max_len: 'int') -> 'dict[Word, Weight]'",
        "ProductFormDistribution.truncated_mass": "(self, max_len: 'int') -> 'Weight'",
        "product_form": "(g: 'Multigraph', mu: 'ProbMeasure') -> 'ProductFormDistribution'",
        "finite_stationary": "(g: 'Multigraph', mu: 'ProbMeasure') -> 'dict[Word, Weight]'",
        "solve_finite_chain": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy, "
            "max_len: 'Optional[int]' = None) -> 'dict[Word, Weight]'"
        ),
        "balance_residual": (
            "(g: 'Multigraph', mu: 'ProbMeasure', max_len: 'int', "
            "report: 'Optional[Callable[[Word, float], None]]' = None) -> 'tuple[float, "
            "Optional[Word]]'"
        ),
    },
    "detailed": {
        "DLetter": None,
        "DWord": None,
        "DetailedError": None,
        "plain": "(c: 'Node') -> 'DLetter'",
        "barred": "(c: 'Node') -> 'DLetter'",
        "reverse_copy": "(w: 'DWord') -> 'DWord'",
        "is_admissible_backward": "(g: 'Multigraph', w: 'DWord') -> 'bool'",
        "backward_step": "(g: 'Multigraph', b: 'DWord', v: 'Node') -> 'DWord'",
        "fcfm_match_partners": (
            "(g: 'Multigraph', arrivals: 'Sequence[Node]') -> 'list[Optional[int]]'"
        ),
        "nu": "(mu: 'ProbMeasure', w: 'DWord') -> 'Weight'",
        "blocks": "(g: 'Multigraph') -> 'Iterator[tuple[Node, ...]]'",
        "nu_block_mass": (
            "(g: 'Multigraph', mu: 'ProbMeasure', sigma: 'Sequence[Node]') -> 'Weight'"
        ),
        "alpha_inverse_from_blocks": "(g: 'Multigraph', mu: 'ProbMeasure') -> 'Weight'",
        "PairCheck": (
            "(source: 'DWord', target: 'DWord', lhs: 'float', rhs: 'float', "
            "stderr: 'float') -> None"
        ),
        "PairCheck.z": 'property',
        "LocalBalanceReport": (
            "(steps: 'int', seed: 'int', min_visits: 'int', undetermined_forward: 'int', "
            "checks: 'tuple[PairCheck, ...]') -> None"
        ),
        "LocalBalanceReport.pairs_tested": 'property',
        "LocalBalanceReport.max_z": 'property',
        "LocalBalanceReport.fraction_within": "(self, z: 'float') -> 'float'",
        "verify_local_balance_empirical": (
            "(g: 'Multigraph', mu: 'ProbMeasure', steps: 'int', seed: 'int' = 0, "
            "min_visits: 'int' = 500) -> 'LocalBalanceReport'"
        ),
        "Excursion": "(word: 'Word', partner_word: 'Word') -> None",
        "excursion_decompose": "(g: 'Multigraph', arrivals: 'Sequence[Node]') -> 'list[Excursion]'",
        "partner_map": "(g: 'Multigraph', word: 'Word') -> 'Word'",
        "partner_inverse": "(g: 'Multigraph', word: 'Word') -> 'Word'",
        "ExcursionReport": (
            "(n_excursions: 'int', total_letters: 'int', permutation_valid: 'int', "
            "roundtrip_valid: 'int', length_histogram: 'dict[int, int]', "
            "matched_class_counts: 'dict[Node, int]') -> None"
        ),
        "ExcursionReport.all_permutation_valid": 'property',
        "ExcursionReport.all_roundtrip_valid": 'property',
        "analyze_excursions": (
            "(g: 'Multigraph', mu: 'ProbMeasure', steps: 'int', "
            "seed: 'int' = 0) -> 'ExcursionReport'"
        ),
    },
    "drift": {
        "DriftError": None,
        "Quadratic": '() -> None',
        "Quadratic.value": "(self, counts: 'Mapping[Node, int]') -> 'Weight'",
        "Linear": '() -> None',
        "Linear.value": "(self, counts: 'Mapping[Node, int]') -> 'Weight'",
        "WeightedLinear": "(weights: 'Mapping[Node, Weight]') -> None",
        "WeightedLinear.value": "(self, counts: 'Mapping[Node, int]') -> 'Weight'",
        "LyapunovFn": None,
        "ldelta": "(g: 'Multigraph', mu: 'ProbMeasure', delta: 'Weight') -> 'WeightedLinear'",
        "DriftReport": (
            "(state: 'Word', fn_name: 'str', drift: 'Weight', per_class: 'dict[Node, "
            "Weight]') -> None"
        ),
        "exact_drift": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', w: 'Word', "
            "fn: 'LyapunovFn') -> 'DriftReport'"
        ),
        "verify_quadratic_identity": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', w: 'Word', "
            "split: 'Optional[Mapping[Node, Weight]]' = None) -> 'float'"
        ),
        "verify_linear_chain": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', w: 'Word', "
            "split: 'Optional[Mapping[Node, Weight]]' = None) -> 'tuple[float, float]'"
        ),
        "PpartiteReport": (
            "(ok: 'bool', parts: 'int', delta: 'Weight', states_checked: 'int', "
            "violations: 'tuple[tuple[Word, float], ...]') -> None"
        ),
        "verify_ppartite_bound": (
            "(g: 'Multigraph', mu: 'ProbMeasure', policy: 'Policy', max_len: 'int', "
            "delta: 'Optional[Weight]' = None, tol: 'float' = 1e-12, *, "
            "report: 'Optional[NcondReport]' = None, "
            "drifts: 'Optional[Mapping[Word, Weight]]' = None) -> 'PpartiteReport'"
        ),
    },
    "cli": {
        "InputError": None,
        "EXIT_OK": None,
        "EXIT_VERIFICATION_FAILED": None,
        "EXIT_INPUT_ERROR": None,
        "EXIT_INTERNAL_ERROR": None,
        "Artifacts": "(out_dir: 'Optional[str]', command: 'str')",
        "Artifacts.add_csv": (
            "(self, name: 'str', header: 'Sequence[str]', rows: 'Sequence[Sequence]') -> 'None'"
        ),
        "Artifacts.finish": "(self, summary: 'dict') -> 'None'",
        "cmd_info": "(args, art: 'Artifacts', g: 'Multigraph') -> 'dict'",
        "cmd_ncond": "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'",
        "cmd_mudeg": "(args, art: 'Artifacts', g: 'Multigraph') -> 'dict'",
        "cmd_stationary_fcfm": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'"
        ),
        "cmd_verify_balance": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'"
        ),
        "cmd_simulate": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure', "
            "policy: 'Policy') -> 'dict'"
        ),
        "cmd_tv_compare": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure', "
            "policy: 'Policy') -> 'dict'"
        ),
        "cmd_reversibility": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'"
        ),
        "cmd_excursions": "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'",
        "cmd_drift": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure', "
            "policy: 'Policy') -> 'dict'"
        ),
        "cmd_transform": "(args, art: 'Artifacts', g: 'Multigraph') -> 'dict'",
        "cmd_extend_measure": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'"
        ),
        "cmd_verify_identities": (
            "(args, art: 'Artifacts', g: 'Multigraph', mu: 'ProbMeasure') -> 'dict'"
        ),
        "build_parser": "() -> 'argparse.ArgumentParser'",
        "main": "(argv: 'Optional[Sequence[str]]' = None) -> 'int'",
    },
}

PINNED_EXPORTS = (
    "BlowupMap", "ChainError", "DetailedError", "DriftError", "DriftReport", "Excursion",
    "ExcursionReport", "Fcfm", "GraphError", "Lcfm", "Linear", "LocalBalanceReport", "MaxWeight",
    "MeasureError", "Multigraph", "NcondReport", "Policy", "PolicyError", "PpartiteReport",
    "Priority", "ProbMeasure", "ProductFormDistribution", "Quadratic", "RandomPolicy",
    "SimulationResult", "StationaryError", "V2Favorable", "WeightedLinear", "alpha",
    "alpha_inverse_from_blocks", "analyze_excursions", "backward_step", "balance_residual",
    "decide", "decision_distribution", "enumerate_states", "exact_drift", "excursion_decompose",
    "extend_measure", "extend_policy", "finite_stationary", "is_admissible_backward",
    "is_admissible_word", "kernel_row", "ldelta", "match_the_longest", "match_the_shortest",
    "mu_deg", "ncond_check", "nu", "nu_block_mass", "partner_inverse", "partner_map",
    "policy_dumps", "policy_loads", "predecessors", "product_form", "reduce_measure",
    "reduce_policy", "reverse_copy", "simulate", "solve_finite_chain", "stability_slope",
    "step", "validate_policy", "verify_linear_chain", "verify_ppartite_bound",
    "verify_quadratic_identity",
)


def test_public_surface_is_pinned():
    assert list(PINNED_SURFACE) == list(MODULES)
    for name, pinned in PINNED_SURFACE.items():
        assert public_surface(importlib.import_module("multimatch." + name)) == pinned, name


def test_package_exports_are_pinned():
    assert exported_names() == list(PINNED_EXPORTS)


CROSS_MODULE_ALLOWED = set()


def private_bindings(tree) -> set[str]:
    """Underscore names a module binds: defs, classes, assigned names and
    assigned attributes (``self._x = ...``), dunders apart."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Store):
            bound.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {n for n in bound if n.startswith("_") and not n.endswith("__")}


def cross_module_private_uses() -> set[tuple[str, str, str]]:
    """(user, owner, name) for each ``from .owner import _name``, and each
    ``x._name`` read in one module of a name that only another binds."""
    package = Path(multimatch.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    bound = {m: private_bindings(tree) for m, tree in trees.items()}
    uses = set()
    for user, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in trees:
                uses |= {(user, node.module, a.name) for a in node.names
                         if a.name.startswith("_") and node.module != user}
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and node.attr not in bound[user]):
                uses |= {(user, owner, node.attr) for owner in bound
                         if owner != user and node.attr in bound[owner]}
    return uses


def test_no_module_reaches_into_another_modules_private_names():
    assert cross_module_private_uses() == CROSS_MODULE_ALLOWED
