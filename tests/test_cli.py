import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import multimatch.cli
from multimatch import drift, measures, policies
from multimatch.graphs import Multigraph
from multimatch.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else {}


def test_info(capsys):
    code, data = run(capsys, "info", "--graph", fx("path_loop.graph.json"))
    assert code == 0
    assert data["self_loops"] == ["3"]
    assert data["bipartite"] is False
    assert data["multipartite_parts"] == [["1", "3"], ["2"]]
    assert data["blowup_copies"] == {"3": "3_"}


def test_ncond_verdicts(capsys):
    code, data = run(
        capsys,
        "ncond",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
    )
    assert code == 0 and data["satisfied"] is True and data["region_empty"] is False

    # bipartite graph: no measure can satisfy it and the witness is one side
    code, data = run(
        capsys,
        "ncond",
        "--graph", fx("path3.graph.json"),
        "--mu", fx("path3.mu_uniform.json"),
    )
    assert code == 0
    assert data["satisfied"] is False and data["region_empty"] is True
    assert data["witness"] in (["1", "3"], ["2"])


def test_mudeg(capsys):
    code, data = run(capsys, "mudeg", "--graph", fx("diamond_hub_loop.graph.json"))
    assert code == 0
    assert data["measure"] == {"1": "1/9", "2": "4/9", "3": "2/9", "4": "2/9"}
    assert data["satisfied"] is True


def test_stationary_and_balance(capsys, tmp_path):
    out = str(tmp_path / "stat")
    code, data = run(
        capsys,
        "stationary-fcfm",
        "--graph", fx("square_loops.graph.json"),
        "--mu", fx("square_loops.mu_uniform.json"),
        "--max-len", "4",
        "--out", out,
    )
    assert code == 0
    assert data["alpha"] == "3/8"
    assert data["tail_mass"] == "0"
    csv_text = Path(out, "stationary_fcfm.csv").read_text()
    assert csv_text.splitlines()[0] == "word,probability"
    assert ",3/8" in csv_text

    code, data = run(
        capsys,
        "verify-balance",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--max-len", "6",
    )
    assert code == 0 and data["verified"] is True and data["max_residual"] == 0.0


def test_stationary_rejects_unstable_measure(capsys):
    code = main(
        [
            "stationary-fcfm",
            "--graph", fx("path_loop.graph.json"),
            "--mu", fx("path_loop.mu_unstable.json"),
        ]
    )
    assert code == 2


def test_simulate_artifacts_are_reproducible(capsys, tmp_path):
    args = [
        "simulate",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--steps", "20000",
        "--seed", "7",
    ]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    code, data1 = run(capsys, *args, "--out", out1)
    assert code == 0
    code, _ = run(capsys, *args, "--out", out2)
    assert code == 0
    for name in os.listdir(out1):
        assert Path(out1, name).read_text() == Path(out2, name).read_text()
    assert data1["recorded_steps"] == 20000 - data1["burn_in"]


def test_tv_compare_exit_codes(capsys):
    base = [
        "tv-compare",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--steps", "150000",
        "--burn-in", "1500",
        "--max-len", "4",
    ]
    code, data = run(capsys, *base)
    assert code == 0 and data["verified"] is True
    assert all(tv < 0.02 for tv in data["tv_per_replica"])

    # a policy with a different stationary law fails decisively
    code, data = run(capsys, *base, "--policy", "lcfm")
    assert code == 1 and data["verified"] is False
    assert all(tv > 0.3 for tv in data["tv_per_replica"])


def test_reversibility(capsys):
    code, data = run(
        capsys,
        "reversibility",
        "--graph", fx("square_loops.graph.json"),
        "--mu", fx("square_loops.mu_uniform.json"),
        "--steps", "120000",
        "--seed", "2",
        "--min-visits", "400",
    )
    assert code == 0
    assert data["pairs_tested"] > 10
    assert data["max_normalized_discrepancy"] <= 3.0
    assert data["undetermined_forward_count"] >= 0


def test_excursions(capsys, tmp_path):
    out = str(tmp_path / "exc")
    code, data = run(
        capsys,
        "excursions",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--steps", "30000",
        "--out", out,
    )
    assert code == 0 and data["verified"] is True
    assert data["permutation_valid"] == data["excursions"]
    lengths = Path(out, "excursion_lengths.csv").read_text().splitlines()
    assert lengths[0] == "length,count"
    letters = Path(out, "matched_letters.csv").read_text().splitlines()
    assert letters[0].startswith("class,count,frequency")


def test_drift_command(capsys, tmp_path):
    out = str(tmp_path / "drift")
    code, data = run(
        capsys,
        "drift",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--policy", fx("path_loop.policy_v2fav.json"),
        "--fn", "Ldelta",
        "--max-len", "4",
        "--out", out,
    )
    assert code == 0
    assert data["verified"] is True
    assert data["ldelta_bound_holds"] is True
    header = Path(out, "drift.csv").read_text().splitlines()[0]
    assert header == "word,drift,residual_quadratic,residual_linear_left,residual_linear_right"

    # the bound is checked at the delta the function was built with
    tripartite = [
        "drift",
        "--graph", fx("tripartite_loop.graph.json"),
        "--mu", fx("tripartite_loop.mu.json"),
        "--policy", fx("tripartite_loop.policy_v2fav.json"),
        "--fn", "Ldelta",
        "--max-len", "4",
    ]
    code, data = run(capsys, *tripartite, "--delta", "1/1000")
    assert code == 0
    assert data["delta"] == "1/1000" and data["ldelta_bound_holds"] is True
    # a delta far above the stability margin breaks the bound
    code, data = run(capsys, *tripartite, "--delta", "1/2")
    assert code == 1
    assert data["delta"] == "1/2" and data["ldelta_bound_holds"] is False


# sha256 of the --out files on tripartite_loop at --max-len 5, computed
# before the drift identities shared one decision-law pass per word
PINNED_DRIFT_ARTIFACTS = {
    "verify-identities": {
        "verify-identities.json": "7529d650f10cffad54000bc81a3deca1632cbf0ac00743700df1f221a24ba742",
    },
    "drift": {
        "drift.csv": "fd4c269f48bdddbe692ecc56186aa122a320951e003a65a7a2df16d071160f98",
        "drift.json": "b8d3f51288a2b27bb5ebf0d837be5c12d075c73d8b41738a16bbb18740def5ef",
    },
}


def test_drift_artifacts_are_pinned(capsys, tmp_path):
    model = ["--graph", fx("tripartite_loop.graph.json"), "--mu", fx("tripartite_loop.mu.json"),
             "--max-len", "5"]
    extra = {
        "verify-identities": [],
        "drift": ["--policy", fx("tripartite_loop.policy_v2fav.json"), "--fn", "Ldelta"],
    }
    for command, pinned in PINNED_DRIFT_ARTIFACTS.items():
        out = tmp_path / command
        code, _ = run(capsys, command, *model, *extra[command], "--out", str(out))
        assert code == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == pinned, command


def test_drift_commands_make_one_law_pass_per_graph_and_word(capsys):
    # a pass asks for the decision law of every arrival class on one graph;
    # tripartite_loop has 5 classes, its blow-up 6, its loop-free graph 5
    per_word = 5 + 6 + 5
    model = ["--graph", fx("tripartite_loop.graph.json"), "--mu", fx("tripartite_loop.mu.json"),
             "--max-len", "3"]
    for command, models in (("verify-identities", 6), ("drift", 1)):
        laws = patch.object(drift, "decision_distribution", wraps=policies.decision_distribution)
        blowup = patch.object(Multigraph, "minimal_blowup", autospec=True,
                              side_effect=Multigraph.minimal_blowup)
        with laws as law_calls, blowup as blowup_calls:
            code, data = run(capsys, command, *model)
        assert code == 0
        assert law_calls.call_count == models * data["states"] * per_word, command
        assert blowup_calls.call_count == models, command


def test_drift_ldelta_scans_the_independent_sets_once(capsys):
    model = ["drift", "--graph", fx("tripartite_loop.graph.json"),
             "--mu", fx("tripartite_loop.mu.json"),
             "--policy", fx("tripartite_loop.policy_v2fav.json"), "--fn", "Ldelta", "--max-len", "3"]
    for extra in ([], ["--delta", "1/1000"]):
        with patch.object(measures, "ncond_check", wraps=measures.ncond_check) as scans, \
                patch.object(drift, "ncond_check", scans):
            code, data = run(capsys, *model, *extra)
        assert code == 0 and data["ldelta_bound_holds"] is True
        assert scans.call_count == 1, extra


def test_transform_and_extend_measure(capsys):
    code, data = run(
        capsys, "transform", "--graph", fx("path_loop.graph.json"), "--check", "--blowup"
    )
    assert code == 0
    assert data["maximal_subgraph"]["self_loops"] == []
    assert data["copy_map"] == {"3": "3_"}
    assert ["3", "3_"] in data["blowup"]["edges"]

    code, data = run(
        capsys,
        "extend-measure",
        "--graph", fx("path_loop.graph.json"),
        "--mu", fx("path_loop.mu.json"),
        "--split", '{"3": "0.6"}',
    )
    assert code == 0
    assert data["measure"] == {"1": "1/5", "2": "3/10", "3": "3/10", "3_": "1/5"}


def test_verify_identities(capsys):
    code, data = run(
        capsys,
        "verify-identities",
        "--graph", fx("diamond_hub_loop.graph.json"),
        "--mu", fx("diamond_hub_loop.mu.json"),
        "--max-len", "3",
    )
    assert code == 0 and data["verified"] is True
    assert set(data["max_residual_per_policy"]) == {
        "fcfm", "lcfm", "uniform", "priority", "match_longest", "match_shortest"
    }
    assert data["max_residual"] == 0.0


def test_ncond_infinite_margin_is_json_safe(capsys):
    code, data = run(
        capsys,
        "ncond",
        "--graph", fx("square_loops.graph.json"),
        "--mu", fx("square_loops.mu_uniform.json"),
    )
    assert code == 0
    assert data == {
        "margin": "inf",
        "region_empty": False,
        "satisfied": True,
        "witness": None,
    }


def test_malformed_graph_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph.json"
    bad.write_text('{"nodes": ["1", "2"], "edges": [["1", "2", "2"]]}')
    assert main(["info", "--graph", str(bad)]) == 2
    capsys.readouterr()


def test_input_errors_exit_2(capsys, tmp_path):
    assert main(["info", "--graph", "/nonexistent.json"]) == 2
    assert main(["transform", "--graph", fx("path_loop.graph.json")]) == 2
    assert (
        main(
            [
                "simulate",
                "--graph", fx("path_loop.graph.json"),
                "--mu", fx("path_loop.mu.json"),
                "--policy", "no-such-policy",
                "--steps", "10",
            ]
        )
        == 2
    )
    path_model = ["--graph", fx("path_loop.graph.json"), "--mu", fx("path_loop.mu.json")]
    partial_priority = '{"kind": "priority", "order": {"1": ["2"]}}'
    # an order that misses a class fails alike when sampled and when exact
    assert main(["simulate", *path_model, "--policy", partial_priority, "--steps", "1000"]) == 2
    assert main(["drift", *path_model, "--policy", partial_priority, "--max-len", "2"]) == 2
    assert main(["tv-compare", *path_model, "--steps", "100", "--burn-in", "200"]) == 2
    for burn_in in ("100", "-1"):
        assert main(["simulate", *path_model, "--steps", "100", "--burn-in", burn_in]) == 2
    assert main(["simulate", *path_model, "--steps", "100", "--replicas", "0"]) == 2
    # a partial order is rejected before any decision needs a missing class
    assert main(["simulate", *path_model, "--policy", partial_priority,
                 "--steps", "1", "--burn-in", "0"]) == 2
    # malformed documents: arrays instead of objects, integer node names
    array_doc = tmp_path / "array.json"
    array_doc.write_text("[1, 2]")
    int_nodes = tmp_path / "int_nodes.graph.json"
    int_nodes.write_text('{"nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]], "self_loops": [3]}')
    assert main(["info", "--graph", str(array_doc)]) == 2
    assert main(["info", "--graph", str(int_nodes)]) == 2
    assert main(["ncond", "--graph", fx("path_loop.graph.json"), "--mu", str(array_doc)]) == 2
    assert main(["simulate", *path_model, "--policy", str(array_doc), "--steps", "10"]) == 2
    # policy fields of the wrong shape
    for doc in (
        '{"kind": "priority"}',
        '{"kind": "priority", "order": [1]}',
        '{"kind": "random", "perms": [1]}',
        '{"kind": "v2favorable"}',
        '{"kind": "maxweight", "rewards": {"12": "1"}}',
        '{"kind": "priority", "order": {"1": ["2"], "2": [1], "3": ["2", "3"]}}',
        '{"kind": "random", "perms": {"1": [["2"]]}}',
        # non-finite numbers and negative permutation weights
        '{"kind": "maxweight", "beta": NaN}',
        '{"kind": "maxweight", "beta": Infinity}',
        '{"kind": "maxweight", "rewards": {"1,2": NaN}}',
        '{"kind": "random", "perms": {"2": [[["1", "3"], 2], [["3", "1"], -1]]}}',
    ):
        assert main(["simulate", *path_model, "--policy", doc, "--steps", "10"]) == 2, doc
        assert main(["drift", *path_model, "--policy", doc, "--max-len", "2"]) == 2, doc
    # option values that are not weights
    for split in ('{"3": "x"}', "[1]"):
        assert main(["extend-measure", *path_model, "--split", split]) == 2
    assert main(["drift", *path_model, "--fn", "Ldelta", "--delta", "x"]) == 2
    # only Ldelta has a margin to set
    for fn in ("Q", "L"):
        assert main(["drift", *path_model, "--fn", fn, "--delta", "5"]) == 2, fn
    # a reversibility run that tests no pair verifies nothing
    assert main(["reversibility", "--graph", fx("square_loops.graph.json"),
                 "--mu", fx("square_loops.mu_uniform.json"), "--steps", "1000"]) == 2
    # negative step counts and a negative word cap
    assert main(["reversibility", *path_model, "--steps", "-5"]) == 2
    assert main(["excursions", *path_model, "--steps", "-2"]) == 2
    assert main(["simulate", *path_model, "--steps", "100", "--word-cap", "-1"]) == 2
    # a pair with no visit on one side cannot be tested
    for min_visits in ("0", "-1"):
        assert main(["reversibility", *path_model, "--steps", "1000",
                     "--min-visits", min_visits]) == 2
    # a tolerance that is NaN, infinite or negative is rejected while parsing
    for command in ("verify-balance", "tv-compare", "drift", "verify-identities"):
        for tol in ("nan", "inf", "-1e-12"):
            with pytest.raises(SystemExit) as exc:
                main([command, *path_model, "--tol", tol])
            assert exc.value.code == 2, (command, tol)
    capsys.readouterr()


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(multimatch.cli, "cmd_info", crash)
    assert main(["info", "--graph", fx("path_loop.graph.json")]) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "multimatch", "info", "--graph", fx("path_loop.graph.json")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["self_loops"] == ["3"]


def test_float_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # float masses are summed in sorted order, never in set iteration order
    graph = tmp_path / "five.graph.json"
    graph.write_text(json.dumps({
        "nodes": ["1", "2", "3", "4", "5"],
        "edges": [["1", "2"], ["1", "3"], ["1", "5"], ["2", "3"], ["3", "4"]],
        "self_loops": ["2"],
    }))
    mu = tmp_path / "five.mu.json"
    mu.write_text(json.dumps({"1": 29 / 65, "2": 1 / 5, "3": 2 / 13, "4": 1 / 65, "5": 12 / 65}))
    root = os.path.join(os.path.dirname(__file__), "..")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED=hash_seed)
        files = {}
        for command in ("ncond", "stationary-fcfm"):
            out = tmp_path / f"{command}-{hash_seed}"
            done = subprocess.run(
                [sys.executable, "-m", "multimatch", command,
                 "--graph", str(graph), "--mu", str(mu), "--out", str(out)],
                env=env, capture_output=True,
            )
            assert done.returncode == 0, done.stderr
            files[command] = done.stdout, {f.name: f.read_bytes() for f in out.iterdir()}
        outputs.append(files)
    assert outputs[0] == outputs[1]


def test_readme_library_example():
    from fractions import Fraction

    from multimatch import (Fcfm, Multigraph, ProbMeasure, ncond_check,
                            product_form, simulate)

    g = Multigraph.build(["1", "2", "3"], [("1", "2"), ("2", "3")], ["3"])
    mu = ProbMeasure.from_dict({"1": "0.2", "2": "0.3", "3": "0.5"})
    assert ncond_check(g, mu).satisfied
    dist = product_form(g, mu)
    assert dist.alpha == Fraction(4, 25)
    res = simulate(g, mu, Fcfm(), steps=10**5, seed=0)
    assert abs(res.frequency(()) - float(dist.pi(()))) < 0.01
