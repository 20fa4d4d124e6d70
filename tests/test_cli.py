import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multimatch.cli
from multimatch import detailed, drift, measures, policies
from multimatch.chain import BufferEngine
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


@pytest.mark.parametrize("model", [("square_loops.graph.json", "square_loops.mu_skewed.json"),
                                   ("path_loop.graph.json", "path_loop.mu.json")])
@pytest.mark.parametrize("policy", ["lcfm", "ml", "ms", "random"])
def test_tv_compare_refuses_a_policy_other_than_fcfm(capsys, tmp_path, model, policy):
    # the product form is FCFM's law only: no verdict, and no artifact, for another policy
    out = tmp_path / "out"
    code = main(["tv-compare", "--graph", fx(model[0]), "--mu", fx(model[1]),
                 "--policy", policy, "--steps", "2000", "--max-len", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "FCFM product form" in captured.err
    assert not out.exists()


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

    # a measure that misses a class of the graph fails before the run
    half = tmp_path / "half.mu.json"
    half.write_text('{"1": "1/2", "2": "1/2"}')
    missing = str(tmp_path / "missing")
    assert main(["excursions", "--graph", fx("path_loop.graph.json"), "--mu", str(half),
                 "--out", missing]) == 2
    assert "missing=['3']" in capsys.readouterr().err
    assert not os.path.exists(missing)


def test_a_failed_round_trip_is_counted_and_exits_1(capsys, tmp_path, monkeypatch,
                                                    path_loop, mu_path):
    # every partner table after the first, the one that splits the trajectory,
    # is LCFM's, so the inverse maps run the wrong rule: a failed verification.
    # The audit's partner pass takes class indices, in sorted class order.
    def break_the_inverse():
        made = []
        match_partners = detailed._match_partners

        def partners(g, arrivals):
            made.append(arrivals)
            if len(made) == 1:
                return match_partners(g, arrivals)
            offer, nodes = BufferEngine(g, policies.Lcfm()).offer, sorted(g.nodes)
            table = [None] * len(arrivals)
            for m, i in enumerate(arrivals):
                k = offer(nodes[i], None)
                if k is not None:
                    table[m], table[k] = k, m
            return table

        monkeypatch.setattr(detailed, "_match_partners", partners)

    break_the_inverse()
    rep = detailed.analyze_excursions(path_loop, mu_path, steps=3000, seed=0)
    assert rep.all_permutation_valid
    assert rep.roundtrip_valid < rep.n_excursions
    break_the_inverse()
    code, data = run(capsys, "excursions", *PATH_MODEL, "--steps", "3000",
                     "--out", str(tmp_path / "exc"))
    assert code == 1
    assert data["verified"] is False
    assert data["roundtrip_valid"] < data["excursions"]


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


# sha256 of the --out files on tripartite_loop, computed while every command
# still evaluated pi word by word
PINNED_PRODUCT_FORM_ARTIFACTS = {
    ("verify-balance", "7"): {
        "balance_residuals.csv": "ecf6e7b13eabbea6c0a9c8a80d91db1902e377d963f352ac04a954c56e50b9a8",
        "verify-balance.json": "561666188e8ffdd79d4e8d36197ccedaa8aed9bb59da7ebd3c85f31daabbe82f",
    },
    ("stationary-fcfm", "5"): {
        "stationary_fcfm.csv": "e3e4c70cd9660e010637c22cf46c1555bac02476269d85fb5ed2e7ad96dc369b",
        "stationary-fcfm.json": "22079c1489a2e2ed339a861f5e1bbba788d19612f34dc8eec7c86370c247ebe2",
    },
}


def test_product_form_artifacts_are_pinned(capsys, tmp_path):
    model = ["--graph", fx("tripartite_loop.graph.json"), "--mu", fx("tripartite_loop.mu.json")]
    for (command, max_len), pinned in PINNED_PRODUCT_FORM_ARTIFACTS.items():
        out = tmp_path / command
        code, _ = run(capsys, command, *model, "--max-len", max_len, "--out", str(out))
        assert code == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == pinned, command


PATH_MODEL = ["--graph", fx("path_loop.graph.json"), "--mu", fx("path_loop.mu.json")]

# (argv, exit code, sha256 of stdout and of each --out file) of every command
# the two pins above leave out, computed before the commands shared one runner
PINNED_CLI_OUTPUTS = [
    (["info", "--graph", fx("path_loop.graph.json")], 0, {
        "stdout": "ecbf341f0a2a67f0936a8ce2104794e7036994d50fe119f5d01ecb588e2e29a7",
        "info.json": "ecbf341f0a2a67f0936a8ce2104794e7036994d50fe119f5d01ecb588e2e29a7",
    }),
    (["ncond", *PATH_MODEL], 0, {
        "stdout": "851eea8440260a251b0f707c90c545d35c397a0e8ac950c350a403cce7537c94",
        "ncond.json": "851eea8440260a251b0f707c90c545d35c397a0e8ac950c350a403cce7537c94",
    }),
    (["mudeg", "--graph", fx("path_loop.graph.json")], 0, {
        "stdout": "baede927419b4dd3536729bff08a04222ab4aca724029ab1a6c0e01f175c0a39",
        "mudeg.json": "baede927419b4dd3536729bff08a04222ab4aca724029ab1a6c0e01f175c0a39",
        "mudeg_measure.json": "47e36814234700043891649bf8d7cfe4c2fa2cebff0e2f9ad54e3521d037543e",
    }),
    (["simulate", *PATH_MODEL, "--policy", fx("path_loop.policy_v2fav.json"),
      "--steps", "3000", "--seed", "3", "--replicas", "2"], 0, {
        "stdout": "5aeb10bb03fcc98cf0612f3aad3e7714f80a9c39635aece6bc0d69be9ec1b628",
        "simulate.csv": "5e0f1debd08d4060065910c4ba357ac76624dba305005504ae81f975ae730744",
        "simulate.json": "5aeb10bb03fcc98cf0612f3aad3e7714f80a9c39635aece6bc0d69be9ec1b628",
    }),
    (["tv-compare", *PATH_MODEL, "--steps", "3000", "--max-len", "3", "--tol", "0"], 1, {
        "stdout": "5b7e813192716c2b42ac28ac6110a9d16077f70e7dce25e83dbd2560fa49cbbf",
        "tv-compare.json": "5b7e813192716c2b42ac28ac6110a9d16077f70e7dce25e83dbd2560fa49cbbf",
        "tv_compare.csv": "7f087ace91336d284c739acfeb0e89ae870bf91f8ad026925be206e3ea2127bb",
    }),
    (["reversibility", *PATH_MODEL, "--steps", "20000", "--min-visits", "50"], 0, {
        "stdout": "40815db89ab9fea7c38410b9b75275bf04772dd8abc9e866fe09133eb0fff6db",
        "reversibility.json": "40815db89ab9fea7c38410b9b75275bf04772dd8abc9e866fe09133eb0fff6db",
    }),
    (["excursions", *PATH_MODEL, "--steps", "3000"], 0, {
        "stdout": "1a2bdbb733cd8cc223b6d661a5f0ead208505c328b52e4d227181bfed7111091",
        "excursion_lengths.csv": "acf57de9df45e75ae577b8b2a7beb2a42f7cd30f1663481ae6efc2c567a0ffe7",
        "excursions.json": "1a2bdbb733cd8cc223b6d661a5f0ead208505c328b52e4d227181bfed7111091",
        "matched_letters.csv": "f00de1c20aa449d4e3a233767c50687ee690276be626e1d0b398192f4de3bd1e",
    }),
    (["transform", "--graph", fx("path_loop.graph.json"), "--check", "--blowup"], 0, {
        "stdout": "2f289ca56f906bafad5c2b28ab1facdc98f12f3e9956e52a7b492bc3a4c09a7b",
        "blowup.json": "dbfda131e9a7d968fca6ae54c2dc2751f11198c310ab3a6fd098083f0ed053a0",
        "maximal_subgraph.json": "35f6c2275f5a401c7b84c72a7ae56a515132a8b51b84a3ff03c321136858036f",
        "transform.json": "2f289ca56f906bafad5c2b28ab1facdc98f12f3e9956e52a7b492bc3a4c09a7b",
    }),
    (["extend-measure", *PATH_MODEL, "--split", '{"3": "3/5"}'], 0, {
        "stdout": "cde1e2692b9935565171b4bbed579483cada47d63bd4ff1a6de87c7af8d25279",
        "extend-measure.json": "cde1e2692b9935565171b4bbed579483cada47d63bd4ff1a6de87c7af8d25279",
        "extended_measure.json": "daec694bb3db60661ffb93d878419dc10982ff9d20c1be94154d9aacb80aa2d1",
    }),
]


def cli_output_digests(capsys, tmp_path, argv) -> tuple[int, dict[str, str]]:
    out = tmp_path / argv[0]
    code = main([*argv, "--out", str(out)])
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    digests.update((f.name, hashlib.sha256(f.read_bytes()).hexdigest()) for f in out.iterdir())
    return code, digests


def test_cli_outputs_are_pinned(capsys, tmp_path):
    for argv, code, pinned in PINNED_CLI_OUTPUTS:
        assert cli_output_digests(capsys, tmp_path, argv) == (code, pinned), argv[0]


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


def test_drift_ldelta_bound_reads_the_drift_column(capsys):
    # the Ldelta bound reuses the drifts of the drift column, so --fn Ldelta
    # makes as many law passes as --fn Q: 88 words at --max-len 5, 5 + 6 + 5
    # laws each
    model = ["drift", "--graph", fx("tripartite_loop.graph.json"),
             "--mu", fx("tripartite_loop.mu.json"),
             "--policy", fx("tripartite_loop.policy_v2fav.json"), "--max-len", "5"]
    calls = {}
    for fn in ("Q", "Ldelta"):
        with patch.object(drift, "decision_distribution",
                          wraps=policies.decision_distribution) as laws:
            code, data = run(capsys, *model, "--fn", fn)
        assert code == 0
        calls[fn] = laws.call_count
    assert data["ldelta_bound_holds"] is True
    assert calls == {"Q": 88 * 16, "Ldelta": 88 * 16}


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
        '{"kind": "v2favorable", "inner": {"kind": "fcfm"}}',
        '{"kind": "maxweight", "rewards": {"12": "1"}}',
        '{"kind": "priority", "order": {"1": ["2"], "2": [1], "3": ["2", "3"]}}',
        '{"kind": "random", "perms": {"1": [["2"]]}}',
        # non-finite numbers and negative permutation weights
        '{"kind": "maxweight", "beta": NaN}',
        '{"kind": "maxweight", "beta": Infinity}',
        '{"kind": "maxweight", "rewards": {"1,2": NaN}}',
        '{"kind": "random", "perms": {"2": [[["1", "3"], 2], [["3", "1"], -1]]}}',
        # exact weights too large for a float
        '{"kind": "maxweight", "beta": "1e400", "rewards": {"2,1": 0.5}}',
        '{"kind": "maxweight", "beta": 0.5, "rewards": {"2,1": "1e400"}}',
    ):
        assert main(["simulate", *path_model, "--policy", doc, "--steps", "10"]) == 2, doc
        assert main(["drift", *path_model, "--policy", doc, "--max-len", "2"]) == 2, doc
    # option values that are not weights
    for split in ('{"3": "x"}', "[1]"):
        assert main(["extend-measure", *path_model, "--split", split]) == 2
    for delta in ("x", "1e999"):
        assert main(["drift", *path_model, "--fn", "Ldelta", "--delta", delta]) == 2, delta
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


def test_bad_weights_and_unknown_classes_exit_2(capsys, tmp_path):
    # a weight "1/0" or a JSON boolean is not a weight wherever a weight is
    # read; a favored class must be a class of the graph; a balance check
    # must cover at least the empty word
    path_model = ["--graph", fx("path_loop.graph.json"), "--mu", fx("path_loop.mu.json")]
    for name, doc in (("div0", '{"1": "1/0", "2": "3/10", "3": "1/2"}'),
                      ("bool", '{"1": true, "2": "3/10", "3": "1/2"}')):
        mu = tmp_path / f"{name}.mu.json"
        mu.write_text(doc)
        for command in ("ncond", "stationary-fcfm", "verify-balance"):
            assert main([command, "--graph", fx("path_loop.graph.json"), "--mu", str(mu)]) == 2
    assert main(["drift", *path_model, "--fn", "Ldelta", "--delta", "1/0"]) == 2
    for split in ('{"3": "1/0"}', '{"3": true}'):
        assert main(["extend-measure", *path_model, "--split", split]) == 2, split
    for doc in (
        '{"kind": "maxweight", "beta": "1/0"}',
        '{"kind": "maxweight", "beta": true}',
        '{"kind": "maxweight", "rewards": {"1,2": "1/0"}}',
        '{"kind": "maxweight", "rewards": {"1,2": false}}',
        '{"kind": "random", "perms": {"2": [[["1", "3"], "1/0"], [["3", "1"], "0"]]}}',
        '{"kind": "random", "perms": {"2": [[["1", "3"], true], [["3", "1"], "0"]]}}',
        '{"kind": "v2favorable", "inner": {"kind": "random"}, "favored": ["9"]}',
    ):
        assert main(["simulate", *path_model, "--policy", doc, "--steps", "10"]) == 2, doc
        assert main(["drift", *path_model, "--policy", doc, "--max-len", "2"]) == 2, doc
    for max_len in ("-1", "-5"):
        assert main(["verify-balance", *path_model, "--max-len", max_len]) == 2, max_len
    capsys.readouterr()


def _load_fixture(name):
    with open(fx(name), encoding="utf-8") as fh:
        return json.load(fh)


# Malformed values by kind: a wrong JSON type, NaN or an infinity, "1/0", a
# boolean, a negative number, and an unknown class; MISSING deletes the field.
MISSING = object()
NOT_FINITE = [float("nan"), float("inf"), float("-inf")]
BOOLS = [True, False]
NOT_A_NAME = [5, -1, None, ["1"], {"1": "2"}, *NOT_FINITE, *BOOLS]
NOT_A_CLASS = ["9", "1/0", MISSING, *NOT_A_NAME]
NOT_A_WEIGHT = ["1/0", None, ["1"], {"1": "2"}, *NOT_FINITE, *BOOLS]
NOT_AN_ARRAY = [5, -1, "1/0", None, {"1": "2"}, *NOT_FINITE, *BOOLS]
NOT_AN_OBJECT = [5, -1, "1/0", None, ["1"], *NOT_FINITE, *BOOLS]

# (document, command reading it, [(field path, malformed values)]); every
# value makes the document invalid for path_loop, so the command exits 2
FUZZED_DOCUMENTS = [
    (_load_fixture("path_loop.graph.json"), ["info"], [
        (("nodes",), NOT_AN_ARRAY + [MISSING]),
        (("nodes", 0), NOT_A_CLASS),
        (("edges",), NOT_AN_ARRAY + [MISSING]),
        (("edges", 1), NOT_AN_ARRAY + [MISSING, ["2"]]),
        (("edges", 1, 1), NOT_A_CLASS),
        (("self_loops",), NOT_AN_ARRAY),
        (("self_loops", 0), ["9", "1/0", *NOT_A_NAME]),
    ]),
    (_load_fixture("path_loop.mu.json"), ["ncond"], [
        ((c,), NOT_A_WEIGHT + [MISSING, "-1/5", -0.2, 0]) for c in ("1", "2", "3")
    ]),
    (_load_fixture("path_loop.policy_v2fav.json"), ["simulate", "--steps", "10"], [
        (("kind",), ["priority!", *NOT_A_NAME, MISSING]),
        (("inner",), NOT_AN_OBJECT + [MISSING, {"kind": "fcfm"}]),
        (("inner", "kind"), ["v2favorable", *NOT_A_NAME, MISSING]),
        (("inner", "order"), NOT_AN_OBJECT + [MISSING]),
        (("inner", "order", "2"), NOT_AN_ARRAY + [MISSING, ["1"]]),
        # an order entry may be a group of classes, and no favored list
        # means the loop-free classes
        (("inner", "order", "2", 0), [v for v in NOT_A_CLASS if v != ["1"]] + [["9"]]),
        (("favored",), [v for v in NOT_AN_ARRAY if v is not None] + [["9"], ["1", "1/0"], [5]]),
    ]),
    ({"kind": "maxweight", "beta": "1", "rewards": {"1,2": "1/2"}},
     ["simulate", "--steps", "10"], [
        (("beta",), NOT_A_WEIGHT),
        (("rewards",), NOT_AN_OBJECT),
        (("rewards", "1,2"), NOT_A_WEIGHT),
    ]),
    ({"kind": "random", "perms": {"2": [[["1", "3"], "7/10"], [["3", "1"], "3/10"]]}},
     ["drift", "--max-len", "2"], [
        (("perms", "2"), NOT_AN_ARRAY + [MISSING]),
        (("perms", "2", 0), NOT_AN_ARRAY + [MISSING]),
        (("perms", "2", 0, 1), NOT_A_WEIGHT + ["-7/10", -0.7, MISSING]),
        (("perms", "2", 0, 0, 0), NOT_A_CLASS),
    ]),
]


@st.composite
def malformed_documents(draw):
    """One document of FUZZED_DOCUMENTS with one field set to a malformed
    value (or deleted), and the command that reads it."""
    doc, command, fields = draw(st.sampled_from(FUZZED_DOCUMENTS))
    path, values = draw(st.sampled_from(fields))
    value = draw(st.sampled_from(values))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc, command, (path, value)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(malformed_documents())
def test_malformed_documents_exit_2(case):
    doc, command, mutation = case
    graph, mu = fx("path_loop.graph.json"), fx("path_loop.mu.json")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if command[0] == "info":
            argv = ["info", "--graph", path]
        elif command[0] == "ncond":
            argv = ["ncond", "--graph", graph, "--mu", path]
        else:
            argv = [command[0], "--graph", graph, "--mu", mu, "--policy", path, *command[1:]]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    assert code == 2, (mutation, err.getvalue())


def strict_json(text: str):
    """``text`` parsed as strict JSON: no Infinity, -Infinity or NaN."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def test_unreadable_documents_exit_2(capsys, tmp_path):
    # a document that is not UTF-8, or nested too deeply for the JSON parser,
    # is bad input: one error line, no traceback
    graph, mu = fx("path_loop.graph.json"), fx("path_loop.mu.json")
    binary, deep = tmp_path / "binary.json", tmp_path / "deep.json"
    binary.write_bytes(b"\xff{}")
    deep.write_text("[" * 100000 + "]" * 100000)
    nested = '{"kind": "fcfm"}'
    for _ in range(3000):
        nested = '{"kind": "v2favorable", "inner": %s}' % nested
    nested_file = tmp_path / "nested.json"
    nested_file.write_text(nested)
    simulate = ["simulate", "--graph", graph, "--mu", mu, "--steps", "10", "--policy"]
    for argv in (
        ["info", "--graph", str(binary)],
        ["ncond", "--graph", graph, "--mu", str(binary)],
        [*simulate, str(binary)],
        ["info", "--graph", str(deep)],
        ["ncond", "--graph", graph, "--mu", str(deep)],
        [*simulate, nested],
        [*simulate, str(nested_file)],
        ["extend-measure", "--graph", graph, "--mu", mu, "--split", "[" * 3000 + "]" * 3000],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_drift_ldelta_needs_a_finite_delta(capsys, tmp_path):
    # every class of square_loops is looped, so the stability margin is +inf
    # and is no delta for Ldelta: the command asks for --delta, and with one
    # it runs and writes strict JSON and finite drifts
    model = ["drift", "--graph", fx("square_loops.graph.json"),
             "--mu", fx("square_loops.mu_uniform.json"), "--fn", "Ldelta", "--max-len", "2"]
    out = tmp_path / "out"
    assert main([*model, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--delta" in captured.err
    assert len(captured.err.splitlines()) == 1 and not out.exists()
    assert main([*model, "--delta", "1/2", "--out", str(out)]) == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["delta"] == "1/2" and summary["verified"] is True
    assert strict_json((out / "drift.json").read_text()) == summary
    drifts = [row.split(",")[1] for row in (out / "drift.csv").read_text().splitlines()[1:]]
    assert drifts and all(math.isfinite(Fraction(d)) for d in drifts)


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def crash(args, art, g):
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


def test_exact_commands_do_not_load_numpy(tmp_path):
    # numpy is half of the start-up; only the simulating commands need it
    exact = [
        ["info", "--graph", fx("path_loop.graph.json")],
        ["ncond", *PATH_MODEL],
        ["mudeg", "--graph", fx("path_loop.graph.json")],
        ["transform", "--graph", fx("path_loop.graph.json"), "--check", "--blowup"],
        ["extend-measure", *PATH_MODEL],
        ["stationary-fcfm", *PATH_MODEL],
        ["verify-balance", *PATH_MODEL],
        ["drift", *PATH_MODEL, "--policy", fx("path_loop.policy_v2fav.json"), "--fn", "Ldelta",
         "--max-len", "3"],
        ["verify-identities", *PATH_MODEL, "--max-len", "2"],
    ]
    script = (
        "import sys\n"
        "from multimatch.cli import main\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        f"for argv in {exact!r}:\n"
        "    assert main(argv + ['--out', argv[0]]) == 0, argv[0]\n"
        "    assert 'numpy' not in sys.modules, argv[0]\n"
    )
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path)) == sorted(argv[0] for argv in exact)


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


def readme_command_lines() -> list[list[str]]:
    """The ``multimatch ...`` lines of the README's ``sh`` blocks, with
    backslash continuations joined, split as the shell would."""
    text = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    joined = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines()
            if line.startswith("multimatch ")]


def test_readme_command_lines_parse():
    parser = multimatch.cli.build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    lines = readme_command_lines()
    for argv in lines:
        parser.parse_args(argv[1:])
    assert {argv[1] for argv in lines} == set(commands)


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand: its help, its parser defaults (``func`` by name) and,
    per action, its option strings, dest, default, type name, ``required``,
    choices, action class and help."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: (helps[name],
               {k: getattr(v, "__name__", v) for k, v in p._defaults.items()},
               [(" ".join(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", None),
                 a.required, a.choices, type(a).__name__, a.help) for a in p._actions])
        for name, p in sub.choices.items()
    }


# recorded from the parser of 13 hand-written subcommand blocks, before the
# parser was built from a command table
PINNED_CLI_SURFACE = {
    "info": ("graph structure report", {"func": "cmd_info"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "ncond": ("stability-condition check", {"func": "cmd_ncond"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "mudeg": ("degree-proportional measure", {"func": "cmd_mudeg"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "stationary-fcfm": ("exact product-form table", {"func": "cmd_stationary_fcfm"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--max-len", "max_len", 4, "int", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "verify-balance": ("exact global-balance residual", {"func": "cmd_verify_balance"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--max-len", "max_len", 4, "int", False, None, "_StoreAction", None),
        ("--tol", "tol", 1e-12, "_tolerance", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "simulate": ("Monte-Carlo run with visit counts", {"func": "cmd_simulate"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--policy", "policy", None, None, False, None, "_StoreAction",
         "policy JSON file, inline JSON, or name (default fcfm)"),
        ("--steps", "steps", 100000, "int", False, None, "_StoreAction", None),
        ("--burn-in", "burn_in", None, "int", False, None, "_StoreAction", None),
        ("--seed", "seed", 0, "int", False, None, "_StoreAction", None),
        ("--replicas", "replicas", 1, "int", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
        ("--word-cap", "word_cap", 16, "int", False, None, "_StoreAction", None),
    ]),
    "tv-compare": ("simulation vs product form in total variation",
                   {"func": "cmd_tv_compare", "tol": 0.02}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--policy", "policy", None, None, False, None, "_StoreAction",
         "policy JSON file, inline JSON, or name (default fcfm)"),
        ("--steps", "steps", 100000, "int", False, None, "_StoreAction", None),
        ("--burn-in", "burn_in", None, "int", False, None, "_StoreAction", None),
        ("--seed", "seed", 0, "int", False, None, "_StoreAction", None),
        ("--max-len", "max_len", 4, "int", False, None, "_StoreAction", None),
        ("--tol", "tol", 0.02, "_tolerance", False, None, "_StoreAction", None),
        ("--replicas", "replicas", 1, "int", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "reversibility": ("empirical local-balance check", {"func": "cmd_reversibility"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--steps", "steps", 100000, "int", False, None, "_StoreAction", None),
        ("--seed", "seed", 0, "int", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
        ("--min-visits", "min_visits", 500, "int", False, None, "_StoreAction", None),
    ]),
    "excursions": ("buffer-emptying segments and matched letters", {"func": "cmd_excursions"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--steps", "steps", 100000, "int", False, None, "_StoreAction", None),
        ("--seed", "seed", 0, "int", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
    "drift": ("exact Lyapunov drifts and identity residuals", {"func": "cmd_drift"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--policy", "policy", None, None, False, None, "_StoreAction",
         "policy JSON file, inline JSON, or name (default fcfm)"),
        ("--max-len", "max_len", 4, "int", False, None, "_StoreAction", None),
        ("--tol", "tol", 1e-12, "_tolerance", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
        ("--fn", "fn", "Q", None, False, ["Q", "L", "Ldelta"], "_StoreAction", None),
        ("--delta", "delta", None, None, False, None, "_StoreAction",
         "margin for Ldelta (default: computed)"),
    ]),
    "transform": ("emit derived graphs", {"func": "cmd_transform"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
        ("--check", "check", False, None, False, None, "_StoreTrueAction",
         "maximal (loop-free) subgraph"),
        ("--blowup", "blowup", False, None, False, None, "_StoreTrueAction",
         "minimal blow-up graph"),
    ]),
    "extend-measure": ("measure on the blow-up graph", {"func": "cmd_extend_measure"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
        ("--split", "split", None, None, False, None, "_StoreAction",
         'JSON share kept by each looped class, e.g. {"3":"0.6"}'),
    ]),
    "verify-identities": ("all drift identities over a policy battery",
                          {"func": "cmd_verify_identities"}, [
        ("-h --help", "help", "==SUPPRESS==", None, False, None, "_HelpAction",
         "show this help message and exit"),
        ("--graph", "graph", None, None, True, None, "_StoreAction", "graph JSON file"),
        ("--mu", "mu", None, None, True, None, "_StoreAction", "measure JSON file"),
        ("--max-len", "max_len", 4, "int", False, None, "_StoreAction", None),
        ("--tol", "tol", 1e-12, "_tolerance", False, None, "_StoreAction", None),
        ("--out", "out", None, None, False, None, "_StoreAction", "directory for artifact files"),
    ]),
}


def test_cli_surface_is_pinned(capsys):
    surface = cli_surface(multimatch.cli.build_parser())
    assert list(surface) == list(PINNED_CLI_SURFACE)
    for name, pinned in PINNED_CLI_SURFACE.items():
        assert surface[name] == pinned, name
        with pytest.raises(SystemExit) as done:
            main([name, "--help"])
        assert done.value.code == 0, name
        assert capsys.readouterr().out.startswith(f"usage: multimatch {name} ")


def test_main_parses_as_the_full_parser(capsys, monkeypatch):
    # main builds the options of the named command only; help, usage, errors
    # and exit codes must be the full parser's, for every command and at the
    # top level, also when the arguments come from sys.argv
    def outcome(parse, argv):
        with pytest.raises(SystemExit) as done:
            parse(argv)
        out = capsys.readouterr()
        return done.value.code, out.out, out.err

    argvs = [[], ["-h"], ["--help", "info"], ["bogus"], ["-", "info"], ["--bogus", "info"]]
    for name in PINNED_CLI_SURFACE:
        argvs += [[name, "--help"], [name, "--bogus"], ["-h", name], [name, "-h", "--bogus"],
                  [name, "--graph", "g.json", "--mu", "mu.json", "--bogus", "x"],
                  [name, "--graph", "g.json", "--max-len", "many"]]
    for argv in argvs:
        full = outcome(lambda a: multimatch.cli.build_parser().parse_args(a), argv)
        assert outcome(main, argv) == full, argv
        monkeypatch.setattr(sys, "argv", ["multimatch", *argv])
        assert outcome(main, None) == full, argv
