import argparse
import json
import re
import types
from pathlib import Path

import pytest

import tangleforge
from tangleforge.bitset import elements_of
from tangleforge.cli import _parser, run
from tangleforge.core import MAX_N

from conftest import BARBELL_EDGES, C6_EDGES


@pytest.fixture()
def inputs(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    write("r8.json", {"kind": "r8_polymatroid", "ell": 1})
    write("u26.json", {"kind": "matroid", "source": {"uniform": {"r": 2, "n": 6}}})
    write("c6.json", {"kind": "graph", "edges": [list(e) for e in C6_EDGES]})
    write("barbell.json", {"kind": "graph", "edges": [list(e) for e in BARBELL_EDGES]})
    bad = [1] * 16
    bad[0b0001] = 5
    write("bad_table.json", {"kind": "table", "n": 4, "lambda": bad})
    return paths


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_tangles_r8_unique(inputs, capsys):
    code, out = invoke(capsys, ["tangles", "--input", inputs["r8.json"], "--k", "4"])
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["members"] == [[]] + [[i] for i in range(8)]


def test_tangles_lists_all_without_resolution(inputs, capsys):
    code, out = invoke(capsys, ["tangles", "--input", inputs["barbell.json"],
                                "--k", "2"])
    assert code == 0
    assert len(json.loads(out)) == 3


def test_check_bad_table(inputs, capsys):
    code, out = invoke(capsys, ["check", "--input", inputs["bad_table.json"]])
    assert code == 2
    data = json.loads(out)
    assert not data["ok"]
    assert data["violations"][0]["axiom"] in ("symmetry", "lambda_below_empty")


def test_check_good_system(inputs, capsys):
    code, out = invoke(capsys, ["check", "--input", inputs["u26.json"]])
    assert code == 0 and json.loads(out)["ok"]


def test_tree_u26_dot_and_verify(inputs, capsys):
    code, out = invoke(capsys, ["tree", "--input", inputs["u26.json"], "--k", "2",
                                "--dot", "--verify"])
    assert code == 0
    assert out.startswith("graph pitree {")
    assert out.count("shape=box") == 7  # six singleton bags and one empty


def test_tree_json_has_verdict(inputs, capsys, monkeypatch):
    argv = ["tree", "--input", inputs["c6.json"], "--k", "2", "--verify"]
    code, out = invoke(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["ok"]
    assert any(v["type"] == "flower" and v["label"] == "D"
               for v in data["vertices"])
    # an oracle that refuses the tree makes the command fail with its problems
    from tangleforge import cli
    monkeypatch.setattr(cli, "oracle_certify_tree", lambda *a: (False, ["edge (0, 1)"]))
    code, out = invoke(capsys, argv)
    assert code == 2 and json.loads(out) == {"ok": False, "problems": ["edge (0, 1)"]}


@pytest.mark.parametrize("labels", [[], ["a"]], ids=["empty", "short"])
def test_check_refuses_labels_of_another_length(tmp_path, capsys, labels):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"kind": "graph", "edges": [[0, 1], [1, 2], [2, 0]],
                                "labels": labels}))
    code, out = invoke(capsys, ["check", "--input", str(path)])
    assert code == 1
    assert json.loads(out) == {"error": "usage", "detail": "labels length must equal n"}


def test_fcl_with_oracle(inputs, capsys):
    code, out = invoke(capsys, ["fcl", "--input", inputs["barbell.json"], "--k", "2",
                                "--tangle", "canonical", "--x", "0,1", "--verify"])
    # the barbell has three tangles, so canonical resolution must fail
    assert code == 1
    data = json.loads(out)
    assert "3 tangles" in data["detail"]


def test_fcl_without_verify_prints_the_closure_only(inputs, capsys, monkeypatch):
    # C6 at order 2 has no non-empty weak set, so fcl({0,1}) = {0,1}; no
    # oracle runs and no referee key is printed
    from tangleforge import cli

    def no_oracle(*args):
        raise AssertionError("the oracle ran without --verify")

    monkeypatch.setattr(cli, "oracle_full_closure", no_oracle)
    code, out = invoke(capsys, ["fcl", "--input", inputs["c6.json"], "--k", "2",
                                "--x", "0,1"])
    assert code == 0
    assert json.loads(out) == {"x": [0, 1], "fcl": [0, 1]}


def test_fcl_with_tangle_file(inputs, tmp_path, capsys, monkeypatch):
    tangle = {"k": 2, "members": [[], [4, 5, 6], [3, 4, 5, 6]]}
    tpath = tmp_path / "tangle.json"
    tpath.write_text(json.dumps(tangle))
    argv = ["fcl", "--input", inputs["barbell.json"], "--k", "2",
            "--tangle", str(tpath), "--x", "0,1", "--verify"]
    code, out = invoke(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert data["fcl"] == [0, 1, 3, 4, 5, 6]
    assert data["oracle_agrees"]
    # a disagreeing oracle makes the command fail with both closures shown
    from tangleforge import cli
    monkeypatch.setattr(cli, "oracle_full_closure", lambda *a: 0b11)
    code, out = invoke(capsys, argv)
    assert code == 2
    assert json.loads(out) == {"x": [0, 1], "fcl": [0, 1, 3, 4, 5, 6],
                               "oracle_agrees": False, "oracle": [0, 1]}


def test_separations_r8(inputs, capsys):
    code, out = invoke(capsys, ["separations", "--input", inputs["r8.json"],
                                "--k", "4"])
    assert code == 0
    data = json.loads(out)
    assert len(data["separations"]) == 6
    assert all(len(cls) == 1 for cls in data["classes"])


def test_flower_verify_petals(inputs, capsys):
    code, out = invoke(capsys, ["flower", "--input", inputs["r8.json"], "--k", "4",
                                "--petals", "[[0,1],[2,3],[4,5],[6,7]]"])
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "anemone"
    assert data["loose_petals"] == []
    assert len(data["displayed_kS"]) == 3


def test_flower_weak_petal_is_a_verification_failure(inputs, capsys):
    # {0} lies in a member of R_8's order-4 tangle; the petal index is the
    # witness, so the command exits 2 as for a union that is not k-separating
    code, out = invoke(capsys, ["flower", "--input", inputs["r8.json"], "--k", "4",
                                "--petals", "[[0],[1,2,3,4,5,6,7]]"])
    assert code == 2
    assert json.loads(out) == {"error": "WeakPetal", "detail": "petal 0 is weak"}


def test_flower_seed_hits_obstruction(inputs, capsys):
    code, out = invoke(capsys, ["flower", "--input", inputs["r8.json"], "--k", "4",
                                "--seed-side", "0,1,2,3"])
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "non_robust_obstruction"
    assert data["witness"] == [0, 2, 4, 6]


def test_flower_dot(inputs, capsys):
    code, out = invoke(capsys, ["flower", "--input", inputs["c6.json"], "--k", "2",
                                "--petals", "[[0],[1],[2],[3],[4],[5]]", "--dot"])
    assert code == 0
    assert out.startswith("graph flower {")
    assert 'label="D"' in out


@pytest.mark.parametrize("argv", [["tree", "--dot"],
                                  ["flower", "--petals", "[[0],[1],[2],[3]]", "--dot"]])
def test_dot_labels_are_escaped(tmp_path, capsys, argv):
    # a quote or backslash in an element name is escaped inside the quoted label
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"kind": "graph", "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                "labels": ['a"b', "c", "d\\", "e"]}))
    code, out = invoke(capsys, [argv[0], "--input", str(path), "--k", "2"] + argv[1:])
    assert code == 0
    assert 'shape=box, label="{a\\"b}"];' in out
    assert 'shape=box, label="{d\\\\}"];' in out


def test_oracle_subcommand(inputs, capsys):
    code, out = invoke(capsys, ["oracle", "--input", inputs["r8.json"], "--k", "4",
                                "--max-petals", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["class_count"] == 6 and data["flower_count"] == 78


# What each subcommand needs besides --input to get past its parser.
REQUIRED = {
    "check": [],
    "tangles": ["--k", "2"],
    "fcl": ["--k", "2", "--x", "0"],
    "separations": ["--k", "2"],
    "flower": ["--k", "2", "--seed-side", "0"],
    "tree": ["--k", "2"],
    "oracle": ["--k", "2"],
}


def cycle_file(tmp_path, n):
    path = tmp_path / f"c{n}.json"
    path.write_text(json.dumps({"kind": "graph",
                                "edges": [[i, (i + 1) % n] for i in range(n)]}))
    return str(path)


def test_max_n_cap(tmp_path, capsys):
    # the library refuses n > 16 when it loads the system, on every subcommand
    path = cycle_file(tmp_path, 17)
    for command, extra in REQUIRED.items():
        code, out = invoke(capsys, [command, "--input", path] + extra)
        assert code == 3, command
        data = json.loads(out)
        assert data["error"] == "search_space_too_large", command
        assert data["detail"] == "ground set size 17 exceeds 16"


def test_oracle_runs_on_the_whole_domain(tmp_path, capsys):
    # n = 15: the engine and the oracle share the one ground-set cap
    path = cycle_file(tmp_path, 15)
    code, out = invoke(capsys, ["tangles", "--input", path, "--k", "2"])
    assert code == 0 and len(json.loads(out)) == 1
    code, out = invoke(capsys, ["oracle", "--input", path, "--k", "2"])
    report = json.loads(out)
    assert code == 0 and report["ok"] and report["flower_count"] == 1926
    # exit 0 with the tree: the oracle's certificate passed
    code, out = invoke(capsys, ["tree", "--input", path, "--k", "2", "--verify"])
    assert code == 0 and json.loads(out)["verdict"]["ok"]


@pytest.mark.parametrize("petals", ["0", "-1"])
def test_oracle_petal_cap_below_one_is_refused(inputs, capsys, petals):
    code, out = invoke(capsys, ["oracle", "--input", inputs["u26.json"], "--k", "2",
                                "--max-petals", petals])
    assert code == 1
    assert json.loads(out) == {"error": "PreconditionFailed",
                               "detail": "petal cap must be at least 1"}


README = Path(__file__).resolve().parents[1] / "README.md"


def _registered_flags():
    """Per subcommand, the long options its parser registers besides
    --input and --help."""
    subparsers = next(a for a in _parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in sp._actions for o in a.option_strings
                   if o.startswith("--")} - {"--input", "--help"}
            for name, sp in subparsers.choices.items()}


def _readme_flags():
    """The README's table under "Each subcommand takes only the flags it
    reads", as {subcommand: set of flags}."""
    rows = README.read_text().split("Each subcommand takes only the flags it reads", 1)[1]
    table = {}
    for line in rows.splitlines()[1:]:
        if table and not line.startswith("|"):
            break  # the first line after the table
        match = re.match(r"\| `(\w+)` +\|(.*)\|$", line)
        if match:
            table[match.group(1)] = set(re.findall(r"`(--[\w-]+)`", match.group(2)))
    return table


def test_basis_outside_the_ground_set_is_refused(tmp_path, capsys):
    path = tmp_path / "bases.json"
    path.write_text(json.dumps({"kind": "matroid",
                                "source": {"n": 3, "bases": [[0, 1], [0, 4]]}}))
    code, out = invoke(capsys, ["check", "--input", str(path)])
    assert code == 1
    assert json.loads(out) == {"error": "PreconditionFailed",
                               "detail": "basis [0, 4] has elements outside 0..2"}


def test_readme_flag_table_matches_the_parser():
    assert _readme_flags() == _registered_flags()


def _readme_api():
    """The README's table under "## API", as {module: set of names}."""
    rows = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in rows.splitlines():
        match = re.match(r"\| `(\w+)` +\|(.*)\|$", line)
        if match:
            table[match.group(1)] = set(re.findall(r"`(\w+)`", match.group(2)))
    return table


def test_readme_api_table_matches_the_exports():
    exported = {}
    for name in tangleforge.__all__:
        obj = getattr(tangleforge, name)
        if not isinstance(obj, types.ModuleType):
            exported.setdefault(obj.__module__.rsplit(".", 1)[1], set()).add(name)
    assert _readme_api() == exported


def test_readme_quick_start_builds_the_daisy_star_it_states():
    """The README's "Library quick start" block runs, and its tree is what
    its comment says: a daisy star, one D vertex whose six neighbours are
    one-element leaf bags, displaying all 15 classes."""
    block = README.read_text().split("\n## Library quick start\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    tree, S = scope["tree"], scope["S"]
    [(center, label)] = tree.labels.items()
    assert label == "D" and sorted(tree.adj[center]) == sorted(tree.bags)
    assert sorted(tree.bags.values()) == [1 << i for i in range(6)]
    verdict = tangleforge.verify_partial_kS_tree(scope["sys"], scope["tangle"], S, tree)
    assert len(S.classes()) == 15
    assert {S.class_id(s) for s in verdict.displayed} == set(range(15))


def test_readme_ground_set_cap_matches_the_library():
    text = README.read_text()
    stated = (re.findall(r"elements `0\.\.n-1`,\s+`n <= (\d+)`", text)
              + re.findall(r"at most (\d+) elements \(`core\.MAX_N`\)", text))
    assert [int(cap) for cap in stated] == [MAX_N, MAX_N]


def test_determinism(inputs, capsys):
    argv = ["tree", "--input", inputs["c6.json"], "--k", "2"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second
    argv = ["separations", "--input", inputs["r8.json"], "--k", "4"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second


def test_usage_error_on_missing_file(capsys):
    code, out = invoke(capsys, ["check", "--input", "/nonexistent.json"])
    assert code == 1
    assert json.loads(out)["error"] == "usage"


def test_invalid_tangle_file_reports_witness(inputs, tmp_path, capsys):
    # both a set and its complement as members break (T3)
    tangle = {"k": 4, "members": [[0], [1, 2, 3, 4, 5, 6, 7]]}
    tpath = tmp_path / "bad_tangle.json"
    tpath.write_text(json.dumps(tangle))
    code, out = invoke(capsys, ["fcl", "--input", inputs["r8.json"], "--k", "4",
                                "--tangle", str(tpath), "--x", "0,1"])
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "invalid_tangle"
    assert any(v["axiom"] == "T3" for v in data["report"])


def test_S_file_that_is_not_tree_compatible_is_refused(inputs, tmp_path, capsys):
    # {0,1} is in S but the strong side {0,1,2} above it is not: (S2)
    spath = tmp_path / "bad_S.json"
    spath.write_text(json.dumps({"sets": [[0, 1], [2, 3, 4, 5]]}))
    code, out = invoke(capsys, ["tree", "--input", inputs["c6.json"], "--k", "2",
                                "--S", str(spath), "--verify"])
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "invalid_S"
    assert data["report"][0] == {"axiom": "S2", "witness": [[0, 1], [0, 1, 2]]}


def test_S_file_copying_the_default_is_accepted(ctx_c6, inputs, tmp_path, capsys):
    sys = ctx_c6.sys
    sets = [elements_of(x) for x in range(1 << sys.n) if ctx_c6.S.contains(x)]
    spath = tmp_path / "default_S.json"
    spath.write_text(json.dumps({"sets": sets}))
    argv = ["tree", "--input", inputs["c6.json"], "--k", "2", "--verify"]
    code, out = invoke(capsys, argv + ["--S", str(spath)])
    assert code == 0
    assert out == invoke(capsys, argv)[1]


def test_separations_verify(inputs, capsys, monkeypatch):
    argv = ["separations", "--input", inputs["r8.json"], "--k", "4", "--verify"]
    code, out = invoke(capsys, argv)
    assert code == 0 and json.loads(out)["oracle_agrees"]
    # a disagreeing oracle makes the command fail with both partitions shown
    from tangleforge import cli
    monkeypatch.setattr(cli, "oracle_classes", lambda *a: [])
    code, out = invoke(capsys, argv)
    data = json.loads(out)
    assert code == 2 and not data["oracle_agrees"] and data["oracle"] == []
    assert len(data["classes"]) == 6


def test_flower_verify(inputs, capsys, monkeypatch):
    argv = ["flower", "--input", inputs["c6.json"], "--k", "2",
            "--petals", "[[0],[1],[2],[3],[4],[5]]", "--verify"]
    code, out = invoke(capsys, argv)
    data = json.loads(out)
    assert code == 0 and data["oracle_agrees"] and data["class"] == "daisy"
    # a disagreeing literal classification makes the command fail
    from tangleforge import cli
    monkeypatch.setattr(cli, "_flower_class_literal", lambda *a: "anemone")
    code, out = invoke(capsys, argv)
    data = json.loads(out)
    assert code == 2 and not data["oracle_agrees"]
    assert (data["class"], data["oracle_class"]) == ("daisy", "anemone")
    assert data["displayed_kS"] == data["oracle_displayed_kS"]


def test_tangles_verify(inputs, capsys, monkeypatch):
    argv = ["tangles", "--input", inputs["barbell.json"], "--k", "2"]
    _, plain = invoke(capsys, argv)
    code, out = invoke(capsys, argv + ["--verify"])
    data = json.loads(out)
    assert code == 0 and all(t["verified"] for t in data)
    assert [{k: v for k, v in t.items() if k != "verified"} for t in data] == json.loads(plain)
    # a tangle failing its axioms makes the command fail with the witness
    from tangleforge import cli
    from tangleforge.core import Violation
    monkeypatch.setattr(cli, "verify_tangle", lambda *a: [Violation("T3", (0b111, 0b1111000))])
    code, out = invoke(capsys, argv + ["--verify"])
    data = json.loads(out)
    assert code == 2 and not any(t["verified"] for t in data)
    assert data[0]["violations"] == [{"axiom": "T3", "witness": [[0, 1, 2], [3, 4, 5, 6]]}]


def test_oracle_verify_is_rejected(inputs, capsys):
    code, out = invoke(capsys, ["oracle", "--input", inputs["r8.json"], "--k", "4",
                                "--verify"])
    assert code == 1 and json.loads(out)["error"] == "usage"


C6_SYSTEM = {"kind": "graph", "edges": [list(e) for e in C6_EDGES]}


@pytest.mark.parametrize("system, argv, extra", [
    ({"kind": "graph"}, ["check"], None),
    ([[0, 1], [1, 2]], ["check"], None),
    ({"kind": "matroid", "source": {"uniform": {"r": 2}}}, ["check"], None),
    (C6_SYSTEM, ["flower", "--k", "2", "--petals", "5"], None),
    (C6_SYSTEM, ["flower", "--k", "2", "--petals", '[[0,1,2],[3,"a"]]'], None),
    (C6_SYSTEM, ["separations", "--k", "2", "--S"], [[0, 1]]),
    (C6_SYSTEM, ["fcl", "--k", "2", "--x", "0", "--tangle"], {"members": [[0]]}),
], ids=["graph-without-edges", "system-list", "uniform-without-n", "petals-not-a-list",
        "petal-with-a-string", "S-file-list", "tangle-without-k"])
def test_malformed_json_is_a_usage_error(tmp_path, capsys, system, argv, extra):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    argv = [argv[0], "--input", str(path)] + argv[1:]
    if extra is not None:
        extra_path = tmp_path / "extra.json"
        extra_path.write_text(json.dumps(extra))
        argv.append(str(extra_path))
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in json.loads(captured.out)
    assert "Traceback" not in captured.err


def test_flower_takes_petals_or_seed_side_not_both(inputs, capsys):
    argv = ["flower", "--input", inputs["r8.json"], "--k", "4"]
    code, out = invoke(capsys, argv + ["--petals", "[[0,1],[2,3],[4,5],[6,7]]",
                                       "--seed-side", "0,1,2,3"])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "usage" and "--seed-side" in data["detail"]
    code, out = invoke(capsys, argv)
    assert code == 1
    assert json.loads(out)["detail"] == "flower needs --petals or --seed-side"


def test_missing_required_flag_is_a_usage_error(inputs, capsys):
    code, out = invoke(capsys, ["tangles", "--input", inputs["r8.json"]])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "usage" and "--k" in data["detail"]


def test_unknown_flag_is_a_usage_error(inputs, capsys):
    code, out = invoke(capsys, ["tree", "--input", inputs["u26.json"], "--k", "2",
                                "--no-such-flag"])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "usage" and "--no-such-flag" in data["detail"]


@pytest.mark.parametrize("command, extra", [
    ("check", ["--k", "2"]),
    ("tangles", ["--seed", "1"]),
    ("tangles", ["--dot"]),
    ("tangles", ["--tangle", "canonical"]),
    ("tangles", ["--S", "default"]),
    ("fcl", ["--S", "default"]),
    ("fcl", ["--dot"]),
    ("separations", ["--dot"]),
    ("flower", ["--seed", "1"]),
    ("tree", ["--seed", "1"]),
    ("oracle", ["--dot"]),
    ("check", ["--seed", "0"]),
] + [(command, ["--max-n", "4"]) for command in REQUIRED])
def test_flags_a_subcommand_does_not_read_are_rejected(inputs, capsys, command, extra):
    argv = [command, "--input", inputs["u26.json"]]
    if command != "check":
        argv += ["--k", "2"]
    if command == "fcl":
        argv += ["--x", "0"]
    code, out = invoke(capsys, argv + extra)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "usage" and extra[0] in data["detail"]


@pytest.mark.parametrize("x", ["", " "], ids=["empty", "blank"])
def test_fcl_of_no_element_is_refused(inputs, capsys, x):
    # an empty --x names the empty set, which is weak in every tangle
    code, out = invoke(capsys, ["fcl", "--input", inputs["c6.json"], "--k", "2", "--x", x])
    assert code == 1
    assert json.loads(out) == {"error": "PreconditionFailed",
                               "detail": "set is weak in the tangle"}
