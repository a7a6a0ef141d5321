import hashlib
import json
import os
import subprocess
import sys

import pytest

import kacmax
from kacmax.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def lines_of(out):
    # keep trailing empty fields: rows may legitimately end in a tab
    return out.splitlines()


def test_max_weights_table(capsys):
    code, out, err = run(capsys, "max-weights", "--n", "6", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m"
    assert lines[1] == "(0,0,0,0,0,0)"
    assert lines[2] == "(1,0,0,0,0,0)"
    assert lines[-2] == "(4,3,2,1,0,2)"
    assert lines[-1] == "count\t10"
    assert len(lines) == 12


def test_max_weights_json(capsys):
    code, out, _ = run(
        capsys, "max-weights", "--n", "4", "--k", "2", "--s", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {
        "count": 2,
        "k": 2,
        "n": 4,
        "s": 1,
        "weights": [[0, 0, 0, 0], [1, 1, 0, 0]],
    }


def test_count_agreement(capsys):
    code, out, _ = run(capsys, "count", "--n", "9", "--k", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["n\tk\ts\tcount\tformula\tagree", "9\t4\t0\t55\t55\ttrue"]


def test_count_marked_node_has_no_formula(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--k", "2", "--s", "2")
    assert code == 0
    row = lines_of(out)[1].split("\t")
    assert row == ["5", "2", "2", "3", "", ""]


def test_multiplicity_default_backend(capsys):
    code, out, _ = run(capsys, "multiplicity", "--ell", "4", "--k", "3")
    assert code == 0
    lines = lines_of(out)
    assert lines[0] == "ell\tk\tbackend\tmultiplicity\tnote"
    assert lines[1] == "4\t3\tpaths\t23\t"


def test_multiplicity_check_all(capsys):
    code, out, _ = run(capsys, "multiplicity", "--ell", "3", "--k", "2", "--check-all")
    assert code == 0
    assert lines_of(out)[1:] == [
        "3\t2\tpaths\t5\t",
        "3\t2\tpatterns\t5\tconjectural",
        "3\t2\tcrystal\t5\t",
    ]


def test_multiplicity_json(capsys):
    code, out, _ = run(
        capsys, "multiplicity", "--ell", "4", "--k", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "agree": True,
        "conjectural": [],
        "ell": 4,
        "k": 3,
        "n": 8,
        "values": {"paths": 23},
    }


# the table block shown in README.md
README_TABLE = """\
ell\tk=2\tk=3\tk=4\tk=5
1\t1\t1\t1\t1
2\t2\t2\t2\t2
3\t5\t6\t6\t6
4\t14\t23\t24\t24
5\t42\t103\t119\t120
6\t132\t513\t694\t719
"""


def test_table_row_of_ones(capsys):
    code, out, _ = run(capsys, "table", "--ell-max", "1", "--k-max", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["ell"] + [f"k={k}" for k in range(2, 10)]
    assert lines[1].split("\t") == ["1"] + ["1"] * 8
    # the cells are assembled row by row in the order of the header
    code, out, _ = run(capsys, "table", "--ell-max", "6", "--k-max", "5")
    assert (code, out) == (0, README_TABLE)
    code, out, _ = run(capsys, "table", "--ell-max", "6", "--k-max", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == [2, 3, 4, 5]
    assert [[row["ell"]] + row["values"] for row in data["rows"]] == [
        [int(v) for v in line.split("\t")] for line in README_TABLE.splitlines()[1:]
    ]


def test_crystal_table_tallies_one_search_per_ell(capsys):
    # the crystal table runs one search per ell at the largest k and tallies
    # its elements by their nonempty diagrams; every cell must still equal
    # its own search, and the path DP's cell
    from kacmax.young_crystal import enumerate_weight_space

    argv = ("table", "--k-min", "1", "--ell-max", "5", "--k-max", "4")
    rows = [
        [ell] + [len(enumerate_weight_space(ell, k)) for k in range(1, 5)]
        for ell in range(1, 6)
    ]
    code, out, _ = run(capsys, *argv, "--oracle", "crystal")
    assert code == 0
    assert lines_of(out)[1:] == ["\t".join(map(str, row)) for row in rows]
    assert run(capsys, *argv, "--oracle", "paths") == (0, out, "")
    for oracle in ("crystal", "paths"):
        code, out, _ = run(capsys, *argv, "--oracle", oracle, "--format", "json")
        assert code == 0, oracle
        data = json.loads(out)
        assert [[row["ell"]] + row["values"] for row in data["rows"]] == rows, oracle


def test_bijection_perm_to_path(capsys):
    code, out, _ = run(capsys, "bijection", "--perm", "1342")
    assert code == 0
    assert out.strip() == "RRUURURU"


def test_bijection_path_to_perm(capsys):
    code, out, _ = run(capsys, "bijection", "--path", "RRURUURU")
    assert code == 0
    assert out.strip() == "3142"


def test_bijection_single_letter(capsys):
    code, out, _ = run(capsys, "bijection", "--perm", "1")
    assert code == 0
    assert out.strip() == "RU"


def test_bijection_paths_to_diagrams(capsys):
    code, out, _ = run(capsys, "bijection", "--paths", "RURU;RURU")
    assert code == 0
    assert out.strip() == "[-2,-1];[-1];[]"


def test_bijection_diagrams_to_paths(capsys):
    code, out, _ = run(capsys, "bijection", "--ytuple", "[-2,-1];[-1];[]")
    assert code == 0
    assert out.strip() == "RURU;RURU"


def test_verify_count(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "count", "--n-max", "6", "--k-max", "3"
    )
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])
    # without --n-max the grid runs to n = 8
    code, out, _ = run(capsys, "verify", "--conjecture", "count", "--k-max", "1")
    assert code == 0 and out.splitlines()[-1].startswith("8\t1\t")


def test_verify_multiplicity(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "multiplicity", "--ell-max", "4", "--k-max", "3"
    )
    assert code == 0
    # without --ell-max the grid runs to ell = 6
    code, out, _ = run(capsys, "verify", "--conjecture", "multiplicity", "--k-max", "2")
    assert code == 0 and out.splitlines()[-1].startswith("6\t2\t")
    # the grid at benchmark size, pinned to the output of the per-cell loop
    # that computed every cell by its own count_T and count_avoiding call
    for argv, want in (
        (("--ell-max", "29", "--k-max", "7"),
         "c0c4085461c9e0fcf4bc18f340413d57902d69939b419ca4a659c586a1d4b813"),
        (("--ell-max", "27", "--k-max", "8", "--format", "json"),
         "15ec44f7c07cae6820615739ee5563e86c09fe61fab39206b016e81eecf9679a"),
    ):
        code, out, _ = run(capsys, "verify", "--conjecture", "multiplicity", *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


def tsv_cell(value):
    # the TSV cell rule: a bool prints as true/false, a value that does not
    # apply (JSON null) as an empty cell, anything else as str() does
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_tsv_and_json_carry_the_same_cells(capsys):
    def both(*argv):
        code, tsv, _ = run(capsys, *argv)
        assert code == 0, argv
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        header, *rows = [line.split("\t") for line in lines_of(tsv)]
        return header, rows, json.loads(out)

    # count and verify: one JSON record per TSV row, keyed by the header
    for argv in (
        ("count", "--n", "9", "--k", "4"),
        ("count", "--n", "5", "--k", "2", "--s", "2"),
        ("verify", "--conjecture", "count", "--n-max", "5", "--k-max", "3"),
        ("verify", "--conjecture", "multiplicity", "--ell-max", "4", "--k-max", "3"),
    ):
        header, rows, data = both(*argv)
        records = data["rows"] if argv[0] == "verify" else [data]
        assert all(set(record) == set(header) for record in records), argv
        assert rows == [[tsv_cell(record[h]) for h in header] for record in records], argv
    # at s > 0 there is no formula to check against
    header, rows, data = both("count", "--n", "5", "--k", "2", "--s", "2")
    assert (data["formula"], data["agree"]) == (None, None)
    assert rows[0][-2:] == ["", ""]

    header, rows, data = both("multiplicity", "--ell", "4", "--k", "3", "--check-all")
    assert header == ["ell", "k", "backend", "multiplicity", "note"]
    assert data["agree"] is True
    assert sorted(rows) == sorted(
        [tsv_cell(data["ell"]), tsv_cell(data["k"]), name, tsv_cell(value),
         "conjectural" if name in data["conjectural"] else ""]
        for name, value in data["values"].items()
    )

    header, rows, data = both("table", "--ell-max", "5", "--k-min", "1", "--k-max", "4")
    assert header == ["ell"] + [f"k={k}" for k in data["k"]]
    assert rows == [[tsv_cell(r["ell"]), *map(tsv_cell, r["values"])] for r in data["rows"]]


def test_usage_errors(capsys):
    assert run(capsys, "max-weights")[0] == 1  # missing --n/--k
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "bijection", "--perm", "321")[0] == 1
    assert run(capsys, "bijection", "--path", "URRU")[0] == 1
    assert run(capsys, "multiplicity", "--ell", "0", "--k", "2")[0] == 1
    # empty grids: a header with no rows would read as agreement
    for argv in (
        ("table", "--ell-max", "0", "--k-max", "3"),
        ("verify", "--conjecture", "count", "--n-max", "1"),
        ("verify", "--conjecture", "count", "--k-max", "0"),
        ("verify", "--conjecture", "multiplicity", "--ell-max", "0"),
        ("verify", "--conjecture", "multiplicity", "--k-max", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "grid would be empty" in err, argv
    # each conjecture's range flag is refused by the other, not ignored
    for argv, flag in (
        (("verify", "--conjecture", "multiplicity", "--n-max", "0"), "--n-max"),
        (("verify", "--conjecture", "count", "--ell-max", "0"), "--ell-max"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and flag in err, argv
    # out-of-range budgets and k; the grid oracles have no per-cell check to trip
    for argv in (
        ("multiplicity", "--ell", "3", "--k", "2", "--oracle", "crystal", "--node-budget", "-5"),
        ("table", "--oracle", "crystal", "--ell-max", "2", "--k-max", "2", "--node-budget", "-5"),
        ("table", "--ell-max", "3", "--k-max", "3", "--node-budget", "-1"),
        ("table", "--ell-max", "3", "--k-max", "3", "--k-min", "0"),
        ("table", "--ell-max", "3", "--k-max", "3", "--k-min", "-1"),
        ("table", "--oracle", "patterns", "--ell-max", "3", "--k-max", "3", "--k-min", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:"), argv
    code, out, err = run(capsys, "table", "--ell-max", "3", "--k-min", "5", "--k-max", "3")
    assert (code, out) == (1, "")
    assert err == "error: --k-min 5 exceeds --k-max 3\n"
    # input outside the path/diagram bijection's domain
    for argv in (
        ("bijection", "--paths", "RRUU;RURU"),
        ("bijection", "--paths", "UR"),
        ("bijection", "--ytuple", "[];[-1]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:"), argv
    # an empty path segment would change k; an empty permutation entry is no integer
    for argv, message in (
        (("bijection", "--paths", "RURU;;RURU"), "path 2 of 'RURU;;RURU' is empty"),
        (("bijection", "--paths", ";RURU;RURU"), "path 1 of ';RURU;RURU' is empty"),
        (("bijection", "--paths", "RURU;RURU;"), "path 3 of 'RURU;RURU;' is empty"),
        (("bijection", "--paths", ";"), "path 1 of ';' is empty"),
        (("bijection", "--paths", ""), "need at least one path"),
        (("bijection", "--perm", "1,,2"), "permutation entries must be integers, got '1,,2'"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {message}\n", argv
    # a crystal element whose diagram leaves the 2x2 square
    code, out, err = run(capsys, "bijection", "--ytuple", "[-3];[-1]")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "region (3,) does not fit the 2x2 square" in err
    # crystal elements that the inverse refuses at each of its three checks:
    # a cumulative stage that is no diagram, a chain that leaves part of the
    # square uncovered, and a cumulative diagram wider than the square
    for ytuple, message in (
        ("[-3];[-3];[-3]", "no diagram has the color counts {-2: 2, -1: 2, 0: 2}"),
        ("[-2];[-2]", "diagram chain does not fill the colored square"),
        ("[-2,-1,-1];[]", "cumulative region (2, 1, 1) does not fit the 2x2 square"),
    ):
        code, out, err = run(capsys, "bijection", "--ytuple", ytuple)
        assert (code, out) == (1, ""), ytuple
        assert err == f"error: {message}\n", ytuple
    # diagrams whose boxes fill no square, empty ones included: the message
    # names the box count and offers no flag, as none could help
    for ytuple, boxes in (("[-1,-1];[]", 2), ("[-2,-1];[-1,-1]", 5), ("[]", 0), ("[];[]", 0)):
        code, out, err = run(capsys, "bijection", "--ytuple", ytuple)
        assert (code, out) == (1, ""), ytuple
        assert err == f"error: the diagrams hold {boxes} boxes, not ell^2 for any ell >= 1\n"
        assert "--" not in err, ytuple


def test_rank_flags_are_gone(capsys):
    # no multiplicity command reads a rank, so none takes --n, and --ytuple
    # reads ell off its box count; argparse refuses the old flags, and since
    # flags are matched whole, `multiplicity --n` is not `--node-budget`
    for argv, flag in (
        (("multiplicity", "--ell", "3", "--k", "2", "--n", "6"), "--n"),
        (("bijection", "--paths", "RURU;RURU", "--n", "4"), "--n"),
        (("bijection", "--ytuple", "[-2,-1];[-1];[]", "--ell", "2"), "--ell"),
        (("bijection", "--perm", "1342", "--n", "5"), "--n"),
        (("bijection", "--path", "RRUURURU", "--n", "5"), "--n"),
        (("bijection", "--perm", "1342", "--ell", "2"), "--ell"),
        (("bijection", "--path", "RRUURURU", "--ell", "7"), "--ell"),
        (("bijection", "--paths", "RURU;RURU", "--ell", "9"), "--ell"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: unrecognized arguments:") and flag in err, argv
    # no other flag is taken by a prefix either
    for argv in (
        ("multiplicity", "--ell", "3", "--k", "2", "--check"),
        ("verify", "--conjecture", "count", "--n", "4"),
        ("table", "--ell-max", "2", "--k-max", "2", "--form", "json"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: unrecognized arguments:"), argv
    # the JSON record still names the rank the multiplicity is read at
    for ell in (1, 3, 6):
        code, out, _ = run(
            capsys, "multiplicity", "--ell", str(ell), "--k", "2", "--check-all",
            "--format", "json",
        )
        assert code == 0, ell
        assert f'"n":{2 * ell},' in out, ell


def test_budget_guard_exit_code(capsys):
    code, _, err = run(
        capsys,
        "multiplicity", "--ell", "8", "--k", "3",
        "--oracle", "crystal", "--node-budget", "1000",
    )
    assert code == 3
    assert "resource guard" in err
    assert "--oracle paths" in err


def test_budget_guard_exit_code_during_search(capsys):
    # the up-front refusal lets these through; the in-search guard stops them
    for argv in (
        ("multiplicity", "--ell", "2", "--k", "2", "--oracle", "crystal", "--node-budget", "4"),
        ("table", "--oracle", "crystal", "--ell-max", "3", "--k-max", "3", "--node-budget", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert "resource guard: search exceeded 4 states" in err, argv
        assert out == "", argv


def test_up_front_refusal_names_the_k_given(capsys):
    # the searches run at min(k, ell) levels, and the refusal names the k
    # the user gave; the table's k is --k-max, and its search at ell = 1
    # fits in the budget of 2 states
    for argv, want in (
        (("multiplicity", "--ell", "3", "--k", "4", "--oracle", "crystal", "--node-budget", "4"),
         "resource guard: at least 6 states at ell=3, k=4, beyond the budget of 4 states"),
        (("table", "--oracle", "crystal", "--ell-max", "2", "--k-max", "3", "--node-budget", "2"),
         "resource guard: at least 3 states at ell=2, k=3, beyond the budget of 2 states"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert want in err, argv
        assert out == "", argv


def test_more_diagrams_than_boxes(capsys):
    # at most ell diagrams of a chain are nonempty, so every route works at
    # min(k, ell); the crystal search over all k levels recursed past the
    # interpreter's limit
    for ell, k, want in ((3, 600, "6"), (1, 2000, "1"), (4, 10**6, "24")):
        code, out, err = run(capsys, "multiplicity", "--ell", str(ell), "--k", str(k), "--check-all")
        assert (code, err) == (0, ""), (ell, k)
        assert [row.split("\t")[3] for row in lines_of(out)[1:]] == [want] * 3, (ell, k)
    code, out, err = run(capsys, "table", "--oracle", "crystal", "--ell-max", "3", "--k-max", "600")
    assert (code, err) == (0, "")
    assert [row.split("\t")[-1] for row in lines_of(out)[1:]] == ["1", "2", "6"]
    assert run(capsys, "table", "--ell-max", "3", "--k-max", "600") == (0, out, "")


def test_disagreement_exit_code(capsys, monkeypatch):
    # an independent value off by one must exit 2 and say where
    import kacmax.maximal_weights as maximal_weights
    from kacmax import cli

    formula = maximal_weights.count_formula
    monkeypatch.setattr(maximal_weights, "count_formula", lambda n, k: formula(n, k) + 1)
    patterns = cli._BACKENDS["patterns"]
    monkeypatch.setitem(cli._BACKENDS, "patterns", cli._Backend(
        lambda ell, k, budget: patterns.cell(ell, k, budget) + 1,
        lambda ell_max, ks, budget: {
            c: v + 1 for c, v in patterns.table(ell_max, ks, budget).items()
        },
    ))
    for argv, message in (
        (("count", "--n", "9", "--k", "4"), "count formula disagrees at n=9, k=4"),
        (("multiplicity", "--ell", "3", "--k", "2", "--check-all"),
         "backends disagree at ell=3, k=2: {'paths': 5, 'patterns': 6, 'crystal': 5}"),
        (("verify", "--conjecture", "count", "--n-max", "3", "--k-max", "2"),
         "4 grid cells disagree"),
        (("verify", "--conjecture", "multiplicity", "--ell-max", "3", "--k-max", "2"),
         "3 grid cells disagree"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, message + "\n"), argv


def _modules_loaded(*argv):
    """The modules a fresh interpreter holds after `import kacmax.cli` and,
    when argv is given, `kacmax <argv>` with its stdout discarded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kacmax.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import io, sys\n"
        "import kacmax.cli\n"
        "if sys.argv[1:]:\n"
        "    out, sys.stdout = sys.stdout, io.StringIO()\n"
        "    code = kacmax.cli.main(sys.argv[1:])\n"
        "    sys.stdout = out\n"
        "    assert code == 0, code\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_imports_no_process_machinery():
    # a fresh interpreter, because this one may have loaded them for pytest;
    # every command pays for what importing the CLI loads.  Without the
    # `concurrent` package its `futures` submodule cannot be loaded either.
    assert not _modules_loaded() & {"multiprocessing", "concurrent"}


def test_commands_load_only_what_they_run():
    # importing the CLI compiles no library module and no dataclasses
    # machinery; each command then loads only the route it runs, and a
    # multiplicity DP loads neither the other DP nor the crystal model;
    # the permutation bijection loads no crystal model, and TSV output,
    # which every run here prints, loads no `json`
    loaded = _modules_loaded()
    assert not loaded & {"dataclasses", "inspect"}
    assert {m for m in loaded if m.startswith("kacmax.")} == {"kacmax.cli"}
    multiplicity_routes = {"kacmax.lattice_paths", "kacmax.young_crystal", "kacmax.patterns"}
    weight_lists = {"kacmax.tuple_sets", "kacmax.maximal_weights"}
    crystal = {"kacmax.young_crystal", "kacmax.affine_core"}
    not_paths = weight_lists | crystal | {"kacmax.patterns"}
    not_patterns = weight_lists | crystal | {"kacmax.lattice_paths"}
    for argv, never in (
        (("max-weights", "--n", "6", "--k", "3"), multiplicity_routes),
        (("count", "--n", "6", "--k", "3"), multiplicity_routes),
        (("verify", "--conjecture", "count", "--n-max", "4", "--k-max", "3"), multiplicity_routes),
        (("multiplicity", "--ell", "5", "--k", "3", "--oracle", "paths"), not_paths),
        (("multiplicity", "--ell", "5", "--k", "3", "--oracle", "patterns"), not_patterns),
        (("table", "--oracle", "paths", "--ell-max", "3", "--k-max", "3"), not_paths),
        (("table", "--oracle", "patterns", "--ell-max", "3", "--k-max", "3"), not_patterns),
        (("verify", "--conjecture", "multiplicity", "--ell-max", "3", "--k-max", "3"),
         weight_lists | crystal),
        (("bijection", "--perm", "1342"), weight_lists | crystal),
    ):
        loaded = _modules_loaded(*argv)
        never = never | {"json"}
        assert not loaded & never, (argv, sorted(loaded & never))
        assert not loaded & {"dataclasses", "inspect"}, argv


def test_one_node_budget_default():
    # the CLI keeps its own copy of the crystal search's default, so that
    # starting it loads no crystal model; README states both as 10^8
    import inspect

    from kacmax.cli import DEFAULT_NODE_BUDGET
    from kacmax.young_crystal import enumerate_weight_space

    search_default = inspect.signature(enumerate_weight_space).parameters["node_budget"].default
    assert DEFAULT_NODE_BUDGET == search_default == 10**8


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "max-weights" in out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
