import json

import pytest

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


def test_table_row_of_ones(capsys):
    code, out, _ = run(capsys, "table", "--ell-max", "1", "--k-max", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["ell"] + [f"k={k}" for k in range(2, 10)]
    assert lines[1].split("\t") == ["1"] + ["1"] * 8


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
    code, out, _ = run(capsys, "bijection", "--paths", "RURU;RURU", "--n", "4")
    assert code == 0
    assert out.strip() == "[-2,-1];[-1];[]"


def test_bijection_diagrams_to_paths(capsys):
    code, out, _ = run(capsys, "bijection", "--ytuple", "[-2,-1];[-1];[]", "--n", "4")
    assert code == 0
    assert out.strip() == "RURU;RURU"


def test_verify_count(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "count", "--n-max", "6", "--k-max", "3"
    )
    assert code == 0
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_verify_multiplicity(capsys):
    code, out, _ = run(
        capsys, "verify", "--conjecture", "multiplicity", "--ell-max", "4", "--k-max", "3"
    )
    assert code == 0


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


def test_bad_thread_env(capsys, monkeypatch):
    # the worker pool is only consulted by the grid commands
    monkeypatch.setenv("KACMAX_THREADS", "zero")
    assert run(capsys, "table", "--ell-max", "2", "--k-max", "3")[0] == 1
    monkeypatch.setenv("KACMAX_THREADS", "0")
    assert run(capsys, "table", "--ell-max", "2", "--k-max", "3")[0] == 1
    monkeypatch.setenv("KACMAX_THREADS", "1")
    code, out, _ = run(capsys, "table", "--ell-max", "2", "--k-max", "3")
    assert code == 0
    assert lines_of(out)[1:] == ["1\t1\t1", "2\t2\t2"]


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
    # the up-front refusal lets this through; the in-search guard stops it
    code, _, err = run(
        capsys,
        "multiplicity", "--ell", "1", "--k", "10",
        "--oracle", "crystal", "--node-budget", "4",
    )
    assert code == 3
    assert "resource guard" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "max-weights" in out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
