"""Command-line front end: tables, cross-checks, and the bijections.

Exit codes: 0 on success (and on agreement for the verification commands),
1 on usage or domain errors, 2 when independently computed values disagree,
3 when a search refuses to run or runs past its node budget.  Output is
deterministic; TSV is the default, JSON is available via --format json.

Every table command returns through one writer, `_report`: it prints the
JSON object, or the TSV header and rows joined by tabs, and on a failed
check prints the disagreement line to stderr and returns exit code 2.  The
TSV cell rule applies to the tables with an `agree` column, the only ones
that hold bools and values that do not apply: a bool prints as true/false
and None as an empty cell (JSON prints them as true/false and null).

Each command imports the library modules it runs when it runs, so a
max-weights job never compiles the multiplicity routes and a multiplicity
job never compiles the tuple sets.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter, namedtuple
from itertools import chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_RESOURCE = 3

DEFAULT_NODE_BUDGET = 10**8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # flags are matched whole: with abbreviations on, a removed flag could
    # still parse as a longer one (`multiplicity --n` as `--node-budget`)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad arguments; the contract here
    # reserves 2 for genuine disagreements, so route usage errors to 1
    def error(self, message):
        raise _UsageError(message)


def _require_at_least(flag, value, low):
    # an empty grid would print only a header and exit 0, which reads as agreement
    if value < low:
        raise _UsageError(f"{flag} must be >= {low}, got {value}; the grid would be empty")


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _report(args, header, rows, obj, disagreement=None):
    # rows are read only for TSV, so a JSON run formats no TSV row; only a
    # table with an `agree` column holds bools or None, so only its cells go
    # through the cell rule, and a long weight list costs no per-cell work
    if args.format == "json":
        import json

        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(*header, sep="\t")
        if header[-1] == "agree":
            rows = (["" if v is None else str(v).lower() if v is True or v is False else v
                     for v in row] for row in rows)
        for row in rows:
            print(*row, sep="\t")
    if disagreement:
        print(disagreement, file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


# -- multiplicity backends ---------------------------------------------------
# `cell(ell, k, node_budget)` gives the multiplicity of k*Lambda_0 - gamma_ell,
# which is the same at every rank n >= 2*ell, so no backend takes a rank;
# `table(ell_max, ks, node_budget)` gives {(ell, k): multiplicity} for every
# 1 <= ell <= ell_max and k in ks (and possibly more cells).

def _mult_paths(ell, k, _node_budget):
    from .lattice_paths import count_T

    return count_T(ell, k)


def _table_paths(ell_max, ks, _node_budget):
    from .lattice_paths import count_T_grid

    return count_T_grid(ell_max, ks[-1])


def _mult_patterns(ell, k, _node_budget):
    from .patterns import count_avoiding

    return count_avoiding(ell, k)


def _table_patterns(ell_max, ks, _node_budget):
    from .patterns import count_avoiding_grid

    return count_avoiding_grid(ell_max, ks[-1])


# padding a chain of j nonempty diagrams with empty ones is a bijection onto
# the k-chains with j nonempty members (the color content does not change,
# and membership does not either, as the wrap pair covers every column), and
# at most ell members are nonempty, so the searches run at min(k, ell)

def _crystal_search(ell, k, node_budget):
    # the up-front refusal is the same at k and at min(k, ell), and is made
    # at k, so that it names the k the user gave; an ell below 1 is refused
    # there too, by name
    from .young_crystal import _refuse_up_front, enumerate_weight_space

    _refuse_up_front(ell, k, node_budget)
    return enumerate_weight_space(ell, min(k, ell), node_budget=node_budget)


def _mult_crystal(ell, k, node_budget):
    return len(_crystal_search(ell, k, node_budget))


def _table_crystal(ell_max, ks, node_budget):
    # one search per ell, at the largest k; cell (ell, k) counts the
    # elements with at most k nonempty diagrams
    grid = {}
    for ell in range(1, ell_max + 1):
        els = _crystal_search(ell, ks[-1], node_budget)
        nonempty = Counter(sum(1 for y in el if y.entries) for el in els)
        for k in ks:
            grid[ell, k] = sum(m for j, m in nonempty.items() if j <= k)
    return grid


_Backend = namedtuple("_Backend", "cell table")
_BACKENDS = {
    "paths": _Backend(_mult_paths, _table_paths),
    "patterns": _Backend(_mult_patterns, _table_patterns),
    "crystal": _Backend(_mult_crystal, _table_crystal),
}
_CONJECTURAL = {"patterns"}


def _cmd_max_weights(args):
    from .maximal_weights import maximal_dominant_weights
    from .tuple_sets import format_x

    rep = maximal_dominant_weights(args.n, args.k, args.s)
    # JSON writes a tuple as an array, so the weights go in as they are
    ms = [w.m for w in rep.weights]
    obj = {"n": rep.n, "k": rep.k, "s": rep.s, "count": rep.count, "weights": ms}
    return _report(args, ("m",), chain(zip(map(format_x, ms)), [("count", rep.count)]), obj)


def _cmd_count(args):
    from .maximal_weights import maximal_dominant_weights

    rep = maximal_dominant_weights(args.n, args.k, args.s)
    row = (rep.n, rep.k, rep.s, rep.count, rep.formula_count, rep.agree)
    header = ("n", "k", "s", "count", "formula", "agree")
    bad = f"count formula disagrees at n={rep.n}, k={rep.k}" if rep.agree is False else None
    return _report(args, header, [row], dict(zip(header, row)), bad)


def _cmd_multiplicity(args):
    names = list(_BACKENDS) if args.check_all else [args.oracle]
    values = {name: _BACKENDS[name].cell(args.ell, args.k, args.node_budget) for name in names}
    agree = len(set(values.values())) == 1
    obj = {"ell": args.ell, "k": args.k, "n": 2 * args.ell, "values": values,
           "conjectural": sorted(set(names) & _CONJECTURAL), "agree": agree}
    rows = ((args.ell, args.k, name, values[name], "conjectural" if name in _CONJECTURAL else "")
            for name in names)
    bad = None if agree else f"backends disagree at ell={args.ell}, k={args.k}: {values}"
    return _report(args, ("ell", "k", "backend", "multiplicity", "note"), rows, obj, bad)


def _cmd_table(args):
    _require_at_least("--ell-max", args.ell_max, 1)
    if args.k_min < 1:
        raise _UsageError(f"--k-min must be >= 1, got {args.k_min}")
    if args.k_min > args.k_max:
        raise _UsageError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    ks = list(range(args.k_min, args.k_max + 1))
    grid = _BACKENDS[args.oracle].table(args.ell_max, ks, args.node_budget)
    rows = [[ell] + [grid[(ell, k)] for k in ks] for ell in range(1, args.ell_max + 1)]
    obj = {"oracle": args.oracle, "conjectural": args.oracle in _CONJECTURAL, "k": ks,
           "rows": [{"ell": ell, "values": values} for ell, *values in rows]}
    return _report(args, ["ell"] + [f"k={k}" for k in ks], rows, obj)


def _cmd_verify(args):
    # each conjecture has its own range flag; the other one would be ignored
    if args.conjecture == "count" and args.ell_max is not None:
        raise _UsageError("--ell-max applies only to --conjecture multiplicity")
    if args.conjecture == "multiplicity" and args.n_max is not None:
        raise _UsageError("--n-max applies only to --conjecture count")
    if args.conjecture == "count":
        from .maximal_weights import verify_count_conjecture

        n_max = 8 if args.n_max is None else args.n_max
        _require_at_least("--n-max", n_max, 2)
        _require_at_least("--k-max", args.k_max, 1)
        header = ("n", "k", "count", "formula", "agree")
        rows = verify_count_conjecture(n_max, args.k_max)
    else:
        ell_max = 6 if args.ell_max is None else args.ell_max
        _require_at_least("--ell-max", ell_max, 1)
        _require_at_least("--k-max", args.k_max, 2)
        ks = range(2, args.k_max + 1)
        # neither grid oracle searches, so neither reads a node budget
        paths = _BACKENDS["paths"].table(ell_max, ks, None)
        patterns = _BACKENDS["patterns"].table(ell_max, ks, None)
        header = ("ell", "k", "paths", "patterns", "agree")
        cells = [(ell, k) for ell in range(1, ell_max + 1) for k in ks]
        rows = [(*c, paths[c], patterns[c], paths[c] == patterns[c]) for c in cells]
    obj = {"conjecture": args.conjecture, "rows": [dict(zip(header, row)) for row in rows]}
    bad = sum(1 for row in rows if not row[-1])
    return _report(args, header, rows, obj, f"{bad} grid cells disagree" if bad else None)


def _cmd_bijection(args):
    if args.perm is not None:
        from .patterns import bjs_perm_to_path, parse_perm

        path = bjs_perm_to_path(parse_perm(args.perm))
        print(path.moves)
    elif args.path is not None:
        from .lattice_paths import LatticePath
        from .patterns import bjs_path_to_perm, format_perm

        perm = bjs_path_to_perm(LatticePath(args.path))
        print(format_perm(perm))
    elif args.paths is not None:
        from .lattice_paths import is_admissible, parse_paths, paths_to_ytuple

        seq = parse_paths(args.paths)
        if not is_admissible(seq):
            raise _UsageError(f"{seq} is not an admissible path tuple")
        print(";".join(str(y) for y in paths_to_ytuple(seq)))
    else:
        from .lattice_paths import ytuple_to_paths
        from .young_crystal import is_crystal_element, parse_diagram

        ys = tuple(parse_diagram(part) for part in args.ytuple.split(";"))
        boxes = sum(y.boxes for y in ys)
        ell = math.isqrt(boxes)
        if ell < 1 or ell * ell != boxes:
            raise _UsageError(f"the diagrams hold {boxes} boxes, not ell^2 for any ell >= 1")
        # membership is the same at every n >= 2*ell (see enumerate_weight_space)
        if not is_crystal_element(ys, 2 * ell):
            raise _UsageError(f"{args.ytuple} is not a crystal element at n={2 * ell}")
        print(str(ytuple_to_paths(ys, ell)))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="kacmax", description="Exact weight tables and multiplicities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    for name, func, text in (
        ("max-weights", _cmd_max_weights, "list the maximal dominant weights"),
        ("count", _cmd_count, "count the maximal dominant weights"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--s", type=int, default=0)
        add_format(p)
        p.set_defaults(func=func)

    p = sub.add_parser("multiplicity", help="weight multiplicity for one (ell, k)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", choices=sorted(_BACKENDS), default="paths")
    p.add_argument("--check-all", action="store_true", help="run every backend and compare")
    p.add_argument("--node-budget", type=_nonnegative_int, default=DEFAULT_NODE_BUDGET)
    add_format(p)
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser("table", help="multiplicity table over an (ell, k) grid")
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--oracle", choices=sorted(_BACKENDS), default="paths")
    p.add_argument("--node-budget", type=_nonnegative_int, default=DEFAULT_NODE_BUDGET)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="cross-check a conjecture over a grid")
    p.add_argument("--conjecture", choices=("count", "multiplicity"), required=True)
    p.add_argument("--n-max", type=int, default=None, help="count only; defaults to 8")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--ell-max", type=int, default=None, help="multiplicity only; defaults to 6")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bijection", help="convert between permutations, paths, and diagrams")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help="permutation, e.g. 1342 or 1,3,4,2")
    group.add_argument("--path", help="single R/U path, e.g. RRUURURU")
    group.add_argument("--paths", help="semicolon-joined path tuple")
    group.add_argument("--ytuple", help="semicolon-joined diagrams, e.g. [-2,-1];[-1]")
    p.set_defaults(func=_cmd_bijection)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except RuntimeError as exc:
        from .young_crystal import NodeBudgetExceeded

        if not isinstance(exc, NodeBudgetExceeded):
            raise
        print(
            f"resource guard: {exc}; try --oracle paths, which needs no search",
            file=sys.stderr,
        )
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
