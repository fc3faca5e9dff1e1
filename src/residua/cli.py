"""Command-line interface: analysis, law verification, topology, testbed, algebra.

Subcommands: analyze | laws | topology | testbed | group | ring.
Reports are canonical JSON (sorted keys, naturals and symbolic strings
only), plain text, or DOT.  Exit codes: 0 success / all laws pass, 1 law
failure or characterization mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .bitset import bits
from .errors import OracleMismatch, ResiduaError
from .generators import (
    CayleyTable,
    frattini,
    generate,
    jacobson_zn,
    load_catalog_group,
)
from .lattice import FiniteLattice, canonical_json, lattice_from_json
from .laws import LawId, all_pass, run_all
from .residual import Rows
from .testbed import OrdinalCoframe, fmt_vec, parse_vec
from .topology import cb_sequence, check_order_compatible, dual_lawson


def _natural(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused:
    ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="residua",
        description="Residual derivatives, boundary posets and CB layers on finite lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--gen", help="generator spec, e.g. divisor:12 or random:seed=7,size=50 (size is only a cap)")
        src.add_argument("--input", help="lattice JSON file")

    def add_output_flags(p, formats=("json", "text")):
        p.add_argument("--report", help="output path (default: stdout)")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("analyze", help="residual profiles for every element")
    add_instance_flags(p)
    p.add_argument("--family", default="all", help="all | t0 | comma list of element names")
    p.add_argument("--element", help="restrict DOT output to one element's boundary poset")
    add_output_flags(p, formats=("json", "text", "dot"))

    p = sub.add_parser("laws", help="run the law registry")
    add_instance_flags(p)
    p.add_argument("--laws", default="all", help="all | comma list of law names")
    p.add_argument("--family", default="all")
    add_output_flags(p)

    p = sub.add_parser("topology", help="dual Lawson topology, CB sequence, order compatibility")
    add_instance_flags(p)
    add_output_flags(p)

    p = sub.add_parser("testbed", help="ordinal-vector coframe checks")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--bound", type=_natural, default=6)
    one = p.add_mutually_exclusive_group()
    one.add_argument("--element", help="single vector, e.g. 3,inf")
    one.add_argument("--cb", action="store_true", help="verify the CB ladder against the subspace oracle")
    add_output_flags(p)

    p = sub.add_parser("group", help="subgroup lattice and Frattini subgroup")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", help="catalog group name, e.g. q8")
    src.add_argument("--input", help="Cayley-table JSON file")
    add_output_flags(p)

    p = sub.add_parser("ring", help="ideal lattice of Z/n and its Jacobson radical")
    p.add_argument("--n", type=int, required=True)
    add_output_flags(p)

    return parser


def _load_lattice(args) -> FiniteLattice:
    if args.gen is not None:
        return generate(args.gen)
    with open(args.input) as f:
        return lattice_from_json(json.load(f), provenance=args.input)


def _parse_family(L: FiniteLattice, text: str):
    if text == "all":
        return None
    if text == "t0":
        from .residual import classify_t

        return [x for x in L.elements() if classify_t(L, x) == 0]
    return [L.poset.index_of(name.strip()) for name in text.split(",")]


def _emit(args, text: str) -> None:
    if args.report:
        with open(args.report, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    if args.element is not None and args.format != "dot":
        raise ValueError(f"--element restricts DOT output; it needs --format dot, not {args.format}")
    L = _load_lattice(args)
    family = _parse_family(L, args.family)
    element = L.poset.index_of(args.element) if args.element is not None else None
    # Each format computes only what it prints: dot one boundary poset or
    # the Hasse diagram, text the profiles, json the grade stats too.  The
    # profiles share one set of rows, each built on those kept below it.
    rows = Rows(L, family)
    if args.format == "dot":
        if element is not None:
            _emit(args, rows.profile(element).boundary_dot(L))
        else:
            _emit(args, L.to_dot())
        return 0
    profiles = [rows.profile(x) for x in L.elements()]
    docs = [p.to_json_dict(L) for p in profiles]
    if args.format == "json":
        doc = {
            "instance": L.describe(),
            "lattice": L.to_json_dict(),
            "profiles": docs,
            "grade_stats": {L.names[x]: p.grade_stats(L) for x, p in enumerate(profiles)},
        }
        _emit(args, canonical_json(doc))
    else:
        lines = [f"instance: {L.describe()}"]
        for p in docs:
            rank = p["rank"] if p["rank"] == "omega" else p["rank"]["finite"]
            lines.append(
                f"  {p['element']}: mu={p['mu']} rank={rank} core={p['core']} "
                f"boundary={p['boundary']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _parse_laws(text: str):
    if text == "all":
        return None
    by_value = {law.value: law for law in LawId}
    out = []
    for name in text.split(","):
        key = name.strip().lower()
        if key not in by_value:
            raise ResiduaError(f"unknown law {name!r}")
        out.append(by_value[key])
    return out


def _cmd_laws(args) -> int:
    L = _load_lattice(args)
    family = _parse_family(L, args.family)
    reports = run_all(L, laws=_parse_laws(args.laws), family=family)
    doc = [r.to_json_dict() for r in reports]
    if args.format == "json":
        _emit(args, canonical_json(doc))
    else:
        lines = [
            f"{r.law}: {r.verdict}"
            + (f" ({r.reason})" if r.reason else "")
            + f" checked={r.checked}"
            for r in reports
        ]
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_pass(reports) else 1


def _cmd_topology(args) -> int:
    L = _load_lattice(args)
    t = dual_lawson(L)
    compat = check_order_compatible(L, t)
    cb = cb_sequence(t)
    doc = {
        "instance": L.describe(),
        "points": t.n,
        "discrete": t.is_discrete,
        "order_compatible": compat.to_json_dict(),
        "cb": {
            "levels": [[L.names[i] for i in bits(m)] for m in cb.levels],
            "rank": cb.rank,
        },
    }
    if args.format == "json":
        _emit(args, canonical_json(doc))
    else:
        _emit(
            args,
            f"instance: {doc['instance']}\ndiscrete: {doc['discrete']}\n"
            f"order compatible: {compat.all_pass}\ncb rank: {cb.rank}\n",
        )
    return 0 if (t.is_discrete and compat.all_pass) else 1


def _cmd_testbed(args) -> int:
    cf = OrdinalCoframe(args.dims)
    bound = args.bound
    doc: dict = {"dims": args.dims, "bound": bound}
    mismatches = []
    discrepancies = []
    if args.element is not None:
        xs = [parse_vec(args.element)]
    else:
        doc["cb_levels"] = {
            str(alpha): [
                ["inf" if i in infs else "any" for i in range(args.dims)]
                for infs in itertools.combinations(range(args.dims), alpha)
            ] or "empty"
            for alpha in range(args.dims + 2)
        }
        xs = cf.box(bound)
        doc["sweep_size"] = len(xs)
    for x in xs:
        preds = cf.characterization_predicates(x)
        oracle = cf.isolated_oracle(x, max(bound, cf.max_finite(x) + 2))
        if preds["corrected"] != oracle:
            mismatches.append(fmt_vec(x))
        if preds["literal"] != preds["corrected"]:
            discrepancies.append(fmt_vec(x))
    if args.element is not None:
        doc["element"] = {
            "profile": cf.profile(x).to_json_dict(),
            "dually_compact": cf.dually_compact(x),
            "characterization": preds,
            "isolated": oracle,
            "cb_level": cf.cb_level(x),
        }
    elif args.cb:
        ladder = []
        for alpha in range(args.dims + 1):
            ok = _verify_cb_level(cf, alpha, bound)
            ladder.append({"alpha": alpha, "matches_oracle": ok})
            if not ok:
                mismatches.append(f"cb_level_{alpha}")
        doc["cb_ladder"] = ladder
    doc["literal_vs_corrected_discrepancies"] = sorted(discrepancies)
    doc["oracle_mismatches"] = sorted(mismatches)
    if args.format == "json":
        _emit(args, canonical_json(doc))
    else:
        _emit(
            args,
            f"dims={args.dims} bound={bound}\n"
            f"discrepancies (literal vs corrected): {', '.join(sorted(discrepancies)) or 'none'}\n"
            f"oracle mismatches: {', '.join(sorted(mismatches)) or 'none'}\n",
        )
    return 0 if not mismatches else 1


def _verify_cb_level(cf: OrdinalCoframe, alpha: int, bound: int) -> bool:
    member = lambda z: cf.cb_level(z) >= alpha
    sweep = cf.subspace_isolation_sweep(member, bound)
    return all(v == (cf.cb_level(x) == alpha) for x, v in sweep.items())


def _cmd_group(args) -> int:
    if args.name is not None:
        table = load_catalog_group(args.name.strip().lower())
    else:
        with open(args.input) as f:
            table = CayleyTable.from_json_dict(json.load(f), name=args.input)
    result = frattini(table)
    lat = result.lattice
    doc = {
        "group": table.name,
        "order": table.order,
        "subgroups": lat.n,
        "frattini_members": list(result.members),
        "frattini_subgroup": lat.names[result.index],
    }
    if args.format == "json":
        _emit(args, canonical_json(doc))
    else:
        _emit(
            args,
            f"group {table.name} (order {table.order}): {lat.n} subgroups, "
            f"Frattini subgroup {lat.names[result.index]}\n",
        )
    return 0


def _cmd_ring(args) -> int:
    result = jacobson_zn(args.n)
    doc = {
        "modulus": args.n,
        "ideals": result.lattice.n,
        "jacobson_radical_generator": result.generator,
    }
    if args.format == "json":
        _emit(args, canonical_json(doc))
    else:
        _emit(
            args,
            f"Z/{args.n}: {result.lattice.n} ideals, radical ({result.generator})\n",
        )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "laws": _cmd_laws,
    "topology": _cmd_topology,
    "testbed": _cmd_testbed,
    "group": _cmd_group,
    "ring": _cmd_ring,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ResiduaError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, OracleMismatch) else 2


if __name__ == "__main__":
    sys.exit(main())
