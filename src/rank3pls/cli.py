"""Command-line front door.

Subcommands
    family    build a family instance, write JSON/CSV, verify its counts
    omega     build a coset point set and export it
    group     build a builtin or file group, print facts, optionally save
    pipeline  run the block-to-line pipeline on a group, write a report
    tables    reproduce a classification table row by row
    verify    re-validate a structure JSON (PLS axioms, properness, ...)

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import families
from .catalog import builtin_names, load_group_argument
from .incidence import (IncidenceStructure, components, fingerprint, is_proper,
                        validate_pls)
from .omega import build_omega
from .permcore import write_group_file
from .pipeline import (devillers_enumerate, negative_controls, report_json,
                       reproduce_table)

FAMILY_OPTIONS = ("n", "q", "q0", "r", "j")


def cmd_family(args) -> int:
    builder = families.CONSTRUCTORS[args.kind]
    params = inspect.signature(builder).parameters
    given = {nm: getattr(args, nm) for nm in FAMILY_OPTIONS
             if getattr(args, nm) is not None}
    # the constructor's parameters without defaults are the required options;
    # every option given must be one it takes
    missing = [nm for nm, prm in params.items()
               if prm.default is prm.empty and nm not in given]
    extra = [nm for nm in given if nm not in params]
    if missing or extra:
        # a usage error, reported the way argparse would: one line, exit 2
        print(f"error: --{missing[0]} is required for --kind {args.kind}" if missing
              else f"error: --{extra[0]} is not an option of --kind {args.kind}",
              file=sys.stderr)
        return 2
    vals = tuple(given[nm] for nm in params if nm in given)
    D = builder(**given)
    if isinstance(D, families.CountOnly):
        print(f"{args.kind}{vals}: count-only; "
              f"{D.expected['lines']} lines by formula, "
              f"{len(D.sample_lines)} sampled lines pass local checks")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"count_only": True, "params": D.params.as_dict(),
                           "expected": D.expected}, fh)
        return 0
    rep = validate_pls(D)
    count_args = inspect.signature(families.expected_counts).parameters
    exp = families.expected_counts(**{k: v for k, v in D.params.items()
                                      if k in count_args})
    ok = (rep.is_pls == (exp["multiplicity"] <= 1)
          and rep.multiplicity == exp["multiplicity"]
          and D.num_lines == exp["lines"])
    flavor = "PLS" if rep.is_pls else f"multiplicity {rep.multiplicity}"
    print(f"{args.kind}{vals}: {D.num_points} points, {D.num_lines} "
          f"lines of size {sorted(D.line_sizes())}, {flavor}"
          + ("" if ok else "  [MISMATCH vs formulas]"))
    if args.out:
        path = args.out
        with open(path, "w") as fh:
            fh.write(D.to_csv() if path.endswith(".csv") else D.to_json())
        print(f"wrote {path}")
    return 0 if ok else 1


def cmd_omega(args) -> int:
    space = build_omega(args.kind, args.n, args.q, args.r)
    print(f"Omega({args.kind}, {args.n}, {args.q}, {args.r}): "
          f"{len(space)} points, {len(space.cells)} cells of size {space.r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(space.to_json())
        print(f"wrote {args.out}")
    return 0


def cmd_group(args) -> int:
    b = load_group_argument(args.group)
    G = b.group
    rank = G.rank() if G.is_transitive() else None
    print(f"{b.meta.name}: degree {G.degree}, order {G.order}, "
          f"rank {rank if rank else 'n/a (intransitive)'}")
    if args.out:
        write_group_file(args.out, G.degree, G.gens)
        print(f"wrote {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    b = load_group_argument(args.group)
    if b.meta.slow and not args.slow:
        print(f"{b.meta.name} is a slow case; pass --slow to run it",
              file=sys.stderr)
        return 1
    res = devillers_enumerate(b.group, name=b.meta.name, slow=args.slow)
    for e in res.entries:
        print(" ", e.summary())
    sig = res.line_signature(connected=None)
    print(f"{res.name}: {len(res.structures())} structures "
          f"({len(sig)} up to fingerprint), signature {list(sig)}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report_json(res))
        print(f"wrote {args.report}")
    return 0


def cmd_tables(args) -> int:
    ids = [args.id] if args.id else [2, 3, 4, 5, 6]
    failed = 0
    for tid in ids:
        rows = reproduce_table(tid, max_degree=args.max_degree, slow=args.slow)
        for row in rows:
            status = row.get("status")
            if status:
                print(f"table {tid} | {row['row']}: {status}")
                continue
            mark = "PASS" if row["pass"] else "FAIL"
            failed += 0 if row["pass"] else 1
            print(f"table {tid} | {row['row']}: {mark}")
    if args.id is None or args.id == 3:
        for row in negative_controls():
            mark = "PASS" if row["pass"] else "FAIL"
            failed += 0 if row["pass"] else 1
            print(f"negative | {row['row']}: {mark} ({row['structures']} structures)")
    return 1 if failed else 0


def cmd_verify(args) -> int:
    with open(args.path) as fh:
        D = IncidenceStructure.from_json(fh.read())
    rep = validate_pls(D)
    comps = components(D)
    print(f"{args.path}: {D.num_points} points, {D.num_lines} lines, "
          f"multiplicity {rep.multiplicity}, "
          f"{'PLS' if rep.is_pls else 'NOT a PLS'}, "
          f"{'proper' if rep.is_pls and is_proper(D, rep) else 'not proper'}, "
          f"{len(comps)} component(s)")
    print(f"fingerprint: {fingerprint(D)}")
    return 0 if rep.is_pls else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rank3pls", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, help="accepted; changes no output")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("family", help="build and check a family instance")
    fsub = f.add_subparsers(dest="action", required=True)
    fb = fsub.add_parser("build")
    fb.add_argument("--kind", required=True, choices=sorted(families.CONSTRUCTORS))
    for nm in FAMILY_OPTIONS:
        fb.add_argument(f"--{nm}", type=int)
    fb.add_argument("--out")
    fb.set_defaults(fn=cmd_family)

    o = sub.add_parser("omega", help="build a coset point set")
    o.add_argument("--kind", required=True, choices=["linear", "unitary"])
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o.add_argument("--r", type=int, required=True)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_omega)

    g = sub.add_parser("group", help="build a catalogue group")
    g.add_argument("--group", required=True,
                   help="builtin:<name> or file:<path>; builtins: "
                   + ", ".join(builtin_names()))
    g.add_argument("--out", help="write generators in the group file format")
    g.set_defaults(fn=cmd_group)

    pl = sub.add_parser("pipeline", help="run the block-to-line pipeline")
    plsub = pl.add_subparsers(dest="action", required=True)
    plr = plsub.add_parser("run")
    plr.add_argument("--group", required=True)
    plr.add_argument("--slow", action="store_true")
    plr.add_argument("--report", help="write the JSON report here")
    plr.set_defaults(fn=cmd_pipeline)

    t = sub.add_parser("tables", help="reproduce classification tables")
    tsub = t.add_subparsers(dest="action", required=True)
    tr = tsub.add_parser("reproduce")
    tr.add_argument("--id", type=int, choices=[2, 3, 4, 5, 6])
    tr.add_argument("--max-degree", type=int, default=300)
    tr.add_argument("--slow", action="store_true")
    tr.set_defaults(fn=cmd_tables)

    v = sub.add_parser("verify", help="re-validate a structure JSON file")
    v.add_argument("path")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, AssertionError,
            RuntimeError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
