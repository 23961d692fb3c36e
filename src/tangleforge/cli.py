"""Batch command-line front end.

Subcommands: check, tangles, fcl, separations, flower, tree, oracle.
Output is deterministic JSON (or DOT with --dot).  Exit codes: 0 success,
1 usage/IO error, 2 verification failure (with a witness report), 3 search
space too large.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from .bitset import elements_of
from .core import verify_connectivity_axioms
from .closure import (Separation, TreeCompatibleSet, build_default_S, full_closure,
                      verify_tree_compatible)
from .dot import flower_to_dot, tree_to_dot
from .errors import (NonRobustObstruction, PreconditionFailed, SearchSpaceTooLarge,
                     TangleforgeError)
from .flowers import (Flower, classify, displayed_kS, loose_petals, maximal_flower,
                      verify_flower)
from .jsonio import (dumps, explicit_s_from_json, flower_to_json, load_system_file,
                     masks_from_json, separation_to_json, tangle_from_json,
                     tangle_to_json, tree_to_json)
from .oracle import (_flower_class_literal, differential_report, oracle_certify_tree,
                     oracle_classes, oracle_displayed_kS, oracle_full_closure)
from .tangles import (Tangle, canonical_vertical_tangle, enumerate_tangles,
                      verify_tangle)
from .trees import build_maximal_tree, verify_partial_kS_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_TOO_LARGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising, so `run` answers it as JSON with
    EXIT_USAGE instead of argparse's stderr text and exit 2.  Flags must be
    spelled out: an abbreviation could name another flag (flower's
    --seed-side for a --seed it does not take)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)  # subcommand parsers too
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tangleforge",
                description="tangles, closures, flowers, and partial k-trees")
    sub = p.add_subparsers(dest="command", required=True)

    # Each subcommand registers only the flags it reads.
    def common(sp, tangle=True, s_family=True, verify=True, dot=False):
        sp.add_argument("--input", required=True, help="system JSON file")
        sp.add_argument("--k", type=int, required=True, help="order of the tangle")
        if tangle:
            sp.add_argument("--tangle", default="canonical",
                            help="'canonical' or a tangle JSON file")
        if s_family:
            sp.add_argument("--S", dest="s_mode", default="default",
                            help="'default' or an explicit S JSON file")
        if verify:
            sp.add_argument("--verify", action="store_true",
                            help="cross-check against the brute-force oracle "
                                 "(tangles: re-verify each tangle's axioms)")
        if dot:
            sp.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    sp = sub.add_parser("check", help="verify the connectivity axioms")
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("tangles", help="enumerate all tangles of order k")
    common(sp, tangle=False, s_family=False)

    sp = sub.add_parser("fcl", help="full closure of a set")
    common(sp, s_family=False)
    sp.add_argument("--x", required=True, help="comma-separated element indices")

    sp = sub.add_parser("separations", help="(k,S)-separations and equivalence classes")
    common(sp)

    sp = sub.add_parser("flower", help="verify a flower or build a maximal one")
    common(sp, dot=True)
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--petals", help="JSON list of element lists to verify")
    given.add_argument("--seed-side", help="comma-separated side of the seed separation")

    sp = sub.add_parser("tree", help="build the maximal partial (k,S)-tree")
    common(sp, dot=True)

    # The report is the oracle's own, so there is nothing to --verify it against.
    sp = sub.add_parser("oracle", help="differential engine-vs-oracle report")
    common(sp, verify=False)
    sp.add_argument("--max-petals", type=int, default=4)
    return p


def _resolve_tangle(system, args) -> Tangle:
    if args.tangle == "canonical":
        if system.kind == "matroid":
            return canonical_vertical_tangle(system, args.k)
        found = enumerate_tangles(system, args.k)
        if len(found) != 1:
            raise PreconditionFailed(
                f"system has {len(found)} tangles of order {args.k}; pass --tangle FILE")
        return found[0]
    with open(args.tangle) as fh:
        tangle = tangle_from_json(system, json.load(fh))
    report = verify_tangle(system, tangle)
    if report:
        raise InputReportError("invalid_tangle", report)
    return tangle


class InputReportError(TangleforgeError):
    """A --tangle or --S file that fails its axioms; `error` names which
    (invalid_tangle or invalid_S) and `report` lists the violations."""

    def __init__(self, error, report):
        super().__init__(f"{error}: the file fails its axioms")
        self.error = error
        self.report = report


def _resolve_S(system, tangle, args) -> TreeCompatibleSet:
    if args.s_mode == "default":
        return build_default_S(system, tangle)
    with open(args.s_mode) as fh:
        masks = explicit_s_from_json(system, json.load(fh))
    s_family = TreeCompatibleSet(system, tangle, explicit=masks)
    report = verify_tree_compatible(system, tangle, s_family)
    if report:
        raise InputReportError("invalid_S", report)
    return s_family


def _parse_elements(system, text: str) -> int:
    if not text.strip():
        return 0
    return system.mask(int(tok) for tok in text.split(","))


def _emit(text: str):
    _sys.stdout.write(text if text.endswith("\n") else text + "\n")


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        system = load_system_file(args.input, verify=False)
        if args.command == "check":
            report = verify_connectivity_axioms(system)
            _emit(dumps({"ok": not report, "violations": [v.to_json() for v in report]}))
            return EXIT_OK if not report else EXIT_VERIFY

        if args.command == "tangles":
            found = enumerate_tangles(system, args.k)
            out = [tangle_to_json(t) for t in found]
            ok = True
            if args.verify:
                for entry, tangle in zip(out, found):
                    report = verify_tangle(system, tangle)
                    entry["verified"] = not report
                    if report:
                        entry["violations"] = [v.to_json() for v in report]
                        ok = False
            _emit(dumps(out))
            return EXIT_OK if ok else EXIT_VERIFY

        tangle = _resolve_tangle(system, args)
        if args.command == "fcl":
            x = _parse_elements(system, args.x)
            got = full_closure(system, tangle, x)
            out = {"x": sorted(elements_of(x)), "fcl": sorted(elements_of(got))}
            if args.verify:
                want = oracle_full_closure(system, tangle, x)
                out["oracle_agrees"] = want == got
                if want != got:
                    out["oracle"] = sorted(elements_of(want))
                    _emit(dumps(out))
                    return EXIT_VERIFY
            _emit(dumps(out))
            return EXIT_OK

        s_family = _resolve_S(system, tangle, args)
        if args.command == "separations":
            seps = s_family.separations()
            classes = s_family.classes()
            out = {"separations": [separation_to_json(system, s) for s in seps],
                   "classes": [[separation_to_json(system, s) for s in cls]
                               for cls in classes]}
            if args.verify:
                want = oracle_classes(system, tangle, s_family)
                out["oracle_agrees"] = want == classes
                if want != classes:
                    out["oracle"] = [[separation_to_json(system, s) for s in cls]
                                     for cls in want]
                    _emit(dumps(out))
                    return EXIT_VERIFY
            _emit(dumps(out))
            return EXIT_OK

        if args.command == "flower":
            if args.petals:
                petals = masks_from_json(system, json.loads(args.petals), "--petals")
                f = verify_flower(system, tangle, petals)
            elif args.seed_side:
                seed = Separation.make(system, _parse_elements(system, args.seed_side),
                                       tangle.k)
                f = maximal_flower(system, tangle, s_family, seed)
            else:
                raise PreconditionFailed("flower needs --petals or --seed-side")
            klass = classify(system, f)
            shown = displayed_kS(system, tangle, s_family, f)
            if args.verify:
                want_class = _flower_class_literal(system, Flower(f.petals, f.k))
                want_shown = oracle_displayed_kS(system, tangle, s_family, f)
                if (want_class, want_shown) != (klass, shown):
                    _emit(dumps({"oracle_agrees": False, "class": klass,
                                 "oracle_class": want_class,
                                 "displayed_kS": [separation_to_json(system, s)
                                                  for s in shown],
                                 "oracle_displayed_kS": [separation_to_json(system, s)
                                                         for s in want_shown]}))
                    return EXIT_VERIFY
            if args.dot:
                _emit(flower_to_dot(system, f))
            else:
                out = flower_to_json(system, f)
                out["loose_petals"] = loose_petals(system, tangle, f)
                out["displayed_kS"] = [separation_to_json(system, s) for s in shown]
                if args.verify:
                    out["oracle_agrees"] = True
                _emit(dumps(out))
            return EXIT_OK

        if args.command == "tree":
            t = build_maximal_tree(system, tangle, s_family)
            verdict = verify_partial_kS_tree(system, tangle, s_family, t)
            if args.verify:
                ok, problems = oracle_certify_tree(system, tangle, s_family, t)
                if not ok:
                    _emit(dumps({"ok": False, "problems": problems}))
                    return EXIT_VERIFY
            if args.dot:
                _emit(tree_to_dot(system, t))
            else:
                out = tree_to_json(system, t)
                out["verdict"] = verdict.to_json()
                _emit(dumps(out))
            return EXIT_OK if verdict.ok else EXIT_VERIFY

        if args.command == "oracle":
            report = differential_report(system, tangle, s_family,
                                         max_petals=args.max_petals)
            _emit(dumps(report.to_json()))
            return EXIT_OK if report.ok else EXIT_VERIFY

        raise PreconditionFailed(f"unknown command {args.command}")
    except SearchSpaceTooLarge as exc:
        _emit(dumps({"error": "search_space_too_large", "detail": str(exc)}))
        return EXIT_TOO_LARGE
    except InputReportError as exc:
        _emit(dumps({"error": exc.error,
                     "report": [v.to_json() for v in exc.report]}))
        return EXIT_VERIFY
    except NonRobustObstruction as exc:
        _emit(dumps({"error": "non_robust_obstruction",
                     "witness": sorted(elements_of(exc.separation.side))}))
        return EXIT_VERIFY
    except TangleforgeError as exc:
        _emit(dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_VERIFY if hasattr(exc, "witness") else EXIT_USAGE
    except (_UsageError, OSError, ValueError, json.JSONDecodeError) as exc:
        _emit(dumps({"error": "usage", "detail": str(exc)}))
        return EXIT_USAGE


def main():
    raise SystemExit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
