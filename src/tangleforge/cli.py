"""Batch command-line front end.

Subcommands: check, tangles, fcl, separations, flower, tree, oracle, each
one handler that returns its output and whether it passed; `run` prints
that output, or the error, once.
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
from .flowers import (classify, displayed_kS, loose_petals, maximal_flower,
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

    # Each subcommand registers its handler and only the flags it reads.
    def add(name, handler, help, k=True, tangle=True, s_family=True, verify=True,
            dot=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--input", required=True, help="system JSON file")
        if k:
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
        return sp

    add("check", _check, "verify the connectivity axioms",
        k=False, tangle=False, s_family=False, verify=False)
    add("tangles", _tangles, "enumerate all tangles of order k", tangle=False, s_family=False)
    sp = add("fcl", _fcl, "full closure of a set", s_family=False)
    sp.add_argument("--x", required=True, help="comma-separated element indices")
    add("separations", _separations, "(k,S)-separations and equivalence classes")
    given = add("flower", _flower, "verify a flower or build a maximal one",
                dot=True).add_mutually_exclusive_group()
    given.add_argument("--petals", help="JSON list of element lists to verify")
    given.add_argument("--seed-side", help="comma-separated side of the seed separation")
    add("tree", _tree, "build the maximal partial (k,S)-tree", dot=True)
    # The report is the oracle's own, so there is nothing to --verify it against.
    sp = add("oracle", _oracle, "differential engine-vs-oracle report", verify=False)
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


# -- handlers ----------------------------------------------------------------
#
# One per subcommand: (system, tangle, s_family, args) -> (payload, ok), the
# payload JSON-able or DOT text, ok False for a verification failure.  The
# tangle and S family are None unless the subcommand's parser registers
# --tangle and --S.


def _seps_json(system, seps) -> list:
    return [separation_to_json(system, s) for s in seps]


def _refereed(out: dict, got, want, to_json):
    """out with the oracle's verdict on got: `oracle_agrees`, and the
    oracle's answer under `oracle` when it differs; and that verdict."""
    out["oracle_agrees"] = want == got
    if want != got:
        out["oracle"] = to_json(want)
    return out, want == got


def _check(system, tangle, s_family, args):
    report = verify_connectivity_axioms(system)
    return {"ok": not report, "violations": [v.to_json() for v in report]}, not report


def _tangles(system, tangle, s_family, args):
    found = enumerate_tangles(system, args.k)
    out = [tangle_to_json(t) for t in found]
    if args.verify:
        for entry, t in zip(out, found):
            report = verify_tangle(system, t)
            entry["verified"] = not report
            if report:
                entry["violations"] = [v.to_json() for v in report]
    return out, all(entry.get("verified", True) for entry in out)


def _fcl(system, tangle, s_family, args):
    x = _parse_elements(system, args.x)
    got = full_closure(system, tangle, x)
    out = {"x": elements_of(x), "fcl": elements_of(got)}
    if not args.verify:
        return out, True
    return _refereed(out, got, oracle_full_closure(system, tangle, x),
                     elements_of)


def _separations(system, tangle, s_family, args):
    classes = s_family.classes()
    out = {"separations": _seps_json(system, s_family.separations()),
           "classes": [_seps_json(system, cls) for cls in classes]}
    if not args.verify:
        return out, True
    return _refereed(out, classes, oracle_classes(system, tangle, s_family),
                     lambda want: [_seps_json(system, cls) for cls in want])


def _flower(system, tangle, s_family, args):
    if args.petals:
        petals = masks_from_json(system, json.loads(args.petals), "--petals")
        f = verify_flower(system, tangle, petals)
    elif args.seed_side:
        seed = Separation.make(system, _parse_elements(system, args.seed_side), tangle.k)
        f = maximal_flower(system, tangle, s_family, seed)
    else:
        raise PreconditionFailed("flower needs --petals or --seed-side")
    klass = classify(system, f)
    shown = displayed_kS(system, tangle, s_family, f)
    if args.verify:
        want_class = _flower_class_literal(system, f)
        want_shown = oracle_displayed_kS(system, tangle, s_family, f)
        if (want_class, want_shown) != (klass, shown):
            return {"oracle_agrees": False, "class": klass, "oracle_class": want_class,
                    "displayed_kS": _seps_json(system, shown),
                    "oracle_displayed_kS": _seps_json(system, want_shown)}, False
    if args.dot:
        return flower_to_dot(system, f), True
    out = flower_to_json(system, f)
    out["loose_petals"] = loose_petals(system, tangle, f)
    out["displayed_kS"] = _seps_json(system, shown)
    if args.verify:
        out["oracle_agrees"] = True
    return out, True


def _tree(system, tangle, s_family, args):
    t = build_maximal_tree(system, tangle, s_family)
    verdict = verify_partial_kS_tree(system, tangle, s_family, t)
    if args.verify:
        ok, problems = oracle_certify_tree(system, tangle, s_family, t)
        if not ok:
            return {"ok": False, "problems": problems}, False
    if args.dot:
        return tree_to_dot(system, t), verdict.ok
    return {**tree_to_json(system, t), "verdict": verdict.to_json()}, verdict.ok


def _oracle(system, tangle, s_family, args):
    report = differential_report(system, tangle, s_family, max_petals=args.max_petals)
    return report.to_json(), report.ok


def _emit(payload):
    """DOT text as it is (it ends in a newline), anything else as JSON."""
    _sys.stdout.write(payload if isinstance(payload, str) else dumps(payload) + "\n")


def run(argv) -> int:
    """Parse, load the system, resolve --tangle and --S where the
    subcommand's parser registers them, call its handler, and print the
    payload or the error once."""
    try:
        args = _parser().parse_args(argv)
        system = load_system_file(args.input, verify=False)
        tangle = _resolve_tangle(system, args) if hasattr(args, "tangle") else None
        s_family = _resolve_S(system, tangle, args) if hasattr(args, "s_mode") else None
        payload, ok = args.handler(system, tangle, s_family, args)
        code = EXIT_OK if ok else EXIT_VERIFY
    except SearchSpaceTooLarge as exc:
        payload = {"error": "search_space_too_large", "detail": str(exc)}
        code = EXIT_TOO_LARGE
    except InputReportError as exc:
        payload = {"error": exc.error, "report": [v.to_json() for v in exc.report]}
        code = EXIT_VERIFY
    except NonRobustObstruction as exc:
        payload = {"error": "non_robust_obstruction",
                   "witness": elements_of(exc.separation.side)}
        code = EXIT_VERIFY
    except TangleforgeError as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        code = EXIT_VERIFY if hasattr(exc, "witness") else EXIT_USAGE
    except (_UsageError, OSError, ValueError, json.JSONDecodeError) as exc:
        payload, code = {"error": "usage", "detail": str(exc)}, EXIT_USAGE
    _emit(payload)
    return code


def main():
    raise SystemExit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
