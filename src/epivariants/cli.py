"""Command-line interface.

Exit codes: 0 when every requested check passes, 1 on any check failure,
2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import checks as checks_module
from .conjugacy import check_transitivity
from .core import (
    SemigroupError,
    UnarySemigroup,
    canonical_form,
    emit_semigroup,
    load_semigroup,
    table_of,
    validate,
)
from .epigroup import epigroup_data, pseudoinverse_map, verify_epigroup_identities
from .green import green
from .search import count_semigroups, enumerate_models
from .variants import unary_variant, variant
from .varieties import IdentityParseError, find_counterexample, parse_identity, variety_test


class ReportBuilder:
    def __init__(self, argv):
        self.started = time.perf_counter()
        self.report = {"command": list(argv), "checks": [], "data": {}}

    def add(self, name, status, detail=None, counterexample=None):
        entry = {"name": name, "status": status}
        if detail is not None:
            entry["detail"] = detail
        if counterexample is not None:
            entry["counterexample"] = counterexample
        self.report["checks"].append(entry)

    def finish(self):
        self.report["seconds"] = time.perf_counter() - self.started
        if not self.report["data"]:
            del self.report["data"]
        return self.report

    @property
    def failed(self):
        return any(c["status"] == "fail" for c in self.report["checks"])


def _load(path, require_valid=True):
    try:
        model = load_semigroup(path)
        if require_valid:
            validate(table_of(model))
        return model
    except (OSError, ValueError, SemigroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit_report(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, default=str))


def cmd_validate(args, argv):
    rb = ReportBuilder(argv)
    model = _load(args.file, require_valid=False)
    try:
        validate(table_of(model))
        rb.add("associativity", "pass")
    except SemigroupError as exc:
        rb.add("associativity", "fail", detail=str(exc))
    _emit_report(rb.finish(), args.json)
    if not args.json and not rb.failed:
        print("ok")
    elif not args.json:
        print(rb.report["checks"][0]["detail"])
    return 1 if rb.failed else 0


def _eggbox_lines(t, g):
    lines = []
    n = t.order
    for d in sorted(set(g.d_class)):
        members = [a for a in range(n) if g.d_class[a] == d]
        rs = sorted({g.r_class[a] for a in members})
        ls = sorted({g.l_class[a] for a in members})
        lines.append(f"D-class {d}:")
        for r in rs:
            cells = []
            for l in ls:
                h = [a for a in members if g.r_class[a] == r and g.l_class[a] == l]
                cells.append(
                    " ".join(f"{a}*" if a in g.idempotents else str(a) for a in h) or "."
                )
            lines.append("  | " + " | ".join(cells) + " |")
    return lines


def cmd_green(args, argv):
    rb = ReportBuilder(argv)
    t = table_of(_load(args.file))
    g = green(t)
    rb.report["data"] = {
        "r_class": list(g.r_class),
        "l_class": list(g.l_class),
        "h_class": list(g.h_class),
        "d_class": list(g.d_class),
        "j_class": list(g.j_class),
        "idempotents": sorted(g.idempotents),
        "group_h_classes": sorted(g.group_h_classes),
    }
    rb.add("green", "pass")
    if args.json:
        _emit_report(rb.finish(), True)
    else:
        for line in _eggbox_lines(t, g):
            print(line)
        print("idempotents:", sorted(g.idempotents))
        print("group H-classes:", sorted(g.group_h_classes))
    return 0


def cmd_epi(args, argv):
    rb = ReportBuilder(argv)
    t = table_of(_load(args.file))
    data = epigroup_data(t)
    s = pseudoinverse_map(t)
    rb.report["data"] = {
        "index": list(data.index),
        "pseudoinverse": list(data.pseudoinverse),
    }
    for ident, env in verify_epigroup_identities(s):
        rb.add(ident.text, "pass" if env is None else "fail", counterexample=env)
    report = rb.finish()
    if args.json:
        _emit_report(report, True)
    else:
        print("index:", list(data.index))
        print("pseudoinverse:", list(data.pseudoinverse))
        for entry in report["checks"]:
            print(f"{entry['status']:4s}  {entry['name']}")
    return 1 if rb.failed else 0


def cmd_variety(args, argv):
    names = [name.strip() for name in (args.test or "").split(",") if name.strip()]
    if not (names or args.identity):
        print("error: variety needs --test or --identity", file=sys.stderr)
        return 2
    rb = ReportBuilder(argv)
    model = _load(args.file)
    if not isinstance(model, UnarySemigroup):
        model = pseudoinverse_map(model)
    try:
        tests = [variety_test(name) for name in names]
        ident = parse_identity(args.identity) if args.identity else None
    except (ValueError, IdentityParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "W" in names and not model.canonical:
        print(
            f"error: W reads only the pseudoinverse map, and {args.file} carries another unary map",
            file=sys.stderr,
        )
        return 2
    for name, test in zip(names, tests):
        report = test(model)
        rb.add(
            name,
            "pass" if report.holds else "fail",
            detail=None if report.holds else str(report.failing_identity),
            counterexample=report.failing_assignment,
        )
    if ident is not None:
        env = find_counterexample(model, ident)
        rb.add(ident.text, "pass" if env is None else "fail", counterexample=env)
    report = rb.finish()
    if args.json:
        _emit_report(report, True)
    else:
        for entry in report["checks"]:
            extra = ""
            if entry["status"] == "fail":
                extra = f"  ({entry.get('detail') or ''} at {entry.get('counterexample')})"
            print(f"{entry['status']:4s}  {entry['name']}{extra}")
    return 1 if rb.failed else 0


def cmd_variant(args, argv):
    model = _load(args.file)
    t = table_of(model)
    if not 0 <= args.at < t.order:
        print(f"error: sandwich element {args.at} out of range", file=sys.stderr)
        return 2
    if args.unary:
        s = model if isinstance(model, UnarySemigroup) else pseudoinverse_map(t)
        out = unary_variant(s, args.at)
    else:
        out = variant(t, args.at)
    sys.stdout.write(emit_semigroup(out))
    return 0


def cmd_conjugacy(args, argv):
    rb = ReportBuilder(argv)
    t = table_of(_load(args.file))
    report = check_transitivity(t)
    rb.report["data"] = {
        "relation": [[int(v) for v in row] for row in report.relation],
        "transitive": report.transitive,
        "witness": report.witness,
        "classes": [list(c) for c in report.classes],
    }
    rb.add("conjugacy", "pass")
    if args.json:
        _emit_report(rb.finish(), True)
    else:
        for row in report.relation:
            print(" ".join("1" if v else "0" for v in row))
        print("transitive:", report.transitive)
        if report.witness:
            print("witness:", report.witness)
        print("classes:", [list(c) for c in report.classes])
    return 0


def _read_identities(path):
    """One identity a line; a line starting with '#' is a comment."""
    identities = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    identities.append(parse_identity(line))
                except IdentityParseError as exc:
                    raise IdentityParseError(f"{path}, line {lineno}: {exc}") from None
    return tuple(identities)


def _previous_run(out):
    """The files in directory out that an earlier ``enumerate --out`` wrote:
    its manifest and its model files."""
    try:
        names = os.listdir(out)
    except OSError:
        return []  # no such directory yet, or not a directory: makedirs reports it
    return sorted(
        name for name in names
        if name == "manifest.json" or (name.startswith("model_") and name.endswith(".sgp"))
    )


def cmd_enumerate(args, argv):
    identities = ()
    if args.identities:
        try:
            identities = _read_identities(args.identities)
        except (OSError, ValueError, IdentityParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.out and not args.count_only:
        # a smaller run would leave the earlier run's extra models beside a
        # manifest that does not list them; the user's files are never removed
        previous = _previous_run(args.out)
        if previous:
            print(
                f"error: {args.out} already holds {len(previous)} files of an earlier "
                f"--out run, {previous[0]} first; choose a new or empty directory",
                file=sys.stderr,
            )
            return 2
    filters = tuple(f.strip() for f in (args.filter or "").split(",") if f.strip())
    unary = "free" if args.free_unary else None if args.plain else "pseudoinverse"
    try:
        # the semigroup count is the model count unless unary maps are free
        if args.count_only and not (identities or filters or args.free_unary):
            print(count_semigroups(args.order, merge_anti=args.merge_anti))
            return 0
        models = enumerate_models(args.order, identities, filters, unary, merge_anti=args.merge_anti)
    except (ValueError, SemigroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.count_only:
        print(len(models))
        return 0
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            manifest = []
            for i, model in enumerate(models):
                name = f"model_{i:04d}.sgp"
                with open(os.path.join(args.out, name), "w") as fh:
                    fh.write(emit_semigroup(model))
                manifest.append(
                    {"file": name, "canonical_sha256": hashlib.sha256(canonical_form(model)).hexdigest()}
                )
            with open(os.path.join(args.out, "manifest.json"), "w") as fh:
                json.dump({"order": args.order, "models": manifest}, fh, indent=2)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(models)} models to {args.out}")
    else:
        for model in models:
            sys.stdout.write(emit_semigroup(model))
            print()
    return 0


def cmd_verify_paper(args, argv):
    rb = ReportBuilder(argv)
    stream = None if args.json else sys.stdout
    rb.report["data"]["corpus_seconds"] = checks_module.build_corpus()
    results = checks_module.run_all(stream=stream)
    for outcome, seconds in results:
        rb.add(outcome.name, "pass" if outcome.ok else "fail", detail=outcome.detail)
        rb.report["checks"][-1]["seconds"] = seconds
    _emit_report(rb.finish(), args.json)
    return 1 if rb.failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epivariants",
        description="Finite-semigroup toolkit: pseudoinverses, variants, varieties, conjugacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check a table file for associativity")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("green", cmd_green, help="print an eggbox-style report of Green's relations")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("epi", cmd_epi, help="indices, pseudoinverses and identity verification")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("variety", cmd_variety, help="variety membership tests")
    p.add_argument("file")
    p.add_argument("--test", default="", help="comma-separated, e.g. E1,V1,W,E2")
    p.add_argument("--identity", help="ad-hoc identity, e.g. \"x*x' = x'*x\"")
    p.add_argument("--json", action="store_true")

    p = add("variant", cmd_variant, help="emit the (unary) variant at a sandwich element")
    p.add_argument("file")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--unary", action="store_true")

    p = add("conjugacy", cmd_conjugacy, help="primary conjugacy relation and classes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("enumerate", cmd_enumerate, help="enumerate semigroups up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--identities", help="file with one identity per line")
    p.add_argument("--filter", default="", help="e.g. completely_regular,V1,not:variant_of_CR")
    unary = p.add_mutually_exclusive_group()
    unary.add_argument("--free-unary", action="store_true", help="search unary maps instead of deriving them")
    unary.add_argument("--plain", action="store_true", help="emit plain tables without a unary map")
    p.add_argument("--merge-anti", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument(
        "--out",
        help="write models one per file plus a manifest into a directory "
        "that holds no earlier run's output",
    )

    p = add("verify-paper", cmd_verify_paper, help="run the full verification suite")
    p.add_argument("--json", action="store_true")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except SemigroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
