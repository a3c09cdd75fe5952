"""Command-line interface.

Each ``cmd_*`` function only computes: it fills the report's checks and data
and returns its text lines, or raises ``InputError``.  ``main`` alone prints
the lines or the ``--json`` report and sets the exit code: 0 when every
requested check passes, 1 on any check failure or when the reader closes
stdout before the output is written, 2 on usage or input errors.
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
    NotAssociative,
    SemigroupError,
    UnarySemigroup,
    canonical_form,
    table_of,
    validate,
)
from .corpus import emit_semigroup, load_semigroup
from .epigroup import epigroup_data, pseudoinverse_map, verify_epigroup_identities
from .green import green
from .search import count_semigroups, enumerate_models
from .variants import unary_variant, variant
from .varieties import find_counterexample, parse_identity, variety_test


class InputError(Exception):
    """A usage or input error: ``main`` prints ``error: <message>`` on stderr
    and exits 2."""


class ReportBuilder:
    """What a command found: its checks and data, read by ``main`` for the
    ``--json`` report and the exit code."""

    def __init__(self, argv, stream):
        self.started = time.perf_counter()
        self.command = list(argv)
        self.checks = []
        self.data = {}
        # where a command prints lines while it works: None under --json
        self.stream = stream

    def add(self, name, status, **fields):
        """One check's entry; a field given as None is left out."""
        fields = {key: value for key, value in fields.items() if value is not None}
        self.checks.append({"name": name, "status": status, **fields})

    def json(self):
        report = {"command": self.command, "checks": self.checks}
        if self.data:
            report["data"] = self.data
        report["seconds"] = time.perf_counter() - self.started
        return json.dumps(report, indent=2, default=str)

    @property
    def failed(self):
        return any(c["status"] == "fail" for c in self.checks)


def _load(path):
    try:
        model = load_semigroup(path)
    except (OSError, ValueError) as exc:
        raise InputError(exc) from None
    validate(table_of(model))
    return model


def cmd_validate(args, report):
    # the parser has refused every other fault of shape and range
    try:
        _load(args.file)
    except NotAssociative as exc:
        report.add("associativity", "fail", detail=str(exc))
        return [str(exc)]
    report.add("associativity", "pass")
    return ["ok"]


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


def cmd_green(args, report):
    t = table_of(_load(args.file))
    g = green(t)
    report.data = {
        "r_class": list(g.r_class),
        "l_class": list(g.l_class),
        "h_class": list(g.h_class),
        "d_class": list(g.d_class),
        "j_class": list(g.j_class),
        "idempotents": sorted(g.idempotents),
        "group_h_classes": sorted(g.group_h_classes),
    }
    report.add("green", "pass")
    return [
        *_eggbox_lines(t, g),
        f"idempotents: {sorted(g.idempotents)}",
        f"group H-classes: {sorted(g.group_h_classes)}",
    ]


def cmd_epi(args, report):
    t = table_of(_load(args.file))
    data = epigroup_data(t)
    report.data = {"index": list(data.index), "pseudoinverse": list(data.pseudoinverse)}
    for ident, env in verify_epigroup_identities(pseudoinverse_map(t)):
        report.add(ident.text, "pass" if env is None else "fail", counterexample=env)
    lines = [f"index: {list(data.index)}", f"pseudoinverse: {list(data.pseudoinverse)}"]
    return lines + [f"{entry['status']:4s}  {entry['name']}" for entry in report.checks]


def cmd_variety(args, report):
    names = [name.strip() for name in (args.test or "").split(",") if name.strip()]
    if not (names or args.identity):
        raise InputError("variety needs --test or --identity")
    model = _load(args.file)
    if not isinstance(model, UnarySemigroup):
        model = pseudoinverse_map(model)
    try:
        tests = [variety_test(name) for name in names]
        ident = parse_identity(args.identity) if args.identity else None
    except ValueError as exc:
        raise InputError(exc) from None
    if "W" in names and not model.canonical:
        raise InputError(
            f"W reads only the pseudoinverse map, and {args.file} carries another unary map"
        )
    for name, test in zip(names, tests):
        result = test(model)
        report.add(
            name,
            "pass" if result.holds else "fail",
            detail=None if result.holds else str(result.failing_identity),
            counterexample=result.failing_assignment,
        )
    if ident is not None:
        env = find_counterexample(model, ident)
        report.add(ident.text, "pass" if env is None else "fail", counterexample=env)
    lines = []
    for entry in report.checks:
        extra = ""
        if entry["status"] == "fail":
            extra = f"  ({entry.get('detail') or ''} at {entry.get('counterexample')})"
        lines.append(f"{entry['status']:4s}  {entry['name']}{extra}")
    return lines


def cmd_variant(args, report):
    model = _load(args.file)
    t = table_of(model)
    if args.unary and not isinstance(model, UnarySemigroup):
        model = pseudoinverse_map(t)
    try:
        out = unary_variant(model, args.at) if args.unary else variant(t, args.at)
    except ValueError as exc:  # the sandwich element is out of range
        raise InputError(exc) from None
    return [emit_semigroup(out).rstrip("\n")]


def cmd_conjugacy(args, report):
    t = table_of(_load(args.file))
    result = check_transitivity(t)
    classes = [list(c) for c in result.classes]
    report.data = {
        "relation": [[int(v) for v in row] for row in result.relation],
        "transitive": result.transitive,
        "witness": result.witness,
        "classes": classes,
    }
    report.add("conjugacy", "pass")
    lines = [" ".join("1" if v else "0" for v in row) for row in result.relation]
    lines.append(f"transitive: {result.transitive}")
    if result.witness:
        lines.append(f"witness: {result.witness}")
    return [*lines, f"classes: {classes}"]


def _read_identities(path):
    """One identity a line; a line starting with '#' is a comment."""
    identities = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    identities.append(parse_identity(line))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
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


def cmd_enumerate(args, report):
    identities = ()
    if args.identities:
        try:
            identities = _read_identities(args.identities)
        except (OSError, ValueError) as exc:
            raise InputError(exc) from None
    if args.out and not args.count_only:
        # a smaller run would leave the earlier run's extra models beside a
        # manifest that does not list them; the user's files are never removed
        previous = _previous_run(args.out)
        if previous:
            raise InputError(
                f"{args.out} already holds {len(previous)} files of an earlier "
                f"--out run, {previous[0]} first; choose a new or empty directory"
            )
    filters = tuple(f.strip() for f in (args.filter or "").split(",") if f.strip())
    unary = "free" if args.free_unary else None if args.plain else "pseudoinverse"
    try:
        # the semigroup count is the model count unless unary maps are free
        if args.count_only and not (identities or filters or args.free_unary):
            return [str(count_semigroups(args.order, merge_anti=args.merge_anti))]
        models = enumerate_models(args.order, identities, filters, unary, merge_anti=args.merge_anti)
    except ValueError as exc:
        raise InputError(exc) from None
    if args.count_only:
        return [str(len(models))]
    if not args.out:
        # each model, then a blank line
        return [emit_semigroup(model) for model in models]
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
        raise InputError(exc) from None
    return [f"wrote {len(models)} models to {args.out}"]


def cmd_verify_paper(args, report):
    report.data["corpus_seconds"] = checks_module.build_corpus()
    for outcome, seconds in checks_module.run_all(stream=report.stream):
        status = "pass" if outcome.ok else "fail"
        report.add(outcome.name, status, detail=outcome.detail, seconds=seconds)
    return []


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
    try:
        args = build_parser().parse_args(argv)
        as_json = getattr(args, "json", False)
        report = ReportBuilder(argv, None if as_json else sys.stdout)
        lines = args.fn(args, report)
        for line in [report.json()] if as_json else lines:
            print(line)
        sys.stdout.flush()
    except SystemExit as exc:  # argparse's usage error, or its --help
        return exc.code
    except (InputError, SemigroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit cannot raise again (the recipe of the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
