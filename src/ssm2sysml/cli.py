"""Command-line front end: compile, check, trace, view, explain.

Exit codes: 0 = success/conformant, 1 = error-severity diagnostics,
2 = parse/IO/usage error, a name that trace or view cannot look up, a
closed stdout, or an internal error, which is reported in one line.
The code reflects the worst outcome across all inputs.  Outputs are
deterministic: no timestamps, stable ordering.  Each subcommand imports
only the modules it runs, because every call is a fresh process that
would otherwise load the whole package.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic
from .errors import MappingError, ParseError, UnknownRule

OK, DIAGNOSTICS, FAULT = 0, 1, 2


def _color_enabled() -> bool:
    value = os.environ.get("SSM2SYSML_COLOR")
    if value in ("0", "1"):
        return value == "1"
    return sys.stderr.isatty()


def _load(parse, path: str):
    """`parse` of one UTF-8 file, or None after printing why it failed."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), path)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"{path}: not UTF-8 text: byte {exc.start} ({exc.reason})", file=sys.stderr)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
    return None


def cmd_compile(args: argparse.Namespace) -> int:
    from .mapper import MappingOptions, map_context
    from .ssm_parser import parse_ssm
    from .sysml_text import emit

    color = _color_enabled()
    out_dir = Path(args.out_dir)
    options = MappingOptions(state_pattern=frozenset(args.state_pattern))
    worst = OK
    rd_ids: set[str] = set()  # of every input that parses, for the --state-pattern check
    written: dict[Path, str] = {}  # each file this run wrote, to the input it came from
    for input_path in args.inputs:
        ctx = _load(parse_ssm, input_path)
        if ctx is None:
            worst = max(worst, FAULT)
            continue
        rd_ids.update(rd.id for rd in ctx.root_definitions)
        try:
            model, report = map_context(ctx, options)
        except MappingError as exc:
            for diag in exc.diagnostics:
                print(diag.to_text(color), file=sys.stderr)
            worst = max(worst, DIAGNOSTICS)
            continue
        for warning in report.warnings:
            print(warning.to_text(color), file=sys.stderr)
        target = out_dir / f"{ctx.name}.sysml"
        if target in written:
            print(
                f"{input_path}: not writing {target}, already written from {written[target]}"
                f" (both declare context {ctx.name})",
                file=sys.stderr,
            )
            worst = FAULT
            continue
        written[target] = input_path
        out_dir.mkdir(parents=True, exist_ok=True)  # not before: a failed run leaves none
        target.write_text(emit(model), encoding="utf-8")
        if args.report:
            import json

            report_path = out_dir / f"{ctx.name}.report.json"
            report_path.write_text(
                json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
            )
        print(f"wrote {target}")
    for rd_id in dict.fromkeys(args.state_pattern):
        if rd_id not in rd_ids:
            print(f"--state-pattern {rd_id!r} names no root definition", file=sys.stderr)
            worst = FAULT
    return worst


def cmd_check(args: argparse.Namespace) -> int:
    from .conformance import check
    from .sysml_text import parse_sysml

    color = _color_enabled()
    rule_ids = args.rules.split(",") if args.rules else None
    worst = OK
    collected: list[Diagnostic] = []
    for input_path in args.inputs:
        model = _load(parse_sysml, input_path)
        if model is None:
            worst = max(worst, FAULT)
            continue
        try:
            diagnostics = check(model, rule_ids)
        except UnknownRule as exc:
            print(f"unknown rule id {exc.args[0]!r}", file=sys.stderr)
            return FAULT
        collected.extend(diagnostics)
        if any(d.is_error for d in diagnostics):
            worst = max(worst, DIAGNOSTICS)
    if args.format == "json":
        import json

        print(json.dumps([d.to_json() for d in collected], indent=2))
    else:
        for diag in collected:
            print(diag.to_text(color))
    return worst


def _query(args: argparse.Namespace, query: str, run) -> int:
    """Print the text that `run(model)` returns with the elements it found, or with
    `--format json` their `query_json`; a name `run` cannot look up exits 2."""
    from .errors import UnknownElement, UnknownMetadataDef, UnknownType
    from .sysml_text import parse_sysml
    from .trace_view import query_json

    model = _load(parse_sysml, args.model)
    if model is None:
        return FAULT
    try:
        elements, text = run(model)
    except (UnknownElement, UnknownMetadataDef, UnknownType) as exc:
        print(str(exc), file=sys.stderr)
        return FAULT
    if args.format == "json":
        import json

        print(json.dumps(query_json(query, elements), indent=2))
    else:
        print(text)
    return OK


def cmd_trace(args: argparse.Namespace) -> int:
    from .sysml_ast import qname_text
    from .trace_view import EDGE_KINDS, build_graph, reach

    kinds = None
    if args.kinds:
        kinds = frozenset(args.kinds.split(","))
        unknown = kinds - EDGE_KINDS
        if unknown:
            print(
                "unknown edge kinds: " + ", ".join(sorted(unknown)),
                file=sys.stderr,
            )
            return FAULT
    direction = "backward" if args.backward else "forward"

    def run(model):
        result = reach(build_graph(model), args.source, direction, kinds)
        return result, "\n".join(sorted(qname_text(p) for p in result))

    return _query(args, f"trace {direction} from {args.source}", run)


def cmd_view(args: argparse.Namespace) -> int:
    from .trace_view import render_view

    return _query(args, f"view {args.view}", lambda model: render_view(model, args.view))


def cmd_explain(args: argparse.Namespace) -> int:
    from .conformance import explain

    try:
        print(explain(args.rule))
    except UnknownRule:
        print(f"unknown rule id {args.rule!r}", file=sys.stderr)
        return FAULT
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssm2sysml",
        description="Compile soft-systems contexts to SysML v2, lint, and trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile .ssm files to .sysml")
    p_compile.add_argument("inputs", nargs="+", metavar="FILE.ssm")
    p_compile.add_argument("-o", "--out-dir", default="out")
    p_compile.add_argument(
        "--report", action="store_true", help="write a mapping report JSON per context"
    )
    p_compile.add_argument(
        "--state-pattern",
        action="append",
        default=[],
        metavar="RD_ID",
        help="model the named transformation's subject with a state machine",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_check = sub.add_parser("check", help="lint .sysml files against the rule set")
    p_check.add_argument("inputs", nargs="+", metavar="FILE.sysml")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--rules", help="comma-separated rule ids to run")
    p_check.set_defaults(func=cmd_check)

    p_trace = sub.add_parser("trace", help="reachability query over a model")
    p_trace.add_argument("model", metavar="FILE.sysml")
    p_trace.add_argument("--from", dest="source", required=True, metavar="QNAME")
    direction = p_trace.add_mutually_exclusive_group()
    direction.add_argument("--forward", action="store_true")
    direction.add_argument("--backward", action="store_true")
    p_trace.add_argument("--kinds", help="comma-separated edge kinds to follow")
    p_trace.add_argument("--format", choices=("text", "json"), default="text")
    p_trace.set_defaults(func=cmd_trace)

    p_view = sub.add_parser("view", help="render a view's exposed elements")
    p_view.add_argument("model", metavar="FILE.sysml")
    p_view.add_argument("view", metavar="VIEW_NAME")
    p_view.add_argument("--format", choices=("text", "json"), default="text")
    p_view.set_defaults(func=cmd_view)

    p_explain = sub.add_parser("explain", help="describe one diagnostic code")
    p_explain.add_argument("rule", metavar="CODE")
    p_explain.set_defaults(func=cmd_explain)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader of stdout has gone: an I/O fault.  What is still buffered
        # goes to devnull, so the interpreter's last flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return FAULT
    except Exception as exc:  # a defect, reported in one line rather than a traceback
        print(
            f"ssm2sysml: internal error in {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return FAULT


if __name__ == "__main__":
    raise SystemExit(main())
