"""One benchmark workload in a fresh process; prints one JSON line.

Started by run.py, which reads this process's peak memory when it exits.

Workloads (the reasons are recorded in BENCHMARK.json):

- corpus: about 150 small generated studies plus both fixtures.  Each is
  compiled, checked (about one in five with one injected rule violation)
  and queried two or three times; a query here is what `ssm2sysml trace`
  or `ssm2sysml view` does on a loaded model, graph build included.
- query: one generated context of 200 root definitions x 20 activities
  (ROADMAP scale).  Each of four set-ups compiles it, appends views,
  loads the result and builds its graph; the loaded model is also
  checked.  After each set-up a fixed seeded stream of 300 `reach` and
  `render_view` calls runs on that load, repeated until the set-up's
  quarter of the time is up.  Compile and check throughput at this scale
  come from the set-ups.

Latency is reported per call type: `reach_ms_p50` and `reach_ms_p95` over
`reach` calls, `view_ms_p50` over `render_view` calls.  A `render_view`
call takes about ten times as long as a `reach` call, so one percentile
over both would mostly measure the share of views in the mix.  That mix
(`plan_queries`) is an assumption, not taken from any record of use.

Every workload also times the CLI (`compile`, then `check`, on the case
study) in child processes, spread over the run so that they take about a
quarter of it.

Every output is checked on first sight (round trip, expected diagnostics,
independent reachability and view oracles); repeats must match the first
answer.  Outputs seen on the first pass feed a digest for comparing
commits.

With --trace 1 the workload alternates untraced and traced passes over
the same fixed work: per-layer figures come from the traced set-up and
the first traced pass, so counts repeat exactly; the tracing overhead is
the traced pass time, less the time of the calls only a traced pass makes
(a separate `lex` before each parse, one `ModelIndex` per checked model,
element counting), against the untraced pass time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import gen  # noqa: E402
from tracing import GcWatch, Tracer, perf  # noqa: E402

from ssm2sysml import (  # noqa: E402
    RULES,
    build_graph,
    check,
    emit,
    map_context,
    parse_ssm,
    parse_sysml,
    reach,
    render_view,
    validate_context,
)
from ssm2sysml.lexing import lex  # noqa: E402
from ssm2sysml.sysml_ast import ModelIndex  # noqa: E402
from ssm2sysml.sysml_text import filter_to_text  # noqa: E402
from ssm2sysml.trace_view import EDGE_KINDS  # noqa: E402

# The edge kinds the README uses to ask which elements serve a concern.
README_KINDS = frozenset(
    {"frames", "satisfies", "subsets", "objectiveOf", "performs", "subjectOf"}
)
# Spelled out, not read from the package, so that the per-layer metric
# names stay the same across commits.
RULE_IDS = (
    "R-ACT-1", "R-STK-1", "R-ENV-1", "R-WVW-1", "R-TRF-1",
    "R-SUB-1", "R-VIEW-1", "R-IND-1", "R-CAT-1", "R-OWN-1",
)
CORPUS_STUDIES = 150
VIOLATION_SHARE = 0.2
QUERY_VIEWS = 48
QUERY_STREAM = 300
CLI_SHARE = 0.25
MIN_CLI_PAIRS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ssm2sysml.cli; "
    "print(time.perf_counter() - t)"
)


# ---------------------------------------------------------------------------
# Independent oracles, written against the documented data model only.


def oracle_reach(edges, start, direction, kinds) -> set:
    """Breadth-first search over the raw edge list."""
    adjacency: dict = {}
    for edge in edges:
        if kinds is not None and edge.kind not in kinds:
            continue
        a, b = (edge.source, edge.target) if direction == "forward" else (edge.target, edge.source)
        adjacency.setdefault(a, []).append(b)
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def subtree(element, path):
    """(element, path) pairs of a subtree; unnamed elements get `kind@index`."""
    stack = [(element, path)]
    while stack:
        el, p = stack.pop()
        yield el, p
        for i, child in enumerate(el.children):
            stack.append((child, p + (child.name or f"{child.kind.value}@{i}",)))


def count_elements(model) -> int:
    return sum(1 for _ in subtree(model, (model.name,)))


def oracle_view(model, name: str, kinds: frozenset | None) -> set:
    """A view whose filter only tests kinds: exposed top-level subtrees."""
    members = {child.name: child for child in model.children}
    view = members[name]
    out = set()
    for rel in view.relationships:
        if rel.kind.name != "EXPOSES":
            continue
        target = members[rel.target[-1]]
        for el, path in subtree(target, (model.name, target.name)):
            if kinds is None or el.kind.value in kinds:
                out.add(path)
    return out


def kind_only_filter(text: str | None) -> frozenset | None:
    """Kinds named by a filter made of `iskind` atoms joined by `or`."""
    if text is None:
        return None
    atoms = text.split(" or ")
    if not all(a.startswith("iskind ") and " " not in a[7:] for a in atoms):
        raise ValueError(text)
    return frozenset(a[7:] for a in atoms)


# ---------------------------------------------------------------------------
# Recording


class Record:
    """Samples, failures, first answers and the output digest of one run."""

    def __init__(self, probe: Tracer) -> None:
        self.probe = probe
        self.sampling = True
        self.compile: list[tuple[int, float]] = []
        self.check: list[tuple[int, float]] = []
        self.reach_ms: list[float] = []
        self.view_ms: list[float] = []
        self.cli_ms: list[float] = []
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict = {}
        self.digest = hashlib.sha256()
        self.extra_s = 0.0  # time of calls only a traced pass makes

    def fail(self, key, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{key}: {message}")

    def answer(self, key, fingerprint: str, verify) -> None:
        """Check an output: fully on first sight, by fingerprint after."""
        seen = hashlib.sha1(fingerprint.encode()).digest()
        if key in self.first:
            if self.first[key] != seen:
                self.fail(key, "output differs from the first run of the same input")
            return
        self.first[key] = seen
        self.digest.update(repr(key).encode() + b"\0" + fingerprint.encode() + b"\0")
        problem = verify()
        if problem:
            self.fail(key, problem)

    def traced_extra(self, fn, *args):
        start = perf()
        try:
            return fn(*args)
        finally:
            self.extra_s += perf() - start


def guarded(rec: Record, key, fn, *args):
    """Run one operation; an exception counts as a failed operation.

    In a traced pass the operation is a root span (`op.compile`, ...), so
    the spans of its calls into the package share it as their parent.
    """
    rec.attempted += 1
    name = "op." + (key if isinstance(key, str) else key[0])
    try:
        return rec.probe.call(name, fn, *args)
    except Exception as exc:  # the benchmark must finish and report it
        rec.fail(key, f"{type(exc).__name__}: {exc}")
        return None


# ---------------------------------------------------------------------------
# Operations.  Each times only calls into the package.


def lex_separately(rec: Record, text: str, name: str, style: str) -> None:
    """Traced passes only: lex once more on its own, so that the parse
    self times can exclude lexing."""
    probe = rec.probe
    if probe.recording:
        tokens = rec.traced_extra(probe.call, "lex." + style, lex, text, name, style)
        probe.count("tokens", len(tokens))
        probe.count("lexed_bytes", len(text))


def index_separately(rec: Record, model) -> None:
    """Traced passes only: one ModelIndex build, and the element count."""
    probe = rec.probe
    if probe.recording:
        rec.traced_extra(probe.call, "ModelIndex", ModelIndex, model)
        probe.count("parsed_elements", rec.traced_extra(count_elements, model))


def op_compile(rec: Record, key, name: str, text: str, fault: str | None):
    """parse_ssm -> validate_context -> map_context -> emit."""
    probe = rec.probe
    lex_separately(rec, text, name, "ssm")
    start = perf()
    ctx = probe.call("parse_ssm", parse_ssm, text, name)
    problems = probe.call("validate_context", validate_context, ctx)
    errors = [d for d in problems if d.is_error]
    out = model = None
    warnings = ()
    if not errors:
        model, report = probe.call("map_context", map_context, ctx)
        out = probe.call("emit", emit, model)
        warnings = report.warnings
    elapsed = perf() - start
    if rec.sampling:
        rec.compile.append((len(text), elapsed))
    if probe.recording and model is not None:
        probe.count("mapped_elements", rec.traced_extra(count_elements, model))
        probe.count("emit_bytes", len(out))

    def verify():
        codes = [d.rule_id for d in errors]
        if fault is not None:
            return None if codes == [fault] else f"expected [{fault}], got {codes}"
        return f"unexpected errors {codes}" if codes else None

    shown = out if out is not None else "\n".join(d.to_text() for d in errors)
    rec.answer(key, shown + "".join(d.to_text() for d in warnings), verify)
    return out


def op_check(rec: Record, key, name: str, text: str, expect: str | None, canonical: str | None):
    """parse_sysml -> check.  `expect` is the one rule id that must fire.

    `canonical` is the compiled text the checked text was made from; it
    must round-trip through parse and emit byte for byte.
    """
    probe = rec.probe
    lex_separately(rec, text, name, "sysml")
    start = perf()
    model = probe.call("parse_sysml", parse_sysml, text, name)
    diagnostics = probe.call("check", check, model)
    elapsed = perf() - start
    if rec.sampling:
        rec.check.append((len(text), elapsed))
    index_separately(rec, model)
    for d in diagnostics:
        probe.count("diag." + d.rule_id, 1)

    def verify():
        ids = sorted({d.rule_id for d in diagnostics})
        if expect is not None and ids != [expect]:
            return f"injected {expect}, got {ids}"
        if expect is None and any(d.is_error for d in diagnostics):
            return f"valid model has errors {ids}"
        if canonical is not None:
            again = model if text == canonical else parse_sysml(canonical, name)
            if emit(again) != canonical:
                return "emit(parse_sysml(t)) != t"
        return None

    rec.answer(key, "\n".join(d.to_text() for d in diagnostics), verify)
    return model


def op_query(rec: Record, key, model, graph, query):
    """One reach or render_view call.  Without a graph, reach builds one."""
    probe = rec.probe
    if query[0] == "view":
        _, name, flt = query
        start = perf()
        result, report = probe.call("render_view", render_view, model, (model.name, name))
        elapsed = perf() - start
        probe.count("view_elements", len(result))

        def verify():
            try:
                kinds = kind_only_filter(flt)
            except ValueError:
                return None  # metadata and type filters: fingerprint only
            expected = oracle_view(model, name, kinds)
            return None if result == expected else "view differs from subtree walk"

        shown = report
    else:
        _, start_path, direction, kinds = query
        start = perf()
        built = graph if graph is not None else probe.call("build_graph", build_graph, model)
        result = probe.call("reach", reach, built, start_path, direction, kinds)
        elapsed = perf() - start
        probe.count("reach_visited", len(result))
        if graph is None:
            probe.count("nodes", len(built.nodes))
            probe.count("edges", len(built.edges))

        def verify():
            expected = oracle_reach(built.edges, start_path, direction, kinds)
            return None if result == expected else "reach differs from BFS over graph.edges"

        shown = "\n".join(sorted(".".join(p) for p in result))
    if rec.sampling:
        (rec.view_ms if query[0] == "view" else rec.reach_ms).append(elapsed * 1000)
    rec.answer(key, shown, verify)


def plan_queries(rng: random.Random, model, views, count: int, view_share: float):
    """Seeded queries over a loaded model's top-level members.

    The mix is fixed (views, then 45% of the rest backward from concerns,
    the others forward from individuals, half with every edge kind named
    and half unrestricted) and only the targets and the order are drawn,
    so that latency percentiles do not drift with the seed; views are
    queried in turn.  The README shows each of the call forms once; the
    proportions are assumed.
    """
    concerns, people = [], []
    for child in model.children:
        if child.kind.value == "concern":
            concerns.append((model.name, child.name))
        elif child.kind.value == "individual":
            people.append((model.name, child.name))
    n_view = round(count * view_share) if views else 0
    rest = count - n_view
    n_back = round(rest * 0.45) if concerns else 0
    n_all = (rest - n_back) // 2 + ((rest - n_back) % 2 and rng.random() < 0.5)
    n_free = rest - n_back - n_all
    views = rng.sample(views, len(views))
    plan = [("view",) + views[k % len(views)] for k in range(n_view)]
    plan += [("reach", rng.choice(concerns), "backward", README_KINDS) for _ in range(n_back)]
    plan += [("reach", rng.choice(people), "forward", EDGE_KINDS) for _ in range(n_all)]
    plan += [("reach", rng.choice(people), "forward", None) for _ in range(n_free)]
    rng.shuffle(plan)
    return plan


def model_views(model):
    """(name, filter text) of every view, for queries on mapped models."""
    return [
        (c.name, filter_to_text(c.filter) if c.filter is not None else None)
        for c in model.children
        if c.kind.value == "view"
    ]


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    setup_reps = 5

    def __init__(self, seed: int, rec: Record) -> None:
        self.seed = seed
        self.rec = rec
        self.tick = lambda: None  # called between operations

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.seed,) + salt)))

    def setup(self) -> float:
        """Generate inputs (and load, where the workload needs it)."""
        raise NotImplementedError

    def run_pass(self, deadline: float | None) -> None:
        """One pass over the fixed work, cut short after `deadline`."""
        raise NotImplementedError


def read_fixture(name: str) -> str:
    with open(os.path.join(ROOT, "data", name), encoding="utf-8") as f:
        return f.read()


class Corpus(Workload):
    def __init__(self, seed: int, rec: Record) -> None:
        super().__init__(seed, rec)
        # Text to check and injected rule per item; the same for every set-up.
        self.checked: dict[int, tuple[str, str | None]] = {}

    def setup(self) -> float:
        start = perf()
        rng = self.rng("corpus")
        items = []
        for study in gen.corpus(rng, CORPUS_STUDIES):
            rules = None
            if study.fault is None and rng.random() < VIOLATION_SHARE:
                rules = list(gen.VIOLATIONS)
                rng.shuffle(rules)
            items.append((study.name, study.text, None, study.fault, rules))
        items.append(("case_study", read_fixture("case_study.ssm"), None, None, None))
        items.append(("kettle", None, read_fixture("kettle.sysml"), None, None))
        self.items = items
        return perf() - start

    def checked_text(self, i: int, compiled: str, rules):
        """The text to check and the rule injected into it, if any."""
        if i not in self.checked:
            chosen = (compiled, None)
            for rule in rules or ():
                try:
                    chosen = (gen.inject_violation(compiled, rule), rule)
                    break
                except LookupError:
                    continue
            self.checked[i] = chosen
        return self.checked[i]

    def run_pass(self, deadline: float | None) -> None:
        rec = self.rec
        for i, (name, ssm, sysml, fault, rules) in enumerate(self.items):
            if deadline is not None and perf() > deadline:
                return
            self.tick()
            compiled = sysml
            if ssm is not None:
                compiled = guarded(rec, ("compile", i), op_compile, rec, ("compile", i),
                                   name + ".ssm", ssm, fault)
            if compiled is None:
                continue
            text, rule = self.checked_text(i, compiled, rules)
            model = guarded(rec, ("check", i), op_check, rec, ("check", i),
                            name + ".sysml", text, rule, compiled)
            if model is None:
                continue
            rng = self.rng("queries", i)
            for q, query in enumerate(plan_queries(rng, model, model_views(model),
                                                   rng.randint(2, 3), 0.25)):
                guarded(rec, ("query", i, q), op_query, rec, ("query", i, q), model, None, query)


class Query(Workload):
    setup_reps = 4

    model = graph = None

    def setup(self) -> float:
        rec = self.rec
        self.model = self.graph = None  # release the previous load first
        start = perf()
        study = gen.large(self.rng("large"))
        compiled = guarded(rec, "compile", op_compile, rec, "compile",
                           "large.ssm", study.text, None)
        if compiled is None:
            raise RuntimeError("the large context does not compile")
        text, self.views = gen.inject_views(self.rng("views"), compiled, QUERY_VIEWS)
        probe = rec.probe
        lex_separately(rec, text, "query.sysml", "sysml")
        parse_start = perf()
        model = probe.call("parse_sysml", parse_sysml, text, "query.sysml")
        parse_s = perf() - parse_start
        graph = probe.call("build_graph", build_graph, model)
        elapsed = perf() - start
        probe.count("nodes", len(graph.nodes))
        probe.count("edges", len(graph.edges))
        # The loaded model is also checked, outside the set-up time, so that
        # check throughput is measured on this model too.
        rec.attempted += 1
        check_start = perf()
        diagnostics = probe.call("check", check, model)
        if rec.sampling:
            rec.check.append((len(text), parse_s + perf() - check_start))
        index_separately(rec, model)

        def verify():
            if diagnostics:
                return f"model with views has diagnostics {[d.rule_id for d in diagnostics]}"
            return None if emit(model) == text else "emit(parse_sysml(t)) != t"

        rec.answer("load", "\n".join(d.to_text() for d in diagnostics), verify)
        self.model, self.graph = model, graph
        self.plan = plan_queries(self.rng("stream"), model, self.views, QUERY_STREAM, 0.2)
        return elapsed

    def run_pass(self, deadline: float | None) -> None:
        rec = self.rec
        for q, query in enumerate(self.plan):
            if deadline is not None and perf() > deadline:
                return
            guarded(rec, ("query", q), op_query, rec, ("query", q), self.model, self.graph, query)
            self.tick()


WORKLOADS = {"corpus": Corpus, "query": Query}


# ---------------------------------------------------------------------------
# Child processes: import time and the CLI


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, SSM2SYSML_COLOR="0")


def import_seconds(rec: Record) -> float | None:
    """Import of the CLI module in a fresh interpreter."""
    rec.attempted += 1
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        rec.fail("import", proc.stderr.strip()[-200:])
        return None
    return float(proc.stdout)


def cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ssm2sysml.cli"] + args,
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=60)


class CliTimer:
    """`compile` then `check` on the case study, timed as one pair.

    Pairs are spread over the whole run, so that they meet the same mix
    of machine states as the in-process samples.
    """

    def __init__(self, rec: Record, tmp: str) -> None:
        self.rec = rec
        self.tmp = tmp
        self.case = os.path.join(ROOT, "data", "case_study.ssm")
        ctx = parse_ssm(read_fixture("case_study.ssm"), self.case)
        self.expected = emit(map_context(ctx)[0])
        self.begin = perf()
        self.spent = 0.0
        self.pairs = 0

    def maybe(self) -> None:
        if self.spent < CLI_SHARE * (perf() - self.begin):
            self.pair()

    def pair(self) -> None:
        rec, out = self.rec, os.path.join(self.tmp, "Context.sysml")
        rec.attempted += 1
        self.pairs += 1
        start = perf()
        compiled = cli(["compile", self.case, "-o", self.tmp])
        checked = cli(["check", out])
        elapsed = perf() - start
        self.spent += elapsed
        if compiled.returncode != 0 or checked.returncode != 0:
            rec.fail("cli", f"exit codes {compiled.returncode}, {checked.returncode}")
            return
        with open(out, encoding="utf-8") as f:
            if f.read() != self.expected:
                rec.fail("cli", "compiled file differs from emit(map_context(...))")
                return
        rec.cli_ms.append(elapsed * 1000)

    def error_paths(self, work: Corpus) -> None:
        """Exit code 1 for an SSM-00x input and for an injected error rule."""
        rec, tmp = self.rec, self.tmp
        faulty = next(item for item in work.items if item[3] is not None)
        path = os.path.join(tmp, "faulty.ssm")
        with open(path, "w", encoding="utf-8") as f:
            f.write(faulty[1])
        rec.attempted += 1
        code = cli(["compile", path, "-o", tmp]).returncode
        if code != 1:
            rec.fail("cli-ssm-error", f"exit code {code}, expected 1")
        errors = {rule.id for rule in RULES if str(rule.severity) == "error"}
        injected = [text for text, rule in work.checked.values() if rule in errors]
        if injected:
            path = os.path.join(tmp, "violating.sysml")
            with open(path, "w", encoding="utf-8") as f:
                f.write(injected[0])
            rec.attempted += 1
            code = cli(["check", path]).returncode
            if code != 1:
                rec.fail("cli-rule-error", f"exit code {code}, expected 1")


# ---------------------------------------------------------------------------
# Reports


def throughput(samples: list[tuple[int, float]]) -> float:
    """KB per second, summed over every input the run processed."""
    if not samples:
        return 0.0
    return sum(b for b, _ in samples) / 1024 / sum(s for _, s in samples)


def end_to_end(rec: Record) -> dict:
    reach_ms, view_ms = rec.reach_ms, rec.view_ms
    return {
        "compile_kb_s": {"value": throughput(rec.compile), "unit": "KB/s",
                         "samples": len(rec.compile)},
        "check_kb_s": {"value": throughput(rec.check), "unit": "KB/s",
                       "samples": len(rec.check)},
        "reach_ms_p50": {"value": statistics.median(reach_ms), "unit": "ms",
                         "samples": len(reach_ms)},
        "reach_ms_p95": {"value": statistics.quantiles(reach_ms, n=20)[-1], "unit": "ms",
                         "samples": len(reach_ms)},
        "view_ms_p50": {"value": statistics.median(view_ms), "unit": "ms",
                        "samples": len(view_ms)},
        "cli_ms_p50": {"value": statistics.median(rec.cli_ms) if rec.cli_ms else 0.0,
                       "unit": "ms", "samples": len(rec.cli_ms)},
        "setup_s": {"value": statistics.median(rec.setup_s), "unit": "s",
                    "samples": len(rec.setup_s)},
    }


def per_layer(tracer: Tracer, gcw: GcWatch, import_ms: float, overhead: float) -> dict:
    own = tracer.self_ms()
    c = tracer.counts
    lex_ms = tracer.total_ms("lex.ssm") + tracer.total_ms("lex.sysml")
    values = {
        "lexing.lex_ms": (lex_ms, "ms"),
        "lexing.tokens": (c["tokens"], "count"),
        "lexing.mb_s": (c["lexed_bytes"] / 1e6 / (lex_ms / 1000) if lex_ms else 0.0, "MB/s"),
        "ssm_parser.parse_ssm_ms": (own["parse_ssm"] - tracer.total_ms("lex.ssm"), "ms"),
        "ssm_model.validate_ms": (own["validate_context"], "ms"),
        "mapper.map_ms": (own["map_context"], "ms"),
        "mapper.elements": (c["mapped_elements"], "count"),
        "sysml_text.emit_ms": (own["emit"], "ms"),
        "sysml_text.emit_bytes": (c["emit_bytes"], "bytes"),
        "sysml_text.parse_sysml_ms": (own["parse_sysml"] - tracer.total_ms("lex.sysml"), "ms"),
        "sysml_text.elements": (c["parsed_elements"], "count"),
        "sysml_ast.index_ms": (own["ModelIndex"], "ms"),
        "conformance.check_ms": (own["check"], "ms"),
        "trace_view.build_graph_ms": (own["build_graph"], "ms"),
        "trace_view.nodes": (c["nodes"], "count"),
        "trace_view.edges": (c["edges"], "count"),
        "trace_view.reach_ms": (own["reach"], "ms"),
        "trace_view.reach_visited": (c["reach_visited"], "count"),
        "trace_view.render_view_ms": (own["render_view"], "ms"),
        "trace_view.view_elements": (c["view_elements"], "count"),
        "cli.import_ms": (import_ms, "ms"),
        "gc.pause_ms": (gcw.pause_s * 1000, "ms"),
        "gc.gen2_collections": (gcw.gen2, "count"),
        "trace.overhead_pct": (overhead, "%"),
    }
    for rule in RULE_IDS:
        values["conformance.diagnostics." + rule] = (c["diag." + rule], "count")
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# ---------------------------------------------------------------------------


def run_untraced(work: Workload, rec: Record, seconds: float, tmp: str) -> dict:
    """Set-ups spread over the run, each followed by passes until its share
    of the time is up, so that set-up samples meet the same mix of machine
    states as the passes."""
    cli_timer = CliTimer(rec, tmp)
    work.tick = cli_timer.maybe
    for rep in range(work.setup_reps):
        end = cli_timer.begin + seconds * (rep + 1) / work.setup_reps
        imported = import_seconds(rec) or 0.0
        rec.setup_s.append(imported + work.setup())
        if rep == 0:
            # The first pass runs whole: it is the one that verifies every output.
            work.run_pass(None)
        while perf() < end:
            work.run_pass(end)
    while cli_timer.pairs < MIN_CLI_PAIRS:
        cli_timer.pair()
    if isinstance(work, Corpus):
        cli_timer.error_paths(work)
    return end_to_end(rec)


def run_traced(work: Workload, rec: Record, tracer: Tracer, seconds: float) -> dict:
    """Untraced and traced passes in turn, at least one of each after the first."""
    imports = [import_seconds(rec) for _ in range(3)]
    import_ms = statistics.median(s for s in imports if s is not None) * 1000
    rec.sampling = False
    gcw = GcWatch()
    gcw.install()
    tracer.recording = gcw.active = True
    tracer.call("op.setup", work.setup)
    untraced, traced = [], []
    first = None
    begin = perf()
    index = 0
    while index < 3 or perf() < begin + seconds:
        tracer.recording = index % 2 == 1
        gcw.active = tracer.recording and first is None
        extra_before = rec.extra_s
        start = perf()
        work.run_pass(None)
        wall = perf() - start
        if tracer.recording:
            traced.append(wall - (rec.extra_s - extra_before))
            if first is None:
                first = tracer.snapshot()
        elif index > 0:  # the first pass also verifies, so it is not compared
            untraced.append(wall)
        index += 1
    tracer.recording = gcw.active = False
    gcw.remove()
    overhead = 100 * (statistics.median(traced) / statistics.median(untraced) - 1)
    return per_layer(first, gcw, import_ms, overhead)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    tracer = Tracer()
    rec = Record(tracer)
    work = WORKLOADS[args.workload](args.seed, rec)
    tmp = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if args.trace:
            metrics = run_traced(work, rec, tracer, args.seconds)
        else:
            metrics = run_untraced(work, rec, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
        "digest": rec.digest.hexdigest(),
        "failures": rec.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
