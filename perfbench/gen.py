"""Seeded, stdlib-only input generator for the benchmark.

The program under test only ever receives the text written here: `.ssm`
studies, compiled `.sysml` models with injected views, and compiled
models with one injected rule violation.  Everything is a pure function
of a `random.Random`, so one seed always gives the same inputs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

PERSON_TYPES = ("Employee", "Operator", "Person", "Supplier", "Contractor")
# Subject and item type pools overlap on purpose: real studies reuse a
# name such as "Tool" both for the thing transformed and for what flows
# in or out, so type declarations are shared across root definitions.
SUBJECT_TYPES = ("Role", "Machine", "Asset", "Tool", "Ticket", "Site")
ITEM_TYPES = ("Tool", "License", "Material", "Ticket", "Asset", "Report", "Order")
WORDS = (
    "assign", "review", "record", "check", "approve", "order", "deliver",
    "inspect", "repair", "schedule", "notify", "allocate", "audit", "plan",
)
ROLES = ("Manager", "Technician", "Clerk", "Lead", "Auditor", "Planner")
FIELDS = ("level", "stock", "queue", "budget", "license", "role", "tool")
ATTRS = ("amount", "count", "length", "availability", "limit", "name")

SSM_FAULTS = ("SSM-001", "SSM-002", "SSM-003", "SSM-004", "SSM-005")


@dataclass(frozen=True)
class Study:
    """One generated `.ssm` text and the SSM code injected into it, if any."""

    name: str
    text: str
    fault: str | None = None


def _expr(rng) -> str:
    def atom() -> str:
        op = rng.choice((">", ">=", "<", "<=", "==", "!="))
        left = f"{rng.choice(FIELDS)}.{rng.choice(ATTRS)}"
        if rng.random() < 0.3:
            right = f"{rng.choice(FIELDS)}.{rng.choice(ATTRS)}"
        else:
            right = str(rng.randint(0, 50))
        return f"{left} {op} {right}"

    text = atom()
    if rng.random() < 0.35:
        text += f" {rng.choice(('and', 'or'))} {atom()}"
    return text


def _flows(rng, acts: list[str]) -> list[tuple[str, str]]:
    """Linear, branching or fan-out/fan-in flows; always acyclic."""
    n = len(acts)
    shape = rng.choice(("linear", "linear", "branching", "lanes"))
    if shape == "linear" or n < 4:
        return [(acts[i], acts[i + 1]) for i in range(n - 1)]
    flows: list[tuple[str, str]] = []
    if shape == "branching":
        for j in range(1, n):
            for k in rng.sample(range(max(0, j - 4), j), min(j, rng.randint(1, 2))):
                flows.append((acts[k], acts[j]))
        return flows
    # lanes: first activity forks into parallel chains that join at the last
    inner = acts[1:-1]
    lanes = rng.randint(2, min(4, len(inner)))
    for lane in range(lanes):
        chain = [acts[0]] + inner[lane::lanes] + [acts[-1]]
        flows.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    return flows


def study_text(
    rng,
    name: str,
    root_definitions: int,
    activities: tuple[int, int],
    individuals: int,
    fault: str | None = None,
) -> str:
    """One `.ssm` context; `fault` injects exactly one error of that code."""
    out = [f"# generated study {name}", f"context {name} {{"]
    people = [f"{rng.choice(ROLES).lower()}{i}" for i in range(individuals)]
    for i, pid in enumerate(people):
        display = f"{rng.choice(ROLES)} {i}"
        if i and rng.random() < 0.1:
            display = f"{rng.choice(ROLES)} 0"  # display names may collide
        out.append(f'    individual {pid} : {rng.choice(PERSON_TYPES)} "{display}"')
    fault_rd = rng.randrange(root_definitions) if fault else -1
    ec_serial = 0
    for r in range(root_definitions):
        rid = f"{rng.choice(WORDS)}{r}"
        actors = rng.sample(people, rng.randint(1, min(3, len(people))))
        owner = rng.choice(people)
        customers = rng.sample(people, rng.randint(1, min(2, len(people))))
        performers = actors + [owner]
        outsiders = [p for p in people if p not in performers]
        out.append(f"    root-definition {rid} {{")
        out.append("        customer " + " ".join(customers))
        out.append("        actor " + " ".join(actors))
        out.append(f"        owner {owner}")
        statement = f"{rng.choice(WORDS)} the {rng.choice(ITEM_TYPES).lower()} for case {r}"
        if fault == "SSM-005" and r == fault_rd:
            statement = ""
        out.append(f'        transformation "{statement}" {{')
        out.append(f"            subject subj{r} : {rng.choice(SUBJECT_TYPES)}")
        ios = [f"in{r}_{k}" for k in range(rng.randint(0, 2))]
        outs = [f"out{r}_{k}" for k in range(rng.randint(0, 2))]
        if fault == "SSM-004" and r == fault_rd:
            ios, outs = [f"io{r}"], [f"io{r}"]
        out.extend(f"            input {v} : {rng.choice(ITEM_TYPES)}" for v in ios)
        out.extend(f"            output {v} : {rng.choice(ITEM_TYPES)}" for v in outs)
        out.append("        }")
        out.append(f'        worldview "{rng.choice(WORDS)} work should be visible to everyone ({r})"')
        first_ec = None
        for _ in range(rng.randint(0, 3)):
            ec = f"EC{ec_serial}"
            ec_serial += 1
            line = f'        environmental-constraint {ec} "constraint {ec} of {rid}"'
            if rng.random() < 0.8:
                line += f' {rng.choice(("require", "require", "assume", "assert"))} "{_expr(rng)}"'
            if first_ec is not None and rng.random() < 0.4:
                line += f" refines {first_ec}"
            first_ec = first_ec or ec
            out.append(line)
        out.append("    }")
        if rng.random() < 0.1 and not (fault and r == fault_rd):
            continue  # no conceptual model: the W-NOCM warning path
        lo, hi = activities
        count = lo + min(hi - lo, int((hi - lo + 1) * rng.random() ** 2))
        acts = [f"a{r}_{k}" for k in range(count)]
        out.append(f"    conceptual-model {rid} {{")
        for k, act in enumerate(acts):
            by = rng.choice(performers)
            if k == 0 and r == fault_rd:
                if fault == "SSM-001":
                    by = "nobody"
                elif fault == "SSM-002" and outsiders:
                    by = outsiders[0]
            out.append(f'        activity {act} "{rng.choice(WORDS)} step {k}" by {by}')
        flows = _flows(rng, acts)
        if fault == "SSM-003" and r == fault_rd:
            flows.append((acts[-1], acts[0]) if len(acts) > 1 else (acts[0], acts[0]))
        out.extend(f"        flow {a} -> {b}" for a, b in flows)
        for m in range(rng.randint(0, 2)):
            watched = ", ".join(rng.sample(acts, min(len(acts), rng.randint(1, 3))))
            out.append(f'        monitor m{r}_{m} "watch stage {m}" controls {watched}')
        out.append("    }")
    out.append("}")
    return "\n".join(out) + "\n"


def corpus(rng, studies: int) -> list[Study]:
    """Small studies of 1-12 root definitions, 2-15 activities each.

    Sizes are skewed towards small studies (quantiles of `random() ** 2`);
    the skew is assumed, not taken from measured collections.  Every seed
    gets the same root-definition counts in its own order, so that the
    size mix, which sets per-call latency, does not vary with the seed.
    One in twenty carries one SSM-00x error, each code in turn.
    """
    root_definitions = [1 + int(12 * ((k + 0.5) / studies) ** 2) for k in range(studies)]
    rng.shuffle(root_definitions)
    out = []
    for i, n_rd in enumerate(root_definitions):
        fault = SSM_FAULTS[i // 20 % len(SSM_FAULTS)] if i % 20 == 7 else None
        n_ind = rng.randint(2, 8)
        if fault == "SSM-002":
            n_ind = max(n_ind, 6)  # leave someone who is neither actor nor owner
        name = f"Study{i}"
        text = study_text(rng, name, n_rd, (2, 15), n_ind, fault)
        out.append(Study(name, text, fault))
    return out


def large(rng) -> Study:
    """ROADMAP scale: 200 root definitions x 20 activities, 20 individuals."""
    return Study("Large", study_text(rng, "Large", 200, (20, 20), 20))


# ---------------------------------------------------------------------------
# Edits of compiled `.sysml` text.  They rely only on the canonical layout
# the emitter documents (four-space indent, one declaration per line).

_TOP = re.compile(r"^    (\w+) (?!def\b)('[^']*'|\w+)")


def top_level(text: str) -> dict[str, list[str]]:
    """Names of top-level usages by keyword (`part`, `concern`, ...)."""
    found: dict[str, list[str]] = {}
    for line in text.splitlines():
        m = _TOP.match(line)
        if m:
            found.setdefault(m.group(1), []).append(m.group(2))
    return found


VIEW_FILTERS = (
    "iskind action",
    "iskind actor",
    "iskind part",
    "@CATWOE",
    "@CATWOE.element == CatwoeElement::Actor",
    "@CATWOE.element == CatwoeElement::Customer",
    "istype {person}",
    "iskind action and not @CATWOE",
    "iskind stakeholder or iskind actor",
)


def inject_views(rng, text: str, count: int) -> tuple[str, list[tuple[str, str]]]:
    """Append `count` views that expose a subtree through a filter.

    Filters are taken from VIEW_FILTERS in turn, because their costs
    differ: a drawn mix would make view latency depend on the seed.
    Returns the new text and (view name, filter) pairs.
    """
    members = top_level(text)
    people = re.findall(r"^    individual def (\w+)", text, re.M)
    viewpoints = members["viewpoint"]
    targets = members["part"] + members["concern"] + members.get("individual", [])
    lines = []
    views = []
    for i in range(count):
        name = f"'Query View {i}'"
        flt = VIEW_FILTERS[i % len(VIEW_FILTERS)].format(person=rng.choice(people))
        lines.append(f"    view {name} {{")
        lines.append(f"        satisfy {rng.choice(viewpoints)};")
        for target in rng.sample(targets, rng.randint(1, 3)):
            lines.append(f"        expose {target};")
        lines.append(f"        filter {flt};")
        lines.append("    }")
        views.append((name.strip("'"), flt))
    if not text.endswith("\n}\n"):
        raise ValueError("expected canonical text ending in the package's closing brace")
    return text[:-2] + "\n".join(lines) + "\n}\n", views


def _drop_first(lines: list[str], pattern: str) -> list[str]:
    i = _first(lines, pattern)
    return lines[:i] + lines[i + 1:]


def _first(lines: list[str], pattern: str) -> int:
    rx = re.compile(pattern)
    for i, line in enumerate(lines):
        if rx.search(line):
            return i
    raise LookupError(pattern)


def _block_end(lines: list[str], start: int) -> int:
    indent = len(lines[start]) - len(lines[start].lstrip())
    for j in range(start + 1, len(lines)):
        if lines[j] == " " * indent + "}":
            return j
    raise LookupError("unterminated block")


def _strip_subset(lines, pattern):
    i = _first(lines, pattern)
    lines[i] = re.sub(r" :> [\w.]+", "", lines[i], count=1)
    return lines


def _strip_env_constraint(lines):
    # Every environmental requirement carries a constraint: a placeholder
    # `true` one when the study gave no expression.
    i = _first(lines, r"^    requirement def \w+ : EnvironmentalConstraints \{")
    end = _block_end(lines, i)
    constraint = re.compile(r"^        \w* ?constraint \{")
    return [line for j, line in enumerate(lines) if not (i < j < end and constraint.match(line))]


def _strip_objective(lines):
    i = _first(lines, r"^            objective \{")
    return lines[:i] + lines[_block_end(lines, i) + 1:]


def _retarget_concern_subject(lines):
    i = _first(lines, r"^    concern \w+ : \w+ \{")
    j = i + 1
    lines[j] = re.sub(r":> (\w+)\.\w+;", r":> \1;", lines[j])
    return lines


def _strip_satisfy(lines):
    i = _first(lines, r"^    view '[^']*' \{")
    # `view 'V' { satisfy X; }` collapses to the body-less form.
    return lines[:i] + [lines[i][:-2] + ";"] + lines[i + 3:]


def _strip_owner_stakeholders(lines):
    # Only an owner no customer stakeholder references can lose its last
    # stakeholder reference.
    text = "\n".join(lines)
    customers = set(re.findall(r"stakeholder customer_\w+ :> (\w+)", text))
    owners = [o for o in dict.fromkeys(re.findall(r"stakeholder owner_\w+ :> (\w+)", text))
              if o not in customers]
    if not owners:
        raise LookupError("every owner is also a customer")
    keep = []
    j = 0
    while j < len(lines):
        if re.match(rf"^        stakeholder owner_\w+ :> {owners[0]} \{{", lines[j]):
            j = _block_end(lines, j) + 1
            continue
        keep.append(lines[j])
        j += 1
    return keep


def _strip_individual_typing(lines):
    i = _first(lines, r"^    individual \w+ : \w+")
    lines[i] = re.sub(r" : \w+", "", lines[i], count=1)
    return lines


VIOLATIONS = {
    "R-ACT-1": lambda ls: _strip_subset(ls, r"^            actor \w+ :> \w+"),
    "R-STK-1": lambda ls: _strip_subset(ls, r"^        stakeholder customer_\w+ :> \w+"),
    "R-ENV-1": _strip_env_constraint,
    "R-WVW-1": lambda ls: _drop_first(ls, r"^        @Rationale "),
    "R-TRF-1": _strip_objective,
    "R-SUB-1": _retarget_concern_subject,
    "R-VIEW-1": _strip_satisfy,
    "R-IND-1": _strip_individual_typing,
    "R-CAT-1": lambda ls: [line for line in ls if "CatwoeElement::Customer;" not in line],
    "R-OWN-1": _strip_owner_stakeholders,
}


def inject_violation(text: str, rule: str) -> str:
    """Compiled text edited so that it breaks exactly `rule`.

    Raises LookupError when the text has nothing the edit could break.
    """
    return "\n".join(VIOLATIONS[rule](text.split("\n")))
