"""Mapping soft-systems contexts onto the architecture package."""
from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from ssm2sysml import (
    Activity,
    CatwoeRole,
    ConceptualModel,
    ElementKind,
    EnvConstraint,
    Flow,
    IdRef,
    Individual,
    MappingError,
    MappingOptions,
    MonitorLink,
    RootDefinition,
    SsmContext,
    Transformation,
    check,
    emit,
    map_context,
    parse_sysml,
    resolve,
    validate_context,
)
from ssm2sysml.cli import main
from ssm2sysml.exprs import EnumLit, Lit
from ssm2sysml.mapper import _topological_order
from ssm2sysml.ssm_parser import parse_ssm
from ssm2sysml.sysml_ast import ModelIndex, RelKind, Succession, qname

from ssm_gen import gen_context


def _tags(element) -> set[str]:
    return {
        value.literal
        for app in element.metadata_applications()
        for _, value in app.bindings
        if isinstance(value, EnumLit)
    }


def _base_ctx(**overrides) -> SsmContext:
    """Minimal valid context: one individual wearing every hat."""
    fields = dict(
        name="Mini",
        individuals=(Individual("solo", "Solo", "Person"),),
        root_definitions=(
            RootDefinition(
                id="fix",
                customers=(IdRef("solo"),),
                actors=(IdRef("solo"),),
                owner=IdRef("solo"),
                transformation=Transformation("fix the thing", "thing", "Gadget"),
                worldview="things should work",
            ),
        ),
    )
    fields.update(overrides)
    return SsmContext(**fields)


# --- golden context ----------------------------------------------------------


def test_scaffolding_vocabulary(case_model):
    enum = resolve(case_model, "Context.CatwoeElement")
    assert enum.enum_literals == (
        "Customer",
        "Actor",
        "Transformation",
        "Worldview",
        "Owner",
        "Environment",
    )
    assert resolve(case_model, "Context.CATWOE").kind is ElementKind.METADATA_DEF
    assert resolve(case_model, "Context.Rationale").kind is ElementKind.METADATA_DEF


def test_three_individuals_one_definition(case_model):
    employee = resolve(case_model, "Context.Employee")
    assert employee.kind is ElementKind.INDIVIDUAL_DEF
    occurrences = [
        c for c in case_model.children if c.kind is ElementKind.INDIVIDUAL
    ]
    assert [o.name for o in occurrences] == ["manager", "it", "newHire"]
    for occ in occurrences:
        assert occ.typing() == ("Employee",)
        redefined = [c for c in occ.children if c.kind is ElementKind.ATTRIBUTE]
        assert redefined[0].rels(RelKind.REDEFINES)[0].target == ("name",)
    assert resolve(case_model, "Context.manager").children[-1].value == Lit("HR Manager")


def test_role_tags_per_occurrence(case_model):
    assert _tags(resolve(case_model, "Context.manager")) == {"Customer", "Actor"}
    assert _tags(resolve(case_model, "Context.it")) == {"Actor", "Owner"}
    assert _tags(resolve(case_model, "Context.newHire")) == set()


def test_owner_equals_actor_single_occurrence(case_model):
    # `it` is both actor and owner: one individual, two tags, not two elements.
    its = [c for c in case_model.children if c.name == "it"]
    assert len(its) == 1


def test_environmental_constraints(case_model):
    env = resolve(case_model, "Context.EnvironmentalConstraints")
    assert _tags(env) == {"Environment"}
    ec1 = resolve(case_model, "Context.EC1")
    ec2 = resolve(case_model, "Context.EC2")
    assert ec1.typing() == ("EnvironmentalConstraints",)
    assert ec2.rels(RelKind.REFINES)[0].target == ("EC1",)
    (constraint,) = (c for c in ec2.children if c.kind is ElementKind.CONSTRAINT)
    assert constraint.constraint_kind == "require"
    assert ec1.doc.startswith("New Hires shall")


def test_worldview_owner_viewpoint_view(case_model):
    vp = resolve(case_model, "Context.licenseManagement")
    assert vp.typing() == ("ResourceAllocation",)
    assert vp.rels(RelKind.FRAMES)[0].target == ("resources",)
    (rationale,) = vp.metadata_applications()
    assert rationale.bindings[0][1] == Lit(
        "Appropriate access should be given to new hires and license availability recorded"
    )
    assert _tags(resolve(case_model, "Context.ResourceAllocation")) == {"Worldview"}

    view = resolve(case_model, "Context.License Allocation")
    assert view.rels(RelKind.SATISFIES)[0].target == ("licenseManagement",)

    concern = resolve(case_model, "Context.resources")
    assert concern.typing() == ("OwnerConcern",)
    stakeholder = resolve(case_model, "Context.resources.owner_it")
    assert stakeholder.rels(RelKind.SUBSETS)[0].target == ("it",)
    assert _tags(stakeholder) == {"Owner"}


def test_customer_concern(case_model):
    concern = resolve(case_model, "Context.customerConcern")
    assert concern.typing() == ("CustomerConcern",)
    stakeholder = resolve(case_model, "Context.customerConcern.customer_manager")
    assert stakeholder.rels(RelKind.SUBSETS)[0].target == ("manager",)
    assert _tags(stakeholder) == {"Customer"}


def test_transformation_use_case(case_model):
    uc_def = resolve(case_model, "Context.AssignLicense")
    assert uc_def.typing() == ("CATWOE_Transformation",)
    assert _tags(uc_def) == {"Transformation"}

    uc = resolve(case_model, "Context.transformationSystem.assignLicense")
    assert uc.typing() == ("AssignLicense",)
    assert uc.doc == "assign available license for correct tool to new hire"
    subject = next(c for c in uc.children if c.kind is ElementKind.SUBJECT)
    assert subject.rels(RelKind.SUBSETS)[0].target == ("roleA_NewHire",)
    actors = [c.name for c in uc.children if c.kind is ElementKind.ACTOR]
    assert actors == ["actor_it", "actor_manager"]

    objective = next(c for c in uc.children if c.is_objective)
    assert [r.target for r in objective.rels(RelKind.REFERENCES)] == [("EC1",), ("EC2",)]
    assert objective.rels(RelKind.FRAMES)[0].target == ("customerConcern",)


def test_in_out_ref_items(case_model):
    uc = resolve(case_model, "Context.transformationSystem.assignLicense")
    items = [c for c in uc.children if c.kind is ElementKind.ITEM]
    assert [(i.direction, i.name, i.is_ref) for i in items] == [
        ("in", "tool", True),
        ("out", "license", True),
    ]
    # Package-level type usages exist for subject/input/output types.
    assert resolve(case_model, "Context.role").typing() == ("Role",)
    assert resolve(case_model, "Context.tool").typing() == ("Tool",)
    assert resolve(case_model, "Context.license").typing() == ("License",)


def test_actions_in_topological_order_with_performers(case_model):
    uc = resolve(case_model, "Context.transformationSystem.assignLicense")
    actions = [c for c in uc.children if c.kind is ElementKind.ACTION]
    assert [a.name for a in actions] == ["a1", "a2", "a3", "a4", "a5", "m1"]
    assert actions[0].performer == ("actor_manager",)
    assert all(a.performer == ("actor_it",) for a in actions[1:5])
    assert all(a.is_perform for a in actions[:5])
    # The monitor is a placeholder: no performer, a comment naming its targets.
    monitor = actions[5]
    assert not monitor.is_perform and monitor.performer is None
    (note,) = (c for c in monitor.children if c.kind is ElementKind.COMMENT)
    assert note.doc == "monitors: a3, a5"
    assert uc.successions == (
        Succession("a1", "a2"),
        Succession("a2", "a3"),
        Succession("a3", "a4"),
        Succession("a4", "a5"),
    )


def test_golden_report(case_report):
    assert case_report.warnings == ()
    roles = {e.role for e in case_report.element_provenance if e.role}
    assert roles == set(CatwoeRole)  # all six roles realized
    payload = case_report.to_json()
    assert {p["role"] for p in payload["provenance"] if p["role"]} == {
        r.label for r in CatwoeRole
    }
    # Provenance points back into the source file.
    files = {p["file"] for p in payload["provenance"] if p["file"]}
    assert files == {"case_study.ssm"}


def test_golden_model_is_self_conformant(case_model, case_report):
    assert check(case_model) == []
    assert unplanned_references(case_model, case_report) == []


def test_map_is_deterministic(case_ctx):
    a, _ = map_context(case_ctx)
    b, _ = map_context(case_ctx)
    assert a == b
    assert emit(a) == emit(b)


# --- synthetic contexts -------------------------------------------------------


def test_empty_context_gets_scaffolding_only():
    model, report = map_context(SsmContext("Empty"))
    names = [c.name for c in model.children]
    assert names == ["CatwoeElement", "CATWOE", "Rationale"]
    assert report.warnings == ()
    assert check(model) == []


def test_minimal_context_is_self_conformant():
    model, report = map_context(_base_ctx())
    assert [d for d in check(model) if d.is_error] == []
    assert {w.rule_id for w in report.warnings} == {"W-NOCM"}


def test_zero_constraint_objective_falls_back_to_env_def():
    model, _ = map_context(_base_ctx())
    uc = next(
        c
        for c in resolve(model, "Mini.transformationSystem").children
        if c.kind is ElementKind.USE_CASE
    )
    objective = next(c for c in uc.children if c.is_objective)
    assert objective.rels(RelKind.REFERENCES)[0].target == ("EnvironmentalConstraints",)


def _every_section_ctx() -> SsmContext:
    """Two root definitions that between them reach every section of the package."""
    return SsmContext(
        name="Shop",
        individuals=(
            Individual("ann", "Ann", "Person"),
            Individual("bob", "Bob", "Person"),
            Individual("cat", "Ann", "Robot"),  # shares ann's display name
        ),
        root_definitions=(
            RootDefinition(
                id="fix",
                customers=(IdRef("ann"), IdRef("bob")),
                actors=(IdRef("bob"), IdRef("cat")),
                owner=IdRef("ann"),
                transformation=Transformation(
                    "fix the thing", "thing", "Gadget",
                    inputs=(("spare", "Part"),), outputs=(("note", "Report"),),
                ),
                worldview="things should work",
                environmental_constraints=(
                    EnvConstraint("e1", "stays safe", Lit(True)),
                    EnvConstraint("e2", "prose only", refines=IdRef("e1")),  # no expression
                ),
            ),
            RootDefinition(  # no constraints and no conceptual model
                id="ship",
                customers=(IdRef("bob"),),
                actors=(IdRef("cat"),),
                owner=IdRef("bob"),
                transformation=Transformation("ship the thing", "box", "Crate"),
                worldview="things should arrive",
            ),
        ),
        conceptual_models=(
            ConceptualModel(
                IdRef("fix"),
                activities=(
                    Activity("a1", "look", IdRef("bob")),
                    Activity("a2", "mend", IdRef("cat")),
                    Activity("a3", "sign", IdRef("ann")),
                ),
                flows=(Flow(IdRef("a1"), IdRef("a3")), Flow(IdRef("a1"), IdRef("a2"))),
                monitors=(MonitorLink("m1", "watch", (IdRef("a1"), IdRef("a2"))),),
            ),
        ),
    )


def test_every_section_in_layout_and_report_order():
    model, report = map_context(
        _every_section_ctx(), MappingOptions(state_pattern=frozenset({"fix"}))
    )
    assert [c.name for c in model.children] == [
        "CatwoeElement", "CATWOE", "Rationale",
        "Person", "Robot", "ann", "bob", "cat",
        "Gadget", "Crate", "Part", "Report", "gadget", "part", "report", "crate",
        "EnvironmentalConstraints", "e1", "e2",
        "OwnerConcern", "CustomerConcern",
        "resources_fix", "customerConcern_fix", "resources_ship", "customerConcern_ship",
        "ResourceAllocation", "licenseManagement_fix", "licenseManagement_ship",
        "License Allocation fix", "License Allocation ship",
        "CATWOE_Transformation", "Fix", "Ship",
        "transformationSystem_fix", "transformationSystem_ship",
    ]
    provenance = [
        ("Shop.ann", None),
        ("Shop.bob", None),
        ("Shop.cat", None),
        ("Shop.e1", "Environment"),
        ("Shop.e2", "Environment"),
        ("Shop.transformationSystem_fix.fix", "Transformation"),
        ("Shop.licenseManagement_fix", "Worldview"),
        ("Shop.transformationSystem_fix.thing", None),
        ("Shop.resources_fix.owner_ann", "Owner"),
        ("Shop.customerConcern_fix.customer_ann", "Customer"),
        ("Shop.customerConcern_fix.customer_bob", "Customer"),
        ("Shop.transformationSystem_fix.fix.actor_bob", "Actor"),
        ("Shop.transformationSystem_fix.fix.actor_cat", "Actor"),
        ("Shop.transformationSystem_fix.fix.a1", None),
        ("Shop.transformationSystem_fix.fix.a2", None),
        ("Shop.transformationSystem_fix.fix.a3", None),
        ("Shop.transformationSystem_fix.fix.m1", None),
        ("Shop.transformationSystem_fix.fix.action@10", None),  # the send action
        ("Shop.EnvironmentalConstraints", "Environment"),
        ("Shop.transformationSystem_ship.ship", "Transformation"),
        ("Shop.licenseManagement_ship", "Worldview"),
        ("Shop.transformationSystem_ship.box", None),
        ("Shop.resources_ship.owner_bob", "Owner"),
        ("Shop.customerConcern_ship.customer_bob", "Customer"),
        ("Shop.transformationSystem_ship.ship.actor_cat", "Actor"),
    ]
    warnings = [
        ("W-DUPNAME", "Shop.cat", "individuals 'ann' and 'cat' share the display name 'Ann'"),
        ("W-NOEXPR", "Shop.e2", "environmental constraint 'e2' has no expression; "
         "a placeholder `true` constraint was emitted"),
        ("W-NOCM", "Shop.transformationSystem_ship.ship", "root definition 'ship' has no "
         "conceptual model; the use case body holds no activities"),
    ]
    nowhere = {"file": None, "line": None, "col": None}
    assert report.to_json() == {
        "provenance": [{"element": e, **nowhere, "role": r} for e, r in provenance],
        "warnings": [
            {"rule": rule, "severity": "warning", "element": e, **nowhere, "message": m}
            for rule, e, m in warnings
        ],
    }


def test_duplicate_display_names_warn():
    ctx = _base_ctx(
        individuals=(
            Individual("solo", "Twin", "Person"),
            Individual("other", "Twin", "Person"),
        )
    )
    _, report = map_context(ctx)
    assert "W-DUPNAME" in {w.rule_id for w in report.warnings}


def test_constraint_without_expression_warns_but_conforms():
    rd = _base_ctx().root_definitions[0]
    rd = replace(
        rd,
        environmental_constraints=(EnvConstraint("e1", "prose only"),),
    )
    ctx = _base_ctx(root_definitions=(rd,))
    model, report = map_context(ctx)
    assert "W-NOEXPR" in {w.rule_id for w in report.warnings}
    e1 = resolve(model, "Mini.e1")
    (constraint,) = (c for c in e1.children if c.kind is ElementKind.CONSTRAINT)
    assert constraint.constraint_expr == Lit(True)  # placeholder keeps R-ENV-1 green
    assert [d for d in check(model) if d.is_error] == []


def test_two_inputs_one_output():
    rd = _base_ctx().root_definitions[0]
    tr = replace(
        rd.transformation,
        inputs=(("alpha", "Tool"), ("beta", "Tool")),
        outputs=(("gamma", "License"),),
    )
    ctx = _base_ctx(root_definitions=(replace(rd, transformation=tr),))
    model, _ = map_context(ctx)
    uc = next(
        c
        for c in resolve(model, "Mini.transformationSystem").children
        if c.kind is ElementKind.USE_CASE
    )
    items = [(i.direction, i.name) for i in uc.children if i.kind is ElementKind.ITEM]
    assert items == [("in", "alpha"), ("in", "beta"), ("out", "gamma")]


def _diamond_ctx() -> SsmContext:
    base = _base_ctx()
    rd = base.root_definitions[0]
    acts = tuple(
        Activity(a, f"do {a}", IdRef("solo")) for a in ("top", "left", "right", "bottom")
    )
    flows = tuple(
        Flow(IdRef(s), IdRef(t))
        for s, t in (("top", "left"), ("top", "right"), ("left", "bottom"), ("right", "bottom"))
    )
    cm = ConceptualModel(IdRef(rd.id), acts, flows)
    return replace(base, conceptual_models=(cm,))


def _all_topological_orders(nodes, edges):
    """Brute force: every permutation consistent with the edge set."""
    return [
        perm
        for perm in itertools.permutations(nodes)
        if all(perm.index(s) < perm.index(t) for s, t in edges)
    ]


def test_diamond_order_is_a_valid_topological_sort():
    model, _ = map_context(_diamond_ctx())
    uc = next(
        c
        for c in resolve(model, "Mini.transformationSystem").children
        if c.kind is ElementKind.USE_CASE
    )
    emitted = tuple(c.name for c in uc.children if c.kind is ElementKind.ACTION)
    edges = [("top", "left"), ("top", "right"), ("left", "bottom"), ("right", "bottom")]
    valid = _all_topological_orders(("top", "left", "right", "bottom"), edges)
    assert emitted in valid
    # Declaration order breaks the left/right tie.
    assert emitted == ("top", "left", "right", "bottom")
    # Successions are ordered by topological position of their source.
    assert uc.successions == tuple(Succession(s, t) for s, t in edges)


def test_multi_rd_names_are_suffixed_and_conformant():
    base = _base_ctx()
    rd1 = base.root_definitions[0]
    rd2 = replace(rd1, id="redo", transformation=replace(rd1.transformation, subject_name="thing2"))
    ctx = _base_ctx(root_definitions=(rd1, rd2))
    model, _ = map_context(ctx)
    names = {c.name for c in model.children}
    assert {"resources_fix", "resources_redo", "licenseManagement_fix"} <= names
    assert [d for d in check(model) if d.is_error] == []


def test_state_pattern_option():
    ctx = _base_ctx()
    model, _ = map_context(ctx, MappingOptions(state_pattern=frozenset({"fix"})))
    gadget = resolve(model, "Mini.Gadget")
    states = [c for c in gadget.children if c.kind is ElementKind.STATE]
    assert {s.name for s in states} == {"idle", "transformed"}
    (transition,) = (c for c in gadget.children if c.kind is ElementKind.TRANSITION)
    assert transition.trigger == ("fixDone",)
    text = emit(model)
    assert "send fixDone;" in text
    assert [d for d in check(model) if d.is_error] == []


def test_invalid_context_raises_mapping_error():
    bad = _base_ctx(individuals=())  # every role reference now dangles
    with pytest.raises(MappingError) as raised:
        map_context(bad)
    assert raised.value.diagnostics == validate_context(bad)


@pytest.mark.parametrize("seed", range(300))
def test_generated_contexts_map_conformantly(seed):
    ctx = gen_context(seed)
    model, report = map_context(ctx)
    assert [d for d in check(model) if d.is_error] == []
    assert unplanned_references(model, report) == []
    assert parse_sysml(emit(model), "gen") == model


# --- name table: every reference resolves to the element planned for it ------

K = ElementKind
USAGE_TYPES = {K.PART_DEF, K.ITEM_DEF}
# The kinds each relationship of a mapped element may resolve to.  The
# kind of a type's one definition comes from its first use, so a part
# usage may be typed by an item definition (see ROADMAP item 3).
PLANNED = {
    (RelKind.TYPING, K.INDIVIDUAL): {K.INDIVIDUAL_DEF},
    (RelKind.TYPING, K.PART): USAGE_TYPES,
    (RelKind.TYPING, K.ITEM): USAGE_TYPES,
    (RelKind.TYPING, K.CONCERN): {K.CONCERN_DEF},
    (RelKind.TYPING, K.VIEWPOINT): {K.VIEWPOINT_DEF},
    (RelKind.TYPING, K.USE_CASE): {K.USE_CASE_DEF},
    (RelKind.TYPING, K.USE_CASE_DEF): {K.USE_CASE_DEF},
    (RelKind.TYPING, K.REQUIREMENT_DEF): {K.REQUIREMENT_DEF},
    (RelKind.TYPING, K.ATTRIBUTE): {K.ENUM_DEF},
    (RelKind.SUBSETS, K.SUBJECT): {K.PART},
    (RelKind.SUBSETS, K.ACTOR): {K.INDIVIDUAL},
    (RelKind.SUBSETS, K.STAKEHOLDER): {K.INDIVIDUAL},
    (RelKind.FRAMES, K.VIEWPOINT): {K.CONCERN},
    (RelKind.FRAMES, K.REQUIREMENT): {K.CONCERN},
    (RelKind.SATISFIES, K.VIEW): {K.VIEWPOINT},
    (RelKind.REFERENCES, K.REQUIREMENT): {K.REQUIREMENT_DEF},
    (RelKind.REFINES, K.REQUIREMENT_DEF): {K.REQUIREMENT_DEF},
}


def _element(position):
    return position and position[0]


def unplanned_references(model, report=None) -> list[str]:
    """Duplicate member names, and references that resolve to no planned element."""
    index = ModelIndex(model)
    found = []
    for element, path in index.pairs:
        where = ".".join(path)
        names = [c.name for c in element.children if c.name]
        found += [f"{where}: two members named {n!r}" for n in set(names) if names.count(n) > 1]
        for rel in element.relationships:
            if rel.kind is RelKind.REDEFINES:
                continue
            target = _element(index.resolve_relative(path, rel.target))
            if rel.target == ("String",):  # the library's
                ok = target is None
            else:
                ok = target is not None and target.kind in PLANNED[rel.kind, element.kind]
            if not ok:
                found.append(f"{where}: {rel.kind.value} {rel.target} -> {target and target.kind}")
        checks = [(element.performer, {K.ACTOR, K.INDIVIDUAL})] if element.performer else []
        checks += [(element.meta_def, {K.METADATA_DEF})] if element.meta_def else []
        for target_name, kinds in checks:
            target = _element(index.resolve_relative(path, target_name))
            if target is None or target.kind not in kinds:
                found.append(f"{where}: {target_name} -> {target and target.kind}")
        actions = {c.name for c in element.children if c.kind is K.ACTION}
        for succession in element.successions:
            if not {succession.source, succession.target} <= actions:
                found.append(f"{where}: succession {succession} leaves its actions")
    for entry in report.element_provenance if report else ():
        if index.get(qname(entry.element_path)) is None:
            found.append(f"provenance {entry.element_path} does not resolve")
    return found


def _individual_types(model) -> dict[str, str]:
    defs = {c.name for c in model.children if c.kind is K.INDIVIDUAL_DEF}
    return {
        c.name: c.typing()[-1]
        for c in model.children
        if c.kind is K.INDIVIDUAL and c.typing()[-1] in defs
    }


# Collisions that once produced wrong or ambiguous references.
COLLISIONS = {
    "type-clash": """
context C {
    individual role : Role "R"
    root-definition fix {
        customer role
        actor role
        owner role
        transformation "fix it" { subject s : Role }
        worldview "w"
    }
}
""",
    "scaffolding": """
context C {
    individual a : CATWOE "A"
    individual b : OwnerConcern "B"
    individual c : EnvironmentalConstraints "C"
    root-definition fix {
        customer a
        actor b
        owner c
        transformation "fix it" { subject s : Thing }
        worldview "w"
    }
}
""",
    "individual-like-type": """
context C {
    individual Person : Person "P"
    root-definition fix {
        customer Person
        actor Person
        owner Person
        transformation "fix it" { subject s : Thing }
        worldview "w"
    }
}
""",
    "nested": """
context C {
    individual it : Employee "IT"
    root-definition rd {
        customer it
        actor it
        owner it
        transformation "fix it" { subject rd : Thing input a1 : Tool }
        worldview "w"
    }
    conceptual-model rd {
        activity a1 "one" by it
        activity actor_it "two" by it
        flow a1 -> actor_it
    }
}
""",
}


@pytest.fixture(params=sorted(COLLISIONS))
def collision(request):
    text = COLLISIONS[request.param]
    model, report = map_context(parse_ssm(text, "c.ssm"))
    return request.param, text, model, report


def test_collisions_resolve_as_planned(collision):
    case, _, model, report = collision
    assert unplanned_references(model, report) == []
    assert check(model) == []
    typing = {
        ".".join(path): el.typing()[-1] for el, path in ModelIndex(model).pairs if el.typing()
    }
    if case == "type-clash":
        assert resolve(model, "C.Role").kind is K.INDIVIDUAL_DEF
        assert resolve(model, "C.Role_2").kind is K.PART_DEF
        assert typing["C.role"] == "Role"
        assert typing["C.role_2"] == typing["C.transformationSystem.s"] == "Role_2"
    elif case == "scaffolding":
        assert resolve(model, "C.CATWOE").kind is K.METADATA_DEF
        assert _individual_types(model) == {
            "a": "CATWOE_2", "b": "OwnerConcern", "c": "EnvironmentalConstraints"
        }
        assert resolve(model, "C.OwnerConcern_2").kind is K.CONCERN_DEF
        assert typing["C.resources"] == "OwnerConcern_2"
        assert resolve(model, "C.EnvironmentalConstraints_2").kind is K.REQUIREMENT_DEF
    elif case == "individual-like-type":
        assert _individual_types(model) == {"Person_2": "Person"}
        stakeholder = resolve(model, "C.resources.owner_Person")
        assert stakeholder.rels(RelKind.SUBSETS)[0].target == ("Person_2",)
    else:
        part = resolve(model, "C.transformationSystem")
        assert [c.name for c in part.children] == ["rd", "rd_2"]
        uc = part.children[1]
        assert [c.name for c in uc.children if c.name] == [
            "actor_it", "a1", "a1_2", "actor_it_2"
        ]
        assert uc.successions == (Succession("a1_2", "actor_it_2"),)
        assert {a.performer for a in uc.children if a.is_perform} == {("actor_it",)}


def test_collisions_compile_and_check_clean(collision, tmp_path, capsys):
    _, text, model, _ = collision
    source = tmp_path / "c.ssm"
    source.write_text(text)
    assert main(["compile", str(source), "-o", str(tmp_path)]) == 0
    written = tmp_path / "C.sysml"
    assert main(["check", str(written)]) == 0
    assert parse_sysml(written.read_text(), "C.sysml") == model


def _reference_order(cm) -> list[str]:
    """Repeatedly take the earliest-declared activity whose predecessors are all placed."""
    order: list[str] = []
    remaining = [act.id for act in cm.activities]
    while remaining:
        ready = [
            act_id
            for act_id in remaining
            if all(f.source.id in order for f in cm.flows if f.target.id == act_id)
        ]
        order.append(ready[0])
        remaining.remove(ready[0])
    return order


def test_topological_order_matches_brute_force():
    rng = random.Random(3)
    for _ in range(400):
        count = rng.randint(1, 9)
        hidden = rng.sample(range(count), count)  # a topological order of the DAG
        flows = tuple(
            Flow(IdRef(f"n{hidden[i]}"), IdRef(f"n{hidden[j]}"))
            for i in range(count)
            for j in range(i + 1, count)
            for _ in range(rng.choice((0, 0, 1, 2)))  # repeated flows too
        )
        acts = tuple(Activity(f"n{k}", "", IdRef("solo")) for k in range(count))
        cm = ConceptualModel(IdRef("fix"), acts, flows)
        assert _topological_order(cm) == _reference_order(cm)
