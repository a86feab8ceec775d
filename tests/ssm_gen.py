"""Seeded random generator for valid SsmContext values.

Contexts are referentially valid by construction: every role reference
names a declared individual, every performer is an actor or the owner,
and flows only ever point forward in declaration order (so the flow
graph is a DAG).  Warning paths stay reachable: some environmental
constraints lack expressions, some display names collide, and some
root definitions have no conceptual model.

Names collide on purpose, so that the mapper's name table is exercised:
the person, subject and item type pools overlap each other and the
names of the scaffolding the mapper writes, and some ids equal names
the mapper generates (an individual named like its type or its type's
usage, an activity named like an input, an actor usage, an individual
or the subject, a subject named like its root definition or an
individual, a constraint named like a type).
"""
from __future__ import annotations

import random

from ssm2sysml.exprs import Binary, Lit, Ref
from ssm2sysml.ssm_model import (
    Activity,
    ConceptualModel,
    EnvConstraint,
    Flow,
    IdRef,
    Individual,
    MonitorLink,
    RootDefinition,
    SsmContext,
    Transformation,
)

# Definition and member names of the mapper's scaffolding.
SCAFFOLD_TYPES = (
    "CATWOE",
    "Rationale",
    "CatwoeElement",
    "OwnerConcern",
    "CustomerConcern",
    "ResourceAllocation",
    "CATWOE_Transformation",
    "EnvironmentalConstraints",
)
SCAFFOLD_IDS = ("transformationSystem", "licenseManagement", "resources", "customerConcern")
PERSON_TYPES = ("Employee", "Person", "Operator", "Role", "Tool")
SUBJECT_TYPES = ("Role", "Machine", "Asset", "Tool", "Person")
ITEM_TYPES = ("Tool", "License", "Material", "Ticket", "Asset", "Role")
DISPLAY_WORDS = ("Line", "Shift", "Site", "Pool", "Desk")


def _type(rng: random.Random, pool: tuple[str, ...]) -> str:
    return rng.choice(SCAFFOLD_TYPES) if rng.random() < 0.1 else rng.choice(pool)


def _colliding_id(rng: random.Random, usual: str, *candidates: str) -> str:
    """`usual`, or now and then one of `candidates`, names the mapper also writes."""
    return rng.choice(candidates) if candidates and rng.random() < 0.15 else usual


def _individuals(rng: random.Random) -> tuple[Individual, ...]:
    count = rng.randint(1, 5)
    out = []
    for i in range(count):
        display = f"{rng.choice(DISPLAY_WORDS)} {i}"
        if i > 0 and rng.random() < 0.15:
            display = out[0].display_name  # duplicate on purpose (W-DUPNAME)
        type_name = _type(rng, PERSON_TYPES)
        taken = {ind.id for ind in out}
        free = [
            name
            for name in (type_name, type_name[:1].lower() + type_name[1:], *SCAFFOLD_IDS)
            if name not in taken
        ]
        out.append(Individual(_colliding_id(rng, f"ind{i}", *free), display, type_name))
    return tuple(out)


def _constraints(
    rng: random.Random, rd_index: int, type_names: tuple[str, ...]
) -> tuple[EnvConstraint, ...]:
    out: list[EnvConstraint] = []
    for j in range(rng.randint(0, 3)):
        # The concrete syntax ties the kind keyword to an expression
        # string, so expression-free constraints keep the default kind.
        expr = None
        kind = "require"
        if rng.random() < 0.7:
            expr = Binary(">", Ref(("level", "amount")), Lit(j))
            kind = rng.choice(["require", "assume", "assert"])
        refines = None
        if out and rng.random() < 0.4:
            refines = IdRef(out[0].id)
        taken = {ec.id for ec in out}
        ec_id = _colliding_id(
            rng, f"ec{rd_index}_{j}", *(t for t in type_names if t not in taken)
        )
        out.append(
            EnvConstraint(
                id=ec_id,
                text=f"constraint {j} of definition {rd_index}",
                expr=expr,
                kind=kind,
                refines=refines,
            )
        )
    return tuple(out)


def _root_definition(
    rng: random.Random, index: int, individuals: tuple[Individual, ...]
) -> RootDefinition:
    ids = [ind.id for ind in individuals]
    customers = tuple(IdRef(i) for i in rng.sample(ids, rng.randint(1, min(2, len(ids)))))
    actors = tuple(IdRef(i) for i in rng.sample(ids, rng.randint(1, min(2, len(ids)))))
    owner = IdRef(rng.choice(ids))
    n_in = rng.randint(0, 2)
    n_out = rng.randint(0, 2)
    subject_type = _type(rng, SUBJECT_TYPES)
    inputs = tuple((f"in{index}_{k}", _type(rng, ITEM_TYPES)) for k in range(n_in))
    outputs = tuple((f"out{index}_{k}", _type(rng, ITEM_TYPES)) for k in range(n_out))
    transformation = Transformation(
        statement=f"transform situation {index}",
        subject_name=_colliding_id(rng, f"subj{index}", f"rd{index}", *ids, *SCAFFOLD_IDS),
        subject_type=subject_type,
        inputs=inputs,
        outputs=outputs,
    )
    type_names = (subject_type,) + tuple(t for _, t in inputs + outputs)
    return RootDefinition(
        id=f"rd{index}",
        customers=customers,
        actors=actors,
        owner=owner,
        transformation=transformation,
        worldview=f"worldview statement {index}",
        environmental_constraints=_constraints(rng, index, type_names),
    )


def _conceptual_model(rng: random.Random, rd: RootDefinition) -> ConceptualModel:
    performers = [ref.id for ref in rd.actors] + [rd.owner.id]
    tr = rd.transformation
    # Names already written in the use case or referred to from it.
    near = [name for name, _ in tr.inputs + tr.outputs]
    near += [f"actor_{ref.id}" for ref in rd.actors] + performers + [tr.subject_name]
    count = rng.randint(1, 6)
    act_ids: list[str] = []
    for i in range(count):
        free = [name for name in near if name not in act_ids]
        act_ids.append(_colliding_id(rng, f"act_{rd.id}_{i}", *free))
    activities = tuple(
        Activity(act_id, f"step {i} of {rd.id}", IdRef(rng.choice(performers)))
        for i, act_id in enumerate(act_ids)
    )
    flows: list[Flow] = []
    for j in range(1, count):
        if rng.random() < 0.8:
            k = rng.randrange(j)  # forward edge only: DAG by construction
            flows.append(Flow(IdRef(activities[k].id), IdRef(activities[j].id)))
    monitors = tuple(
        MonitorLink(
            f"mon_{rd.id}_{m}",
            f"monitor {m} of {rd.id}",
            tuple(
                IdRef(a.id)
                for a in rng.sample(activities, rng.randint(1, min(2, count)))
            ),
        )
        for m in range(rng.randint(0, 2))
    )
    return ConceptualModel(IdRef(rd.id), activities, tuple(flows), monitors)


def gen_context(seed: int) -> SsmContext:
    rng = random.Random(seed)
    individuals = _individuals(rng)
    rds = tuple(
        _root_definition(rng, i, individuals) for i in range(rng.randint(0, 3))
    )
    cms = tuple(
        _conceptual_model(rng, rd) for rd in rds if rng.random() < 0.8
    )
    return SsmContext(
        name=f"Ctx{seed}",
        individuals=individuals,
        root_definitions=rds,
        conceptual_models=cms,
    )
