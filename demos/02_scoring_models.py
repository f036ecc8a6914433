"""The five scoring models and the two noise-profile constructions.

Shows how the same three documents are routed by each model, why the
artificial noise entity exists, and what profile smoothing changes.

Run:  python3 demos/02_scoring_models.py
"""

from namesift import (
    EntityProfile,
    FeatureConfig,
    MODELS,
    ModelConfig,
    NOISE_LABEL,
    ResultDocument,
    Task,
    build_index,
    build_noise_profile,
    map_documents,
    smoothed_profile,
    vectorize,
)
from namesift.models import TaskResources, unit_rows


def demo_task() -> Task:
    # Both profiles share boilerplate vocabulary (born, career, photo) the
    # way encyclopedia articles do.  Topic words repeat often, so tf-idf
    # pushes the boilerplate weights way down in the entity profiles, while
    # the uniform noise profile weights it like everything else.  d3 is a
    # directory page about some third person: boilerplate only.
    shared = "born career photo"
    return Task(
        name="demo",
        entities=[
            EntityProfile(id="e1", title="guitarist", text="jazz guitar album stage " * 8 + shared),
            EntityProfile(id="e2", title="biologist", text="enzyme protein cell lab " * 8 + shared),
        ],
        documents=[
            ResultDocument(id="d1", url="http://x/1", rank=1, text="jazz guitar album live"),
            ResultDocument(id="d2", url="http://x/2", rank=2, text="protein cell enzyme assay"),
            ResultDocument(id="d3", url="http://x/3", rank=3, text="born career photo contact"),
        ],
        gold={"d1": "e1", "d2": "e2", "d3": NOISE_LABEL},
    )


def main() -> None:
    task = demo_task()
    index = build_index(task)

    print("== noise profiles ==")
    for kind in ("union", "intersection"):
        profile = build_noise_profile(index, FeatureConfig(noise=kind))
        tokens = sorted(index.tokens[fid] for fid in profile.features)
        print(f"  {kind:12} {len(tokens):2} features, uniform weight {profile.weight:.4f}")
        print(f"               {tokens}")

    print("\n== who gets d3 (about neither person) ==")
    # Without a noise class d3 scores identically against both entities,
    # so the tie rule hands it to the first one.  With a noise profile
    # every model routes it out of the way.
    header = f"  {'model':22}" + "".join(f"{n:>14}" for n in ("none", "union", "intersection"))
    print(header)
    for model in MODELS:
        row = f"  {model:22}"
        for noise in ("none", "union", "intersection"):
            config = ModelConfig(model=model, features=FeatureConfig(noise=noise))
            assignment = map_documents(task, config)
            row += f"{assignment.mapping['d3']:>14}"
        print(row)

    print("\n== full score matrix, smoothed dot product + intersection noise ==")
    config = ModelConfig(model="score_smoothed", features=FeatureConfig(noise="intersection"))
    assignment = map_documents(task, config)
    class_ids = [e.id for e in task.entities] + [NOISE_LABEL]
    print(f"  {'doc':6}" + "".join(f"{cid:>12}" for cid in class_ids) + f"{'assigned':>12}")
    for doc in task.documents:
        scores = assignment.scores[doc.id]
        cells = "".join(f"{scores[cid]:12.4f}" for cid in class_ids)
        print(f"  {doc.id:6}{cells}{assignment.mapping[doc.id]:>12}")

    print("\n== what smoothing adds ==")
    # The raw e1 profile has no weight for 'live' (it never says it), but
    # d1 does, and d1 reads like e1.  The cosine-weighted expansion copies
    # part of d1's vocabulary into the profile, so documents that only
    # share d1's words still reach e1.
    # smoothed_profile takes every entity row at once (a dense entities x
    # features matrix) against the task's sparse document rows, with the
    # documents x entities cosines that the cosine model scores.
    config = FeatureConfig()
    resources = TaskResources.from_task(task, config)
    sims = resources.rows.dot(unit_rows(resources.entities), resources.rows.unit())
    expanded = smoothed_profile(resources.entities, resources.rows, sims)
    for token in ("jazz", "live", "assay"):
        fid = index.feature_id(token)
        raw = vectorize("e1", index, config).get(fid, 0.0)
        print(f"  w({token!r:7}, e1) = {raw:.4f}   smoothed -> {expanded[0, fid]:.4f}")


if __name__ == "__main__":
    main()
