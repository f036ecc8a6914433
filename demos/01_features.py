"""Tokenization, the shared feature index, and tf-idf weighting.

Builds one small task and walks the whole feature pipeline: raw text to
tokens, tokens to feature ids, feature ids to weighted sparse vectors,
and the two idf variants side by side.

Run:  python3 demos/01_features.py
"""

from namesift import (
    EntityProfile,
    FeatureConfig,
    NOISE_LABEL,
    ResultDocument,
    Task,
    build_index,
    tokenize,
    vectorize,
)


def main() -> None:
    print("== tokenization ==")
    for raw in ("John Campbell's Yoga", "U.C. Berkeley 2012", "<b>bold</b> move"):
        print(f"  {raw!r:28} -> {tokenize(raw)}")

    # One entity profile, three result documents; d3 is off-topic.
    task = Task(
        name="demo",
        entities=[
            EntityProfile(id="e1", title="guitarist", text="jazz guitar album stage tour"),
            EntityProfile(id="e2", title="biologist", text="enzyme protein cell lab"),
        ],
        documents=[
            ResultDocument(id="d1", url="http://x/1", rank=1, text="jazz guitar guitar album"),
            ResultDocument(id="d2", url="http://x/2", rank=2, text="protein cell enzyme"),
            ResultDocument(id="d3", url="http://x/3", rank=3, text="weather lottery"),
        ],
        gold={"d1": "e1", "d2": "e2", "d3": NOISE_LABEL},
    )

    index = build_index(task)
    print("\n== feature index ==")
    print(f"  elements of C: {index.document_ids + index.entity_ids} (the noise entity has no statistics)")
    print(f"  vocabulary size: {index.feature_count} features")
    for token in ("guitar", "protein", "weather"):
        fid = index.ids[token]
        print(f"  {token!r}: id={fid}  df={index.df[fid]}")

    print("\n== tf-idf vectors (corpus idf, natural log) ==")
    config = FeatureConfig()  # idf numerator |C|, log base e
    for element_id in ("e1", "d1", "d3"):
        vec = vectorize(element_id, index, config)
        pretty = {index.tokens[fid]: round(w, 4) for fid, w in sorted(vec.items())}
        print(f"  {element_id}: {pretty}")

    # The printed-formula idf uses the element's own feature count as the
    # numerator, so weights can hit zero or go negative for common terms.
    print("\n== the two idf numerators on d1 ==")
    for mode in ("corpus", "paper"):
        vec = vectorize("d1", index, FeatureConfig(idf_numerator=mode))
        pretty = {index.tokens[fid]: round(w, 4) for fid, w in sorted(vec.items())}
        print(f"  idf_numerator={mode!r:9}: {pretty}")

    print("\n== L1 normalization (used by the smoothed scorer) ==")
    vec = vectorize("d1", index, config)
    total = sum(abs(w) for w in vec.values())
    unit = {fid: w / total for fid, w in vec.items()}
    print(f"  weight sum before: {sum(vec.values()):.4f}  after: {sum(unit.values()):.4f}")


if __name__ == "__main__":
    main()
