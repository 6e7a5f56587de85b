"""Mining part hierarchies and tags out of scene-graph files.

Generates a small synthetic corpus (scene-graph JSON with noisy designer
names), then mines it back: parse, filter, extract per-category tag
vocabularies, check tag sufficiency, and split into train/val/test. The
mining report is what the `partembed mine` command writes as manifest.json.
"""

import json
import tempfile
from pathlib import Path

from partembed.ingest import mine_directory, write_corpus
from partembed.synth import generate_corpus

with tempfile.TemporaryDirectory(prefix="partembed_mine_") as tmp:
    work = Path(tmp)
    raw = work / "raw"
    mined = work / "mined"

    # 12 chairs with designer part names tagged most of the time, 8 tables
    # whose parts carry junk names only (no usable tags).
    generate_corpus({"chair": 12, "table": 8}, seed=5,
                    tag_prob={"chair": 0.8, "table": 0.0}, out_dir=raw)
    print(f"wrote raw corpus to {raw}")

    records, report = mine_directory(raw, seed=0)
    write_corpus(records, mined, report.to_json())
    print(f"kept {report.kept} shapes, rejected {sum(report.reject_counts.values())}")
    print()

    for cat, vocab in sorted(report.vocabularies.items()):
        s = report.sufficiency[cat]
        verdict = "sufficient" if s["sufficient"] else "insufficient"
        print(f"{cat}: tags {list(vocab.tags)}")
        print(f"   area coverage {s['coverage']:.3f} -> {verdict} for tag supervision")
    print()
    print("tables have no real part names, so their vocabulary is empty or junk")
    print("and the coverage check rules them out; chairs pass.")
    print()

    split = report.split
    print(f"split: {len(split.train)} train / {len(split.validation)} val / "
          f"{len(split.test)} test")
    print()
    print("mined manifest written to", mined / "manifest.json")
    manifest = json.loads((mined / "manifest.json").read_text())
    print("manifest keys:", sorted(manifest))
