"""
Record store and adaptive weighted retrieval
============================================

Persist formulation records to a JSONL store and retrieve the closest ones
for retrieval-augmented prompting. Weights adapt to the store: features that
track the release at 1 hr get more weight, flat features get none.
"""

import tempfile
from importlib.resources import files
from pathlib import Path

from formukit import (
    FormulationInput,
    RecordStore,
    load_records,
    render_example_blocks,
)
from formukit.types import FEATURE_NAMES

with tempfile.TemporaryDirectory(prefix="formukit_demo_") as workdir:
    store_path = Path(workdir) / "store.jsonl"

    # --- ingest the bundled worked examples (verbatim-key import) -----------
    records = load_records(files("formukit") / "data" / "seed_records.json")
    store = RecordStore(store_path)
    for rec in records:
        store.ingest(rec)
    print(f"store at {store_path} holds {len(store)} records: "
          f"{[r.id for r in store.records]}")

    # --- the store persists; reloading gives the same records ---------------
    again = RecordStore(store_path)
    assert [r.id for r in again.records] == [r.id for r in store.records]
    print("reload round-trip OK")

# --- adapted weights: only varying features carry weight ---------------------
weights, _ = store.adapt_weights()
print("\nretrieval weights (3-record store -> uniform over varying features):")
for name, w in zip(FEATURE_NAMES, weights):
    if w > 0:
        print(f"  {name:<18} {w:.3f}")

# --- retrieve nearest records for a 50 um query ------------------------------
query = FormulationInput(d50_um=50.0)
hits = store.retrieve(query, k=3, feature_subset=("d50_um",))
print("\nnearest records to d50 = 50 um:")
for rank, (rec, score) in enumerate(hits, start=1):
    print(f"  {rank}. {rec.id:<18} score {score:.4f} (d50 {rec.features.d50_um:g} um)")

# --- retrieved records render straight into a prompt Examples section -------
block = render_example_blocks([hits[0][0]])
print(f"\nexample block for the top hit starts:\n{block.splitlines()[0]}")
