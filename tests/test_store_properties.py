"""Property test: records ingested into a store file read back unchanged,
whether built directly or imported through the verbatim prompt-block keys."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formukit.prompts import VERBATIM_KEYS  # noqa: E402
from formukit.store import (  # noqa: E402
    PROVENANCE_VALUES,
    FormulationRecord,
    RecordStore,
    record_from_verbatim,
)
from formukit.types import DissolutionProfile, FormulationInput  # noqa: E402

_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FEATURES = st.builds(
    FormulationInput, d50_um=_POSITIVE, aspect_ratio=st.floats(1.0, 1e6),
    roundness=st.floats(0.0, 1.0, exclude_min=True), solubility_mg_ml=_POSITIVE,
    diffusivity_m2_s=_POSITIVE, true_density_g_ml=_POSITIVE, ssa_m2_g=_POSITIVE,
    vol_eq_um=_POSITIVE)
_PROFILES = st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 100.0)), min_size=1,
                     max_size=12, unique_by=lambda point: point[0]).map(
                         lambda points: DissolutionProfile(*np.transpose(points)))
_ROWS = st.lists(st.tuples(st.text(min_size=1), _FEATURES, _PROFILES,
                           st.sampled_from(PROVENANCE_VALUES), st.text(), st.booleans()),
                 max_size=5, unique_by=lambda row: row[0])


def _verbatim_entry(record):
    """The record in the worked-example shape, keyed as in the prompt blocks."""
    return {
        "Input": {verbatim: getattr(record.features, name) for verbatim, name in VERBATIM_KEYS},
        "Output": {"columns": ["Time (hr)", "Drug Released (%)"],
                   "data": [list(point) for point in record.profile.points()]},
        "provenance": record.provenance,
        "source": record.source,
    }


@settings(max_examples=100, deadline=None)
@given(_ROWS)
def test_ingested_records_reload_unchanged(rows):
    records = []
    for record_id, features, profile, provenance, source, verbatim in rows:
        record = FormulationRecord(record_id, features, profile, provenance, source)
        if verbatim:
            imported = record_from_verbatim(_verbatim_entry(record), record_id)
            assert imported.to_dict() == record.to_dict()
            record = imported
        records.append(record)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        store = RecordStore(path)
        for record in records:
            store.ingest(record)
        reloaded = RecordStore(path).records
    assert [r.to_dict() for r in reloaded] == [r.to_dict() for r in records]
