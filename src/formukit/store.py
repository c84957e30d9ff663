"""Formulation record persistence and weighted nearest-record retrieval.

Records live in an append-only JSONL file (one object per line, canonical
snake_case keys; a byte-order mark at the start is ignored) with an
in-memory index; reloading keeps the last version of each id. A final line
with no newline is a record when it reads as JSON, and the next ingest ends
it before appending. Otherwise it is an append cut short: a load skips it
with a warning, and the next ingest cuts it off. Retrieval scores records
with an exponential weighted-L1 kernel

    score(q, r) = exp(-sum_j w_j * |q_j - r_j| / s_j)

over the numeric feature set, where s_j is the per-feature median absolute
deviation across the store (floored at 1e-12) and the weights w_j are
proportional to |Spearman correlation| (on average ranks, computed in numpy)
between feature j and the release at 1 hr. Stores with fewer than 5 records
fall back to uniform weights over the features that actually vary.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ValidationError
from .prompts import VERBATIM_KEYS, profile_from_table
from .types import FEATURE_NAMES, DissolutionProfile, FormulationInput, open_input, read_json

if TYPE_CHECKING:                       # numpy loads in the functions that compute with it
    import numpy as np

PROVENANCE_VALUES = ("experimental", "simulated")
#: A character XML 1.0 cannot carry: a C0 control but tab, newline and carriage return, a
#: lone surrogate (not UTF-8 either), U+FFFE or U+FFFF. Ids title SVG overlays.
_NOT_XML_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

#: Each name a feature goes by, canonical or verbatim (as in prompt blocks), to its field.
_FEATURE_KEYS = {**dict(zip(FEATURE_NAMES, FEATURE_NAMES)), **dict(VERBATIM_KEYS)}
#: The keys a record holds besides its features: canonical rows keep the profile
#: under "profile", worked examples under "Output".
_RECORD_KEYS = frozenset(("id", "profile", "Output", "output", "provenance", "source"))


@dataclass(frozen=True, slots=True)
class FormulationRecord:
    """One stored formulation: features, measured profile, provenance."""

    id: str
    features: FormulationInput
    profile: DissolutionProfile
    provenance: str = "experimental"
    source: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValidationError("record id must be non-empty")
        if _NOT_XML_RE.search(f"{self.id}{self.source}"):
            raise ValidationError(f"record id {self.id!r}: its id and source must be XML 1.0 text")
        if self.provenance not in PROVENANCE_VALUES:
            raise ValidationError(
                f"provenance must be one of {PROVENANCE_VALUES}, got {self.provenance!r}")

    def to_dict(self) -> dict:
        return {"id": self.id, **{name: getattr(self.features, name) for name in FEATURE_NAMES},
                "profile": [[t, r] for t, r in self.profile.points()],
                "provenance": self.provenance, "source": self.source}

    @classmethod
    def from_dict(cls, row: dict) -> "FormulationRecord":
        """A record from a row with an id and a profile, as ``to_dict`` writes it."""
        if not isinstance(row, dict):
            raise ValidationError(f"a record must be a JSON object, got {row!r}")
        missing = [k for k in ("id", "profile") if k not in row]
        if missing:
            raise ValidationError(f"record is missing keys: {', '.join(missing)}")
        return record_from_verbatim(row, str(row["id"]))


def _number(name: str, value) -> float:
    if type(value) is float and math.isfinite(value):      # a JSON number, as most are
        return value
    try:                                      # OverflowError: an int past the float range
        if isinstance(value, (int, float)) and type(value) is not bool and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _spearman(x, y) -> float:
    """Spearman's rho: the Pearson correlation of average ranks; nan if x or y is constant."""
    import numpy as np

    ranks = [(np.cumsum(counts) - 0.5 * (counts - 1))[where] for _, where, counts in
             (np.unique(v, return_inverse=True, return_counts=True) for v in (x, y))]
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(*ranks)[0, 1])


def read_features(obj, where: str, required=FEATURE_NAMES, given=None) -> dict[str, float]:
    """The features of a record or formulation input by field, updated by ``given``.

    They sit in an "Input" (or "input") block or beside the record keys, by canonical
    or verbatim name (spaces around it ignored). ValidationError names each key that
    names no feature or record key, a feature named twice, a value that is not a finite
    number, and the ``required`` features still missing after the update.
    """
    unknown, record_keys = [], _RECORD_KEYS
    if isinstance(obj, dict) and ("Input" in obj or "input" in obj):
        block = "Input" if "Input" in obj else "input"
        unknown = [key for key in obj if key != block and key not in _RECORD_KEYS]
        obj, record_keys = obj[block], ()
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: a formulation input must be a JSON object")
    features = {}
    for key, value in obj.items():
        name = _FEATURE_KEYS.get(key) or _FEATURE_KEYS.get(str(key).strip())
        if name in features:
            raise ValidationError(f"{where}: feature {name!r} is named twice")
        if name is not None:
            features[name] = _number(name, value)
        elif key not in record_keys:
            unknown.append(key)
    if unknown:
        raise ValidationError(f"{where}: no feature or record key is named "
                              f"{', '.join(map(repr, unknown))}")
    features.update(given or {})
    missing = [name for name in required if name not in features]
    if missing:
        raise ValidationError(f"{where}: missing required field(s): {', '.join(missing)}")
    return features


def record_from_verbatim(obj: dict, record_id: str) -> FormulationRecord:
    """A record from a canonical row or a worked example keyed as in prompt blocks.

    Accepts ``{"Input": {...}, "Output": {"columns": ..., "data": ...}}``
    (the worked-example shape) or the features beside the other record keys,
    each keyed canonically or verbatim. The Output table is read as a model
    response's is, its time column found by name and minutes converted to
    hours; a bare list of rows is read as (time [hr], released [%]).
    """
    where = f"record {record_id!r}"
    features = read_features(obj, where)
    table = obj.get("Output", obj.get("output", obj.get("profile")))
    if table is None:
        raise ValidationError(f"{where} has no Output or profile table")
    return FormulationRecord(
        id=record_id,
        features=FormulationInput(**features),
        profile=profile_from_table(table if isinstance(table, dict) else {"data": table}, where),
        provenance=obj.get("provenance", "experimental"),
        source=obj.get("source", ""),
    )


def read_jsonl(path: str | Path):
    """The rows of an append-only JSONL file, read one at a time. A final line
    cut short (invalid, no newline) is skipped with a logged warning; any other
    invalid line (nested past the recursion limit too) raises ValidationError
    naming it, and so does text that is not UTF-8."""
    with open_input(path) as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    if raw.strip():
                        yield json.loads(raw)
                except (ValueError, RecursionError) as exc:     # not JSON, or too deep
                    if raw.endswith("\n"):
                        raise ValidationError(f"{path}:{line_no}: invalid JSON line") from exc
                    logging.getLogger(__name__).warning(
                        "%s:%d: skipped a truncated final line", path, line_no)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def append_jsonl(path: Path, row) -> None:
    """Append ``row`` to ``path`` as one JSON line, creating the directory. A last
    line with no newline is first ended if it reads as JSON, as ``read_jsonl``
    reads it (in the same ``O_APPEND`` write), or cut off if not (an append cut short)."""
    line = json.dumps(row).encode() + b"\n"
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        os.lseek(fd, max(end - 1, 0), os.SEEK_SET)
        if os.read(fd, 1) not in b"\r\n":                 # an empty file reads b"", which is in it
            os.lseek(fd, 0, os.SEEK_SET)                # the last line, split as read_jsonl splits it
            tail = b"".join(iter(lambda: os.read(fd, 1 << 20), b"")).splitlines()[-1]
            try:
                json.loads(tail.decode("utf-8-sig" if len(tail) == end else "utf-8"))
                line = b"\n" + line
            except (ValueError, RecursionError):
                os.ftruncate(fd, end - len(tail))
        while line:
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)


class RecordStore:
    """Append-only JSONL store with deterministic top-k retrieval.

    Ingest appends and updates the in-memory index; retrieval works on the
    current snapshot. Each append first ends the file's last line if it is JSON
    with no newline, or cuts it off if it is an append cut short, judged from
    the file as it is then, so a second store on the same file loses no record.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[str, FormulationRecord] = {}     # in first-ingest order
        self._matrix = self._weights = None     # retrieval state: built on use, reset by ingest
        if self.path is not None and self.path.exists():        # a missing store is empty
            for row in read_jsonl(self.path):
                record = FormulationRecord.from_dict(row)
                self._records[record.id] = record

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[FormulationRecord]:
        return list(self._records.values())

    def ingest(self, *records: FormulationRecord, overwrite: bool = False) -> None:
        """Add records in order, appending each to the JSONL file when the store is backed.
        Without ``overwrite``, an id already in the store or earlier among ``records``
        raises before any record is added; with it, the later record wins."""
        seen = set()
        for record in records:
            if not overwrite and (record.id in self._records or record.id in seen):
                where = "in store" if record.id in self._records else "earlier in the input"
                raise ValidationError(f"record id {record.id!r} already {where}")
            seen.add(record.id)
        self._matrix = self._weights = None
        for record in records:
            self._records[record.id] = record
            if self.path is not None:
                append_jsonl(self.path, record.to_dict())

    def feature_matrix(self) -> np.ndarray:
        """Feature vectors of the records in store order (read-only, cached)."""
        import numpy as np

        if self._matrix is None:
            self._matrix = np.array([r.features.feature_vector() for r in self.records])
            self._matrix.flags.writeable = False
        return self._matrix

    def adapt_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Data-driven retrieval (weights, scales) for the current store contents,
        read-only arrays in :data:`FEATURE_NAMES` order, computed once per contents.

        Scale: per-feature MAD, floored at 1e-12. Weight: proportional to
        |Spearman correlation| between the feature and the record's release
        at 1 hr, summing to 1; uniform over varying features when the store is
        small (< 5 records) or no correlation is measurable.
        """
        import numpy as np

        if len(self) == 0:
            raise ValidationError("cannot adapt weights on an empty store")
        if self._weights is not None:
            return self._weights
        def median(a):                        # by column, as np.median, which imports numpy.ma
            a, n = np.sort(a, axis=0), len(a)
            return a[n // 2] if n % 2 else (a[n // 2 - 1] + a[n // 2]) / 2.0
        matrix = self.feature_matrix()
        med = median(matrix)
        mad = median(np.abs(matrix - med))
        varying = mad > 0.0
        scales = np.maximum(mad, 1e-12)
        raw = np.zeros(len(FEATURE_NAMES))
        if len(self) >= 5 and np.any(varying):
            release_1hr = np.array([r.profile.released_at(1.0) for r in self.records])
            for j in np.flatnonzero(varying):
                rho = _spearman(matrix[:, j], release_1hr)
                if np.isfinite(rho):
                    raw[j] = abs(rho)
        if raw.sum() == 0.0:
            # Uniform over the varying features, or over all of them in a
            # degenerate store (e.g. one record): exact matches still score 1.
            raw = varying.astype(float) if np.any(varying) else np.ones(len(FEATURE_NAMES))
        weights = raw / raw.sum()
        weights.flags.writeable = scales.flags.writeable = False
        self._weights = weights, scales
        return self._weights

    def retrieve(self, query: FormulationInput, k: int,
                 feature_subset=None) -> list[tuple[FormulationRecord, float]]:
        """Top-k records by kernel score, descending; ties break on id.

        Returns at most ``len(store)`` entries; k beyond the store size is
        not padded. ``feature_subset`` restricts scoring to the named
        features (weights renormalized over them), for queries that only
        specify some fields.
        """
        import numpy as np

        if k < 1:
            raise ValidationError("k must be >= 1")
        if len(self) == 0:
            raise ValidationError("cannot retrieve from an empty store")
        weights, scales = self.adapt_weights()
        if feature_subset is not None:
            subset = set(feature_subset)
            unknown = subset - set(FEATURE_NAMES)
            if unknown:
                raise ValidationError(f"unknown feature(s): {sorted(unknown)}")
            in_subset = np.array([name in subset for name in FEATURE_NAMES])
            masked = np.where(in_subset, weights, 0.0)
            if masked.sum() == 0.0:
                # none of the requested features carries weight: uniform over the subset
                masked = in_subset.astype(float)
            weights = masked / masked.sum()
        diff = np.abs(query.feature_vector() - self.feature_matrix())
        scores = np.exp(-np.sum(weights * diff / scales, axis=1))
        ids = list(self._records)
        top = np.lexsort((np.array(ids), -scores))[:k]
        return [(self._records[ids[i]], float(scores[i])) for i in top]


def load_records(path: str | Path) -> list[FormulationRecord]:
    """Records from a file that must exist: a ``.jsonl`` file read as a store reads it,
    or JSON, ``{"records": [...]}`` or a bare list whose entries are read in file order
    by ``record_from_verbatim``, their ids defaulting to ``record-<n>``."""
    if str(path).endswith(".jsonl"):
        Path(path).stat()                   # raises for a missing file, unlike a store
        return RecordStore(path).records
    payload = read_json(path)
    entries = payload.get("records", payload) if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValidationError(f"{path}: expected a list of record objects")
    return [record_from_verbatim(entry, str(entry.get("id", f"record-{i + 1}")))
            for i, entry in enumerate(entries)]
