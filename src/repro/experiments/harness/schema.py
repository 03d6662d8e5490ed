"""The versioned ``BENCH_<name>.json`` schema: builder, writer, validator.

Every ``repro-storage bench`` invocation and every serve session emits
one machine-readable document recording what was run and what it cost —
the repo's perf trajectory — assembled by :func:`bench_document` and
written by :func:`write_document`. The validator is deliberately
dependency-free (no jsonschema) and returns a list of human-readable
violations so CI can fail loudly on a malformed document.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Current document schema identifier.
BENCH_SCHEMA = "repro-bench/1"

#: The ``cache`` block of a run that used no run cache.
_NO_CACHE = {"enabled": False, "hits": 0, "misses": 0, "corrupt": 0, "hit_rate": 0.0}


def bench_document(
    bench: str,
    *,
    scale: float,
    seed: int,
    wall_clock_s: float,
    events_processed: int,
    result: Dict[str, Any],
    mwis_scale: float = 1.0,
    jobs: int = 1,
    created_unix: float = 0.0,
    peak_rss_bytes: Optional[int] = None,
    cache: Optional[Dict[str, Any]] = None,
    points: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Assemble one ``repro-bench/1`` document. The defaults are the
    wall-free stand-ins of a virtual-clock serve report."""
    return {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "created_unix": created_unix,
        "scale": scale,
        "mwis_scale": mwis_scale,
        "seed": seed,
        "jobs": jobs,
        "wall_clock_s": wall_clock_s,
        "events_processed": events_processed,
        "events_per_sec": events_processed / wall_clock_s if wall_clock_s > 0 else 0.0,
        "peak_rss_bytes": peak_rss_bytes,
        "cache": dict(_NO_CACHE) if cache is None else cache,
        "points": list(points),
        "result": result,
    }


def document_json(document: Mapping[str, Any]) -> str:
    """The byte-stable file form: sorted keys, two-space indent, final
    newline (the compact cache-key form is ``serialize.canonical_json``)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def document_digest(document: Mapping[str, Any]) -> str:
    """SHA-256 of :func:`document_json` — what the report pins record."""
    return hashlib.sha256(document_json(document).encode("utf-8")).hexdigest()


def write_document(document: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Write ``document`` to ``path`` in its :func:`document_json` form."""
    target = Path(path)
    target.write_text(document_json(document), encoding="utf-8")
    return target


_NUMBER: Tuple[type, ...] = (int, float)
_Kinds = Union[type, Tuple[type, ...]]


def _require(
    errors: List[str],
    payload: Mapping[str, Any],
    key: str,
    kinds: _Kinds,
    where: str = "",
) -> Any:
    prefix = f"{where}." if where else ""
    if key not in payload:
        errors.append(f"missing field {prefix}{key}")
        return None
    value = payload[key]
    if isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        errors.append(f"{prefix}{key} must not be a bool")
        return None
    if not isinstance(value, kinds):
        kind_names = (
            "/".join(k.__name__ for k in kinds)
            if isinstance(kinds, tuple)
            else kinds.__name__
        )
        errors.append(
            f"{prefix}{key} must be {kind_names}, got {type(value).__name__}"
        )
        return None
    return value


def _non_negative(
    errors: List[str], value: Any, name: str
) -> None:
    if isinstance(value, _NUMBER) and not isinstance(value, bool) and value < 0:
        errors.append(f"{name} must be >= 0, got {value}")


def validate_bench_payload(payload: Mapping[str, Any]) -> List[str]:
    """All schema violations of one bench document (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, Mapping):
        return ["bench document must be a JSON object"]

    schema = _require(errors, payload, "schema", str)
    if schema is not None and schema != BENCH_SCHEMA:
        errors.append(f"schema must be {BENCH_SCHEMA!r}, got {schema!r}")
    _require(errors, payload, "bench", str)
    _require(errors, payload, "created_unix", _NUMBER)
    scale = _require(errors, payload, "scale", _NUMBER)
    if scale is not None and scale <= 0:
        errors.append(f"scale must be > 0, got {scale}")
    mwis_scale = _require(errors, payload, "mwis_scale", _NUMBER)
    if mwis_scale is not None and mwis_scale <= 0:
        errors.append(f"mwis_scale must be > 0, got {mwis_scale}")
    _require(errors, payload, "seed", int)
    jobs = _require(errors, payload, "jobs", int)
    if jobs is not None and jobs < 1:
        errors.append(f"jobs must be >= 1, got {jobs}")
    wall = _require(errors, payload, "wall_clock_s", _NUMBER)
    _non_negative(errors, wall, "wall_clock_s")
    events = _require(errors, payload, "events_processed", int)
    _non_negative(errors, events, "events_processed")
    rate = _require(errors, payload, "events_per_sec", _NUMBER)
    _non_negative(errors, rate, "events_per_sec")
    if "peak_rss_bytes" not in payload:
        errors.append("missing field peak_rss_bytes")
    elif payload["peak_rss_bytes"] is not None:
        rss = payload["peak_rss_bytes"]
        if isinstance(rss, bool) or not isinstance(rss, int):
            errors.append("peak_rss_bytes must be an int or null")
        else:
            _non_negative(errors, rss, "peak_rss_bytes")

    cache = _require(errors, payload, "cache", dict)
    if cache is not None:
        _require(errors, cache, "enabled", bool, where="cache")
        for counter in ("hits", "misses", "corrupt"):
            value = _require(errors, cache, counter, int, where="cache")
            _non_negative(errors, value, f"cache.{counter}")
        hit_rate = _require(errors, cache, "hit_rate", _NUMBER, where="cache")
        if hit_rate is not None and not 0.0 <= hit_rate <= 1.0:
            errors.append(f"cache.hit_rate must be in [0, 1], got {hit_rate}")

    points = _require(errors, payload, "points", list)
    if points is not None:
        for index, point in enumerate(points):
            where = f"points[{index}]"
            if not isinstance(point, Mapping):
                errors.append(f"{where} must be an object")
                continue
            _require(errors, point, "spec", dict, where=where)
            _require(errors, point, "cached", bool, where=where)
            point_wall = _require(errors, point, "wall_s", _NUMBER, where=where)
            _non_negative(errors, point_wall, f"{where}.wall_s")
            point_events = _require(
                errors, point, "events_processed", int, where=where
            )
            _non_negative(errors, point_events, f"{where}.events_processed")

    _require(errors, payload, "result", dict)
    return errors


def validate_bench_file(path: Union[str, Path]) -> List[str]:
    """Validate one ``BENCH_*.json`` file on disk."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        return [f"invalid JSON in {path}: {exc}"]
    if not isinstance(payload, dict):
        return [f"{path}: bench document must be a JSON object"]
    return validate_bench_payload(payload)
