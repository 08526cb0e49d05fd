"""Machine-readable benchmark results: BENCH_<PR>.json.

Benchmarks print human-readable evidence with ``-s``; this module
additionally persists the numbers so performance is tracked across PRs.
Each benchmark records a named section; sections accumulate in one JSON
file (default ``benchmarks/out/BENCH_2.json``, override with the
``BENCH_OUTPUT`` environment variable).  ``benchmarks/out/`` is git-ignored,
so running the benchmarks never dirties the committed ``BENCH_*.json``
artifacts in the repo root; regenerating those means copying the fresh
files from ``benchmarks/out/``.  CI uploads the files as workflow artifacts
and the regression gate (``benchmarks/check_regression.py``) compares
smoke-scale regenerations against ``benchmarks/baselines/``.

Benchmarks that run through :func:`repro.api.run` should persist
:class:`repro.api.Result` objects via :func:`record_results` instead of
hand-picking metric fields: ``Result.to_dict()`` is the one schema the
CLI ``--output``, the BENCH files and the regression gate all consume.

Every section additionally lands in the content-addressed run store
(:mod:`repro.store`) when a store root is given — via the ``store=``
argument or the ``BENCH_STORE`` environment variable — so BENCH artifacts
and README tables can be regenerated from provenance-stamped records
instead of hand-maintained copies.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional

__all__ = ["record_bench_section", "record_results", "bench_output_path"]

_DEFAULT_FILENAME = "BENCH_2.json"


def _record_into_store(path: str, section: str, payload: Dict[str, object], store) -> None:
    """Mirror one just-written section into a run store (if one is configured)."""
    root = store or os.environ.get("BENCH_STORE")
    if not root:
        return
    from repro.store import RunStore  # deferred: benchmarks import this module early

    RunStore(root).ingest_bench_payload(
        os.path.basename(path), {section: payload}, source=f"bench:{section}"
    )


def bench_output_path(filename: str = None) -> str:
    override = os.environ.get("BENCH_OUTPUT")
    if override:
        return override
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename or _DEFAULT_FILENAME)


def record_bench_section(
    section: str,
    payload: Dict[str, object],
    filename: str = None,
    store: Optional[str] = None,
) -> str:
    """Merge ``payload`` under ``section`` in the benchmark results file.

    Read-modify-write keeps sections from independent benchmark runs; the
    scale tag records whether a section came from a smoke (CI) or full run.
    ``filename`` targets a different per-PR results file (e.g. the
    federation benchmark writes ``BENCH_3.json``); the ``BENCH_OUTPUT``
    environment variable overrides both.  The section also lands in the
    run store named by ``store`` or ``BENCH_STORE`` (see module docstring).
    """
    path = bench_output_path(filename)
    data: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    enriched = dict(payload)
    enriched.setdefault("scale", os.environ.get("BENCH_SCALE", "full"))
    data[section] = enriched
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _record_into_store(path, section, enriched, store)
    return path


def record_results(
    section: str,
    results: Mapping[str, "object"],
    filename: str = None,
    extra: Dict[str, object] = None,
    include_spec: bool = False,
    store: Optional[str] = None,
) -> str:
    """Persist a mapping of labelled :class:`repro.api.Result` objects.

    Each result is serialized through ``Result.to_dict()`` so the BENCH
    file carries the same metrics schema as the CLI and the regression
    gate; ``extra`` merges additional summary keys (degradation ratios,
    scaling factors) into the section and ``include_spec`` optionally
    keeps the resolved specs (off by default for lean artifacts).
    """
    payload: Dict[str, object] = {
        "results": {
            label: result.to_dict(include_spec=include_spec)
            for label, result in results.items()
        }
    }
    if extra:
        payload.update(extra)
    return record_bench_section(section, payload, filename=filename, store=store)
