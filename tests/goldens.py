"""Golden outputs that the output-writing code must reproduce byte for byte.

``golden/reports_default.csv`` is the default ten-seed matrix's
``reports.csv`` and ``golden/small_outputs.json`` holds the sha256 of every
trace, figure and aggregate file of a two-seed ``small_config`` run. Timing
columns (``sr_ms``, ``median_sr_ms``) are dropped before either is stored or
compared, because they differ from run to run.

Regenerate only when a change is meant to alter the outputs, and record the
reason in CHANGES.md:

    PYTHONPATH=src python tests/goldens.py
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REPORTS_GOLDEN = GOLDEN_DIR / "reports_default.csv"
SMALL_GOLDEN = GOLDEN_DIR / "small_outputs.json"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def strip_timing(text: str) -> str:
    """Drop every column whose header mentions ``sr_ms``."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    drop = [i for i, h in enumerate(header) if "sr_ms" in h]
    out = []
    for line in lines:
        cells = [c for i, c in enumerate(line.split(",")) if i not in drop]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def output_digests(out) -> dict:
    """sha256 of every ``traces/`` and ``figs/`` file of a run, and of its
    ``aggregate.csv`` without the timing column, keyed by relative path."""
    out = Path(out)
    digests = {}
    for path in sorted(out.glob("traces/*")) + sorted(out.glob("figs/*")):
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    aggregate = strip_timing((out / "aggregate.csv").read_text(encoding="utf-8"))
    digests["aggregate.csv"] = hashlib.sha256(aggregate.encode()).hexdigest()
    return digests


def mismatch_note() -> str:
    """Assertion message naming the versions the goldens were made with and
    the versions running now."""
    golden = json.loads(SMALL_GOLDEN.read_text(encoding="utf-8"))
    made = {k: golden[k] for k in versions()}
    return f"goldens made with {made}, running {versions()}"


def _write():
    from terrafilter.bench import default_experiment_config, run_experiments
    from test_bench import small_config

    with tempfile.TemporaryDirectory() as tmp:
        config = default_experiment_config(str(Path(tmp) / "matrix"))
        config.emit_traces = False
        run_experiments(config)
        reports = (Path(tmp) / "matrix" / "reports.csv").read_text(encoding="utf-8")
        REPORTS_GOLDEN.write_text(strip_timing(reports), encoding="utf-8")

        run_experiments(small_config(Path(tmp) / "small", seeds=(0, 1)))
        payload = {**versions(), "files": output_digests(Path(tmp) / "small")}
    SMALL_GOLDEN.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write()
