"""Correctness checks on the program's outputs.

Each check returns a list of problems; an operation with any problem
counts as failed, and a run with a failed operation is not correct.
numpy is imported inside the functions that need it, so that run.py can
import this module before the cold set-up timer starts.
"""

from __future__ import annotations

import csv
from pathlib import Path


def read_counts(csv_path) -> tuple[dict, dict]:
    """Counts and worker seconds from a `pcpolar simulate` CSV.

    Returns {(decoder, snr_db, iter): (frames, frame_errors, bit_errors)}
    and {(decoder, snr_db): seconds}; `seconds` repeats on every
    iteration row of a cell, so it is kept once per (decoder, SNR).
    """
    lines = [l for l in Path(csv_path).read_text().splitlines() if l and not l.startswith("#")]
    counts, seconds = {}, {}
    for row in csv.DictReader(lines):
        snr = float(row["snr_db"])
        counts[(row["decoder"], snr, int(row["iter"]))] = (
            int(row["frames"]),
            int(row["frame_errors"]),
            int(row["bit_errors"]),
        )
        seconds[(row["decoder"], snr)] = float(row["seconds"])
    return counts, seconds


def expected_cells(w) -> set:
    return {(kind, float(snr), t) for kind in w.decoders for snr in w.snr_points for t in range(1, w.iterations(kind) + 1)}


def check_sweep(w, counts: dict, frames: int, reference: dict | None = None) -> list[str]:
    """One simulate command's counts: cell set, frame count, FER ceiling, reference equality."""
    problems = []
    cells = expected_cells(w)
    if set(counts) != cells:
        problems.append(f"cells missing or unexpected: {sorted(set(counts) ^ cells)}")
    for key, (n, fe, _) in sorted(counts.items()):
        ceiling = w.fer_ceiling.get(key[1], 0.0)
        if n != frames:
            problems.append(f"{key}: {n} frames, configured {frames}")
        elif fe > ceiling * n:
            problems.append(f"{key}: FER {fe / n:.4g} above the sanity ceiling {ceiling}")
    if reference is not None and counts != reference:
        diff = [k for k in sorted(set(counts) | set(reference)) if counts.get(k) != reference.get(k)]
        problems.append(f"counts differ from the traced workers=1 run at {diff}")
    return problems


def error_counts(iteration_bits, msgs) -> list[tuple[int, int]]:
    """(frame errors, bit errors) of each iteration's hard decisions."""
    import numpy as np

    out = []
    for bits in iteration_bits:
        errs = np.asarray(bits) != msgs
        out.append((int(errs.any(axis=1).sum()), int(errs.sum())))
    return out


def check_pool(w, counts: dict, msgs, batch) -> list[str]:
    """A simulate command over the frame pool counts the errors a batch decode makes on it."""
    kind, snr = w.decoders[0], float(w.snr_points[0])
    expected = {
        (kind, snr, t + 1): (len(msgs), fe, be)
        for t, (fe, be) in enumerate(error_counts(batch.iteration_info_bits, msgs))
    }
    problems = check_sweep(w, counts, len(msgs))
    if counts != expected:
        problems.append(f"simulate counts {counts} differ from the batch decode of the pool {expected}")
    return problems


def same_result(single, batch, i: int) -> bool:
    """A single-frame DecodeResult equals row i of the batch decode, bitwise."""
    import numpy as np

    return (
        np.array_equal(single.info_bits, batch.info_bits[i])
        and np.array_equal(single.leaf_posteriors, batch.leaf_posteriors[i])
        and np.array_equal(single.coded_posteriors, batch.coded_posteriors[i])
        and all(np.array_equal(s, b[i]) for s, b in zip(single.iteration_info_bits, batch.iteration_info_bits))
    )
