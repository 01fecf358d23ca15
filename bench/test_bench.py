"""Self-tests of the benchmark; they are not part of the package's test suite.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import coldstart  # noqa: E402

coldstart.use_checkout_source()

import numpy as np  # noqa: E402
import pcpolar as pp  # noqa: E402
from pcpolar import cli, sim  # noqa: E402

from checks import check_pool, check_sweep, read_counts, same_result  # noqa: E402
from tracing import Span, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, make_frames, master_seed, sim_config  # noqa: E402

SPEC = json.loads((coldstart.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SHORT = dataclasses.replace(WORKLOADS["sweep-short-sc"], frames=300)
POOL = dataclasses.replace(WORKLOADS["decode-single"], frames=40)


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout, as the benchmark writes only there."""
    d = coldstart.ROOT / ".bench_out" / "selftest" / request.node.name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def simulate(w, seed, d, *extra):
    cfg = d / f"cfg{seed}.json"
    cfg.write_text(json.dumps(sim_config(w, seed)))
    out = d / f"out{seed}"
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--decoders", ",".join(w.decoders), *extra]
    assert cli.main(argv) == 0
    return read_counts(f"{out}.csv")[0]


def run_bench(*args, cwd=coldstart.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# -- names


def test_metric_and_workload_names_follow_the_grammar():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_declared_workloads_are_runnable_and_described_alike():
    for declared in SPEC["workloads"]:
        assert WORKLOADS[declared["name"]].why == declared["why"]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_reports_exactly_the_declared_metrics(trace, key):
    done = run_bench("--workload", "sweep-short-sc", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name in declared:
        assert NAME.fullmatch(name)


def test_without_the_program_the_run_fails_without_a_result(scratch):
    shutil.copy(coldstart.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "decode-single", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- checks trip on corrupted results


def test_a_flipped_count_trips_the_sweep_checks(scratch):
    counts = simulate(SHORT, 1, scratch)
    assert check_sweep(SHORT, counts, SHORT.frames, counts) == []
    key = sorted(counts)[0]
    frames, fe, be = counts[key]
    for flipped in ((frames, fe + 1, be), (frames, fe, be ^ 1), (frames - 1, fe, be)):
        assert check_sweep(SHORT, {**counts, key: flipped}, SHORT.frames, counts)
    assert check_sweep(SHORT, {**counts, key: (frames, frames, be)}, SHORT.frames)  # FER ceiling
    missing = dict(counts)
    del missing[key]
    assert check_sweep(SHORT, missing, SHORT.frames)


def pool(seed):
    spec = pp.CodeSpec(**POOL.code)
    rolemap, pcs = pp.build_code(spec)
    msgs, llrs = make_frames(pp, spec, rolemap, pcs, master_seed(POOL.name, seed), POOL.snr_points[0], 0, POOL.frames)
    return spec, pp.CsrScanDecoder(rolemap, pcs), msgs, llrs


def test_a_flipped_decoded_bit_trips_the_single_frame_check():
    _, dec, _, llrs = pool(1)
    batch = dec.decode(llrs, POOL.t_max)
    single = dec.decode(llrs[3], POOL.t_max)
    assert same_result(single, batch, 3)
    single.info_bits = single.info_bits.copy()
    single.info_bits[0] ^= 1
    assert not same_result(single, batch, 3)


def test_the_frame_pool_is_what_simulate_decodes_and_a_flipped_bit_shows(scratch):
    _, dec, msgs, llrs = pool(2)
    batch = dec.decode(llrs, POOL.t_max)
    counts = simulate(POOL, 2, scratch)
    assert check_pool(POOL, counts, msgs, batch) == []
    bits = [b.copy() for b in batch.iteration_info_bits]
    bits[-1][0, 0] ^= 1
    assert check_pool(POOL, counts, msgs, dataclasses.replace(batch, iteration_info_bits=tuple(bits)))


# -- seeds


def test_the_same_seed_gives_identical_counts_for_any_worker_count(scratch):
    assert sim_config(SHORT, 4) == sim_config(SHORT, 4)
    one = simulate(SHORT, 4, scratch)
    assert simulate(SHORT, 4, scratch, "--workers", "2") == one
    assert simulate(SHORT, 4, scratch) == one


def test_a_different_seed_gives_different_inputs():
    assert sim_config(SHORT, 4)["sim"]["master_seed"] != sim_config(SHORT, 5)["sim"]["master_seed"]
    assert master_seed("sweep-short-sc", 4) != master_seed("sweep-long-scan", 4)
    _, _, msgs_a, llrs_a = pool(4)
    _, _, msgs_b, llrs_b = pool(4)
    _, _, msgs_c, llrs_c = pool(5)
    assert np.array_equal(llrs_a, llrs_b) and np.array_equal(msgs_a, msgs_b)
    assert not np.array_equal(llrs_a, llrs_c)


# -- tracing


def test_self_time_subtracts_the_union_of_child_spans():
    t = Tracer()
    t.spans = [Span("root", 0.0, 10.0, None, "r"), Span("a", 1.0, 3.0, 0, "r"), Span("b", 2.0, 5.0, 0, "r")]
    t.spans.append(Span("c", 6.0, 7.0, 0, "r"))
    assert t.self_seconds(0) == pytest.approx(5.0)
    assert t.self_seconds(1) == pytest.approx(2.0)


def test_instrument_records_parented_spans_and_restores_the_names(scratch):
    before = (sim.encode, sim.run_cell, cli.sweep, pp.ScDecoder.decode)
    t = Tracer()
    with instrument(t), t.span("cli.simulate"):
        simulate(SHORT, 1, scratch, "--workers", "1")
    assert (sim.encode, sim.run_cell, cli.sweep, pp.ScDecoder.decode) == before
    assert "decode" not in vars(pp.CsrScanDecoder)
    by_name = {}
    for i, s in enumerate(t.spans):
        by_name.setdefault(s.name, []).append(i)
    assert len(by_name["sim.run_cell"]) == len(SHORT.snr_points)
    assert sum(t.spans[i].frames for i in by_name["decoders.sc.decode"]) == SHORT.frames * len(SHORT.snr_points)
    for i in by_name["decoders.sc.decode"]:
        assert t.spans[t.spans[i].parent].name == "sim.run_cell"
